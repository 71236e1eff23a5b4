#include "analytics/resilient.h"

#include <algorithm>
#include <atomic>
#include <stdexcept>

#include "analytics/programs.h"
#include "core/checkpoint.h"
#include "core/degraded.h"
#include "core/recovery.h"
#include "obs/obs.h"
#include "support/storage.h"

namespace cusp::analytics {

namespace {

using core::DistGraph;

// Checkpoints of different membership epochs must never mix: a snapshot at
// superstep s written before an eviction and one written after describe
// different layouts under the same phase number. Each epoch gets its own
// subdirectory.
std::string epochDir(const std::string& dir, uint32_t epoch) {
  return dir + "/e" + std::to_string(epoch);
}

void atomicMax(std::atomic<uint32_t>& target, uint32_t value) {
  uint32_t current = target.load(std::memory_order_relaxed);
  while (current < value &&
         !target.compare_exchange_weak(current, value,
                                       std::memory_order_relaxed)) {
  }
}

// The resilient driver. `makeProgram(net, me, part)` builds the per-host
// program (analytics/programs.h) inside each attempt: its constructor may
// communicate, e.g. pagerank's degree exchange, and is covered by the same
// fault handling as the supersteps.
template <typename T, typename MakeProgram>
std::vector<T> runResilientImpl(std::span<const DistGraph> partitions,
                                const ResilienceOptions& options,
                                ResilienceReport* reportOut,
                                MakeProgram&& makeProgram) {
  ResilienceReport report;
  if (partitions.empty()) {
    if (reportOut != nullptr) {
      *reportOut = report;
    }
    return {};
  }
  const uint32_t k = static_cast<uint32_t>(partitions.size());
  for (uint32_t r = 0; r < k; ++r) {
    if (partitions[r].hostId != r || partitions[r].numHosts != k) {
      throw std::invalid_argument(
          "runResilient: partitions must be a complete rank-indexed family");
    }
  }
  const uint64_t numGlobalNodes = partitions.front().numGlobalNodes;

  // What the attempts share (core/recovery.h): the injector, the straggler
  // monitor's blame ledger and the ENOSPC latch. Nothing here can fence a
  // host, so the run builds no write fence.
  core::RecoveryContext recovery(k, options.faultPlan, options.straggler,
                                 /*withFence=*/false);
  const bool checkpoints =
      options.enableCheckpoints && !options.checkpointDir.empty();
  const uint32_t interval = std::max(1u, options.checkpointInterval);
  if (checkpoints) {
    core::garbageCollectCheckpointTmp(options.checkpointDir);
  }

  // Observability: attempt spans on the driver lane, superstep spans per
  // host lane, and the superstep-level checkpoint counters (distinct from
  // the file-level cusp.checkpoint.* counters the store maintains).
  const obs::Sink obsSink = obs::sink();
  obs::Counter* superstepsCtr = nullptr;
  obs::Histogram* frontierHist = nullptr;
  obs::Counter* ckptWrittenCtr = nullptr;
  obs::Counter* ckptRestoredCtr = nullptr;
  if (obsSink.metrics) {
    superstepsCtr = &obsSink.metrics->counter("cusp.analytics.supersteps",
                                              {{"algo", "resilient"}});
    frontierHist = &obsSink.metrics->histogram("cusp.analytics.frontier_size",
                                               {{"algo", "resilient"}});
    ckptWrittenCtr =
        &obsSink.metrics->counter("cusp.analytics.checkpoints_written");
    ckptRestoredCtr =
        &obsSink.metrics->counter("cusp.analytics.checkpoints_restored");
  }

  // Membership-epoch bookkeeping. evictedAtEpochStart[e] is the (sorted)
  // set of ranks already evicted when epoch e began — the complement is the
  // participant set whose snapshots a restore from epoch e must load.
  uint32_t epoch = 0;
  std::vector<uint32_t> evictedRanks;
  std::vector<std::vector<uint32_t>> evictedAtEpochStart{{}};
  std::vector<uint32_t> maxPhaseByEpoch{0};
  std::atomic<uint32_t> maxPhaseSaved{0};
  std::atomic<uint32_t> checkpointsSaved{0};
  uint32_t failuresThisEpoch = 0;
  // Writes the report out, with the checkpoint and straggler tallies as the
  // run's recovery context holds them now (host threads are joined).
  auto publish = [&] {
    report.checkpointsSaved = checkpointsSaved.load();
    report.checkpointWriteFailures = recovery.checkpointWriteFailures();
    report.checkpointingDisabledByEnospc = recovery.checkpointsDisabled();
    report.stragglerSoftReports = recovery.stragglerSoftReports();
    if (reportOut != nullptr) {
      *reportOut = report;
    }
  };

  auto participants = [&](uint32_t e) {
    std::vector<uint32_t> out;
    const auto& evicted = evictedAtEpochStart[e];
    for (uint32_t r = 0; r < k; ++r) {
      if (std::find(evicted.begin(), evicted.end(), r) == evicted.end()) {
        out.push_back(r);
      }
    }
    return out;
  };

  // The family the current attempt runs over: the caller's partitions, or —
  // after evictions — the deterministic survivor redistribution in the
  // ORIGINAL rank space (evicted slots empty; the membership-aware engine
  // skips them).
  std::vector<DistGraph> degradedParts;

  for (;;) {
    // A cancelled/expired job must not start another attempt; publish what
    // happened so far, then unwind with JobCancelled (not a fault kind).
    if (options.cancel && options.cancel->expired()) {
      publish();
      options.cancel->check("analytics attempt");
    }
    ++report.attempts;
    const auto attemptNet =
        recovery.network(k, options.costModel, options.aggregation,
                         options.recvTimeoutSeconds, options.retry);
    comm::Network& net = *attemptNet;
    for (uint32_t r : evictedRanks) {
      net.evict(r);
    }
    const std::span<const DistGraph> parts =
        degradedParts.empty() ? partitions
                              : std::span<const DistGraph>(degradedParts);

    // Rollback agreement: newest epoch first, the last superstep EVERY
    // participant of that epoch can still recover (min over participants of
    // the latest valid checkpoint, buddy replicas consulted).
    maxPhaseByEpoch[epoch] =
        std::max(maxPhaseByEpoch[epoch], maxPhaseSaved.load());
    uint32_t resumeEpoch = epoch;
    uint32_t resumePhase = 0;
    if (checkpoints) {
      for (uint32_t e = epoch + 1; e-- > 0 && resumePhase == 0;) {
        const uint32_t cap = maxPhaseByEpoch[e];
        if (cap == 0) {
          continue;
        }
        const std::string dir = epochDir(options.checkpointDir, e);
        uint32_t agreed = UINT32_MAX;
        for (uint32_t r : participants(e)) {
          agreed =
              std::min(agreed, core::latestValidCheckpoint(dir, r, k, cap));
        }
        if (agreed != UINT32_MAX && agreed > 0) {
          resumeEpoch = e;
          resumePhase = agreed;
        }
      }
    }
    report.resumedFromSuperstep =
        std::max(report.resumedFromSuperstep, resumePhase);

    std::vector<T> global(numGlobalNodes);
    std::atomic<uint32_t> superstepsRun{0};
    try {
      obs::ScopedSpan attemptSpan(obsSink.trace.get(), obs::kDriverLane,
                                  "analytics attempt " +
                                      std::to_string(report.attempts));
      comm::runHosts(net, [&](comm::HostId me) {
        net.enterPhase(me, 0);
        const DistGraph& part = parts[me];
        auto program = makeProgram(net, me, part);
        if (resumePhase > 0) {
          // Replicated restore: every host loads every participant's
          // snapshot of the agreed superstep and applies the gids it holds
          // (masters AND mirrors — mirrors take their master's canonical
          // value). The frontier union is a superset of the live frontier,
          // which is harmless for monotone programs and unused by pagerank.
          const std::string dir =
              epochDir(options.checkpointDir, resumeEpoch);
          for (uint32_t r : participants(resumeEpoch)) {
            auto payload =
                core::loadCheckpointOrReplica(dir, r, k, resumePhase);
            if (!payload) {
              // Retryable: the next attempt's agreement round will settle
              // on whatever is still recoverable (an earlier phase or
              // epoch), or fall through to degraded re-partition.
              throw support::StorageError(
                  support::StorageError::Kind::kReadFailed,
                  core::checkpointPath(dir, r, resumePhase),
                  "agreed checkpoint disappeared between agreement and "
                  "restore");
            }
            if (ckptRestoredCtr != nullptr) {
              ckptRestoredCtr->add();
            }
            support::RecvBuffer buf(std::move(*payload));
            uint64_t snapSuperstep = 0;
            std::vector<uint64_t> gids;
            std::vector<T> vals;
            std::vector<uint64_t> frontierGids;
            support::deserializeAll(buf, snapSuperstep, gids, vals,
                                    frontierGids);
            if (gids.size() != vals.size()) {
              throw std::out_of_range(
                  "analytics restore: snapshot of host " + std::to_string(r) +
                  " pairs " + std::to_string(gids.size()) + " gids with " +
                  std::to_string(vals.size()) + " values");
            }
            for (size_t i = 0; i < gids.size(); ++i) {
              if (auto lid = part.localIdOf(gids[i])) {
                program.value[*lid] = vals[i];
              }
            }
            for (uint64_t gid : frontierGids) {
              if (auto lid = part.localIdOf(gid)) {
                program.frontier.setSingleWriter(*lid);
              }
            }
          }
        }
        uint32_t s = resumePhase;  // next superstep index (0-based)
        for (;;) {
          if (options.cancel) {
            options.cancel->check("superstep " + std::to_string(s));
          }
          obs::ScopedSpan stepSpan(obsSink.trace.get(), me,
                                   "superstep " + std::to_string(s));
          if (superstepsCtr != nullptr) {
            superstepsCtr->add();
            frontierHist->observe(static_cast<double>(program.activeCount()));
          }
          program.superstep();
          const bool more = program.vote(s);
          if (checkpoints && !recovery.checkpointsDisabled() &&
              ((s + 1) % interval == 0 || !more)) {
            support::SendBuffer payload;
            const uint64_t superstep = s;
            std::vector<uint64_t> gids;
            std::vector<T> vals;
            gids.reserve(part.numMasters);
            vals.reserve(part.numMasters);
            for (uint64_t lid = 0; lid < part.numMasters; ++lid) {
              gids.push_back(part.globalId(lid));
              vals.push_back(program.value[lid]);
            }
            std::vector<uint64_t> frontierGids;
            std::vector<uint64_t> frontierLids;
            program.frontier.collectSetBits(frontierLids);
            frontierGids.reserve(frontierLids.size());
            for (uint64_t lid : frontierLids) {
              frontierGids.push_back(part.globalId(lid));
            }
            support::serializeAll(payload, superstep, gids, vals,
                                  frontierGids);
            // A failed checkpoint write never fails the superstep: the run
            // continues, at worst rolling further back on the next fault.
            const uint32_t phase = s + 1;
            if (recovery.commitCheckpoint(
                    epochDir(options.checkpointDir, epoch), me, k, phase,
                    payload, options.buddyReplication)) {
              checkpointsSaved.fetch_add(1, std::memory_order_relaxed);
              if (ckptWrittenCtr != nullptr) {
                ckptWrittenCtr->add();
              }
              atomicMax(maxPhaseSaved, phase);
            }
          }
          ++s;
          if (!more) {
            break;
          }
        }
        atomicMax(superstepsRun, s);
        // Masters hold the canonical values; master gid sets are disjoint
        // across alive ranks, so concurrent writes land on distinct slots.
        for (uint64_t lid = 0; lid < part.numMasters; ++lid) {
          global[part.globalId(lid)] = program.value[lid];
        }
      });
      const comm::VolumeStats volume = net.statsSnapshot();
      report.corruptionsDetected += volume.corruptionsDetected;
      report.corruptionsRecovered += volume.corruptionsRecovered;
      report.supersteps = superstepsRun.load();
      report.finalAliveHosts = net.numAliveHosts();
      publish();
      return global;
    } catch (...) {
      const comm::VolumeStats volume = net.statsSnapshot();
      report.corruptionsDetected += volume.corruptionsDetected;
      report.corruptionsRecovered += volume.corruptionsRecovered;
      const std::exception_ptr ep = std::current_exception();
      std::string kind;
      std::string what;
      try {
        std::rethrow_exception(ep);
      } catch (const SyncRoundFailed& e) {
        kind = "SyncRoundFailed";
        what = e.what();
      } catch (...) {
        const auto classified = core::classifyFault(std::current_exception());
        if (!classified) {
          publish();
          throw;  // not a fault (logic error, bad input): propagate as-is
        }
        kind = classified->kindName();
        what = classified->what;
      }
      report.failures.push_back(what);
      report.failureKinds.push_back(kind);

      // A fenced minority host is fail-fast by contract: the quorum rule
      // already decided this side of the partition may not proceed, and no
      // amount of retrying or evicting from HERE can conjure a majority.
      // (The majority side never throws this; its view completes or fails
      // through the ordinary fault kinds above.)
      if (kind == "MinorityPartition") {
        publish();
        std::rethrow_exception(ep);
      }

      // Permanent losses AND condemned stragglers turn into evictions
      // (degraded mode): reassign their masters to the survivors, open a
      // fresh epoch with a fresh attempt budget. A crashed host's
      // checkpoint store dies with it; a condemned straggler's machine is
      // merely slow, so its files stay readable for the restore path.
      const std::vector<core::EvictionCandidate> newlyDown =
          recovery.evictionCandidates(evictedRanks);
      if (options.degradedMode && !newlyDown.empty()) {
        maxPhaseByEpoch[epoch] =
            std::max(maxPhaseByEpoch[epoch], maxPhaseSaved.load());
        for (const core::EvictionCandidate& c : newlyDown) {
          report.evictions.push_back(c.host);
          evictedRanks.push_back(c.host);
          for (uint32_t e = 0; checkpoints && c.crashed && e <= epoch; ++e) {
            core::removeHostCheckpointStore(epochDir(options.checkpointDir, e),
                                            c.host, k, maxPhaseByEpoch[e]);
          }
        }
        if (evictedRanks.size() >= k) {
          publish();
          std::rethrow_exception(ep);  // no survivors
        }
        std::sort(evictedRanks.begin(), evictedRanks.end());
        std::vector<DistGraph> family(partitions.begin(), partitions.end());
        degradedParts =
            core::redistributePartitions(family, evictedRanks,
                                         /*compact=*/false);
        ++epoch;
        evictedAtEpochStart.push_back(evictedRanks);
        maxPhaseByEpoch.push_back(0);
        maxPhaseSaved.store(0);
        failuresThisEpoch = 0;
        continue;
      }
      if (++failuresThisEpoch >= std::max(1u, options.maxRecoveryAttempts)) {
        publish();
        std::rethrow_exception(ep);
      }
    }
  }
}

}  // namespace

std::vector<uint64_t> runBfsResilient(std::span<const DistGraph> partitions,
                                      uint64_t sourceGid,
                                      const ResilienceOptions& options,
                                      ResilienceReport* report) {
  return runResilientImpl<uint64_t>(
      partitions, options, report,
      [&](comm::Network& net, comm::HostId me, const DistGraph& part) {
        return detail::bfsProgram(net, me, part, sourceGid);
      });
}

std::vector<uint64_t> runSsspResilient(std::span<const DistGraph> partitions,
                                       uint64_t sourceGid,
                                       const ResilienceOptions& options,
                                       ResilienceReport* report) {
  return runResilientImpl<uint64_t>(
      partitions, options, report,
      [&](comm::Network& net, comm::HostId me, const DistGraph& part) {
        return detail::ssspProgram(net, me, part, sourceGid);
      });
}

std::vector<uint64_t> runCcResilient(std::span<const DistGraph> partitions,
                                     const ResilienceOptions& options,
                                     ResilienceReport* report) {
  return runResilientImpl<uint64_t>(
      partitions, options, report,
      [&](comm::Network& net, comm::HostId me, const DistGraph& part) {
        return detail::ccProgram(net, me, part);
      });
}

std::vector<double> runPageRankResilient(
    std::span<const DistGraph> partitions, const PageRankParams& params,
    const ResilienceOptions& options, ResilienceReport* report) {
  return runResilientImpl<double>(
      partitions, options, report,
      [&](comm::Network& net, comm::HostId me, const DistGraph& part) {
        return detail::PageRankProgram(net, me, part, params);
      });
}

}  // namespace cusp::analytics
