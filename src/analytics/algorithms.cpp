#include "analytics/algorithms.h"

#include <algorithm>

#include "analytics/engine.h"
#include "analytics/programs.h"
#include "obs/obs.h"
#include "support/timer.h"

namespace cusp::analytics {

namespace {

using core::DistGraph;
using support::DynamicBitset;

// Per-algorithm-run observability, resolved once per host: a superstep
// counter and frontier-size histogram labelled by algorithm, plus the trace
// buffer for per-round spans. All members stay null without a sink.
struct RoundObs {
  std::shared_ptr<obs::TraceBuffer> trace;
  std::shared_ptr<obs::MetricsRegistry> metrics;
  obs::Counter* supersteps = nullptr;
  obs::Histogram* frontier = nullptr;

  explicit RoundObs(const char* algo) {
    if (!obs::attached()) {
      return;
    }
    const obs::Sink sink = obs::sink();
    trace = sink.trace;
    if (sink.metrics) {
      metrics = sink.metrics;
      supersteps = &metrics->counter("cusp.analytics.supersteps",
                                     {{"algo", algo}});
      frontier = &metrics->histogram("cusp.analytics.frontier_size",
                                     {{"algo", algo}});
    }
  }
};

// Runs `program` to its fixpoint on this host: the plain drivers' loop, with
// no checkpoints and no fault handling. A round's BSP makespan is the
// slowest host's CPU plus modeled communication over local compute, reduce
// and broadcast; the termination vote is outside it. `clusterSeconds`
// carries any set-up cost already charged.
template <typename Program>
std::vector<typename Program::Value> runToFixpoint(
    Program& program, comm::Network& net, comm::HostId me, const char* algo,
    double clusterSeconds, uint32_t* roundsOut, double* modeledSecondsOut) {
  RoundObs robs(algo);
  uint32_t rounds = 0;
  for (bool more = true; more; ++rounds) {
    obs::ScopedSpan roundSpan(robs.trace.get(), me,
                              "superstep " + std::to_string(rounds));
    if (robs.supersteps != nullptr) {
      robs.supersteps->add();
      robs.frontier->observe(static_cast<double>(program.activeCount()));
    }
    const double cpu0 = support::threadCpuSeconds();
    const double comm0 = net.modeledCommSeconds(me);
    program.superstep();
    clusterSeconds += net.allReduceMax(
        me, (support::threadCpuSeconds() - cpu0) +
                (net.modeledCommSeconds(me) - comm0));
    more = program.vote(rounds);
  }
  if (roundsOut != nullptr) {
    *roundsOut = rounds;
  }
  if (modeledSecondsOut != nullptr) {
    *modeledSecondsOut = clusterSeconds;
  }
  return std::move(program.value);
}

}  // namespace

// Global out-degrees at every proxy: local degrees add-reduced to masters,
// then broadcast. Needed by pagerank (a vertex-cut splits a node's
// out-edges across hosts).
std::vector<uint64_t> globalOutDegreesOnHost(comm::Network& net,
                                             comm::HostId me,
                                             const DistGraph& part) {
  SyncContext sync(net, me, part);
  const uint64_t numLocal = part.numLocalNodes();
  std::vector<uint64_t> degree(numLocal);
  DynamicBitset dirty(numLocal);
  for (uint64_t lid = 0; lid < numLocal; ++lid) {
    degree[lid] = part.graph.outDegree(lid);
    dirty.setSingleWriter(lid);
  }
  DynamicBitset changed(numLocal);
  sync.reduceToMasters<uint64_t>(
      degree, dirty,
      [](uint64_t& acc, uint64_t in) {
        acc += in;
        return true;
      },
      changed);
  DynamicBitset allMasters(numLocal);
  for (uint64_t lid = 0; lid < part.numMasters; ++lid) {
    allMasters.setSingleWriter(lid);
  }
  DynamicBitset mirrorUpdated(numLocal);
  sync.broadcastToMirrors<uint64_t>(degree, allMasters, mirrorUpdated);
  return degree;
}

namespace {

// Runs hostMain on every host of a fresh Network over `partitions` and
// gathers the master values into a global array.
template <typename T, typename HostFn>
std::vector<T> runGathered(std::span<const DistGraph> partitions,
                           RunStats* stats,
                           const comm::NetworkCostModel& costModel,
                           HostFn&& hostMain) {
  if (partitions.empty()) {
    return {};
  }
  const uint32_t numHosts = static_cast<uint32_t>(partitions.size());
  comm::Network net(numHosts, costModel);
  std::vector<T> global(partitions.front().numGlobalNodes);
  std::vector<uint32_t> roundsPerHost(numHosts, 0);
  std::vector<double> modeledPerHost(numHosts, 0.0);
  support::Timer timer;
  comm::runHosts(net, [&](comm::HostId me) {
    const DistGraph& part = partitions[me];
    std::vector<T> local =
        hostMain(net, me, part, &roundsPerHost[me], &modeledPerHost[me]);
    // Masters hold the canonical values; global ids are disjoint across
    // hosts' master sets, so concurrent writes land on distinct slots.
    for (uint64_t lid = 0; lid < part.numMasters; ++lid) {
      global[part.globalId(lid)] = local[lid];
    }
  });
  if (stats != nullptr) {
    stats->wallSeconds = timer.elapsedSeconds();
    stats->seconds = *std::max_element(modeledPerHost.begin(),
                                       modeledPerHost.end());
    stats->rounds = *std::max_element(roundsPerHost.begin(),
                                      roundsPerHost.end());
    const auto volume = net.statsSnapshot();
    stats->syncBytes = volume.bytes[comm::kTagAppReduce] +
                       volume.bytes[comm::kTagAppBroadcast];
    stats->syncMessages = volume.messages[comm::kTagAppReduce] +
                          volume.messages[comm::kTagAppBroadcast];
  }
  return global;
}

}  // namespace

std::vector<uint64_t> bfsOnHost(comm::Network& net, comm::HostId me,
                                const DistGraph& part, uint64_t sourceGid,
                                uint32_t* roundsOut,
                                double* modeledSecondsOut) {
  auto program = detail::bfsProgram(net, me, part, sourceGid);
  return runToFixpoint(program, net, me, "min_propagate", 0.0, roundsOut,
                       modeledSecondsOut);
}

std::vector<uint64_t> ssspOnHost(comm::Network& net, comm::HostId me,
                                 const DistGraph& part, uint64_t sourceGid,
                                 uint32_t* roundsOut,
                                 double* modeledSecondsOut) {
  auto program = detail::ssspProgram(net, me, part, sourceGid);
  return runToFixpoint(program, net, me, "min_propagate", 0.0, roundsOut,
                       modeledSecondsOut);
}

std::vector<uint64_t> ccOnHost(comm::Network& net, comm::HostId me,
                               const DistGraph& part, uint32_t* roundsOut,
                               double* modeledSecondsOut) {
  auto program = detail::ccProgram(net, me, part);
  return runToFixpoint(program, net, me, "min_propagate", 0.0, roundsOut,
                       modeledSecondsOut);
}

std::vector<double> pageRankOnHost(comm::Network& net, comm::HostId me,
                                   const DistGraph& part,
                                   const PageRankParams& params,
                                   uint32_t* roundsOut,
                                   double* modeledSecondsOut) {
  // The degree exchange in the constructor is a BSP round of its own.
  const double cpu0 = support::threadCpuSeconds();
  const double comm0 = net.modeledCommSeconds(me);
  detail::PageRankProgram program(net, me, part, params);
  const double setupSeconds = net.allReduceMax(
      me, (support::threadCpuSeconds() - cpu0) +
              (net.modeledCommSeconds(me) - comm0));
  return runToFixpoint(program, net, me, "pagerank", setupSeconds, roundsOut,
                       modeledSecondsOut);
}

std::vector<uint64_t> kCoreOnHost(comm::Network& net, comm::HostId me,
                                  const DistGraph& part, uint64_t k,
                                  uint32_t* roundsOut,
                                  double* modeledSecondsOut) {
  detail::requireCsrOrientation(part);
  SyncContext sync(net, me, part);
  const uint64_t numLocal = part.numLocalNodes();
  double clusterSeconds = 0.0;
  double cpu0 = support::threadCpuSeconds();
  double comm0 = net.modeledCommSeconds(me);
  // Degrees start at the global (symmetric) degree of every proxy.
  std::vector<uint64_t> degree = globalOutDegreesOnHost(net, me, part);
  clusterSeconds += net.allReduceMax(
      me, (support::threadCpuSeconds() - cpu0) +
              (net.modeledCommSeconds(me) - comm0));

  std::vector<uint8_t> alive(numLocal, 1);
  std::vector<uint64_t> decrement(numLocal, 0);
  uint32_t rounds = 0;
  RoundObs robs("kcore");
  for (;;) {
    obs::ScopedSpan roundSpan(robs.trace.get(), me,
                              "superstep " + std::to_string(rounds));
    if (robs.supersteps != nullptr) {
      robs.supersteps->add();
      robs.frontier->observe(static_cast<double>(
          std::count(alive.begin(), alive.end(), uint8_t{1})));
    }
    cpu0 = support::threadCpuSeconds();
    comm0 = net.modeledCommSeconds(me);
    // Peel: every proxy whose degree view dropped below k dies (master and
    // mirror views converge because every master change is broadcast) and
    // decrements its LOCAL out-neighbors — each edge lives on exactly one
    // host, so each removal is counted exactly once.
    bool anyDied = false;
    DynamicBitset touched(numLocal);
    for (uint64_t lid = 0; lid < numLocal; ++lid) {
      if (alive[lid] == 0 || degree[lid] >= k) {
        continue;
      }
      alive[lid] = 0;
      anyDied = true;
      for (uint64_t e = part.graph.edgeBegin(lid);
           e < part.graph.edgeEnd(lid); ++e) {
        const uint64_t v = part.graph.edgeDst(e);
        ++decrement[v];
        touched.setSingleWriter(v);
      }
    }
    // Sum decrements into masters, apply, and broadcast changed degrees.
    DynamicBitset reduced(numLocal);
    sync.reduceToMasters<uint64_t>(
        decrement, touched,
        [](uint64_t& acc, uint64_t in) {
          acc += in;
          return true;
        },
        reduced);
    DynamicBitset degreeChanged(numLocal);
    for (uint64_t lid = 0; lid < part.numMasters; ++lid) {
      if (decrement[lid] > 0) {
        degree[lid] =
            degree[lid] > decrement[lid] ? degree[lid] - decrement[lid] : 0;
        decrement[lid] = 0;
        degreeChanged.setSingleWriter(lid);
      }
    }
    // Mirrors' leftover local decrements were shipped; reset them.
    std::fill(decrement.begin() + static_cast<ptrdiff_t>(part.numMasters),
              decrement.end(), 0);
    DynamicBitset mirrorUpdated(numLocal);
    sync.broadcastToMirrors<uint64_t>(degree, degreeChanged, mirrorUpdated);
    ++rounds;
    clusterSeconds += net.allReduceMax(
        me, (support::threadCpuSeconds() - cpu0) +
                (net.modeledCommSeconds(me) - comm0));
    if (!net.allReduceOr(me, anyDied)) {
      break;
    }
  }
  if (roundsOut != nullptr) {
    *roundsOut = rounds;
  }
  if (modeledSecondsOut != nullptr) {
    *modeledSecondsOut = clusterSeconds;
  }
  std::vector<uint64_t> inCore(numLocal);
  for (uint64_t lid = 0; lid < numLocal; ++lid) {
    inCore[lid] = alive[lid];
  }
  return inCore;
}

uint64_t triangleCountOnHost(comm::Network& net, comm::HostId me,
                             const DistGraph& part,
                             double* modeledSecondsOut) {
  detail::requireCsrOrientation(part);
  SyncContext sync(net, me, part);
  const uint64_t numLocal = part.numLocalNodes();
  const double cpu0 = support::threadCpuSeconds();
  const double comm0 = net.modeledCommSeconds(me);

  // Global degrees define the orientation: edge u->v is "forward" iff
  // (deg(u), gid(u)) < (deg(v), gid(v)). Both endpoints of every local
  // edge are local proxies with synced degrees, so orientation is
  // computable everywhere.
  const std::vector<uint64_t> degree = globalOutDegreesOnHost(net, me, part);
  auto orderKey = [&](uint64_t lid) {
    return std::make_pair(degree[lid], part.globalId(lid));
  };

  // Each host contributes its local share of every vertex's forward
  // adjacency (as global ids); gather assembles the full lists at masters,
  // broadcast replicates them to every proxy.
  std::vector<std::vector<uint64_t>> forward(numLocal);
  for (uint64_t u = 0; u < numLocal; ++u) {
    for (uint64_t e = part.graph.edgeBegin(u); e < part.graph.edgeEnd(u);
         ++e) {
      const uint64_t v = part.graph.edgeDst(e);
      if (orderKey(u) < orderKey(v)) {
        forward[u].push_back(part.globalId(v));
      }
    }
  }
  sync.gatherListsToMasters(forward);
  for (uint64_t lid = 0; lid < part.numMasters; ++lid) {
    std::sort(forward[lid].begin(), forward[lid].end());
  }
  sync.broadcastListsToMirrors(forward);

  // Closed-wedge counting over local forward edges: every global directed
  // edge lives on exactly one host, so the cluster-wide sum counts each
  // triangle exactly once.
  uint64_t local = 0;
  for (uint64_t u = 0; u < numLocal; ++u) {
    for (uint64_t e = part.graph.edgeBegin(u); e < part.graph.edgeEnd(u);
         ++e) {
      const uint64_t v = part.graph.edgeDst(e);
      if (!(orderKey(u) < orderKey(v))) {
        continue;
      }
      const auto& a = forward[u];
      const auto& b = forward[v];
      size_t i = 0;
      size_t j = 0;
      while (i < a.size() && j < b.size()) {
        if (a[i] < b[j]) {
          ++i;
        } else if (a[i] > b[j]) {
          ++j;
        } else {
          ++local;
          ++i;
          ++j;
        }
      }
    }
  }
  const uint64_t total = net.allReduceSum<uint64_t>(me, local);
  if (modeledSecondsOut != nullptr) {
    // One "round" algorithm: makespan = slowest host's total.
    *modeledSecondsOut = net.allReduceMax(
        me, (support::threadCpuSeconds() - cpu0) +
                (net.modeledCommSeconds(me) - comm0));
  }
  return total;
}

std::vector<uint64_t> runBfs(std::span<const DistGraph> partitions,
                             uint64_t sourceGid, RunStats* stats,
                             const comm::NetworkCostModel& costModel) {
  return runGathered<uint64_t>(
      partitions, stats, costModel,
      [&](comm::Network& net, comm::HostId me, const DistGraph& part,
          uint32_t* rounds, double* modeled) {
        return bfsOnHost(net, me, part, sourceGid, rounds, modeled);
      });
}

std::vector<uint64_t> runSssp(std::span<const DistGraph> partitions,
                              uint64_t sourceGid, RunStats* stats,
                              const comm::NetworkCostModel& costModel) {
  return runGathered<uint64_t>(
      partitions, stats, costModel,
      [&](comm::Network& net, comm::HostId me, const DistGraph& part,
          uint32_t* rounds, double* modeled) {
        return ssspOnHost(net, me, part, sourceGid, rounds, modeled);
      });
}

std::vector<uint64_t> runCc(std::span<const DistGraph> partitions,
                            RunStats* stats,
                            const comm::NetworkCostModel& costModel) {
  return runGathered<uint64_t>(
      partitions, stats, costModel,
      [&](comm::Network& net, comm::HostId me, const DistGraph& part,
          uint32_t* rounds, double* modeled) {
        return ccOnHost(net, me, part, rounds, modeled);
      });
}

std::vector<double> runPageRank(std::span<const DistGraph> partitions,
                                const PageRankParams& params,
                                RunStats* stats,
                                const comm::NetworkCostModel& costModel) {
  return runGathered<double>(
      partitions, stats, costModel,
      [&](comm::Network& net, comm::HostId me, const DistGraph& part,
          uint32_t* rounds, double* modeled) {
        return pageRankOnHost(net, me, part, params, rounds, modeled);
      });
}

std::vector<uint64_t> runKCore(std::span<const DistGraph> partitions,
                               uint64_t k, RunStats* stats,
                               const comm::NetworkCostModel& costModel) {
  return runGathered<uint64_t>(
      partitions, stats, costModel,
      [&](comm::Network& net, comm::HostId me, const DistGraph& part,
          uint32_t* rounds, double* modeled) {
        return kCoreOnHost(net, me, part, k, rounds, modeled);
      });
}

uint64_t runTriangleCount(std::span<const DistGraph> partitions,
                          RunStats* stats,
                          const comm::NetworkCostModel& costModel) {
  if (partitions.empty()) {
    return 0;
  }
  const uint32_t numHosts = static_cast<uint32_t>(partitions.size());
  comm::Network net(numHosts, costModel);
  std::vector<uint64_t> totals(numHosts, 0);
  std::vector<double> modeledPerHost(numHosts, 0.0);
  support::Timer timer;
  comm::runHosts(net, [&](comm::HostId me) {
    totals[me] =
        triangleCountOnHost(net, me, partitions[me], &modeledPerHost[me]);
  });
  if (stats != nullptr) {
    stats->wallSeconds = timer.elapsedSeconds();
    stats->seconds = *std::max_element(modeledPerHost.begin(),
                                       modeledPerHost.end());
    stats->rounds = 1;
    const auto volume = net.statsSnapshot();
    stats->syncBytes = volume.bytes[comm::kTagAppReduce] +
                       volume.bytes[comm::kTagAppBroadcast];
    stats->syncMessages = volume.messages[comm::kTagAppReduce] +
                          volume.messages[comm::kTagAppBroadcast];
  }
  return totals[0];
}

uint64_t maxOutDegreeNode(const graph::CsrGraph& graph) {
  uint64_t best = 0;
  for (uint64_t v = 1; v < graph.numNodes(); ++v) {
    if (graph.outDegree(v) > graph.outDegree(best)) {
      best = v;
    }
  }
  return best;
}

}  // namespace cusp::analytics
