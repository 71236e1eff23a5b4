// Resilient analytics driver: superstep checkpoint/restart over CuSP
// partitions.
//
// The plain run* drivers (analytics/algorithms.h) abort the whole run on
// the first SyncRoundFailed. The run*Resilient drivers below make the
// analytics leg of the pipeline survive the same fault schedules the
// partitioner already tolerates (core/partitioner.h):
//
//  * Superstep checkpointing. After every `checkpointInterval`-th completed
//    superstep each host persists a CRC'd snapshot (core/checkpoint.h,
//    phase = superstep + 1, optional buddy replication to the ring
//    successor) of its MASTER vertex state keyed by GLOBAL id: (superstep,
//    master gids, master values, frontier gids). Gid-keyed snapshots are
//    layout-independent, so the same restore path serves a same-layout
//    rollback and a post-eviction redistributed layout.
//
//  * Rollback. On SyncRoundFailed / NetworkStalled / HostFailure /
//    HostEvicted / MessageCorrupt the driver tears the attempt down,
//    agrees on the last superstep EVERY participant can still recover
//    (min over hosts of the latest valid checkpoint, buddy replicas
//    consulted), and restarts all hosts from it — each host loads every
//    participant's snapshot and applies the gids it holds. The shared
//    FaultInjector persists across attempts, so transient crashes fire
//    exactly once.
//
//  * Degraded continuation. With `degradedMode` on, a permanently lost
//    host is evicted from the Network membership, its checkpoint store is
//    dropped (replicas at its buddy survive), masters are deterministically
//    reassigned to the survivors (core::redistributePartitions, original
//    rank space kept so the engine's membership-aware sync loops just skip
//    the hole), and the run continues on the survivors — worst case from
//    superstep 0 of the new epoch. Checkpoints of different membership
//    epochs live in separate `<dir>/e<N>` subdirectories so snapshots of
//    different layouts can never be mixed at the same superstep number.
//
// Determinism: bfs/sssp/cc compute the unique fixpoint of a monotone
// min-propagation, so rollback and degraded continuation are bit-identical
// to a fault-free run. PageRank is bit-identical under same-layout rollback
// (masters are restored exactly and mirrors equal masters at superstep
// boundaries); after a layout change the floating-point accumulation order
// shifts, so degraded pagerank matches the reference to tolerance, not bit
// for bit.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "analytics/algorithms.h"
#include "comm/fault.h"
#include "comm/network.h"
#include "core/dist_graph.h"
#include "support/cancel.h"

namespace cusp::analytics {

struct ResilienceOptions {
  // Superstep checkpointing (off unless enableCheckpoints and a dir given).
  std::string checkpointDir;
  bool enableCheckpoints = false;
  uint32_t checkpointInterval = 1;  // supersteps between checkpoints (>= 1)
  // Replicate every snapshot to the ring successor's store so an evicted
  // host's state stays recoverable (core/checkpoint.h buddy replication).
  bool buddyReplication = false;

  // Failed attempts tolerated per membership epoch before the failure is
  // rethrown (an eviction starts a fresh budget).
  uint32_t maxRecoveryAttempts = 3;

  // Fault environment, mirroring core::ResilienceConfig: a seeded plan
  // shared across attempts, the sendReliable retry policy, and the recv
  // timeout that turns silent hangs into NetworkStalled.
  std::shared_ptr<const comm::FaultPlan> faultPlan;
  comm::RetryPolicy retry;
  double recvTimeoutSeconds = 0.0;  // <= 0: unbounded waits

  // Continue on the survivors after a permanent host loss instead of
  // rethrowing once the attempt budget is spent.
  bool degradedMode = false;

  // Straggler deadlines (comm::StragglerPolicy): receivers blocked on one
  // slow peer past the soft deadline emit blame reports; a peer over the
  // hard deadline is condemned and — with degradedMode on — evicted into
  // the degraded continuation exactly like a permanent crash.
  comm::StragglerPolicy straggler;

  comm::NetworkCostModel costModel;

  // Send-aggregation tuning for the attempt networks; unset =
  // comm::AggregationPolicy{}.
  std::optional<comm::AggregationPolicy> aggregation;

  // Cooperative cancellation (support/cancel.h), mirroring
  // core::ResilienceConfig: checked before every attempt and at each
  // superstep boundary. An expired token unwinds with
  // support::JobCancelled, which is not a fault kind and is therefore
  // rethrown immediately (no recovery attempts spent). Null never cancels.
  std::shared_ptr<support::CancelToken> cancel;
};

// What happened across all attempts of one resilient run.
struct ResilienceReport {
  uint32_t attempts = 0;         // total runs started (first try included)
  uint32_t supersteps = 0;       // supersteps executed by the final attempt
  uint32_t resumedFromSuperstep = 0;  // highest rollback target used
  uint32_t checkpointsSaved = 0;      // primary snapshots written
  std::vector<std::string> failures;      // one entry per failed attempt
  std::vector<std::string> failureKinds;  // parallel: classified kind names
  std::vector<comm::HostId> evictions;    // permanently lost, in order
  uint32_t finalAliveHosts = 0;
  // Wire-corruption outcomes summed over every attempt's network.
  uint64_t corruptionsDetected = 0;
  uint64_t corruptionsRecovered = 0;
  // Storage-fault outcomes: failed checkpoint writes are absorbed (the
  // superstep continues uncheckpointed), and a persistent ENOSPC flips the
  // run into an explicit checkpointing-disabled continuation mode.
  uint32_t checkpointWriteFailures = 0;
  bool checkpointingDisabledByEnospc = false;
  // Soft straggler reports accumulated by the run's StragglerMonitor.
  uint64_t stragglerSoftReports = 0;
};

// Resilient counterparts of runBfs/runSssp/runCc/runPageRank: same result
// contract (global array indexed by global node id, masters authoritative),
// but the run rides out the faults described by `options`. On an
// unrecoverable failure the underlying structured fault is rethrown after
// `report` (if given) is filled in. `partitions` must be a complete
// rank-indexed family (partitions[r].hostId == r).
std::vector<uint64_t> runBfsResilient(
    std::span<const core::DistGraph> partitions, uint64_t sourceGid,
    const ResilienceOptions& options, ResilienceReport* report = nullptr);

std::vector<uint64_t> runSsspResilient(
    std::span<const core::DistGraph> partitions, uint64_t sourceGid,
    const ResilienceOptions& options, ResilienceReport* report = nullptr);

std::vector<uint64_t> runCcResilient(
    std::span<const core::DistGraph> partitions,
    const ResilienceOptions& options, ResilienceReport* report = nullptr);

std::vector<double> runPageRankResilient(
    std::span<const core::DistGraph> partitions, const PageRankParams& params,
    const ResilienceOptions& options, ResilienceReport* report = nullptr);

}  // namespace cusp::analytics
