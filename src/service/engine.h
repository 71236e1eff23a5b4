// The reusable partition/analytics engine behind the cuspd daemon.
//
// Before this layer existed, one process ran one pipeline: the entry points
// in core/partitioner.* and analytics/resilient.* were driven straight from
// a main() with process-lifetime assumptions (one budget attach, one
// checkpoint dir, one fault plan). Engine packages them as job-oriented
// objects a multi-tenant daemon can drive concurrently:
//
//  * a registry of named graphs jobs refer to by id,
//  * a shared host pool bounding the total simulated host threads alive at
//    once across all concurrent jobs,
//  * a partition cache keyed by (graphId, policy, numHosts) — analytics
//    jobs run on cached partition sets and recompute them on miss,
//  * footprint estimation + admission against the process-wide
//    support::MemoryBudget (jobs that cannot fit are shed, never OOM),
//  * per-job checkpoint directories under a common scratch root, so the
//    resilient drivers' recovery machinery — and crash-time resume — work
//    per job instead of per process.
//
// Concurrency contract: the three process-wide seams (memory budget,
// storage faults, obs sink) are attached ONCE, by the daemon or the test,
// for the process lifetime. partitionGraphResilient skips its per-run
// budget attach when one is pre-attached, so concurrent jobs share the
// process seams instead of fighting over scoped attach/restore order.
// Per-run recovery state — the write fence and the ENOSPC latch — belongs
// to each driver run (core/recovery.h), so jobs never share it.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "analytics/resilient.h"
#include "core/partitioner.h"
#include "graph/graph_file.h"
#include "service/job.h"
#include "support/cancel.h"

namespace cusp::service {

// Counting semaphore over simulated host-thread slots. A job acquires
// spec.numHosts slots for the duration of each engine run; acquisition is a
// cancellation point so a queued job's deadline keeps ticking while it
// waits for capacity.
class HostPool {
 public:
  explicit HostPool(uint32_t slots) : free_(slots), total_(slots) {}

  uint32_t total() const { return total_; }

  void acquire(uint32_t n, const std::shared_ptr<support::CancelToken>& cancel);
  void release(uint32_t n);

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  uint32_t free_;
  const uint32_t total_;
};

struct EngineOptions {
  // Upper bound on simulated host threads running at once across all jobs.
  uint32_t hostPoolSize = 16;
  // Scratch root for per-job checkpoint dirs (<workDir>/j<id>); empty
  // disables checkpointing (jobs restart from scratch after faults).
  std::string workDir;
  bool enableCheckpoints = true;
  // Defaults for every partition run; numHosts/resilience are overwritten
  // per job from its spec.
  core::PartitionerConfig baseConfig;
  analytics::PageRankParams pageRank;
  // Admission refuses a job whose estimated footprint exceeds this fraction
  // of the attached budget's free bytes (headroom for the sibling jobs'
  // transient spikes).
  double admissionHeadroom = 0.9;
};

class Engine {
 public:
  using PartitionSet = std::shared_ptr<const std::vector<core::DistGraph>>;

  explicit Engine(EngineOptions options = {});

  void registerGraph(const std::string& id, graph::GraphFile file);
  bool hasGraph(const std::string& id) const;
  std::vector<std::string> graphIds() const;

  // Structured spec validation: kNone when runnable, else the exact
  // rejection (unknown graph/policy, zero or over-pool hosts, bad type,
  // out-of-range source, sssp on an unweighted graph).
  JobError validate(const JobSpec& spec) const;

  // Deterministic upper bound on the resident bytes a run of `spec` adds:
  // the host windows, the assembled partitions (~replication-factor copies
  // of the graph), and the construction-phase message buffers.
  uint64_t estimateFootprintBytes(const JobSpec& spec) const;

  // Admission control: nullopt admits; otherwise the structured shed error
  // (kShedMemory). Admits everything when no process budget is attached.
  std::optional<JobError> admit(const JobSpec& spec) const;

  struct RunOutcome {
    PartitionSet partitions;  // the job's (graphId, policy, numHosts) set
    bool partitionCacheHit = false;
    std::vector<uint64_t> intValues;   // bfs/sssp/cc
    std::vector<double> doubleValues;  // pagerank
    core::RecoveryReport recovery;     // partition leg (when one ran)
  };

  // Runs the job synchronously on the calling thread (a daemon worker),
  // holding spec.numHosts host-pool slots for each engine leg. Throws
  // support::JobCancelled at cancellation points and the structured fault
  // exceptions of the resilient drivers when the ladder is exhausted.
  // `jobId` keys the per-job checkpoint directory, so a re-run of the same
  // job id resumes from its own checkpoints.
  RunOutcome run(const JobSpec& spec, uint64_t jobId,
                 const std::shared_ptr<support::CancelToken>& cancel);

  PartitionSet cachedPartitions(const std::string& graphId,
                                const std::string& policy,
                                uint32_t numHosts) const;

  uint64_t cacheHits() const { return cacheHits_; }
  uint64_t cacheMisses() const { return cacheMisses_; }
  const EngineOptions& options() const { return options_; }

 private:
  using CacheKey = std::tuple<std::string, std::string, uint32_t>;

  PartitionSet partitionLocked(const JobSpec& spec, uint64_t jobId,
                               const std::shared_ptr<support::CancelToken>&
                                   cancel,
                               bool* cacheHit, core::RecoveryReport* recovery);

  EngineOptions options_;
  HostPool hostPool_;

  mutable std::mutex mutex_;  // graphs + cache
  std::map<std::string, graph::GraphFile> graphs_;
  std::map<CacheKey, PartitionSet> cache_;
  std::atomic<uint64_t> cacheHits_{0};
  std::atomic<uint64_t> cacheMisses_{0};
};

}  // namespace cusp::service
