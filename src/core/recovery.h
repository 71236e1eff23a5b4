// Run-scoped recovery state shared by the two resilient drivers
// (core::partitionGraphResilient and analytics::run*Resilient).
//
// A resilient run tears its simulated cluster down after every fault and
// rebuilds it for the next attempt. What must outlive those teardowns is
// built once per run and dies with it: the fault injector (fired crashes,
// occurrence counters), the straggler monitor (blame, condemnation), the
// split-brain write fence and the ENOSPC latch. None of it is process-wide,
// so two runs in one process never share a fence epoch or a full-disk
// verdict. The context also does the three jobs both drivers need: set up
// an attempt's Network, commit a checkpoint, and list the hosts to evict.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "comm/fault.h"
#include "comm/network.h"
#include "support/serialize.h"
#include "support/storage.h"

namespace cusp::core {

// A host the degraded paths should evict after a failed attempt.
struct EvictionCandidate {
  uint32_t host = 0;
  // Permanently crashed (its checkpoint store dies with it), as opposed to
  // condemned as a straggler (slow, not dead: its store stays readable).
  bool crashed = false;
};

class RecoveryContext {
 public:
  // The run's faults over `numHosts` hosts: `plan` (null or empty = clean
  // network) and the straggler deadlines. `withFence` builds the write
  // fence; only degraded partition runs can fence a host.
  RecoveryContext(uint32_t numHosts,
                  const std::shared_ptr<const comm::FaultPlan>& plan,
                  const comm::StragglerPolicy& straggler, bool withFence);

  // A fresh Network for one attempt, sharing the run's injector, straggler
  // monitor and fence. Evictions stay with the caller.
  std::unique_ptr<comm::Network> network(
      uint32_t numHosts, const comm::NetworkCostModel& costModel,
      const std::optional<comm::AggregationPolicy>& aggregation,
      double recvTimeoutSeconds, const comm::RetryPolicy& retry) const;

  // Writes `host`'s checkpoint for `phase` under the run's fence, plus its
  // buddy replica when `replicate`. A failed write never fails the caller:
  // it is counted and absorbed, and the first ENOSPC latches checkpointing
  // off for the rest of the run (a full disk does not heal mid-run).
  // Returns whether the checkpoint landed; false without any I/O once
  // latched. Safe to call from every host thread.
  bool commitCheckpoint(const std::string& dir, uint32_t host,
                        uint32_t numHosts, uint32_t phase,
                        const support::SendBuffer& payload, bool replicate);
  bool checkpointsDisabled() const {
    return checkpointsDisabled_.load(std::memory_order_relaxed);
  }
  uint32_t checkpointWriteFailures() const {
    return checkpointWriteFailures_.load(std::memory_order_relaxed);
  }

  // Permanently crashed, then condemned, hosts not listed in `evicted`
  // (each group in rank order).
  std::vector<EvictionCandidate> evictionCandidates(
      const std::vector<uint32_t>& evicted) const;

  // The run continues on `numHosts` re-ranked survivors: the injector is
  // rebuilt from `plan` (the original plan projected onto the survivors),
  // the monitor restarts blame in the new rank space (its soft reports stay
  // in the tally), and every fence is lifted — fences are indexed by rank,
  // and the fenced ranks just left with their eviction.
  void rebase(uint32_t numHosts,
              const std::shared_ptr<const comm::FaultPlan>& plan);

  const std::shared_ptr<comm::FaultInjector>& injector() const {
    return injector_;
  }
  const std::shared_ptr<comm::StragglerMonitor>& stragglerMonitor() const {
    return monitor_;
  }
  // Null unless built withFence.
  support::WriteFence* fence() const { return fence_.get(); }
  // Soft straggler reports over the whole run, across rebases.
  uint64_t stragglerSoftReports() const;

 private:
  std::shared_ptr<comm::FaultInjector> injector_;
  comm::StragglerPolicy straggler_;
  std::shared_ptr<comm::StragglerMonitor> monitor_;
  uint64_t softReportsRetired_ = 0;
  std::shared_ptr<support::WriteFence> fence_;
  std::atomic<bool> checkpointsDisabled_{false};
  std::atomic<uint32_t> checkpointWriteFailures_{0};
};

}  // namespace cusp::core
