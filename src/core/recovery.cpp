#include "core/recovery.h"

#include <algorithm>

#include "core/checkpoint.h"
#include "obs/obs.h"
#include "support/logging.h"

namespace cusp::core {

namespace {

std::shared_ptr<comm::FaultInjector> makeInjector(
    const std::shared_ptr<const comm::FaultPlan>& plan) {
  if (!plan || plan->empty()) {
    return nullptr;
  }
  return std::make_shared<comm::FaultInjector>(*plan);
}

}  // namespace

RecoveryContext::RecoveryContext(
    uint32_t numHosts, const std::shared_ptr<const comm::FaultPlan>& plan,
    const comm::StragglerPolicy& straggler, bool withFence)
    : injector_(makeInjector(plan)),
      straggler_(straggler),
      monitor_(straggler.enabled()
                   ? std::make_shared<comm::StragglerMonitor>(numHosts)
                   : nullptr),
      fence_(withFence ? std::make_shared<support::WriteFence>() : nullptr) {}

std::unique_ptr<comm::Network> RecoveryContext::network(
    uint32_t numHosts, const comm::NetworkCostModel& costModel,
    const std::optional<comm::AggregationPolicy>& aggregation,
    double recvTimeoutSeconds, const comm::RetryPolicy& retry) const {
  auto net = std::make_unique<comm::Network>(numHosts, costModel);
  if (aggregation) {
    net->setAggregation(*aggregation);
  }
  if (injector_) {
    net->setFaultInjector(injector_);
  }
  net->setRecvTimeout(recvTimeoutSeconds);
  net->setRetryPolicy(retry);
  if (monitor_) {
    net->setStragglerPolicy(straggler_);
    net->setStragglerMonitor(monitor_);
  }
  net->setWriteFence(fence_);
  return net;
}

bool RecoveryContext::commitCheckpoint(const std::string& dir, uint32_t host,
                                       uint32_t numHosts, uint32_t phase,
                                       const support::SendBuffer& payload,
                                       bool replicate) {
  if (checkpointsDisabled()) {
    return false;  // earlier persistent ENOSPC: explicit no-checkpoint mode
  }
  try {
    saveCheckpoint(dir, host, numHosts, phase, payload, fence_.get());
    if (replicate) {
      // Mirror to the ring successor's store so this host's state survives
      // the loss of its own (core/checkpoint.h).
      saveCheckpointReplica(dir, host, numHosts, phase, payload, fence_.get());
    }
    return true;
  } catch (const support::StorageError& e) {
    checkpointWriteFailures_.fetch_add(1, std::memory_order_relaxed);
    if (e.kind == support::StorageError::Kind::kNoSpace &&
        !checkpointsDisabled_.exchange(true, std::memory_order_relaxed)) {
      CUSP_LOG_WARN() << "checkpoint store out of space (" << e.path
                      << "); checkpointing disabled for the rest of the run";
      if (const auto metrics = obs::sink().metrics) {
        metrics->counter("cusp.checkpoint.disabled_enospc").add();
      }
    }
    return false;
  }
}

std::vector<EvictionCandidate> RecoveryContext::evictionCandidates(
    const std::vector<uint32_t>& evicted) const {
  std::vector<EvictionCandidate> out;
  const auto add = [&](const std::vector<comm::HostId>& hosts, bool crashed) {
    for (comm::HostId h : hosts) {
      const bool listed =
          std::find(evicted.begin(), evicted.end(), h) != evicted.end() ||
          std::any_of(out.begin(), out.end(),
                      [h](const EvictionCandidate& c) { return c.host == h; });
      if (!listed) {
        out.push_back(EvictionCandidate{h, crashed});
      }
    }
  };
  if (injector_) {
    add(injector_->permanentlyDownHosts(), /*crashed=*/true);
  }
  if (monitor_) {
    add(monitor_->condemnedHosts(), /*crashed=*/false);
  }
  return out;
}

void RecoveryContext::rebase(
    uint32_t numHosts, const std::shared_ptr<const comm::FaultPlan>& plan) {
  injector_ = makeInjector(plan);
  if (monitor_) {
    softReportsRetired_ += monitor_->totalSoftReports();
    monitor_ = std::make_shared<comm::StragglerMonitor>(numHosts);
  }
  if (fence_) {
    for (uint32_t h : fence_->fencedHosts()) {
      fence_->lift(h);
    }
  }
}

uint64_t RecoveryContext::stragglerSoftReports() const {
  return softReportsRetired_ + (monitor_ ? monitor_->totalSoftReports() : 0);
}

}  // namespace cusp::core
