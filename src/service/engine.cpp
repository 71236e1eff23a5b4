#include "service/engine.h"

#include <algorithm>
#include <cctype>
#include <chrono>

#include "analytics/algorithms.h"
#include "core/policies.h"
#include "obs/obs.h"
#include "support/memory.h"

namespace cusp::service {

namespace {

std::string upper(std::string s) {
  for (char& c : s) {
    c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  }
  return s;
}

bool knownPolicy(const std::string& name) {
  const auto& catalog = core::policyCatalog();
  return std::find(catalog.begin(), catalog.end(), upper(name)) !=
         catalog.end();
}

}  // namespace

void HostPool::acquire(uint32_t n,
                       const std::shared_ptr<support::CancelToken>& cancel) {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    if (free_ >= n) {
      free_ -= n;
      return;
    }
    // Bounded waits keep the pool a cancellation point: a job whose
    // deadline expires while queued for capacity unwinds here instead of
    // occupying a worker forever.
    cv_.wait_for(lock, std::chrono::milliseconds(10));
    if (cancel) {
      cancel->check("host pool acquire");
    }
  }
}

void HostPool::release(uint32_t n) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    free_ += n;
  }
  cv_.notify_all();
}

Engine::Engine(EngineOptions options)
    : options_(std::move(options)),
      hostPool_(std::max(1u, options_.hostPoolSize)) {}

void Engine::registerGraph(const std::string& id, graph::GraphFile file) {
  std::lock_guard<std::mutex> lock(mutex_);
  graphs_.insert_or_assign(id, std::move(file));
}

bool Engine::hasGraph(const std::string& id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return graphs_.count(id) > 0;
}

std::vector<std::string> Engine::graphIds() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> ids;
  ids.reserve(graphs_.size());
  for (const auto& [id, file] : graphs_) {
    ids.push_back(id);
  }
  return ids;
}

JobError Engine::validate(const JobSpec& spec) const {
  switch (spec.type) {
    case JobType::kPartition:
    case JobType::kBfs:
    case JobType::kSssp:
    case JobType::kCc:
    case JobType::kPageRank:
      break;
    default:
      return {JobErrorKind::kBadRequest,
              "unknown job type " +
                  std::to_string(static_cast<uint32_t>(spec.type))};
  }
  if (spec.numHosts == 0) {
    return {JobErrorKind::kBadRequest, "numHosts must be > 0"};
  }
  if (spec.numHosts > hostPool_.total()) {
    return {JobErrorKind::kBadRequest,
            "numHosts " + std::to_string(spec.numHosts) +
                " exceeds the host pool (" +
                std::to_string(hostPool_.total()) + ")"};
  }
  if (!knownPolicy(spec.policy)) {
    return {JobErrorKind::kUnknownPolicy,
            "unknown partition policy '" + spec.policy + "'"};
  }
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = graphs_.find(spec.graphId);
  if (it == graphs_.end()) {
    return {JobErrorKind::kUnknownGraph,
            "unknown graph '" + spec.graphId + "'"};
  }
  if ((spec.type == JobType::kBfs || spec.type == JobType::kSssp) &&
      spec.sourceGid >= it->second.numNodes()) {
    return {JobErrorKind::kBadRequest,
            "source " + std::to_string(spec.sourceGid) +
                " out of range (graph has " +
                std::to_string(it->second.numNodes()) + " nodes)"};
  }
  if (spec.type == JobType::kSssp && !it->second.hasEdgeData()) {
    return {JobErrorKind::kBadRequest,
            "sssp requires a weighted graph; '" + spec.graphId +
                "' has no edge data"};
  }
  return {JobErrorKind::kNone, ""};
}

uint64_t Engine::estimateFootprintBytes(const JobSpec& spec) const {
  uint64_t graphBytes = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = graphs_.find(spec.graphId);
    if (it == graphs_.end()) {
      return 0;
    }
    const graph::GraphFile& f = it->second;
    graphBytes = (f.numNodes() + 1) * 8 + f.numEdges() * 8 +
                 (f.hasEdgeData() ? f.numEdges() * 4 : 0);
  }
  // Host read windows hold one copy of the CSR between them; the assembled
  // partitions hold roughly replication-factor (~2 at service host counts)
  // more; construction-phase message buffers and per-host maps round up to
  // one more. Deliberately a ceiling: admission shedding a borderline job
  // is a refusal the client can see, an OOM kill is not.
  constexpr uint64_t kPerHostOverhead = 1ull << 20;
  return 4 * graphBytes + spec.numHosts * kPerHostOverhead;
}

std::optional<JobError> Engine::admit(const JobSpec& spec) const {
  if (!support::memoryBudgetAttached()) {
    return std::nullopt;
  }
  const support::MemoryBudgetStats stats = support::memoryBudget()->stats();
  const uint64_t freeBytes =
      stats.totalBytes > stats.inUseBytes ? stats.totalBytes - stats.inUseBytes
                                          : 0;
  const uint64_t estimate = estimateFootprintBytes(spec);
  const auto allowed =
      static_cast<uint64_t>(options_.admissionHeadroom *
                            static_cast<double>(freeBytes));
  if (estimate > allowed) {
    return JobError{
        JobErrorKind::kShedMemory,
        "estimated footprint " + std::to_string(estimate) +
            " bytes exceeds admissible " + std::to_string(allowed) +
            " of " + std::to_string(freeBytes) + " free budget bytes"};
  }
  return std::nullopt;
}

Engine::PartitionSet Engine::cachedPartitions(const std::string& graphId,
                                              const std::string& policy,
                                              uint32_t numHosts) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = cache_.find({graphId, upper(policy), numHosts});
  return it != cache_.end() ? it->second : nullptr;
}

Engine::PartitionSet Engine::partitionLocked(
    const JobSpec& spec, uint64_t jobId,
    const std::shared_ptr<support::CancelToken>& cancel, bool* cacheHit,
    core::RecoveryReport* recovery) {
  const CacheKey key{spec.graphId, upper(spec.policy), spec.numHosts};
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = cache_.find(key);
    if (it != cache_.end()) {
      *cacheHit = true;
      cacheHits_.fetch_add(1, std::memory_order_relaxed);
      if (const auto sink = obs::sink()) {
        sink.metrics->counter("cusp.svc.cache_hits").add();
      }
      return it->second;
    }
  }
  *cacheHit = false;
  cacheMisses_.fetch_add(1, std::memory_order_relaxed);
  if (const auto sink = obs::sink()) {
    sink.metrics->counter("cusp.svc.cache_misses").add();
  }

  core::PartitionerConfig config = options_.baseConfig;
  config.numHosts = spec.numHosts;
  config.resilience.cancel = cancel;
  config.resilience.faultPlan = spec.faultPlan;
  config.resilience.memoryFaultPlan = spec.memoryFaultPlan;
  if (spec.recvTimeoutSeconds > 0) {
    config.resilience.recvTimeoutSeconds = spec.recvTimeoutSeconds;
  }
  config.resilience.maxRecoveryAttempts = spec.maxRecoveryAttempts;
  if (options_.enableCheckpoints && !options_.workDir.empty()) {
    config.resilience.enableCheckpoints = true;
    config.resilience.checkpointDir =
        options_.workDir + "/j" + std::to_string(jobId);
  }
  const core::PartitionPolicy policy = core::makePolicy(upper(spec.policy));

  hostPool_.acquire(spec.numHosts, cancel);
  core::PartitionResult result;
  try {
    const graph::GraphFile* file = nullptr;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      const auto it = graphs_.find(spec.graphId);
      if (it == graphs_.end()) {
        throw std::invalid_argument("unknown graph '" + spec.graphId + "'");
      }
      // Safe outside the lock: registered graphs are never erased, and
      // insert_or_assign of a colliding id is an operator error the
      // validate() path already guards in the daemon flow.
      file = &it->second;
    }
    result = core::partitionGraphResilient(*file, policy, config, recovery);
  } catch (...) {
    hostPool_.release(spec.numHosts);
    throw;
  }
  hostPool_.release(spec.numHosts);

  auto set = std::make_shared<const std::vector<core::DistGraph>>(
      std::move(result.partitions));
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // Two concurrent misses of the same key both compute (identical bytes
    // for deterministic policies); first insert wins so every consumer
    // shares one copy.
    const auto [it, inserted] = cache_.emplace(key, set);
    set = it->second;
  }
  return set;
}

Engine::RunOutcome Engine::run(
    const JobSpec& spec, uint64_t jobId,
    const std::shared_ptr<support::CancelToken>& cancel) {
  if (cancel) {
    cancel->check("engine run start");
  }
  RunOutcome outcome;
  outcome.partitions = partitionLocked(spec, jobId, cancel,
                                       &outcome.partitionCacheHit,
                                       &outcome.recovery);
  if (spec.type == JobType::kPartition) {
    return outcome;
  }

  analytics::ResilienceOptions opts;
  opts.aggregation = options_.baseConfig.aggregation;
  opts.cancel = cancel;
  opts.faultPlan = spec.faultPlan;
  opts.recvTimeoutSeconds = spec.recvTimeoutSeconds;
  opts.maxRecoveryAttempts = spec.maxRecoveryAttempts;
  if (options_.enableCheckpoints && !options_.workDir.empty()) {
    opts.enableCheckpoints = true;
    opts.checkpointDir =
        options_.workDir + "/j" + std::to_string(jobId) + "/analytics";
  }
  const std::span<const core::DistGraph> parts(*outcome.partitions);

  hostPool_.acquire(spec.numHosts, cancel);
  try {
    switch (spec.type) {
      case JobType::kBfs:
        outcome.intValues =
            analytics::runBfsResilient(parts, spec.sourceGid, opts);
        break;
      case JobType::kSssp:
        outcome.intValues =
            analytics::runSsspResilient(parts, spec.sourceGid, opts);
        break;
      case JobType::kCc:
        outcome.intValues = analytics::runCcResilient(parts, opts);
        break;
      case JobType::kPageRank:
        outcome.doubleValues =
            analytics::runPageRankResilient(parts, options_.pageRank, opts);
        break;
      default:
        throw std::invalid_argument("unknown job type");
    }
  } catch (...) {
    hostPool_.release(spec.numHosts);
    throw;
  }
  hostPool_.release(spec.numHosts);
  return outcome;
}

}  // namespace cusp::service
