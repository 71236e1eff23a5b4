// Job model of the partition service (src/service/): what a client asks the
// daemon to do, every state a job can be in, and the structured errors a
// job can terminate with. Every rejection and failure the service produces
// is one of these kinds plus a human-readable message — clients (and the
// crash-recovery path) never have to parse exception text.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "comm/fault.h"
#include "support/memory.h"

namespace cusp::service {

// What to run. Partition jobs stream a registered graph through the CuSP
// pipeline; analytics jobs run on a finished partition set of the same
// (graphId, policy, numHosts) key — computed on demand and cached, so a
// BFS job on a cold cache implies a partition run first.
enum class JobType : uint32_t {
  kPartition = 0,
  kBfs = 1,
  kSssp = 2,
  kCc = 3,
  kPageRank = 4,
};

inline const char* jobTypeName(JobType t) {
  switch (t) {
    case JobType::kPartition: return "partition";
    case JobType::kBfs: return "bfs";
    case JobType::kSssp: return "sssp";
    case JobType::kCc: return "cc";
    case JobType::kPageRank: return "pagerank";
  }
  return "unknown";
}

struct JobSpec {
  JobType type = JobType::kPartition;
  std::string graphId;   // name registered with Engine::registerGraph
  std::string policy;    // partition policy name (core::makePolicy)
  uint32_t numHosts = 4;
  uint64_t sourceGid = 0;  // bfs/sssp source vertex (global id)

  // Wall-clock budget from ADMISSION, covering queue wait and every
  // recovery attempt; the engine checks it at phase/superstep boundaries
  // and the job fails with kDeadlineExceeded once it passes. <= 0: none.
  double deadlineSeconds = 0.0;

  // Transient-failure retries the daemon grants beyond the first run
  // (each engine run already spends the resilience ladder internally).
  uint32_t maxRetries = 1;

  // Per-job fault environment, forwarded into the engine's resilient
  // drivers (chaos testing; null = clean).
  std::shared_ptr<const comm::FaultPlan> faultPlan;
  std::shared_ptr<const support::MemoryFaultPlan> memoryFaultPlan;
  double recvTimeoutSeconds = 0.0;
  uint32_t maxRecoveryAttempts = 3;
};

enum class JobState : uint32_t {
  kQueued = 0,
  kRunning = 1,
  kSucceeded = 2,
  kFailed = 3,     // resilience ladder exhausted / internal error
  kShed = 4,       // refused by admission control (never ran)
  kCancelled = 5,  // operator cancel, client disconnect, or deadline
};

inline const char* jobStateName(JobState s) {
  switch (s) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kSucceeded: return "succeeded";
    case JobState::kFailed: return "failed";
    case JobState::kShed: return "shed";
    case JobState::kCancelled: return "cancelled";
  }
  return "unknown";
}

inline bool isTerminal(JobState s) {
  return s == JobState::kSucceeded || s == JobState::kFailed ||
         s == JobState::kShed || s == JobState::kCancelled;
}

enum class JobErrorKind : uint32_t {
  kNone = 0,
  // Admission-control sheds (returned from submit; the job never runs):
  kShedMemory = 1,     // estimated footprint over the free memory budget
  kShedQueueFull = 2,  // bounded queue at capacity
  kShedDraining = 3,   // daemon is shutting down / was killed
  // Malformed requests (structured rejection, also at submit):
  kUnknownGraph = 4,
  kUnknownPolicy = 5,
  kBadRequest = 6,  // zero hosts, out-of-range source, unknown type...
  // Terminal failures of accepted jobs:
  kDeadlineExceeded = 7,
  kCancelled = 8,            // operator cancel / client disconnect
  kResilienceExhausted = 9,  // ladder + daemon retries all spent
  kInternal = 10,
};

inline const char* jobErrorKindName(JobErrorKind k) {
  switch (k) {
    case JobErrorKind::kNone: return "none";
    case JobErrorKind::kShedMemory: return "shed_memory";
    case JobErrorKind::kShedQueueFull: return "shed_queue_full";
    case JobErrorKind::kShedDraining: return "shed_draining";
    case JobErrorKind::kUnknownGraph: return "unknown_graph";
    case JobErrorKind::kUnknownPolicy: return "unknown_policy";
    case JobErrorKind::kBadRequest: return "bad_request";
    case JobErrorKind::kDeadlineExceeded: return "deadline_exceeded";
    case JobErrorKind::kCancelled: return "cancelled";
    case JobErrorKind::kResilienceExhausted: return "resilience_exhausted";
    case JobErrorKind::kInternal: return "internal";
  }
  return "unknown";
}

struct JobError {
  JobErrorKind kind = JobErrorKind::kNone;
  std::string message;
};

// Outcome of a job, returned by Daemon::wait/status. The daemon does not
// keep payloads: the first wait() that returns a terminal state moves the
// analytics values to its caller, and the job keeps only this metadata. A
// later wait() returns the same metadata with empty payloads; status()
// never carries them.
struct JobResult {
  uint64_t jobId = 0;
  JobSpec spec;
  JobState state = JobState::kQueued;
  JobError error;          // kind != kNone unless kSucceeded
  uint32_t runs = 0;       // engine runs started (retries included)
  double latencySeconds = 0.0;  // submit -> terminal wall clock
  bool partitionCacheHit = false;
  // True when this terminal state was reconstructed from the journal by a
  // restarted daemon (in-memory payloads of the pre-crash process are
  // gone; re-submit to recompute).
  bool recovered = false;

  // Analytics payloads (empty for partition jobs; partition payloads live
  // in the engine's cache, keyed by (graphId, policy, numHosts)).
  std::vector<uint64_t> intValues;    // bfs/sssp/cc
  std::vector<double> doubleValues;   // pagerank
};

}  // namespace cusp::service
