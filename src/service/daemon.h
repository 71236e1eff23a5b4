// cuspd's core: a bounded-queue, multi-worker job daemon over a shared
// Engine, robust by construction:
//
//  * Admission control at submit: malformed requests bounce with structured
//    errors, jobs whose estimated footprint won't fit the attached memory
//    budget are shed (kShedMemory), a full queue sheds (kShedQueueFull) —
//    the daemon refuses work it cannot finish instead of dying trying.
//  * Per-job deadlines armed at admission; the engine's cancellation points
//    (phase/superstep boundaries, host-pool waits) enforce them
//    cooperatively, so an expired job frees its worker at the next
//    boundary.
//  * Job-level fault isolation: a job that exhausts its resilience ladder
//    terminates with its classified fault in a structured JobError; the
//    worker, the daemon, and every sibling job keep running.
//  * Bounded retry-with-backoff: transiently-failed jobs (classified fault
//    kinds) are re-run up to spec.maxRetries times with exponential
//    backoff before failing for good.
//  * Graceful drain: shutdown stops admissions, finishes everything
//    accepted, then joins the workers.
//  * Crash consistency: every accepted job is journaled (service/journal.h)
//    at submit, start, retry, and terminal transitions. A daemon restarted
//    on the same journal directory reports terminal jobs as-is and requeues
//    the rest; requeued partition jobs reuse their per-job checkpoint
//    directories, so they RESUME from the last phase every host
//    checkpointed rather than starting over.
//
// The ServiceFaultPlan seam (service/fault.h) injects burst arrivals,
// client disconnects, malformed requests, and mid-job daemon kills, all
// deterministic under a seed. killForTesting() is the SIGKILL stand-in:
// journaling stops mid-stream and workers abandon jobs without terminal
// records, exactly the torn state recovery must handle.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "service/engine.h"
#include "service/fault.h"
#include "service/job.h"
#include "service/journal.h"

namespace cusp::service {

struct DaemonOptions {
  uint32_t workers = 2;
  size_t maxQueueDepth = 32;
  // Base of the exponential retry backoff (attempt n sleeps base * 2^(n-1)).
  double retryBackoffSeconds = 0.002;
  // Journal directory; empty runs volatile (no crash recovery).
  std::string journalDir;
  // Service-layer chaos (empty = clean).
  ServiceFaultPlan faultPlan;
};

struct DaemonStats {
  uint64_t submitted = 0;  // submit() calls, burst copies included
  uint64_t accepted = 0;
  uint64_t shed = 0;       // admission refusals (memory/queue/drain)
  uint64_t rejected = 0;   // malformed requests
  uint64_t succeeded = 0;
  uint64_t failed = 0;
  uint64_t cancelled = 0;  // cancels, disconnects, deadlines
  uint64_t retries = 0;
  uint64_t recoveredRequeued = 0;  // journal recovery: re-enqueued jobs
  uint64_t recoveredTerminal = 0;  // journal recovery: already-done jobs
};

class Daemon {
 public:
  Daemon(std::shared_ptr<Engine> engine, DaemonOptions options = {});
  ~Daemon();  // graceful drain unless killed

  struct SubmitOutcome {
    uint64_t jobId = 0;    // 0 when not accepted
    bool accepted = false;
    JobError error;        // kind != kNone when not accepted
  };

  // Validates, admits, journals, and enqueues. Never throws on bad input —
  // every refusal is a structured SubmitOutcome.
  SubmitOutcome submit(const JobSpec& spec);

  // A job's current metadata, never its payload (nullopt: unknown id).
  std::optional<JobResult> status(uint64_t jobId) const;

  // Blocks until the job is terminal (or the daemon is killed). The first
  // call that sees the terminal state takes the job's payload; later calls
  // get the same metadata with empty payloads (see JobResult).
  JobResult wait(uint64_t jobId);

  // Requests cooperative cancellation; returns false for unknown ids.
  // Queued jobs cancel before running; running jobs unwind at the next
  // phase/superstep boundary.
  bool cancel(uint64_t jobId);

  // Graceful drain: stop admitting, run the queue dry, join the workers.
  // Idempotent; the destructor calls it unless the daemon was killed.
  void drain();

  // SIGKILL stand-in for crash tests: stops journaling immediately, cancels
  // running jobs WITHOUT terminal records, and refuses further submits.
  // The destructor then only joins the workers — in-memory state is
  // abandoned exactly as a real kill would abandon it.
  void killForTesting();
  bool killed() const;

  size_t queueDepth() const;
  DaemonStats stats() const;
  const std::vector<uint64_t>& recoveredJobIds() const {
    return recoveredJobIds_;
  }

 private:
  struct Job {
    uint64_t id = 0;
    JobSpec spec;
    JobState state = JobState::kQueued;
    JobError error;
    uint32_t runs = 0;
    bool disconnected = false;
    bool recovered = false;
    bool partitionCacheHit = false;
    std::chrono::steady_clock::time_point submitTime;
    std::shared_ptr<support::CancelToken> cancel =
        std::make_shared<support::CancelToken>();
    // Held from success until the first wait() takes them.
    std::vector<uint64_t> intValues;
    std::vector<double> doubleValues;
    double latencySeconds = 0.0;
  };

  SubmitOutcome submitOne(JobSpec spec, bool disconnected);
  void workerLoop();
  void runJob(const std::shared_ptr<Job>& job);
  void finishJob(const std::shared_ptr<Job>& job, JobState state,
                 JobError error);
  void journalAppend(JournalRecord record, bool failSoft);
  JobResult metadata(const Job& job) const;  // everything but the payload
  void updateQueueGauge(size_t depth);

  std::shared_ptr<Engine> engine_;
  DaemonOptions options_;
  ServiceFaultInjector injector_;
  std::unique_ptr<Journal> journal_;

  mutable std::mutex mutex_;
  std::condition_variable queueCv_;  // workers wait for jobs / stop
  std::condition_variable doneCv_;   // wait() callers
  std::deque<uint64_t> queue_;
  std::map<uint64_t, std::shared_ptr<Job>> jobs_;
  uint64_t nextJobId_ = 1;
  std::atomic<uint64_t> submitIndex_{0};  // fault-plan coordinate
  bool draining_ = false;     // no new admissions
  bool killed_ = false;       // crash simulation: journaling stopped too
  DaemonStats stats_;
  std::vector<uint64_t> recoveredJobIds_;

  std::vector<std::thread> workers_;
};

}  // namespace cusp::service
