#include "service/daemon.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "core/degraded.h"
#include "obs/obs.h"
#include "support/storage.h"

namespace cusp::service {

namespace {

double secondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// what() of the in-flight exception; callable only inside a catch block.
std::string currentExceptionWhat() {
  try {
    throw;
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "unknown exception";
  }
}

JobState stateOfTerminalEvent(JournalEvent e) {
  switch (e) {
    case JournalEvent::kSucceeded: return JobState::kSucceeded;
    case JournalEvent::kFailed: return JobState::kFailed;
    case JournalEvent::kCancelled: return JobState::kCancelled;
    default: return JobState::kQueued;
  }
}

}  // namespace

Daemon::Daemon(std::shared_ptr<Engine> engine, DaemonOptions options)
    : engine_(std::move(engine)),
      options_(std::move(options)),
      injector_(options_.faultPlan) {
  const auto sink = obs::sink();
  if (!options_.journalDir.empty()) {
    journal_ = std::make_unique<Journal>(options_.journalDir);
    const auto now = std::chrono::steady_clock::now();
    for (const JournalRecord& rec : journal_->recovered()) {
      auto job = std::make_shared<Job>();
      job->id = rec.jobId;
      job->spec = rec.spec;
      job->runs = rec.runs;
      job->recovered = true;
      job->submitTime = now;
      nextJobId_ = std::max(nextJobId_, rec.jobId + 1);
      if (isTerminal(rec.event)) {
        job->state = stateOfTerminalEvent(rec.event);
        job->error = {rec.errorKind, rec.errorMessage};
        ++stats_.recoveredTerminal;
        if (sink) {
          sink.metrics->counter("cusp.svc.recovered_terminal").add();
        }
      } else {
        // Accepted but unfinished when the previous process died: requeue.
        // A partition job re-runs against its per-job checkpoint dir, so
        // the resilient driver resumes rather than restarts.
        job->state = JobState::kQueued;
        if (job->spec.deadlineSeconds > 0) {
          job->cancel->armDeadline(job->spec.deadlineSeconds);
        }
        queue_.push_back(job->id);
        ++stats_.recoveredRequeued;
        if (sink) {
          sink.metrics->counter("cusp.svc.recovered_requeued").add();
        }
      }
      recoveredJobIds_.push_back(job->id);
      jobs_.emplace(job->id, std::move(job));
    }
    updateQueueGauge(queue_.size());
  }
  const uint32_t n = std::max(1u, options_.workers);
  workers_.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { workerLoop(); });
  }
}

Daemon::~Daemon() { drain(); }

void Daemon::updateQueueGauge(size_t depth) {
  if (const auto sink = obs::sink()) {
    sink.metrics->gauge("cusp.svc.queue_depth")
        .set(static_cast<double>(depth));
  }
}

void Daemon::journalAppend(JournalRecord record, bool failSoft) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (journal_ == nullptr || killed_) {
      return;  // volatile daemon, or the "power" is already off
    }
  }
  uint64_t count = 0;
  try {
    count = journal_->append(std::move(record));
  } catch (const support::StorageError&) {
    if (const auto sink = obs::sink()) {
      sink.metrics->counter("cusp.svc.journal_write_failures").add();
    }
    if (!failSoft) {
      throw;
    }
    return;  // at-least-once: a lost non-submit record only means the job
             // replays further back after a crash
  }
  if (const auto sink = obs::sink()) {
    sink.metrics->counter("cusp.svc.journal_records").add();
  }
  if (injector_.shouldKillAfterRecord(count)) {
    killForTesting();
  }
}

Daemon::SubmitOutcome Daemon::submit(const JobSpec& spec) {
  const uint64_t index = submitIndex_.fetch_add(1, std::memory_order_relaxed);
  JobSpec effective = spec;
  if (const auto kind = injector_.malformKind(index)) {
    effective = malformSpec(spec, *kind);
  }
  const SubmitOutcome primary =
      submitOne(effective, injector_.disconnects(index));
  // Burst arrivals: the same request lands again N times, back to back,
  // from clients that will never collect. Admission decides per copy, so a
  // burst against a short queue is exactly what exercises kShedQueueFull.
  const uint32_t copies = injector_.burstCopies(index);
  for (uint32_t c = 0; c < copies; ++c) {
    submitOne(effective, /*disconnected=*/true);
  }
  return primary;
}

Daemon::SubmitOutcome Daemon::submitOne(JobSpec spec, bool disconnected) {
  const auto sink = obs::sink();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.submitted;
  }
  if (sink) {
    sink.metrics->counter("cusp.svc.jobs_submitted").add();
  }

  const JobError invalid = engine_->validate(spec);
  if (invalid.kind != JobErrorKind::kNone) {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.rejected;
    if (sink) {
      sink.metrics->counter("cusp.svc.jobs_rejected",
                            {{"kind", jobErrorKindName(invalid.kind)}})
          .add();
    }
    return {0, false, invalid};
  }

  auto shed = [&](JobErrorKind kind, std::string message) -> SubmitOutcome {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.shed;
    }
    if (sink) {
      sink.metrics->counter("cusp.svc.jobs_shed",
                            {{"reason", jobErrorKindName(kind)}})
          .add();
    }
    return {0, false, {kind, std::move(message)}};
  };

  // Decide under the lock, shed after releasing it: the shed helper takes
  // mutex_ itself for the stats bump, so calling it from inside this scope
  // would self-deadlock.
  bool shuttingDown = false;
  bool queueFull = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shuttingDown = draining_ || killed_;
    queueFull = !shuttingDown && queue_.size() >= options_.maxQueueDepth;
  }
  if (shuttingDown) {
    return shed(JobErrorKind::kShedDraining, "daemon is shutting down");
  }
  if (queueFull) {
    return shed(JobErrorKind::kShedQueueFull,
                "queue at capacity (" +
                    std::to_string(options_.maxQueueDepth) + ")");
  }
  if (const auto over = engine_->admit(spec)) {
    return shed(over->kind, over->message);
  }

  std::shared_ptr<Job> job;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    job = std::make_shared<Job>();
    job->id = nextJobId_++;
    job->spec = spec;
    job->disconnected = disconnected;
    job->submitTime = std::chrono::steady_clock::now();
    jobs_.emplace(job->id, job);
  }
  // Durable acceptance BEFORE the ack: a job the client was promised must
  // survive a crash. If the journal write fails, the promise is withdrawn.
  try {
    JournalRecord rec;
    rec.jobId = job->id;
    rec.event = JournalEvent::kSubmitted;
    rec.spec = spec;
    journalAppend(std::move(rec), /*failSoft=*/false);
  } catch (const support::StorageError& e) {
    std::lock_guard<std::mutex> lock(mutex_);
    jobs_.erase(job->id);
    return {0, false,
            {JobErrorKind::kInternal,
             std::string("journal write failed: ") + e.what()}};
  }
  if (spec.deadlineSeconds > 0) {
    job->cancel->armDeadline(spec.deadlineSeconds);
  }
  size_t depth = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(job->id);
    depth = queue_.size();
    ++stats_.accepted;
  }
  if (sink) {
    sink.metrics->counter("cusp.svc.jobs_accepted").add();
  }
  updateQueueGauge(depth);
  queueCv_.notify_one();
  return {job->id, true, {}};
}

void Daemon::workerLoop() {
  for (;;) {
    std::shared_ptr<Job> job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      queueCv_.wait(lock, [&] {
        return killed_ || !queue_.empty() || draining_;
      });
      if (killed_) {
        return;
      }
      if (queue_.empty()) {
        if (draining_) {
          return;
        }
        continue;
      }
      const uint64_t id = queue_.front();
      queue_.pop_front();
      job = jobs_.at(id);
      job->state = JobState::kRunning;
    }
    updateQueueGauge(queueDepth());
    runJob(job);
  }
}

void Daemon::runJob(const std::shared_ptr<Job>& job) {
  if (job->disconnected) {
    // The client is gone; don't spend a worker computing into the void.
    finishJob(job, JobState::kCancelled,
              {JobErrorKind::kCancelled, "client disconnected before start"});
    return;
  }
  {
    JournalRecord rec;
    rec.jobId = job->id;
    rec.event = JournalEvent::kStarted;
    rec.spec = job->spec;
    rec.runs = job->runs;
    journalAppend(std::move(rec), /*failSoft=*/true);
  }
  for (;;) {
    ++job->runs;
    try {
      job->cancel->check("job start");
      Engine::RunOutcome outcome =
          engine_->run(job->spec, job->id, job->cancel);
      {
        std::lock_guard<std::mutex> lock(mutex_);
        job->partitionCacheHit = outcome.partitionCacheHit;
        job->intValues = std::move(outcome.intValues);
        job->doubleValues = std::move(outcome.doubleValues);
      }
      finishJob(job, JobState::kSucceeded, {});
      return;
    } catch (const support::JobCancelled& e) {
      finishJob(job, JobState::kCancelled,
                {e.byDeadline() ? JobErrorKind::kDeadlineExceeded
                                : JobErrorKind::kCancelled,
                 e.what()});
      return;
    } catch (...) {
      const auto classified =
          core::classifyFault(std::current_exception());
      const std::string what =
          classified ? classified->what : currentExceptionWhat();
      {
        std::lock_guard<std::mutex> lock(mutex_);
        if (killed_) {
          return;  // crash simulation: abandon without a terminal record
        }
      }
      if (classified && job->runs <= job->spec.maxRetries) {
        // Transient by classification: back off and re-run. The per-job
        // checkpoint dir survives, so the re-run resumes, not restarts.
        {
          std::lock_guard<std::mutex> lock(mutex_);
          ++stats_.retries;
        }
        if (const auto sink = obs::sink()) {
          sink.metrics->counter("cusp.svc.retries").add();
        }
        JournalRecord rec;
        rec.jobId = job->id;
        rec.event = JournalEvent::kRetried;
        rec.spec = job->spec;
        rec.runs = job->runs;
        rec.errorKind = JobErrorKind::kResilienceExhausted;
        rec.errorMessage = what;
        journalAppend(std::move(rec), /*failSoft=*/true);
        std::this_thread::sleep_for(std::chrono::duration<double>(
            options_.retryBackoffSeconds *
            static_cast<double>(1u << std::min(job->runs - 1, 10u))));
        continue;
      }
      finishJob(job, JobState::kFailed,
                {classified ? JobErrorKind::kResilienceExhausted
                            : JobErrorKind::kInternal,
                 (classified ? std::string(classified->kindName()) + ": "
                             : std::string()) +
                     what});
      return;
    }
  }
}

void Daemon::finishJob(const std::shared_ptr<Job>& job, JobState state,
                       JobError error) {
  bool abandoned = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    abandoned = killed_;
    job->state = state;
    // A requeued job that just ran to terminal has a REAL outcome now, not
    // a journal-reconstructed one; `recovered` only stays set on results
    // rebuilt from terminal records (whose payloads died with the old
    // process).
    job->recovered = false;
    job->error = std::move(error);
    job->latencySeconds = secondsSince(job->submitTime);
    switch (state) {
      case JobState::kSucceeded: ++stats_.succeeded; break;
      case JobState::kFailed: ++stats_.failed; break;
      case JobState::kCancelled: ++stats_.cancelled; break;
      default: break;
    }
  }
  if (!abandoned) {
    JournalRecord rec;
    rec.jobId = job->id;
    rec.event = state == JobState::kSucceeded ? JournalEvent::kSucceeded
                : state == JobState::kFailed  ? JournalEvent::kFailed
                                              : JournalEvent::kCancelled;
    rec.spec = job->spec;
    rec.runs = job->runs;
    rec.errorKind = job->error.kind;
    rec.errorMessage = job->error.message;
    journalAppend(std::move(rec), /*failSoft=*/true);
    if (const auto sink = obs::sink()) {
      sink.metrics
          ->counter("cusp.svc.jobs_done", {{"state", jobStateName(state)}})
          .add();
      sink.metrics->histogram("cusp.svc.job_latency_seconds")
          .observe(job->latencySeconds);
    }
  }
  doneCv_.notify_all();
}

JobResult Daemon::metadata(const Job& job) const {
  JobResult r;
  r.jobId = job.id;
  r.spec = job.spec;
  r.state = job.state;
  r.error = job.error;
  r.runs = job.runs;
  r.latencySeconds = job.latencySeconds;
  r.partitionCacheHit = job.partitionCacheHit;
  r.recovered = job.recovered;
  return r;
}

std::optional<JobResult> Daemon::status(uint64_t jobId) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = jobs_.find(jobId);
  if (it == jobs_.end()) {
    return std::nullopt;
  }
  return metadata(*it->second);
}

JobResult Daemon::wait(uint64_t jobId) {
  std::unique_lock<std::mutex> lock(mutex_);
  const auto it = jobs_.find(jobId);
  if (it == jobs_.end()) {
    JobResult r;
    r.jobId = jobId;
    r.state = JobState::kFailed;
    r.error = {JobErrorKind::kBadRequest, "unknown job id"};
    return r;
  }
  const std::shared_ptr<Job> job = it->second;
  doneCv_.wait(lock, [&] { return isTerminal(job->state) || killed_; });
  JobResult r = metadata(*job);
  if (isTerminal(job->state)) {
    // The payload goes to this caller; the job keeps its metadata only.
    r.intValues = std::exchange(job->intValues, {});
    r.doubleValues = std::exchange(job->doubleValues, {});
  }
  return r;
}

bool Daemon::cancel(uint64_t jobId) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = jobs_.find(jobId);
  if (it == jobs_.end() || isTerminal(it->second->state)) {
    return false;
  }
  it->second->cancel->cancel();
  return true;
}

void Daemon::drain() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    draining_ = true;
  }
  queueCv_.notify_all();
  for (auto& w : workers_) {
    if (w.joinable()) {
      w.join();
    }
  }
  doneCv_.notify_all();
}

void Daemon::killForTesting() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (killed_) {
      return;
    }
    killed_ = true;
    draining_ = true;
    for (auto& [id, job] : jobs_) {
      if (!isTerminal(job->state)) {
        job->cancel->cancel();
      }
    }
  }
  queueCv_.notify_all();
  doneCv_.notify_all();
}

bool Daemon::killed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return killed_;
}

size_t Daemon::queueDepth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

DaemonStats Daemon::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace cusp::service
