// The partition service layer (src/service/): journal crash consistency,
// engine validation/admission/caching, and the daemon's overload story —
// structured sheds, deadlines, cooperative cancel, retry with backoff,
// job-level fault isolation, graceful drain, and crash-consistent restart.
//
// The acceptance invariants this suite pins down:
//  * every refused submit carries a structured JobError (kind + message) —
//    the daemon never throws at a client and never crashes;
//  * a >=50-job seeded chaos soak under the combined ServiceFaultPlan +
//    comm/storage/memory fault plans runs to completion with every accepted
//    job reaching a terminal state;
//  * a daemon killed mid-soak and restarted on the same journal requeues or
//    reports every journaled job exactly once — no loss, no duplication;
//  * partition sets computed through the service are bit-identical to
//    standalone core::partitionGraph runs, including jobs that recovered
//    from transient comm faults on the way.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <vector>

#include <unistd.h>

#include "comm/fault.h"
#include "core/partitioner.h"
#include "core/policies.h"
#include "graph/generators.h"
#include "graph/graph_file.h"
#include "obs/obs.h"
#include "service/daemon.h"
#include "support/memory.h"
#include "support/serialize.h"
#include "support/storage.h"

namespace cusp {
namespace {

class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/cusp_service_XXXXXX";
    const char* made = ::mkdtemp(tmpl);
    if (made == nullptr) {
      throw std::runtime_error("mkdtemp failed");
    }
    path_ = made;
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

graph::CsrGraph smallWeightedGraph(uint64_t seed) {
  graph::WebCrawlParams params;
  params.numNodes = 400;
  params.avgOutDegree = 8.0;
  params.seed = seed;
  return graph::withRandomWeights(graph::generateWebCrawl(params), 64, 7);
}

std::shared_ptr<service::Engine> makeEngine(
    const std::string& workDir = "", uint32_t hostPoolSize = 16,
    std::optional<comm::AggregationPolicy> aggregation = std::nullopt) {
  service::EngineOptions options;
  options.hostPoolSize = hostPoolSize;
  options.workDir = workDir;
  options.baseConfig.aggregation = aggregation;
  auto engine = std::make_shared<service::Engine>(options);
  engine->registerGraph("web",
                        graph::GraphFile::fromCsr(smallWeightedGraph(13)));
  engine->registerGraph("crawl",
                        graph::GraphFile::fromCsr(smallWeightedGraph(29)));
  return engine;
}

service::JobSpec makeSpec(service::JobType type = service::JobType::kPartition,
                          const std::string& graphId = "web",
                          const std::string& policy = "EEC",
                          uint32_t hosts = 4) {
  service::JobSpec spec;
  spec.type = type;
  spec.graphId = graphId;
  spec.policy = policy;
  spec.numHosts = hosts;
  spec.sourceGid = 3;
  return spec;
}

// A comm plan whose transient crash reliably fires in phase 3 of a 4-host
// partition run (same coordinates the chaos-pipeline suite uses).
std::shared_ptr<const comm::FaultPlan> transientCrashPlan() {
  auto plan = std::make_shared<comm::FaultPlan>();
  plan->crashes.push_back({/*host=*/1, /*phase=*/3, /*opsIntoPhase=*/0,
                           /*permanent=*/false});
  return plan;
}

std::vector<uint8_t> serializePartitions(
    const std::vector<core::DistGraph>& parts) {
  support::SendBuffer buf;
  for (const core::DistGraph& part : parts) {
    core::serializeDistGraph(buf, part);
  }
  return buf.release();
}

// ---------------------------------------------------------------------------
// Journal: durable round trip, torn-record tolerance, per-job newest-wins.
// ---------------------------------------------------------------------------

service::JournalRecord makeRecord(uint64_t jobId, service::JournalEvent event,
                                  uint32_t runs = 0) {
  service::JournalRecord rec;
  rec.jobId = jobId;
  rec.event = event;
  rec.spec = makeSpec();
  rec.runs = runs;
  return rec;
}

TEST(ServiceJournalTest, RecoversNewestValidRecordPerJob) {
  TempDir dir;
  {
    service::Journal journal(dir.path());
    journal.append(makeRecord(1, service::JournalEvent::kSubmitted));
    journal.append(makeRecord(1, service::JournalEvent::kStarted, 1));
    journal.append(makeRecord(1, service::JournalEvent::kSucceeded, 1));
    journal.append(makeRecord(2, service::JournalEvent::kSubmitted));
    journal.append(makeRecord(3, service::JournalEvent::kSubmitted));
    journal.append(makeRecord(3, service::JournalEvent::kStarted, 1));
  }
  service::Journal reopened(dir.path());
  std::map<uint64_t, service::JournalRecord> byJob;
  for (const auto& rec : reopened.recovered()) {
    ASSERT_EQ(byJob.count(rec.jobId), 0u)
        << "job " << rec.jobId << " recovered twice";
    byJob[rec.jobId] = rec;
  }
  ASSERT_EQ(byJob.size(), 3u);
  EXPECT_EQ(byJob[1].event, service::JournalEvent::kSucceeded);
  EXPECT_EQ(byJob[1].runs, 1u);
  EXPECT_EQ(byJob[2].event, service::JournalEvent::kSubmitted);
  EXPECT_EQ(byJob[3].event, service::JournalEvent::kStarted);
  // The spec's plain fields survive the round trip.
  EXPECT_EQ(byJob[1].spec.graphId, "web");
  EXPECT_EQ(byJob[1].spec.policy, "EEC");
  EXPECT_EQ(byJob[1].spec.numHosts, 4u);
  EXPECT_EQ(byJob[1].spec.type, service::JobType::kPartition);
}

TEST(ServiceJournalTest, TornNewestRecordFallsBackToPreviousValid) {
  TempDir dir;
  {
    service::Journal journal(dir.path());
    journal.append(makeRecord(7, service::JournalEvent::kSubmitted));
    journal.append(makeRecord(7, service::JournalEvent::kSucceeded, 1));
  }
  // Tear the newest record (highest sequence number) mid-file: recovery
  // must drop it and fall back to the submitted record — i.e. requeue.
  std::vector<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir.path())) {
    files.push_back(entry.path().string());
  }
  std::sort(files.begin(), files.end());
  ASSERT_EQ(files.size(), 2u);
  const std::string& newest = files.back();
  const auto size = std::filesystem::file_size(newest);
  std::filesystem::resize_file(newest, size / 2);

  service::Journal reopened(dir.path());
  ASSERT_EQ(reopened.recovered().size(), 1u);
  EXPECT_EQ(reopened.recovered()[0].jobId, 7u);
  EXPECT_EQ(reopened.recovered()[0].event, service::JournalEvent::kSubmitted);
}

TEST(ServiceJournalTest, CorruptPayloadIsRejectedByChecksum) {
  TempDir dir;
  {
    service::Journal journal(dir.path());
    journal.append(makeRecord(5, service::JournalEvent::kSubmitted));
  }
  std::string file;
  for (const auto& entry : std::filesystem::directory_iterator(dir.path())) {
    file = entry.path().string();
  }
  ASSERT_FALSE(file.empty());
  // Flip one payload byte; the CRC32 footer must reject the record, and a
  // job with no valid record at all was never durably acknowledged.
  {
    std::fstream f(file, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(4);
    char byte = 0;
    f.seekg(4);
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x5a);
    f.seekp(4);
    f.write(&byte, 1);
  }
  service::Journal reopened(dir.path());
  EXPECT_TRUE(reopened.recovered().empty());
}

TEST(ServiceJournalTest, SequenceNumbersContinueAcrossReopen) {
  TempDir dir;
  {
    service::Journal journal(dir.path());
    journal.append(makeRecord(4, service::JournalEvent::kSubmitted));
    journal.append(makeRecord(4, service::JournalEvent::kStarted, 1));
  }
  {
    service::Journal reopened(dir.path());
    // An append after reopen must not overwrite the old records' files.
    reopened.append(makeRecord(4, service::JournalEvent::kSucceeded, 1));
  }
  service::Journal last(dir.path());
  ASSERT_EQ(last.recovered().size(), 1u);
  EXPECT_EQ(last.recovered()[0].event, service::JournalEvent::kSucceeded);
  EXPECT_EQ(
      std::distance(std::filesystem::directory_iterator(dir.path()),
                    std::filesystem::directory_iterator{}),
      3);
}

// ---------------------------------------------------------------------------
// Engine: structured validation, memory admission, partition cache.
// ---------------------------------------------------------------------------

TEST(ServiceEngineTest, ValidateReturnsStructuredRejections) {
  auto engine = makeEngine("", /*hostPoolSize=*/8);

  EXPECT_EQ(engine->validate(makeSpec()).kind, service::JobErrorKind::kNone);

  auto unknownGraph = makeSpec();
  unknownGraph.graphId = "no-such-graph";
  EXPECT_EQ(engine->validate(unknownGraph).kind,
            service::JobErrorKind::kUnknownGraph);

  auto unknownPolicy = makeSpec();
  unknownPolicy.policy = "NOT-A-POLICY";
  EXPECT_EQ(engine->validate(unknownPolicy).kind,
            service::JobErrorKind::kUnknownPolicy);

  auto zeroHosts = makeSpec();
  zeroHosts.numHosts = 0;
  EXPECT_EQ(engine->validate(zeroHosts).kind,
            service::JobErrorKind::kBadRequest);

  auto overPool = makeSpec();
  overPool.numHosts = 9;  // pool is 8
  EXPECT_EQ(engine->validate(overPool).kind,
            service::JobErrorKind::kBadRequest);

  auto badSource = makeSpec(service::JobType::kBfs);
  badSource.sourceGid = 1'000'000;
  EXPECT_EQ(engine->validate(badSource).kind,
            service::JobErrorKind::kBadRequest);

  auto badType = makeSpec();
  badType.type = static_cast<service::JobType>(99);
  EXPECT_EQ(engine->validate(badType).kind,
            service::JobErrorKind::kBadRequest);

  // Every rejection names its cause.
  EXPECT_FALSE(engine->validate(unknownGraph).message.empty());
  EXPECT_FALSE(engine->validate(overPool).message.empty());
}

TEST(ServiceEngineTest, SsspRequiresWeights) {
  auto engine = makeEngine();
  graph::WebCrawlParams params;
  params.numNodes = 100;
  params.avgOutDegree = 4.0;
  params.seed = 3;
  engine->registerGraph(
      "plain", graph::GraphFile::fromCsr(graph::generateWebCrawl(params)));
  auto spec = makeSpec(service::JobType::kSssp, "plain");
  EXPECT_EQ(engine->validate(spec).kind, service::JobErrorKind::kBadRequest);
  EXPECT_EQ(engine->validate(makeSpec(service::JobType::kSssp)).kind,
            service::JobErrorKind::kNone);
}

TEST(ServiceEngineTest, AdmissionShedsAgainstTightBudgetOnly) {
  auto engine = makeEngine();
  const auto spec = makeSpec();
  EXPECT_GT(engine->estimateFootprintBytes(spec), 0u);
  // No budget attached: everything is admitted.
  EXPECT_FALSE(engine->admit(spec).has_value());
  {
    // A 1 MB budget cannot fit the >= 4 MB per-host overhead estimate.
    support::ScopedMemoryBudget budget(1ull << 20);
    const auto refused = engine->admit(spec);
    ASSERT_TRUE(refused.has_value());
    EXPECT_EQ(refused->kind, service::JobErrorKind::kShedMemory);
    EXPECT_FALSE(refused->message.empty());
  }
  EXPECT_FALSE(engine->admit(spec).has_value());
}

TEST(ServiceEngineTest, PartitionCacheIsKeyedAndShared) {
  auto engine = makeEngine();
  auto cancel = std::make_shared<support::CancelToken>();
  const auto spec = makeSpec();

  const auto first = engine->run(spec, /*jobId=*/1, cancel);
  EXPECT_FALSE(first.partitionCacheHit);
  const auto second = engine->run(spec, /*jobId=*/2, cancel);
  EXPECT_TRUE(second.partitionCacheHit);
  EXPECT_EQ(first.partitions.get(), second.partitions.get());

  // Analytics on the same key rides the cache; a different key misses.
  const auto bfs = engine->run(makeSpec(service::JobType::kBfs), 3, cancel);
  EXPECT_TRUE(bfs.partitionCacheHit);
  EXPECT_FALSE(bfs.intValues.empty());
  const auto other =
      engine->run(makeSpec(service::JobType::kPartition, "crawl"), 4, cancel);
  EXPECT_FALSE(other.partitionCacheHit);

  EXPECT_EQ(engine->cacheHits(), 2u);
  EXPECT_EQ(engine->cacheMisses(), 2u);
  EXPECT_NE(engine->cachedPartitions("web", "EEC", 4), nullptr);
  EXPECT_EQ(engine->cachedPartitions("web", "EEC", 8), nullptr);
}

// ---------------------------------------------------------------------------
// Daemon: mixed workloads, structured sheds, deadlines, cancel, isolation.
// ---------------------------------------------------------------------------

TEST(ServiceDaemonTest, MixedJobsRunToSuccess) {
  auto engine = makeEngine();
  service::DaemonOptions options;
  options.workers = 3;
  service::Daemon daemon(engine, options);

  const service::JobType types[] = {
      service::JobType::kPartition, service::JobType::kBfs,
      service::JobType::kSssp, service::JobType::kCc,
      service::JobType::kPageRank};
  std::vector<uint64_t> ids;
  for (const auto type : types) {
    for (const char* graphId : {"web", "crawl"}) {
      const auto outcome = daemon.submit(makeSpec(type, graphId));
      ASSERT_TRUE(outcome.accepted) << outcome.error.message;
      ids.push_back(outcome.jobId);
    }
  }
  for (uint64_t id : ids) {
    const auto result = daemon.wait(id);
    EXPECT_EQ(result.state, service::JobState::kSucceeded)
        << "job " << id << ": " << result.error.message;
    EXPECT_GT(result.latencySeconds, 0.0);
    if (result.spec.type == service::JobType::kBfs ||
        result.spec.type == service::JobType::kSssp ||
        result.spec.type == service::JobType::kCc) {
      EXPECT_FALSE(result.intValues.empty());
    }
    if (result.spec.type == service::JobType::kPageRank) {
      EXPECT_FALSE(result.doubleValues.empty());
    }
  }
  const auto stats = daemon.stats();
  EXPECT_EQ(stats.accepted, ids.size());
  EXPECT_EQ(stats.succeeded, ids.size());
  EXPECT_EQ(stats.failed, 0u);
}

TEST(ServiceDaemonTest, WaitHandsOverThePayload) {
  // The daemon keeps no finished payloads: the first wait() that sees the
  // terminal state takes the values, and later calls get the metadata only.
  auto engine = makeEngine();
  service::Daemon daemon(engine);
  const auto bfs = daemon.submit(makeSpec(service::JobType::kBfs));
  const auto pr = daemon.submit(makeSpec(service::JobType::kPageRank));
  ASSERT_TRUE(bfs.accepted && pr.accepted);
  for (const uint64_t id : {bfs.jobId, pr.jobId}) {
    const auto first = daemon.wait(id);
    ASSERT_EQ(first.state, service::JobState::kSucceeded);
    EXPECT_FALSE(first.intValues.empty() && first.doubleValues.empty());
    const auto again = daemon.wait(id);
    EXPECT_EQ(again.state, service::JobState::kSucceeded);
    EXPECT_EQ(again.runs, first.runs);
    EXPECT_EQ(again.latencySeconds, first.latencySeconds);
    EXPECT_TRUE(again.intValues.empty());
    EXPECT_TRUE(again.doubleValues.empty());
  }
}

TEST(ServiceDaemonTest, MalformedRequestsBounceWithExactKinds) {
  auto engine = makeEngine();
  service::Daemon daemon(engine);

  auto unknownGraph = makeSpec();
  unknownGraph.graphId = "ghost";
  auto o1 = daemon.submit(unknownGraph);
  EXPECT_FALSE(o1.accepted);
  EXPECT_EQ(o1.error.kind, service::JobErrorKind::kUnknownGraph);
  EXPECT_EQ(o1.jobId, 0u);

  auto unknownPolicy = makeSpec();
  unknownPolicy.policy = "GHOST";
  auto o2 = daemon.submit(unknownPolicy);
  EXPECT_FALSE(o2.accepted);
  EXPECT_EQ(o2.error.kind, service::JobErrorKind::kUnknownPolicy);

  // The daemon is unharmed: a clean job still runs.
  const auto ok = daemon.submit(makeSpec());
  ASSERT_TRUE(ok.accepted);
  EXPECT_EQ(daemon.wait(ok.jobId).state, service::JobState::kSucceeded);
  EXPECT_EQ(daemon.stats().rejected, 2u);
}

TEST(ServiceDaemonTest, ZeroDepthQueueShedsEverySubmit) {
  auto engine = makeEngine();
  service::DaemonOptions options;
  options.maxQueueDepth = 0;
  service::Daemon daemon(engine, options);
  const auto outcome = daemon.submit(makeSpec());
  EXPECT_FALSE(outcome.accepted);
  EXPECT_EQ(outcome.error.kind, service::JobErrorKind::kShedQueueFull);
  EXPECT_FALSE(outcome.error.message.empty());
  EXPECT_EQ(daemon.stats().shed, 1u);
}

TEST(ServiceDaemonTest, TightMemoryBudgetShedsAtAdmission) {
  support::ScopedMemoryBudget budget(1ull << 20);
  auto engine = makeEngine();
  service::Daemon daemon(engine);
  const auto outcome = daemon.submit(makeSpec());
  EXPECT_FALSE(outcome.accepted);
  EXPECT_EQ(outcome.error.kind, service::JobErrorKind::kShedMemory);
  EXPECT_FALSE(outcome.error.message.empty());
}

TEST(ServiceDaemonTest, DrainStopsAdmissionsAndFinishesAccepted) {
  auto engine = makeEngine();
  service::Daemon daemon(engine);
  const auto accepted = daemon.submit(makeSpec());
  ASSERT_TRUE(accepted.accepted);
  daemon.drain();
  EXPECT_EQ(daemon.wait(accepted.jobId).state, service::JobState::kSucceeded);
  const auto refused = daemon.submit(makeSpec());
  EXPECT_FALSE(refused.accepted);
  EXPECT_EQ(refused.error.kind, service::JobErrorKind::kShedDraining);
}

TEST(ServiceDaemonTest, DeadlineExceededIsStructuredAndCooperative) {
  auto engine = makeEngine();
  service::Daemon daemon(engine);
  auto spec = makeSpec();
  spec.deadlineSeconds = 1e-9;  // expires before any worker can dequeue it
  const auto outcome = daemon.submit(spec);
  ASSERT_TRUE(outcome.accepted);
  const auto result = daemon.wait(outcome.jobId);
  EXPECT_EQ(result.state, service::JobState::kCancelled);
  EXPECT_EQ(result.error.kind, service::JobErrorKind::kDeadlineExceeded);
  // The worker survives to run the next job.
  const auto next = daemon.submit(makeSpec());
  ASSERT_TRUE(next.accepted);
  EXPECT_EQ(daemon.wait(next.jobId).state, service::JobState::kSucceeded);
}

TEST(ServiceDaemonTest, CancelledQueuedJobNeverRuns) {
  auto engine = makeEngine();
  service::DaemonOptions options;
  options.workers = 1;
  service::Daemon daemon(engine, options);
  // One worker: the first job occupies it, the second sits queued long
  // enough for the cancel to land before it starts.
  const auto running = daemon.submit(makeSpec());
  const auto queued =
      daemon.submit(makeSpec(service::JobType::kPartition, "crawl", "CVC"));
  ASSERT_TRUE(running.accepted);
  ASSERT_TRUE(queued.accepted);
  EXPECT_TRUE(daemon.cancel(queued.jobId));
  EXPECT_FALSE(daemon.cancel(99999));  // unknown id

  const auto result = daemon.wait(queued.jobId);
  EXPECT_EQ(result.state, service::JobState::kCancelled);
  EXPECT_EQ(result.error.kind, service::JobErrorKind::kCancelled);
  EXPECT_EQ(daemon.wait(running.jobId).state, service::JobState::kSucceeded);
}

TEST(ServiceDaemonTest, FaultedJobIsRetriedThenIsolated) {
  auto engine = makeEngine();
  service::DaemonOptions options;
  options.workers = 2;
  options.retryBackoffSeconds = 0.0005;
  service::Daemon daemon(engine, options);

  // Zero recovery attempts turns the injected transient crash into a
  // classified failure on every run; maxRetries bounds the daemon's re-runs.
  auto faulty = makeSpec();
  faulty.faultPlan = transientCrashPlan();
  faulty.maxRecoveryAttempts = 0;
  faulty.maxRetries = 1;
  const auto bad = daemon.submit(faulty);
  const auto good =
      daemon.submit(makeSpec(service::JobType::kPartition, "crawl"));
  ASSERT_TRUE(bad.accepted);
  ASSERT_TRUE(good.accepted);

  const auto badResult = daemon.wait(bad.jobId);
  EXPECT_EQ(badResult.state, service::JobState::kFailed);
  EXPECT_EQ(badResult.error.kind,
            service::JobErrorKind::kResilienceExhausted);
  EXPECT_FALSE(badResult.error.message.empty());
  EXPECT_EQ(badResult.runs, 2u);  // first run + one retry

  // Isolation: the sibling job and the daemon are untouched.
  EXPECT_EQ(daemon.wait(good.jobId).state, service::JobState::kSucceeded);
  EXPECT_EQ(daemon.stats().retries, 1u);
}

TEST(ServiceDaemonTest, TransientFaultRecoversInsideTheLadder) {
  auto engine = makeEngine();
  service::Daemon daemon(engine);
  auto spec = makeSpec(service::JobType::kPartition, "web", "CVC");
  spec.faultPlan = transientCrashPlan();
  spec.maxRecoveryAttempts = 4;
  const auto outcome = daemon.submit(spec);
  ASSERT_TRUE(outcome.accepted);
  const auto result = daemon.wait(outcome.jobId);
  EXPECT_EQ(result.state, service::JobState::kSucceeded)
      << result.error.message;
}

TEST(ServiceDaemonTest, BurstFloodsAdmissionDeterministically) {
  auto engine = makeEngine();
  service::DaemonOptions options;
  options.maxQueueDepth = 0;  // every admission decision is a shed
  options.faultPlan.bursts.push_back({/*submitIndex=*/0, /*extraCopies=*/3});
  service::Daemon daemon(engine, options);
  const auto outcome = daemon.submit(makeSpec());
  EXPECT_FALSE(outcome.accepted);
  EXPECT_EQ(outcome.error.kind, service::JobErrorKind::kShedQueueFull);
  const auto stats = daemon.stats();
  EXPECT_EQ(stats.submitted, 4u);  // the submit plus three burst copies
  EXPECT_EQ(stats.shed, 4u);
}

TEST(ServiceDaemonTest, DisconnectedClientDoesNotWedgeAWorker) {
  auto engine = makeEngine();
  service::DaemonOptions options;
  options.workers = 1;
  options.faultPlan.disconnects.push_back({/*submitIndex=*/0});
  service::Daemon daemon(engine, options);
  const auto ghost = daemon.submit(makeSpec());
  ASSERT_TRUE(ghost.accepted);
  const auto live = daemon.submit(makeSpec(service::JobType::kBfs));
  ASSERT_TRUE(live.accepted);
  EXPECT_EQ(daemon.wait(ghost.jobId).state, service::JobState::kCancelled);
  EXPECT_EQ(daemon.wait(live.jobId).state, service::JobState::kSucceeded);
}

TEST(ServiceDaemonTest, InjectedMalformedRequestsBounceStructurally) {
  auto engine = makeEngine();
  service::DaemonOptions options;
  options.faultPlan.malformed.push_back(
      {/*submitIndex=*/0, service::MalformKind::kUnknownGraph});
  options.faultPlan.malformed.push_back(
      {/*submitIndex=*/1, service::MalformKind::kZeroHosts});
  service::Daemon daemon(engine, options);
  const auto first = daemon.submit(makeSpec());
  EXPECT_FALSE(first.accepted);
  EXPECT_EQ(first.error.kind, service::JobErrorKind::kUnknownGraph);
  const auto second = daemon.submit(makeSpec());
  EXPECT_FALSE(second.accepted);
  EXPECT_EQ(second.error.kind, service::JobErrorKind::kBadRequest);
  const auto third = daemon.submit(makeSpec());
  ASSERT_TRUE(third.accepted);
  EXPECT_EQ(daemon.wait(third.jobId).state, service::JobState::kSucceeded);
  EXPECT_EQ(daemon.stats().rejected, 2u);
}

// ---------------------------------------------------------------------------
// Bit-identity: the service produces the same partitions as the standalone
// entry point, byte for byte — including after transient-fault recovery.
// ---------------------------------------------------------------------------

TEST(ServiceDaemonTest, PartitionsBitIdenticalToStandaloneRuns) {
  TempDir work;
  auto engine = makeEngine(work.path() + "/scratch");
  service::Daemon daemon(engine);

  struct Case {
    std::string policy;
    bool faulted;
  };
  const Case cases[] = {{"EEC", false}, {"CVC", false}, {"EEC", true}};
  // The faulted EEC run lands on the cache entry of the clean one (same
  // key), so it gets its own host count to force a real faulted pipeline.
  for (const auto& c : cases) {
    auto spec = makeSpec(service::JobType::kPartition, "web", c.policy,
                         c.faulted ? 3u : 4u);
    if (c.faulted) {
      spec.faultPlan = transientCrashPlan();
      spec.maxRecoveryAttempts = 4;
    }
    const auto outcome = daemon.submit(spec);
    ASSERT_TRUE(outcome.accepted) << outcome.error.message;
    const auto result = daemon.wait(outcome.jobId);
    ASSERT_EQ(result.state, service::JobState::kSucceeded)
        << result.error.message;

    const auto cached =
        engine->cachedPartitions("web", c.policy, spec.numHosts);
    ASSERT_NE(cached, nullptr);

    core::PartitionerConfig config;
    config.numHosts = spec.numHosts;
    const auto standalone = core::partitionGraph(
        graph::GraphFile::fromCsr(smallWeightedGraph(13)),
        core::makePolicy(c.policy), config);
    EXPECT_EQ(serializePartitions(*cached),
              serializePartitions(standalone.partitions))
        << c.policy << " hosts=" << spec.numHosts
        << (c.faulted ? " (transient faults)" : " (clean)");
  }
}

// ---------------------------------------------------------------------------
// Chaos soak + crash-consistent restart (the service-label acceptance).
// ---------------------------------------------------------------------------

std::vector<service::JobSpec> soakMix(uint64_t seed, size_t numJobs) {
  const auto policies = core::policyCatalog();
  std::mt19937_64 rng(seed);
  std::vector<service::JobSpec> specs;
  specs.reserve(numJobs);
  for (size_t i = 0; i < numJobs; ++i) {
    service::JobSpec spec;
    spec.type = static_cast<service::JobType>(rng() % 5);
    spec.graphId = rng() % 2 == 0 ? "web" : "crawl";
    spec.policy = policies[rng() % policies.size()];
    spec.numHosts = 4;
    spec.sourceGid = rng() % 64;
    if (rng() % 2 == 0) {
      spec.faultPlan = std::make_shared<const comm::FaultPlan>(
          comm::randomFaultPlan(seed + i, spec.numHosts, 3, 1,
                                /*allowPermanent=*/false));
      spec.maxRecoveryAttempts = 4;
    }
    if (rng() % 4 == 0) {
      spec.memoryFaultPlan = std::make_shared<const support::MemoryFaultPlan>(
          support::randomMemoryFaultPlan(seed + 31 * i, spec.numHosts, 2));
    }
    specs.push_back(std::move(spec));
  }
  return specs;
}

TEST(ServiceSoakTest, FiftyJobChaosSoakSurvivesCombinedFaultPlans) {
  constexpr size_t kJobs = 56;
  TempDir journal;
  obs::ScopedObservability scope;
  support::ScopedMemoryBudget budget(512ull << 20);
  support::ScopedStorageFaults storage(
      support::randomStorageFaultPlan(/*seed=*/91, /*numHosts=*/4, 4));

  auto engine = makeEngine(journal.path() + "/scratch");
  service::DaemonOptions options;
  options.workers = 4;
  options.maxQueueDepth = 16;
  options.journalDir = journal.path() + "/journal";
  options.faultPlan = service::randomServiceFaultPlan(
      /*seed=*/77, kJobs, /*maxBursts=*/2, /*maxDisconnects=*/4,
      /*maxMalformed=*/3);
  service::Daemon daemon(engine, options);

  std::vector<uint64_t> accepted;
  size_t refused = 0;
  for (const auto& spec : soakMix(/*seed=*/101, kJobs)) {
    const auto outcome = daemon.submit(spec);
    if (outcome.accepted) {
      EXPECT_GT(outcome.jobId, 0u);
      accepted.push_back(outcome.jobId);
    } else {
      // Every refusal is structured: a concrete kind plus a message.
      EXPECT_NE(outcome.error.kind, service::JobErrorKind::kNone);
      EXPECT_FALSE(outcome.error.message.empty());
      ++refused;
    }
  }
  size_t succeeded = 0;
  for (uint64_t id : accepted) {
    const auto result = daemon.wait(id);
    EXPECT_TRUE(service::isTerminal(result.state))
        << "job " << id << " stuck in " << jobStateName(result.state);
    if (result.state == service::JobState::kFailed) {
      EXPECT_NE(result.error.kind, service::JobErrorKind::kNone);
      EXPECT_FALSE(result.error.message.empty());
    }
    succeeded += result.state == service::JobState::kSucceeded ? 1 : 0;
  }
  daemon.drain();
  EXPECT_FALSE(daemon.killed());
  EXPECT_GT(succeeded, 0u);
  const auto stats = daemon.stats();
  EXPECT_EQ(stats.accepted, accepted.size());
  EXPECT_GE(stats.submitted, kJobs);  // bursts add copies
  EXPECT_EQ(stats.succeeded + stats.failed + stats.cancelled,
            accepted.size());
}

// Send-aggregation invariance through the whole service stack: the same
// deterministic job mix — transient comm faults included — must produce
// bit-identical accepted-job results whether the engine's networks run the
// default buffered policy, a randomized packet cap, or the receiver-side
// age pull. Stateful policies are excluded for the same reason the fuzz
// suite skips their bit-identity check: their scores synchronize
// asynchronously, so their output is timing-dependent even without faults.
TEST(ServiceSoakTest, AggregationPolicyNeverChangesAcceptedJobResults) {
  constexpr size_t kJobs = 32;
  auto mix = soakMix(/*seed=*/101, kJobs);
  std::vector<service::JobSpec> specs;
  for (auto& spec : mix) {
    const auto policy = core::makePolicy(spec.policy);
    if (policy.master.isPure() && !policy.edge.usesState) {
      // Memory-fault plans ride the chaos soak above; here every
      // divergence must be attributable to the aggregation layer alone.
      spec.memoryFaultPlan = nullptr;
      specs.push_back(std::move(spec));
    }
  }
  ASSERT_GE(specs.size(), 6u);

  struct JobOutcome {
    bool accepted = false;
    service::JobState state = service::JobState::kQueued;
    service::JobErrorKind errorKind = service::JobErrorKind::kNone;
    std::vector<uint64_t> intValues;
    std::vector<double> doubleValues;
    bool operator==(const JobOutcome&) const = default;
  };
  struct SoakOutcome {
    std::vector<JobOutcome> jobs;
    // Serialized partition sets by cache key, for the partition jobs.
    std::map<std::string, std::vector<uint8_t>> partitionSets;
  };

  const auto runSoak = [&](const comm::AggregationPolicy& agg) {
    TempDir root;
    auto engine = makeEngine(root.path() + "/scratch", 16, agg);
    service::DaemonOptions options;
    options.workers = 1;  // serial execution: cache hits in program order
    options.maxQueueDepth = 256;
    options.journalDir = root.path() + "/journal";
    service::Daemon daemon(engine, options);
    SoakOutcome out;
    for (const auto& spec : specs) {
      const auto submitted = daemon.submit(spec);
      JobOutcome job;
      job.accepted = submitted.accepted;
      if (submitted.accepted) {
        const auto result = daemon.wait(submitted.jobId);
        job.state = result.state;
        job.errorKind = result.error.kind;
        job.intValues = result.intValues;
        job.doubleValues = result.doubleValues;
        if (spec.type == service::JobType::kPartition &&
            result.state == service::JobState::kSucceeded) {
          const auto cached = engine->cachedPartitions(spec.graphId,
                                                       spec.policy,
                                                       spec.numHosts);
          if (cached != nullptr) {
            out.partitionSets[spec.graphId + "/" + spec.policy] =
                serializePartitions(*cached);
          }
        }
      }
      out.jobs.push_back(std::move(job));
    }
    daemon.drain();
    return out;
  };

  const SoakOutcome baseline = runSoak(comm::AggregationPolicy{});
  std::mt19937_64 rng(4242);
  for (int round = 0; round < 3; ++round) {
    comm::AggregationPolicy agg;
    agg.packetBytes = 64 + rng() % (1 << 14);
    agg.maxAgeSeconds = round == 2 ? 0.01 : 0.0;
    SCOPED_TRACE("packetBytes=" + std::to_string(agg.packetBytes) +
                 " maxAgeSeconds=" + std::to_string(agg.maxAgeSeconds));
    const SoakOutcome probe = runSoak(agg);
    ASSERT_EQ(probe.jobs.size(), baseline.jobs.size());
    for (size_t i = 0; i < baseline.jobs.size(); ++i) {
      EXPECT_TRUE(probe.jobs[i] == baseline.jobs[i]) << "job " << i;
    }
    EXPECT_EQ(probe.partitionSets, baseline.partitionSets);
  }
}

TEST(ServiceSoakTest, KillMidSoakThenRestartLosesAndDuplicatesNothing) {
  constexpr size_t kJobs = 50;
  TempDir root;
  const std::string journalDir = root.path() + "/journal";

  auto engine = makeEngine(root.path() + "/scratch");
  service::DaemonOptions options;
  options.workers = 3;
  options.maxQueueDepth = 256;  // accept everything: the kill is the fault
  options.journalDir = journalDir;
  options.faultPlan.killPoints.push_back(
      {/*afterJournalRecords=*/kJobs + 10});

  std::map<uint64_t, service::JobState> preKill;
  std::set<uint64_t> accepted;
  {
    service::Daemon daemon(engine, options);
    for (const auto& spec : soakMix(/*seed=*/55, kJobs)) {
      const auto outcome = daemon.submit(spec);
      if (outcome.accepted) {
        accepted.insert(outcome.jobId);
      } else {
        // The kill can land mid-submission (workers journal concurrently);
        // submits after it shed with the structured draining error.
        EXPECT_EQ(outcome.error.kind, service::JobErrorKind::kShedDraining)
            << outcome.error.message;
      }
    }
    for (uint64_t id : accepted) {
      // Returns on terminal OR on kill; record what was terminal pre-kill.
      const auto result = daemon.wait(id);
      if (service::isTerminal(result.state)) {
        preKill[id] = result.state;
      }
    }
    EXPECT_TRUE(daemon.killed());
    // The kill point sits far enough in for a healthy accepted prefix.
    ASSERT_GE(accepted.size(), 10u);
  }

  // Restart on the same journal: every accepted job was journaled durably
  // before its ack, so every one must come back — exactly once.
  service::DaemonOptions restartOptions;
  restartOptions.workers = 3;
  restartOptions.maxQueueDepth = 256;
  restartOptions.journalDir = journalDir;
  service::Daemon restarted(engine, restartOptions);

  const auto& recovered = restarted.recoveredJobIds();
  std::set<uint64_t> unique(recovered.begin(), recovered.end());
  EXPECT_EQ(unique.size(), recovered.size()) << "duplicated recovered ids";
  // Exactly the accepted set comes back: acceptance was journaled durably
  // before each ack, and nothing else was ever promised.
  EXPECT_EQ(unique, accepted) << "journaled jobs lost or invented";
  const auto stats = restarted.stats();
  EXPECT_EQ(stats.recoveredRequeued + stats.recoveredTerminal,
            accepted.size());
  EXPECT_GT(stats.recoveredRequeued, 0u)
      << "kill point fired too late to leave unfinished jobs";

  for (uint64_t id : recovered) {
    const auto result = restarted.wait(id);
    EXPECT_TRUE(service::isTerminal(result.state));
    const auto it = preKill.find(id);
    if (it != preKill.end() && result.recovered) {
      // Terminal before the kill and reconstructed from the journal: the
      // restarted daemon reports the same outcome without re-running it.
      EXPECT_EQ(result.state, it->second);
    }
    if (result.state == service::JobState::kFailed) {
      EXPECT_NE(result.error.kind, service::JobErrorKind::kNone);
    }
  }
  restarted.drain();
  EXPECT_FALSE(restarted.killed());
}

}  // namespace
}  // namespace cusp
