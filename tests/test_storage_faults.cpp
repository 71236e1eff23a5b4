// Storage-fault and straggler resilience: the injectable storage seam
// (support/storage.h), the hardened checkpoint store built on it
// (quarantine, durable commit, ENOSPC continuation), and the deadline-
// driven straggler machinery (comm::StragglerPolicy/StragglerMonitor).
//
// The two end-to-end invariants, mirroring the chaos pipeline suite:
//  * storage faults may cost checkpoints, never correctness — runs under
//    torn/failed/unrenamed checkpoint writes stay bit-identical to clean
//    runs;
//  * a pathologically slow host is evicted through the hard straggler
//    deadline into the same degraded paths a permanent crash takes, and
//    the final analytics output still matches the single-image reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <system_error>
#include <vector>

#include <unistd.h>

#include "analytics/algorithms.h"
#include "analytics/reference.h"
#include "analytics/resilient.h"
#include "comm/fault.h"
#include "core/checkpoint.h"
#include "core/dist_graph.h"
#include "core/partitioner.h"
#include "core/policies.h"
#include "graph/generators.h"
#include "graph/graph_file.h"
#include "obs/obs.h"
#include "support/serialize.h"
#include "support/storage.h"

namespace cusp {
namespace {

using support::ScopedStorageFaults;
using support::StorageError;
using support::StorageFault;
using support::StorageFaultKind;
using support::StorageFaultPlan;

class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/cusp_storage_XXXXXX";
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
  std::string file(const std::string& name) const {
    return path_ + "/" + name;
  }

 private:
  std::string path_;
};

std::vector<uint8_t> testBytes(size_t n) {
  std::vector<uint8_t> bytes(n);
  for (size_t i = 0; i < n; ++i) {
    bytes[i] = static_cast<uint8_t>((i * 131) ^ (i >> 3));
  }
  return bytes;
}

StorageFaultPlan onePlan(StorageFaultKind kind, std::string substring = "",
                         uint64_t occurrence = 0, uint32_t repeat = 1,
                         uint64_t tornBytes = 0) {
  StorageFaultPlan plan;
  plan.faults.push_back(
      StorageFault{kind, std::move(substring), occurrence, repeat, tornBytes});
  return plan;
}

// ---------------------------------------------------------------------------
// Storage seam: atomicWriteFile / readFileBytes under every fault kind.
// ---------------------------------------------------------------------------

TEST(StorageSeamTest, AtomicWriteReadRoundTripLeavesNoTmp) {
  TempDir dir;
  const auto bytes = testBytes(1000);
  const std::string path = dir.file("round.bin");
  support::atomicWriteFile(path, bytes);
  const auto back = support::readFileBytes(path);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, bytes);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  EXPECT_FALSE(support::readFileBytes(dir.file("absent")).has_value());
}

TEST(StorageSeamTest, WriteFailThrowsAndLeavesTornTmpDebris) {
  TempDir dir;
  const auto bytes = testBytes(800);
  const std::string path = dir.file("w.bin");
  ScopedStorageFaults scope(onePlan(StorageFaultKind::kWriteFail));
  try {
    support::atomicWriteFile(path, bytes);
    FAIL() << "expected StorageError";
  } catch (const StorageError& e) {
    EXPECT_EQ(e.kind, StorageError::Kind::kWriteFailed);
    EXPECT_EQ(e.path, path);
  }
  // Crash debris: the final file never appeared, a torn tmp did.
  EXPECT_FALSE(std::filesystem::exists(path));
  ASSERT_TRUE(std::filesystem::exists(path + ".tmp"));
  EXPECT_LT(std::filesystem::file_size(path + ".tmp"), bytes.size());
  EXPECT_EQ(scope.stats().writeFailures, 1u);
}

TEST(StorageSeamTest, EnospcThrowsTheNoSpaceKind) {
  TempDir dir;
  ScopedStorageFaults scope(onePlan(StorageFaultKind::kEnospc));
  try {
    support::atomicWriteFile(dir.file("full.bin"), testBytes(64));
    FAIL() << "expected StorageError";
  } catch (const StorageError& e) {
    EXPECT_EQ(e.kind, StorageError::Kind::kNoSpace);
  }
  EXPECT_EQ(scope.stats().enospcFailures, 1u);
}

TEST(StorageSeamTest, TornWriteCommitsSilentlyWithTruncatedImage) {
  TempDir dir;
  const std::string path = dir.file("torn.bin");
  ScopedStorageFaults scope(
      onePlan(StorageFaultKind::kTornWrite, "", 0, 1, /*tornBytes=*/17));
  support::atomicWriteFile(path, testBytes(500));  // "succeeds"
  ASSERT_TRUE(std::filesystem::exists(path));
  EXPECT_EQ(std::filesystem::file_size(path), 17u);
  EXPECT_EQ(scope.stats().tornWrites, 1u);
}

TEST(StorageSeamTest, RenameFailLeavesFullyWrittenOrphanTmp) {
  TempDir dir;
  const auto bytes = testBytes(300);
  const std::string path = dir.file("r.bin");
  ScopedStorageFaults scope(onePlan(StorageFaultKind::kRenameFail));
  try {
    support::atomicWriteFile(path, bytes);
    FAIL() << "expected StorageError";
  } catch (const StorageError& e) {
    EXPECT_EQ(e.kind, StorageError::Kind::kRenameFailed);
  }
  // The crash-between-write-and-rename shape: durable tmp, no final file.
  EXPECT_FALSE(std::filesystem::exists(path));
  ASSERT_TRUE(std::filesystem::exists(path + ".tmp"));
  EXPECT_EQ(std::filesystem::file_size(path + ".tmp"), bytes.size());
  EXPECT_EQ(scope.stats().renameFailures, 1u);
}

TEST(StorageSeamTest, ReadFailThrowsAndBitRotFlipsExactlyOneByte) {
  TempDir dir;
  const auto bytes = testBytes(256);
  const std::string path = dir.file("rot.bin");
  support::atomicWriteFile(path, bytes);
  {
    ScopedStorageFaults scope(onePlan(StorageFaultKind::kReadFail));
    EXPECT_THROW(support::readFileBytes(path), StorageError);
    EXPECT_EQ(scope.stats().readFailures, 1u);
  }
  {
    ScopedStorageFaults scope(onePlan(StorageFaultKind::kBitRot));
    const auto rotten = support::readFileBytes(path);
    ASSERT_TRUE(rotten.has_value());
    ASSERT_EQ(rotten->size(), bytes.size());
    size_t diffs = 0;
    for (size_t i = 0; i < bytes.size(); ++i) {
      diffs += (*rotten)[i] != bytes[i] ? 1 : 0;
    }
    EXPECT_EQ(diffs, 1u) << "bit rot must flip exactly one byte";
    EXPECT_EQ(scope.stats().bitRotsInjected, 1u);
    // The rot was injected at read time; the file itself is pristine.
    EXPECT_EQ(*support::readFileBytes(path), bytes);
  }
}

TEST(StorageSeamTest, OccurrenceAndRepeatSelectTheMatchingOperations) {
  TempDir dir;
  ScopedStorageFaults scope(
      onePlan(StorageFaultKind::kWriteFail, "", /*occurrence=*/1,
              /*repeat=*/2));
  const auto bytes = testBytes(32);
  EXPECT_NO_THROW(support::atomicWriteFile(dir.file("a"), bytes));  // op 0
  EXPECT_THROW(support::atomicWriteFile(dir.file("b"), bytes),
               StorageError);  // op 1: due
  EXPECT_THROW(support::atomicWriteFile(dir.file("c"), bytes),
               StorageError);  // op 2: repeat
  EXPECT_NO_THROW(support::atomicWriteFile(dir.file("d"), bytes));  // spent
  EXPECT_EQ(scope.stats().writeFailures, 2u);
}

TEST(StorageSeamTest, PathSubstringPinsFaultsToMatchingFiles) {
  TempDir dir;
  ScopedStorageFaults scope(onePlan(StorageFaultKind::kWriteFail, "h1.p"));
  const auto bytes = testBytes(32);
  EXPECT_NO_THROW(support::atomicWriteFile(dir.file("h0.p3.ckpt"), bytes));
  EXPECT_NO_THROW(support::atomicWriteFile(dir.file("h2.p3.ckpt"), bytes));
  EXPECT_THROW(support::atomicWriteFile(dir.file("h1.p3.ckpt"), bytes),
               StorageError);
}

TEST(StorageSeamTest, ScopedAttachNestsAndRestores) {
  EXPECT_EQ(support::storageFaults(), nullptr);
  {
    ScopedStorageFaults outer(onePlan(StorageFaultKind::kReadFail));
    const auto outerInjector = support::storageFaults();
    EXPECT_EQ(outerInjector, outer.injector());
    {
      ScopedStorageFaults inner(onePlan(StorageFaultKind::kBitRot));
      EXPECT_EQ(support::storageFaults(), inner.injector());
    }
    EXPECT_EQ(support::storageFaults(), outerInjector);
  }
  EXPECT_EQ(support::storageFaults(), nullptr);
}

// ---------------------------------------------------------------------------
// Hardened checkpoint store: quarantine, crash debris, read fallback.
// ---------------------------------------------------------------------------

support::SendBuffer somePayload() {
  support::SendBuffer payload;
  std::vector<uint64_t> values{7, 11, 13, 17, 19, 23};
  support::serialize(payload, values);
  return payload;
}

TEST(CheckpointStorageTest, CorruptCheckpointIsQuarantinedNotTrusted) {
  TempDir dir;
  obs::ScopedObservability scope;
  core::saveCheckpoint(dir.path(), 0, 4, 3, somePayload());
  const std::string path = core::checkpointPath(dir.path(), 0, 3);
  ASSERT_TRUE(std::filesystem::exists(path));
  {
    // Flip a payload byte on disk: header identity still matches, CRC no
    // longer does.
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    const auto size =
        static_cast<std::streamoff>(std::filesystem::file_size(path));
    f.seekg(size - 24);
    char byte = 0;
    f.get(byte);
    byte = static_cast<char>(byte ^ 0x5A);
    f.seekp(size - 24);
    f.put(byte);
  }
  EXPECT_FALSE(core::loadCheckpoint(dir.path(), 0, 4, 3).has_value());
  // Quarantined, not deleted: renamed aside for post-mortems so it cannot
  // keep shadowing the escalation ladder.
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_TRUE(std::filesystem::exists(path + ".quarantined"));
  const auto snap = scope.sink().metrics->snapshot();
  EXPECT_GE(snap.counterValue("cusp.checkpoint.crc_failures"), 1u);
  EXPECT_GE(snap.counterValue("cusp.checkpoint.quarantined"), 1u);
}

TEST(CheckpointStorageTest, TornCheckpointWriteIsInvisibleToLoad) {
  TempDir dir;
  ScopedStorageFaults scope(
      onePlan(StorageFaultKind::kTornWrite, ".ckpt", 0, 1, /*tornBytes=*/9));
  core::saveCheckpoint(dir.path(), 2, 4, 1, somePayload());  // "succeeds"
  EXPECT_EQ(scope.stats().tornWrites, 1u);
  // The acknowledged-but-lost write can never be mistaken for a
  // checkpoint.
  EXPECT_FALSE(core::loadCheckpoint(dir.path(), 2, 4, 1).has_value());
  EXPECT_EQ(core::latestValidCheckpoint(dir.path(), 2, 4, 5), 0u);
}

TEST(CheckpointStorageTest, CrashBetweenWriteAndRenameIsSweptAndRetryable) {
  TempDir dir;
  const auto payload = somePayload();
  {
    ScopedStorageFaults scope(onePlan(StorageFaultKind::kRenameFail, ".ckpt"));
    EXPECT_THROW(core::saveCheckpoint(dir.path(), 1, 4, 2, payload),
                 StorageError);
  }
  const std::string path = core::checkpointPath(dir.path(), 1, 2);
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_TRUE(std::filesystem::exists(path + ".tmp"));
  EXPECT_FALSE(core::loadCheckpoint(dir.path(), 1, 4, 2).has_value());
  // The driver's start-of-run sweep collects the orphan; a retried save
  // then commits normally.
  EXPECT_EQ(core::garbageCollectCheckpointTmp(dir.path()), 1u);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  core::saveCheckpoint(dir.path(), 1, 4, 2, payload);
  EXPECT_TRUE(core::loadCheckpoint(dir.path(), 1, 4, 2).has_value());
}

TEST(CheckpointStorageTest, GcKeepsFreshQuarantinesCollectsStaleOnes) {
  TempDir dir;
  // A fresh quarantine (mtime = now) survives the sweep at the default
  // 24h grace; with a zero grace the same file is collected. Tmp debris is
  // swept unconditionally either way.
  std::ofstream(dir.file("h0.p3.ckpt.quarantined")) << "corrupt image";
  std::ofstream(dir.file("h1.p2.ckpt.tmp")) << "orphaned commit";
  EXPECT_EQ(core::garbageCollectCheckpointTmp(dir.path()), 1u);
  EXPECT_TRUE(std::filesystem::exists(dir.file("h0.p3.ckpt.quarantined")));
  EXPECT_FALSE(std::filesystem::exists(dir.file("h1.p2.ckpt.tmp")));
  EXPECT_EQ(core::garbageCollectCheckpointTmp(dir.path(),
                                              /*quarantineAgeSeconds=*/0.0),
            1u);
  EXPECT_FALSE(std::filesystem::exists(dir.file("h0.p3.ckpt.quarantined")));
}

TEST(CheckpointStorageTest, DriverGcAgeConfigControlsQuarantineSweep) {
  // The forensic-retention window is operator-configurable
  // (ResilienceConfig::checkpointGcAgeSeconds, --checkpoint-gc-age): the
  // driver's startup sweep keeps a fresh quarantine under the default 24h
  // grace but collects it when the window is tightened to zero.
  const graph::CsrGraph g = graph::generateErdosRenyi(120, 500, 3);
  const graph::GraphFile file = graph::GraphFile::fromCsr(g);
  TempDir dir;
  const std::string quarantined = dir.file("h0.p4.ckpt.quarantined");
  std::ofstream(quarantined) << "corrupt image";

  core::PartitionerConfig config;
  config.numHosts = 2;
  config.resilience.checkpointDir = dir.path();
  config.resilience.enableCheckpoints = true;
  core::partitionGraphResilient(file, core::makePolicy("EEC"), config);
  EXPECT_TRUE(std::filesystem::exists(quarantined));

  config.resilience.checkpointGcAgeSeconds = 0.0;
  core::partitionGraphResilient(file, core::makePolicy("EEC"), config);
  EXPECT_FALSE(std::filesystem::exists(quarantined));
}

TEST(CheckpointStorageTest, ReadFailureFallsThroughToBuddyReplica) {
  TempDir dir;
  obs::ScopedObservability obsScope;
  const auto payload = somePayload();
  core::saveCheckpoint(dir.path(), 0, 4, 3, payload);
  core::saveCheckpointReplica(dir.path(), 0, 4, 3, payload);
  const auto clean = core::loadCheckpoint(dir.path(), 0, 4, 3);
  ASSERT_TRUE(clean.has_value());

  // Every read of host 0's primary file dies with EIO; the escalation
  // ladder's next rung (the buddy replica at host 1) answers instead.
  ScopedStorageFaults scope(
      onePlan(StorageFaultKind::kReadFail, "h0.p3.ckpt", 0, /*repeat=*/100));
  EXPECT_FALSE(core::loadCheckpoint(dir.path(), 0, 4, 3).has_value());
  const auto viaReplica = core::loadCheckpointOrReplica(dir.path(), 0, 4, 3);
  ASSERT_TRUE(viaReplica.has_value());
  EXPECT_EQ(*viaReplica, *clean);
  const auto snap = obsScope.sink().metrics->snapshot();
  EXPECT_GE(snap.counterValue("cusp.checkpoint.read_failures"), 1u);
}

// ---------------------------------------------------------------------------
// End-to-end: resilient partitioning under storage faults.
// ---------------------------------------------------------------------------

core::PartitionerConfig resilientConfig(const std::string& dir,
                                        uint32_t hosts) {
  core::PartitionerConfig config;
  config.numHosts = hosts;
  config.resilience.checkpointDir = dir;
  config.resilience.enableCheckpoints = true;
  config.resilience.recvTimeoutSeconds = 20.0;
  config.resilience.maxRecoveryAttempts = 4;
  return config;
}

void expectBitIdentical(const core::PartitionResult& baseline,
                        const core::PartitionResult& result) {
  ASSERT_EQ(result.partitions.size(), baseline.partitions.size());
  for (size_t h = 0; h < baseline.partitions.size(); ++h) {
    support::SendBuffer a;
    support::SendBuffer b;
    core::serializeDistGraph(a, baseline.partitions[h]);
    core::serializeDistGraph(b, result.partitions[h]);
    EXPECT_EQ(a.release(), b.release()) << "host " << h;
  }
}

TEST(StorageChaosTest, RenameCrashSweepOverCheckpointWritesStaysExact) {
  const graph::CsrGraph g = graph::generateErdosRenyi(250, 1100, 29);
  const graph::GraphFile file = graph::GraphFile::fromCsr(g);
  const auto policy = core::makePolicy("EEC");
  core::PartitionerConfig clean;
  clean.numHosts = 4;
  const auto baseline = core::partitionGraph(file, policy, clean);

  // Sweep the crash-between-write-and-rename fault over different hosts'
  // checkpoint streams; a transient crash forces the restore path to
  // actually consume what survived.
  for (const char* substring : {"h0.p", "h1.p", "h2.p"}) {
    SCOPED_TRACE(std::string("substring=") + substring);
    TempDir dir;
    core::PartitionerConfig config = resilientConfig(dir.path(), 4);
    auto plan = std::make_shared<comm::FaultPlan>();
    plan->crashes.push_back(
        {/*host=*/1, /*phase=*/4, /*opsIntoPhase=*/0, /*permanent=*/false});
    config.resilience.faultPlan = plan;

    StorageFaultPlan storagePlan;
    storagePlan.faults.push_back(StorageFault{StorageFaultKind::kRenameFail,
                                              substring, /*occurrence=*/0,
                                              /*repeat=*/2, 0});
    ScopedStorageFaults storage(storagePlan);

    core::RecoveryReport report;
    const auto result =
        core::partitionGraphResilient(file, policy, config, &report);
    expectBitIdentical(baseline, result);
    EXPECT_GE(report.attempts, 2u) << "the crash must have fired";
    EXPECT_GE(report.checkpointWriteFailures, 1u);
    EXPECT_FALSE(report.checkpointingDisabledByEnospc);
    EXPECT_GE(storage.stats().renameFailures, 1u);
  }
}

TEST(StorageChaosTest, PersistentEnospcDisablesCheckpointingAndStaysExact) {
  const graph::CsrGraph g = graph::generateErdosRenyi(250, 1100, 29);
  const graph::GraphFile file = graph::GraphFile::fromCsr(g);
  const auto policy = core::makePolicy("EEC");
  core::PartitionerConfig clean;
  clean.numHosts = 4;
  const auto baseline = core::partitionGraph(file, policy, clean);

  TempDir dir;
  obs::ScopedObservability obsScope;
  core::PartitionerConfig config = resilientConfig(dir.path(), 4);
  auto plan = std::make_shared<comm::FaultPlan>();
  plan->crashes.push_back(
      {/*host=*/2, /*phase=*/3, /*opsIntoPhase=*/0, /*permanent=*/false});
  config.resilience.faultPlan = plan;

  // The disk fills a few checkpoints into the run and stays full.
  ScopedStorageFaults storage(onePlan(StorageFaultKind::kEnospc, ".ckpt",
                                      /*occurrence=*/3, /*repeat=*/100000));

  core::RecoveryReport report;
  const auto result =
      core::partitionGraphResilient(file, policy, config, &report);
  expectBitIdentical(baseline, result);
  EXPECT_GE(report.attempts, 2u);
  EXPECT_TRUE(report.checkpointingDisabledByEnospc);
  EXPECT_GE(report.checkpointWriteFailures, 1u);
  const auto snap = obsScope.sink().metrics->snapshot();
  EXPECT_GE(snap.counterValue("cusp.checkpoint.disabled_enospc"), 1u);
  // The latch stopped the bleeding: once disabled, no further write even
  // reaches the injector, so failures stay far below the plan's budget.
  EXPECT_LT(storage.stats().enospcFailures, 20u);
}

TEST(StorageChaosTest, EnospcMidAnalyticsRunContinuesAndMatchesReference) {
  const graph::CsrGraph g = graph::generateErdosRenyi(220, 1000, 41);
  const graph::GraphFile file = graph::GraphFile::fromCsr(g);
  core::PartitionerConfig pc;
  pc.numHosts = 4;
  const auto parts =
      core::partitionGraph(file, core::makePolicy("EEC"), pc);
  const uint64_t source = analytics::maxOutDegreeNode(g);

  TempDir dir;
  analytics::ResilienceOptions options;
  options.checkpointDir = dir.path();
  options.enableCheckpoints = true;
  options.checkpointInterval = 1;
  options.recvTimeoutSeconds = 20.0;
  auto plan = std::make_shared<comm::FaultPlan>();
  plan->crashes.push_back(
      {/*host=*/1, /*phase=*/0, /*opsIntoPhase=*/40, /*permanent=*/false});
  options.faultPlan = plan;

  ScopedStorageFaults storage(onePlan(StorageFaultKind::kEnospc, ".ckpt",
                                      /*occurrence=*/4, /*repeat=*/100000));
  analytics::ResilienceReport report;
  const auto got =
      analytics::runBfsResilient(parts.partitions, source, options, &report);
  EXPECT_EQ(got, analytics::bfsReference(g, source));
  EXPECT_TRUE(report.checkpointingDisabledByEnospc);
  EXPECT_GE(report.checkpointWriteFailures, 1u);
}

// One resilient CVC run on 2 hosts whose host 1 crashes (transiently) at
// phase 3 while host 0's phase-2 checkpoint fails its `readFailAt`-th read.
struct ResumeProbeRun {
  core::RecoveryReport report;
  uint64_t filesWritten = 0;
  std::map<uint32_t, uint64_t> restores;  // phase -> host restores of it
};

ResumeProbeRun runResumeProbe(uint64_t readFailAt, bool withReport) {
  const graph::CsrGraph g = graph::generateErdosRenyi(220, 900, 20);
  const graph::GraphFile file = graph::GraphFile::fromCsr(g);
  TempDir dir;
  core::PartitionerConfig config = resilientConfig(dir.path(), 2);
  auto plan = std::make_shared<comm::FaultPlan>();
  plan->crashes.push_back(
      {/*host=*/1, /*phase=*/3, /*opsIntoPhase=*/0, /*permanent=*/false});
  config.resilience.faultPlan = plan;
  ScopedStorageFaults storage(
      onePlan(StorageFaultKind::kReadFail, "h0.p2.ckpt", readFailAt));
  obs::ScopedObservability obsScope;

  ResumeProbeRun run;
  core::partitionGraphResilient(file, core::makePolicy("CVC"), config,
                                withReport ? &run.report : nullptr);
  const auto snap = obsScope.sink().metrics->snapshot();
  run.filesWritten = snap.counterValue("cusp.checkpoint.files_written");
  for (uint32_t phase = 1; phase <= 5; ++phase) {
    if (const uint64_t n = snap.counterValue(
            "cusp.partitioner.checkpoints_restored",
            {{"phase", std::to_string(phase)}})) {
      run.restores[phase] = n;
    }
  }
  return run;
}

TEST(StorageChaosTest, RecoveryReportObservesTheResumeAgreementOnly) {
  // The report must describe the hosts' own resume agreement without
  // taking part in it: asking for a report may not spend the storage
  // fault's read occurrences, and the reported phase is the one restored.
  for (uint64_t readFailAt : {1u, 2u}) {
    SCOPED_TRACE("read fault at occurrence " + std::to_string(readFailAt));
    const ResumeProbeRun plain = runResumeProbe(readFailAt, false);
    const ResumeProbeRun reported = runResumeProbe(readFailAt, true);
    EXPECT_GE(reported.report.attempts, 2u) << "the crash must have fired";
    EXPECT_EQ(reported.restores, plain.restores);
    EXPECT_EQ(reported.filesWritten, plain.filesWritten);
    // Every restoring attempt settled on the same phase, which the report
    // names.
    ASSERT_EQ(reported.restores.size(), 1u);
    EXPECT_EQ(reported.report.resumedFromPhase,
              reported.restores.begin()->first);
  }
}

// ---------------------------------------------------------------------------
// Straggler deadlines: soft blame reports, hard-deadline eviction.
// ---------------------------------------------------------------------------

TEST(StragglerTest, SoftDeadlineEmitsBlameReportsWithoutEviction) {
  const graph::CsrGraph g = graph::generateErdosRenyi(120, 550, 37);
  const graph::GraphFile file = graph::GraphFile::fromCsr(g);
  core::PartitionerConfig pc;
  pc.numHosts = 4;
  const auto parts =
      core::partitionGraph(file, core::makePolicy("EEC"), pc);
  const uint64_t source = analytics::maxOutDegreeNode(g);

  obs::ScopedObservability obsScope;
  analytics::ResilienceOptions options;
  options.recvTimeoutSeconds = 30.0;
  auto plan = std::make_shared<comm::FaultPlan>();
  // Host 1 sustains a ~500x slowdown: 50 ms of pacing per network op.
  plan->slowdowns.push_back(
      comm::HostSlowdown{/*host=*/1, /*factor=*/501.0, /*opMicros=*/100,
                         /*fromPhase=*/0});
  options.faultPlan = plan;
  options.straggler.softDeadlineSeconds = 0.01;  // hard deadline off

  analytics::ResilienceReport report;
  const auto got =
      analytics::runBfsResilient(parts.partitions, source, options, &report);
  EXPECT_EQ(got, analytics::bfsReference(g, source));
  EXPECT_TRUE(report.evictions.empty()) << "soft deadline never evicts";
  EXPECT_EQ(report.attempts, 1u);
  EXPECT_GE(report.stragglerSoftReports, 1u);
  const auto snap = obsScope.sink().metrics->snapshot();
  EXPECT_GE(snap.counterValue("cusp.straggler.soft_reports",
                              {{"host", "1"}}),
            1u);
  EXPECT_EQ(snap.counterValue("cusp.straggler.hard_evictions",
                              {{"host", "1"}}),
            0u);
}

TEST(StragglerTest, HardDeadlineEvictsPathologicalStragglerFromAnalytics) {
  const graph::CsrGraph g = graph::generateErdosRenyi(150, 700, 43);
  const graph::GraphFile file = graph::GraphFile::fromCsr(g);
  core::PartitionerConfig pc;
  pc.numHosts = 4;
  const auto parts =
      core::partitionGraph(file, core::makePolicy("EEC"), pc);
  const uint64_t source = analytics::maxOutDegreeNode(g);
  const auto expected = analytics::bfsReference(g, source);
  uint64_t maxLevel = 0;
  for (uint64_t d : expected) {
    if (d != UINT64_MAX) {
      maxLevel = std::max(maxLevel, d);
    }
  }

  TempDir dir;
  obs::ScopedObservability obsScope;
  analytics::ResilienceOptions options;
  options.checkpointDir = dir.path();
  options.enableCheckpoints = true;
  options.checkpointInterval = 1;
  options.degradedMode = true;
  options.recvTimeoutSeconds = 60.0;
  auto plan = std::make_shared<comm::FaultPlan>();
  // Host 2 paces every network op by ~100 ms — a sustained ~1000x
  // slowdown, far beyond anything the healthy peers accrue.
  plan->slowdowns.push_back(
      comm::HostSlowdown{/*host=*/2, /*factor=*/1001.0, /*opMicros=*/100,
                         /*fromPhase=*/0});
  options.faultPlan = plan;
  options.straggler.softDeadlineSeconds = 0.02;
  options.straggler.hardDeadlineSeconds = 1.2;
  options.straggler.hardDeadlineMedianFactor = 4.0;

  analytics::ResilienceReport report;
  const auto got =
      analytics::runBfsResilient(parts.partitions, source, options, &report);
  EXPECT_EQ(got, expected) << "eviction must cost time, never correctness";
  ASSERT_EQ(report.evictions, std::vector<comm::HostId>{2});
  EXPECT_EQ(report.finalAliveHosts, 3u);
  ASSERT_FALSE(report.failureKinds.empty());
  EXPECT_EQ(report.failureKinds[0], "StragglerDeadline");
  // Condemnation is bounded: the laggard is thrown out on the attempt its
  // blame crosses the deadline, and the final attempt finishes within the
  // algorithm's own superstep budget.
  EXPECT_LE(report.failures.size(), 2u);
  EXPECT_LE(report.supersteps, static_cast<uint32_t>(maxLevel) + 3u);
  EXPECT_GE(report.stragglerSoftReports, 1u);
  const auto snap = obsScope.sink().metrics->snapshot();
  EXPECT_GE(snap.counterValue("cusp.straggler.hard_evictions",
                              {{"host", "2"}}),
            1u);
  EXPECT_GE(snap.counterValue("cusp.straggler.soft_reports",
                              {{"host", "2"}}),
            1u);
}

TEST(StragglerTest, HardDeadlineEvictsStragglerFromPartitioning) {
  const graph::CsrGraph g = graph::generateErdosRenyi(250, 1100, 53);
  const graph::GraphFile file = graph::GraphFile::fromCsr(g);
  const auto policy = core::makePolicy("EEC");

  TempDir dir;
  core::PartitionerConfig config = resilientConfig(dir.path(), 4);
  config.resilience.degradedMode = true;
  auto plan = std::make_shared<comm::FaultPlan>();
  // Host 3 paces every op by ~150 ms once master assignment starts.
  plan->slowdowns.push_back(
      comm::HostSlowdown{/*host=*/3, /*factor=*/1501.0, /*opMicros=*/100,
                         /*fromPhase=*/2});
  config.resilience.faultPlan = plan;
  config.resilience.straggler.softDeadlineSeconds = 0.02;
  config.resilience.straggler.hardDeadlineSeconds = 0.5;

  core::RecoveryReport report;
  const auto result =
      core::partitionGraphResilient(file, policy, config, &report);
  // The laggard was evicted and the survivors re-partitioned (Path B: no
  // complete phase-5 set existed yet when the deadline fired).
  ASSERT_EQ(result.partitions.size(), 3u);
  ASSERT_EQ(report.evictions.size(), 1u);
  EXPECT_EQ(report.evictions[0].host, 3u);
  ASSERT_FALSE(report.failureKinds.empty());
  EXPECT_EQ(report.failureKinds[0], "StragglerDeadline");
  EXPECT_GE(report.stragglerSoftReports, 1u);
  ASSERT_NO_THROW(core::validatePartitions(g, result.partitions));
  const uint64_t source = analytics::maxOutDegreeNode(g);
  EXPECT_EQ(analytics::runBfs(result.partitions, source),
            analytics::bfsReference(g, source));
  // The condemned straggler's checkpoint store was NOT torn down — its
  // machine is slow, not dead (only the epoch moved on).
  EXPECT_GE(core::latestValidCheckpoint(dir.path(), 3, 4, 5), 1u);
}

}  // namespace
}  // namespace cusp
