// Crash-recovery tests: a host crash injected into any of the five
// pipeline phases must recover through partitionGraphResilient and produce
// a DistGraph bit-identical to the fault-free run, whether the re-run
// resumes from checkpoints or restarts from scratch.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <tuple>
#include <vector>

#include <sys/stat.h>
#include <unistd.h>

#include "comm/fault.h"
#include "core/checkpoint.h"
#include "core/dist_graph.h"
#include "core/partitioner.h"
#include "core/policies.h"
#include "graph/generators.h"
#include "graph/graph_file.h"
#include "testutil.h"

namespace cusp {
namespace {

using core::DistGraph;
using core::PartitionerConfig;
using core::PartitionResult;
using core::RecoveryReport;

// RAII temp directory for checkpoint files.
class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/cusp_ckpt_XXXXXX";
    const char* made = ::mkdtemp(tmpl);
    if (made == nullptr) {
      throw std::runtime_error("mkdtemp failed");
    }
    path_ = made;
  }
  ~TempDir() {
    for (uint32_t h = 0; h < 16; ++h) {
      core::removeCheckpoints(path_, h, 5);
    }
    ::rmdir(path_.c_str());
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::vector<uint8_t> serializedBytes(const DistGraph& part) {
  support::SendBuffer buf;
  core::serializeDistGraph(buf, part);
  return buf.release();
}

void expectBitIdentical(const PartitionResult& baseline,
                        const PartitionResult& recovered) {
  ASSERT_EQ(baseline.partitions.size(), recovered.partitions.size());
  for (size_t h = 0; h < baseline.partitions.size(); ++h) {
    EXPECT_EQ(serializedBytes(baseline.partitions[h]),
              serializedBytes(recovered.partitions[h]))
        << "partition of host " << h << " diverged after recovery";
  }
}

// ---------------------------------------------------------------------------
// Crash sweep: phase x policy x hosts.
// ---------------------------------------------------------------------------

using CrashParam = std::tuple<uint32_t, std::string, uint32_t>;

class CrashRecoverySweep : public ::testing::TestWithParam<CrashParam> {};

TEST_P(CrashRecoverySweep, RecoveredPartitionIsBitIdentical) {
  const auto& [crashPhase, policyName, hosts] = GetParam();
  const graph::CsrGraph g = graph::generateErdosRenyi(300, 1200, 17);
  const graph::GraphFile file = graph::GraphFile::fromCsr(g);
  const auto policy = core::makePolicy(policyName);

  PartitionerConfig config;
  config.numHosts = hosts;

  const PartitionResult baseline = core::partitionGraph(file, policy, config);

  TempDir dir;
  auto plan = std::make_shared<comm::FaultPlan>();
  plan->crashes.push_back(
      {/*host=*/1, /*phase=*/crashPhase, /*opsIntoPhase=*/0});
  config.resilience.faultPlan = plan;
  config.resilience.checkpointDir = dir.path();
  config.resilience.enableCheckpoints = true;
  config.resilience.recvTimeoutSeconds = 20.0;  // backstop against hangs

  RecoveryReport report;
  const PartitionResult recovered =
      core::partitionGraphResilient(file, policy, config, &report);

  expectBitIdentical(baseline, recovered);
  EXPECT_EQ(report.attempts, 2u);
  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_NE(report.failures[0].find("crash of host 1"), std::string::npos)
      << report.failures[0];
  EXPECT_NE(report.failures[0].find("phase " + std::to_string(crashPhase)),
            std::string::npos)
      << report.failures[0];
  // Crashing at the entry of phase P leaves checkpoints for 1..P-1 on every
  // host, so the re-run resumes right below the crash.
  EXPECT_EQ(report.resumedFromPhase, crashPhase - 1);
}

std::vector<CrashParam> crashParams() {
  std::vector<CrashParam> params;
  for (uint32_t phase = 1; phase <= 5; ++phase) {
    for (const char* policy : {"EEC", "HVC", "CVC"}) {
      for (uint32_t hosts : {4u, 8u}) {
        params.emplace_back(phase, policy, hosts);
      }
    }
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(
    PhasesPoliciesHosts, CrashRecoverySweep,
    ::testing::ValuesIn(crashParams()),
    [](const ::testing::TestParamInfo<CrashParam>& info) {
      return "p" + std::to_string(std::get<0>(info.param)) + "_" +
             std::get<1>(info.param) + "_h" +
             std::to_string(std::get<2>(info.param));
    });

// Stateful (FennelEB) policies: their master assignment depends on message
// timing, so a recovered run is checked for validity against the input
// instead of byte-compared. Crashing at the entry of phases 3-5 resumes
// from the master, edge and allocation checkpoint sections respectively.
using StatefulCrashParam = std::tuple<uint32_t, std::string>;

class StatefulCrashRecoverySweep
    : public ::testing::TestWithParam<StatefulCrashParam> {};

TEST_P(StatefulCrashRecoverySweep, RecoveredPartitionIsValid) {
  const auto& [crashPhase, policyName] = GetParam();
  const graph::CsrGraph g = graph::generateErdosRenyi(300, 1200, 17);
  const graph::GraphFile file = graph::GraphFile::fromCsr(g);

  TempDir dir;
  PartitionerConfig config;
  config.numHosts = 4;
  auto plan = std::make_shared<comm::FaultPlan>();
  plan->crashes.push_back(
      {/*host=*/1, /*phase=*/crashPhase, /*opsIntoPhase=*/0});
  config.resilience.faultPlan = plan;
  config.resilience.checkpointDir = dir.path();
  config.resilience.enableCheckpoints = true;
  config.resilience.recvTimeoutSeconds = 20.0;

  RecoveryReport report;
  const PartitionResult recovered = core::partitionGraphResilient(
      file, core::makePolicy(policyName), config, &report);

  EXPECT_NO_THROW(core::validatePartitions(g, recovered.partitions));
  EXPECT_EQ(report.attempts, 2u);
  EXPECT_EQ(report.resumedFromPhase, crashPhase - 1);
}

std::vector<StatefulCrashParam> statefulCrashParams() {
  std::vector<StatefulCrashParam> params;
  for (uint32_t phase = 2; phase <= 5; ++phase) {
    for (const char* policy : {"FEC", "GVC", "SVC"}) {
      params.emplace_back(phase, policy);
    }
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(
    PhasesStatefulPolicies, StatefulCrashRecoverySweep,
    ::testing::ValuesIn(statefulCrashParams()),
    [](const ::testing::TestParamInfo<StatefulCrashParam>& info) {
      return "p" + std::to_string(std::get<0>(info.param)) + "_" +
             std::get<1>(info.param) + "_h4";
    });

// ---------------------------------------------------------------------------
// Recovery variants.
// ---------------------------------------------------------------------------

TEST(FaultRecoveryTest, RecoversWithoutCheckpointsByFullRestart) {
  const graph::CsrGraph g = graph::generateErdosRenyi(200, 900, 3);
  const graph::GraphFile file = graph::GraphFile::fromCsr(g);
  const auto policy = core::makePolicy("HVC");

  PartitionerConfig config;
  config.numHosts = 4;
  const PartitionResult baseline = core::partitionGraph(file, policy, config);

  auto plan = std::make_shared<comm::FaultPlan>();
  plan->crashes.push_back({/*host=*/2, /*phase=*/3, /*opsIntoPhase=*/0});
  config.resilience.faultPlan = plan;
  config.resilience.recvTimeoutSeconds = 20.0;

  RecoveryReport report;
  const PartitionResult recovered =
      core::partitionGraphResilient(file, policy, config, &report);
  expectBitIdentical(baseline, recovered);
  EXPECT_EQ(report.attempts, 2u);
  EXPECT_EQ(report.resumedFromPhase, 0u);
}

TEST(FaultRecoveryTest, MidPhaseCrashRecovers) {
  // A crash a few network crossings into the construction phase (not at
  // its entry) still recovers bit-identically.
  const graph::CsrGraph g = graph::generateErdosRenyi(300, 1200, 17);
  const graph::GraphFile file = graph::GraphFile::fromCsr(g);
  const auto policy = core::makePolicy("CVC");

  PartitionerConfig config;
  config.numHosts = 4;
  config.messageBufferThreshold = 256;  // many small batches -> crossings
  const PartitionResult baseline = core::partitionGraph(file, policy, config);

  TempDir dir;
  auto plan = std::make_shared<comm::FaultPlan>();
  plan->crashes.push_back({/*host=*/0, /*phase=*/5, /*opsIntoPhase=*/7});
  config.resilience.faultPlan = plan;
  config.resilience.checkpointDir = dir.path();
  config.resilience.enableCheckpoints = true;
  config.resilience.recvTimeoutSeconds = 20.0;

  RecoveryReport report;
  const PartitionResult recovered =
      core::partitionGraphResilient(file, policy, config, &report);
  expectBitIdentical(baseline, recovered);
  EXPECT_EQ(report.attempts, 2u);
  EXPECT_EQ(report.resumedFromPhase, 4u);
}

TEST(FaultRecoveryTest, UnrecoverablePlanSurfacesStructuredError) {
  // More crashes than recovery attempts: the driver gives up and rethrows
  // the last HostFailure instead of hanging or returning garbage.
  const graph::CsrGraph g = graph::generateErdosRenyi(100, 400, 5);
  const graph::GraphFile file = graph::GraphFile::fromCsr(g);
  const auto policy = core::makePolicy("EEC");

  PartitionerConfig config;
  config.numHosts = 4;
  auto plan = std::make_shared<comm::FaultPlan>();
  for (uint32_t i = 0; i < 3; ++i) {
    plan->crashes.push_back({/*host=*/1, /*phase=*/1, /*opsIntoPhase=*/0});
  }
  config.resilience.faultPlan = plan;
  config.resilience.maxRecoveryAttempts = 2;
  config.resilience.recvTimeoutSeconds = 20.0;

  RecoveryReport report;
  EXPECT_THROW(core::partitionGraphResilient(file, policy, config, &report),
               comm::HostFailure);
  EXPECT_EQ(report.attempts, 2u);
  EXPECT_EQ(report.failures.size(), 2u);
}

TEST(FaultRecoveryTest, DropsAndDuplicatesAreTransparent) {
  // Message-level faults alone (no crash) are absorbed by sendReliable and
  // receiver-side dedup: same bits, no recovery attempt consumed.
  const graph::CsrGraph g = graph::generateErdosRenyi(200, 900, 3);
  const graph::GraphFile file = graph::GraphFile::fromCsr(g);
  const auto policy = core::makePolicy("HVC");

  PartitionerConfig config;
  config.numHosts = 4;
  const PartitionResult baseline = core::partitionGraph(file, policy, config);

  auto plan = std::make_shared<comm::FaultPlan>();
  plan->messageFaults.push_back({comm::kAnyHost, comm::kAnyHost,
                                 comm::kAnyTag, /*occurrence=*/3,
                                 /*repeat=*/2, comm::FaultAction::kDrop});
  plan->messageFaults.push_back({comm::kAnyHost, comm::kAnyHost,
                                 comm::kAnyTag, /*occurrence=*/10,
                                 /*repeat=*/3, comm::FaultAction::kDuplicate});
  plan->messageFaults.push_back({comm::kAnyHost, comm::kAnyHost,
                                 comm::kAnyTag, /*occurrence=*/20,
                                 /*repeat=*/2, comm::FaultAction::kDelay,
                                 /*delayScans=*/3});
  config.resilience.faultPlan = plan;
  config.resilience.recvTimeoutSeconds = 20.0;

  RecoveryReport report;
  const PartitionResult recovered =
      core::partitionGraphResilient(file, policy, config, &report);
  expectBitIdentical(baseline, recovered);
  EXPECT_EQ(report.attempts, 1u);
  EXPECT_TRUE(report.failures.empty());
}

// ---------------------------------------------------------------------------
// Checkpoint file format.
// ---------------------------------------------------------------------------

TEST(CheckpointTest, SaveLoadRoundTrip) {
  TempDir dir;
  support::SendBuffer payload;
  support::serializeAll(payload, uint64_t{7}, std::vector<uint32_t>{1, 2, 3});
  core::saveCheckpoint(dir.path(), /*host=*/2, /*numHosts=*/4, /*phase=*/3,
                       payload);

  auto loaded = core::loadCheckpoint(dir.path(), 2, 4, 3);
  ASSERT_TRUE(loaded.has_value());
  support::RecvBuffer buf(std::move(*loaded));
  uint64_t a = 0;
  std::vector<uint32_t> b;
  support::deserializeAll(buf, a, b);
  EXPECT_EQ(a, 7u);
  EXPECT_EQ(b, (std::vector<uint32_t>{1, 2, 3}));
  EXPECT_TRUE(buf.exhausted());
}

TEST(CheckpointTest, IdentityMismatchIsRejected) {
  TempDir dir;
  support::SendBuffer payload;
  support::serialize(payload, uint64_t{1});
  core::saveCheckpoint(dir.path(), 1, 4, 2, payload);
  EXPECT_TRUE(core::loadCheckpoint(dir.path(), 1, 4, 2).has_value());
  EXPECT_FALSE(core::loadCheckpoint(dir.path(), 0, 4, 2).has_value());
  EXPECT_FALSE(core::loadCheckpoint(dir.path(), 1, 8, 2).has_value());
  EXPECT_FALSE(core::loadCheckpoint(dir.path(), 1, 4, 3).has_value());
}

TEST(CheckpointTest, CorruptedFileIsTreatedAsAbsent) {
  TempDir dir;
  support::SendBuffer payload;
  support::serialize(payload, std::vector<uint64_t>(64, 9));
  core::saveCheckpoint(dir.path(), 0, 2, 4, payload);

  const std::string path = core::checkpointPath(dir.path(), 0, 4);
  FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 40, SEEK_SET);  // flip a payload byte
  int c = std::fgetc(f);
  std::fseek(f, 40, SEEK_SET);
  std::fputc(c ^ 0xFF, f);
  std::fclose(f);

  EXPECT_FALSE(core::loadCheckpoint(dir.path(), 0, 2, 4).has_value());
  EXPECT_EQ(core::latestValidCheckpoint(dir.path(), 0, 2, 5), 0u);
}

TEST(CheckpointTest, LatestValidCheckpointScansDownward) {
  TempDir dir;
  support::SendBuffer payload;
  support::serialize(payload, uint64_t{1});
  EXPECT_EQ(core::latestValidCheckpoint(dir.path(), 0, 4, 5), 0u);
  core::saveCheckpoint(dir.path(), 0, 4, 1, payload);
  core::saveCheckpoint(dir.path(), 0, 4, 3, payload);
  EXPECT_EQ(core::latestValidCheckpoint(dir.path(), 0, 4, 5), 3u);
  EXPECT_EQ(core::latestValidCheckpoint(dir.path(), 0, 4, 2), 1u);
  core::removeCheckpoints(dir.path(), 0, 5);
  EXPECT_EQ(core::latestValidCheckpoint(dir.path(), 0, 4, 5), 0u);
}

}  // namespace
}  // namespace cusp
