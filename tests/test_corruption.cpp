// Wire-level corruption tests: CRC32 framing, MessageCorrupt detection,
// transparent sendReliable recovery, and end-to-end bit-identity of the
// partitioner and the resilient analytics drivers under corrupted traffic
// on every protocol tag.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <system_error>
#include <vector>

#include <unistd.h>

#include "analytics/engine.h"
#include "analytics/reference.h"
#include "analytics/resilient.h"
#include "comm/fault.h"
#include "comm/network.h"
#include "core/checkpoint.h"
#include "core/dist_graph.h"
#include "core/partitioner.h"
#include "core/policies.h"
#include "graph/generators.h"
#include "graph/graph_file.h"
#include "support/crc32.h"
#include "testutil.h"

namespace cusp {
namespace {

using comm::FaultAction;
using comm::FaultPlan;
using comm::HostId;
using comm::kAnyHost;
using comm::kAnyTag;
using comm::MessageCorrupt;
using comm::Network;
using core::DistGraph;
using support::RecvBuffer;
using support::SendBuffer;

class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/cusp_corrupt_XXXXXX";
    const char* made = ::mkdtemp(tmpl);
    if (made == nullptr) {
      throw std::runtime_error("mkdtemp failed");
    }
    path_ = made;
  }
  ~TempDir() {
    // Epoch subdirectories and buddy replicas nest under the root; blanket
    // removal is the only cleanup that stays correct as the layout grows.
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

SendBuffer bufferWith(const std::vector<uint64_t>& values) {
  SendBuffer buf;
  support::serialize(buf, values);
  return buf;
}

std::shared_ptr<FaultPlan> corruptPlan(comm::Tag tag, uint64_t occurrence,
                                       uint32_t repeat = 1) {
  auto plan = std::make_shared<FaultPlan>();
  plan->messageFaults.push_back({kAnyHost, kAnyHost, tag, occurrence, repeat,
                                 FaultAction::kCorrupt});
  return plan;
}

// ---------------------------------------------------------------------------
// Framing mechanics.
// ---------------------------------------------------------------------------

TEST(FramingTest, OffByDefaultAndAutoEnabledByInjector) {
  Network net(2);
  EXPECT_FALSE(net.crcFraming());
  net.setFaultInjector(
      std::make_shared<comm::FaultInjector>(*corruptPlan(kAnyTag, 99)));
  EXPECT_TRUE(net.crcFraming());
  net.setFaultInjector(nullptr);
  EXPECT_FALSE(net.crcFraming());
}

TEST(FramingTest, FooterBytesAccountedSeparately) {
  // Framing on (no faults): payload counters and totalBytes() must be
  // byte-identical to an unframed run; the footer lands in framingBytes.
  const std::vector<uint64_t> payload = {1, 2, 3, 4};
  comm::VolumeStats unframed;
  {
    Network net(2);
    comm::runHosts(net, [&](HostId me) {
      if (me == 0) {
        net.send(0, 1, comm::kTagGeneric, bufferWith(payload));
      } else {
        auto msg = net.recv(1, comm::kTagGeneric);
        std::vector<uint64_t> got;
        support::deserialize(msg.payload, got);
        EXPECT_EQ(got, payload);
      }
    });
    unframed = net.statsSnapshot();
    EXPECT_EQ(unframed.framingBytes, 0u);
  }
  Network net(2);
  net.setCrcFraming(true);
  comm::runHosts(net, [&](HostId me) {
    if (me == 0) {
      net.send(0, 1, comm::kTagGeneric, bufferWith(payload));
    } else {
      auto msg = net.recv(1, comm::kTagGeneric);
      std::vector<uint64_t> got;
      support::deserialize(msg.payload, got);
      EXPECT_EQ(got, payload);  // footer stripped before delivery
    }
  });
  const comm::VolumeStats framed = net.statsSnapshot();
  EXPECT_EQ(framed.bytes[comm::kTagGeneric], unframed.bytes[comm::kTagGeneric]);
  EXPECT_EQ(framed.totalBytes(), unframed.totalBytes());
  EXPECT_EQ(framed.framingBytes, support::kCrcFooterSize);
  EXPECT_EQ(framed.corruptionsDetected, 0u);
}

TEST(FramingTest, SelfSendsAreNeverFramed) {
  Network net(2);
  net.setCrcFraming(true);
  comm::runHosts(net, [&](HostId me) {
    if (me == 0) {
      net.send(0, 0, comm::kTagGeneric, bufferWith({7}));
      auto msg = net.recv(0, comm::kTagGeneric);
      std::vector<uint64_t> got;
      support::deserialize(msg.payload, got);
      EXPECT_EQ(got, std::vector<uint64_t>{7});
    }
  });
  EXPECT_EQ(net.statsSnapshot().framingBytes, 0u);
}

// ---------------------------------------------------------------------------
// Detection and recovery.
// ---------------------------------------------------------------------------

TEST(CorruptionTest, BareSendThrowsMessageCorrupt) {
  Network net(2);
  net.setFaultInjector(
      std::make_shared<comm::FaultInjector>(*corruptPlan(comm::kTagGeneric, 0)));
  comm::runHosts(net, [&](HostId me) {
    if (me == 0) {
      try {
        net.send(0, 1, comm::kTagGeneric, bufferWith({42}));
        FAIL() << "corrupted frame was delivered";
      } catch (const MessageCorrupt& e) {
        EXPECT_EQ(e.from, 0u);
        EXPECT_EQ(e.to, 1u);
        EXPECT_EQ(e.tag, comm::kTagGeneric);
        EXPECT_NE(std::string(e.what()).find("CRC32"), std::string::npos);
      }
      // The channel stays usable: a clean resend goes through.
      net.send(0, 1, comm::kTagGeneric, bufferWith({43}));
    } else {
      auto msg = net.recv(1, comm::kTagGeneric);
      std::vector<uint64_t> got;
      support::deserialize(msg.payload, got);
      EXPECT_EQ(got, std::vector<uint64_t>{43});
    }
  });
  const comm::VolumeStats stats = net.statsSnapshot();
  EXPECT_EQ(stats.corruptionsDetected, 1u);
  EXPECT_EQ(stats.corruptionsRecovered, 0u);  // bare send does not retry
}

TEST(CorruptionTest, SendReliableRecoversTransparently) {
  Network net(2);
  net.setFaultInjector(
      std::make_shared<comm::FaultInjector>(*corruptPlan(comm::kTagGeneric, 0)));
  const std::vector<uint64_t> payload = {11, 22, 33};
  comm::runHosts(net, [&](HostId me) {
    if (me == 0) {
      net.sendReliable(0, 1, comm::kTagGeneric, bufferWith(payload));
    } else {
      auto msg = net.recv(1, comm::kTagGeneric);
      std::vector<uint64_t> got;
      support::deserialize(msg.payload, got);
      EXPECT_EQ(got, payload);  // the retransmission is the clean copy
    }
  });
  const comm::VolumeStats stats = net.statsSnapshot();
  EXPECT_EQ(stats.corruptionsDetected, 1u);
  EXPECT_EQ(stats.corruptionsRecovered, 1u);
}

TEST(CorruptionTest, RepeatBeyondRetryBudgetEscapes) {
  // Every retransmission is a fresh occurrence; a fault that repeats past
  // the retry budget defeats sendReliable and surfaces as MessageCorrupt.
  Network net(2);
  net.setFaultInjector(std::make_shared<comm::FaultInjector>(
      *corruptPlan(comm::kTagGeneric, 0, /*repeat=*/16)));
  comm::RetryPolicy policy;
  policy.maxAttempts = 3;
  net.setRetryPolicy(policy);
  comm::runHosts(net, [&](HostId me) {
    if (me == 0) {
      EXPECT_THROW(
          net.sendReliable(0, 1, comm::kTagGeneric, bufferWith({5})),
          MessageCorrupt);
    }
  });
  const comm::VolumeStats stats = net.statsSnapshot();
  EXPECT_EQ(stats.corruptionsDetected, 3u);
  EXPECT_EQ(stats.corruptionsRecovered, 0u);
}

// ---------------------------------------------------------------------------
// Partitioner pipeline: a corrupted frame on each protocol tag's traffic is
// recovered transparently and the result stays bit-identical.
// ---------------------------------------------------------------------------

std::vector<uint8_t> serializedBytes(const DistGraph& part) {
  SendBuffer buf;
  core::serializeDistGraph(buf, part);
  return buf.release();
}

struct PhaseTagCase {
  const char* name;
  comm::Tag tag;
  const char* policy;  // a policy whose run actually uses the tag
  // Streaming heuristics (FEC/LDG/...) are arrival-order-sensitive, so two
  // fault-free runs already differ bit for bit; for those we assert
  // transparent recovery + structural invariants instead of byte equality.
  bool deterministic;
};

class PartitionerCorruptionSweep
    : public ::testing::TestWithParam<PhaseTagCase> {};

TEST_P(PartitionerCorruptionSweep, RecoversBitIdentical) {
  const PhaseTagCase& c = GetParam();
  const graph::CsrGraph g = graph::generateErdosRenyi(300, 1200, 17);
  const graph::GraphFile file = graph::GraphFile::fromCsr(g);
  const auto policy = core::makePolicy(c.policy);

  core::PartitionerConfig config;
  config.numHosts = 4;
  const core::PartitionResult baseline =
      core::partitionGraph(file, policy, config);

  config.resilience.faultPlan = corruptPlan(c.tag, /*occurrence=*/0);
  config.resilience.recvTimeoutSeconds = 20.0;
  core::RecoveryReport report;
  const core::PartitionResult recovered =
      core::partitionGraphResilient(file, policy, config, &report);

  ASSERT_EQ(baseline.partitions.size(), recovered.partitions.size());
  if (c.deterministic) {
    for (size_t h = 0; h < baseline.partitions.size(); ++h) {
      EXPECT_EQ(serializedBytes(baseline.partitions[h]),
                serializedBytes(recovered.partitions[h]))
          << "partition of host " << h << " diverged under corruption on "
          << c.name;
    }
  } else {
    // Order-sensitive policy: the exact cut varies run to run, but the
    // recovered run must still cover the whole graph exactly once.
    uint64_t masters = 0;
    uint64_t edges = 0;
    for (const auto& part : recovered.partitions) {
      masters += part.numMasters;
      edges += part.numLocalEdges();
    }
    EXPECT_EQ(masters, file.numNodes()) << c.name;
    EXPECT_EQ(edges, file.numEdges()) << c.name;
  }
  EXPECT_EQ(report.attempts, 1u) << "recovery should be transparent";
  EXPECT_GT(recovered.volume.corruptionsDetected, 0u) << c.name;
  EXPECT_GT(recovered.volume.corruptionsRecovered, 0u) << c.name;
}

INSTANTIATE_TEST_SUITE_P(
    ProtocolTags, PartitionerCorruptionSweep,
    ::testing::Values(
        // Policies chosen so the run actually emits the tag on this graph:
        // the master-assignment round trip only happens for policies whose
        // master rule is not locally computable (FEC/LDG here), and edge
        // batches only ship when a reader assigns edges to a remote owner
        // (CVC; EEC/HVC keep them reader-local on this input).
        PhaseTagCase{"MasterRequest", comm::kTagMasterRequest, "FEC", false},
        PhaseTagCase{"MasterAssign", comm::kTagMasterAssign, "FEC", false},
        PhaseTagCase{"MasterList", comm::kTagMasterList, "LDG", false},
        PhaseTagCase{"EdgeCounts", comm::kTagEdgeCounts, "EEC", true},
        PhaseTagCase{"MirrorFlags", comm::kTagMirrorFlags, "EEC", true},
        PhaseTagCase{"MirrorToMaster", comm::kTagMirrorToMaster, "CVC", true},
        PhaseTagCase{"EdgeBatch", comm::kTagEdgeBatch, "CVC", true}),
    [](const ::testing::TestParamInfo<PhaseTagCase>& info) {
      return std::string(info.param.name) + "_" + info.param.policy;
    });

// ---------------------------------------------------------------------------
// Analytics sync traffic.
// ---------------------------------------------------------------------------

std::vector<DistGraph> makePartitions(const graph::CsrGraph& g,
                                      const std::string& policy,
                                      uint32_t hosts) {
  const graph::GraphFile file = graph::GraphFile::fromCsr(g);
  core::PartitionerConfig config;
  config.numHosts = hosts;
  return core::partitionGraph(file, core::makePolicy(policy), config)
      .partitions;
}

TEST(AnalyticsCorruptionTest, BfsSyncCorruptionRecoversBitIdentical) {
  const graph::CsrGraph g = graph::generateErdosRenyi(300, 1200, 17);
  const auto parts = makePartitions(g, "HVC", 4);
  const uint64_t source = analytics::maxOutDegreeNode(g);
  const auto expected = analytics::bfsReference(g, source);

  auto plan = std::make_shared<FaultPlan>();
  plan->messageFaults.push_back({kAnyHost, kAnyHost, comm::kTagAppReduce,
                                 /*occurrence=*/0, /*repeat=*/1,
                                 FaultAction::kCorrupt});
  plan->messageFaults.push_back({kAnyHost, kAnyHost, comm::kTagAppBroadcast,
                                 /*occurrence=*/0, /*repeat=*/1,
                                 FaultAction::kCorrupt});
  analytics::ResilienceOptions options;
  options.faultPlan = plan;
  options.recvTimeoutSeconds = 20.0;

  analytics::ResilienceReport report;
  const auto got = analytics::runBfsResilient(parts, source, options, &report);
  EXPECT_EQ(got, expected);
  EXPECT_EQ(report.attempts, 1u) << "recovery should be transparent";
  EXPECT_GT(report.corruptionsRecovered, 0u);
  EXPECT_TRUE(report.failures.empty());
}

TEST(AnalyticsCorruptionTest, PageRankSyncCorruptionRecoversBitIdentical) {
  const graph::CsrGraph g = graph::generateErdosRenyi(300, 1200, 17);
  const auto parts = makePartitions(g, "CVC", 4);
  analytics::PageRankParams params;
  params.maxIterations = 30;
  params.tolerance = 1e-9;
  const auto clean = analytics::runPageRank(parts, params);

  auto plan = std::make_shared<FaultPlan>();
  plan->messageFaults.push_back({kAnyHost, kAnyHost, comm::kTagAppReduce,
                                 /*occurrence=*/2, /*repeat=*/2,
                                 FaultAction::kCorrupt});
  plan->messageFaults.push_back({kAnyHost, kAnyHost, comm::kTagAppBroadcast,
                                 /*occurrence=*/5, /*repeat=*/1,
                                 FaultAction::kCorrupt});
  analytics::ResilienceOptions options;
  options.faultPlan = plan;
  options.recvTimeoutSeconds = 20.0;

  analytics::ResilienceReport report;
  const auto got = analytics::runPageRankResilient(parts, params, options,
                                                   &report);
  // Same layout, same rounds, corruption absorbed below the algorithm: the
  // doubles must match the clean run bit for bit.
  EXPECT_EQ(got, clean);
  EXPECT_EQ(report.attempts, 1u);
  EXPECT_GT(report.corruptionsRecovered, 0u);
}

// ---------------------------------------------------------------------------
// Superstep rollback and degraded continuation.
// ---------------------------------------------------------------------------

TEST(ResilientAnalyticsTest, FaultFreeRunMatchesPlainDriver) {
  const graph::CsrGraph g =
      graph::withRandomWeights(graph::generateErdosRenyi(300, 1200, 17), 20, 3);
  const auto parts = makePartitions(g, "EEC", 4);
  const uint64_t source = analytics::maxOutDegreeNode(g);
  analytics::ResilienceOptions options;  // no faults, no checkpoints
  const auto got = analytics::runBfsResilient(parts, source, options);
  EXPECT_EQ(got, analytics::runBfs(parts, source));
  EXPECT_EQ(analytics::runSsspResilient(parts, source, options),
            analytics::runSssp(parts, source));
  const auto symParts = makePartitions(g.symmetrized(), "EEC", 4);
  EXPECT_EQ(analytics::runCcResilient(symParts, options),
            analytics::runCc(symParts));

  analytics::PageRankParams params;
  params.maxIterations = 30;
  params.tolerance = 1e-9;
  EXPECT_EQ(analytics::runPageRankResilient(parts, params, options),
            analytics::runPageRank(parts, params));
}

TEST(ResilientAnalyticsTest, TransientCrashRollsBackToCheckpoint) {
  // A long BFS (path graph: one superstep per hop) with a crash deep into
  // the run: the second attempt must resume from a checkpoint, not from
  // scratch, and still produce the exact reference distances.
  const graph::CsrGraph g = graph::makePath(64);
  const auto parts = makePartitions(g, "EEC", 4);
  const auto expected = analytics::bfsReference(g, 0);

  TempDir dir;
  auto plan = std::make_shared<FaultPlan>();
  plan->crashes.push_back(
      {/*host=*/1, /*phase=*/0, /*opsIntoPhase=*/200, /*permanent=*/false});
  analytics::ResilienceOptions options;
  options.faultPlan = plan;
  options.checkpointDir = dir.path();
  options.enableCheckpoints = true;
  options.checkpointInterval = 4;
  options.recvTimeoutSeconds = 20.0;

  analytics::ResilienceReport report;
  const auto got = analytics::runBfsResilient(parts, 0, options, &report);
  EXPECT_EQ(got, expected);
  EXPECT_EQ(report.attempts, 2u);
  ASSERT_EQ(report.failureKinds.size(), 1u);
  EXPECT_GT(report.resumedFromSuperstep, 0u)
      << "crash at crossing 200 should land after the first checkpoint";
  EXPECT_GT(report.checkpointsSaved, 0u);
}

TEST(ResilientAnalyticsTest, CrashWithoutCheckpointsRestartsFromScratch) {
  const graph::CsrGraph g = graph::generateErdosRenyi(200, 900, 3);
  const auto parts = makePartitions(g, "HVC", 4);
  const uint64_t source = analytics::maxOutDegreeNode(g);

  auto plan = std::make_shared<FaultPlan>();
  plan->crashes.push_back(
      {/*host=*/2, /*phase=*/0, /*opsIntoPhase=*/10, /*permanent=*/false});
  analytics::ResilienceOptions options;
  options.faultPlan = plan;
  options.recvTimeoutSeconds = 20.0;

  analytics::ResilienceReport report;
  const auto got = analytics::runBfsResilient(parts, source, options, &report);
  EXPECT_EQ(got, analytics::bfsReference(g, source));
  EXPECT_EQ(report.attempts, 2u);
  EXPECT_EQ(report.resumedFromSuperstep, 0u);
}

TEST(ResilientAnalyticsTest, UnrecoverablePlanRethrowsStructuredFault) {
  const graph::CsrGraph g = graph::generateErdosRenyi(100, 400, 5);
  const auto parts = makePartitions(g, "EEC", 4);

  auto plan = std::make_shared<FaultPlan>();
  for (int i = 0; i < 4; ++i) {
    plan->crashes.push_back(
        {/*host=*/1, /*phase=*/0, /*opsIntoPhase=*/0, /*permanent=*/false});
  }
  analytics::ResilienceOptions options;
  options.faultPlan = plan;
  options.maxRecoveryAttempts = 2;
  options.recvTimeoutSeconds = 20.0;

  analytics::ResilienceReport report;
  // The crashing host's own thread throws HostFailure before any sibling's
  // guarded sync can wrap its view of the outage.
  EXPECT_THROW(analytics::runBfsResilient(parts, 0, options, &report),
               comm::HostFailure);
  EXPECT_EQ(report.attempts, 2u);
  EXPECT_EQ(report.failures.size(), 2u);
}

TEST(ResilientAnalyticsTest, DegradedBfsCompletesOnSurvivorsExactly) {
  const graph::CsrGraph g = graph::generateErdosRenyi(300, 1200, 17);
  const auto parts = makePartitions(g, "HVC", 4);
  const uint64_t source = analytics::maxOutDegreeNode(g);

  TempDir dir;
  auto plan = std::make_shared<FaultPlan>();
  plan->crashes.push_back(
      {/*host=*/2, /*phase=*/0, /*opsIntoPhase=*/40, /*permanent=*/true});
  analytics::ResilienceOptions options;
  options.faultPlan = plan;
  options.checkpointDir = dir.path();
  options.enableCheckpoints = true;
  options.buddyReplication = true;
  options.degradedMode = true;
  options.recvTimeoutSeconds = 20.0;

  analytics::ResilienceReport report;
  const auto got = analytics::runBfsResilient(parts, source, options, &report);
  EXPECT_EQ(got, analytics::bfsReference(g, source))
      << "monotone min-propagation must stay exact across an eviction";
  EXPECT_EQ(report.evictions, std::vector<comm::HostId>{2});
  EXPECT_EQ(report.finalAliveHosts, 3u);
  EXPECT_GE(report.attempts, 2u);
}

TEST(ResilientAnalyticsTest, DegradedPageRankMatchesReferenceToTolerance) {
  const graph::CsrGraph g = graph::generateErdosRenyi(300, 1200, 17);
  const auto parts = makePartitions(g, "EEC", 4);
  analytics::PageRankParams params;
  params.maxIterations = 30;
  params.tolerance = 1e-9;
  const auto expected = analytics::pageRankReference(g, params);

  TempDir dir;
  auto plan = std::make_shared<FaultPlan>();
  plan->crashes.push_back(
      {/*host=*/1, /*phase=*/0, /*opsIntoPhase=*/60, /*permanent=*/true});
  analytics::ResilienceOptions options;
  options.faultPlan = plan;
  options.checkpointDir = dir.path();
  options.enableCheckpoints = true;
  options.buddyReplication = true;
  options.degradedMode = true;
  options.recvTimeoutSeconds = 20.0;

  analytics::ResilienceReport report;
  const auto got =
      analytics::runPageRankResilient(parts, params, options, &report);
  ASSERT_EQ(got.size(), expected.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i], expected[i], 1e-10) << "node " << i;
  }
  EXPECT_EQ(report.evictions, std::vector<comm::HostId>{1});
  EXPECT_EQ(report.finalAliveHosts, 3u);
}

}  // namespace
}  // namespace cusp
