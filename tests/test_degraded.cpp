// Degraded-mode tests: membership eviction after permanent host loss,
// buddy-replicated checkpoints, phase-5 state redistribution (Path A) and
// edge-range re-reading re-partition (Path B), plus the membership-aware
// analytics engine. The driver-level tests assert the ISSUE's acceptance
// shape: a permanent crash of one of four hosts in any phase yields a
// three-host partition set whose masters cover every vertex exactly once
// and whose analytics match the single-image reference.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include <unistd.h>

#include "analytics/algorithms.h"
#include "analytics/reference.h"
#include "comm/fault.h"
#include "comm/network.h"
#include "core/checkpoint.h"
#include "core/degraded.h"
#include "core/dist_graph.h"
#include "core/partitioner.h"
#include "core/policies.h"
#include "graph/generators.h"
#include "graph/graph_file.h"
#include "obs/obs.h"
#include "support/memory.h"
#include "testutil.h"

namespace cusp {
namespace {

using core::DistGraph;
using core::PartitionerConfig;
using core::PartitionResult;
using core::RecoveryReport;

// RAII temp directory; recursive removal covers replicas and the driver's
// per-epoch subdirectories.
class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/cusp_degraded_XXXXXX";
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

std::vector<uint8_t> serializedBytes(const DistGraph& part) {
  support::SendBuffer buf;
  core::serializeDistGraph(buf, part);
  return buf.release();
}

void expectBitIdentical(const std::vector<DistGraph>& expected,
                        const std::vector<DistGraph>& actual) {
  ASSERT_EQ(expected.size(), actual.size());
  for (size_t h = 0; h < expected.size(); ++h) {
    EXPECT_EQ(serializedBytes(expected[h]), serializedBytes(actual[h]))
        << "partition of slot " << h << " diverged";
  }
}

// Master host of every global vertex, derived from a partition family;
// asserts each vertex has exactly one master on the way.
std::vector<uint32_t> masterMap(const graph::CsrGraph& g,
                                const std::vector<DistGraph>& parts) {
  std::vector<uint32_t> master(g.numNodes(), UINT32_MAX);
  for (const DistGraph& p : parts) {
    for (uint64_t lid = 0; lid < p.numMasters; ++lid) {
      const uint64_t gid = p.localToGlobal[lid];
      EXPECT_EQ(master[gid], UINT32_MAX)
          << "vertex " << gid << " mastered twice";
      master[gid] = p.hostId;
    }
  }
  for (uint64_t v = 0; v < g.numNodes(); ++v) {
    EXPECT_NE(master[v], UINT32_MAX) << "vertex " << v << " has no master";
  }
  return master;
}

PartitionerConfig degradedConfig(const std::string& dir, uint32_t hosts,
                                 std::shared_ptr<const comm::FaultPlan> plan) {
  PartitionerConfig config;
  config.numHosts = hosts;
  config.resilience.faultPlan = std::move(plan);
  config.resilience.checkpointDir = dir;
  config.resilience.enableCheckpoints = true;
  config.resilience.buddyReplication = true;
  config.resilience.degradedMode = true;
  config.resilience.recvTimeoutSeconds = 20.0;  // backstop against hangs
  return config;
}

// ---------------------------------------------------------------------------
// Network membership.
// ---------------------------------------------------------------------------

TEST(MembershipTest, EvictShiftsCollectiveRootAndSurvivorsAgree) {
  comm::Network net(3);
  EXPECT_EQ(net.collectiveRoot(), 0u);
  EXPECT_EQ(net.numAliveHosts(), 3u);
  net.evict(0);
  EXPECT_FALSE(net.isAlive(0));
  EXPECT_EQ(net.collectiveRoot(), 1u);
  EXPECT_EQ(net.numAliveHosts(), 2u);
  EXPECT_EQ(net.membershipEpoch(), 1u);
  net.evict(0);  // idempotent
  EXPECT_EQ(net.membershipEpoch(), 1u);

  comm::runHosts(net, [&](comm::HostId me) {
    const comm::MembershipView view = net.agreeMembership(me);
    EXPECT_EQ(view.epoch, 1u);
    EXPECT_FALSE(view.isAlive(0));
    EXPECT_TRUE(view.isAlive(1));
    EXPECT_TRUE(view.isAlive(2));
    EXPECT_EQ(view.numAlive(), 2u);
    // Collectives still work rooted at host 1.
    EXPECT_EQ(net.allReduceMin(me, me + 10), 11u);
    net.barrier(me);
  });
}

TEST(MembershipTest, TrafficTouchingEvictedHostFailsFast) {
  comm::Network net(3);
  net.evict(2);
  support::SendBuffer buf;
  support::serialize(buf, uint64_t{1});
  try {
    net.send(0, 2, comm::kTagGeneric, std::move(buf));
    FAIL() << "send to evicted host did not throw";
  } catch (const comm::HostEvicted& e) {
    EXPECT_EQ(e.host, 2u);
    EXPECT_EQ(e.from, 0u);
    EXPECT_EQ(e.epoch, 1u);
  }
  // The evicted host itself fails fast on any traffic.
  support::SendBuffer buf2;
  support::serialize(buf2, uint64_t{1});
  EXPECT_THROW(net.send(2, 0, comm::kTagGeneric, std::move(buf2)),
               comm::HostEvicted);
  // Receiving from an evicted host returns immediately, not via timeout.
  EXPECT_THROW(net.recvFrom(0, 2, comm::kTagGeneric), comm::HostEvicted);
}

TEST(MembershipTest, EvictionWakesBlockedReceiver) {
  comm::Network net(2);
  std::exception_ptr caught;
  std::thread receiver([&] {
    try {
      net.recvFrom(0, 1, comm::kTagGeneric);  // blocks: host 1 never sends
    } catch (...) {
      caught = std::current_exception();
    }
  });
  // Give the receiver time to block, then evict the awaited peer.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  net.evict(1);
  receiver.join();
  ASSERT_TRUE(caught != nullptr);
  EXPECT_THROW(std::rethrow_exception(caught), comm::HostEvicted);
}

// ---------------------------------------------------------------------------
// Fault classification (the driver's single failure handler).
// ---------------------------------------------------------------------------

TEST(ClassifyFaultTest, MapsEveryFaultTypeAndRejectsOthers) {
  auto crash = core::classifyFault(
      std::make_exception_ptr(comm::HostFailure(2, 4)));
  ASSERT_TRUE(crash.has_value());
  EXPECT_EQ(crash->kind, core::ClassifiedFault::kHostFailure);
  EXPECT_EQ(crash->host, 2u);
  EXPECT_EQ(crash->phase, 4u);
  EXPECT_STREQ(crash->kindName(), "HostFailure");

  auto stall = core::classifyFault(
      std::make_exception_ptr(comm::NetworkStalled("stalled")));
  ASSERT_TRUE(stall.has_value());
  EXPECT_EQ(stall->kind, core::ClassifiedFault::kNetworkStalled);
  EXPECT_EQ(stall->host, comm::kAnyHost);
  EXPECT_STREQ(stall->kindName(), "NetworkStalled");

  auto retries = core::classifyFault(
      std::make_exception_ptr(comm::SendRetriesExhausted(0, 1, 3, 4)));
  ASSERT_TRUE(retries.has_value());
  EXPECT_EQ(retries->kind, core::ClassifiedFault::kSendRetriesExhausted);
  EXPECT_STREQ(retries->kindName(), "SendRetriesExhausted");

  auto evicted = core::classifyFault(
      std::make_exception_ptr(comm::HostEvicted(0, 3, 7, 2)));
  ASSERT_TRUE(evicted.has_value());
  EXPECT_EQ(evicted->kind, core::ClassifiedFault::kHostEvicted);
  EXPECT_EQ(evicted->host, 3u);
  EXPECT_STREQ(evicted->kindName(), "HostEvicted");

  EXPECT_FALSE(core::classifyFault(
                   std::make_exception_ptr(std::runtime_error("not a fault")))
                   .has_value());
}

// ---------------------------------------------------------------------------
// Checkpoint hygiene + buddy replication.
// ---------------------------------------------------------------------------

TEST(CheckpointHygieneTest, GarbageCollectsOrphanTmpFiles) {
  TempDir dir;
  support::SendBuffer payload;
  support::serialize(payload, uint64_t{42});
  core::saveCheckpoint(dir.path(), 0, 4, 2, payload);

  // Orphans a crash mid-rename could leave behind.
  for (const char* name : {"/h1.p3.ckpt.tmp", "/h2.p5.buddy1.ckpt.tmp"}) {
    FILE* f = std::fopen((dir.path() + name).c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("partial", f);
    std::fclose(f);
  }

  EXPECT_EQ(core::garbageCollectCheckpointTmp(dir.path()), 2u);
  EXPECT_EQ(core::garbageCollectCheckpointTmp(dir.path()), 0u);
  // The valid checkpoint is untouched.
  EXPECT_TRUE(core::loadCheckpoint(dir.path(), 0, 4, 2).has_value());
}

TEST(CheckpointHygieneTest, NumHostsMismatchIsRejected) {
  // A checkpoint written for a different cluster size (a reused directory)
  // must be rejected — loudly (warn log) but structurally: nullopt.
  TempDir dir;
  support::SendBuffer payload;
  support::serialize(payload, uint64_t{1});
  core::saveCheckpoint(dir.path(), 1, 4, 3, payload);
  EXPECT_TRUE(core::loadCheckpoint(dir.path(), 1, 4, 3).has_value());
  EXPECT_FALSE(core::loadCheckpoint(dir.path(), 1, 8, 3).has_value());
  EXPECT_EQ(core::latestValidCheckpoint(dir.path(), 1, 8, 5), 0u);
}

TEST(CheckpointHygieneTest, ResilientDriverCollectsTmpOrphansOnStart) {
  const graph::CsrGraph g = graph::generateErdosRenyi(120, 500, 3);
  const graph::GraphFile file = graph::GraphFile::fromCsr(g);
  TempDir dir;
  const std::string orphan = dir.path() + "/h0.p4.ckpt.tmp";
  FILE* f = std::fopen(orphan.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("partial", f);
  std::fclose(f);

  PartitionerConfig config;
  config.numHosts = 2;
  config.resilience.checkpointDir = dir.path();
  config.resilience.enableCheckpoints = true;
  const auto result = core::partitionGraphResilient(
      file, core::makePolicy("EEC"), config);
  EXPECT_EQ(result.partitions.size(), 2u);
  EXPECT_FALSE(std::filesystem::exists(orphan));
}

TEST(BuddyReplicationTest, ReplicaRoundTripAndFallback) {
  TempDir dir;
  support::SendBuffer payload;
  support::serializeAll(payload, uint64_t{9}, std::vector<uint32_t>{4, 5});
  core::saveCheckpointReplica(dir.path(), /*owner=*/2, /*numHosts=*/4,
                              /*phase=*/3, payload);
  // The replica lives in the ring successor's store.
  EXPECT_EQ(core::checkpointReplicaPath(dir.path(), 2, 4, 3),
            dir.path() + "/h3.p3.buddy2.ckpt");
  EXPECT_TRUE(std::filesystem::exists(
      core::checkpointReplicaPath(dir.path(), 2, 4, 3)));
  // Ring wrap: the last host's buddy is host 0.
  EXPECT_EQ(core::checkpointReplicaPath(dir.path(), 3, 4, 1),
            dir.path() + "/h0.p1.buddy3.ckpt");

  // The primary is absent; the replica carries the owner's identity.
  EXPECT_FALSE(core::loadCheckpoint(dir.path(), 2, 4, 3).has_value());
  auto viaReplica = core::loadCheckpointReplica(dir.path(), 2, 4, 3);
  ASSERT_TRUE(viaReplica.has_value());
  auto viaFallback = core::loadCheckpointOrReplica(dir.path(), 2, 4, 3);
  ASSERT_TRUE(viaFallback.has_value());
  EXPECT_EQ(*viaReplica, *viaFallback);
  support::RecvBuffer buf(std::move(*viaReplica));
  uint64_t a = 0;
  std::vector<uint32_t> b;
  support::deserializeAll(buf, a, b);
  EXPECT_EQ(a, 9u);
  EXPECT_EQ(b, (std::vector<uint32_t>{4, 5}));

  // latestValidCheckpoint consults replicas too.
  EXPECT_EQ(core::latestValidCheckpoint(dir.path(), 2, 4, 5), 3u);
  EXPECT_EQ(core::latestValidCheckpoint(dir.path(), 3, 4, 5), 0u);
}

TEST(BuddyReplicationTest, RemoveHostStoreKillsOwnFilesAndHeldReplicas) {
  TempDir dir;
  support::SendBuffer payload;
  support::serialize(payload, uint64_t{7});
  // Host 2's store: its own phase-5 checkpoint plus the replica it holds
  // for host 1. Host 3 holds host 2's replica.
  core::saveCheckpoint(dir.path(), 2, 4, 5, payload);
  core::saveCheckpointReplica(dir.path(), 1, 4, 5, payload);  // at host 2
  core::saveCheckpointReplica(dir.path(), 2, 4, 5, payload);  // at host 3
  core::saveCheckpoint(dir.path(), 1, 4, 5, payload);

  core::removeHostCheckpointStore(dir.path(), 2, 4, 5);

  // Host 2's own file and the replica it held for host 1 die with it...
  EXPECT_FALSE(core::loadCheckpoint(dir.path(), 2, 4, 5).has_value());
  EXPECT_FALSE(core::loadCheckpointReplica(dir.path(), 1, 4, 5).has_value());
  // ...while host 2's replica at host 3 and host 1's own file survive.
  EXPECT_TRUE(core::loadCheckpointReplica(dir.path(), 2, 4, 5).has_value());
  EXPECT_TRUE(core::loadCheckpoint(dir.path(), 1, 4, 5).has_value());
}

// ---------------------------------------------------------------------------
// redistributePartitions (Path A arithmetic).
// ---------------------------------------------------------------------------

class RedistributeTest
    : public ::testing::TestWithParam<std::tuple<std::string, std::string>> {};

TEST_P(RedistributeTest, CompactOutputIsValidAndFollowsModuloRule) {
  const auto& [policyName, graphName] = GetParam();
  graph::CsrGraph g;
  for (const auto& named : testutil::testGraphCatalog()) {
    if (named.name == graphName) {
      g = named.graph;
    }
  }
  ASSERT_GT(g.numNodes(), 0u);
  const graph::GraphFile file = graph::GraphFile::fromCsr(g);
  PartitionerConfig config;
  config.numHosts = 4;
  const auto parts =
      core::partitionGraph(file, core::makePolicy(policyName), config)
          .partitions;
  const auto before = masterMap(g, parts);

  for (const std::vector<uint32_t>& evicted :
       {std::vector<uint32_t>{1}, std::vector<uint32_t>{0, 2}}) {
    std::vector<uint32_t> survivors;
    std::vector<bool> dead(4, false);
    for (uint32_t d : evicted) {
      dead[d] = true;
    }
    for (uint32_t h = 0; h < 4; ++h) {
      if (!dead[h]) {
        survivors.push_back(h);
      }
    }
    const auto out = core::redistributePartitions(parts, evicted,
                                                  /*compact=*/true);
    ASSERT_EQ(out.size(), survivors.size());
    for (size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(out[i].hostId, i);
      EXPECT_EQ(out[i].numHosts, survivors.size());
    }
    ASSERT_NO_THROW(core::validatePartitions(g, out));
    // Masters of survivors stay put; evicted-mastered vertices follow the
    // deterministic gid % numSurvivors rule.
    const auto after = masterMap(g, out);
    std::vector<uint32_t> denseOf(4, UINT32_MAX);
    for (size_t i = 0; i < survivors.size(); ++i) {
      denseOf[survivors[i]] = static_cast<uint32_t>(i);
    }
    for (uint64_t v = 0; v < g.numNodes(); ++v) {
      if (dead[before[v]]) {
        EXPECT_EQ(after[v], denseOf[survivors[v % survivors.size()]])
            << "vertex " << v;
      } else {
        EXPECT_EQ(after[v], denseOf[before[v]]) << "vertex " << v;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesGraphs, RedistributeTest,
    ::testing::Combine(::testing::Values("EEC", "HVC"),
                       ::testing::Values("er300", "star33", "grid6x5")),
    [](const ::testing::TestParamInfo<std::tuple<std::string, std::string>>&
           info) {
      return std::get<0>(info.param) + "_" + std::get<1>(info.param);
    });

TEST(RedistributeNonCompactTest, KeepsRankSpaceWithEmptyEvictedSlots) {
  const graph::CsrGraph g = graph::generateErdosRenyi(300, 1200, 17);
  const graph::GraphFile file = graph::GraphFile::fromCsr(g);
  PartitionerConfig config;
  config.numHosts = 4;
  const auto parts =
      core::partitionGraph(file, core::makePolicy("HVC"), config).partitions;

  const auto out = core::redistributePartitions(parts, {1}, /*compact=*/false);
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out[1].numLocalNodes(), 0u);
  EXPECT_EQ(out[1].numLocalEdges(), 0u);
  for (uint32_t h : {0u, 2u, 3u}) {
    EXPECT_EQ(out[h].hostId, h);
    EXPECT_EQ(out[h].numHosts, 4u);
    // Nothing may reference the evicted rank.
    EXPECT_TRUE(out[h].mirrorsOnHost[1].empty());
    EXPECT_TRUE(out[h].myMirrorsByOwner[1].empty());
  }
  // Still a structurally valid partition family of the original graph.
  ASSERT_NO_THROW(core::validatePartitions(g, out));
}

// ---------------------------------------------------------------------------
// Membership-aware analytics engine.
// ---------------------------------------------------------------------------

TEST(EngineMembershipTest, RedistributedSurvivorsMatchReferenceBfs) {
  const graph::CsrGraph g = graph::generateErdosRenyi(300, 1200, 17);
  const graph::GraphFile file = graph::GraphFile::fromCsr(g);
  PartitionerConfig config;
  config.numHosts = 4;
  const auto parts =
      core::partitionGraph(file, core::makePolicy("HVC"), config).partitions;
  const auto redistributed =
      core::redistributePartitions(parts, {1}, /*compact=*/false);
  const uint64_t source = analytics::maxOutDegreeNode(g);
  const auto expected = analytics::bfsReference(g, source);

  comm::Network net(4);
  net.setRecvTimeout(20.0);
  net.evict(1);
  std::vector<uint64_t> actual(g.numNodes(), analytics::kInfinity);
  std::mutex mutex;
  comm::runHosts(net, [&](comm::HostId me) {
    const DistGraph& part = redistributed[me];
    const auto values = analytics::bfsOnHost(net, me, part, source);
    std::lock_guard<std::mutex> lock(mutex);
    for (uint64_t lid = 0; lid < part.numMasters; ++lid) {
      actual[part.localToGlobal[lid]] = values[lid];
    }
  });
  EXPECT_EQ(actual, expected);
}

TEST(EngineMembershipTest, SyncSkipsDeadPeerInsteadOfBlocking) {
  // Partitions still carry metadata referencing the dead host (no
  // redistribution): the sync loops must skip it — the run completes on
  // the survivors instead of blocking, and every finite distance is a real
  // path length (possibly longer than the fault-free one).
  const graph::CsrGraph g = graph::generateErdosRenyi(300, 1200, 17);
  const graph::GraphFile file = graph::GraphFile::fromCsr(g);
  PartitionerConfig config;
  config.numHosts = 4;
  const auto parts =
      core::partitionGraph(file, core::makePolicy("HVC"), config).partitions;
  // A source mastered by a survivor, so the wavefront starts.
  ASSERT_GT(parts[0].numMasters, 0u);
  const uint64_t source = parts[0].localToGlobal[0];
  const auto reference = analytics::bfsReference(g, source);

  comm::Network net(4);
  net.setRecvTimeout(20.0);  // a blocked survivor would fail, not hang
  net.evict(1);
  std::mutex mutex;
  std::vector<std::pair<uint64_t, uint64_t>> masterValues;  // (gid, dist)
  comm::runHosts(net, [&](comm::HostId me) {
    const DistGraph& part = parts[me];
    const auto values = analytics::bfsOnHost(net, me, part, source);
    std::lock_guard<std::mutex> lock(mutex);
    for (uint64_t lid = 0; lid < part.numMasters; ++lid) {
      masterValues.emplace_back(part.localToGlobal[lid], values[lid]);
    }
  });
  EXPECT_FALSE(masterValues.empty());
  for (const auto& [gid, dist] : masterValues) {
    if (gid == source) {
      EXPECT_EQ(dist, 0u);
    }
    if (dist != analytics::kInfinity) {
      EXPECT_GE(dist, reference[gid]) << "node " << gid;
    }
  }
}

// ---------------------------------------------------------------------------
// Degraded driver, Path B: permanent crash in every phase.
// ---------------------------------------------------------------------------

using DegradedParam = std::tuple<uint32_t, std::string>;

class DegradedSweep : public ::testing::TestWithParam<DegradedParam> {};

TEST_P(DegradedSweep, PermanentLossYieldsValidThreeHostPartitions) {
  const auto& [crashPhase, policyName] = GetParam();
  const graph::CsrGraph g = graph::generateErdosRenyi(300, 1200, 17);
  const graph::GraphFile file = graph::GraphFile::fromCsr(g);
  const auto policy = core::makePolicy(policyName);

  TempDir dir;
  auto plan = std::make_shared<comm::FaultPlan>();
  plan->crashes.push_back(
      {/*host=*/1, crashPhase, /*opsIntoPhase=*/0, /*permanent=*/true});
  const PartitionerConfig config = degradedConfig(dir.path(), 4, plan);

  RecoveryReport report;
  const PartitionResult result =
      core::partitionGraphResilient(file, policy, config, &report);

  ASSERT_EQ(result.partitions.size(), 3u);
  EXPECT_EQ(report.finalNumHosts, 3u);
  EXPECT_EQ(report.attempts, 2u);
  ASSERT_EQ(report.failureKinds.size(), 1u);
  EXPECT_EQ(report.failureKinds[0], "HostFailure");
  ASSERT_EQ(report.evictions.size(), 1u);
  EXPECT_EQ(report.evictions[0].host, 1u);
  EXPECT_EQ(report.evictions[0].phase, crashPhase);
  EXPECT_EQ(report.evictions[0].epoch, 1u);
  EXPECT_FALSE(report.evictions[0].redistributed);
  // A phase-entry crash never leaves a complete phase-5 set, so the
  // survivors re-read the dead host's edge window (Path B).
  EXPECT_GT(report.bytesReRead, 0u);
  ASSERT_FALSE(report.adoptedRanges.empty());
  for (const auto& range : report.adoptedRanges) {
    EXPECT_EQ(range.evicted, 1u);
    EXPECT_NE(range.survivor, 1u);
    EXPECT_LE(range.edgeBegin, range.edgeEnd);
    EXPECT_LE(range.edgeEnd, g.numEdges());
  }

  // Union of masters covers every vertex exactly once, structure valid.
  masterMap(g, result.partitions);
  ASSERT_NO_THROW(core::validatePartitions(g, result.partitions));

  // Degraded analytics match the single-image reference.
  const uint64_t source = analytics::maxOutDegreeNode(g);
  EXPECT_EQ(analytics::runBfs(result.partitions, source),
            analytics::bfsReference(g, source));
  analytics::PageRankParams pr;
  pr.maxIterations = 30;
  pr.tolerance = 1e-9;  // fixed iteration count for exact comparability
  const auto expectedPr = analytics::pageRankReference(g, pr);
  const auto actualPr = analytics::runPageRank(result.partitions, pr);
  ASSERT_EQ(actualPr.size(), expectedPr.size());
  for (size_t v = 0; v < expectedPr.size(); ++v) {
    EXPECT_NEAR(actualPr[v], expectedPr[v], 1e-10) << "node " << v;
  }
}

std::vector<DegradedParam> degradedParams() {
  std::vector<DegradedParam> params;
  for (uint32_t phase = 1; phase <= 5; ++phase) {
    for (const char* policy : {"EEC", "HVC"}) {
      params.emplace_back(phase, policy);
    }
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(
    PhasesPolicies, DegradedSweep, ::testing::ValuesIn(degradedParams()),
    [](const ::testing::TestParamInfo<DegradedParam>& info) {
      return "p" + std::to_string(std::get<0>(info.param)) + "_" +
             std::get<1>(info.param);
    });

// ---------------------------------------------------------------------------
// Degraded driver edge cases.
// ---------------------------------------------------------------------------

TEST(DegradedTest, EvictingCollectiveRootDegradesCleanly) {
  // Host 0 roots every collective; its eviction must shift the root, not
  // deadlock the survivors.
  const graph::CsrGraph g = graph::generateErdosRenyi(250, 1000, 11);
  const graph::GraphFile file = graph::GraphFile::fromCsr(g);
  TempDir dir;
  auto plan = std::make_shared<comm::FaultPlan>();
  plan->crashes.push_back(
      {/*host=*/0, /*phase=*/3, /*opsIntoPhase=*/0, /*permanent=*/true});
  const PartitionerConfig config = degradedConfig(dir.path(), 4, plan);

  RecoveryReport report;
  const PartitionResult result = core::partitionGraphResilient(
      file, core::makePolicy("EEC"), config, &report);
  ASSERT_EQ(result.partitions.size(), 3u);
  ASSERT_EQ(report.evictions.size(), 1u);
  EXPECT_EQ(report.evictions[0].host, 0u);
  ASSERT_NO_THROW(core::validatePartitions(g, result.partitions));
  const uint64_t source = analytics::maxOutDegreeNode(g);
  EXPECT_EQ(analytics::runBfs(result.partitions, source),
            analytics::bfsReference(g, source));
}

TEST(DegradedTest, TwoHostsDegradeToSingleSurvivor) {
  const graph::CsrGraph g = graph::generateErdosRenyi(150, 600, 5);
  const graph::GraphFile file = graph::GraphFile::fromCsr(g);
  TempDir dir;
  auto plan = std::make_shared<comm::FaultPlan>();
  plan->crashes.push_back(
      {/*host=*/1, /*phase=*/2, /*opsIntoPhase=*/0, /*permanent=*/true});
  const PartitionerConfig config = degradedConfig(dir.path(), 2, plan);

  RecoveryReport report;
  const PartitionResult result = core::partitionGraphResilient(
      file, core::makePolicy("HVC"), config, &report);
  ASSERT_EQ(result.partitions.size(), 1u);
  EXPECT_EQ(report.finalNumHosts, 1u);
  EXPECT_EQ(result.partitions[0].numMasters, g.numNodes());
  ASSERT_NO_THROW(core::validatePartitions(g, result.partitions));
  const uint64_t source = analytics::maxOutDegreeNode(g);
  EXPECT_EQ(analytics::runBfs(result.partitions, source),
            analytics::bfsReference(g, source));
}

TEST(DegradedTest, TransientCrashNeverEvicts) {
  // degradedMode on but the crash is transient: classic recovery — same
  // bits as the fault-free run, full host set, no eviction.
  const graph::CsrGraph g = graph::generateErdosRenyi(200, 900, 3);
  const graph::GraphFile file = graph::GraphFile::fromCsr(g);
  const auto policy = core::makePolicy("EEC");
  PartitionerConfig cleanConfig;
  cleanConfig.numHosts = 4;
  const auto baseline = core::partitionGraph(file, policy, cleanConfig);

  TempDir dir;
  auto plan = std::make_shared<comm::FaultPlan>();
  plan->crashes.push_back(
      {/*host=*/1, /*phase=*/3, /*opsIntoPhase=*/0, /*permanent=*/false});
  const PartitionerConfig config = degradedConfig(dir.path(), 4, plan);

  RecoveryReport report;
  const PartitionResult recovered =
      core::partitionGraphResilient(file, policy, config, &report);
  EXPECT_EQ(report.attempts, 2u);
  EXPECT_TRUE(report.evictions.empty());
  EXPECT_EQ(report.finalNumHosts, 4u);
  expectBitIdentical(baseline.partitions, recovered.partitions);
}

TEST(DegradedTest, DegradedModeOffRethrowsPermanentLoss) {
  // Strictly opt-in: without degradedMode a permanent crash burns the
  // attempt budget (the host fast-fails every re-run) and rethrows.
  const graph::CsrGraph g = graph::generateErdosRenyi(100, 400, 5);
  const graph::GraphFile file = graph::GraphFile::fromCsr(g);
  PartitionerConfig config;
  config.numHosts = 4;
  auto plan = std::make_shared<comm::FaultPlan>();
  plan->crashes.push_back(
      {/*host=*/1, /*phase=*/2, /*opsIntoPhase=*/0, /*permanent=*/true});
  config.resilience.faultPlan = plan;
  config.resilience.maxRecoveryAttempts = 2;
  config.resilience.recvTimeoutSeconds = 20.0;

  RecoveryReport report;
  EXPECT_THROW(core::partitionGraphResilient(file, core::makePolicy("EEC"),
                                             config, &report),
               comm::HostFailure);
  EXPECT_EQ(report.attempts, 2u);
  EXPECT_TRUE(report.evictions.empty());
}

// ---------------------------------------------------------------------------
// Path A: phase-5 checkpoint redistribution via buddy replicas.
// ---------------------------------------------------------------------------

struct PathARun {
  uint64_t crashOps = 0;
  PartitionResult result;
  RecoveryReport report;
};

// Finds the crossing at which a permanent crash of host 0 in phase 5 lands
// in the final barrier AFTER every host checkpointed phase 5 (host 0 roots
// the barrier: by its release sends, every token — sent after the
// checkpoint write — has arrived). The scan keeps the LAST run that
// redistributed before the crash scans past the pipeline entirely; that
// crossing is host 0's final barrier send, where Path A is deterministic.
std::optional<PathARun> findPathARun(const graph::GraphFile& file,
                                     const core::PartitionPolicy& policy) {
  std::optional<PathARun> found;
  for (uint64_t ops = 1; ops < 800; ++ops) {
    TempDir dir;
    auto plan = std::make_shared<comm::FaultPlan>();
    plan->crashes.push_back(
        {/*host=*/0, /*phase=*/5, ops, /*permanent=*/true});
    const PartitionerConfig config = degradedConfig(dir.path(), 4, plan);
    PathARun run;
    run.crashOps = ops;
    run.result = core::partitionGraphResilient(file, policy, config,
                                               &run.report);
    if (run.report.evictions.empty()) {
      return found;  // crash never fired: scanned past the last crossing
    }
    if (run.report.evictions.size() == 1 &&
        run.report.evictions[0].redistributed) {
      found = std::move(run);
    }
  }
  return found;
}

class PathATest : public ::testing::Test {
 protected:
  static const graph::CsrGraph& testGraph() {
    static const graph::CsrGraph g = graph::generateErdosRenyi(150, 700, 9);
    return g;
  }
};

TEST_F(PathATest, RedistributesPhase5StateFromBuddyReplicas) {
  const graph::CsrGraph& g = testGraph();
  const graph::GraphFile file = graph::GraphFile::fromCsr(g);
  const auto policy = core::makePolicy("EEC");
  const auto run = findPathARun(file, policy);
  ASSERT_TRUE(run.has_value())
      << "no crossing of host 0 in the phase-5 barrier triggered Path A";

  const RecoveryReport& report = run->report;
  ASSERT_EQ(run->result.partitions.size(), 3u);
  EXPECT_EQ(report.finalNumHosts, 3u);
  ASSERT_EQ(report.evictions.size(), 1u);
  EXPECT_EQ(report.evictions[0].host, 0u);
  EXPECT_EQ(report.evictions[0].phase, 5u);
  EXPECT_TRUE(report.evictions[0].redistributed);
  EXPECT_FALSE(report.evictions[0].replicaLost);
  // Path A consumes replica bytes and re-reads no graph data.
  EXPECT_GT(report.replicaBytesRead, 0u);
  EXPECT_EQ(report.bytesReRead, 0u);
  EXPECT_TRUE(report.adoptedRanges.empty());

  // The result is exactly the deterministic redistribution of the
  // completed 4-host partitions.
  PartitionerConfig cleanConfig;
  cleanConfig.numHosts = 4;
  const auto baseline = core::partitionGraph(file, policy, cleanConfig);
  const auto expected =
      core::redistributePartitions(baseline.partitions, {0}, /*compact=*/true);
  expectBitIdentical(expected, run->result.partitions);
  ASSERT_NO_THROW(core::validatePartitions(g, run->result.partitions));
  const uint64_t source = analytics::maxOutDegreeNode(g);
  EXPECT_EQ(analytics::runBfs(run->result.partitions, source),
            analytics::bfsReference(g, source));
}

TEST_F(PathATest, BuddyDeathDuringRedistributionFallsBackToRepartition) {
  // The buddy of the already-dead host 0 (host 1 holds its replica) dies
  // during the redistribution round: its store — including host 0's
  // replica — is lost, Path A becomes infeasible (replicaLost) and the
  // driver completes with a full re-partition over the two survivors.
  const graph::CsrGraph& g = testGraph();
  const graph::GraphFile file = graph::GraphFile::fromCsr(g);
  const auto policy = core::makePolicy("EEC");
  const auto pathA = findPathARun(file, policy);
  ASSERT_TRUE(pathA.has_value());

  bool found = false;
  for (uint64_t ops = 0; ops <= 10 && !found; ++ops) {
    TempDir dir;
    auto plan = std::make_shared<comm::FaultPlan>();
    plan->crashes.push_back(
        {/*host=*/0, /*phase=*/5, pathA->crashOps, /*permanent=*/true});
    plan->crashes.push_back(
        {/*host=*/1, /*phase=*/0, ops, /*permanent=*/true});
    const PartitionerConfig config = degradedConfig(dir.path(), 4, plan);
    RecoveryReport report;
    PartitionResult result;
    try {
      result = core::partitionGraphResilient(file, policy, config, &report);
    } catch (const comm::HostFailure&) {
      continue;  // this crossing killed the run some other way
    }
    // Accept exactly the scenario under test: host 0 evicted first (its
    // Path A pending), host 1 dying mid-round, replica lost, degraded
    // completion on the two survivors.
    if (report.evictions.size() != 2 || report.evictions[0].host != 0 ||
        !report.evictions[0].replicaLost ||
        report.evictions[1].host != 1) {
      continue;
    }
    found = true;
    EXPECT_FALSE(report.evictions[0].redistributed);
    EXPECT_FALSE(report.evictions[1].redistributed);
    EXPECT_EQ(report.finalNumHosts, 2u);
    ASSERT_EQ(result.partitions.size(), 2u);
    ASSERT_NO_THROW(core::validatePartitions(g, result.partitions));
    // The survivors {2, 3} re-partition the original graph from scratch:
    // deterministic policy, so bit-identical to a clean two-host run.
    PartitionerConfig cleanConfig;
    cleanConfig.numHosts = 2;
    const auto baseline = core::partitionGraph(file, policy, cleanConfig);
    expectBitIdentical(baseline.partitions, result.partitions);
    const uint64_t source = analytics::maxOutDegreeNode(g);
    EXPECT_EQ(analytics::runBfs(result.partitions, source),
              analytics::bfsReference(g, source));
  }
  EXPECT_TRUE(found)
      << "no crossing of host 1 in the redistribution round produced the "
         "replica-lost fallback";
}

// ---------------------------------------------------------------------------
// Driver counters mirror the RecoveryReport.
// ---------------------------------------------------------------------------

// Runs `config` with a sink attached and checks every driver counter
// against the report field it mirrors. `heals` is the number of healing
// partition events the plan fires (the report has no field for it).
RecoveryReport expectCountersMatchReport(const graph::GraphFile& file,
                                         const core::PartitionPolicy& policy,
                                         const PartitionerConfig& config,
                                         uint64_t heals) {
  obs::ScopedObservability obsScope;
  RecoveryReport report;
  core::partitionGraphResilient(file, policy, config, &report);
  const auto snap = obsScope.metrics().snapshot();
  EXPECT_EQ(snap.counterValue("cusp.partitioner.evictions"),
            report.evictions.size());
  EXPECT_EQ(snap.counterValue("cusp.partitioner.bytes_reread"),
            report.bytesReRead);
  EXPECT_EQ(snap.counterValue("cusp.partitioner.replica_bytes_read"),
            report.replicaBytesRead);
  EXPECT_EQ(snap.counterValue("cusp.net.partition.events"),
            report.partitionEvents);
  EXPECT_EQ(snap.counterValue("cusp.net.partition.heals"), heals);
  EXPECT_EQ(snap.counterValue("cusp.net.partition.rejoins"),
            report.rejoinedHosts.size());
  // The driver's series is the unlabelled one; Network counts the same
  // name per host.
  EXPECT_EQ(snap.counterValue("cusp.net.partition.quorum_evictions"),
            report.fencedHosts.size() - report.rejoinedHosts.size());
  EXPECT_EQ(snap.counterValue("cusp.mem.pressure_events"),
            report.memoryPressureEvents);
  return report;
}

TEST(DriverCountersTest, PathAMatchesReport) {
  const graph::CsrGraph g = graph::generateErdosRenyi(150, 700, 9);
  const graph::GraphFile file = graph::GraphFile::fromCsr(g);
  const auto policy = core::makePolicy("EEC");
  const auto pathA = findPathARun(file, policy);
  ASSERT_TRUE(pathA.has_value());
  TempDir dir;
  auto plan = std::make_shared<comm::FaultPlan>();
  plan->crashes.push_back(
      {/*host=*/0, /*phase=*/5, pathA->crashOps, /*permanent=*/true});
  const RecoveryReport report = expectCountersMatchReport(
      file, policy, degradedConfig(dir.path(), 4, plan), 0);
  ASSERT_EQ(report.evictions.size(), 1u);
  EXPECT_TRUE(report.evictions[0].redistributed);
}

TEST(DriverCountersTest, PathBMatchesReport) {
  const graph::CsrGraph g = graph::generateErdosRenyi(300, 1200, 17);
  const graph::GraphFile file = graph::GraphFile::fromCsr(g);
  TempDir dir;
  auto plan = std::make_shared<comm::FaultPlan>();
  plan->crashes.push_back(
      {/*host=*/1, /*phase=*/3, /*opsIntoPhase=*/0, /*permanent=*/true});
  const RecoveryReport report = expectCountersMatchReport(
      file, core::makePolicy("EEC"), degradedConfig(dir.path(), 4, plan), 0);
  ASSERT_EQ(report.evictions.size(), 1u);
  EXPECT_GT(report.bytesReRead, 0u);
}

TEST(DriverCountersTest, QuorumRungsMatchReport) {
  const graph::CsrGraph g = graph::generateErdosRenyi(300, 1200, 17);
  const graph::GraphFile file = graph::GraphFile::fromCsr(g);
  const auto policy = core::makePolicy("EEC");
  for (const bool heals : {true, false}) {
    SCOPED_TRACE(heals ? "heal rejoin" : "quorum eviction");
    TempDir dir;
    auto plan = std::make_shared<comm::FaultPlan>();
    plan->partitions.push_back({/*groupOf=*/{0, 0, 0, 0, 1}, /*phase=*/3,
                                heals});
    const RecoveryReport report = expectCountersMatchReport(
        file, policy, degradedConfig(dir.path(), 5, plan), heals ? 1 : 0);
    EXPECT_EQ(report.partitionEvents, 1u);
    EXPECT_EQ(report.fencedHosts, (std::vector<uint32_t>{4}));
    EXPECT_EQ(report.evictions.size(), heals ? 0u : 1u);
  }
}

TEST(DriverCountersTest, MemoryLadderRungMatchesReport) {
  TempDir dir;
  const graph::CsrGraph g = testutil::testGraphCatalog()[5].graph;  // rmat8
  const graph::GraphFile file = graph::GraphFile::fromCsr(g);
  PartitionerConfig config;
  config.numHosts = 4;
  config.forceStreamingWindows = true;
  config.streamChunkEdges = 4096;
  config.memoryBudgetBytes = 1 << 20;
  config.resilience.enableCheckpoints = true;
  config.resilience.checkpointDir = dir.path() + "/ckpt";
  config.resilience.maxRecoveryAttempts = 1;
  auto plan = std::make_shared<support::MemoryFaultPlan>();
  plan->faults.push_back({support::MemoryFaultKind::kAllocFail,
                          "partition.chunk.h0", 0, 1, 0});
  config.resilience.memoryFaultPlan = plan;
  const RecoveryReport report =
      expectCountersMatchReport(file, core::makePolicy("EEC"), config, 0);
  EXPECT_EQ(report.memoryPressureEvents, 1u);
}

}  // namespace
}  // namespace cusp
