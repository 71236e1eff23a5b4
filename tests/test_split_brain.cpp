// Split-brain tolerance: link-level faults, quorum fencing and heal-time
// rejoin. Covers the fault model (asymmetric LinkFaults, timed
// PartitionEvents), the connectivity/suspicion machinery, the quorum rule
// in agreeMembership and on send/recv failure paths, the epoch write fence
// guarding the checkpoint store, and the resilient driver end to end:
//
//  * under an injected majority/minority partition with heal, the majority
//    completes and the result is bit-identical to a clean run (EEC is
//    deterministic), the minority host exits via MinorityPartition with
//    zero post-fence checkpoint writes, and the healed host rejoins;
//  * an even split fails fast deterministically — neither side proceeds;
//  * without heal the minority is evicted through the shared degraded
//    machinery and the survivors' output is a valid partition family.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
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
#include "support/serialize.h"
#include "support/storage.h"
#include "testutil.h"

namespace cusp {
namespace {

using core::DistGraph;
using core::PartitionerConfig;
using core::PartitionResult;
using core::RecoveryReport;

class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/cusp_splitbrain_XXXXXX";
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

// Master host of every global vertex; asserts single-mastering on the way.
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

support::SendBuffer makePayload(size_t bytes) {
  support::SendBuffer buf;
  support::serialize(buf, std::vector<uint8_t>(bytes, 0xAB));
  return buf;
}

// ---------------------------------------------------------------------------
// Link-level fault model.
// ---------------------------------------------------------------------------

TEST(LinkFaultTest, SeededDropLotteryIsDeterministicAndCounted) {
  comm::FaultPlan plan;
  plan.linkFaults.push_back(
      {/*src=*/0, /*dst=*/1, /*dropRate=*/0.5, /*degradeFactor=*/1.0,
       /*fromPhase=*/0});

  auto runOnce = [&plan]() {
    comm::Network net(2);
    net.setFaultInjector(std::make_shared<comm::FaultInjector>(plan));
    std::vector<bool> delivered;
    for (int i = 0; i < 200; ++i) {
      delivered.push_back(
          net.send(0, 1, comm::kTagGeneric, makePayload(16)));
    }
    const uint64_t drops = net.faultInjector()->stats().linkDropped;
    return std::make_pair(delivered, drops);
  };

  const auto [first, firstDrops] = runOnce();
  const auto [second, secondDrops] = runOnce();
  EXPECT_EQ(first, second) << "link drop lottery is not deterministic";
  EXPECT_EQ(firstDrops, secondDrops);
  const uint64_t observedDrops = static_cast<uint64_t>(
      std::count(first.begin(), first.end(), false));
  EXPECT_EQ(firstDrops, observedDrops);
  EXPECT_GT(observedDrops, 0u);        // a 0.5 link drops something...
  EXPECT_LT(observedDrops, 200u);      // ...but not everything
}

TEST(LinkFaultTest, DegradeFactorMultipliesModeledCommCost) {
  comm::FaultPlan plan;
  plan.linkFaults.push_back(
      {/*src=*/0, /*dst=*/1, /*dropRate=*/0.0, /*degradeFactor=*/4.0,
       /*fromPhase=*/0});
  comm::NetworkCostModel cost;
  cost.bandwidthMBps = 1.0;  // 1 byte = 1 microsecond
  comm::Network net(3, cost);
  net.setFaultInjector(std::make_shared<comm::FaultInjector>(plan));

  // Identical payloads: host 0 crosses the degraded link, host 2 a clean
  // one. The degraded sender is charged exactly the factor more.
  net.send(0, 1, comm::kTagGeneric, makePayload(1000));
  net.send(2, 1, comm::kTagGeneric, makePayload(1000));
  EXPECT_GT(net.modeledCommSeconds(2), 0.0);
  EXPECT_DOUBLE_EQ(net.modeledCommSeconds(0),
                   4.0 * net.modeledCommSeconds(2));
}

TEST(LinkFaultTest, SeveredLinkIsUnreachableAndDropsEverything) {
  comm::FaultPlan plan;
  plan.linkFaults.push_back(
      {/*src=*/0, /*dst=*/1, /*dropRate=*/1.0, /*degradeFactor=*/1.0,
       /*fromPhase=*/0});
  comm::Network net(3);
  net.setFaultInjector(std::make_shared<comm::FaultInjector>(plan));

  EXPECT_FALSE(net.linkReachable(0, 1));  // severed direction
  EXPECT_TRUE(net.linkReachable(1, 0));   // asymmetric: reverse is clean
  EXPECT_TRUE(net.linkReachable(0, 2));
  for (int i = 0; i < 5; ++i) {
    EXPECT_FALSE(net.send(0, 1, comm::kTagGeneric, makePayload(8)));
  }
  EXPECT_EQ(net.faultInjector()->stats().linkDropped, 5u);
}

TEST(LinkFaultTest, SuspicionFromFailedSendsClearsOnHeal) {
  // An ordinary (non-severed) lossy link exhausts retries: the sender
  // records suspicion against the peer but does NOT fence (the injector
  // does not confirm a cut). clearSuspicions() models heal-time rejoin
  // dropping the stale evidence.
  comm::FaultPlan plan;
  plan.messageFaults.push_back({/*src=*/0, /*dst=*/1, comm::kAnyTag,
                                /*occurrence=*/0, /*repeat=*/100,
                                comm::FaultAction::kDrop});
  comm::Network net(3);
  net.setFaultInjector(std::make_shared<comm::FaultInjector>(plan));
  const auto fence = std::make_shared<support::WriteFence>();
  net.setWriteFence(fence);

  EXPECT_THROW(net.sendReliable(0, 1, comm::kTagGeneric, makePayload(8)),
               comm::SendRetriesExhausted);
  EXPECT_FALSE(net.linkReachable(0, 1));  // suspicion recorded
  EXPECT_FALSE(fence->isFenced(0));  // but no fence: no cut
  net.clearSuspicions();
  EXPECT_TRUE(net.linkReachable(0, 1));
}

TEST(PartitionEventTest, ActiveCutDropsCrossGroupAndHealRestores) {
  comm::FaultPlan plan;
  plan.partitions.push_back(
      {/*groupOf=*/{0, 0, 1}, /*phase=*/0, /*heals=*/true});
  comm::FaultInjector injector(plan);

  EXPECT_TRUE(injector.linkSevered(0, 2));
  EXPECT_TRUE(injector.linkSevered(2, 1));
  EXPECT_FALSE(injector.linkSevered(0, 1));  // same group
  const auto pending = injector.unresolvedPartition();
  ASSERT_TRUE(pending.has_value());
  injector.resolvePartition(*pending);
  EXPECT_FALSE(injector.unresolvedPartition().has_value());
  EXPECT_FALSE(injector.linkSevered(0, 2));  // healed: connectivity back

  // Without heal the cut is permanent even after resolution.
  comm::FaultPlan permanent = plan;
  permanent.partitions[0].heals = false;
  comm::FaultInjector stays(permanent);
  stays.resolvePartition(*stays.unresolvedPartition());
  EXPECT_TRUE(stays.linkSevered(0, 2));
  EXPECT_FALSE(stays.unresolvedPartition().has_value());
}

TEST(PartitionEventTest, CrossGroupSendsCountAsPartitionDrops) {
  comm::FaultPlan plan;
  plan.partitions.push_back(
      {/*groupOf=*/{0, 1}, /*phase=*/0, /*heals=*/false});
  comm::Network net(2);
  net.setFaultInjector(std::make_shared<comm::FaultInjector>(plan));
  EXPECT_FALSE(net.send(0, 1, comm::kTagGeneric, makePayload(8)));
  EXPECT_EQ(net.faultInjector()->stats().partitionDropped, 1u);
}

// ---------------------------------------------------------------------------
// Retry backoff jitter.
// ---------------------------------------------------------------------------

TEST(RetryJitterTest, JitteredBackoffIsDeterministicAndBounded) {
  comm::FaultPlan plan;
  plan.messageFaults.push_back({/*src=*/0, /*dst=*/1, comm::kTagGeneric,
                                /*occurrence=*/0, /*repeat=*/2,
                                comm::FaultAction::kDrop});
  auto runOnce = [&plan]() {
    comm::Network net(2);
    net.setFaultInjector(std::make_shared<comm::FaultInjector>(plan));
    net.sendReliable(0, 1, comm::kTagGeneric, makePayload(8));
    return net.modeledCommSeconds(0);
  };
  const double first = runOnce();
  const double second = runOnce();
  EXPECT_EQ(first, second) << "backoff jitter is not deterministic";
  // Two retries at backoffMicros=100: un-jittered backoff would be exactly
  // 100us + 200us; decorrelated jitter scales each step by [0.5, 1.5).
  EXPECT_GE(first, 150e-6 * 0.999);
  EXPECT_LT(first, 450e-6);
}

// ---------------------------------------------------------------------------
// Quorum rule.
// ---------------------------------------------------------------------------

TEST(QuorumTest, SeveredOnlyPeerFencesMinoritySender) {
  // Two hosts, one severed direction: the sender's component is itself,
  // which can never be a strict majority of two — fail fast, fenced.
  comm::FaultPlan plan;
  plan.linkFaults.push_back(
      {/*src=*/0, /*dst=*/1, /*dropRate=*/1.0, /*degradeFactor=*/1.0,
       /*fromPhase=*/0});
  comm::Network net(2);
  net.setFaultInjector(std::make_shared<comm::FaultInjector>(plan));
  const auto fence = std::make_shared<support::WriteFence>();
  net.setWriteFence(fence);

  try {
    net.sendReliable(0, 1, comm::kTagGeneric, makePayload(8));
    FAIL() << "sendReliable over a severed link did not throw";
  } catch (const comm::MinorityPartition& e) {
    EXPECT_EQ(e.host, 0u);
    EXPECT_EQ(e.componentSize, 1u);
    EXPECT_EQ(e.numAlive, 2u);
    EXPECT_GE(e.epoch, 1u);
  }
  EXPECT_TRUE(fence->isFenced(0));
  EXPECT_GE(fence->epoch(), 1u);
}

TEST(QuorumTest, MajorityAgreesAndEvictsUnreachableMinority) {
  // Five hosts, {0,1,2,3} | {4}: every majority member idempotently evicts
  // the cut-off host and the agreement runs among the survivors; the
  // minority host fences itself and throws. Threads are joined manually
  // (not runHosts) so the minority's throw cannot abort the majority round.
  comm::FaultPlan plan;
  plan.partitions.push_back(
      {/*groupOf=*/{0, 0, 0, 0, 1}, /*phase=*/0, /*heals=*/false});
  comm::Network net(5);
  net.setFaultInjector(std::make_shared<comm::FaultInjector>(plan));
  const auto fence = std::make_shared<support::WriteFence>();
  net.setWriteFence(fence);

  std::vector<std::optional<comm::MembershipView>> views(5);
  std::vector<std::exception_ptr> errors(5);
  std::vector<std::thread> threads;
  for (uint32_t h = 0; h < 5; ++h) {
    threads.emplace_back([&, h] {
      try {
        views[h] = net.agreeMembership(h);
      } catch (...) {
        errors[h] = std::current_exception();
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }

  for (uint32_t h = 0; h < 4; ++h) {
    ASSERT_TRUE(views[h].has_value()) << "majority host " << h << " failed";
    EXPECT_EQ(views[h]->epoch, 1u);
    EXPECT_EQ(views[h]->numAlive(), 4u);
    EXPECT_FALSE(views[h]->isAlive(4));
  }
  ASSERT_TRUE(errors[4] != nullptr) << "minority host proceeded";
  try {
    std::rethrow_exception(errors[4]);
  } catch (const comm::MinorityPartition& e) {
    EXPECT_EQ(e.host, 4u);
  }
  EXPECT_FALSE(net.isAlive(4));
  EXPECT_TRUE(fence->isFenced(4));
  EXPECT_GE(fence->epoch(), 1u);
}

TEST(QuorumTest, EvenSplitTieFailsFastOnEverySide) {
  // 2|2: neither component is a strict majority, so EVERY host must fence
  // and fail fast — two proceeding halves would be split-brain. The tie
  // path throws before any exchange, so the calls run sequentially.
  comm::FaultPlan plan;
  plan.partitions.push_back(
      {/*groupOf=*/{0, 0, 1, 1}, /*phase=*/0, /*heals=*/false});
  comm::Network net(4);
  net.setFaultInjector(std::make_shared<comm::FaultInjector>(plan));
  const auto fence = std::make_shared<support::WriteFence>();
  net.setWriteFence(fence);

  for (uint32_t h = 0; h < 4; ++h) {
    try {
      net.agreeMembership(h);
      FAIL() << "tie-side host " << h << " proceeded";
    } catch (const comm::MinorityPartition& e) {
      EXPECT_EQ(e.host, h);
      EXPECT_EQ(e.componentSize, 2u);
      EXPECT_EQ(e.numAlive, 4u);
    }
    EXPECT_TRUE(fence->isFenced(h));
    EXPECT_TRUE(net.isAlive(h));  // fenced, not evicted: nobody had quorum
  }
}

TEST(QuorumTest, EvictPurgesDeadHostsBacklogAndDupFilterChannels) {
  comm::Network net(3);
  // An injector makes sends carry dup-filter sequence numbers, so channel
  // state materializes.
  net.setFaultInjector(
      std::make_shared<comm::FaultInjector>(comm::FaultPlan{}));

  ASSERT_TRUE(net.send(1, 0, comm::kTagGeneric, makePayload(64)));
  ASSERT_TRUE(net.send(1, 0, comm::kTagGeneric, makePayload(64)));
  ASSERT_TRUE(net.send(2, 0, comm::kTagGeneric, makePayload(64)));
  const comm::Message got = net.recv(0, comm::kTagGeneric);
  EXPECT_EQ(got.from, 1u);  // FIFO: host 1 sent first
  EXPECT_EQ(net.dupFilterChannels(0), 2u);  // channels from hosts 1 and 2
  EXPECT_GT(net.mailboxBacklogBytes(), 0u);

  net.evict(1);
  // Host 1's queued message and channel state are gone; host 2's remain.
  EXPECT_EQ(net.dupFilterChannels(0), 1u);
  const auto next = net.tryRecv(0, comm::kTagGeneric);
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(next->from, 2u);
  EXPECT_FALSE(net.tryRecv(0, comm::kTagGeneric).has_value());
  EXPECT_EQ(net.mailboxBacklogBytes(), 0u);
}

// ---------------------------------------------------------------------------
// Epoch write fence at the checkpoint store.
// ---------------------------------------------------------------------------

TEST(WriteFenceTest, FencedHostCheckpointWritesRefusedBeforeAnyIo) {
  TempDir dir;
  support::WriteFence fence;
  fence.advance(1);
  fence.fence(1);

  const support::SendBuffer payload = makePayload(256);
  {
    // A wildcard write fault would fire on the FIRST write op reaching the
    // storage seam; it never firing proves the refusal happens pre-I/O.
    support::StorageFaultPlan seamPlan;
    seamPlan.faults.push_back({support::StorageFaultKind::kWriteFail,
                               /*pathSubstring=*/"", /*occurrence=*/0,
                               /*repeat=*/100, /*tornBytes=*/0});
    support::ScopedStorageFaults seam(seamPlan);
    try {
      core::saveCheckpoint(dir.path(), /*host=*/1, /*numHosts=*/4,
                           /*phase=*/3, payload, &fence);
      FAIL() << "fenced checkpoint write was not refused";
    } catch (const support::StorageError& e) {
      EXPECT_EQ(e.kind, support::StorageError::Kind::kWriteFailed);
    }
    // The buddy replica is the fenced OWNER's write too: also refused.
    EXPECT_THROW(core::saveCheckpointReplica(dir.path(), /*owner=*/1,
                                             /*numHosts=*/4, /*phase=*/3,
                                             payload, &fence),
                 support::StorageError);
    EXPECT_EQ(seam.stats().writeFailures, 0u)
        << "a fenced write reached the storage seam";
  }
  EXPECT_EQ(fence.fencedWriteAttempts(), 2u);
  // Zero debris: no checkpoint, no tmp, no quarantine.
  for (const auto& entry : std::filesystem::directory_iterator(dir.path())) {
    ADD_FAILURE() << "fenced write left " << entry.path();
  }

  // An unfenced host writes normally while host 1 is fenced.
  core::saveCheckpoint(dir.path(), /*host=*/0, /*numHosts=*/4, /*phase=*/3,
                       payload, &fence);
  EXPECT_TRUE(core::loadCheckpoint(dir.path(), 0, 4, 3).has_value());

  // Heal-time rejoin lifts the fence; the host can write again.
  fence.lift(1);
  core::saveCheckpoint(dir.path(), /*host=*/1, /*numHosts=*/4, /*phase=*/3,
                       payload, &fence);
  EXPECT_TRUE(core::loadCheckpoint(dir.path(), 1, 4, 3).has_value());
  EXPECT_EQ(fence.fencedWriteAttempts(), 2u);  // unchanged after lift
}

// ---------------------------------------------------------------------------
// Fault-plan projection after evictions.
// ---------------------------------------------------------------------------

TEST(RemapFaultPlanTest, LinkFaultsRemapAndDropWithEvictedEndpoints) {
  comm::FaultPlan plan;
  plan.linkFaults.push_back({/*src=*/0, /*dst=*/3, 0.5, 2.0, /*fromPhase=*/1});
  plan.linkFaults.push_back({/*src=*/1, /*dst=*/2, 1.0, 1.0, /*fromPhase=*/0});

  // Evict host 1: survivors[newRank] = {0, 2, 3}.
  const comm::FaultPlan out = comm::remapFaultPlan(plan, {0, 2, 3});
  ASSERT_EQ(out.linkFaults.size(), 1u);  // the 1 -> 2 fault died with host 1
  EXPECT_EQ(out.linkFaults[0].src, 0u);
  EXPECT_EQ(out.linkFaults[0].dst, 2u);  // old host 3 is new rank 2
  EXPECT_DOUBLE_EQ(out.linkFaults[0].dropRate, 0.5);
  EXPECT_DOUBLE_EQ(out.linkFaults[0].degradeFactor, 2.0);
  EXPECT_EQ(out.linkFaults[0].fromPhase, 1u);
}

TEST(RemapFaultPlanTest, PartitionKeptWhileTwoGroupsSurvive) {
  comm::FaultPlan plan;
  plan.partitions.push_back(
      {/*groupOf=*/{0, 1, 0, 1}, /*phase=*/2, /*heals=*/true});

  // Evict host 1: groups {0, 0, 1} survive on ranks {0, 2, 3} — two sides
  // remain, so the event is kept and rebuilt over survivor ranks.
  const comm::FaultPlan kept = comm::remapFaultPlan(plan, {0, 2, 3});
  ASSERT_EQ(kept.partitions.size(), 1u);
  EXPECT_EQ(kept.partitions[0].groupOf,
            (std::vector<uint8_t>{0, 0, 1}));
  EXPECT_EQ(kept.partitions[0].phase, 2u);
  EXPECT_TRUE(kept.partitions[0].heals);

  // Evict hosts 1 and 3: only group 0 survives — a partition needs two
  // sides, so the event is dropped.
  const comm::FaultPlan dropped = comm::remapFaultPlan(plan, {0, 2});
  EXPECT_TRUE(dropped.partitions.empty());
}

// ---------------------------------------------------------------------------
// Resilient driver end to end.
// ---------------------------------------------------------------------------

TEST(SplitBrainDriverTest, HealedPartitionRejoinsAndMatchesCleanRun) {
  const graph::CsrGraph g = graph::generateErdosRenyi(300, 1200, 17);
  const graph::GraphFile file = graph::GraphFile::fromCsr(g);
  const auto policy = core::makePolicy("EEC");

  PartitionerConfig clean;
  clean.numHosts = 5;
  const PartitionResult expected = core::partitionGraph(file, policy, clean);

  TempDir dir;
  auto plan = std::make_shared<comm::FaultPlan>();
  plan->partitions.push_back(
      {/*groupOf=*/{0, 0, 0, 0, 1}, /*phase=*/3, /*heals=*/true});
  const PartitionerConfig config = degradedConfig(dir.path(), 5, plan);

  RecoveryReport report;
  const PartitionResult result =
      core::partitionGraphResilient(file, policy, config, &report);

  ASSERT_EQ(result.partitions.size(), 5u);
  EXPECT_EQ(report.finalNumHosts, 5u);
  EXPECT_EQ(report.attempts, 2u);
  EXPECT_EQ(report.partitionEvents, 1u);
  EXPECT_EQ(report.fencedHosts, (std::vector<uint32_t>{4}));
  EXPECT_EQ(report.rejoinedHosts, (std::vector<uint32_t>{4}));
  EXPECT_TRUE(report.evictions.empty());
  // Zero post-fence checkpoint writes: the fence refused nothing because
  // the fenced host failed fast before ever reaching its next checkpoint.
  EXPECT_EQ(report.fencedWriteAttempts, 0u);

  // Deterministic policy, full membership after heal: bit-identical.
  expectBitIdentical(expected.partitions, result.partitions);
}

TEST(SplitBrainDriverTest, UnhealedPartitionEvictsMinorityAndCompletes) {
  const graph::CsrGraph g = graph::generateErdosRenyi(300, 1200, 17);
  const graph::GraphFile file = graph::GraphFile::fromCsr(g);
  const auto policy = core::makePolicy("EEC");

  TempDir dir;
  auto plan = std::make_shared<comm::FaultPlan>();
  plan->partitions.push_back(
      {/*groupOf=*/{0, 0, 0, 0, 1}, /*phase=*/3, /*heals=*/false});
  const PartitionerConfig config = degradedConfig(dir.path(), 5, plan);

  RecoveryReport report;
  const PartitionResult result =
      core::partitionGraphResilient(file, policy, config, &report);

  ASSERT_EQ(result.partitions.size(), 4u);
  EXPECT_EQ(report.finalNumHosts, 4u);
  EXPECT_EQ(report.partitionEvents, 1u);
  EXPECT_EQ(report.fencedHosts, (std::vector<uint32_t>{4}));
  EXPECT_TRUE(report.rejoinedHosts.empty());
  ASSERT_EQ(report.evictions.size(), 1u);
  EXPECT_EQ(report.evictions[0].host, 4u);

  masterMap(g, result.partitions);
  ASSERT_NO_THROW(core::validatePartitions(g, result.partitions));
  const uint64_t source = analytics::maxOutDegreeNode(g);
  EXPECT_EQ(analytics::runBfs(result.partitions, source),
            analytics::bfsReference(g, source));
}

TEST(SplitBrainDriverTest, EvenSplitFailsFastWithoutTornState) {
  const graph::CsrGraph g = graph::generateErdosRenyi(300, 1200, 17);
  const graph::GraphFile file = graph::GraphFile::fromCsr(g);
  const auto policy = core::makePolicy("EEC");

  TempDir dir;
  auto plan = std::make_shared<comm::FaultPlan>();
  plan->partitions.push_back(
      {/*groupOf=*/{0, 0, 1, 1}, /*phase=*/2, /*heals=*/true});
  const PartitionerConfig config = degradedConfig(dir.path(), 4, plan);

  RecoveryReport report;
  EXPECT_THROW(core::partitionGraphResilient(file, policy, config, &report),
               comm::MinorityPartition);
  EXPECT_EQ(report.partitionEvents, 1u);
  // Every write that landed was an unfenced pre-cut checkpoint: the fence
  // refused nothing because no fenced host survived to attempt a write,
  // and the durable-commit protocol left no torn debris behind.
  EXPECT_EQ(report.fencedWriteAttempts, 0u);
  for (const auto& entry : std::filesystem::directory_iterator(dir.path())) {
    const std::string name = entry.path().filename().string();
    EXPECT_EQ(name.find(".tmp"), std::string::npos) << name;
    EXPECT_EQ(name.find(".quarantined"), std::string::npos) << name;
  }
}

TEST(SplitBrainDriverTest, HealWithCompletePhase5StateRejoinsByRedistribution) {
  // A complete phase-5 checkpoint set (from a prior clean run over the
  // same directory) lets heal-time rejoin skip the pipeline entirely: the
  // healed cluster reloads everyone's final state and runs one
  // redistribution round — Path A with zero dead ranks.
  const graph::CsrGraph g = graph::generateErdosRenyi(300, 1200, 17);
  const graph::GraphFile file = graph::GraphFile::fromCsr(g);
  const auto policy = core::makePolicy("EEC");

  TempDir dir;
  const PartitionerConfig warmup = degradedConfig(dir.path(), 5, nullptr);
  const PartitionResult expected =
      core::partitionGraphResilient(file, policy, warmup);
  ASSERT_EQ(expected.partitions.size(), 5u);

  auto plan = std::make_shared<comm::FaultPlan>();
  plan->partitions.push_back(
      {/*groupOf=*/{0, 0, 0, 0, 1}, /*phase=*/0, /*heals=*/true});
  const PartitionerConfig config = degradedConfig(dir.path(), 5, plan);

  RecoveryReport report;
  const PartitionResult result =
      core::partitionGraphResilient(file, policy, config, &report);

  ASSERT_EQ(result.partitions.size(), 5u);
  EXPECT_EQ(report.finalNumHosts, 5u);
  EXPECT_EQ(report.partitionEvents, 1u);
  EXPECT_EQ(report.rejoinedHosts, (std::vector<uint32_t>{4}));
  EXPECT_TRUE(report.evictions.empty());
  expectBitIdentical(expected.partitions, result.partitions);
}

// Every file under `dir`, keyed by its path relative to `dir`.
std::map<std::string, std::vector<uint8_t>> filesUnder(const std::string& dir) {
  std::map<std::string, std::vector<uint8_t>> files;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) {
      std::ifstream in(entry.path(), std::ios::binary);
      files[std::filesystem::relative(entry.path(), dir).string()] =
          std::vector<uint8_t>(std::istreambuf_iterator<char>(in), {});
    }
  }
  return files;
}

TEST(SplitBrainDriverTest, ConcurrentRunsNeverShareAWriteFence) {
  // Two degraded runs in one process: one resolves an unhealed partition
  // (its quorum rung fences host 4 and advances its fence epoch), the other
  // runs clean. The clean run must write exactly what it writes alone: no
  // foreign epoch stamped into its headers, no write refused by a fence it
  // never raised.
  const graph::CsrGraph g = graph::generateErdosRenyi(300, 1200, 17);
  const graph::GraphFile file = graph::GraphFile::fromCsr(g);
  const auto policy = core::makePolicy("EEC");
  auto plan = std::make_shared<comm::FaultPlan>();
  plan->partitions.push_back(
      {/*groupOf=*/{0, 0, 0, 0, 1}, /*phase=*/3, /*heals=*/false});

  TempDir soloDir;
  core::partitionGraphResilient(file, policy,
                                degradedConfig(soloDir.path(), 5, nullptr));
  const auto solo = filesUnder(soloDir.path());
  ASSERT_FALSE(solo.empty());

  for (int repeat = 0; repeat < 4; ++repeat) {
    SCOPED_TRACE("repeat " + std::to_string(repeat));
    TempDir cutDir;
    TempDir cleanDir;
    RecoveryReport cutReport;
    RecoveryReport cleanReport;
    std::exception_ptr cutError;
    std::thread cut([&] {
      try {
        core::partitionGraphResilient(
            file, policy, degradedConfig(cutDir.path(), 5, plan), &cutReport);
      } catch (...) {
        cutError = std::current_exception();
      }
    });
    core::partitionGraphResilient(
        file, policy, degradedConfig(cleanDir.path(), 5, nullptr),
        &cleanReport);
    cut.join();
    ASSERT_EQ(cutError, nullptr);
    EXPECT_EQ(cutReport.fencedHosts, (std::vector<uint32_t>{4}));

    EXPECT_EQ(cleanReport.fencedWriteAttempts, 0u);
    EXPECT_EQ(cleanReport.checkpointWriteFailures, 0u);
    const auto clean = filesUnder(cleanDir.path());
    ASSERT_EQ(clean.size(), solo.size());
    for (const auto& [name, bytes] : solo) {
      const auto it = clean.find(name);
      ASSERT_NE(it, clean.end()) << name;
      EXPECT_TRUE(it->second == bytes) << name << " differs from the solo run";
    }
  }
}

// ---------------------------------------------------------------------------
// Seeded partition chaos sweep.
// ---------------------------------------------------------------------------

class SplitBrainFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SplitBrainFuzz, ChaosYieldsValidResultOrStructuredFailure) {
  const uint64_t seed = GetParam();
  const uint32_t hosts = 3 + static_cast<uint32_t>(seed % 3);  // 3..5
  const graph::CsrGraph g = graph::generateErdosRenyi(200, 800, 7);
  const graph::GraphFile file = graph::GraphFile::fromCsr(g);

  auto plan = std::make_shared<comm::FaultPlan>(comm::randomFaultPlan(
      seed, hosts, /*maxMessageFaults=*/3, /*maxCrashes=*/1,
      /*allowPermanent=*/true, /*maxSlowdowns=*/0, /*maxLinkFaults=*/2,
      /*allowPartition=*/true));
  TempDir dir;
  const PartitionerConfig config = degradedConfig(dir.path(), hosts, plan);

  RecoveryReport report;
  try {
    const PartitionResult result = core::partitionGraphResilient(
        file, core::makePolicy("EEC"), config, &report);
    ASSERT_EQ(result.partitions.size(), hosts - report.evictions.size());
    masterMap(g, result.partitions);
    ASSERT_NO_THROW(core::validatePartitions(g, result.partitions));
  } catch (const comm::MinorityPartition&) {
    // Even-split tie (or an isolated sender with no quorum): fail-fast by
    // contract — no partition set may be produced.
  } catch (const comm::HostFailure&) {
  } catch (const comm::NetworkStalled&) {
  } catch (const comm::SendRetriesExhausted&) {
  } catch (const comm::HostEvicted&) {
  } catch (const comm::MessageCorrupt&) {
  } catch (const comm::StragglerDeadline&) {
  } catch (const support::StorageError&) {
  }
  // Whatever the outcome, fenced hosts never wrote past their fence: the
  // count is surfaced for post-mortems, and a partitioned run that fenced
  // anyone must have classified the event.
  if (!report.fencedHosts.empty()) {
    EXPECT_GE(report.partitionEvents, 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SplitBrainFuzz,
                         ::testing::Range<uint64_t>(0, 16));

}  // namespace
}  // namespace cusp
