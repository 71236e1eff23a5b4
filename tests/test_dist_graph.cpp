// Tests of the DistGraph partition object, quality metrics and the
// validator itself (including that the validator actually catches broken
// partition sets — failure injection).
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>

#include "core/dist_graph.h"
#include "core/partitioner.h"
#include "core/policies.h"
#include "graph/generators.h"
#include "graph/graph_file.h"

namespace cusp::core {
namespace {

std::vector<DistGraph> makeParts(const graph::CsrGraph& g,
                                 const std::string& policy, uint32_t hosts) {
  const auto file = graph::GraphFile::fromCsr(g);
  PartitionerConfig config;
  config.numHosts = hosts;
  return partitionGraph(file, makePolicy(policy), config).partitions;
}

TEST(DistGraphTest, LocalGlobalMapping) {
  const auto g = graph::generateErdosRenyi(100, 600, 31);
  const auto parts = makeParts(g, "CVC", 4);
  for (const auto& part : parts) {
    for (uint64_t lid = 0; lid < part.numLocalNodes(); ++lid) {
      const auto back = part.localIdOf(part.globalId(lid));
      ASSERT_TRUE(back.has_value());
      EXPECT_EQ(*back, lid);
    }
    EXPECT_FALSE(part.localIdOf(g.numNodes() + 5).has_value());
    EXPECT_EQ(part.numLocalNodes(), part.numMasters + part.numMirrors());
  }
}

// localIdOf binary-searches the master half, then the mirror half.
DistGraph handBuilt(uint64_t numMasters, std::vector<uint64_t> localToGlobal) {
  DistGraph part;
  part.numGlobalNodes = 64;
  part.numMasters = numMasters;
  part.localToGlobal = std::move(localToGlobal);
  return part;
}

TEST(DistGraphTest, LocalIdOfWithoutMasters) {
  const DistGraph part = handBuilt(0, {2, 5, 9});
  EXPECT_EQ(part.localIdOf(2), 0u);
  EXPECT_EQ(part.localIdOf(5), 1u);
  EXPECT_EQ(part.localIdOf(9), 2u);
  EXPECT_FALSE(part.localIdOf(3).has_value());
}

TEST(DistGraphTest, LocalIdOfWithoutMirrors) {
  const DistGraph part = handBuilt(3, {1, 4, 7});
  EXPECT_EQ(part.localIdOf(1), 0u);
  EXPECT_EQ(part.localIdOf(7), 2u);
  EXPECT_FALSE(part.localIdOf(8).has_value());
}

TEST(DistGraphTest, LocalIdOfSearchesBothHalves) {
  // Mirrors 15 and 3 sort between and below the masters.
  const DistGraph part = handBuilt(2, {10, 20, 3, 15, 40});
  EXPECT_EQ(part.localIdOf(10), 0u);
  EXPECT_EQ(part.localIdOf(20), 1u);
  EXPECT_EQ(part.localIdOf(3), 2u);
  EXPECT_EQ(part.localIdOf(15), 3u);
  EXPECT_EQ(part.localIdOf(40), 4u);
  EXPECT_FALSE(part.localIdOf(12).has_value());  // between the masters
}

TEST(DistGraphTest, LocalIdOfAbsentIds) {
  const DistGraph part = handBuilt(2, {10, 20, 3, 15, 40});
  for (uint64_t gid : {0u, 4u, 21u, 41u, 63u, 1000u}) {
    EXPECT_FALSE(part.localIdOf(gid).has_value()) << gid;
  }
  EXPECT_FALSE(DistGraph{}.localIdOf(0).has_value());
}

TEST(DistGraphTest, EdgesWithGlobalIdsMatchesInput) {
  const auto g = graph::generateErdosRenyi(150, 900, 37);
  const auto parts = makeParts(g, "HVC", 3);
  auto expected = g.toEdges();
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(gatherAllEdges(parts), expected);
}

TEST(QualityTest, SingleHostIsReplicationFreeAndBalanced) {
  const auto g = graph::generateErdosRenyi(100, 500, 41);
  const auto parts = makeParts(g, "EEC", 1);
  const auto q = computeQuality(parts);
  EXPECT_DOUBLE_EQ(q.avgReplicationFactor, 1.0);
  EXPECT_DOUBLE_EQ(q.nodeImbalance, 1.0);
  EXPECT_DOUBLE_EQ(q.edgeImbalance, 1.0);
  EXPECT_EQ(q.totalMasters, g.numNodes());
}

TEST(QualityTest, VertexCutReplicatesMoreThanItsEdgeCutSibling) {
  // HVC redirects hub edges to destination masters, creating mirrors; EEC
  // on the same graph replicates only destinations.
  const auto g = graph::generateWebCrawl(
      {.numNodes = 2000, .avgOutDegree = 10.0, .seed = 43});
  const auto eec = computeQuality(makeParts(g, "EEC", 4));
  EXPECT_GE(eec.avgReplicationFactor, 1.0);
  EXPECT_LE(eec.avgReplicationFactor, 4.0);
  const auto hvc = computeQuality(makeParts(g, "HVC", 4));
  EXPECT_GE(hvc.avgReplicationFactor, 1.0);
}

TEST(QualityTest, EmptyPartitionsListYieldsZeros) {
  const auto q = computeQuality(std::span<const DistGraph>{});
  EXPECT_EQ(q.totalProxies, 0u);
  EXPECT_DOUBLE_EQ(q.avgReplicationFactor, 0.0);
}

// ---------------------------------------------------------------------------
// Partition serialization (.cdg).
// ---------------------------------------------------------------------------

class DistGraphFiles : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("cusp_cdg_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }
  std::filesystem::path dir_;
};

TEST_F(DistGraphFiles, SaveLoadRoundTripsEntirePartitionSet) {
  graph::CsrGraph g = graph::generateWebCrawl(
      {.numNodes = 400, .avgOutDegree = 6.0, .seed = 71});
  g = graph::withRandomWeights(g, 9, 5);
  const auto parts = makeParts(g, "CVC", 4);
  std::vector<DistGraph> reloaded;
  for (const auto& part : parts) {
    const std::string file = path("p" + std::to_string(part.hostId) + ".cdg");
    saveDistGraph(file, part);
    reloaded.push_back(loadDistGraph(file));
  }
  // The reloaded set must satisfy every structural invariant, including
  // the cross-host mirror pairing and the full edge multiset.
  EXPECT_NO_THROW(validatePartitions(g, reloaded));
  for (uint32_t h = 0; h < 4; ++h) {
    EXPECT_EQ(reloaded[h].graph, parts[h].graph);
    EXPECT_EQ(reloaded[h].localToGlobal, parts[h].localToGlobal);
    EXPECT_EQ(reloaded[h].mirrorsOnHost, parts[h].mirrorsOnHost);
    EXPECT_EQ(reloaded[h].isTransposed, parts[h].isTransposed);
  }
}

TEST_F(DistGraphFiles, TransposedPartitionRoundTrips) {
  const auto g = graph::generateErdosRenyi(100, 500, 73);
  const auto file = graph::GraphFile::fromCsr(g);
  PartitionerConfig config;
  config.numHosts = 2;
  config.buildTranspose = true;
  const auto parts =
      partitionGraph(file, makePolicy("EEC"), config).partitions;
  saveDistGraph(path("t.cdg"), parts[0]);
  const auto reloaded = loadDistGraph(path("t.cdg"));
  EXPECT_TRUE(reloaded.isTransposed);
  EXPECT_EQ(reloaded.graph, parts[0].graph);
}

TEST_F(DistGraphFiles, RejectsMissingCorruptAndTruncatedFiles) {
  EXPECT_THROW(loadDistGraph(path("missing.cdg")), std::runtime_error);
  {
    std::ofstream bad(path("bad.cdg"), std::ios::binary);
    bad << "garbage garbage garbage garbage garbage garbage";
  }
  EXPECT_THROW(loadDistGraph(path("bad.cdg")), std::runtime_error);
  const auto g = graph::makePath(10);
  const auto parts = makeParts(g, "EEC", 2);
  saveDistGraph(path("ok.cdg"), parts[0]);
  const auto full = std::filesystem::file_size(path("ok.cdg"));
  std::filesystem::resize_file(path("ok.cdg"), full - 7);
  EXPECT_THROW(loadDistGraph(path("ok.cdg")), std::runtime_error);
}

TEST_F(DistGraphFiles, ChecksumCatchesSilentPayloadCorruption) {
  const auto g = graph::generateErdosRenyi(100, 500, 73);
  const auto parts = makeParts(g, "HVC", 2);
  saveDistGraph(path("crc.cdg"), parts[0]);
  // Flip one payload byte; the CRC footer must reject the file even though
  // the flipped value may parse fine.
  std::fstream f(path("crc.cdg"),
                 std::ios::binary | std::ios::in | std::ios::out);
  f.seekg(32);
  const char byte = static_cast<char>(f.get());
  f.seekp(32);
  f.put(static_cast<char>(byte ^ 0x01));
  f.close();
  try {
    loadDistGraph(path("crc.cdg"));
    FAIL() << "expected checksum error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos)
        << e.what();
  }
}

TEST_F(DistGraphFiles, RejectsUnsortedOrOutOfRangeLocalIds) {
  // Files written with a valid CRC footer but a broken localToGlobal
  // layout: localIdOf's binary search depends on the layout, so loading
  // must refuse them.
  const auto g = graph::generateErdosRenyi(100, 500, 73);
  const auto parts = makeParts(g, "HVC", 2);
  DistGraph swapped = parts[0];
  ASSERT_GE(swapped.numMirrors(), 2u);
  std::swap(swapped.localToGlobal[swapped.numMasters],
            swapped.localToGlobal[swapped.numMasters + 1]);
  saveDistGraph(path("swapped.cdg"), swapped);
  EXPECT_THROW(loadDistGraph(path("swapped.cdg")), std::runtime_error);

  DistGraph outOfRange = parts[0];
  outOfRange.localToGlobal.back() = g.numNodes();
  saveDistGraph(path("range.cdg"), outOfRange);
  EXPECT_THROW(loadDistGraph(path("range.cdg")), std::runtime_error);

  saveDistGraph(path("ok.cdg"), parts[0]);
  EXPECT_EQ(loadDistGraph(path("ok.cdg")).localToGlobal,
            parts[0].localToGlobal);
}

TEST_F(DistGraphFiles, LegacyFileWithoutFooterStillLoads) {
  const auto g = graph::generateErdosRenyi(100, 500, 73);
  const auto parts = makeParts(g, "HVC", 2);
  saveDistGraph(path("legacy.cdg"), parts[0]);
  const auto full = std::filesystem::file_size(path("legacy.cdg"));
  std::filesystem::resize_file(path("legacy.cdg"), full - 16);
  const auto reloaded = loadDistGraph(path("legacy.cdg"));
  EXPECT_EQ(reloaded.graph, parts[0].graph);
  EXPECT_EQ(reloaded.localToGlobal, parts[0].localToGlobal);
}

// ---------------------------------------------------------------------------
// Failure injection: the validator must catch corrupted partition sets.
// ---------------------------------------------------------------------------

class ValidatorInjection : public ::testing::Test {
 protected:
  void SetUp() override {
    graph_ = graph::generateErdosRenyi(80, 400, 47);
    parts_ = makeParts(graph_, "CVC", 4);
    ASSERT_NO_THROW(validatePartitions(graph_, parts_));
  }

  graph::CsrGraph graph_;
  std::vector<DistGraph> parts_;
};

TEST_F(ValidatorInjection, DetectsDuplicateMaster) {
  // Promote one of host 1's mirrors to "master" by lying about its owner.
  auto& part = parts_[1];
  ASSERT_GT(part.numMirrors(), 0u);
  ++part.numMasters;  // absorbs the first mirror into the master segment
  part.masterHostOfLocal[part.numMasters - 1] = part.hostId;
  EXPECT_THROW(validatePartitions(graph_, parts_), std::logic_error);
}

TEST_F(ValidatorInjection, DetectsMissingEdge) {
  auto& part = parts_[0];
  ASSERT_GT(part.numLocalEdges(), 0u);
  // Rebuild host 0's local graph with one edge dropped.
  auto edges = part.graph.toEdges();
  edges.pop_back();
  part.graph = graph::CsrGraph::fromEdges(part.graph.numNodes(), edges);
  EXPECT_THROW(validatePartitions(graph_, parts_), std::logic_error);
}

TEST_F(ValidatorInjection, DetectsWrongMasterHostOnMirror) {
  for (auto& part : parts_) {
    if (part.numMirrors() > 0) {
      auto& owner = part.masterHostOfLocal[part.numMasters];
      owner = (owner + 1) % part.numHosts;
      if (owner == part.hostId) {
        owner = (owner + 1) % part.numHosts;
      }
      break;
    }
  }
  EXPECT_THROW(validatePartitions(graph_, parts_), std::logic_error);
}

TEST_F(ValidatorInjection, DetectsBrokenSyncMetadata) {
  for (auto& part : parts_) {
    for (auto& list : part.mirrorsOnHost) {
      if (!list.empty()) {
        list.pop_back();
        EXPECT_THROW(validatePartitions(graph_, parts_), std::logic_error);
        return;
      }
    }
  }
  GTEST_SKIP() << "no mirrors to corrupt";
}

TEST_F(ValidatorInjection, DetectsHostIdMismatch) {
  std::swap(parts_[0].hostId, parts_[1].hostId);
  EXPECT_THROW(validatePartitions(graph_, parts_), std::logic_error);
}

TEST_F(ValidatorInjection, EdgeCheckCanBeSkipped) {
  auto& part = parts_[0];
  auto edges = part.graph.toEdges();
  if (edges.empty()) {
    GTEST_SKIP();
  }
  edges.pop_back();
  part.graph = graph::CsrGraph::fromEdges(part.graph.numNodes(), edges);
  EXPECT_NO_THROW(
      validatePartitions(graph_, parts_, /*checkEdgeMultiset=*/false));
}

}  // namespace
}  // namespace cusp::core
