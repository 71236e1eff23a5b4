// Integration and property tests of the five-phase CuSP partitioner.
//
// The backbone is a parameterized sweep over (policy x graph x host count)
// that validates every structural invariant of the produced partitions:
// each edge assigned exactly once, exactly one master per vertex, mirror
// metadata consistent across hosts, and the reassembled edge multiset equal
// to the input graph. Policy-specific invariants (EEC co-location, CVC
// blocking, Hybrid thresholding) and the paper's communication-elision
// optimizations are tested separately.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <tuple>

#include "analytics/algorithms.h"
#include "analytics/reference.h"
#include "core/partitioner.h"
#include "core/policies.h"
#include "graph/generators.h"
#include "graph/graph_file.h"
#include "obs/obs.h"
#include "support/serialize.h"
#include "support/timer.h"
#include "testutil.h"

namespace cusp {
namespace {

using core::DistGraph;
using core::PartitionerConfig;
using core::PartitionPolicy;
using core::PartitionResult;

PartitionResult partition(const graph::CsrGraph& g, const std::string& policy,
                          uint32_t hosts,
                          PartitionerConfig config = PartitionerConfig{}) {
  const graph::GraphFile file = graph::GraphFile::fromCsr(g);
  config.numHosts = hosts;
  return core::partitionGraph(file, core::makePolicy(policy), config);
}

// ---------------------------------------------------------------------------
// Parameterized structural sweep.
// ---------------------------------------------------------------------------

using SweepParam = std::tuple<std::string, std::string, uint32_t>;

class PartitionSweep : public ::testing::TestWithParam<SweepParam> {
 protected:
  graph::CsrGraph graphFor(const std::string& name) {
    for (auto& named : testutil::testGraphCatalog()) {
      if (named.name == name) {
        return std::move(named.graph);
      }
    }
    throw std::runtime_error("unknown test graph " + name);
  }
};

TEST_P(PartitionSweep, PartitionsAreStructurallyValid) {
  const auto& [policyName, graphName, hosts] = GetParam();
  const graph::CsrGraph g = graphFor(graphName);
  PartitionResult result = partition(g, policyName, hosts);
  ASSERT_EQ(result.partitions.size(), hosts);
  EXPECT_NO_THROW(core::validatePartitions(g, result.partitions));
}

TEST_P(PartitionSweep, EveryVertexHasExactlyOneMasterAndTotalsMatch) {
  const auto& [policyName, graphName, hosts] = GetParam();
  const graph::CsrGraph g = graphFor(graphName);
  PartitionResult result = partition(g, policyName, hosts);
  uint64_t totalMasters = 0;
  uint64_t totalEdges = 0;
  for (const DistGraph& part : result.partitions) {
    totalMasters += part.numMasters;
    totalEdges += part.numLocalEdges();
  }
  EXPECT_EQ(totalMasters, g.numNodes());
  EXPECT_EQ(totalEdges, g.numEdges());
}

std::vector<SweepParam> sweepParams() {
  std::vector<SweepParam> params;
  const std::vector<std::string> graphs = {"path16",  "star33", "grid6x5",
                                           "rmat8",   "web400", "er300"};
  // Table II policies plus the Table I literature policies (LDG, DBH,
  // HDRF, GREEDY) all satisfy the same structural invariants.
  for (const auto& policy : core::extendedPolicyCatalog()) {
    for (const auto& graphName : graphs) {
      for (uint32_t hosts : {1u, 2u, 4u, 7u}) {
        params.emplace_back(policy, graphName, hosts);
      }
    }
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(
    AllPoliciesGraphsHosts, PartitionSweep, ::testing::ValuesIn(sweepParams()),
    [](const ::testing::TestParamInfo<SweepParam>& info) {
      return std::get<0>(info.param) + "_" + std::get<1>(info.param) + "_h" +
             std::to_string(std::get<2>(info.param));
    });

// ---------------------------------------------------------------------------
// Observability must not perturb partitioning. For every (policy, host
// count) pair: the full invariant checker passes both with and without a
// metrics/trace sink attached, and for the deterministic (pure) policies
// the two runs produce bit-identical partitions (stateful FennelEB policies
// are timing-dependent even without a sink — see
// PurePoliciesDeterministicAcrossRuns — so byte comparison is restricted to
// the pure ones).
// ---------------------------------------------------------------------------

std::string joinViolations(const std::vector<std::string>& violations) {
  std::string out;
  for (const auto& v : violations) {
    out += "\n  - " + v;
  }
  return out;
}

using ObsSweepParam = std::tuple<std::string, uint32_t>;

class ObservedPartitionSweep : public ::testing::TestWithParam<ObsSweepParam> {
};

TEST_P(ObservedPartitionSweep, InvariantsHoldAndSinkDoesNotPerturb) {
  const auto& [policyName, hosts] = GetParam();
  const graph::CsrGraph g = graph::generateWebCrawl(
      {.numNodes = 400, .avgOutDegree = 8.0, .seed = 13});

  ASSERT_FALSE(obs::attached()) << "leaked sink from another test";
  const PartitionResult plain = partition(g, policyName, hosts);
  const auto plainViolations =
      testutil::partitionInvariantViolations(g, plain.partitions);
  EXPECT_TRUE(plainViolations.empty())
      << "without sink:" << joinViolations(plainViolations);

  obs::Sink sink;
  PartitionResult observed = [&] {
    obs::ScopedObservability scope;
    sink = scope.sink();
    return partition(g, policyName, hosts);
  }();
  EXPECT_FALSE(obs::attached()) << "ScopedObservability failed to detach";
  const auto observedViolations =
      testutil::partitionInvariantViolations(g, observed.partitions);
  EXPECT_TRUE(observedViolations.empty())
      << "with sink:" << joinViolations(observedViolations);

  // The sink really saw the run (phase spans + per-tag counters).
  ASSERT_TRUE(sink.trace != nullptr);
  EXPECT_FALSE(sink.trace->snapshot().empty());

  if (policyName == "EEC" || policyName == "HVC" || policyName == "CVC") {
    for (uint32_t h = 0; h < hosts; ++h) {
      support::SendBuffer a;
      support::SendBuffer b;
      core::serializeDistGraph(a, plain.partitions[h]);
      core::serializeDistGraph(b, observed.partitions[h]);
      ASSERT_EQ(a.size(), b.size()) << "host " << h;
      EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size()), 0)
          << "host " << h << ": partition bytes differ with sink attached";
    }
  }
}

std::vector<ObsSweepParam> obsSweepParams() {
  std::vector<ObsSweepParam> params;
  for (const auto& policy : core::extendedPolicyCatalog()) {
    for (uint32_t hosts : {2u, 4u, 8u}) {
      params.emplace_back(policy, hosts);
    }
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(
    AllPoliciesHosts, ObservedPartitionSweep,
    ::testing::ValuesIn(obsSweepParams()),
    [](const ::testing::TestParamInfo<ObsSweepParam>& info) {
      return std::get<0>(info.param) + "_h" +
             std::to_string(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------------
// Policy-specific invariants.
// ---------------------------------------------------------------------------

TEST(PartitionerEec, OutEdgesColocatedWithSourceMaster) {
  const graph::CsrGraph g = graph::generateErdosRenyi(200, 900, 3);
  PartitionResult result = partition(g, "EEC", 4);
  // Source-cut: every edge lives on the partition of its source's master,
  // so a vertex's out-edges are never split and no source is a mirror on a
  // host where it has out-edges.
  for (const DistGraph& part : result.partitions) {
    for (uint64_t lid = 0; lid < part.numLocalNodes(); ++lid) {
      if (part.graph.outDegree(lid) > 0) {
        EXPECT_TRUE(part.isMaster(lid))
            << "EEC: vertex with out-edges is a mirror on host "
            << part.hostId;
      }
    }
  }
}

TEST(PartitionerEec, RequiresNoCommunication) {
  const graph::CsrGraph g = graph::generateErdosRenyi(500, 3000, 5);
  PartitionResult result = partition(g, "EEC", 4);
  // Paper Section V-A: EEC builds each partition from what the host read;
  // the phases exchange no data (only empty "nothing to send" markers and
  // barrier/collective control traffic).
  EXPECT_EQ(result.volume.bytes[comm::kTagEdgeBatch], 0u);
  EXPECT_EQ(result.volume.bytes[comm::kTagMasterRequest], 0u);
  EXPECT_EQ(result.volume.bytes[comm::kTagMasterAssign], 0u);
  EXPECT_EQ(result.volume.bytes[comm::kTagMasterList], 0u);
  // Count vectors are elided to empty vectors (8-byte length prefix).
  EXPECT_LE(result.volume.bytes[comm::kTagEdgeCounts], 4ull * 3 * 8);
  EXPECT_LE(result.volume.bytes[comm::kTagMirrorFlags], 4ull * 3 * 16);
}

TEST(PartitionerCvc, EdgesLandInCartesianBlocks) {
  const graph::CsrGraph g = graph::generateErdosRenyi(300, 2000, 7);
  const uint32_t hosts = 6;
  PartitionResult result = partition(g, "CVC", hosts);
  // Recompute every vertex's master from the partitions, then check each
  // edge's host against the Cartesian formula.
  std::vector<uint32_t> masterOf(g.numNodes(), UINT32_MAX);
  for (const DistGraph& part : result.partitions) {
    for (uint64_t lid = 0; lid < part.numMasters; ++lid) {
      masterOf[part.globalId(lid)] = part.hostId;
    }
  }
  const auto [pRows, pCols] = core::cartesianGrid(hosts);
  EXPECT_EQ(pRows * pCols, hosts);
  for (const DistGraph& part : result.partitions) {
    for (const graph::Edge& e : part.edgesWithGlobalIds()) {
      const uint32_t expected =
          (masterOf[e.src] / pCols) * pCols + masterOf[e.dst] % pCols;
      EXPECT_EQ(part.hostId, expected)
          << "edge " << e.src << "->" << e.dst << " misplaced";
    }
  }
}

TEST(PartitionerHvc, HybridRespectsDegreeThreshold) {
  // Threshold 1000 with a star graph: the hub exceeds it, so its out-edges
  // go to the destinations' masters; low-degree sources keep their edges.
  const graph::CsrGraph g = graph::makeStar(1500);
  PartitionResult result = partition(g, "HVC", 4);
  std::vector<uint32_t> masterOf(g.numNodes(), UINT32_MAX);
  for (const DistGraph& part : result.partitions) {
    for (uint64_t lid = 0; lid < part.numMasters; ++lid) {
      masterOf[part.globalId(lid)] = part.hostId;
    }
  }
  for (const DistGraph& part : result.partitions) {
    for (const graph::Edge& e : part.edgesWithGlobalIds()) {
      ASSERT_EQ(e.src, 0u);  // star: all edges from the hub
      EXPECT_EQ(part.hostId, masterOf[e.dst])
          << "high-degree source's edge not assigned to destination master";
    }
  }
}

// ---------------------------------------------------------------------------
// Configuration behaviours.
// ---------------------------------------------------------------------------

TEST(Partitioner, SingleHostOwnsEverything) {
  const graph::CsrGraph g = graph::generateErdosRenyi(100, 500, 9);
  for (const auto& policy : core::policyCatalog()) {
    PartitionResult result = partition(g, policy, 1);
    ASSERT_EQ(result.partitions.size(), 1u);
    const DistGraph& part = result.partitions[0];
    EXPECT_EQ(part.numMasters, g.numNodes());
    EXPECT_EQ(part.numMirrors(), 0u);
    EXPECT_EQ(part.numLocalEdges(), g.numEdges());
  }
}

TEST(Partitioner, MoreHostsThanVertices) {
  const graph::CsrGraph g = graph::makePath(5);
  PartitionResult result = partition(g, "EEC", 9);
  EXPECT_NO_THROW(core::validatePartitions(g, result.partitions));
}

TEST(Partitioner, EmptyGraph) {
  const graph::CsrGraph g = graph::CsrGraph::fromEdges(0, std::vector<graph::Edge>{});
  PartitionResult result = partition(g, "EEC", 3);
  for (const DistGraph& part : result.partitions) {
    EXPECT_EQ(part.numLocalNodes(), 0u);
    EXPECT_EQ(part.numLocalEdges(), 0u);
  }
}

TEST(Partitioner, GraphWithIsolatedNodesSelfLoopsAndDuplicates) {
  const graph::CsrGraph g = testutil::awkwardGraph();
  for (const auto& policy : core::policyCatalog()) {
    PartitionResult result = partition(g, policy, 3);
    EXPECT_NO_THROW(core::validatePartitions(g, result.partitions))
        << "policy " << policy;
  }
}

TEST(Partitioner, EdgeDataFollowsEdges) {
  graph::CsrGraph g = graph::generateErdosRenyi(120, 700, 21);
  g = graph::withRandomWeights(g, 50, 33);
  PartitionResult result = partition(g, "CVC", 4);
  EXPECT_NO_THROW(core::validatePartitions(g, result.partitions));
  bool sawWeight = false;
  for (const DistGraph& part : result.partitions) {
    for (const graph::Edge& e : part.edgesWithGlobalIds()) {
      sawWeight = sawWeight || e.data != 0;
    }
  }
  EXPECT_TRUE(sawWeight);
}

TEST(Partitioner, TransposeOutputMatchesCscOfPartition) {
  const graph::CsrGraph g = graph::generateErdosRenyi(150, 800, 27);
  PartitionerConfig config;
  config.numHosts = 4;
  PartitionResult csr = partition(g, "CVC", 4, config);
  config.buildTranspose = true;
  PartitionResult csc = partition(g, "CVC", 4, config);
  // Same logical partitions, opposite orientation: the CSC partition's
  // edges (after the src/dst swap in edgesWithGlobalIds) must equal the CSR
  // partition's edges host by host.
  for (uint32_t h = 0; h < 4; ++h) {
    auto a = csr.partitions[h].edgesWithGlobalIds();
    auto b = csc.partitions[h].edgesWithGlobalIds();
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(a, b) << "host " << h;
    EXPECT_TRUE(csc.partitions[h].isTransposed);
  }
  EXPECT_NO_THROW(core::validatePartitions(g, csc.partitions));
}

// ---------------------------------------------------------------------------
// CSC-reading variants (paper III-B: "Each of these policies has two
// variants (24 policies in total)").
// ---------------------------------------------------------------------------

class CscVariantSweep : public ::testing::TestWithParam<std::string> {};

TEST_P(CscVariantSweep, PartitionsValidAgainstLogicalGraph) {
  const graph::CsrGraph g = graph::generateWebCrawl(
      {.numNodes = 500, .avgOutDegree = 7.0, .seed = 81});
  const graph::GraphFile cscFile = graph::GraphFile::fromCsr(g.transpose());
  core::PartitionerConfig config;
  config.numHosts = 4;
  auto result =
      core::partitionGraphCsc(cscFile, core::makePolicy(GetParam()), config);
  for (const auto& part : result.partitions) {
    EXPECT_TRUE(part.isTransposed) << "plain CSC run yields in-edge rows";
  }
  // Validation is against the LOGICAL graph g, not its transpose.
  EXPECT_NO_THROW(core::validatePartitions(g, result.partitions));
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, CscVariantSweep,
                         ::testing::ValuesIn(core::extendedPolicyCatalog()),
                         [](const auto& info) { return info.param; });

TEST(PartitionerCscVariant, InDegreeHybridRedirectsHighInDegreeTargets) {
  // The CSC variant of Hybrid (PowerLyra's real HVC) keys on IN-degree:
  // a star transposed (all edges point AT the hub) makes the hub a
  // high-in-degree node whose in-edges get reassigned.
  const graph::CsrGraph star = graph::makeStar(1500);     // hub -> leaves
  const graph::CsrGraph logical = star.transpose();       // leaves -> hub
  const graph::GraphFile cscFile = graph::GraphFile::fromCsr(star);
  core::PartitionerConfig config;
  config.numHosts = 4;
  config.buildTranspose = true;  // deliver CSR-oriented partitions
  auto result =
      core::partitionGraphCsc(cscFile, core::makePolicy("HVC"), config);
  EXPECT_NO_THROW(core::validatePartitions(logical, result.partitions));
  // With the hub's in-degree (1500) above the threshold (1000), every edge
  // (leaf -> hub) is assigned to the master of its SOURCE (the in-edge
  // rule's "destination") — i.e. edges spread across all leaf masters
  // instead of piling onto the hub's partition.
  std::vector<uint32_t> masterOf(logical.numNodes(), UINT32_MAX);
  for (const auto& part : result.partitions) {
    for (uint64_t lid = 0; lid < part.numMasters; ++lid) {
      masterOf[part.globalId(lid)] = part.hostId;
    }
  }
  for (const auto& part : result.partitions) {
    EXPECT_FALSE(part.isTransposed);
    for (const graph::Edge& e : part.edgesWithGlobalIds()) {
      EXPECT_EQ(part.hostId, masterOf[e.src]);
    }
  }
}

TEST(PartitionerCscVariant, AnalyticsCorrectOnCscVariantPartitions) {
  graph::CsrGraph g = graph::generateErdosRenyi(300, 1800, 83);
  const graph::GraphFile cscFile = graph::GraphFile::fromCsr(g.transpose());
  core::PartitionerConfig config;
  config.numHosts = 3;
  config.buildTranspose = true;
  const auto parts =
      core::partitionGraphCsc(cscFile, core::makePolicy("CVC"), config)
          .partitions;
  const uint64_t source = analytics::maxOutDegreeNode(g);
  EXPECT_EQ(analytics::runBfs(parts, source),
            analytics::bfsReference(g, source));
}

// ---------------------------------------------------------------------------
// Streaming-window mode (ADWISE class, paper II-B2 — implemented here as
// the paper's suggested extension).
// ---------------------------------------------------------------------------

class WindowedModeSweep : public ::testing::TestWithParam<uint32_t> {};

TEST_P(WindowedModeSweep, WindowedHdrfPartitionsAreValid) {
  const uint32_t window = GetParam();
  const graph::CsrGraph g = graph::generateWebCrawl(
      {.numNodes = 600, .avgOutDegree = 8.0, .seed = 97});
  core::PartitionPolicy policy = core::makePolicy("HDRF");
  policy.edge = core::withWindowScore(policy.edge);
  PartitionerConfig config;
  config.numHosts = 4;
  config.windowSize = window;
  const graph::GraphFile file = graph::GraphFile::fromCsr(g);
  const auto result = core::partitionGraph(file, policy, config);
  EXPECT_NO_THROW(core::validatePartitions(g, result.partitions));
  // Analytics stay correct in windowed mode.
  const uint64_t source = analytics::maxOutDegreeNode(g);
  EXPECT_EQ(analytics::runBfs(result.partitions, source),
            analytics::bfsReference(g, source));
}

INSTANTIATE_TEST_SUITE_P(Windows, WindowedModeSweep,
                         ::testing::Values(1u, 2u, 16u, 128u));

TEST(WindowedMode, WindowOfOneEqualsPlainStreaming) {
  const graph::CsrGraph g = graph::generateErdosRenyi(300, 1800, 101);
  core::PartitionPolicy policy = core::makePolicy("GREEDY");
  policy.edge = core::withWindowScore(policy.edge);
  const graph::GraphFile file = graph::GraphFile::fromCsr(g);
  PartitionerConfig config;
  config.numHosts = 3;
  config.windowSize = 0;
  const auto plain = core::partitionGraph(file, policy, config);
  config.windowSize = 1;  // degenerate window: same as streaming
  const auto degenerate = core::partitionGraph(file, policy, config);
  for (uint32_t h = 0; h < 3; ++h) {
    EXPECT_EQ(plain.partitions[h].graph, degenerate.partitions[h].graph);
  }
}

TEST(WindowedMode, PrioritizingPlacedEndpointsDoesNotHurtReplication) {
  // On a shuffled-order stream, deferring "fresh" edges lets the replica
  // masks fill in before hard decisions. The windowed run must do at least
  // as well as plain streaming on average replication (it is a heuristic,
  // so allow a small tolerance rather than require strict improvement).
  const graph::CsrGraph g = graph::generateErdosRenyi(500, 5000, 103);
  core::PartitionPolicy policy = core::makePolicy("HDRF");
  const graph::GraphFile file = graph::GraphFile::fromCsr(g);
  PartitionerConfig config;
  config.numHosts = 4;
  const auto plain = core::partitionGraph(file, policy, config);
  policy.edge = core::withWindowScore(policy.edge);
  config.windowSize = 128;
  const auto windowed = core::partitionGraph(file, policy, config);
  const double plainRep =
      core::computeQuality(plain.partitions).avgReplicationFactor;
  const double windowedRep =
      core::computeQuality(windowed.partitions).avgReplicationFactor;
  EXPECT_LE(windowedRep, plainRep * 1.05);
}

TEST(WindowedMode, IgnoredWithoutWindowScore) {
  // windowSize set but the rule has no score: plain streaming, identical
  // results to windowSize = 0.
  const graph::CsrGraph g = graph::generateErdosRenyi(200, 1000, 107);
  const graph::GraphFile file = graph::GraphFile::fromCsr(g);
  PartitionerConfig config;
  config.numHosts = 3;
  config.windowSize = 64;
  const auto a =
      core::partitionGraph(file, core::makePolicy("CVC"), config);
  config.windowSize = 0;
  const auto b =
      core::partitionGraph(file, core::makePolicy("CVC"), config);
  for (uint32_t h = 0; h < 3; ++h) {
    EXPECT_EQ(a.partitions[h].graph, b.partitions[h].graph);
  }
}

TEST(Partitioner, CompressedEdgeBatchesSameGraphFewerBytes) {
  graph::CsrGraph g = graph::generateWebCrawl(
      {.numNodes = 1000, .avgOutDegree = 10.0, .seed = 109});
  g = graph::withRandomWeights(g, 12, 3);
  PartitionerConfig config;
  config.numHosts = 4;
  const PartitionResult plain = partition(g, "CVC", 4, config);
  config.compressEdgeBatches = true;
  const PartitionResult packed = partition(g, "CVC", 4, config);
  EXPECT_NO_THROW(core::validatePartitions(g, packed.partitions));
  for (uint32_t h = 0; h < 4; ++h) {
    EXPECT_EQ(plain.partitions[h].graph, packed.partitions[h].graph);
  }
  EXPECT_LT(packed.volume.bytes[comm::kTagEdgeBatch],
            plain.volume.bytes[comm::kTagEdgeBatch]);
}

TEST(Partitioner, CompressionWorksInWindowedMode) {
  const graph::CsrGraph g = graph::generateErdosRenyi(300, 1500, 113);
  core::PartitionPolicy policy = core::makePolicy("HDRF");
  policy.edge = core::withWindowScore(policy.edge);
  const graph::GraphFile file = graph::GraphFile::fromCsr(g);
  PartitionerConfig config;
  config.numHosts = 3;
  config.windowSize = 32;
  config.compressEdgeBatches = true;
  const auto result = core::partitionGraph(file, policy, config);
  EXPECT_NO_THROW(core::validatePartitions(g, result.partitions));
}

TEST(Partitioner, DisablingPureMasterOptKeepsResultsButCommunicates) {
  const graph::CsrGraph g = graph::generateErdosRenyi(400, 2400, 89);
  PartitionerConfig config;
  config.numHosts = 4;
  PartitionResult fast = partition(g, "CVC", 4, config);
  config.disablePureMasterOptimization = true;
  PartitionResult slow = partition(g, "CVC", 4, config);
  // Identical partitions either way...
  for (uint32_t h = 0; h < 4; ++h) {
    EXPECT_EQ(fast.partitions[h].graph, slow.partitions[h].graph);
    EXPECT_EQ(fast.partitions[h].localToGlobal,
              slow.partitions[h].localToGlobal);
  }
  // ...but the optimization eliminates ALL master-phase communication.
  EXPECT_EQ(fast.volume.bytes[comm::kTagMasterRequest], 0u);
  EXPECT_EQ(fast.volume.bytes[comm::kTagMasterList], 0u);
  EXPECT_GT(slow.volume.bytes[comm::kTagMasterRequest], 0u);
  EXPECT_GT(slow.volume.bytes[comm::kTagMasterList], 0u);
}

TEST(Partitioner, PurePoliciesDeterministicAcrossRuns) {
  const graph::CsrGraph g = graph::generateErdosRenyi(250, 1500, 31);
  for (const std::string policy : {"EEC", "HVC", "CVC"}) {
    PartitionResult a = partition(g, policy, 4);
    PartitionResult b = partition(g, policy, 4);
    for (uint32_t h = 0; h < 4; ++h) {
      EXPECT_EQ(a.partitions[h].localToGlobal, b.partitions[h].localToGlobal);
      EXPECT_EQ(a.partitions[h].graph, b.partitions[h].graph) << policy;
    }
  }
}

// Golden fingerprints: FNV-1a over the serializeDistGraph bytes of every
// host's partition, for the pure policies on two seeded stand-ins (the
// second with permuted ids and edge weights) at 2/4/8 hosts. The constants
// were recorded from the hash-map implementation of the partitioner's
// per-edge lookups, so any rewrite of those internals is checked against
// the older code's output instead of against itself.
uint64_t serializedFingerprint(const std::vector<DistGraph>& partitions) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const DistGraph& part : partitions) {
    support::SendBuffer buf;
    core::serializeDistGraph(buf, part);
    for (size_t i = 0; i < buf.size(); ++i) {
      h = (h ^ buf.data()[i]) * 0x100000001b3ULL;
    }
  }
  return h;
}

TEST(Partitioner, GoldenFingerprintsOfPurePolicies) {
  const graph::CsrGraph kron = graph::makeStandIn("kron", 24'000, 3);
  const graph::CsrGraph crawl = graph::withRandomWeights(
      graph::permuteNodeIds(graph::makeStandIn("clueweb", 24'000, 4), 5), 100,
      6);
  struct Golden {
    const char* policy;
    uint32_t hosts;
    uint64_t kron;
    uint64_t crawl;
  };
  const Golden goldens[] = {
      {"EEC", 2, 0x0dd0069d8cde09a3ULL, 0x132390484fc06313ULL},
      {"EEC", 4, 0xeed5c7d515320d9dULL, 0x6ac1c21882b258d5ULL},
      {"EEC", 8, 0x3b0559420f29933bULL, 0xee8c41d88c3387d2ULL},
      {"HVC", 2, 0x4de4e428904dd13cULL, 0x132390484fc06313ULL},
      {"HVC", 4, 0xdb45f8aab4bc54bcULL, 0x6ac1c21882b258d5ULL},
      {"HVC", 8, 0x7586401f8fbb3037ULL, 0xee8c41d88c3387d2ULL},
      {"CVC", 2, 0x0dd0069d8cde09a3ULL, 0x132390484fc06313ULL},
      {"CVC", 4, 0xa0994107fae7df61ULL, 0x7bbc9dcb785ea463ULL},
      {"CVC", 8, 0x602b33789a13ceffULL, 0x75eea943b7f38103ULL},
  };
  for (const Golden& golden : goldens) {
    const uint64_t kronPrint = serializedFingerprint(
        partition(kron, golden.policy, golden.hosts).partitions);
    const uint64_t crawlPrint = serializedFingerprint(
        partition(crawl, golden.policy, golden.hosts).partitions);
    EXPECT_EQ(kronPrint, golden.kron)
        << golden.policy << " kron h" << golden.hosts;
    EXPECT_EQ(crawlPrint, golden.crawl)
        << golden.policy << " permuted crawl h" << golden.hosts;
  }
}

TEST(Partitioner, ThreadedHostsMatchSingleThreadedForPureRules) {
  const graph::CsrGraph g = graph::generateErdosRenyi(300, 2000, 37);
  PartitionerConfig config;
  config.numHosts = 3;
  PartitionResult serial = partition(g, "CVC", 3, config);
  config.threadsPerHost = 3;
  // Streaming runs the same threaded loop per chunk, with per-thread
  // senders that outlive the chunks.
  for (const bool streaming : {false, true}) {
    config.forceStreamingWindows = streaming;
    config.streamChunkEdges = 64;
    PartitionResult threaded = partition(g, "CVC", 3, config);
    for (uint32_t h = 0; h < 3; ++h) {
      EXPECT_EQ(serial.partitions[h].graph, threaded.partitions[h].graph)
          << (streaming ? "streaming" : "resident") << " host " << h;
    }
  }
}

TEST(Partitioner, StatefulPolicyWorksWithAnySyncRoundCount) {
  const graph::CsrGraph g = graph::generateErdosRenyi(200, 1200, 41);
  for (uint32_t rounds : {1u, 4u, 100u, 1000u}) {
    PartitionerConfig config;
    config.numHosts = 4;
    config.stateSyncRounds = rounds;
    PartitionResult result = partition(g, "SVC", 4, config);
    EXPECT_NO_THROW(core::validatePartitions(g, result.partitions))
        << rounds << " rounds";
  }
}

TEST(Partitioner, ZeroBufferThresholdStillCorrect) {
  const graph::CsrGraph g = graph::generateErdosRenyi(200, 1200, 43);
  PartitionerConfig config;
  config.numHosts = 4;
  config.messageBufferThreshold = 0;  // Fig. 7's "0 MB": every record sent
  PartitionResult immediate = partition(g, "CVC", 4, config);
  EXPECT_NO_THROW(core::validatePartitions(g, immediate.partitions));
  config.messageBufferThreshold = 8ull << 20;
  PartitionResult buffered = partition(g, "CVC", 4, config);
  // Same partitions, very different message counts.
  for (uint32_t h = 0; h < 4; ++h) {
    EXPECT_EQ(immediate.partitions[h].graph, buffered.partitions[h].graph);
  }
  EXPECT_GT(immediate.volume.messages[comm::kTagEdgeBatch],
            buffered.volume.messages[comm::kTagEdgeBatch]);
}

TEST(Partitioner, WeightedReadSplitIsHonoured) {
  const graph::CsrGraph g = graph::generateWebCrawl({});
  PartitionerConfig config;
  config.numHosts = 4;
  config.readNodeWeight = 1.0;  // node-balanced reading instead of default
  config.readEdgeWeight = 0.0;
  const graph::GraphFile file = graph::GraphFile::fromCsr(g);
  PartitionResult result =
      core::partitionGraph(file, core::makePolicy("CVC"), config);
  EXPECT_NO_THROW(core::validatePartitions(g, result.partitions));
}

TEST(Partitioner, ReplicationFactorWithinBounds) {
  const graph::CsrGraph g = graph::generateErdosRenyi(400, 3000, 47);
  for (const auto& policy : core::policyCatalog()) {
    PartitionResult result = partition(g, policy, 4);
    const auto quality = core::computeQuality(result.partitions);
    EXPECT_GE(quality.avgReplicationFactor, 1.0) << policy;
    EXPECT_LE(quality.avgReplicationFactor, 4.0) << policy;
    EXPECT_EQ(quality.totalMasters, g.numNodes()) << policy;
  }
}

TEST(Partitioner, PhaseTimesCoverAllFivePhases) {
  const graph::CsrGraph g = graph::generateErdosRenyi(100, 400, 53);
  PartitionResult result = partition(g, "CVC", 2);
  for (const char* phase :
       {"Graph Reading", "Master Assignment", "Edge Assignment",
        "Graph Allocation", "Graph Construction"}) {
    bool found = false;
    for (const auto& [name, secs] : result.phaseTimes.entries()) {
      found = found || name == phase;
    }
    EXPECT_TRUE(found) << "missing phase " << phase;
  }
}

TEST(Partitioner, RejectsMismatchedConfig) {
  const graph::CsrGraph g = graph::makePath(4);
  const graph::GraphFile file = graph::GraphFile::fromCsr(g);
  PartitionerConfig config;
  config.numHosts = 0;
  EXPECT_THROW(core::partitionGraph(file, core::makePolicy("EEC"), config),
               std::invalid_argument);
  // Host-level entry point rejects a network whose size differs from the
  // configured host count.
  config.numHosts = 4;
  comm::Network net(2);
  support::PhaseTimes times;
  EXPECT_THROW(core::partitionOnHost(net, 0, file, core::makePolicy("EEC"),
                                     config, times),
               std::invalid_argument);
}

TEST(Partitioner, MaskPoliciesRejectMoreThan64Hosts) {
  // HDRF's replica masks are 64-bit; the partitioner must refuse rather
  // than silently truncate.
  const graph::CsrGraph g = graph::makePath(100);
  const graph::GraphFile file = graph::GraphFile::fromCsr(g);
  PartitionerConfig config;
  config.numHosts = 65;
  EXPECT_THROW(core::partitionGraph(file, core::makePolicy("HDRF"), config),
               std::invalid_argument);
  // 64 hosts is fine (and more hosts than several vertices' blocks).
  config.numHosts = 64;
  const auto result =
      core::partitionGraph(file, core::makePolicy("HDRF"), config);
  EXPECT_NO_THROW(core::validatePartitions(g, result.partitions));
}

TEST(Partitioner, ModeledTimesArePositiveAndWallIsTracked) {
  const graph::CsrGraph g = graph::generateErdosRenyi(300, 2000, 127);
  PartitionerConfig config;
  config.numHosts = 4;
  config.simulatedDiskBandwidthMBps = 10.0;
  const PartitionResult result = partition(g, "CVC", 4, config);
  EXPECT_GT(result.totalSeconds, 0.0);
  EXPECT_GT(result.wallSeconds, 0.0);
  EXPECT_DOUBLE_EQ(result.totalSeconds, result.phaseTimes.total());
  // With a 10 MB/s disk, reading must account for at least the window
  // bytes of the slowest host (~ E/hosts * 8 bytes).
  const double minDisk =
      static_cast<double>(g.numEdges()) / 4 * 8 / (10.0 * 1e6);
  EXPECT_GE(result.phaseTimes.get("Graph Reading"), minDisk * 0.5);
}

}  // namespace
}  // namespace cusp
