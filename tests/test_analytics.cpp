// Tests of the distributed analytics engine over CuSP partitions.
//
// The central property: for EVERY partitioning policy, host count, and
// input graph, the distributed bfs/cc/pagerank/sssp results must equal the
// single-image reference implementation — this is what "partitions are
// correct for analytics" means. Parameterized sweeps cover the matrix;
// targeted tests cover reference correctness on hand-checked graphs, sync
// traffic structure (CVC's restricted partners), and edge cases.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <sstream>
#include <tuple>

#include "analytics/algorithms.h"
#include "analytics/engine.h"
#include "analytics/reference.h"
#include "core/partitioner.h"
#include "core/policies.h"
#include "graph/generators.h"
#include "graph/graph_file.h"
#include "testutil.h"

namespace cusp {
namespace {

using analytics::kInfinity;
using core::DistGraph;

std::vector<DistGraph> partitions(const graph::CsrGraph& g,
                                  const std::string& policy, uint32_t hosts) {
  const graph::GraphFile file = graph::GraphFile::fromCsr(g);
  core::PartitionerConfig config;
  config.numHosts = hosts;
  return core::partitionGraph(file, core::makePolicy(policy), config)
      .partitions;
}

// ---------------------------------------------------------------------------
// Reference implementations on hand-checked graphs.
// ---------------------------------------------------------------------------

TEST(ReferenceBfs, PathDistances) {
  const auto g = graph::makePath(5);
  const auto dist = analytics::bfsReference(g, 0);
  EXPECT_EQ(dist, (std::vector<uint64_t>{0, 1, 2, 3, 4}));
}

TEST(ReferenceBfs, UnreachableIsInfinity) {
  const auto g = graph::makePath(4);
  const auto dist = analytics::bfsReference(g, 2);
  EXPECT_EQ(dist[0], kInfinity);
  EXPECT_EQ(dist[1], kInfinity);
  EXPECT_EQ(dist[2], 0u);
  EXPECT_EQ(dist[3], 1u);
}

TEST(ReferenceBfs, RejectsBadSource) {
  const auto g = graph::makePath(4);
  EXPECT_THROW(analytics::bfsReference(g, 4), std::out_of_range);
}

TEST(ReferenceSssp, WeightedTriangleTakesCheaperPath) {
  // 0 -> 1 (10), 0 -> 2 (1), 2 -> 1 (2): shortest 0->1 is 3 via 2.
  std::vector<graph::Edge> edges = {{0, 1, 10}, {0, 2, 1}, {2, 1, 2}};
  const auto g = graph::CsrGraph::fromEdges(3, edges, true);
  const auto dist = analytics::ssspReference(g, 0);
  EXPECT_EQ(dist, (std::vector<uint64_t>{0, 3, 1}));
}

TEST(ReferenceCc, TwoComponentsOnSymmetricGraph) {
  std::vector<graph::Edge> edges = {{0, 1, 0}, {1, 0, 0}, {1, 2, 0},
                                    {2, 1, 0}, {3, 4, 0}, {4, 3, 0}};
  const auto g = graph::CsrGraph::fromEdges(5, edges);
  const auto label = analytics::ccReference(g);
  EXPECT_EQ(label, (std::vector<uint64_t>{0, 0, 0, 3, 3}));
}

TEST(ReferencePageRank, SumsToAboutOneOnCycle) {
  // On a cycle every node has in/out degree 1; ranks are uniform.
  const auto g = graph::makeCycle(10);
  const auto rank = analytics::pageRankReference(g);
  double sum = 0;
  for (double r : rank) {
    EXPECT_NEAR(r, 0.1, 1e-9);
    sum += r;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(MaxOutDegreeNode, PicksTheHub) {
  const auto g = graph::makeStar(12);
  EXPECT_EQ(analytics::maxOutDegreeNode(g), 0u);
}

TEST(ReferenceKCore, CompleteGraphSurvivesUpToItsDegree) {
  const auto g = graph::makeComplete(6);  // every vertex has degree 5
  EXPECT_EQ(analytics::kCoreReference(g, 5),
            std::vector<uint64_t>(6, 1));
  EXPECT_EQ(analytics::kCoreReference(g, 6),
            std::vector<uint64_t>(6, 0));
}

TEST(ReferenceKCore, PathPeelsCompletelyAtTwo) {
  // Symmetric path: endpoints have degree 1, so the 2-core unravels fully.
  const auto g = graph::makePath(10).symmetrized();
  EXPECT_EQ(analytics::kCoreReference(g, 2),
            std::vector<uint64_t>(10, 0));
  // Symmetric cycle: every vertex has degree 2; the 2-core is everything.
  const auto c = graph::makeCycle(10).symmetrized();
  EXPECT_EQ(analytics::kCoreReference(c, 2),
            std::vector<uint64_t>(10, 1));
}

TEST(ReferenceKCore, CliqueWithTailKeepsOnlyTheClique) {
  // Clique {0..4} plus a tail 4-5-6: the 4-core is exactly the clique.
  std::vector<graph::Edge> edges;
  for (uint64_t i = 0; i < 5; ++i) {
    for (uint64_t j = 0; j < 5; ++j) {
      if (i != j) {
        edges.push_back({i, j, 0});
      }
    }
  }
  edges.push_back({4, 5, 0});
  edges.push_back({5, 4, 0});
  edges.push_back({5, 6, 0});
  edges.push_back({6, 5, 0});
  const auto g = graph::CsrGraph::fromEdges(7, edges);
  EXPECT_EQ(analytics::kCoreReference(g, 4),
            (std::vector<uint64_t>{1, 1, 1, 1, 1, 0, 0}));
}

TEST(ReferenceTriangles, HandCheckedCounts) {
  // Complete graph K_n has C(n, 3) triangles.
  EXPECT_EQ(analytics::triangleCountReference(graph::makeComplete(4)), 4u);
  EXPECT_EQ(analytics::triangleCountReference(graph::makeComplete(6)), 20u);
  // A symmetric cycle has none (for n > 3); a triangle has one.
  EXPECT_EQ(analytics::triangleCountReference(
                graph::makeCycle(10).simpleSymmetrized()),
            0u);
  EXPECT_EQ(analytics::triangleCountReference(
                graph::makeCycle(3).simpleSymmetrized()),
            1u);
  // Two triangles sharing an edge: 0-1-2 and 1-2-3.
  std::vector<graph::Edge> edges = {{0, 1, 0}, {0, 2, 0}, {1, 2, 0},
                                    {1, 3, 0}, {2, 3, 0}};
  const auto g = graph::CsrGraph::fromEdges(4, edges).simpleSymmetrized();
  EXPECT_EQ(analytics::triangleCountReference(g), 2u);
}

// ---------------------------------------------------------------------------
// Distributed == reference, across the policy/graph/host matrix.
// ---------------------------------------------------------------------------

using AlgoParam = std::tuple<std::string, std::string, uint32_t>;

class AnalyticsSweep : public ::testing::TestWithParam<AlgoParam> {
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

TEST_P(AnalyticsSweep, BfsMatchesReference) {
  const auto& [policy, graphName, hosts] = GetParam();
  const graph::CsrGraph g = graphFor(graphName);
  const uint64_t source = analytics::maxOutDegreeNode(g);
  const auto expected = analytics::bfsReference(g, source);
  const auto parts = partitions(g, policy, hosts);
  const auto actual = analytics::runBfs(parts, source);
  EXPECT_EQ(actual, expected);
}

TEST_P(AnalyticsSweep, SsspMatchesReference) {
  const auto& [policy, graphName, hosts] = GetParam();
  graph::CsrGraph g = graphFor(graphName);
  g = graph::withRandomWeights(g, 20, 91);
  const uint64_t source = analytics::maxOutDegreeNode(g);
  const auto expected = analytics::ssspReference(g, source);
  const auto parts = partitions(g, policy, hosts);
  const auto actual = analytics::runSssp(parts, source);
  EXPECT_EQ(actual, expected);
}

TEST_P(AnalyticsSweep, CcMatchesReferenceOnSymmetrizedGraph) {
  const auto& [policy, graphName, hosts] = GetParam();
  const graph::CsrGraph g = graphFor(graphName).symmetrized();
  const auto expected = analytics::ccReference(g);
  const auto parts = partitions(g, policy, hosts);
  const auto actual = analytics::runCc(parts);
  EXPECT_EQ(actual, expected);
}

TEST_P(AnalyticsSweep, PageRankMatchesReference) {
  const auto& [policy, graphName, hosts] = GetParam();
  const graph::CsrGraph g = graphFor(graphName);
  analytics::PageRankParams params;
  params.maxIterations = 30;
  params.tolerance = 1e-9;  // fixed iteration count for exact comparability
  const auto expected = analytics::pageRankReference(g, params);
  const auto parts = partitions(g, policy, hosts);
  const auto actual = analytics::runPageRank(parts, params);
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t v = 0; v < expected.size(); ++v) {
    EXPECT_NEAR(actual[v], expected[v], 1e-10) << "node " << v;
  }
}

TEST_P(AnalyticsSweep, KCoreMatchesReferenceOnSymmetrizedGraph) {
  const auto& [policy, graphName, hosts] = GetParam();
  const graph::CsrGraph g = graphFor(graphName).symmetrized();
  for (uint64_t k : {2ull, 4ull}) {
    const auto expected = analytics::kCoreReference(g, k);
    const auto parts = partitions(g, policy, hosts);
    const auto actual = analytics::runKCore(parts, k);
    EXPECT_EQ(actual, expected) << "k=" << k;
  }
}

TEST_P(AnalyticsSweep, TriangleCountMatchesReference) {
  const auto& [policy, graphName, hosts] = GetParam();
  const graph::CsrGraph g = graphFor(graphName).simpleSymmetrized();
  const uint64_t expected = analytics::triangleCountReference(g);
  const auto parts = partitions(g, policy, hosts);
  EXPECT_EQ(analytics::runTriangleCount(parts), expected);
}

std::vector<AlgoParam> algoParams() {
  std::vector<AlgoParam> params;
  const std::vector<std::string> graphs = {"path16", "star33", "grid6x5",
                                           "rmat8", "web400"};
  for (const auto& policy : core::extendedPolicyCatalog()) {
    for (const auto& graphName : graphs) {
      for (uint32_t hosts : {2u, 4u}) {
        params.emplace_back(policy, graphName, hosts);
      }
    }
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, AnalyticsSweep, ::testing::ValuesIn(algoParams()),
    [](const ::testing::TestParamInfo<AlgoParam>& info) {
      return std::get<0>(info.param) + "_" + std::get<1>(info.param) + "_h" +
             std::to_string(std::get<2>(info.param));
    });

// ---------------------------------------------------------------------------
// SyncContext in isolation: a hand-built two-host partition with one shared
// vertex, exercising reduce/broadcast semantics directly.
// ---------------------------------------------------------------------------

namespace handbuilt {

// Global graph: vertices {0, 1}; host 0 masters vertex 0, host 1 masters
// vertex 1; each host holds a mirror of the other's vertex.
std::vector<DistGraph> twoHostsOneSharedVertexEach() {
  std::vector<DistGraph> parts(2);
  for (uint32_t h = 0; h < 2; ++h) {
    DistGraph& part = parts[h];
    part.hostId = h;
    part.numHosts = 2;
    part.numGlobalNodes = 2;
    part.numGlobalEdges = 0;
    part.numMasters = 1;
    part.localToGlobal = {h, 1 - h};  // local 0 = my master, local 1 = mirror
    part.masterHostOfLocal = {h, 1 - h};
    part.graph = graph::CsrGraph({0, 0, 0}, {});
    part.mirrorsOnHost.assign(2, {});
    part.myMirrorsByOwner.assign(2, {});
    part.mirrorsOnHost[1 - h] = {0};     // my master has a mirror on peer
    part.myMirrorsByOwner[1 - h] = {1};  // my mirror is owned by peer
  }
  return parts;
}

}  // namespace handbuilt

TEST(SyncContextTest, ReduceAppliesCombineAndFlagsChanges) {
  const auto parts = handbuilt::twoHostsOneSharedVertexEach();
  comm::Network net(2);
  std::vector<std::vector<uint64_t>> finals(2);
  comm::runHosts(net, [&](comm::HostId me) {
    analytics::SyncContext sync(net, me, parts[me]);
    // Host 0: master=10, mirror-of-1=99 (dirty). Host 1: master=50,
    // mirror-of-0=5 (dirty). Min-reduce: host0's master becomes 5; host1's
    // master stays 50 (99 is larger).
    std::vector<uint64_t> values = {me == 0 ? 10ull : 50ull,
                                    me == 0 ? 99ull : 5ull};
    support::DynamicBitset dirty(2);
    dirty.set(1);
    support::DynamicBitset changed(2);
    sync.reduceToMasters<uint64_t>(
        values, dirty,
        [](uint64_t& acc, uint64_t in) {
          if (in < acc) {
            acc = in;
            return true;
          }
          return false;
        },
        changed);
    if (me == 0) {
      EXPECT_EQ(values[0], 5u);
      EXPECT_TRUE(changed.test(0));
    } else {
      EXPECT_EQ(values[0], 50u);
      EXPECT_FALSE(changed.test(0));
    }
    EXPECT_FALSE(dirty.test(1)) << "reduce consumes mirror dirty flags";
    finals[me] = values;
  });
}

TEST(SyncContextTest, BroadcastOverwritesMirrors) {
  const auto parts = handbuilt::twoHostsOneSharedVertexEach();
  comm::Network net(2);
  comm::runHosts(net, [&](comm::HostId me) {
    analytics::SyncContext sync(net, me, parts[me]);
    std::vector<uint64_t> values = {me * 100ull + 7, 0ull};
    support::DynamicBitset dirtyMasters(2);
    dirtyMasters.set(0);
    support::DynamicBitset mirrorUpdated(2);
    sync.broadcastToMirrors<uint64_t>(values, dirtyMasters, mirrorUpdated);
    // My mirror (local 1) now holds the peer's master value.
    EXPECT_EQ(values[1], (1 - me) * 100ull + 7);
    EXPECT_TRUE(mirrorUpdated.test(1));
  });
}

TEST(SyncContextTest, CleanBitsetsMoveNoData) {
  const auto parts = handbuilt::twoHostsOneSharedVertexEach();
  comm::Network net(2);
  comm::runHosts(net, [&](comm::HostId me) {
    analytics::SyncContext sync(net, me, parts[me]);
    std::vector<uint64_t> values = {1, 2};
    support::DynamicBitset dirty(2);  // nothing dirty
    support::DynamicBitset changed(2);
    sync.reduceToMasters<uint64_t>(
        values, dirty,
        [](uint64_t&, uint64_t) { return true; }, changed);
    EXPECT_FALSE(changed.any());
    EXPECT_EQ(values, (std::vector<uint64_t>{1, 2}));
  });
  // Messages still flow (partner lists are non-empty) but carry no pairs.
  EXPECT_EQ(net.bytesSent(comm::kTagAppReduce), 2u * 16);  // two empty vecs
}

TEST(SyncContextTest, RejectsMalformedPeerMessages) {
  // Host 1 hand-builds the message host 0 receives; every mirror list in
  // the hand-built partition has one entry, so only position 0 is valid.
  const auto parts = handbuilt::twoHostsOneSharedVertexEach();
  const std::pair<std::vector<uint32_t>, std::vector<uint64_t>> bad[] = {
      {{5}, {7}},     // position past the agreed mirror list
      {{0}, {7, 8}},  // more values than positions
      {{0, 0}, {7}},  // more positions than values
  };
  for (const comm::Tag tag : {comm::kTagAppReduce, comm::kTagAppBroadcast}) {
    for (const auto& [positions, values] : bad) {
      comm::Network net(2);
      auto run = [&](comm::HostId me) {
        if (me == 1) {
          support::SendBuffer buf;
          support::serializeAll(buf, positions, values);
          net.sendReliable(1, 0, tag, std::move(buf));
          return;
        }
        analytics::SyncContext sync(net, me, parts[me]);
        std::vector<uint64_t> state = {10, 20};
        support::DynamicBitset dirty(2);
        support::DynamicBitset changed(2);
        if (tag == comm::kTagAppReduce) {
          sync.reduceToMasters<uint64_t>(
              state, dirty, [](uint64_t&, uint64_t) { return true; },
              changed);
        } else {
          sync.broadcastToMirrors<uint64_t>(state, dirty, changed);
        }
      };
      EXPECT_THROW(comm::runHosts(net, run), std::out_of_range)
          << comm::tagName(tag) << " with " << positions.size()
          << " positions and " << values.size() << " values";
    }
    // The list syncs ship one list per mirror; two lists overrun the list.
    comm::Network net(2);
    auto run = [&](comm::HostId me) {
      if (me == 1) {
        support::SendBuffer buf;
        support::serialize(buf, std::vector<std::vector<uint64_t>>{{1}, {2}});
        net.sendReliable(1, 0, tag, std::move(buf));
        return;
      }
      analytics::SyncContext sync(net, me, parts[me]);
      std::vector<std::vector<uint64_t>> lists(2);
      if (tag == comm::kTagAppReduce) {
        sync.gatherListsToMasters(lists);
      } else {
        sync.broadcastListsToMirrors(lists);
      }
    };
    EXPECT_THROW(comm::runHosts(net, run), std::out_of_range)
        << comm::tagName(tag) << " with two lists";
  }
}

// ---------------------------------------------------------------------------
// Engine structure.
// ---------------------------------------------------------------------------

TEST(AnalyticsEngine, CvcTalksToFewerPartnersThanHvc) {
  // CVC mirrors live only on row/column partners, so each host exchanges
  // sync messages with a strict subset of the cluster; HVC (general vertex
  // cut) has no such structure. Compare partner counts from the metadata.
  const graph::CsrGraph g = graph::generateWebCrawl(
      {.numNodes = 2000, .avgOutDegree = 12.0, .seed = 5});
  const uint32_t hosts = 9;  // 3 x 3 grid
  auto partnerCount = [&](const std::string& policy) {
    const auto parts = partitions(g, policy, hosts);
    uint64_t partners = 0;
    for (const DistGraph& part : parts) {
      for (uint32_t h = 0; h < hosts; ++h) {
        if (h != part.hostId && (!part.mirrorsOnHost[h].empty() ||
                                 !part.myMirrorsByOwner[h].empty())) {
          ++partners;
        }
      }
    }
    return partners;
  };
  const uint64_t cvcPartners = partnerCount("CVC");
  const uint64_t hvcPartners = partnerCount("HVC");
  // 3x3 CVC: each host shares proxies with at most 2 row + 2 col partners.
  EXPECT_LE(cvcPartners, hosts * 4ull);
  EXPECT_GT(hvcPartners, cvcPartners);
}

TEST(AnalyticsEngine, RejectsCscPartitions) {
  const graph::CsrGraph g = graph::makePath(8);
  const graph::GraphFile file = graph::GraphFile::fromCsr(g);
  core::PartitionerConfig config;
  config.numHosts = 2;
  config.buildTranspose = true;
  auto parts =
      core::partitionGraph(file, core::makePolicy("EEC"), config).partitions;
  EXPECT_THROW(analytics::runBfs(parts, 0), std::invalid_argument);
}

TEST(AnalyticsEngine, StatsReportRoundsAndTraffic) {
  const graph::CsrGraph g = graph::generateErdosRenyi(300, 1800, 61);
  const auto parts = partitions(g, "CVC", 4);
  analytics::RunStats stats;
  const uint64_t source = analytics::maxOutDegreeNode(g);
  analytics::runBfs(parts, source, &stats);
  EXPECT_GT(stats.rounds, 0u);
  EXPECT_GT(stats.seconds, 0.0);
  EXPECT_GT(stats.syncMessages, 0u);
}

TEST(AnalyticsEngine, BfsOnSingleHostNeedsNoSync) {
  const graph::CsrGraph g = graph::generateErdosRenyi(200, 1000, 67);
  const auto parts = partitions(g, "EEC", 1);
  analytics::RunStats stats;
  const auto actual = analytics::runBfs(parts, 0, &stats);
  EXPECT_EQ(actual, analytics::bfsReference(g, 0));
  EXPECT_EQ(stats.syncBytes, 0u);
}

// ---------------------------------------------------------------------------
// Golden fingerprints: the outputs and sync traffic of the plain drivers on
// a weighted kron stand-in, recorded while the plain and resilient drivers
// still had separate superstep kernels (and so still checked each other).
// Any change to a kernel, its scratch reuse or the sync wire format that
// alters a value, a round count or a sync byte fails here.
// ---------------------------------------------------------------------------

uint64_t fnv1a(const std::vector<uint64_t>& words) {
  uint64_t hash = 0xcbf29ce484222325ull;
  for (const uint64_t word : words) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (word >> (8 * byte)) & 0xffu;
      hash *= 0x100000001b3ull;
    }
  }
  return hash;
}

uint64_t fnv1a(const std::vector<double>& values) {
  std::vector<uint64_t> bits(values.size());
  std::transform(values.begin(), values.end(), bits.begin(),
                 [](double v) { return std::bit_cast<uint64_t>(v); });
  return fnv1a(bits);
}

struct GoldenRun {
  std::string policy;
  uint32_t hosts = 0;
  std::string algo;
  uint64_t digest = 0;
  uint32_t rounds = 0;
  uint64_t syncBytes = 0;
  uint64_t syncMessages = 0;
  bool operator==(const GoldenRun&) const = default;
};

std::ostream& operator<<(std::ostream& os, const GoldenRun& r) {
  return os << "{\"" << r.policy << "\", " << r.hosts << ", \"" << r.algo
            << "\", 0x" << std::hex << r.digest << std::dec << "ull, "
            << r.rounds << ", " << r.syncBytes << ", " << r.syncMessages
            << "}";
}

const std::vector<GoldenRun>& goldenRuns() {
  static const std::vector<GoldenRun> runs = {
      {"EEC", 2, "bfs", 0x5e89aadd67f262b5ull, 4, 8104, 16},
      {"EEC", 2, "sssp", 0x90bd25451cf1e7fcull, 5, 12608, 20},
      {"EEC", 2, "cc", 0xd029ca2d0b0ff3deull, 3, 9144, 12},
      {"EEC", 2, "pagerank", 0xeebc24d1dce1162ull, 38, 333840, 156},
      {"EEC", 4, "bfs", 0x5e89aadd67f262b5ull, 4, 17220, 96},
      {"EEC", 4, "sssp", 0x90bd25451cf1e7fcull, 6, 27948, 144},
      {"EEC", 4, "cc", 0xd029ca2d0b0ff3deull, 3, 24684, 72},
      {"EEC", 4, "pagerank", 0x767a28d25d054f92ull, 38, 779688, 936},
      {"HVC", 2, "bfs", 0x5e89aadd67f262b5ull, 4, 8104, 16},
      {"HVC", 2, "sssp", 0x90bd25451cf1e7fcull, 5, 12608, 20},
      {"HVC", 2, "cc", 0xd029ca2d0b0ff3deull, 3, 8856, 12},
      {"HVC", 2, "pagerank", 0xeebc24d1dce1162ull, 38, 333840, 156},
      {"HVC", 4, "bfs", 0x5e89aadd67f262b5ull, 4, 17220, 96},
      {"HVC", 4, "sssp", 0x90bd25451cf1e7fcull, 6, 27948, 144},
      {"HVC", 4, "cc", 0xd029ca2d0b0ff3deull, 3, 23724, 72},
      {"HVC", 4, "pagerank", 0x767a28d25d054f92ull, 38, 779688, 936},
      {"CVC", 2, "bfs", 0x5e89aadd67f262b5ull, 4, 8104, 16},
      {"CVC", 2, "sssp", 0x90bd25451cf1e7fcull, 5, 12608, 20},
      {"CVC", 2, "cc", 0xd029ca2d0b0ff3deull, 3, 9144, 12},
      {"CVC", 2, "pagerank", 0xeebc24d1dce1162ull, 38, 333840, 156},
      {"CVC", 4, "bfs", 0x5e89aadd67f262b5ull, 4, 12556, 64},
      {"CVC", 4, "sssp", 0x90bd25451cf1e7fcull, 6, 20340, 96},
      {"CVC", 4, "cc", 0xd029ca2d0b0ff3deull, 4, 19060, 64},
      {"CVC", 4, "pagerank", 0x57a594aefa3613cbull, 38, 503568, 624},
  };
  return runs;
}

TEST(AnalyticsGolden, OutputsAndTrafficMatchRecordedFingerprints) {
  const graph::CsrGraph g =
      graph::withRandomWeights(graph::makeStandIn("kron", 6000, 7), 20, 5);
  const graph::CsrGraph sym = g.symmetrized();
  const uint64_t source = analytics::maxOutDegreeNode(g);
  std::vector<GoldenRun> actual;
  for (const std::string policy : {"EEC", "HVC", "CVC"}) {
    for (const uint32_t hosts : {2u, 4u}) {
      const auto parts = partitions(g, policy, hosts);
      const auto symParts = partitions(sym, policy, hosts);
      analytics::RunStats stats;
      auto record = [&](const char* algo, uint64_t digest) {
        actual.push_back({policy, hosts, algo, digest, stats.rounds,
                          stats.syncBytes, stats.syncMessages});
      };
      record("bfs", fnv1a(analytics::runBfs(parts, source, &stats)));
      record("sssp", fnv1a(analytics::runSssp(parts, source, &stats)));
      record("cc", fnv1a(analytics::runCc(symParts, &stats)));
      record("pagerank", fnv1a(analytics::runPageRank(parts, {}, &stats)));
    }
  }
  ASSERT_EQ(actual.size(), goldenRuns().size()) << [&] {
    std::ostringstream os;
    for (const GoldenRun& r : actual) {
      os << r << ",\n";
    }
    return os.str();
  }();
  for (size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i], goldenRuns()[i]);
  }
}

}  // namespace
}  // namespace cusp
