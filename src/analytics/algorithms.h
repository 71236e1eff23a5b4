// Distributed graph analytics over CuSP partitions: bfs, cc, pagerank, sssp
// — the four applications of the paper's quality evaluation (Section V-C).
//
// Each algorithm has
//   * a host-level entry point (<algo>OnHost) for callers already running
//     inside a Network, returning the per-local-node values, and
//   * a driver (run<Algo>) that spins up a Network over a full partition
//     set, runs all hosts, and gathers the master values into one global
//     array (index = global node id).
//
// bfs, sssp and cc share a min-propagation skeleton (Bellman-Ford-style
// rounds with min-reduce and broadcast); pagerank is topological with
// add-reduce of contributions. Their superstep bodies live in
// analytics/programs.h, shared with the resilient drivers. Sources for
// bfs/sssp default to the paper's choice, the node with the highest
// out-degree.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "comm/network.h"
#include "core/dist_graph.h"

namespace cusp::analytics {

inline constexpr uint64_t kInfinity = UINT64_MAX;

struct RunStats {
  uint32_t rounds = 0;
  // Simulated cluster makespan: per BSP round, the slowest host's CPU work
  // plus its modeled communication charges, summed over rounds (see
  // comm::NetworkCostModel). With a zero cost model this is the max-host
  // CPU time, which is still the right "cluster time" on a time-shared
  // simulation machine.
  double seconds = 0.0;
  // Actual wall-clock of the simulation on this machine.
  double wallSeconds = 0.0;
  uint64_t syncBytes = 0;     // kTagAppReduce + kTagAppBroadcast traffic
  uint64_t syncMessages = 0;
};

// --- host-level entry points (collective: every host must call) ---

std::vector<uint64_t> bfsOnHost(comm::Network& net, comm::HostId me,
                                const core::DistGraph& part,
                                uint64_t sourceGid,
                                uint32_t* roundsOut = nullptr,
                                double* modeledSecondsOut = nullptr);

std::vector<uint64_t> ssspOnHost(comm::Network& net, comm::HostId me,
                                 const core::DistGraph& part,
                                 uint64_t sourceGid,
                                 uint32_t* roundsOut = nullptr,
                                 double* modeledSecondsOut = nullptr);

// Connected components via label propagation; the partitions should come
// from a symmetric (undirected) graph, as in the paper's cc runs.
std::vector<uint64_t> ccOnHost(comm::Network& net, comm::HostId me,
                               const core::DistGraph& part,
                               uint32_t* roundsOut = nullptr,
                               double* modeledSecondsOut = nullptr);

struct PageRankParams {
  double damping = 0.85;
  double tolerance = 1e-6;  // max |delta| convergence (paper: 1e-6)
  uint32_t maxIterations = 100;  // paper: 100
};

std::vector<double> pageRankOnHost(comm::Network& net, comm::HostId me,
                                   const core::DistGraph& part,
                                   const PageRankParams& params,
                                   uint32_t* roundsOut = nullptr,
                                   double* modeledSecondsOut = nullptr);

// k-core decomposition (peeling): returns 1 for vertices in the k-core of
// the (symmetric) graph, 0 otherwise. Iteratively removes vertices whose
// remaining degree drops below k, propagating degree decrements through
// master/mirror sync. Part of the D-Galois benchmark family the paper's
// ecosystem evaluates.
std::vector<uint64_t> kCoreOnHost(comm::Network& net, comm::HostId me,
                                  const core::DistGraph& part, uint64_t k,
                                  uint32_t* roundsOut = nullptr,
                                  double* modeledSecondsOut = nullptr);

// Triangle counting on partitions of a SIMPLE SYMMETRIC graph (use
// CsrGraph::simpleSymmetrized()). Degree-ordered orientation: each
// triangle is counted exactly once as a closed wedge of the oriented
// graph. Oriented adjacency lists are gathered at masters and broadcast to
// every proxy (the neighborhood-exchange pattern distributed TC needs),
// then each host intersects over its local edges. Returns the global
// triangle count (identical on every host).
uint64_t triangleCountOnHost(comm::Network& net, comm::HostId me,
                             const core::DistGraph& part,
                             double* modeledSecondsOut = nullptr);

// --- whole-cluster drivers ---
//
// `costModel` configures the simulated interconnect for the run (paper
// quality experiments depend on communication structure; a non-zero model
// makes sync traffic cost real time).

std::vector<uint64_t> runBfs(std::span<const core::DistGraph> partitions,
                             uint64_t sourceGid, RunStats* stats = nullptr,
                             const comm::NetworkCostModel& costModel = {});
std::vector<uint64_t> runSssp(std::span<const core::DistGraph> partitions,
                              uint64_t sourceGid, RunStats* stats = nullptr,
                              const comm::NetworkCostModel& costModel = {});
std::vector<uint64_t> runCc(std::span<const core::DistGraph> partitions,
                            RunStats* stats = nullptr,
                            const comm::NetworkCostModel& costModel = {});
std::vector<double> runPageRank(std::span<const core::DistGraph> partitions,
                                const PageRankParams& params = {},
                                RunStats* stats = nullptr,
                                const comm::NetworkCostModel& costModel = {});
std::vector<uint64_t> runKCore(std::span<const core::DistGraph> partitions,
                               uint64_t k, RunStats* stats = nullptr,
                               const comm::NetworkCostModel& costModel = {});
uint64_t runTriangleCount(std::span<const core::DistGraph> partitions,
                          RunStats* stats = nullptr,
                          const comm::NetworkCostModel& costModel = {});

// The paper's source choice for bfs and sssp: highest out-degree node.
uint64_t maxOutDegreeNode(const graph::CsrGraph& graph);

// Global out-degree of every local proxy: local degrees add-reduced to
// masters and broadcast back (a vertex-cut splits a node's out-edges
// across hosts). Collective — every host must call. Used internally by
// pagerank/k-core/tc and by the resilient driver to rebuild derived state
// after a rollback.
std::vector<uint64_t> globalOutDegreesOnHost(comm::Network& net,
                                             comm::HostId me,
                                             const core::DistGraph& part);

}  // namespace cusp::analytics
