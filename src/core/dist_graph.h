// The per-host partition produced by CuSP: a local CSR graph over local ids
// plus the proxy bookkeeping (masters/mirrors) that distributed analytics
// engines synchronize over (paper Section II).
//
// Local id layout: masters first (sorted by global id), then mirrors
// (sorted by global id); localIdOf binary-searches the two halves. Every
// vertex of the original graph has exactly one master proxy across all
// partitions; a mirror exists on a host iff some edge assigned to that host
// touches the vertex and the host is not the vertex's master.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "graph/csr_graph.h"
#include "support/serialize.h"

namespace cusp::core {

struct DistGraph {
  uint32_t hostId = 0;
  uint32_t numHosts = 1;
  uint64_t numGlobalNodes = 0;
  uint64_t numGlobalEdges = 0;

  // Local topology over local ids; row i are the out-edges of local node i.
  // Only present nodes have rows (mirrors included). If the partition was
  // requested in CSC format this is the transpose (in-edges).
  graph::CsrGraph graph;
  bool isTransposed = false;  // true if `graph` holds the CSC orientation

  // Local ids [0, numMasters) are masters; [numMasters, numLocal) mirrors.
  // Each half is strictly increasing in global id.
  uint64_t numMasters = 0;
  std::vector<uint64_t> localToGlobal;

  // Host holding the master proxy of each local node (== hostId for
  // masters).
  std::vector<uint32_t> masterHostOfLocal;

  // Communication metadata for master/mirror synchronization:
  //  mirrorsOnHost[h]   — local ids of MY MASTERS that have a mirror on h
  //                       (broadcast destinations), sorted by global id.
  //  myMirrorsByOwner[h] — local ids of MY MIRRORS whose master is on h
  //                       (reduce destinations), sorted by global id.
  // For every pair of hosts (a, b): a.mirrorsOnHost[b] and
  // b.myMirrorsByOwner[a] list the same vertices in the same order.
  std::vector<std::vector<uint64_t>> mirrorsOnHost;
  std::vector<std::vector<uint64_t>> myMirrorsByOwner;

  uint64_t numLocalNodes() const { return localToGlobal.size(); }
  uint64_t numLocalEdges() const { return graph.numEdges(); }
  uint64_t numMirrors() const { return numLocalNodes() - numMasters; }
  bool isMaster(uint64_t localId) const { return localId < numMasters; }

  uint64_t globalId(uint64_t localId) const { return localToGlobal[localId]; }
  // Binary search over the master half, then the mirror half; nullopt when
  // this host holds no proxy of the vertex.
  std::optional<uint64_t> localIdOf(uint64_t globalId) const;

  // Materializes this partition's edges with global endpoints (and edge
  // data); used to validate that partitions reassemble into the input.
  std::vector<graph::Edge> edgesWithGlobalIds() const;
};

// Structural quality metrics over a full set of partitions (paper Section
// V-C discusses replication factor and node/edge balance).
struct PartitionQuality {
  double avgReplicationFactor = 0.0;  // total proxies / |V with proxies|
  uint64_t totalProxies = 0;
  uint64_t totalMasters = 0;
  uint64_t minLocalNodes = 0, maxLocalNodes = 0;
  uint64_t minLocalEdges = 0, maxLocalEdges = 0;
  double nodeImbalance = 0.0;  // max local nodes / avg local nodes
  double edgeImbalance = 0.0;  // max local edges / avg local edges
};

PartitionQuality computeQuality(std::span<const DistGraph> partitions);

// Gathers every partition's edges (global ids); sorted. Together with the
// input's sorted edge list this verifies "every edge assigned exactly once".
std::vector<graph::Edge> gatherAllEdges(std::span<const DistGraph> partitions);

// Binary (de)serialization of a partition — paper Section III-A: "These
// partitions can be written to disk if desired." The file carries the full
// DistGraph: local topology, id maps, master/mirror metadata, so a
// partition set written by `partition_tool` can be reloaded later and fed
// straight to the analytics engine. Format: "CDG1" magic followed by the
// serialized fields (see dist_graph.cpp), then a CRC32 footer
// (support/crc32.h). Readers verify the footer when present and accept
// legacy footerless files unchanged.
void saveDistGraph(const std::string& path, const DistGraph& part);
DistGraph loadDistGraph(const std::string& path);

// In-memory (de)serialization of the full DistGraph, shared by the .cdg
// file format and the phase-5 partitioning checkpoints. The byte stream is
// deterministic for a given partition, so bit-identical partitions produce
// bit-identical streams — the property the recovery tests compare on.
// Deserialization rejects a localToGlobal whose master or mirror half is not
// strictly increasing or that names a vertex >= numGlobalNodes, since
// localIdOf depends on that layout.
void serializeDistGraph(support::SendBuffer& buf, const DistGraph& part);
DistGraph deserializeDistGraph(support::RecvBuffer& buf);

// Exhaustive structural validation of a partition set against the original
// graph; throws std::logic_error with a description on the first violation.
// Checks: exactly one master per vertex, local id layout (which makes
// localIdOf the inverse of localToGlobal), mirror metadata pairing across
// hosts, and (optionally) the edge multiset. Used by tests and by examples
// in debug mode.
void validatePartitions(const graph::CsrGraph& original,
                        std::span<const DistGraph> partitions,
                        bool checkEdgeMultiset = true);

}  // namespace cusp::core
