#include "core/dist_graph.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <string>

#include "support/crc32.h"
#include "support/serialize.h"

namespace cusp::core {

std::optional<uint64_t> DistGraph::localIdOf(uint64_t globalId) const {
  const auto first = localToGlobal.begin();
  const auto split =
      first + static_cast<ptrdiff_t>(std::min(numMasters, numLocalNodes()));
  for (const auto& [lo, hi] : {std::pair{first, split},
                               std::pair{split, localToGlobal.end()}}) {
    const auto it = std::lower_bound(lo, hi, globalId);
    if (it != hi && *it == globalId) {
      return static_cast<uint64_t>(it - first);
    }
  }
  return std::nullopt;
}

std::vector<graph::Edge> DistGraph::edgesWithGlobalIds() const {
  std::vector<graph::Edge> edges;
  edges.reserve(graph.numEdges());
  for (uint64_t u = 0; u < graph.numNodes(); ++u) {
    for (uint64_t e = graph.edgeBegin(u); e < graph.edgeEnd(u); ++e) {
      const uint64_t v = graph.edgeDst(e);
      graph::Edge edge{localToGlobal[u], localToGlobal[v], graph.edgeData(e)};
      if (isTransposed) {
        std::swap(edge.src, edge.dst);
      }
      edges.push_back(edge);
    }
  }
  return edges;
}

PartitionQuality computeQuality(std::span<const DistGraph> partitions) {
  PartitionQuality q;
  if (partitions.empty()) {
    return q;
  }
  q.minLocalNodes = UINT64_MAX;
  q.minLocalEdges = UINT64_MAX;
  uint64_t totalEdges = 0;
  for (const DistGraph& part : partitions) {
    const uint64_t nodes = part.numLocalNodes();
    const uint64_t edges = part.numLocalEdges();
    q.totalProxies += nodes;
    q.totalMasters += part.numMasters;
    q.minLocalNodes = std::min(q.minLocalNodes, nodes);
    q.maxLocalNodes = std::max(q.maxLocalNodes, nodes);
    q.minLocalEdges = std::min(q.minLocalEdges, edges);
    q.maxLocalEdges = std::max(q.maxLocalEdges, edges);
    totalEdges += edges;
  }
  const uint64_t numGlobalNodes = partitions.front().numGlobalNodes;
  if (numGlobalNodes > 0) {
    q.avgReplicationFactor = static_cast<double>(q.totalProxies) /
                             static_cast<double>(numGlobalNodes);
  }
  const double avgNodes = static_cast<double>(q.totalProxies) /
                          static_cast<double>(partitions.size());
  const double avgEdges =
      static_cast<double>(totalEdges) / static_cast<double>(partitions.size());
  q.nodeImbalance = avgNodes > 0 ? static_cast<double>(q.maxLocalNodes) / avgNodes : 0;
  q.edgeImbalance = avgEdges > 0 ? static_cast<double>(q.maxLocalEdges) / avgEdges : 0;
  return q;
}

std::vector<graph::Edge> gatherAllEdges(
    std::span<const DistGraph> partitions) {
  std::vector<graph::Edge> all;
  for (const DistGraph& part : partitions) {
    auto edges = part.edgesWithGlobalIds();
    all.insert(all.end(), edges.begin(), edges.end());
  }
  std::sort(all.begin(), all.end());
  return all;
}

namespace {

constexpr uint64_t kDistGraphMagic = 0x0000000031474443ULL;  // "CDG1"

[[noreturn]] void fail(const std::string& what) {
  throw std::logic_error("validatePartitions: " + what);
}

}  // namespace

void serializeDistGraph(support::SendBuffer& buf, const DistGraph& part) {
  support::serializeAll(
      buf, kDistGraphMagic, part.hostId, part.numHosts, part.numGlobalNodes,
      part.numGlobalEdges, static_cast<uint8_t>(part.isTransposed),
      part.numMasters, part.localToGlobal, part.masterHostOfLocal);
  support::serializeAll(
      buf,
      std::vector<uint64_t>(part.graph.rowStarts().begin(),
                            part.graph.rowStarts().end()),
      std::vector<uint64_t>(part.graph.destinations().begin(),
                            part.graph.destinations().end()),
      std::vector<uint32_t>(part.graph.edgeDataArray().begin(),
                            part.graph.edgeDataArray().end()));
  support::serializeAll(buf, part.mirrorsOnHost, part.myMirrorsByOwner);
}

DistGraph deserializeDistGraph(support::RecvBuffer& buf) {
  uint64_t magic = 0;
  DistGraph part;
  uint8_t transposed = 0;
  support::deserializeAll(buf, magic, part.hostId, part.numHosts,
                          part.numGlobalNodes, part.numGlobalEdges,
                          transposed, part.numMasters, part.localToGlobal,
                          part.masterHostOfLocal);
  if (magic != kDistGraphMagic) {
    throw std::runtime_error("bad magic");
  }
  part.isTransposed = transposed != 0;
  std::vector<uint64_t> rowStart;
  std::vector<uint64_t> dests;
  std::vector<uint32_t> edgeData;
  support::deserializeAll(buf, rowStart, dests, edgeData);
  part.graph = graph::CsrGraph(std::move(rowStart), std::move(dests),
                               std::move(edgeData));
  support::deserializeAll(buf, part.mirrorsOnHost, part.myMirrorsByOwner);
  if (part.numMasters > part.numLocalNodes() ||
      part.masterHostOfLocal.size() != part.numLocalNodes() ||
      part.graph.numNodes() != part.numLocalNodes() ||
      part.mirrorsOnHost.size() != part.numHosts ||
      part.myMirrorsByOwner.size() != part.numHosts) {
    throw std::runtime_error("inconsistent sizes");
  }
  // localIdOf binary-searches each half, so the layout is part of the
  // format: both halves strictly increasing, every id a real vertex.
  const auto& l2g = part.localToGlobal;
  for (uint64_t lid = 0; lid < l2g.size(); ++lid) {
    if (l2g[lid] >= part.numGlobalNodes) {
      throw std::runtime_error("global id out of range");
    }
    if (lid > 0 && lid != part.numMasters && l2g[lid] <= l2g[lid - 1]) {
      throw std::runtime_error("local ids not sorted by global id");
    }
  }
  return part;
}

void saveDistGraph(const std::string& path, const DistGraph& part) {
  support::SendBuffer buf;
  serializeDistGraph(buf, part);
  std::vector<uint8_t> bytes = buf.release();
  support::appendCrcFooter(bytes);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    throw std::runtime_error("saveDistGraph: cannot create " + path);
  }
  const size_t written = std::fwrite(bytes.data(), 1, bytes.size(), f);
  const bool ok = written == bytes.size() && std::fflush(f) == 0;
  std::fclose(f);
  if (!ok) {
    throw std::runtime_error("saveDistGraph: short write to " + path);
  }
}

DistGraph loadDistGraph(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    throw std::runtime_error("loadDistGraph: cannot open " + path);
  }
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  std::vector<uint8_t> bytes(static_cast<size_t>(size));
  const size_t read = std::fread(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
  if (read != bytes.size()) {
    throw std::runtime_error("loadDistGraph: short read from " + path);
  }
  if (support::verifyAndStripCrcFooter(bytes) ==
      support::CrcFooterStatus::kMismatch) {
    throw std::runtime_error("loadDistGraph: checksum mismatch in " + path);
  }
  support::RecvBuffer buf(std::move(bytes));
  // Truncated or corrupt files surface as deserialization/validation
  // errors; report them uniformly as a file-level failure.
  try {
    DistGraph part = deserializeDistGraph(buf);
    if (!buf.exhausted()) {
      throw std::runtime_error("trailing bytes");
    }
    return part;
  } catch (const std::exception& e) {
    throw std::runtime_error("loadDistGraph: corrupt file " + path + " (" +
                             e.what() + ")");
  }
}

void validatePartitions(const graph::CsrGraph& original,
                        std::span<const DistGraph> partitions,
                        bool checkEdgeMultiset) {
  if (partitions.empty()) {
    fail("no partitions");
  }
  const uint64_t numGlobal = original.numNodes();
  const uint32_t numHosts = static_cast<uint32_t>(partitions.size());
  std::vector<uint32_t> masterCount(numGlobal, 0);
  std::vector<uint32_t> masterHost(numGlobal, UINT32_MAX);

  for (uint32_t h = 0; h < numHosts; ++h) {
    const DistGraph& part = partitions[h];
    if (part.hostId != h || part.numHosts != numHosts) {
      fail("host id / host count mismatch on host " + std::to_string(h));
    }
    if (part.numGlobalNodes != numGlobal) {
      fail("global node count mismatch on host " + std::to_string(h));
    }
    if (part.masterHostOfLocal.size() != part.numLocalNodes()) {
      fail("masterHostOfLocal size mismatch on host " + std::to_string(h));
    }
    if (part.graph.numNodes() != part.numLocalNodes()) {
      fail("local CSR node count mismatch on host " + std::to_string(h));
    }
    // Layout: masters sorted, then mirrors sorted; given that, localIdOf
    // is the inverse of localToGlobal unless a vertex is in both halves.
    for (uint64_t lid = 0; lid < part.numLocalNodes(); ++lid) {
      const uint64_t gid = part.localToGlobal[lid];
      if (gid >= numGlobal) {
        fail("global id out of range on host " + std::to_string(h));
      }
      if (lid + 1 < part.numLocalNodes() && lid + 1 != part.numMasters &&
          part.localToGlobal[lid + 1] <= gid) {
        fail("local ids not sorted by global id within segment on host " +
             std::to_string(h));
      }
      auto found = part.localIdOf(gid);
      if (!found || *found != lid) {
        fail("localIdOf not inverse of localToGlobal on host " +
             std::to_string(h));
      }
      if (part.isMaster(lid)) {
        if (part.masterHostOfLocal[lid] != h) {
          fail("master proxy with foreign master host on host " +
               std::to_string(h));
        }
        ++masterCount[gid];
        masterHost[gid] = h;
      } else if (part.masterHostOfLocal[lid] == h) {
        fail("mirror claims to be owned by its own host " + std::to_string(h));
      }
    }
  }
  for (uint64_t v = 0; v < numGlobal; ++v) {
    if (masterCount[v] != 1) {
      fail("vertex " + std::to_string(v) + " has " +
           std::to_string(masterCount[v]) + " masters (expected 1)");
    }
  }
  // Mirrors must point at the true master host, and the cross-host metadata
  // must pair up: a.mirrorsOnHost[b] == b.myMirrorsByOwner[a] (as gids).
  for (uint32_t h = 0; h < numHosts; ++h) {
    const DistGraph& part = partitions[h];
    if (part.mirrorsOnHost.size() != numHosts ||
        part.myMirrorsByOwner.size() != numHosts) {
      fail("sync metadata size mismatch on host " + std::to_string(h));
    }
    for (uint64_t lid = part.numMasters; lid < part.numLocalNodes(); ++lid) {
      if (part.masterHostOfLocal[lid] != masterHost[part.localToGlobal[lid]]) {
        fail("mirror has wrong master host on host " + std::to_string(h));
      }
    }
    for (uint32_t owner = 0; owner < numHosts; ++owner) {
      for (uint64_t lid : part.myMirrorsByOwner[owner]) {
        if (part.isMaster(lid) || part.masterHostOfLocal[lid] != owner) {
          fail("myMirrorsByOwner inconsistent on host " + std::to_string(h));
        }
      }
    }
  }
  for (uint32_t a = 0; a < numHosts; ++a) {
    for (uint32_t b = 0; b < numHosts; ++b) {
      const auto& broadcastSide = partitions[a].mirrorsOnHost[b];
      const auto& reduceSide = partitions[b].myMirrorsByOwner[a];
      if (broadcastSide.size() != reduceSide.size()) {
        fail("mirror metadata size disagrees between hosts " +
             std::to_string(a) + " and " + std::to_string(b));
      }
      for (size_t i = 0; i < broadcastSide.size(); ++i) {
        if (partitions[a].localToGlobal[broadcastSide[i]] !=
            partitions[b].localToGlobal[reduceSide[i]]) {
          fail("mirror metadata order disagrees between hosts " +
               std::to_string(a) + " and " + std::to_string(b));
        }
      }
    }
  }
  if (checkEdgeMultiset) {
    std::vector<graph::Edge> expected = original.toEdges();
    std::sort(expected.begin(), expected.end());
    const std::vector<graph::Edge> actual = gatherAllEdges(partitions);
    if (expected != actual) {
      fail("partitioned edge multiset differs from the input graph (" +
           std::to_string(actual.size()) + " vs " +
           std::to_string(expected.size()) + " edges)");
    }
  }
}

}  // namespace cusp::core
