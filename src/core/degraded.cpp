#include "core/degraded.h"

#include <algorithm>
#include <stdexcept>

#include "support/bitset.h"
#include "support/memory.h"
#include "support/storage.h"

namespace cusp::core {

const char* ClassifiedFault::kindName() const {
  switch (kind) {
    case kHostFailure: return "HostFailure";
    case kNetworkStalled: return "NetworkStalled";
    case kSendRetriesExhausted: return "SendRetriesExhausted";
    case kHostEvicted: return "HostEvicted";
    case kMessageCorrupt: return "MessageCorrupt";
    case kStorageFault: return "StorageFault";
    case kStragglerDeadline: return "StragglerDeadline";
    case kMemoryPressure: return "MemoryPressure";
    case kMinorityPartition: return "MinorityPartition";
  }
  return "unknown";
}

std::optional<ClassifiedFault> classifyFault(std::exception_ptr ep) {
  try {
    std::rethrow_exception(ep);
  } catch (const comm::HostFailure& e) {
    return ClassifiedFault{ClassifiedFault::kHostFailure, e.what(), e.host,
                           e.phase};
  } catch (const comm::NetworkStalled& e) {
    return ClassifiedFault{ClassifiedFault::kNetworkStalled, e.what(),
                           comm::kAnyHost, 0};
  } catch (const comm::SendRetriesExhausted& e) {
    return ClassifiedFault{ClassifiedFault::kSendRetriesExhausted, e.what(),
                           comm::kAnyHost, 0};
  } catch (const comm::HostEvicted& e) {
    return ClassifiedFault{ClassifiedFault::kHostEvicted, e.what(), e.host,
                           0};
  } catch (const comm::MessageCorrupt& e) {
    return ClassifiedFault{ClassifiedFault::kMessageCorrupt, e.what(),
                           comm::kAnyHost, 0};
  } catch (const comm::StragglerDeadline& e) {
    return ClassifiedFault{ClassifiedFault::kStragglerDeadline, e.what(),
                           e.laggard, 0};
  } catch (const comm::MinorityPartition& e) {
    return ClassifiedFault{ClassifiedFault::kMinorityPartition, e.what(),
                           e.host, 0};
  } catch (const support::StorageError& e) {
    return ClassifiedFault{ClassifiedFault::kStorageFault, e.what(),
                           comm::kAnyHost, 0};
  } catch (const support::MemoryPressure& e) {
    return ClassifiedFault{ClassifiedFault::kMemoryPressure, e.what(),
                           comm::kAnyHost, 0};
  } catch (...) {
    return std::nullopt;
  }
}

namespace {

// Local id of a vertex `part` must hold a proxy of.
uint64_t proxyLid(const DistGraph& part, uint64_t gid) {
  const std::optional<uint64_t> lid = part.localIdOf(gid);
  if (!lid) {
    throw std::logic_error(
        "redistributePartitions: vertex without a proxy on its host");
  }
  return *lid;
}

}  // namespace

std::vector<DistGraph> redistributePartitions(
    const std::vector<DistGraph>& parts,
    const std::vector<uint32_t>& evictedRanks, bool compact) {
  const uint32_t k = static_cast<uint32_t>(parts.size());
  if (k == 0) {
    throw std::invalid_argument("redistributePartitions: no partitions");
  }
  std::vector<bool> evicted(k, false);
  for (uint32_t r : evictedRanks) {
    if (r >= k) {
      throw std::invalid_argument(
          "redistributePartitions: evicted rank out of range");
    }
    evicted[r] = true;
  }
  std::vector<uint32_t> survivors;
  for (uint32_t r = 0; r < k; ++r) {
    if (!evicted[r]) {
      survivors.push_back(r);
    }
  }
  const uint32_t numSurvivors = static_cast<uint32_t>(survivors.size());
  if (numSurvivors == 0) {
    throw std::invalid_argument("redistributePartitions: every rank evicted");
  }
  for (uint32_t r = 0; r < k; ++r) {
    if (parts[r].numHosts != k || parts[r].hostId != r) {
      throw std::invalid_argument(
          "redistributePartitions: parts is not a complete rank-indexed "
          "partition family");
    }
  }
  const uint64_t numGlobalNodes = parts[0].numGlobalNodes;
  const uint64_t numGlobalEdges = parts[0].numGlobalEdges;
  const bool transposed = parts[0].isTransposed;
  bool withData = false;
  for (const DistGraph& p : parts) {
    withData = withData || p.graph.hasEdgeData();
  }

  // Output slot of each surviving original rank: dense renumbering when
  // compact, identity otherwise. masterHostOfLocal and the mirror lists are
  // indexed/valued in slot space, so both modes share the code below.
  std::vector<uint32_t> slotOf(k, UINT32_MAX);
  for (uint32_t i = 0; i < numSurvivors; ++i) {
    slotOf[survivors[i]] = compact ? i : survivors[i];
  }
  const uint32_t outHosts = compact ? numSurvivors : k;

  // New master of every vertex (original rank space): survivors keep their
  // masters; an evicted rank's vertices go to survivors[gid mod S] — a pure
  // modulo rule, so every host computes the identical reassignment without
  // communication (paper IV-D5).
  std::vector<uint32_t> newMasterOf(numGlobalNodes, UINT32_MAX);
  for (const DistGraph& p : parts) {
    for (uint64_t lid = 0; lid < p.numMasters; ++lid) {
      newMasterOf[p.localToGlobal[lid]] = p.hostId;
    }
  }
  for (uint64_t gid = 0; gid < numGlobalNodes; ++gid) {
    if (newMasterOf[gid] == UINT32_MAX) {
      throw std::logic_error(
          "redistributePartitions: vertex without a master proxy");
    }
    if (evicted[newMasterOf[gid]]) {
      newMasterOf[gid] = survivors[gid % numSurvivors];
    }
  }

  // Edges by new owner, in storage orientation (stored row vertex first —
  // the source, or the destination for transposed partitions). Survivors
  // keep their own edges; an evicted rank's edges follow the new master of
  // their row vertex.
  struct GEdge {
    uint64_t row;
    uint64_t col;
    uint32_t data;
  };
  std::vector<std::vector<GEdge>> edgesOf(k);
  for (const DistGraph& p : parts) {
    const graph::CsrGraph& g = p.graph;
    for (uint64_t lid = 0; lid < p.numLocalNodes(); ++lid) {
      const uint64_t rowGid = p.localToGlobal[lid];
      const uint32_t target =
          evicted[p.hostId] ? newMasterOf[rowGid] : p.hostId;
      for (uint64_t e = g.edgeBegin(lid); e < g.edgeEnd(lid); ++e) {
        edgesOf[target].push_back(
            GEdge{rowGid, p.localToGlobal[g.edgeDst(e)], g.edgeData(e)});
      }
    }
  }

  std::vector<std::vector<uint64_t>> mastersOf(k);
  for (uint64_t gid = 0; gid < numGlobalNodes; ++gid) {
    mastersOf[newMasterOf[gid]].push_back(gid);  // ascending by construction
  }

  std::vector<DistGraph> out(outHosts);
  for (uint32_t slot = 0; slot < outHosts; ++slot) {
    out[slot].hostId = slot;
    out[slot].numHosts = outHosts;
    out[slot].numGlobalNodes = numGlobalNodes;
    out[slot].numGlobalEdges = numGlobalEdges;
    out[slot].isTransposed = transposed;
    out[slot].mirrorsOnHost.assign(outHosts, {});
    out[slot].myMirrorsByOwner.assign(outHosts, {});
  }

  for (uint32_t s : survivors) {
    DistGraph& dst = out[slotOf[s]];
    support::DynamicBitset incident(numGlobalNodes);
    for (const GEdge& e : edgesOf[s]) {
      incident.set(e.row);
      incident.set(e.col);
    }
    std::vector<uint64_t> incidentGids;
    incident.collectSetBits(incidentGids);

    dst.numMasters = mastersOf[s].size();
    dst.localToGlobal = mastersOf[s];
    for (uint64_t gid : incidentGids) {
      if (newMasterOf[gid] != s) {
        dst.localToGlobal.push_back(gid);  // mirrors, ascending
      }
    }
    dst.masterHostOfLocal.resize(dst.localToGlobal.size());
    for (uint64_t lid = 0; lid < dst.localToGlobal.size(); ++lid) {
      dst.masterHostOfLocal[lid] = slotOf[newMasterOf[dst.localToGlobal[lid]]];
    }

    std::vector<graph::Edge> local;
    local.reserve(edgesOf[s].size());
    for (const GEdge& e : edgesOf[s]) {
      local.push_back(
          graph::Edge{proxyLid(dst, e.row), proxyLid(dst, e.col), e.data});
    }
    std::sort(local.begin(), local.end());  // canonical sorted rows
    dst.graph =
        graph::CsrGraph::fromEdges(dst.localToGlobal.size(), local, withData);
  }

  // Mirror pairing: iterating each survivor's mirrors ascending fills both
  // sides of every (master, mirror) list pair in matching global-id order.
  for (uint32_t b : survivors) {
    DistGraph& pb = out[slotOf[b]];
    for (uint64_t lid = pb.numMasters; lid < pb.numLocalNodes(); ++lid) {
      const uint64_t gid = pb.localToGlobal[lid];
      const uint32_t a = newMasterOf[gid];
      pb.myMirrorsByOwner[slotOf[a]].push_back(lid);
      out[slotOf[a]].mirrorsOnHost[slotOf[b]].push_back(
          proxyLid(out[slotOf[a]], gid));
    }
  }
  return out;
}

}  // namespace cusp::core
