// The superstep kernels of bfs, sssp, cc and pagerank: one Program per
// algorithm, run by both drivers — the plain one (algorithms.cpp: a thin
// loop, no checkpoints, no injector) and the resilient one (resilient.cpp:
// superstep checkpoints and rollback). A fault-free resilient run is the
// plain run because both run this code.
//
// A Program holds one host's state for one attempt: `value` and `frontier`,
// which a checkpoint saves and a rollback restores, and every scratch
// bitset and vector a superstep needs. The scratch is allocated once, at
// construction, and reset each superstep, so a superstep allocates nothing.
// All of it belongs to the host's one thread, so the bitsets use the
// single-writer ops (support/bitset.h).
//
// Protocol, collective on every host of the run:
//   superstep()    local compute, reduce to masters, broadcast to mirrors
//   vote(s)        termination vote after superstep s (0-based): true
//                  while more supersteps remain
//   activeCount()  nodes active in the next superstep (for the histogram)
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "analytics/algorithms.h"
#include "analytics/engine.h"
#include "support/bitset.h"

namespace cusp::analytics::detail {

inline void requireCsrOrientation(const core::DistGraph& part) {
  if (part.isTransposed) {
    throw std::invalid_argument(
        "analytics: partition is in CSC orientation; algorithms expect CSR "
        "(out-edge) partitions");
  }
}

// bfs / sssp / cc: Bellman-Ford-style rounds with min-reduce and broadcast.
// init(gid) seeds a node's value (kInfinity keeps it out of the first
// frontier); candidate(value, edge) proposes a value for the edge's
// destination. The global fixpoint of min over all proposals is computed.
template <typename Init, typename Candidate>
class MinPropProgram {
 public:
  using Value = uint64_t;

  MinPropProgram(comm::Network& net, comm::HostId me,
                 const core::DistGraph& part, Init init, Candidate candidate)
      : value(part.numLocalNodes()),
        frontier(part.numLocalNodes()),
        net_(net),
        me_(me),
        part_(part),
        sync_(net, me, part),
        candidate_(std::move(candidate)),
        dirty_(part.numLocalNodes()),
        masterChanged_(part.numLocalNodes()),
        mirrorUpdated_(part.numLocalNodes()) {
    requireCsrOrientation(part);
    for (uint64_t lid = 0; lid < value.size(); ++lid) {
      value[lid] = init(part.globalId(lid));
      if (value[lid] != kInfinity) {
        frontier.setSingleWriter(lid);
      }
    }
  }

  uint64_t activeCount() const { return frontier.count(); }

  void superstep() {
    dirty_.resetAll();
    masterChanged_.resetAll();
    mirrorUpdated_.resetAll();
    // Local relaxation along the out-edges of the frontier.
    lids_.clear();
    frontier.collectSetBits(lids_);
    frontier.resetAll();
    for (const uint64_t u : lids_) {
      if (value[u] == kInfinity) {
        continue;
      }
      for (uint64_t e = part_.graph.edgeBegin(u); e < part_.graph.edgeEnd(u);
           ++e) {
        const uint64_t v = part_.graph.edgeDst(e);
        const uint64_t proposal = candidate_(value[u], e);
        if (proposal < value[v]) {
          value[v] = proposal;
          dirty_.setSingleWriter(v);
        }
      }
    }
    // Mirrors push changes to masters (min), masters push canonical values
    // back; every changed node joins the next frontier.
    sync_.reduceToMasters<uint64_t>(
        value, dirty_,
        [](uint64_t& acc, uint64_t in) {
          if (in < acc) {
            acc = in;
            return true;
          }
          return false;
        },
        masterChanged_);
    // Masters changed locally this round must broadcast too.
    lids_.clear();
    dirty_.collectSetBits(lids_);
    for (const uint64_t lid : lids_) {
      if (part_.isMaster(lid)) {
        masterChanged_.setSingleWriter(lid);
      }
      frontier.setSingleWriter(lid);
    }
    sync_.broadcastToMirrors<uint64_t>(value, masterChanged_, mirrorUpdated_);
    lids_.clear();
    masterChanged_.collectSetBits(lids_);
    mirrorUpdated_.collectSetBits(lids_);
    for (const uint64_t lid : lids_) {
      frontier.setSingleWriter(lid);
    }
  }

  bool vote(uint32_t) { return net_.allReduceOr(me_, frontier.any()); }

  std::vector<uint64_t> value;
  support::DynamicBitset frontier;  // nodes to relax next superstep

 private:
  comm::Network& net_;
  comm::HostId me_;
  const core::DistGraph& part_;
  SyncContext sync_;
  Candidate candidate_;
  support::DynamicBitset dirty_;          // changed by this host's relaxation
  support::DynamicBitset masterChanged_;  // masters to broadcast
  support::DynamicBitset mirrorUpdated_;  // mirrors the broadcast set
  std::vector<uint64_t> lids_;
};

inline auto bfsProgram(comm::Network& net, comm::HostId me,
                       const core::DistGraph& part, uint64_t sourceGid) {
  return MinPropProgram(
      net, me, part,
      [sourceGid](uint64_t gid) { return gid == sourceGid ? 0ull : kInfinity; },
      [](uint64_t value, uint64_t) { return value + 1; });
}

inline auto ssspProgram(comm::Network& net, comm::HostId me,
                        const core::DistGraph& part, uint64_t sourceGid) {
  return MinPropProgram(
      net, me, part,
      [sourceGid](uint64_t gid) { return gid == sourceGid ? 0ull : kInfinity; },
      [&part](uint64_t value, uint64_t edge) {
        return value + part.graph.edgeData(edge);
      });
}

// Connected components by label propagation over a symmetric graph.
inline auto ccProgram(comm::Network& net, comm::HostId me,
                      const core::DistGraph& part) {
  return MinPropProgram(
      net, me, part, [](uint64_t gid) { return gid; },
      [](uint64_t value, uint64_t) { return value; });
}

// Topological pagerank: every superstep scatters rank shares along local
// out-edges, add-reduces them into masters, applies the update there and
// broadcasts every master. The constructor exchanges global out-degrees
// (collective); that derived state is rebuilt per attempt, never saved.
class PageRankProgram {
 public:
  using Value = double;

  PageRankProgram(comm::Network& net, comm::HostId me,
                  const core::DistGraph& part, const PageRankParams& params)
      : net_(net), me_(me), part_(part), sync_(net, me, part), params_(params) {
    requireCsrOrientation(part);
    degree_ = globalOutDegreesOnHost(net, me, part);
    const uint64_t numLocal = part.numLocalNodes();
    const double n = static_cast<double>(part.numGlobalNodes);
    value.assign(numLocal, n > 0 ? 1.0 / n : 0.0);
    frontier.resize(numLocal);  // unused: pagerank is topological
    accum_.resize(numLocal);
    // Which proxies receive a share depends only on the partition and the
    // degrees, so the set is built once; reduceToMasters clears the mirror
    // bits it ships, so each superstep starts from a copy.
    receivesShare_.resize(numLocal);
    contributed_.resize(numLocal);
    for (uint64_t u = 0; u < numLocal; ++u) {
      if (degree_[u] == 0) {
        continue;
      }
      for (uint64_t e = part.graph.edgeBegin(u); e < part.graph.edgeEnd(u);
           ++e) {
        receivesShare_.setSingleWriter(part.graph.edgeDst(e));
      }
    }
    unused_.resize(numLocal);
    allMasters_.resize(numLocal);
    for (uint64_t lid = 0; lid < part.numMasters; ++lid) {
      allMasters_.setSingleWriter(lid);
    }
  }

  uint64_t activeCount() const { return value.size(); }

  void superstep() {
    std::fill(accum_.begin(), accum_.end(), 0.0);
    contributed_ = receivesShare_;
    // Scatter contributions along local out-edges.
    for (uint64_t u = 0; u < value.size(); ++u) {
      if (degree_[u] == 0 || part_.graph.outDegree(u) == 0) {
        continue;
      }
      const double share = value[u] / static_cast<double>(degree_[u]);
      for (uint64_t e = part_.graph.edgeBegin(u); e < part_.graph.edgeEnd(u);
           ++e) {
        accum_[part_.graph.edgeDst(e)] += share;
      }
    }
    // Sum partial accumulations into masters.
    sync_.reduceToMasters<double>(
        accum_, contributed_,
        [](double& acc, double in) {
          acc += in;
          return true;
        },
        unused_);
    // Apply and measure the residual on masters.
    const double n = static_cast<double>(part_.numGlobalNodes);
    localDelta_ = 0.0;
    for (uint64_t lid = 0; lid < part_.numMasters; ++lid) {
      const double updated =
          (1.0 - params_.damping) / n + params_.damping * accum_[lid];
      localDelta_ = std::max(localDelta_, std::abs(updated - value[lid]));
      value[lid] = updated;
    }
    // Refresh mirrors with the new ranks.
    sync_.broadcastToMirrors<double>(value, allMasters_, unused_);
  }

  bool vote(uint32_t s) {
    const double globalDelta = net_.allReduceMax(me_, localDelta_);
    return s + 1 < params_.maxIterations && globalDelta >= params_.tolerance;
  }

  std::vector<double> value;
  support::DynamicBitset frontier;

 private:
  comm::Network& net_;
  comm::HostId me_;
  const core::DistGraph& part_;
  SyncContext sync_;
  PageRankParams params_;
  std::vector<uint64_t> degree_;
  std::vector<double> accum_;
  support::DynamicBitset receivesShare_;  // proxies some local edge reaches
  support::DynamicBitset contributed_;
  support::DynamicBitset unused_;  // the syncs' changed flags; none is read
  support::DynamicBitset allMasters_;
  double localDelta_ = 0.0;
};

}  // namespace cusp::analytics::detail
