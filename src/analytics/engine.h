// Master/mirror synchronization engine over CuSP partitions — the
// D-Galois-style substrate used to evaluate partition quality (paper
// Section V-C).
//
// A vertex program keeps one value per *local* node (masters and mirrors).
// After a round of local computation, hosts synchronize:
//
//   reduce     mirror values flow to their masters and are folded in with a
//              combine operator (min, plus, ...); the master learns the
//              canonical value.
//   broadcast  changed master values flow back to every mirror.
//
// Only dirty nodes are shipped, as sparse (position, value) pairs where the
// position indexes the mirror lists both sides agreed on during
// partitioning (DistGraph::mirrorsOnHost / myMirrorsByOwner). Communication
// partners are exactly the hosts that share proxies, so a CVC partition
// naturally talks only to its row/column partners while a general
// vertex-cut (HVC/GVC) talks to everyone — the structural property the
// paper's quality results hinge on.
//
// Membership-aware: every sync loop skips hosts the Network has evicted
// (degraded mode), so survivors keep synchronizing among themselves after a
// permanent host loss instead of blocking on a dead peer. With full
// membership the skip never fires and the traffic is unchanged.
#pragma once

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "comm/network.h"
#include "core/dist_graph.h"
#include "obs/obs.h"
#include "support/bitset.h"
#include "support/serialize.h"

namespace cusp::analytics {

// Structured failure of one synchronization operation: wraps the
// underlying network fault (send retries exhausted, or a receive that
// timed out) with the operation name and the engine's round counter, so an
// application can degrade gracefully — report which round died and on
// which host — instead of surfacing a bare transport error. Injected host
// crashes (comm::HostFailure) propagate unchanged; they are the recovery
// driver's business, not the application's.
class SyncRoundFailed : public std::runtime_error {
 public:
  SyncRoundFailed(std::string op, uint64_t round, comm::HostId host,
                  const std::string& cause)
      : std::runtime_error("analytics sync '" + op + "' failed in round " +
                           std::to_string(round) + " on host " +
                           std::to_string(host) + ": " + cause),
        op(std::move(op)),
        round(round),
        host(host) {}

  std::string op;
  uint64_t round;  // 1-based count of sync operations this context ran
  comm::HostId host;
};

class SyncContext {
 public:
  SyncContext(comm::Network& net, comm::HostId me, const core::DistGraph& part)
      : net_(net), me_(me), part_(part) {
    if (obs::attached()) {
      if (const auto registry = obs::sink().metrics) {
        metricsKeepAlive_ = registry;
        syncRoundsCounter_ = &registry->counter("cusp.analytics.sync_rounds");
      }
    }
  }

  // Ships dirty mirror values to their masters; combine(master, incoming)
  // returns true if the master value changed, in which case the master is
  // marked in `changed`. `dirty` is consumed (mirror flags cleared).
  template <typename T, typename Combine>
  void reduceToMasters(std::vector<T>& values, support::DynamicBitset& dirty,
                       Combine&& combine, support::DynamicBitset& changed) {
    guarded("reduceToMasters", [&] {
      // Send my dirty mirrors to each owner that has any of my mirrors.
      for (comm::HostId h = 0; h < net_.numHosts(); ++h) {
        const auto& lids = part_.myMirrorsByOwner[h];
        if (h == me_ || !net_.isAlive(h) || lids.empty()) {
          continue;
        }
        auto writer = net_.packedWriter(me_, h, comm::kTagAppReduce);
        packDirty(lids, values, dirty, writer);
        writer.commit();
        for (const uint32_t pos : positions_) {
          dirty.clearSingleWriter(lids[pos]);
        }
      }
      net_.flushAggregated(me_);  // blocking on peer contributions next
      // Receive contributions for my masters from each host holding
      // mirrors.
      for (comm::HostId h = 0; h < net_.numHosts(); ++h) {
        if (h == me_ || !net_.isAlive(h) || part_.mirrorsOnHost[h].empty()) {
          continue;
        }
        auto msg = net_.recvFrom(me_, h, comm::kTagAppReduce);
        unpack<T>(msg.payload, part_.mirrorsOnHost[h],
                  [&](uint64_t lid, const T& in) {
                    if (combine(values[lid], in)) {
                      changed.setSingleWriter(lid);
                    }
                  });
      }
    });
  }

  // Ships dirty master values to every host holding a mirror; mirrors adopt
  // the canonical value and are marked in `changed`. `dirty` is NOT
  // cleared (a master may broadcast to several hosts; the caller resets it
  // once the round completes).
  template <typename T>
  void broadcastToMirrors(std::vector<T>& values,
                          const support::DynamicBitset& dirty,
                          support::DynamicBitset& changed) {
    guarded("broadcastToMirrors", [&] {
      for (comm::HostId h = 0; h < net_.numHosts(); ++h) {
        if (h == me_ || !net_.isAlive(h) || part_.mirrorsOnHost[h].empty()) {
          continue;
        }
        auto writer = net_.packedWriter(me_, h, comm::kTagAppBroadcast);
        packDirty(part_.mirrorsOnHost[h], values, dirty, writer);
        writer.commit();
      }
      net_.flushAggregated(me_);  // blocking on peer broadcasts next
      for (comm::HostId h = 0; h < net_.numHosts(); ++h) {
        if (h == me_ || !net_.isAlive(h) || part_.myMirrorsByOwner[h].empty()) {
          continue;
        }
        auto msg = net_.recvFrom(me_, h, comm::kTagAppBroadcast);
        unpack<T>(msg.payload, part_.myMirrorsByOwner[h],
                  [&](uint64_t lid, const T& in) {
                    values[lid] = in;
                    changed.setSingleWriter(lid);
                  });
      }
    });
  }

  // Variable-length gather: every host contributes a list per local node;
  // mirror lists are shipped to their masters and appended (order:
  // master's own list first, then contributions in sender-host order).
  // Mirror lists are left untouched.
  template <typename T>
  void gatherListsToMasters(std::vector<std::vector<T>>& lists) {
    guarded("gatherListsToMasters", [&] {
      for (comm::HostId h = 0; h < net_.numHosts(); ++h) {
        if (h == me_ || !net_.isAlive(h) || part_.myMirrorsByOwner[h].empty()) {
          continue;
        }
        std::vector<std::vector<T>> payload;
        payload.reserve(part_.myMirrorsByOwner[h].size());
        for (uint64_t lid : part_.myMirrorsByOwner[h]) {
          payload.push_back(lists[lid]);
        }
        auto writer = net_.packedWriter(me_, h, comm::kTagAppReduce);
        support::serialize(writer, payload);
        writer.commit();
      }
      net_.flushAggregated(me_);  // blocking on peer lists next
      for (comm::HostId h = 0; h < net_.numHosts(); ++h) {
        if (h == me_ || !net_.isAlive(h) || part_.mirrorsOnHost[h].empty()) {
          continue;
        }
        auto msg = net_.recvFrom(me_, h, comm::kTagAppReduce);
        std::vector<std::vector<T>> payload;
        support::deserialize(msg.payload, payload);
        const auto& lids = part_.mirrorsOnHost[h];
        requireListFits(payload.size(), lids.size());
        for (size_t i = 0; i < payload.size(); ++i) {
          auto& target = lists[lids[i]];
          target.insert(target.end(), payload[i].begin(), payload[i].end());
        }
      }
    });
  }

  // Variable-length broadcast: every mirror's list is overwritten with its
  // master's list.
  template <typename T>
  void broadcastListsToMirrors(std::vector<std::vector<T>>& lists) {
    guarded("broadcastListsToMirrors", [&] {
      for (comm::HostId h = 0; h < net_.numHosts(); ++h) {
        if (h == me_ || !net_.isAlive(h) || part_.mirrorsOnHost[h].empty()) {
          continue;
        }
        std::vector<std::vector<T>> payload;
        payload.reserve(part_.mirrorsOnHost[h].size());
        for (uint64_t lid : part_.mirrorsOnHost[h]) {
          payload.push_back(lists[lid]);
        }
        auto writer = net_.packedWriter(me_, h, comm::kTagAppBroadcast);
        support::serialize(writer, payload);
        writer.commit();
      }
      net_.flushAggregated(me_);  // blocking on peer lists next
      for (comm::HostId h = 0; h < net_.numHosts(); ++h) {
        if (h == me_ || !net_.isAlive(h) || part_.myMirrorsByOwner[h].empty()) {
          continue;
        }
        auto msg = net_.recvFrom(me_, h, comm::kTagAppBroadcast);
        std::vector<std::vector<T>> payload;
        support::deserialize(msg.payload, payload);
        const auto& lids = part_.myMirrorsByOwner[h];
        requireListFits(payload.size(), lids.size());
        for (size_t i = 0; i < payload.size(); ++i) {
          lists[lids[i]] = std::move(payload[i]);
        }
      }
    });
  }

  // Number of sync operations this context has started (for logging).
  uint64_t syncRounds() const { return rounds_; }

  comm::Network& net() { return net_; }
  comm::HostId hostId() const { return me_; }

 private:
  // Runs one sync operation, translating recoverable transport faults into
  // SyncRoundFailed so the application sees which round died. HostFailure
  // (an injected crash), HostEvicted (membership change mid-round) and
  // NetworkAborted pass through untouched.
  template <typename Fn>
  void guarded(const char* op, Fn&& body) {
    const uint64_t round = ++rounds_;
    if (syncRoundsCounter_ != nullptr) {
      syncRoundsCounter_->add();
    }
    try {
      body();
    } catch (const comm::SendRetriesExhausted& e) {
      throw SyncRoundFailed(op, round, me_, e.what());
    } catch (const comm::NetworkStalled& e) {
      throw SyncRoundFailed(op, round, me_, e.what());
    } catch (const comm::MessageCorrupt& e) {
      // Only reaches here once sendReliable's retransmissions are exhausted
      // (persistent corruption on the channel) — recoverable by rollback,
      // like the other transport faults.
      throw SyncRoundFailed(op, round, me_, e.what());
    }
  }

  // Serializes the dirty subset of `lids` as two arrays, the positions in
  // `lids` and their values, into any byte sink (a SendBuffer or a
  // zero-copy comm::PackedWriter). The positions stay in positions_ for the
  // caller; both arrays are built in scratch reused across rounds.
  template <typename T, support::ByteSink Buf>
  void packDirty(const std::vector<uint64_t>& lids, const std::vector<T>& values,
                 const support::DynamicBitset& dirty, Buf& buf) {
    positions_.clear();
    for (uint32_t pos = 0; pos < lids.size(); ++pos) {
      if (dirty.test(lids[pos])) {
        positions_.push_back(pos);
      }
    }
    valueBytes_.resize(positions_.size() * sizeof(T));
    uint8_t* out = valueBytes_.data();
    for (const uint32_t pos : positions_) {
      std::memcpy(out, &values[lids[pos]], sizeof(T));
      out += sizeof(T);
    }
    const uint64_t count = positions_.size();
    support::serialize(buf, positions_);
    support::serialize(buf, count);
    buf.appendBytes(valueBytes_.data(), valueBytes_.size());
  }

  // Reads one packDirty message against the mirror list `lids` both sides
  // agreed on and calls apply(lid, value) per pair. A peer's message is
  // input, not trusted: arrays of different lengths or a position outside
  // `lids` throw std::out_of_range.
  template <typename T, typename Apply>
  void unpack(support::RecvBuffer& buf, const std::vector<uint64_t>& lids,
              Apply&& apply) {
    support::deserialize(buf, positions_);
    uint64_t count = 0;
    support::deserialize(buf, count);
    if (count != positions_.size()) {
      badMessage(std::to_string(positions_.size()) + " positions but " +
                 std::to_string(count) + " values");
    }
    for (const uint32_t pos : positions_) {
      if (pos >= lids.size()) {
        badMessage("mirror position " + std::to_string(pos) +
                   " outside a list of " + std::to_string(lids.size()));
      }
      T value;
      support::deserialize(buf, value);
      apply(lids[pos], value);
    }
  }

  void requireListFits(size_t entries, size_t listSize) const {
    if (entries > listSize) {
      badMessage(std::to_string(entries) + " lists for a mirror list of " +
                 std::to_string(listSize));
    }
  }

  [[noreturn]] void badMessage(const std::string& what) const {
    throw std::out_of_range("analytics sync: " + what + " on host " +
                            std::to_string(me_));
  }

  comm::Network& net_;
  comm::HostId me_;
  const core::DistGraph& part_;
  uint64_t rounds_ = 0;
  // Per-message scratch, kept across rounds so a sync allocates nothing
  // once warm.
  std::vector<uint32_t> positions_;
  std::vector<uint8_t> valueBytes_;
  // Resolved once at construction when a process-wide obs sink is attached;
  // the shared_ptr keeps the cell alive across a later detach.
  std::shared_ptr<obs::MetricsRegistry> metricsKeepAlive_;
  obs::Counter* syncRoundsCounter_ = nullptr;
};

}  // namespace cusp::analytics
