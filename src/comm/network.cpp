#include "comm/network.h"

#include <algorithm>
#include <chrono>
#include <set>
#include <sstream>
#include <thread>

#include "obs/obs.h"
#include "support/crc32.h"
#include "support/random.h"
#include "support/storage.h"

namespace cusp::comm {

namespace {

// Stall-registry packing: active(1) | from(31) | tag(32).
constexpr uint64_t kBlockedActiveBit = 1ULL << 63;

uint64_t packBlocked(HostId from, Tag tag) {
  return kBlockedActiveBit |
         (static_cast<uint64_t>(from & 0x7FFFFFFFu) << 32) |
         static_cast<uint64_t>(tag);
}

// Straggler reports are rare (at most one per soft-deadline window per
// blocked receiver), so the cells are looked up per event instead of being
// cached in ObsHandles like the per-send counters.
void countStragglerReport(HostId laggard, bool hard) {
  if (!obs::attached()) {
    return;
  }
  if (const auto registry = obs::sink().metrics) {
    registry
        ->counter(hard ? "cusp.straggler.hard_evictions"
                       : "cusp.straggler.soft_reports",
                  {{"host", std::to_string(laggard)}})
        .add(1);
  }
}

// Partition/quorum events are rarer still (a handful per run at most), so
// their cells are also looked up per event instead of cached in ObsHandles.
void countPartitionEvent(const char* which, HostId host) {
  if (!obs::attached()) {
    return;
  }
  if (const auto registry = obs::sink().metrics) {
    registry
        ->counter(std::string("cusp.net.partition.") + which,
                  {{"host", std::to_string(host)}})
        .add(1);
  }
}

}  // namespace

Network::Network(uint32_t numHosts, NetworkCostModel costModel)
    : costModel_(costModel) {
  if (numHosts == 0) {
    throw std::invalid_argument("Network: numHosts must be > 0");
  }
  mailboxes_.reserve(numHosts);
  modeledCommNanos_.reserve(numHosts);
  blockedOn_.reserve(numHosts);
  alive_.reserve(numHosts);
  for (uint32_t h = 0; h < numHosts; ++h) {
    mailboxes_.push_back(std::make_unique<Mailbox>());
    modeledCommNanos_.push_back(std::make_unique<std::atomic<int64_t>>(0));
    blockedOn_.push_back(std::make_unique<std::atomic<uint64_t>>(0));
    alive_.push_back(std::make_unique<std::atomic<bool>>(true));
  }
  suspected_.assign(numHosts, std::vector<bool>(numHosts, false));
  aggChannels_.reserve(static_cast<size_t>(numHosts) * numHosts);
  for (size_t i = 0; i < static_cast<size_t>(numHosts) * numHosts; ++i) {
    aggChannels_.push_back(std::make_unique<detail::AggChannel>());
  }
  // Resolve obs registry cells once, here: attach the sink BEFORE creating
  // the cluster. Each send then pays one null check (detached) or a few
  // relaxed atomic adds (attached) — never a map lookup.
  if (obs::attached()) {
    const obs::Sink sink = obs::sink();
    if (sink.metrics) {
      obs_.registry = sink.metrics;
      obs::MetricsRegistry& reg = *obs_.registry;
      for (Tag t = 0; t < kTagCount; ++t) {
        obs_.bytes[t] = &reg.counter("cusp.net.bytes", {{"tag", tagName(t)}});
        obs_.messages[t] =
            &reg.counter("cusp.net.messages", {{"tag", tagName(t)}});
      }
      obs_.collectiveBytes =
          &reg.counter("cusp.net.bytes", {{"tag", "collective"}});
      obs_.collectiveMessages =
          &reg.counter("cusp.net.messages", {{"tag", "collective"}});
      obs_.framingBytes = &reg.counter("cusp.net.framing_bytes");
      obs_.corruptionsDetected = &reg.counter("cusp.net.corruptions_detected");
      obs_.corruptionsRecovered =
          &reg.counter("cusp.net.corruptions_recovered");
      obs_.sendRetries = &reg.counter("cusp.net.send_retries");
      static constexpr const char* kCauseNames[kNumFlushCauses] = {
          "size", "age", "pressure", "barrier"};
      for (size_t c = 0; c < kNumFlushCauses; ++c) {
        obs_.aggFlushes[c] =
            &reg.counter("cusp.net.agg.flushes", {{"cause", kCauseNames[c]}});
      }
      obs_.aggPackets = &reg.counter("cusp.net.agg.packets");
      obs_.aggPackedMessages = &reg.counter("cusp.net.agg.packed_messages");
      obs_.aggPackedBytes = &reg.counter("cusp.net.agg.packed_bytes");
      obs_.aggOversized = &reg.counter("cusp.net.agg.oversized_messages");
      obs_.aggOverCap = &reg.counter("cusp.net.agg.overcap_packets");
      obs_.aggPendingBytes = &reg.gauge("cusp.net.agg.pending_bytes");
      obs_.aggOccupancy = &reg.histogram("cusp.net.agg.packet_messages");
    }
  }
}

MembershipView Network::membershipSnapshot() const {
  MembershipView view;
  view.epoch = membershipEpoch();
  view.alive.resize(numHosts());
  for (HostId h = 0; h < numHosts(); ++h) {
    view.alive[h] = isAlive(h) ? 1 : 0;
  }
  return view;
}

void Network::evict(HostId host) {
  if (host >= numHosts()) {
    throw std::out_of_range("Network::evict: host id out of range");
  }
  {
    std::lock_guard<std::mutex> lock(membershipMutex_);
    if (!alive_[host]->load(std::memory_order_acquire)) {
      return;  // idempotent
    }
    alive_[host]->store(false, std::memory_order_release);
    membershipEpoch_.fetch_add(1, std::memory_order_acq_rel);
  }
  // Wake every blocked receiver: anyone waiting on the evicted host must
  // recheck membership and fail fast instead of riding out the timeout.
  // While at it, reclaim the evicted host's comm footprint: its own mailbox
  // dies with it, its queued in-flight messages in survivor mailboxes can
  // never be trusted (and recvFrom on it fails fast anyway), and its
  // dup-filter channels would otherwise pin memory until process exit.
  for (HostId h = 0; h < numHosts(); ++h) {
    Mailbox& box = *mailboxes_[h];
    std::lock_guard<std::mutex> lock(box.mutex);
    if (h == host) {
      for (const Queued& entry : box.queue) {
        backlogBytes_.fetch_sub(entry.msg.payload.size(),
                                std::memory_order_relaxed);
      }
      box.queue.clear();
      box.channels.clear();
    } else {
      for (auto it = box.queue.begin(); it != box.queue.end();) {
        if (it->msg.from == host) {
          backlogBytes_.fetch_sub(it->msg.payload.size(),
                                  std::memory_order_relaxed);
          it = box.queue.erase(it);
        } else {
          ++it;
        }
      }
      for (auto it = box.channels.begin(); it != box.channels.end();) {
        it = it->first.first == host ? box.channels.erase(it) : std::next(it);
      }
    }
    box.arrived.notify_all();
  }
  // Purge the evicted host's aggregation channels in both directions:
  // staged-but-unshipped traffic from or to a dead host can never be
  // trusted, and its budget overdraft must stop exerting pressure.
  for (HostId h = 0; h < numHosts(); ++h) {
    for (const bool outgoing : {true, false}) {
      if (h == host) {
        continue;
      }
      detail::AggChannel& ch =
          outgoing ? aggChannel(host, h) : aggChannel(h, host);
      std::lock_guard<std::mutex> lock(ch.mutex);
      if (!ch.bytes.empty() || !ch.metas.empty()) {
        aggVolume_.pendingBytes.fetch_sub(ch.bytes.size(),
                                          std::memory_order_relaxed);
        ch.bytes.clear();
        ch.metas.clear();
      }
      if (ch.chargedBytes > 0 && support::memoryBudgetAttached()) {
        support::memoryBudget()->release(ch.chargedBytes);
      }
      ch.chargedBytes = 0;
    }
  }
  setPendingGauge();
  // The purged backlog was counted into the attached memory budget's comm
  // gauge; re-sample so the evicted host's share stops exerting pressure.
  if (support::memoryBudgetAttached()) {
    support::memoryBudget()->noteCommBacklog(mailboxBacklogBytes());
  }
}

bool Network::linkReachable(HostId me, HostId peer) const {
  if (me >= numHosts() || peer >= numHosts()) {
    throw std::out_of_range("Network::linkReachable: host id out of range");
  }
  if (me == peer) {
    return true;
  }
  if (injector_ && injector_->linkSevered(me, peer)) {
    return false;
  }
  std::lock_guard<std::mutex> lock(suspicionMutex_);
  return !suspected_[me][peer];
}

void Network::clearSuspicions() {
  std::lock_guard<std::mutex> lock(suspicionMutex_);
  for (auto& row : suspected_) {
    std::fill(row.begin(), row.end(), false);
  }
}

void Network::noteSuspect(HostId me, HostId peer) {
  if (me >= numHosts() || peer >= numHosts() || me == peer) {
    return;
  }
  bool fresh = false;
  {
    std::lock_guard<std::mutex> lock(suspicionMutex_);
    fresh = !suspected_[me][peer];
    suspected_[me][peer] = true;
  }
  if (fresh) {
    countPartitionEvent("suspicions", peer);
  }
}

std::vector<HostId> Network::connectivityComponent(HostId me) const {
  // Undirected BFS over alive hosts: an edge exists only when BOTH
  // directions are reachable (a one-way link cannot carry request/reply
  // protocols, so it does not connect for quorum purposes).
  std::vector<bool> visited(numHosts(), false);
  std::vector<HostId> frontier{me};
  std::vector<HostId> component;
  visited[me] = true;
  while (!frontier.empty()) {
    const HostId h = frontier.back();
    frontier.pop_back();
    component.push_back(h);
    for (HostId peer = 0; peer < numHosts(); ++peer) {
      if (visited[peer] || !isAlive(peer)) {
        continue;
      }
      if (linkReachable(h, peer) && linkReachable(peer, h)) {
        visited[peer] = true;
        frontier.push_back(peer);
      }
    }
  }
  std::sort(component.begin(), component.end());
  return component;
}

void Network::enforceQuorumOnFailure(HostId me, HostId peer, Tag tag) {
  (void)tag;
  if (!injector_ || !isAlive(me)) {
    return;
  }
  noteSuspect(me, peer);
  if (!injector_->linkSevered(me, peer) &&
      !injector_->unresolvedPartition().has_value()) {
    return;  // ordinary message loss, not a connectivity cut
  }
  const std::vector<HostId> component = connectivityComponent(me);
  const uint32_t numAlive = numAliveHosts();
  if (component.size() * 2 > numAlive) {
    return;  // majority side: surface the original error; the driver decides
  }
  // Minority (or exact tie) side of a confirmed cut: fence ourselves before
  // anyone down here can touch durable state, then fail fast.
  const uint64_t epoch = membershipEpoch() + 1;
  if (fence_) {
    fence_->advance(epoch);
    fence_->fence(me);
  }
  countPartitionEvent("minority_fences", me);
  throw MinorityPartition(me, static_cast<uint32_t>(component.size()),
                          numAlive, epoch);
}

MembershipView Network::agreeMembership(HostId me) {
  if (!isAlive(me)) {
    // Evicted while cut off: the majority proceeded without us, and the
    // epoch bump in the membership view IS the detection signal. Fence and
    // fail fast; the resilient driver discards this host's stale in-memory
    // state and rejoins it through checkpoint redistribution after heal.
    const uint64_t epoch = membershipEpoch();
    if (fence_) {
      fence_->advance(epoch);
      fence_->fence(me);
    }
    countPartitionEvent("minority_fences", me);
    throw MinorityPartition(me, 0, numAliveHosts(), epoch);
  }
  if (injector_) {
    const std::vector<HostId> component = connectivityComponent(me);
    const uint32_t numAlive = numAliveHosts();
    if (component.size() < numAlive) {
      if (component.size() * 2 > numAlive) {
        // Strict-majority component: evict every alive host outside it.
        // EVERY majority member performs the same idempotent evictions
        // before its exchange, so the survivors' collective root and alive
        // iteration agree without a message ever crossing the cut.
        std::vector<bool> inComponent(numHosts(), false);
        for (HostId h : component) {
          inComponent[h] = true;
        }
        std::vector<HostId> evicted;
        for (HostId h = 0; h < numHosts(); ++h) {
          if (isAlive(h) && !inComponent[h]) {
            evict(h);
            evicted.push_back(h);
            countPartitionEvent("quorum_evictions", h);
          }
        }
        if (fence_) {
          // Register the evicted side as fenced at the bumped epoch: the
          // checkpoint store refuses their writes even if a cut-off host
          // never reaches its own minority check (models the shared
          // storage service learning the new fencing token).
          fence_->advance(membershipEpoch());
          for (HostId h : evicted) {
            fence_->fence(h);
          }
        }
      } else {
        // Minority, or an exact tie: neither side of a tie may proceed
        // (two proceeding halves is split-brain). Fence and fail fast.
        const uint64_t epoch = membershipEpoch() + 1;
        if (fence_) {
          fence_->advance(epoch);
          fence_->fence(me);
        }
        countPartitionEvent("minority_fences", me);
        throw MinorityPartition(me, static_cast<uint32_t>(component.size()),
                                numAlive, epoch);
      }
    }
  }
  // The agreement round: alive hosts exchange their (epoch, alive bitmap)
  // views through the current collective root and fold them — max epoch,
  // AND of alive flags. On this shared simulated network all local views
  // already coincide, but the round makes the agreement traffic (and its
  // fault crossings) real, and it is what shifts the collective root when
  // host 0 is among the evicted.
  MembershipView local = membershipSnapshot();
  std::vector<uint64_t> packed(numHosts() + 1);
  packed[0] = local.epoch;
  for (HostId h = 0; h < numHosts(); ++h) {
    packed[1 + h] = local.alive[h];
  }
  allReduce<uint64_t>(
      me, packed,
      [](std::vector<uint64_t>& acc, const std::vector<uint64_t>& in) {
        acc[0] = std::max(acc[0], in[0]);
        for (size_t i = 1; i < acc.size(); ++i) {
          acc[i] &= in[i];
        }
      });
  MembershipView agreed;
  agreed.epoch = packed[0];
  agreed.alive.resize(numHosts());
  for (HostId h = 0; h < numHosts(); ++h) {
    agreed.alive[h] = packed[1 + h] != 0 ? 1 : 0;
  }
  return agreed;
}

double Network::modeledCommSeconds(HostId host) const {
  return static_cast<double>(
             modeledCommNanos_[host]->load(std::memory_order_relaxed)) *
         1e-9;
}

void Network::checkHosts(HostId from, HostId to, const char* op) const {
  if (from >= numHosts() || to >= numHosts()) {
    throw std::out_of_range(std::string(op) + ": host id out of range");
  }
}

bool Network::send(HostId from, HostId to, Tag tag,
                   support::SendBuffer&& buffer) {
  checkHosts(from, to, "Network::send");
  const Attempt sent = attempt(from, to, tag, buffer.size(), /*packed=*/false);
  if (sent.fate == Attempt::Fate::kDropped) {
    return false;
  }
  if (sent.fate == Attempt::Fate::kCorrupt) {
    throw MessageCorrupt(from, to, tag);
  }
  deliver(from, to, tag, std::move(buffer), sent);
  return true;
}

void Network::sendReliable(HostId from, HostId to, Tag tag,
                           support::SendBuffer&& buffer) {
  checkHosts(from, to, "Network::sendReliable");
  const Attempt sent = transmit(from, to, tag, buffer.size(), /*packed=*/false);
  deliver(from, to, tag, std::move(buffer), sent);
}

void Network::deliver(HostId from, HostId to, Tag tag,
                      support::SendBuffer&& buffer, const Attempt& sent) {
  Mailbox& box = *mailboxes_[to];
  {
    std::lock_guard<std::mutex> lock(box.mutex);
    enqueueLocked(box, Message{from, tag, support::RecvBuffer(buffer.release())},
                  sent.delayScans, sent.duplicate);
  }
  box.arrived.notify_all();
}

void Network::enqueueLocked(Mailbox& box, Message&& msg, uint32_t delayScans,
                            bool duplicate) {
  const size_t len = msg.payload.size();
  Queued entry;
  entry.msg = std::move(msg);
  if (injector_) {
    ChannelState& channel = box.channels[{entry.msg.from, entry.msg.tag}];
    entry.seq = ++channel.nextSeq;
    channel.lastUse = ++box.channelUseCounter;
    compactChannelsLocked(box);
    entry.delayScans = delayScans;
  }
  if (duplicate) {
    box.queue.push_back(entry);  // same seq: the filter suppresses one copy
    backlogBytes_.fetch_add(len, std::memory_order_relaxed);
  }
  box.queue.push_back(std::move(entry));
  backlogBytes_.fetch_add(len, std::memory_order_relaxed);
}

Network::Attempt Network::attempt(HostId from, HostId to, Tag tag, size_t len,
                                  bool packed) {
  if (!isAlive(to) || !isAlive(from)) {
    // An evicted host never answers and never speaks: fail fast with the
    // structured error instead of burning the retry budget or waiting out a
    // recv timeout on the other side.
    throw HostEvicted(from, isAlive(to) ? from : to, tag, membershipEpoch());
  }
  if (injector_) {
    injector_->onCrossing(from);  // may throw HostFailure
  }
  chargeModeled(from, to, tag, len);
  std::optional<FaultInjector::SendDecision> decision;
  if (injector_ && from != to) {
    decision = injector_->onSend(from, to, tag);
  }
  const auto drew = [&decision](FaultAction action) {
    return decision.has_value() && decision->action == action;
  };
  Attempt out;
  if (drew(FaultAction::kDrop)) {
    out.fate = Attempt::Fate::kDropped;  // sender-visible loss; no volume
    return out;
  }
  const bool framed = from != to && crcFraming_.load(std::memory_order_relaxed);
  if (framed && drew(FaultAction::kCorrupt)) {
    // The receiver's frame check fails exactly when the draw corrupts the
    // frame: CRC32 catches every single-byte flip in the payload, and a flip
    // inside the footer breaks its magic or its checksum. So the verdict is
    // the draw's. The burned transmission is accounted with its footer,
    // then NACKed.
    accountSend(from, to, tag, len, support::kCrcFooterSize);
    volume_.corruptionsDetected.fetch_add(1, std::memory_order_relaxed);
    if (obs_.corruptionsDetected != nullptr) {
      obs_.corruptionsDetected->add();
    }
    out.fate = Attempt::Fate::kCorrupt;
    return out;
  }
  if (drew(FaultAction::kDelay)) {
    out.delayScans = std::max(1u, decision->delayScans);
  }
  out.duplicate = drew(FaultAction::kDuplicate);
  // A bare frame carries its own footer; packed messages share their
  // packet's, accounted once at deliverPacket.
  accountSend(from, to, tag, len,
              framed && !packed ? support::kCrcFooterSize : 0);
  return out;
}

Network::Attempt Network::transmit(HostId from, HostId to, Tag tag,
                                   size_t len, bool packed) {
  const uint32_t attempts = std::max(1u, retryPolicy_.maxAttempts);
  bool sawCorruption = false;
  for (uint32_t i = 0; i < attempts; ++i) {
    const Attempt sent = attempt(from, to, tag, len, packed);
    if (sent.fate == Attempt::Fate::kDelivered) {
      if (sawCorruption) {
        volume_.corruptionsRecovered.fetch_add(1, std::memory_order_relaxed);
        if (obs_.corruptionsRecovered != nullptr) {
          obs_.corruptionsRecovered->add();
        }
      }
      return sent;
    }
    const bool last = i + 1 == attempts;
    if (sent.fate == Attempt::Fate::kCorrupt) {
      // A link-layer NACK: retransmit a clean copy like a drop; each retry
      // is a new occurrence for the injector, so single-shot faults do not
      // re-fire.
      if (last) {
        throw MessageCorrupt(from, to, tag);  // retry budget spent
      }
      sawCorruption = true;
    }
    if (!last) {
      injector_->countRetry();
      if (obs_.sendRetries != nullptr) {
        obs_.sendRetries->add();
      }
      // Decorrelated jitter: each backoff window is scaled by a
      // deterministic factor in [0.5, 1.5) derived from the message
      // identity and attempt number, so the survivors of a healed
      // partition (all retrying the same protocol step at once) spread out
      // instead of re-colliding in synchronized waves. Deterministic, so a
      // given plan still replays to identical modeled times.
      const uint64_t jitterHash = support::hashU64(
          (static_cast<uint64_t>(from) << 48) ^
          (static_cast<uint64_t>(to) << 32) ^
          (static_cast<uint64_t>(tag) << 8) ^ i);
      const double jitter =
          0.5 + static_cast<double>(jitterHash % 1024) / 1024.0;
      const double backoffMicros =
          retryPolicy_.backoffMicros * static_cast<double>(1u << i) * jitter;
      if (backoffMicros > 0.0 && from != to && tag < kFirstReserved) {
        modeledCommNanos_[from]->fetch_add(
            static_cast<int64_t>(backoffMicros * 1000.0),
            std::memory_order_relaxed);
      }
    }
  }
  // Exhausted retries toward one peer are the sender-side symptom of a cut
  // link: let the quorum rule decide whether WE are the fenced side before
  // surfacing the retry error (it throws MinorityPartition if so).
  enforceQuorumOnFailure(from, to, tag);
  throw SendRetriesExhausted(from, to, tag, attempts);
}

void Network::chargeModeled(HostId from, HostId to, Tag tag, size_t bytes) {
  if (from == to || tag >= kFirstReserved) {
    return;
  }
  double micros = costModel_.sendOverheadMicros;
  if (costModel_.bandwidthMBps > 0.0) {
    micros += static_cast<double>(bytes) / costModel_.bandwidthMBps;
  }
  if (micros > 0.0) {
    if (injector_) {
      // A degraded link (LinkFault::degradeFactor) multiplies the modeled
      // cost of every message that crosses it. Injector-gated, so a
      // fault-free network's accounting stays byte-identical.
      micros *= injector_->linkDegradeFactor(from, to);
    }
    modeledCommNanos_[from]->fetch_add(static_cast<int64_t>(micros * 1000.0),
                                       std::memory_order_relaxed);
  }
}

// --- send aggregation ------------------------------------------------------

void Network::finishPackedCommit(detail::AggChannel& ch, HostId from,
                                 HostId to, Tag tag, size_t start) {
  const size_t len = ch.bytes.size() - start;
  // No-straddling rule: if this commit would push the pending packet past
  // the cap, ship the existing prefix as its own packet first so the new
  // message starts a fresh one. Together with the size flush below this
  // guarantees every over-cap packet is exactly one over-cap message.
  if (start > 0 && start + len > agg_.packetBytes) {
    std::vector<uint8_t> tail(ch.bytes.begin() + static_cast<ptrdiff_t>(start),
                              ch.bytes.end());
    ch.bytes.resize(start);
    flushChannelLocked(ch, from, to, FlushCause::kSize);
    ch.bytes = std::move(tail);
    start = 0;
  }
  Attempt sent;
  try {
    sent = transmit(from, to, tag, len, /*packed=*/true);
  } catch (...) {
    // The message never shipped (evicted peer, exhausted retries, terminal
    // corruption): un-stage its bytes so the channel holds only messages
    // whose draws succeeded.
    ch.bytes.resize(start);
    throw;
  }
  if (ch.metas.empty()) {
    ch.oldestStage = std::chrono::steady_clock::now();
  }
  detail::AggChannel::Meta meta;
  meta.tag = tag;
  meta.len = static_cast<uint32_t>(len);
  meta.delayScans = sent.delayScans;
  meta.duplicate = sent.duplicate;
  ch.metas.push_back(meta);
  aggVolume_.pendingBytes.fetch_add(len, std::memory_order_relaxed);
  setPendingGauge();
  if (support::memoryBudgetAttached()) {
    // Overdraft, like BufferedSender: a committed message must ship, not
    // drop; pressure is relieved by the early flush below.
    support::memoryBudget()->reserveOverdraft(len);
    ch.chargedBytes += len;
  }
  if (len > agg_.packetBytes) {
    aggVolume_.oversizedMessages.fetch_add(1, std::memory_order_relaxed);
    if (obs_.aggOversized != nullptr) {
      obs_.aggOversized->add();
    }
  }
  if (ch.bytes.size() >= agg_.packetBytes) {
    flushChannelLocked(ch, from, to, FlushCause::kSize);
  } else if (support::memoryBudgetAttached() &&
             support::memoryBudget()->underPressure()) {
    flushChannelLocked(ch, from, to, FlushCause::kPressure);
  }
}

void Network::flushChannelLocked(detail::AggChannel& ch, HostId from,
                                 HostId to, FlushCause cause) {
  if (ch.metas.empty()) {
    return;
  }
  std::vector<uint8_t> blob = std::move(ch.bytes);
  std::vector<detail::AggChannel::Meta> metas = std::move(ch.metas);
  ch.bytes = {};
  ch.metas = {};
  aggVolume_.pendingBytes.fetch_sub(blob.size(), std::memory_order_relaxed);
  setPendingGauge();
  if (ch.chargedBytes > 0 && support::memoryBudgetAttached()) {
    support::memoryBudget()->release(ch.chargedBytes);
  }
  ch.chargedBytes = 0;
  deliverPacket(from, to, std::move(blob), std::move(metas), cause);
}

void Network::flushChannel(HostId from, HostId to, FlushCause cause) {
  detail::AggChannel& ch = aggChannel(from, to);
  std::lock_guard<std::mutex> lock(ch.mutex);
  flushChannelLocked(ch, from, to, cause);
}

void Network::flushAggregated(HostId me) {
  if (me >= numHosts()) {
    throw std::out_of_range(
        "Network::flushAggregated: host id out of range");
  }
  for (HostId to = 0; to < numHosts(); ++to) {
    if (to != me) {
      flushChannel(me, to, FlushCause::kBarrier);
    }
  }
}

void Network::deliverPacket(HostId from, HostId to,
                            std::vector<uint8_t>&& blob,
                            std::vector<detail::AggChannel::Meta>&& metas,
                            FlushCause cause) {
  const size_t causeIdx = static_cast<size_t>(cause);
  aggVolume_.flushes[causeIdx].fetch_add(1, std::memory_order_relaxed);
  if (obs_.aggFlushes[causeIdx] != nullptr) {
    obs_.aggFlushes[causeIdx]->add();
  }
  if (!isAlive(from) || !isAlive(to)) {
    // An eviction raced the flush: drop the packet exactly like the mailbox
    // purge drops already-queued messages from/to a dead host.
    return;
  }
  aggVolume_.packets.fetch_add(1, std::memory_order_relaxed);
  aggVolume_.packedMessages.fetch_add(metas.size(), std::memory_order_relaxed);
  aggVolume_.packedBytes.fetch_add(blob.size(), std::memory_order_relaxed);
  if (blob.size() > agg_.packetBytes) {
    aggVolume_.overCapPackets.fetch_add(1, std::memory_order_relaxed);
    if (obs_.aggOverCap != nullptr) {
      obs_.aggOverCap->add();
    }
  }
  if (obs_.aggPackets != nullptr) {
    obs_.aggPackets->add();
  }
  if (obs_.aggPackedMessages != nullptr) {
    obs_.aggPackedMessages->add(metas.size());
  }
  if (obs_.aggPackedBytes != nullptr) {
    obs_.aggPackedBytes->add(blob.size());
  }
  if (obs_.aggOccupancy != nullptr) {
    obs_.aggOccupancy->observe(static_cast<double>(metas.size()));
  }
  if (crcFraming_.load(std::memory_order_relaxed)) {
    // One CRC32 footer protects the whole packet, plus an 8-byte per-message
    // length header — modeled at both NIC ends and accounted as framing,
    // never payload. Corruption draws already happened per message at commit
    // time, so this frame always verifies.
    support::appendCrcFooter(blob);
    (void)support::verifyAndStripCrcFooter(blob);
    const uint64_t framing = support::kCrcFooterSize + 8ull * metas.size();
    volume_.framingBytes.fetch_add(framing, std::memory_order_relaxed);
    if (obs_.framingBytes != nullptr) {
      obs_.framingBytes->add(framing);
    }
  }
  // Unpack into the destination mailbox under one lock acquisition: every
  // message gets a zero-copy view over the shared packet blob, its own
  // dup-filter sequence number and its recorded delay/duplicate outcome —
  // then ONE wake for the whole packet.
  auto blobPtr =
      std::make_shared<const std::vector<uint8_t>>(std::move(blob));
  Mailbox& box = *mailboxes_[to];
  {
    std::lock_guard<std::mutex> lock(box.mutex);
    size_t offset = 0;
    for (const auto& meta : metas) {
      enqueueLocked(box,
                    Message{from, meta.tag,
                            support::RecvBuffer(blobPtr, offset, meta.len)},
                    meta.delayScans, meta.duplicate);
      offset += meta.len;
    }
  }
  box.arrived.notify_all();
}

void Network::pullAgedIncoming(HostId me) {
  const auto now = std::chrono::steady_clock::now();
  for (HostId src = 0; src < numHosts(); ++src) {
    if (src == me) {
      continue;
    }
    detail::AggChannel& ch = aggChannel(src, me);
    std::lock_guard<std::mutex> lock(ch.mutex);
    if (!ch.metas.empty() &&
        std::chrono::duration<double>(now - ch.oldestStage).count() >=
            agg_.maxAgeSeconds) {
      flushChannelLocked(ch, src, me, FlushCause::kAge);
    }
  }
}

void Network::checkPackedRoute(HostId from, HostId to, Tag tag,
                               const char* op) const {
  checkHosts(from, to, op);
  if (from == to || tag >= kFirstReserved) {
    throw std::invalid_argument(std::string(op) +
                                ": self-sends and reserved tags go bare");
  }
}

void Network::sendPacked(HostId from, HostId to, Tag tag,
                         support::SendBuffer&& buffer) {
  checkPackedRoute(from, to, tag, "Network::sendPacked");
  detail::AggChannel& ch = aggChannel(from, to);
  std::lock_guard<std::mutex> lock(ch.mutex);
  if (buffer.size() >= agg_.packetBytes) {
    // Already packet-sized: ship pending, then move the buffer straight into
    // a packet blob of its own — no copy through the channel.
    flushChannelLocked(ch, from, to, FlushCause::kSize);
    const size_t len = buffer.size();
    const Attempt sent = transmit(from, to, tag, len, /*packed=*/true);
    if (len > agg_.packetBytes) {
      aggVolume_.oversizedMessages.fetch_add(1, std::memory_order_relaxed);
      if (obs_.aggOversized != nullptr) {
        obs_.aggOversized->add();
      }
    }
    std::vector<detail::AggChannel::Meta> metas(1);
    metas[0].tag = tag;
    metas[0].len = static_cast<uint32_t>(len);
    metas[0].delayScans = sent.delayScans;
    metas[0].duplicate = sent.duplicate;
    deliverPacket(from, to, buffer.release(), std::move(metas),
                  FlushCause::kSize);
    return;
  }
  const size_t start = ch.bytes.size();
  ch.bytes.insert(ch.bytes.end(), buffer.data(),
                  buffer.data() + buffer.size());
  finishPackedCommit(ch, from, to, tag, start);
}

AggVolume Network::aggSnapshot() const {
  AggVolume snap;
  for (size_t i = 0; i < kNumFlushCauses; ++i) {
    snap.flushes[i] = aggVolume_.flushes[i].load(std::memory_order_relaxed);
  }
  snap.packets = aggVolume_.packets.load(std::memory_order_relaxed);
  snap.packedMessages =
      aggVolume_.packedMessages.load(std::memory_order_relaxed);
  snap.packedBytes = aggVolume_.packedBytes.load(std::memory_order_relaxed);
  snap.oversizedMessages =
      aggVolume_.oversizedMessages.load(std::memory_order_relaxed);
  snap.overCapPackets =
      aggVolume_.overCapPackets.load(std::memory_order_relaxed);
  snap.pendingBytes = aggVolume_.pendingBytes.load(std::memory_order_relaxed);
  return snap;
}

void Network::setPendingGauge() {
  if (obs_.aggPendingBytes != nullptr) {
    obs_.aggPendingBytes->set(static_cast<double>(
        aggVolume_.pendingBytes.load(std::memory_order_relaxed)));
  }
}

std::optional<Message> Network::scanLocked(Mailbox& box, Tag tag,
                                           HostId from) {
  // Channels with an earlier still-delayed message this scan; later
  // messages of the same channel are ineligible so per-channel FIFO holds.
  std::vector<ChannelKey> held;
  for (auto it = box.queue.begin(); it != box.queue.end();) {
    const ChannelKey channel{it->msg.from, it->msg.tag};
    if (injector_ && it->seq != 0) {
      const auto state = box.channels.find(channel);
      if (state != box.channels.end() &&
          it->seq <= state->second.lastDelivered) {
        injector_->countDuplicateSuppressed();
        backlogBytes_.fetch_sub(it->msg.payload.size(),
                                std::memory_order_relaxed);
        it = box.queue.erase(it);
        continue;
      }
      if (it->delayScans > 0) {
        held.push_back(channel);
        ++it;
        continue;
      }
      if (std::find(held.begin(), held.end(), channel) != held.end()) {
        ++it;
        continue;
      }
    }
    if (it->msg.tag == tag && (from == kAnyHost || it->msg.from == from)) {
      if (injector_ && it->seq != 0) {
        ChannelState& state = box.channels[channel];
        state.lastDelivered = it->seq;
        state.lastUse = ++box.channelUseCounter;
      }
      Message msg = std::move(it->msg);
      backlogBytes_.fetch_sub(msg.payload.size(), std::memory_order_relaxed);
      box.queue.erase(it);
      return msg;
    }
    ++it;
  }
  return std::nullopt;
}

void Network::compactChannelsLocked(Mailbox& box) {
  if (box.channels.size() <= kMaxDupFilterChannels) {
    return;
  }
  // A queued message pins its channel: evicting the state of a channel with
  // an in-flight duplicate could let the duplicate through once its original
  // is delivered under a fresh watermark. Channels with an empty queue are
  // safe to forget — sender counter and receiver watermark reset together,
  // which is exactly a fresh channel's state.
  std::set<ChannelKey> pinned;
  for (const Queued& entry : box.queue) {
    pinned.insert({entry.msg.from, entry.msg.tag});
  }
  std::vector<std::pair<uint64_t, ChannelKey>> evictable;  // (lastUse, key)
  for (const auto& [key, state] : box.channels) {
    if (pinned.find(key) == pinned.end()) {
      evictable.push_back({state.lastUse, key});
    }
  }
  std::sort(evictable.begin(), evictable.end());
  for (const auto& [lastUse, key] : evictable) {
    if (box.channels.size() <= kMaxDupFilterChannels) {
      break;
    }
    box.channels.erase(key);
  }
}

size_t Network::dupFilterChannels(HostId me) const {
  if (me >= numHosts()) {
    throw std::out_of_range("Network::dupFilterChannels: host id out of range");
  }
  Mailbox& box = *mailboxes_[me];
  std::lock_guard<std::mutex> lock(box.mutex);
  return box.channels.size();
}

uint64_t Network::mailboxBacklogBytesExact() const {
  uint64_t total = 0;
  for (const auto& boxPtr : mailboxes_) {
    Mailbox& box = *boxPtr;
    std::lock_guard<std::mutex> lock(box.mutex);
    for (const Queued& entry : box.queue) {
      total += entry.msg.payload.size();
    }
  }
  return total;
}

void Network::ageDelayedLocked(Mailbox& box) {
  for (Queued& entry : box.queue) {
    if (entry.delayScans > 0) {
      --entry.delayScans;
    }
  }
}

void Network::throwStalled(HostId me, Tag tag, HostId from,
                           double waitedSeconds) {
  std::ostringstream report;
  report << "recv timeout: host " << me << " waited " << waitedSeconds
         << "s for " << tagName(tag);
  if (from != kAnyHost) {
    report << " from host " << from;
  }
  report << "; blocked hosts:";
  bool any = false;
  for (HostId h = 0; h < numHosts(); ++h) {
    const uint64_t packed = blockedOn_[h]->load(std::memory_order_acquire);
    if ((packed & kBlockedActiveBit) == 0) {
      continue;
    }
    const HostId blockedFrom =
        static_cast<HostId>((packed >> 32) & 0x7FFFFFFFu);
    const Tag blockedTag = static_cast<Tag>(packed & 0xFFFFFFFFu);
    report << " [host " << h << " on " << tagName(blockedTag);
    if (blockedFrom != (kAnyHost & 0x7FFFFFFFu)) {
      report << " from host " << blockedFrom;
    }
    report << "]";
    any = true;
  }
  if (!any) {
    report << " none";
  }
  throw NetworkStalled(report.str());
}

HostId Network::chaseBlame(HostId me, HostId from) const {
  // Attribute a stalled wait to its ROOT CAUSE, not the direct peer. In a
  // gather/broadcast tree every host waits on the collective root while the
  // root itself waits on the true laggard; blaming the direct peer condemns
  // the innocent root alongside the straggler (and poisons the median-peer
  // guard, since the other waiters accrue blame at the same rate). Follow
  // the blocked-on chain until it ends at a host that is not itself blocked
  // on a specific peer. Bounded hops plus a self-reference stop keep a
  // genuine wait cycle (a deadlock, not a straggler) blaming the direct
  // peer's chain tail rather than looping.
  HostId culprit = from;
  for (uint32_t hop = 0; hop < numHosts(); ++hop) {
    const uint64_t packed = blockedOn_[culprit]->load(std::memory_order_acquire);
    if ((packed & kBlockedActiveBit) == 0) {
      break;  // chain tail: the culprit is running (slowly), not waiting
    }
    const HostId next = static_cast<HostId>((packed >> 32) & 0x7FFFFFFFu);
    if (next == (kAnyHost & 0x7FFFFFFFu) || next == me || next == culprit ||
        !isAlive(next)) {
      break;  // unattributable wait, or the chain loops back to us
    }
    culprit = next;
  }
  return culprit;
}

Message Network::recvImpl(HostId me, Tag tag, HostId from) {
  if (!isAlive(me) || (from != kAnyHost && !isAlive(from))) {
    throw HostEvicted(me, isAlive(me) ? from : me, tag, membershipEpoch());
  }
  if (injector_) {
    injector_->onCrossing(me);
  }
  Mailbox& box = *mailboxes_[me];
  const int64_t timeoutNanos = recvTimeoutNanos_.load(std::memory_order_relaxed);
  const auto start = std::chrono::steady_clock::now();
  const auto deadline = start + std::chrono::nanoseconds(timeoutNanos);
  // Straggler deadlines only apply to waits blocked on one SPECIFIC peer:
  // that is the only case where slowness is attributable to a host rather
  // than to the network at large.
  const bool stragglerWatch = from != kAnyHost && stragglerMonitor_ &&
                              stragglerPolicy_.enabled();
  const auto softDur = std::chrono::duration_cast<
      std::chrono::steady_clock::duration>(
      std::chrono::duration<double>(stragglerPolicy_.softDeadlineSeconds));
  auto lastBlameMark = start;  // start of the current blame window
  std::unique_lock<std::mutex> lock(box.mutex);
  for (;;) {
    if (agePullActive()) {
      // Opt-in latency bound: ship any incoming channel whose oldest
      // committed message has aged past the policy before scanning.
      lock.unlock();
      pullAgedIncoming(me);
      lock.lock();
    }
    if (auto msg = scanLocked(box, tag, from)) {
      return std::move(*msg);
    }
    if (aborted_.load(std::memory_order_acquire)) {
      throw NetworkAborted();
    }
    if (from != kAnyHost && !isAlive(from)) {
      // The awaited peer was evicted while we were blocked (evict() wakes
      // all receivers): nothing more will ever arrive on this channel.
      throw HostEvicted(me, from, tag, membershipEpoch());
    }
    if (stragglerWatch && stragglerMonitor_->isCondemned(from)) {
      // Another waiter already condemned this peer; fail fast instead of
      // waiting for the driver's eviction to propagate.
      throw StragglerDeadline(me, from, tag,
                              stragglerMonitor_->blamedSeconds(from));
    }
    if (injector_) {
      // A failed scan ages delayed messages; one may have matured.
      ageDelayedLocked(box);
      if (auto msg = scanLocked(box, tag, from)) {
        return std::move(*msg);
      }
    }
    // A delayed message only ages when this receiver re-scans, so while any
    // is queued we poll instead of sleeping unboundedly on the condvar.
    bool anyDelayed = false;
    if (injector_) {
      for (const Queued& entry : box.queue) {
        if (entry.delayScans > 0) {
          anyDelayed = true;
          break;
        }
      }
    }
    blockedOn_[me]->store(packBlocked(from, tag), std::memory_order_release);
    bool timedOut = false;
    if (anyDelayed) {
      auto pollDeadline =
          std::chrono::steady_clock::now() + std::chrono::milliseconds(1);
      if (timeoutNanos > 0 && deadline < pollDeadline) {
        pollDeadline = deadline;
      }
      if (box.arrived.wait_until(lock, pollDeadline) ==
          std::cv_status::timeout) {
        timedOut = timeoutNanos > 0 &&
                   std::chrono::steady_clock::now() >= deadline;
      }
    } else if (timeoutNanos > 0 || stragglerWatch || agePullActive()) {
      // Wake at the earliest of the recv deadline, the next soft straggler
      // mark, and the next age-pull poll; only an expired RECV deadline
      // counts as a timeout.
      auto waitDeadline = timeoutNanos > 0
                              ? deadline
                              : std::chrono::steady_clock::time_point::max();
      if (stragglerWatch && lastBlameMark + softDur < waitDeadline) {
        waitDeadline = lastBlameMark + softDur;
      }
      if (agePullActive()) {
        const auto ageMark =
            std::chrono::steady_clock::now() +
            std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                std::chrono::duration<double>(agg_.maxAgeSeconds));
        if (ageMark < waitDeadline) {
          waitDeadline = ageMark;
        }
      }
      timedOut = box.arrived.wait_until(lock, waitDeadline) ==
                     std::cv_status::timeout &&
                 timeoutNanos > 0 &&
                 std::chrono::steady_clock::now() >= deadline;
    } else {
      box.arrived.wait(lock);
    }
    blockedOn_[me]->store(0, std::memory_order_release);
    if (stragglerWatch) {
      const auto now = std::chrono::steady_clock::now();
      if (now >= lastBlameMark + softDur) {
        if (auto msg = scanLocked(box, tag, from)) {
          // The peer answered at the wire — slow, but within this wake.
          return std::move(*msg);
        }
        // Blocked on `from` for a full soft-deadline window with nothing to
        // show for it: chase the blocked-on chain to the root cause and
        // attribute the wait there (see chaseBlame).
        const double blamed =
            std::chrono::duration<double>(now - lastBlameMark).count();
        lastBlameMark = now;
        const HostId culprit = chaseBlame(me, from);
        stragglerMonitor_->recordBlame(culprit, blamed);
        countStragglerReport(culprit, /*hard=*/false);
        if (stragglerMonitor_->overHardDeadline(culprit, stragglerPolicy_)) {
          stragglerMonitor_->markCondemned(culprit);
          countStragglerReport(culprit, /*hard=*/true);
          // Re-register as blocked so sibling stall reports still name us
          // while this propagates toward the driver's eviction.
          blockedOn_[me]->store(packBlocked(from, tag),
                                std::memory_order_release);
          throw StragglerDeadline(me, culprit, tag,
                                  stragglerMonitor_->blamedSeconds(culprit));
        }
      }
    }
    if (timedOut) {
      if (injector_) {
        ageDelayedLocked(box);
      }
      if (auto msg = scanLocked(box, tag, from)) {
        return std::move(*msg);
      }
      if (aborted_.load(std::memory_order_acquire)) {
        throw NetworkAborted();
      }
      // Re-register as blocked so sibling stall reports still name us while
      // this exception propagates toward abort().
      blockedOn_[me]->store(packBlocked(from, tag), std::memory_order_release);
      const double waited = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - start)
                                .count();
      if (from != kAnyHost) {
        // A stalled wait on one SPECIFIC peer is the receiver-side symptom
        // of a cut link (the stall detector doubling as connectivity
        // suspicion); throws MinorityPartition if we are the fenced side.
        enforceQuorumOnFailure(me, from, tag);
      }
      throwStalled(me, tag, from, waited);
    }
  }
}

std::optional<Message> Network::tryRecv(HostId me, Tag tag) {
  if (injector_) {
    injector_->onCrossing(me);
  }
  if (agePullActive()) {
    pullAgedIncoming(me);
  }
  Mailbox& box = *mailboxes_[me];
  std::lock_guard<std::mutex> lock(box.mutex);
  if (auto msg = scanLocked(box, tag, kAnyHost)) {
    return msg;
  }
  if (aborted_.load(std::memory_order_acquire)) {
    throw NetworkAborted();
  }
  if (injector_) {
    ageDelayedLocked(box);
    if (auto msg = scanLocked(box, tag, kAnyHost)) {
      return msg;
    }
  }
  return std::nullopt;
}

Message Network::recv(HostId me, Tag tag) { return recvImpl(me, tag, kAnyHost); }

Message Network::recvFrom(HostId me, HostId from, Tag tag) {
  return recvImpl(me, tag, from);
}

void Network::barrier(HostId me) {
  // Two-phase flat barrier through the collective root (the lowest alive
  // host — 0 on full membership) using reserved tags; payloads are empty so
  // barriers contribute only message counts to collective stats.
  faultPoint(me);
  // A barrier is a phase edge: everything committed before it must be
  // visible after it, so ship every pending aggregation channel first.
  flushAggregated(me);
  if (numAliveHosts() <= 1) {
    return;
  }
  const HostId root = collectiveRoot();
  if (me == root) {
    for (HostId src = 0; src < numHosts(); ++src) {
      if (src != root && isAlive(src)) {
        recvFrom(root, src, kTagBarrierUp);
      }
    }
    for (HostId dst = 0; dst < numHosts(); ++dst) {
      if (dst != root && isAlive(dst)) {
        sendReliable(root, dst, kTagBarrierDown, support::SendBuffer());
      }
    }
  } else {
    sendReliable(me, root, kTagBarrierUp, support::SendBuffer());
    recvFrom(me, root, kTagBarrierDown);
  }
}

void Network::abort() {
  aborted_.store(true, std::memory_order_release);
  for (auto& box : mailboxes_) {
    std::lock_guard<std::mutex> lock(box->mutex);
    box->arrived.notify_all();
  }
}

void Network::accountSend(HostId from, HostId to, Tag tag, size_t bytes,
                          size_t framingBytes) {
  if (from == to) {
    return;  // local delivery; nothing crosses the (simulated) wire
  }
  if (framingBytes > 0) {
    volume_.framingBytes.fetch_add(framingBytes, std::memory_order_relaxed);
    if (obs_.framingBytes != nullptr) {
      obs_.framingBytes->add(framingBytes);
    }
  }
  if (tag < kTagCount) {
    volume_.bytes[tag].fetch_add(bytes, std::memory_order_relaxed);
    volume_.messages[tag].fetch_add(1, std::memory_order_relaxed);
    if (obs_.registry) {
      obs_.bytes[tag]->add(bytes);
      obs_.messages[tag]->add(1);
    }
  } else {
    volume_.collectiveBytes.fetch_add(bytes, std::memory_order_relaxed);
    volume_.collectiveMessages.fetch_add(1, std::memory_order_relaxed);
    if (obs_.registry) {
      obs_.collectiveBytes->add(bytes);
      obs_.collectiveMessages->add(1);
    }
  }
}

VolumeStats Network::statsSnapshot() const {
  VolumeStats snap;
  for (Tag t = 0; t < kTagCount; ++t) {
    snap.bytes[t] = volume_.bytes[t].load(std::memory_order_relaxed);
    snap.messages[t] = volume_.messages[t].load(std::memory_order_relaxed);
  }
  snap.collectiveBytes = volume_.collectiveBytes.load(std::memory_order_relaxed);
  snap.collectiveMessages =
      volume_.collectiveMessages.load(std::memory_order_relaxed);
  snap.framingBytes = volume_.framingBytes.load(std::memory_order_relaxed);
  snap.corruptionsDetected =
      volume_.corruptionsDetected.load(std::memory_order_relaxed);
  snap.corruptionsRecovered =
      volume_.corruptionsRecovered.load(std::memory_order_relaxed);
  return snap;
}

void Network::resetStats() {
  for (Tag t = 0; t < kTagCount; ++t) {
    volume_.bytes[t].store(0, std::memory_order_relaxed);
    volume_.messages[t].store(0, std::memory_order_relaxed);
  }
  volume_.collectiveBytes.store(0, std::memory_order_relaxed);
  volume_.collectiveMessages.store(0, std::memory_order_relaxed);
  volume_.framingBytes.store(0, std::memory_order_relaxed);
  volume_.corruptionsDetected.store(0, std::memory_order_relaxed);
  volume_.corruptionsRecovered.store(0, std::memory_order_relaxed);
}

uint64_t Network::bytesSent(Tag tag) const {
  return (tag < kTagCount ? volume_.bytes[tag] : volume_.collectiveBytes)
      .load(std::memory_order_relaxed);
}

uint64_t Network::messagesSent(Tag tag) const {
  return (tag < kTagCount ? volume_.messages[tag] : volume_.collectiveMessages)
      .load(std::memory_order_relaxed);
}

BufferedSender::BufferedSender(Network& net, HostId me, Tag tag,
                               size_t threshold)
    : net_(net), me_(me), tag_(tag), threshold_(threshold),
      pending_(net.numHosts()),
      budget_(support::memoryBudgetAttached() ? support::memoryBudget()
                                              : nullptr) {}

BufferedSender::~BufferedSender() {
  if (budget_ != nullptr && chargedBytes_ > 0) {
    budget_->release(chargedBytes_);
    chargedBytes_ = 0;
  }
}

void BufferedSender::chargePending(size_t bytes) {
  if (budget_ == nullptr || bytes == 0) {
    return;
  }
  // Overdraft: a record already serialized must be shipped, not dropped;
  // pressure is relieved by the early flush in append(), not by refusal.
  budget_->reserveOverdraft(bytes);
  chargedBytes_ += bytes;
}

void BufferedSender::releasePending(size_t bytes) {
  if (budget_ == nullptr || bytes == 0) {
    return;
  }
  const uint64_t toRelease = std::min<uint64_t>(bytes, chargedBytes_);
  budget_->release(toRelease);
  chargedBytes_ -= toRelease;
}

bool BufferedSender::underPressure() {
  if (budget_ == nullptr || !budget_->underPressure()) {
    return false;
  }
  pressureFlushes_ += 1;
  return true;
}

void BufferedSender::flush(HostId dst) {
  if (pending_[dst].empty()) {
    return;
  }
  support::SendBuffer buffer = std::move(pending_[dst]);
  pending_[dst] = support::SendBuffer();
  releasePending(buffer.size());
  net_.sendPacked(me_, dst, tag_, std::move(buffer));
}

void BufferedSender::flushAll() {
  for (HostId dst = 0; dst < net_.numHosts(); ++dst) {
    flush(dst);
  }
  // flush(dst) commits each pending buffer into its aggregation channel;
  // drain the channels too so flushAll keeps its historical contract that
  // everything appended is visible to the receivers on return.
  net_.flushAggregated(me_);
}

void runHosts(Network& net, const std::function<void(HostId)>& hostMain) {
  const uint32_t numHosts = net.numHosts();
  std::vector<std::thread> threads;
  threads.reserve(numHosts);
  std::mutex errorMutex;
  std::exception_ptr firstError;
  auto guarded = [&](HostId host) {
    try {
      hostMain(host);
      // A host's exit is a phase edge: anything it committed but never
      // explicitly flushed must not rot in the aggregation channels.
      net.flushAggregated(host);
    } catch (const NetworkAborted&) {
      // Sibling of the faulting host; swallow the unwind signal.
    } catch (...) {
      {
        std::lock_guard<std::mutex> lock(errorMutex);
        if (!firstError) {
          firstError = std::current_exception();
        }
      }
      net.abort();
    }
  };
  for (HostId h = 0; h < numHosts; ++h) {
    if (!net.isAlive(h)) {
      continue;  // evicted hosts get no thread
    }
    threads.emplace_back(guarded, h);
  }
  for (auto& thread : threads) {
    thread.join();
  }
  if (firstError) {
    std::rethrow_exception(firstError);
  }
}

}  // namespace cusp::comm
