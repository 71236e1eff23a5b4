// Simulated distributed-memory message-passing runtime.
//
// The paper runs CuSP over MPI/LCI on a physical cluster; here k logical
// hosts run as threads inside one process and exchange *serialized byte
// buffers* through per-host mailboxes. Nothing is shared between hosts
// except through these messages (and the read-only "disk"), so all of
// CuSP's communication structure — tagged point-to-point sends, message
// buffering with a flush threshold (paper Section IV-D3), bulk-synchronous
// state reductions (IV-D4), and per-phase volume accounting (Table V) — is
// exercised for real.
//
// Model notes:
//  * Message order is FIFO per (source, destination, tag) channel, like MPI.
//  * recv* match any source unless recvFrom is used.
//  * Collectives (barrier, allReduce) are built from point-to-point messages
//    through host 0, so their traffic is also visible in the statistics.
//  * abort() wakes all blocked receivers with NetworkAborted, letting the
//    host runner unwind cleanly when any host throws.
//
// Fault tolerance (comm/fault.h; everything off by default):
//  * An attached FaultInjector turns the interconnect lossy: sends can be
//    dropped (sender-visible, like a NACK), duplicated (suppressed by a
//    receiver-side per-channel sequence filter) or delayed (held back for a
//    few receiver scan cycles, preserving per-channel FIFO), and hosts can
//    crash (HostFailure thrown at a send/recv/barrier crossing).
//  * Every cross-host message, bare or packed, goes through one attempt
//    body (alive check, crash crossing, modeled cost, fault draw, volume
//    accounting) and one retry loop over it. send() is a single attempt;
//    sendReliable() and every packed commit run the loop, which retries
//    dropped and corrupted attempts under the network RetryPolicy with
//    modeled exponential backoff; exhaustion raises SendRetriesExhausted.
//  * setRecvTimeout() bounds every blocking receive; expiry raises
//    NetworkStalled with a report naming each blocked host and its tag
//    instead of hanging forever.
//
// Wire integrity (CRC framing; on automatically whenever an injector is
// attached, switchable explicitly with setCrcFraming):
//  * Every cross-host frame carries a CRC32 footer (support/crc32.h): a
//    bare message its own 16 bytes, a packet one footer plus an 8-byte
//    header per message. Corruption is drawn per message attempt: a
//    kCorrupt draw flips one byte of that message's frame in flight.
//    CRC32 catches every single-byte flip, and a flip inside the footer
//    breaks its magic or its checksum, so the receiver NIC's check fails
//    exactly when the draw is kCorrupt; the attempt takes its verdict from
//    the draw instead of flipping and re-checking bytes.
//  * A failed check discards the frame and surfaces on the sender as
//    MessageCorrupt (a link-layer NACK); the retry loop retransmits a clean
//    copy transparently. Detected and retry-recovered corruptions are
//    counted in VolumeStats.
//  * Framing bytes are accounted separately (VolumeStats::framingBytes) so
//    per-tag payload accounting stays byte-identical with framing on or
//    off — and so the framing overhead itself is directly measurable.
//
// Membership (degraded mode; full membership by default, in which case
// every code path below is byte-identical to a membership-free build):
//  * The network maintains an epoch-based MembershipView: an epoch counter
//    plus per-host alive flags. evict() marks a host permanently dead,
//    bumps the epoch and wakes all blocked receivers.
//  * Traffic addressed to (or issued by) an evicted host fails fast with
//    HostEvicted instead of burning retries or waiting out a timeout.
//  * Collectives root at the LOWEST ALIVE host and iterate alive hosts
//    only, so evicting host 0 shifts the root instead of deadlocking; with
//    full membership the root is 0 and the message pattern is unchanged.
//  * runHosts() spawns threads for alive hosts only.
//  * agreeMembership() is the eviction agreement round: a collective in
//    which every alive host exchanges and confirms the (epoch, alive set)
//    view before the survivors proceed.
//
// Send aggregation (the buffered, batched hot path; the only mode for
// protocol traffic):
//  * Protocol senders obtain a PackedWriter (packedWriter()) that serializes
//    RECORDS STRAIGHT INTO the per-(source, destination) aggregation buffer
//    — no intermediate per-message vector — and commit() seals the record
//    as one logical message. BufferedSender flushes ride the same path via
//    sendPacked(). Self-sends and reserved tags are refused there; the
//    bare send()/sendReliable() stay for collectives, barriers and other
//    callers that need a synchronous send.
//  * A channel ships as one multi-message PACKET once it reaches
//    AggregationPolicy::packetBytes (~1400 B, the Gluon buffered.cpp
//    lineage), when the attached MemoryBudget reports pressure, at every
//    explicit flush point (flushAggregated(), barrier entry, BufferedSender
//    ::flushAll(), runHosts exit), or — opt-in — when a blocking receiver
//    pulls channels older than AggregationPolicy::maxAgeSeconds.
//  * One CRC32 frames the whole packet (framing = one footer plus an 8-byte
//    per-message header, accounted in VolumeStats::framingBytes);
//    unpacked messages are zero-copy views into the shared packet blob, and
//    a drained packet wakes the consumer ONCE, not per message.
//  * Fault semantics are preserved at message granularity: a commit runs
//    the same retry loop as sendReliable (drop/duplicate/delay/corrupt
//    draws, crossings, retries, modeled cost and backoff) at commit() time,
//    so every FaultPlan seed draws the same sequence packed or bare. Only
//    the enqueue moves: sequence assignment, the duplicate filter and delay
//    scans are applied when the packet is unpacked.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "comm/fault.h"
#include "obs/metrics.h"
#include "support/memory.h"
#include "support/serialize.h"

namespace cusp::support {
class WriteFence;
}  // namespace cusp::support

namespace cusp::comm {

// Tags used by the CuSP stack. User code may use any tag < kFirstReserved.
enum PhaseTag : Tag {
  kTagGeneric = 0,
  kTagMasterRequest = 1,   // master-assignment: "send me masters of these"
  kTagMasterAssign = 2,    // master-assignment: (node, partition) pairs
  kTagMasterList = 3,      // allocation: "you are master of these nodes"
  kTagEdgeCounts = 4,      // edge assignment: positional out-edge counts
  kTagMirrorFlags = 5,     // edge assignment: createMirror node ids
  kTagMirrorToMaster = 6,  // allocation: mirror locations back to masters
  kTagEdgeBatch = 7,       // construction: buffered (src, dsts...) batches
  kTagAppReduce = 8,       // analytics: mirror -> master reductions
  kTagAppBroadcast = 9,    // analytics: master -> mirror broadcasts
  kTagStateReduce = 10,    // partitioning-state delta reduction
  kTagCount = 16,          // stats array size for user-visible tags
  kFirstReserved = 0xFFFF0000u,
  kTagCollectiveUp = kFirstReserved,
  kTagCollectiveDown = kFirstReserved + 1,
  kTagBarrierUp = kFirstReserved + 2,
  kTagBarrierDown = kFirstReserved + 3,
};

struct Message {
  HostId from = 0;
  Tag tag = 0;
  support::RecvBuffer payload;
};

class NetworkAborted : public std::runtime_error {
 public:
  NetworkAborted() : std::runtime_error("network aborted") {}
};

// Snapshot of the cluster membership: which hosts are alive, and the epoch
// the view belongs to (bumped on every eviction). Host ids never shift —
// an evicted host leaves a permanent hole in the id space; compaction to a
// dense survivor numbering is the degraded driver's business.
struct MembershipView {
  uint64_t epoch = 0;
  std::vector<uint8_t> alive;  // 1 = alive, indexed by host id

  bool isAlive(HostId h) const { return h < alive.size() && alive[h] != 0; }
  uint32_t numAlive() const {
    uint32_t n = 0;
    for (uint8_t a : alive) {
      n += a != 0 ? 1 : 0;
    }
    return n;
  }
  std::vector<HostId> aliveHosts() const {
    std::vector<HostId> hosts;
    for (HostId h = 0; h < alive.size(); ++h) {
      if (alive[h] != 0) {
        hosts.push_back(h);
      }
    }
    return hosts;
  }
};

// Volume counters per tag (only tags < kTagCount are tracked individually;
// reserved collective tags are folded into a separate bucket).
struct VolumeStats {
  uint64_t bytes[kTagCount] = {};
  uint64_t messages[kTagCount] = {};
  uint64_t collectiveBytes = 0;
  uint64_t collectiveMessages = 0;

  // CRC framing overhead (footer bytes shipped with framed messages) and
  // wire-corruption outcomes. Kept out of the per-tag payload counters and
  // totalBytes() so volume accounting stays byte-identical with framing on
  // or off.
  uint64_t framingBytes = 0;
  uint64_t corruptionsDetected = 0;   // frames that failed verification
  uint64_t corruptionsRecovered = 0;  // detected, then retransmitted clean

  uint64_t totalBytes() const {
    uint64_t sum = collectiveBytes;
    for (uint64_t b : bytes) {
      sum += b;
    }
    return sum;
  }
  uint64_t totalMessages() const {
    uint64_t sum = collectiveMessages;
    for (uint64_t m : messages) {
      sum += m;
    }
    return sum;
  }
};

// Cost model for the simulated interconnect. Real message passing pays a
// per-message injection overhead (NIC + MPI stack, ~microseconds) and a
// per-byte serialization/wire cost; both are zero by default (pure
// functional simulation). Costs are not waited out — they are *accounted*
// per sending host (modeledCommSeconds) and folded into the simulated
// cluster makespan by the partitioner and the analytics engine. This is
// what reproduces the paper's communication-bound effects: message
// buffering amortizes the per-message overhead (Fig. 7), and
// communication-structured partitions send fewer messages during
// application sync (Figs. 5/6). Reserved collective/barrier tags are not
// charged (identical for every policy; negligible payloads).
struct NetworkCostModel {
  double sendOverheadMicros = 0.0;  // fixed cost per cross-host message
  double bandwidthMBps = 0.0;       // per-byte cost; 0 = infinite bandwidth
};

// Tuning of the buffered send path (see "Send aggregation" above); every
// Network starts at AggregationPolicy{}. maxAgeSeconds defaults to 0 (no receiver-side age pull): the default
// flush causes are all program-order deterministic, which is what keeps the
// obs counter/histogram determinism guarantee intact. Tests and latency-
// sensitive callers opt into the age bound explicitly.
struct AggregationPolicy {
  size_t packetBytes = 1400;   // seal a packet once a channel reaches this
  double maxAgeSeconds = 0.0;  // >0: blocked receivers pull channels this old
};

// Why a channel was flushed into a packet.
enum class FlushCause : uint8_t {
  kSize = 0,      // pending reached packetBytes (or an oversized message)
  kAge = 1,       // receiver pulled a channel older than maxAgeSeconds
  kPressure = 2,  // MemoryBudget under pressure at commit time
  kBarrier = 3,   // explicit flush: flushAggregated/barrier/flushAll/exit
};
inline constexpr size_t kNumFlushCauses = 4;

// Point-in-time view of the aggregation counters (mirrored to the obs
// registry as cusp.net.agg.* when a sink is attached).
struct AggVolume {
  uint64_t flushes[kNumFlushCauses] = {};
  uint64_t packets = 0;
  uint64_t packedMessages = 0;
  uint64_t packedBytes = 0;          // payload bytes shipped in packets
  uint64_t oversizedMessages = 0;    // single messages > packetBytes
  uint64_t overCapPackets = 0;       // packets over the cap (== oversized)
  uint64_t pendingBytes = 0;         // staged, committed, not yet shipped
  uint64_t totalFlushes() const {
    uint64_t sum = 0;
    for (uint64_t f : flushes) {
      sum += f;
    }
    return sum;
  }
};

namespace detail {
// One ordered (source, destination) aggregation channel: committed message
// payloads laid back to back plus their per-message metadata. The mutex is
// held for the lifetime of a PackedWriter (serialization writes straight
// into `bytes`) and by flushes; it never nests inside a mailbox mutex.
struct AggChannel {
  struct Meta {
    Tag tag = 0;
    uint32_t len = 0;
    uint32_t delayScans = 0;  // injector kDelay, re-applied at unpack
    bool duplicate = false;   // injector kDuplicate, re-applied at unpack
  };
  std::mutex mutex;
  std::vector<uint8_t> bytes;
  std::vector<Meta> metas;
  uint64_t chargedBytes = 0;  // MemoryBudget overdraft held for `bytes`
  std::chrono::steady_clock::time_point oldestStage{};
};
}  // namespace detail

class PackedWriter;

class Network {
 public:
  explicit Network(uint32_t numHosts,
                   NetworkCostModel costModel = NetworkCostModel{});
  ~Network() = default;

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  uint32_t numHosts() const { return static_cast<uint32_t>(mailboxes_.size()); }

  // --- point to point ---

  // One transmission attempt that moves `buffer` to host `to`'s mailbox.
  // Self-sends are allowed and delivered like any other message, but are
  // NOT counted in the volume statistics (no bytes cross the network).
  // Returns false iff the attached fault injector dropped the message
  // (sender-visible loss); always true on a fault-free network. With CRC
  // framing on, a message corrupted in flight fails the receiver's frame
  // check and throws MessageCorrupt (the link-layer NACK sendReliable
  // retries on).
  bool send(HostId from, HostId to, Tag tag, support::SendBuffer&& buffer);

  // send() under the network RetryPolicy: a dropped or corrupted attempt is
  // retried with modeled exponential backoff charged to the sender; throws
  // SendRetriesExhausted (or MessageCorrupt) once the attempts are spent.
  // The bare synchronous path of collectives and barriers.
  void sendReliable(HostId from, HostId to, Tag tag,
                    support::SendBuffer&& buffer);

  // --- buffered hot path (send aggregation) ---

  // Zero-copy buffered send to another host on a user tag: serialize into
  // the returned writer and commit(). Self-sends and reserved tags throw
  // std::invalid_argument; they go through send()/sendReliable(). See the
  // PackedWriter class below.
  PackedWriter packedWriter(HostId from, HostId to, Tag tag);

  // sendReliable semantics over the aggregation path: `buffer` becomes one
  // logical message in the (from, to) channel. A buffer of packetBytes or
  // more ships immediately as its own packet with no extra copy. Same
  // target rules as packedWriter().
  void sendPacked(HostId from, HostId to, Tag tag,
                  support::SendBuffer&& buffer);

  // Ships every pending aggregation channel sourced at `me` (the explicit
  // flush barrier; cause kBarrier). Called automatically on barrier entry,
  // by BufferedSender::flushAll and at runHosts exit; protocol code calls
  // it before blocking on replies to traffic it just committed.
  void flushAggregated(HostId me);

  void setAggregation(const AggregationPolicy& policy) { agg_ = policy; }
  const AggregationPolicy& aggregation() const { return agg_; }

  AggVolume aggSnapshot() const;

  // Non-blocking receive of any message with `tag` (any source). Throws
  // NetworkAborted once the network is aborted, so polling loops unwind
  // like the blocking receives instead of spinning forever.
  std::optional<Message> tryRecv(HostId me, Tag tag);

  // Blocking receive of any message with `tag` (any source).
  Message recv(HostId me, Tag tag);

  // Blocking receive of the next message from `from` with `tag`.
  Message recvFrom(HostId me, HostId from, Tag tag);

  // --- collectives (implemented over point-to-point via host 0) ---

  void barrier(HostId me);

  // Element-wise all-reduce; `combine(acc, in)` folds contributions in host
  // id order (deterministic for non-commutative ops). All hosts must pass
  // vectors of the same length.
  template <typename T>
  void allReduce(HostId me, std::vector<T>& values,
                 const std::function<void(std::vector<T>&,
                                          const std::vector<T>&)>& combine);

  template <typename T>
  void allReduceSum(HostId me, std::vector<T>& values);

  template <typename T>
  T allReduceSum(HostId me, T value);

  template <typename T>
  T allReduceMax(HostId me, T value);

  template <typename T>
  T allReduceMin(HostId me, T value);

  bool allReduceOr(HostId me, bool value);

  // --- membership (degraded mode) ---

  bool isAlive(HostId h) const {
    return alive_[h]->load(std::memory_order_acquire);
  }
  uint32_t numAliveHosts() const {
    uint32_t n = 0;
    for (HostId h = 0; h < numHosts(); ++h) {
      n += isAlive(h) ? 1 : 0;
    }
    return n;
  }
  // Lowest alive host: the root of every collective. 0 on full membership.
  HostId collectiveRoot() const {
    for (HostId h = 0; h < numHosts(); ++h) {
      if (isAlive(h)) {
        return h;
      }
    }
    return 0;  // unreachable while any host runs
  }
  uint64_t membershipEpoch() const {
    return membershipEpoch_.load(std::memory_order_acquire);
  }
  MembershipView membershipSnapshot() const;

  // Permanently removes `host` from the membership: bumps the epoch, makes
  // all traffic touching the host fail fast with HostEvicted, and wakes
  // every blocked receiver so survivors waiting on the dead host unwind
  // immediately. Irreversible for the lifetime of this Network.
  void evict(HostId host);

  // Eviction agreement round: every ALIVE host calls this collectively;
  // the hosts exchange their (epoch, alive set) views through the current
  // collective root, fold them (max epoch, AND of alive flags) and return
  // the agreed view. Crossing-visible like any collective, so scheduled
  // crashes can fire inside the round.
  //
  // Quorum rule (split-brain tolerance): when the caller's connectivity
  // component — alive hosts reachable over unsevered, unsuspected links —
  // does not span the whole alive set, only a STRICT MAJORITY component may
  // proceed: each of its members evicts the unreachable side (idempotent,
  // so the survivors' views agree) and the agreement runs among the
  // survivors. A minority — or either half of an exact tie — fences itself
  // against the run's write fence (setWriteFence) and throws
  // MinorityPartition, so no minority host can ever proceed or write state.
  // A host whose own alive flag is already gone (it was evicted while cut
  // off) takes the same fence-and-throw path: that is how a fenced host
  // detects the epoch bump on heal.
  MembershipView agreeMembership(HostId me);

  // --- connectivity (split-brain model) ---

  // Whether `me` currently believes it can talk to `peer`: the fault
  // injector does not sever the link (partition event or fully lossy
  // LinkFault) and `me` has not recorded suspicion against `peer` from a
  // failed send or a stalled specific-peer wait.
  bool linkReachable(HostId me, HostId peer) const;

  // Drops all recorded suspicion (heal-time rejoin: the links are back, so
  // observed-failure evidence from before the heal is stale).
  void clearSuspicions();

  // --- fault tolerance ---

  // Attaches a (shared) fault injector; the same injector survives across
  // the Networks of successive recovery attempts so crash fired-flags and
  // occurrence counters persist. nullptr detaches (the default state).
  void setFaultInjector(std::shared_ptr<FaultInjector> injector) {
    injector_ = std::move(injector);
    // A lossy interconnect without integrity checking is not a useful model:
    // framing follows the injector automatically. setCrcFraming() afterwards
    // overrides (e.g. to measure framing overhead on a clean network).
    crcFraming_.store(injector_ != nullptr, std::memory_order_relaxed);
  }
  const std::shared_ptr<FaultInjector>& faultInjector() const {
    return injector_;
  }

  // Attaches the run's split-brain fencing token (support::WriteFence),
  // shared like the injector by the Networks of every recovery attempt. The
  // quorum rule fences the losing side against it; nullptr (the default)
  // fences nobody.
  void setWriteFence(std::shared_ptr<support::WriteFence> fence) {
    fence_ = std::move(fence);
  }

  // Explicitly enables/disables the CRC32 frame around cross-host messages
  // (see "Wire integrity" above). Auto-enabled by setFaultInjector with a
  // non-null injector.
  void setCrcFraming(bool on) {
    crcFraming_.store(on, std::memory_order_relaxed);
  }
  bool crcFraming() const { return crcFraming_.load(std::memory_order_relaxed); }

  // Bounds every blocking receive; <= 0 restores unbounded waits.
  void setRecvTimeout(double seconds) {
    recvTimeoutNanos_.store(
        seconds > 0 ? static_cast<int64_t>(seconds * 1e9) : 0,
        std::memory_order_relaxed);
  }

  void setRetryPolicy(const RetryPolicy& policy) { retryPolicy_ = policy; }
  const RetryPolicy& retryPolicy() const { return retryPolicy_; }

  // Straggler deadlines (see StragglerPolicy in fault.h). Both must be set
  // before runHosts; the monitor is shared across the Networks of a
  // resilient run — like the fault injector — so blame and condemnation
  // persist across recovery attempts. A receive blocked on one SPECIFIC
  // peer past the soft deadline attributes the wait to that peer (obs
  // counter cusp.straggler.soft_reports{host}) and, once the peer's
  // accumulated blame crosses the hard deadline, throws StragglerDeadline.
  void setStragglerPolicy(const StragglerPolicy& policy) {
    stragglerPolicy_ = policy;
  }
  const StragglerPolicy& stragglerPolicy() const { return stragglerPolicy_; }
  void setStragglerMonitor(std::shared_ptr<StragglerMonitor> monitor) {
    stragglerMonitor_ = std::move(monitor);
  }
  const std::shared_ptr<StragglerMonitor>& stragglerMonitor() const {
    return stragglerMonitor_;
  }

  // Partitioner phase announcements for phase-scheduled crashes; no-ops
  // without an injector.
  void enterPhase(HostId me, uint32_t phase) {
    if (injector_) {
      injector_->enterPhase(me, phase);
    }
  }

  // Explicit crash crossing for communication-free stretches of code (e.g.
  // phase entry in the partitioner); throws HostFailure if a crash is due.
  void faultPoint(HostId me) {
    if (injector_) {
      injector_->onCrossing(me);
    }
  }

  // --- control & accounting ---

  // Wakes every blocked receiver with NetworkAborted. Called by the host
  // runner when a host throws, so sibling hosts unwind instead of hanging.
  void abort();
  bool aborted() const { return aborted_.load(std::memory_order_acquire); }

  // Point-in-time view materialized from the per-Network atomic counters.
  VolumeStats statsSnapshot() const;
  // Zeroes the per-Network counters. The process-wide obs registry (if one
  // was attached at construction) is NOT reset: its counters are monotone
  // and accumulate across resets and recovery attempts by design.
  void resetStats();

  // Accumulated modeled communication time charged to `host` as a sender
  // (cost model applied to every cross-host send with a non-reserved tag).
  double modeledCommSeconds(HostId host) const;

  // Bytes sent with `tag` since the last reset (cross-host only).
  uint64_t bytesSent(Tag tag) const;
  uint64_t messagesSent(Tag tag) const;

  // Number of (source, tag) channels currently tracked by `me`'s duplicate
  // filter. Bounded by kMaxDupFilterChannels (see Mailbox below); exposed
  // for the memory-bound regression test.
  size_t dupFilterChannels(HostId me) const;

  // Total payload bytes currently queued across every mailbox — the
  // network's contribution to memory pressure. Maintained as a single
  // atomic updated on every enqueue/dequeue/duplicate-drop/eviction-purge
  // path: the aggregation commit path consults the memory budget on every
  // send, so the former on-demand lock-and-sum would serialize the hot
  // path against every mailbox.
  uint64_t mailboxBacklogBytes() const {
    return backlogBytes_.load(std::memory_order_relaxed);
  }

  // The lock-and-sum ground truth for mailboxBacklogBytes(); quiescent
  // callers (tests) use it to prove the cached counter stays exact across
  // duplicate-drop and eviction-purge paths.
  uint64_t mailboxBacklogBytesExact() const;

  // Duplicate-filter memory bound: the per-channel sequence state is
  // compacted once a mailbox tracks more than this many distinct
  // (source, tag) channels. Only channels with no queued messages are
  // evictable (a queued in-flight duplicate pins its channel, so filtering
  // stays sound); eviction resets the channel's sender-side sequence and
  // receiver-side watermark together.
  static constexpr size_t kMaxDupFilterChannels = 1024;

 private:
  friend class PackedWriter;

  using ChannelKey = std::pair<HostId, Tag>;

  // A queued message plus its fault-mode bookkeeping: `delayScans` holds
  // the message invisible for that many failed receiver scans, and `seq`
  // is the per-(from, tag) channel sequence number the duplicate filter
  // keys on (0 = sent without an injector, never filtered).
  struct Queued {
    Message msg;
    uint32_t delayScans = 0;
    uint64_t seq = 0;
  };

  // Sequence state of one (source, tag) channel into this mailbox. The
  // sender-assigned counter and the receiver's delivered watermark live
  // together so compaction drops them atomically: a fresh channel restarts
  // at seq 1 with watermark 0, which is exactly the initial state.
  struct ChannelState {
    uint64_t nextSeq = 0;        // assigned at send
    uint64_t lastDelivered = 0;  // duplicate filter watermark
    uint64_t lastUse = 0;        // LRU stamp for compaction
  };

  struct Mailbox {
    std::mutex mutex;
    std::condition_variable arrived;
    std::deque<Queued> queue;
    std::map<ChannelKey, ChannelState> channels;  // duplicate-filter state
    uint64_t channelUseCounter = 0;               // LRU clock
  };

  // What one transmission attempt did to a message. A delivered attempt
  // carries the injector's delay and duplicate outcome, applied when the
  // message is enqueued (bare) or unpacked from its packet (packed).
  struct Attempt {
    enum class Fate : uint8_t { kDelivered, kDropped, kCorrupt };
    Fate fate = Fate::kDelivered;
    uint32_t delayScans = 0;
    bool duplicate = false;
  };

  Message recvImpl(HostId me, Tag tag, HostId from);
  void checkHosts(HostId from, HostId to, const char* op) const;
  // One attempt at moving a `len`-byte message, in this order: the alive
  // check (HostEvicted), the crash crossing, the modeled cost, then — for a
  // cross-host send with an injector attached — one fault draw, and the
  // volume accounting of whatever the draw left. Without an injector this
  // is the fast path: alive check, cost, accounting. `packed` messages
  // share their packet's frame, so a delivered one accounts no footer.
  Attempt attempt(HostId from, HostId to, Tag tag, size_t len, bool packed);
  // The retry loop over attempt() under retryPolicy_, shared by
  // sendReliable and every packed commit: jittered backoff between
  // attempts, MessageCorrupt when the last attempt is corrupt, and the
  // quorum check before SendRetriesExhausted. Returns the delivered attempt.
  Attempt transmit(HostId from, HostId to, Tag tag, size_t len, bool packed);
  // Queues a delivered bare message and wakes `to`'s receivers.
  void deliver(HostId from, HostId to, Tag tag, support::SendBuffer&& buffer,
               const Attempt& sent);
  // Queues one message under box.mutex: sequence number and dup-filter
  // compaction (injector attached), delay scans, the duplicate copy and
  // the backlog counter.
  void enqueueLocked(Mailbox& box, Message&& msg, uint32_t delayScans,
                     bool duplicate);
  // --- aggregation internals ---
  detail::AggChannel& aggChannel(HostId from, HostId to) {
    return *aggChannels_[static_cast<size_t>(from) * numHosts() + to];
  }
  // Range check plus the aggregation rule: another host, a user tag.
  void checkPackedRoute(HostId from, HostId to, Tag tag, const char* op) const;
  // Seals a commit staged at ch.bytes[start..): runs the draws, appends the
  // meta and fires size/pressure flushes. ch.mutex held; rolls the staged
  // bytes back on any throw.
  void finishPackedCommit(detail::AggChannel& ch, HostId from, HostId to,
                          Tag tag, size_t start);
  // Ships the channel's pending packet (ch.mutex held). No-op when empty.
  void flushChannelLocked(detail::AggChannel& ch, HostId from, HostId to,
                          FlushCause cause);
  void flushChannel(HostId from, HostId to, FlushCause cause);
  // Delivers one sealed packet into `to`'s mailbox: per-packet CRC framing
  // accounting, per-message sequence/duplicate/delay re-seating under the
  // mailbox lock, one condition-variable wake for the whole packet.
  void deliverPacket(HostId from, HostId to, std::vector<uint8_t>&& blob,
                     std::vector<detail::AggChannel::Meta>&& metas,
                     FlushCause cause);
  // Receiver-side age pull (only when agg_.maxAgeSeconds > 0): ships every
  // channel destined to `me` whose oldest committed message exceeds the
  // age bound. Called with no locks held.
  void pullAgedIncoming(HostId me);
  bool agePullActive() const { return agg_.maxAgeSeconds > 0.0; }
  void chargeModeled(HostId from, HostId to, Tag tag, size_t bytes);
  void setPendingGauge();
  // Records that `me` observed a connectivity failure toward `peer` (send
  // retries exhausted, or a stalled wait on that specific peer).
  void noteSuspect(HostId me, HostId peer);
  // Alive hosts reachable from `me` (undirected BFS over links that are
  // reachable in both directions).
  std::vector<HostId> connectivityComponent(HostId me) const;
  // Called when an operation toward `peer` failed in a way that suggests a
  // cut. Records suspicion; if the injector confirms a severed link or an
  // unresolved partition AND `me`'s component is not a strict majority of
  // the alive set, fences `me` and throws MinorityPartition. Returns
  // normally otherwise (the caller surfaces its original error).
  void enforceQuorumOnFailure(HostId me, HostId peer, Tag tag);
  std::optional<Message> scanLocked(Mailbox& box, Tag tag, HostId from);
  void ageDelayedLocked(Mailbox& box);
  void compactChannelsLocked(Mailbox& box);
  [[noreturn]] void throwStalled(HostId me, Tag tag, HostId from,
                                 double waitedSeconds);
  HostId chaseBlame(HostId me, HostId from) const;
  void accountSend(HostId from, HostId to, Tag tag, size_t bytes,
                   size_t framingBytes);

  NetworkCostModel costModel_;
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  std::vector<std::unique_ptr<std::atomic<int64_t>>>
      modeledCommNanos_;  // per sending host
  std::atomic<bool> aborted_{false};

  // Membership: per-host alive flags + the view epoch. Writes (evict) are
  // serialized under membershipMutex_; reads are lock-free atomics on the
  // send/recv fast path.
  std::vector<std::unique_ptr<std::atomic<bool>>> alive_;
  std::atomic<uint64_t> membershipEpoch_{0};
  std::mutex membershipMutex_;

  // Connectivity suspicion: suspected_[me][peer] records that `me` saw an
  // operation toward `peer` die in a cut-shaped way. Feeds the quorum
  // rule's component computation alongside the injector's link oracle.
  mutable std::mutex suspicionMutex_;
  std::vector<std::vector<bool>> suspected_;

  std::shared_ptr<FaultInjector> injector_;
  std::shared_ptr<support::WriteFence> fence_;
  std::atomic<bool> crcFraming_{false};
  RetryPolicy retryPolicy_;
  StragglerPolicy stragglerPolicy_;
  std::shared_ptr<StragglerMonitor> stragglerMonitor_;
  std::atomic<int64_t> recvTimeoutNanos_{0};
  // Stall registry: what each host is currently blocked on, packed as
  // active(1) | from(31) | tag(32) so the stall reporter can read it
  // without taking mailbox locks.
  std::vector<std::unique_ptr<std::atomic<uint64_t>>> blockedOn_;

  // Volume counters: always-on per-Network atomics. statsSnapshot() is a
  // view over them; plain relaxed adds replace the former mutex-guarded
  // struct, taking a global lock off the send path.
  struct AtomicVolume {
    std::atomic<uint64_t> bytes[kTagCount] = {};
    std::atomic<uint64_t> messages[kTagCount] = {};
    std::atomic<uint64_t> collectiveBytes{0};
    std::atomic<uint64_t> collectiveMessages{0};
    std::atomic<uint64_t> framingBytes{0};
    std::atomic<uint64_t> corruptionsDetected{0};
    std::atomic<uint64_t> corruptionsRecovered{0};
  };
  AtomicVolume volume_;

  // Aggregation state: one channel per ordered (source, destination) pair,
  // plus always-on atomic counters behind aggSnapshot().
  AggregationPolicy agg_;
  std::vector<std::unique_ptr<detail::AggChannel>> aggChannels_;
  struct AtomicAgg {
    std::atomic<uint64_t> flushes[kNumFlushCauses] = {};
    std::atomic<uint64_t> packets{0};
    std::atomic<uint64_t> packedMessages{0};
    std::atomic<uint64_t> packedBytes{0};
    std::atomic<uint64_t> oversizedMessages{0};
    std::atomic<uint64_t> overCapPackets{0};
    std::atomic<uint64_t> pendingBytes{0};
  };
  AtomicAgg aggVolume_;

  // Cached mailbox backlog (see mailboxBacklogBytes above).
  std::atomic<uint64_t> backlogBytes_{0};

  // Registry cells resolved once at construction when a process-wide obs
  // sink was attached (see obs/obs.h); all null otherwise, so the per-send
  // cost without a sink is one pointer check. The shared_ptr keeps the
  // cells alive even if the sink is detached while this Network lives.
  struct ObsHandles {
    std::shared_ptr<obs::MetricsRegistry> registry;
    obs::Counter* bytes[kTagCount] = {};
    obs::Counter* messages[kTagCount] = {};
    obs::Counter* collectiveBytes = nullptr;
    obs::Counter* collectiveMessages = nullptr;
    obs::Counter* framingBytes = nullptr;
    obs::Counter* corruptionsDetected = nullptr;
    obs::Counter* corruptionsRecovered = nullptr;
    obs::Counter* sendRetries = nullptr;
    obs::Counter* aggFlushes[kNumFlushCauses] = {};
    obs::Counter* aggPackets = nullptr;
    obs::Counter* aggPackedMessages = nullptr;
    obs::Counter* aggPackedBytes = nullptr;
    obs::Counter* aggOversized = nullptr;
    obs::Counter* aggOverCap = nullptr;
    obs::Gauge* aggPendingBytes = nullptr;
    obs::Histogram* aggOccupancy = nullptr;  // messages per packet
  };
  ObsHandles obs_;
};

// Zero-copy buffered send handle. Serialization writes DIRECTLY into the
// (from, to) aggregation channel — the channel mutex is held for the
// writer's lifetime, so keep writers short-lived: serialize, commit,
// destroy. commit() seals the staged bytes as one logical message, running
// the reliable-send retry loop (and throwing exactly what sendReliable
// would); a writer destroyed without commit() abandons its staged bytes.
// At most one live writer per (host, destination) per thread; a second one
// would self-deadlock on the channel mutex.
class PackedWriter {
 public:
  PackedWriter(PackedWriter&&) = delete;  // constructed in place (RVO)
  PackedWriter(const PackedWriter&) = delete;
  PackedWriter& operator=(const PackedWriter&) = delete;
  ~PackedWriter() {
    if (channel_ != nullptr) {
      channel_->bytes.resize(start_);  // abandon staged bytes
    }
  }

  void appendBytes(const void* src, size_t len) {
    if (len == 0) {
      return;
    }
    const auto* bytes = static_cast<const uint8_t*>(src);
    channel_->bytes.insert(channel_->bytes.end(), bytes, bytes + len);
  }

  // Bytes staged by THIS writer so far (0 once committed).
  size_t size() const {
    return channel_ != nullptr ? channel_->bytes.size() - start_ : 0;
  }

  void commit() {
    // Detach first: a throwing commit has already rolled its bytes back.
    detail::AggChannel& channel = *std::exchange(channel_, nullptr);
    net_->finishPackedCommit(channel, from_, to_, tag_, start_);
    lock_.unlock();
  }

 private:
  friend class Network;
  PackedWriter(Network& net, HostId from, HostId to, Tag tag,
               detail::AggChannel& channel)
      : net_(&net), from_(from), to_(to), tag_(tag), channel_(&channel),
        lock_(channel.mutex), start_(channel.bytes.size()) {}

  Network* net_;
  HostId from_;
  HostId to_;
  Tag tag_;
  detail::AggChannel* channel_;  // null once committed
  std::unique_lock<std::mutex> lock_;
  size_t start_;
};

inline PackedWriter Network::packedWriter(HostId from, HostId to, Tag tag) {
  checkPackedRoute(from, to, tag, "Network::packedWriter");
  return PackedWriter(*this, from, to, tag, aggChannel(from, to));
}

// Accumulates serialized records per destination and ships each
// destination's buffer as one message once it exceeds `threshold` bytes
// (paper Section IV-D3; threshold 0 sends every record immediately, the
// "0 MB" point of Fig. 7). flushAll() must be called to drain remainders;
// it also drains this host's aggregation channels, so everything shipped
// is visible to receivers when it returns. Flushes go through sendPacked,
// so injected drops are retried; records go to other hosts only.
//
// Memory-governed: when a process-wide MemoryBudget is attached at
// construction time, the sender charges its pending aggregation bytes
// against it (overdraft — aggregation never fails outright, it just
// flushes) and flushes a destination EARLY whenever the budget reports
// pressure, trading batching efficiency for bounded buffering.
class BufferedSender {
 public:
  BufferedSender(Network& net, HostId me, Tag tag, size_t threshold);
  ~BufferedSender();
  BufferedSender(const BufferedSender&) = delete;
  BufferedSender& operator=(const BufferedSender&) = delete;

  // Serializes `values...` into dst's pending buffer; flushes if full, or
  // as soon as the attached memory budget is under pressure.
  template <typename... Ts>
  void append(HostId dst, const Ts&... values) {
    auto& buffer = pending_[dst];
    const size_t before = buffer.size();
    support::serializeAll(buffer, values...);
    chargePending(buffer.size() - before);
    if (buffer.size() >= threshold_ || threshold_ == 0 || underPressure()) {
      flush(dst);
    }
  }

  void flush(HostId dst);
  void flushAll();

  // Flushes forced by budget pressure before the threshold was reached
  // (0 without an attached budget). Lets tests distinguish early flushes
  // from ordinary threshold flushes.
  uint64_t pressureFlushes() const { return pressureFlushes_; }

 private:
  void chargePending(size_t bytes);
  void releasePending(size_t bytes);
  bool underPressure();  // counts a pressure flush when true

  Network& net_;
  HostId me_;
  Tag tag_;
  size_t threshold_;
  std::vector<support::SendBuffer> pending_;
  std::shared_ptr<support::MemoryBudget> budget_;  // captured at construction
  uint64_t chargedBytes_ = 0;
  uint64_t pressureFlushes_ = 0;
};

// Spawns one thread per ALIVE host running hostMain(hostId) — evicted
// hosts get no thread — joins them all, and rethrows the first exception
// (after aborting the network so blocked siblings unwind).
void runHosts(Network& net, const std::function<void(HostId)>& hostMain);

// ---- template implementations ----

template <typename T>
void Network::allReduce(
    HostId me, std::vector<T>& values,
    const std::function<void(std::vector<T>&, const std::vector<T>&)>&
        combine) {
  static_assert(std::is_trivially_copyable_v<T>);
  // Membership-aware: root at the lowest alive host and fold alive
  // contributions in host id order. Full membership gives root 0 and the
  // historical message pattern, byte for byte.
  const HostId root = collectiveRoot();
  if (numAliveHosts() <= 1) {
    faultPoint(me);
    return;
  }
  if (me == root) {
    for (HostId src = 0; src < numHosts(); ++src) {
      if (src == root || !isAlive(src)) {
        continue;
      }
      Message msg = recvFrom(root, src, kTagCollectiveUp);
      std::vector<T> contribution;
      support::deserialize(msg.payload, contribution);
      if (contribution.size() != values.size()) {
        throw std::logic_error("allReduce: mismatched vector lengths");
      }
      combine(values, contribution);
    }
    for (HostId dst = 0; dst < numHosts(); ++dst) {
      if (dst == root || !isAlive(dst)) {
        continue;
      }
      support::SendBuffer out;
      support::serialize(out, values);
      sendReliable(root, dst, kTagCollectiveDown, std::move(out));
    }
  } else {
    support::SendBuffer out;
    support::serialize(out, values);
    sendReliable(me, root, kTagCollectiveUp, std::move(out));
    Message msg = recvFrom(me, root, kTagCollectiveDown);
    support::deserialize(msg.payload, values);
  }
}

template <typename T>
void Network::allReduceSum(HostId me, std::vector<T>& values) {
  allReduce<T>(me, values,
               [](std::vector<T>& acc, const std::vector<T>& in) {
                 for (size_t i = 0; i < acc.size(); ++i) {
                   acc[i] += in[i];
                 }
               });
}

template <typename T>
T Network::allReduceSum(HostId me, T value) {
  std::vector<T> one{value};
  allReduceSum(me, one);
  return one[0];
}

template <typename T>
T Network::allReduceMax(HostId me, T value) {
  std::vector<T> one{value};
  allReduce<T>(me, one, [](std::vector<T>& acc, const std::vector<T>& in) {
    if (in[0] > acc[0]) {
      acc[0] = in[0];
    }
  });
  return one[0];
}

template <typename T>
T Network::allReduceMin(HostId me, T value) {
  std::vector<T> one{value};
  allReduce<T>(me, one, [](std::vector<T>& acc, const std::vector<T>& in) {
    if (in[0] < acc[0]) {
      acc[0] = in[0];
    }
  });
  return one[0];
}

inline bool Network::allReduceOr(HostId me, bool value) {
  return allReduceSum<uint32_t>(me, value ? 1u : 0u) != 0;
}

}  // namespace cusp::comm
