// Golden-outcome and property tests of the buffered (aggregated) send path.
//
// The aggregation layer (comm/network.h "send aggregation") must be
// invisible to everything above it: a resilient partition run under any
// seeded fault schedule has to produce bit-identical partitions, the same
// recovery report, and the same framing-excluded traffic volume as when
// every commit shipped eagerly as its own message. The seeded suite below
// checks that against fingerprints recorded from the per-message path
// across a sweep of fault plans — drops, duplicates, delays, corrupted
// frames, link faults, slowdowns, healing partitions, transient crashes.
// A unit oracle pins what bare and packed delivery still do apart, and
// the property tests pin the flush policy itself: packet-boundary
// behavior, the age bound for idle senders, pressure flushes ahead of a
// memory budget overdraft, zero residual after an explicit flushAll, and
// the cached mailbox-backlog counter staying exact through duplicate
// suppression and eviction purges.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <typeinfo>
#include <vector>

#include <unistd.h>

#include "comm/fault.h"
#include "comm/network.h"
#include "core/checkpoint.h"
#include "core/dist_graph.h"
#include "core/partitioner.h"
#include "core/policies.h"
#include "graph/generators.h"
#include "graph/graph_file.h"
#include "obs/obs.h"
#include "support/memory.h"
#include "support/random.h"

namespace cusp {
namespace {

using comm::AggregationPolicy;
using comm::FaultAction;
using comm::FaultPlan;
using comm::FlushCause;
using comm::Network;
using support::SendBuffer;

// RAII temp directory for checkpoint files.
class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/cusp_commbuf_XXXXXX";
    const char* made = ::mkdtemp(tmpl);
    if (made == nullptr) {
      throw std::runtime_error("mkdtemp failed");
    }
    path_ = made;
  }
  ~TempDir() {
    for (uint32_t h = 0; h < 16; ++h) {
      core::removeCheckpoints(path_, h, 5);
    }
    ::rmdir(path_.c_str());
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::vector<uint8_t> serializedBytes(const core::DistGraph& part) {
  SendBuffer buf;
  core::serializeDistGraph(buf, part);
  return buf.release();
}

// --- seeded fault plans against recorded outcomes ---

constexpr uint32_t kDiffHosts = 4;

// One seeded fault schedule mixing every fault family the injector knows.
// The mix is keyed off the seed so the 18 instantiated plans cover drops,
// duplicates, delays, corrupted frames, asymmetric link faults, straggler
// pacing, a healing network partition, and a transient crash recovered
// without losing determinism.
//
// Every message fault names a SPECIFIC (src, dst, tag) shape: its
// occurrence counter then only advances in that one sender thread's
// program order, which the buffered path preserves commit for send. A
// kAnyHost/kAnyTag wildcard would instead count sends of EVERY host on a
// shared counter, making the targeted message a thread-interleaving race —
// two runs of the same plan would disagree on which message gets hit (and
// a corrupted attempt accounts an extra framed transmission, so even the
// volume totals wobble). A recorded outcome needs the plan itself to be
// deterministic.
std::shared_ptr<FaultPlan> makeFaultPlan(uint64_t seed) {
  auto plan = std::make_shared<FaultPlan>();
  support::Rng rng(seed * 0x9E3779B97F4A7C15ull + 0xC0FFEEull);

  // Protocol tags that actually cross hosts, with a safe occurrence bound
  // (how deep a per-pair channel reliably gets before the fault must have
  // had a chance to fire).
  struct TagChoice {
    comm::Tag tag;
    uint64_t maxOccurrence;
  };
  static constexpr TagChoice kTargets[] = {
      {comm::kTagMasterRequest, 1}, {comm::kTagMasterAssign, 1},
      {comm::kTagMasterList, 0},    {comm::kTagEdgeCounts, 0},
      {comm::kTagMirrorFlags, 0},   {comm::kTagMirrorToMaster, 0},
      {comm::kTagEdgeBatch, 2},     {comm::kTagStateReduce, 3},
  };

  const uint64_t noise = 4 + seed % 4;
  for (uint64_t i = 0; i < noise; ++i) {
    comm::MessageFault fault;
    fault.src = static_cast<comm::HostId>(rng.nextBounded(kDiffHosts));
    fault.dst = static_cast<comm::HostId>(
        (fault.src + 1 + rng.nextBounded(kDiffHosts - 1)) % kDiffHosts);
    const TagChoice& target = kTargets[rng.nextBounded(std::size(kTargets))];
    fault.tag = target.tag;
    fault.occurrence = rng.nextBounded(target.maxOccurrence + 1);
    fault.repeat = 1 + static_cast<uint32_t>(rng.nextBounded(2));
    switch (rng.nextBounded(4)) {
      case 0:
        fault.action = FaultAction::kDrop;
        break;
      case 1:
        fault.action = FaultAction::kDuplicate;
        break;
      case 2:
        fault.action = FaultAction::kCorrupt;
        break;
      default:
        fault.action = FaultAction::kDelay;
        fault.delayScans = 1 + static_cast<uint32_t>(rng.nextBounded(3));
        break;
    }
    plan->messageFaults.push_back(fault);
  }

  switch (seed % 4) {
    case 1: {
      comm::LinkFault link;
      link.src = static_cast<comm::HostId>(rng.nextBounded(kDiffHosts));
      link.dst = static_cast<comm::HostId>(
          (link.src + 1 + rng.nextBounded(kDiffHosts - 1)) % kDiffHosts);
      link.dropRate = 0.2;
      link.degradeFactor = 1.5;
      plan->linkFaults.push_back(link);
      break;
    }
    case 2: {
      comm::HostSlowdown slow;
      slow.host = static_cast<comm::HostId>(rng.nextBounded(kDiffHosts));
      slow.factor = 1.5;
      slow.opMicros = 20;
      plan->slowdowns.push_back(slow);
      break;
    }
    case 3: {
      comm::PartitionEvent split;
      split.groupOf.assign(kDiffHosts, 0);
      split.groupOf[rng.nextBounded(kDiffHosts)] = 1;  // 1-vs-3, minority loses
      split.phase = 2 + static_cast<uint32_t>(rng.nextBounded(3));
      split.heals = true;
      plan->partitions.push_back(split);
      break;
    }
    default:
      break;
  }

  if (seed % 5 == 0) {
    comm::HostCrash crash;
    crash.host = 1 + static_cast<comm::HostId>(rng.nextBounded(kDiffHosts - 1));
    crash.phase = 1 + static_cast<uint32_t>(rng.nextBounded(5));
    crash.opsIntoPhase = rng.nextBounded(3);
    crash.permanent = false;
    plan->crashes.push_back(crash);
  }
  return plan;
}

// Everything a run exposes that the aggregation layer must not change:
// the partitions bit for bit, the recovery report, and the per-tag payload
// volume (framing bytes deliberately excluded — packed frames carry one
// CRC footer per packet instead of one per message, so framing is the one
// number ALLOWED to differ).
struct RunOutcome {
  bool threw = false;
  std::string exceptionType;
  std::vector<std::vector<uint8_t>> partitionBytes;
  uint32_t attempts = 0;
  std::vector<std::string> failureKinds;
  uint32_t resumedFromPhase = 0;
  size_t evictions = 0;
  uint32_t finalNumHosts = 0;
  std::vector<uint64_t> tagBytes;
  std::vector<uint64_t> tagMessages;
  uint64_t collectiveBytes = 0;
  uint64_t collectiveMessages = 0;
};

RunOutcome runSeeded(uint64_t seed,
                     std::optional<AggregationPolicy> agg = std::nullopt) {
  TempDir dir;

  const auto graph = graph::generateErdosRenyi(220, 900, 17 * seed + 3);
  const auto file = graph::GraphFile::fromCsr(graph);
  static const char* kPolicies[] = {"CVC", "HVC", "EEC"};
  const auto policy = core::makePolicy(kPolicies[seed % 3]);

  core::PartitionerConfig config;
  config.numHosts = kDiffHosts;
  config.stateSyncRounds = 5;
  config.resilience.faultPlan = makeFaultPlan(seed);
  config.resilience.checkpointDir = dir.path();
  config.resilience.enableCheckpoints = (seed % 2 == 0);
  config.resilience.recvTimeoutSeconds = 20.0;
  config.resilience.maxRecoveryAttempts = 6;
  config.resilience.degradedMode = true;
  config.aggregation = agg;

  RunOutcome out;
  core::RecoveryReport report;
  try {
    const auto result =
        core::partitionGraphResilient(file, policy, config, &report);
    out.partitionBytes.reserve(result.partitions.size());
    for (const auto& part : result.partitions) {
      out.partitionBytes.push_back(serializedBytes(part));
    }
    out.tagBytes.assign(std::begin(result.volume.bytes),
                        std::end(result.volume.bytes));
    out.tagMessages.assign(std::begin(result.volume.messages),
                           std::end(result.volume.messages));
    out.collectiveBytes = result.volume.collectiveBytes;
    out.collectiveMessages = result.volume.collectiveMessages;
  } catch (const std::exception& e) {
    out.threw = true;
    out.exceptionType = typeid(e).name();
  }
  out.attempts = report.attempts;
  out.failureKinds = report.failureKinds;
  out.resumedFromPhase = report.resumedFromPhase;
  out.evictions = report.evictions.size();
  out.finalNumHosts = report.finalNumHosts;
  return out;
}

// Which side of a severed link fails first — the sender burning its retry
// budget (SendRetriesExhausted) or the fenced minority detecting the cut
// (MinorityPartition, via the same enforceQuorumOnFailure) — is a
// wall-clock race between host threads that the per-message path had
// already; buffering legitimately shifts it by moving the minority host's
// transmissions to its flush points. Both classify the same link-level
// event, so the fingerprint collapses them into one equivalence class;
// the failure COUNT and every other kind must still match exactly.
std::vector<std::string> normalizedKinds(std::vector<std::string> kinds) {
  for (auto& kind : kinds) {
    if (kind == "MinorityPartition") {
      kind = "SendRetriesExhausted";
    }
  }
  return kinds;
}

// FNV-1a over every field of a RunOutcome, failure kinds normalized.
struct Fnv1a {
  uint64_t hash = 0xcbf29ce484222325ull;
  void bytes(const void* data, size_t len) {
    const auto* p = static_cast<const uint8_t*>(data);
    for (size_t i = 0; i < len; ++i) {
      hash = (hash ^ p[i]) * 0x100000001b3ull;
    }
  }
  void u64(uint64_t value) { bytes(&value, sizeof(value)); }
  void str(const std::string& s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  void words(const std::vector<uint64_t>& values) {
    u64(values.size());
    for (const uint64_t v : values) {
      u64(v);
    }
  }
};

uint64_t outcomeFingerprint(const RunOutcome& out) {
  Fnv1a fnv;
  fnv.u64(out.threw ? 1 : 0);
  fnv.str(out.exceptionType);
  fnv.u64(out.attempts);
  const std::vector<std::string> kinds = normalizedKinds(out.failureKinds);
  fnv.u64(kinds.size());
  for (const std::string& kind : kinds) {
    fnv.str(kind);
  }
  fnv.u64(out.resumedFromPhase);
  fnv.u64(out.evictions);
  fnv.u64(out.finalNumHosts);
  fnv.u64(out.partitionBytes.size());
  for (const auto& bytes : out.partitionBytes) {
    fnv.u64(bytes.size());
    fnv.bytes(bytes.data(), bytes.size());
  }
  fnv.words(out.tagBytes);
  fnv.words(out.tagMessages);
  fnv.u64(out.collectiveBytes);
  fnv.u64(out.collectiveMessages);
  return fnv.hash;
}

// outcomeFingerprint of seeds 1..18, recorded while the per-message
// (aggregation-off) path still existed, from runs where it and the
// buffered path agreed on every field; 100 repeated runs of both gave the
// same values.
constexpr uint64_t kGoldenOutcomes[18] = {
    0x23d44d0e972570e1ull, 0xdce0b8e9121920d9ull, 0x421431847e4baedfull,
    0x50d424f8af6aea1dull, 0xd14c9abed95ae5ceull, 0xaf8682e7b808ec7full,
    0xa1d564caeb052c01ull, 0x385561afa25fedcbull, 0xdc02f8a3e7204950ull,
    0x7db59d8cf946c39cull, 0xf4b956891e8d0164ull, 0x4cfd113c2dd2ccceull,
    0x85b8a17d62f9e2d0ull, 0xa90b1adb460ffc60ull, 0xcb7a88f1e03868eeull,
    0xafc5ccc6661fc2f3ull, 0xe583fa7c9bcdff04ull, 0xc675f63014744b73ull,
};

class BufferedDifferential : public ::testing::TestWithParam<uint64_t> {};

// The constants are the per-message path's outcomes, so the name still
// says what this checks.
TEST_P(BufferedDifferential, MatchesLegacyUnderSeededFaults) {
  const uint64_t seed = GetParam();
  EXPECT_EQ(outcomeFingerprint(runSeeded(seed)), kGoldenOutcomes[seed - 1]);
}

// Odd packet caps exercise straddle-prefix flushes at unusual boundaries;
// the outcome still may not move.
TEST_P(BufferedDifferential, PacketCapDoesNotChangeOutcome) {
  const uint64_t seed = GetParam();
  if (seed % 3 != 0) {
    GTEST_SKIP() << "cap sweep runs on a third of the seeds";
  }
  for (const size_t cap : {size_t{96}, size_t{1} << 20}) {
    EXPECT_EQ(outcomeFingerprint(
                  runSeeded(seed, AggregationPolicy{.packetBytes = cap})),
              kGoldenOutcomes[seed - 1])
        << "packetBytes=" << cap;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BufferedDifferential,
                         ::testing::Range<uint64_t>(1, 19));

// --- flush-policy property tests ---

// Replays the documented flush policy for a sequence of sendPacked message
// lengths and predicts the exact packet count: a message at or over the cap
// ships alone (after flushing whatever is pending), a message that would
// straddle the cap seals the pending prefix first, and reaching the cap
// seals immediately.
struct FlushModel {
  size_t cap;
  size_t pending = 0;
  uint64_t packets = 0;
  uint64_t oversized = 0;

  void commit(size_t len) {
    if (len >= cap) {
      if (pending > 0) {
        ++packets;
        pending = 0;
      }
      ++packets;
      if (len > cap) {
        ++oversized;
      }
      return;
    }
    if (pending > 0 && pending + len > cap) {
      ++packets;
      pending = 0;
    }
    pending += len;
    if (pending >= cap) {
      ++packets;
      pending = 0;
    }
  }
  void flush() {
    if (pending > 0) {
      ++packets;
      pending = 0;
    }
  }
};

TEST(FlushPolicy, NoStraddleAndOverCapPacketsAreExactlyOversizedMessages) {
  constexpr size_t kCap = 256;
  Network net(2);
  net.setAggregation({.packetBytes = kCap});

  support::Rng rng(991);
  FlushModel model{kCap};
  std::vector<std::vector<uint8_t>> sent;
  for (uint64_t i = 0; i < 300; ++i) {
    // Sizes sweep well below, around, exactly at, and above the cap.
    const size_t body = 1 + rng.nextBounded(2 * kCap);
    std::vector<uint8_t> payload(body);
    for (size_t j = 0; j < body; ++j) {
      payload[j] = static_cast<uint8_t>((i * 31 + j) & 0xFF);
    }
    SendBuffer buf;
    support::serializeAll(buf, i, payload);
    model.commit(buf.size());
    sent.push_back(std::move(payload));
    SendBuffer wire;
    support::serializeAll(wire, i, sent.back());
    net.sendPacked(0, 1, comm::kTagGeneric, std::move(wire));
  }
  net.flushAggregated(0);
  model.flush();

  const auto snap = net.aggSnapshot();
  EXPECT_EQ(snap.pendingBytes, 0u);
  EXPECT_EQ(snap.packedMessages, 300u);
  EXPECT_EQ(snap.packets, model.packets);
  EXPECT_EQ(snap.oversizedMessages, model.oversized);
  // A packet exceeds the cap if and only if it carries a single message
  // that itself exceeds the cap — i.e. nothing ever straddles a boundary
  // and small messages are never co-packed past the cap.
  EXPECT_EQ(snap.overCapPackets, snap.oversizedMessages);

  // Reassembly: the packed frames must come apart into the original
  // messages, in order, byte for byte.
  for (uint64_t i = 0; i < 300; ++i) {
    auto msg = net.tryRecv(1, comm::kTagGeneric);
    ASSERT_TRUE(msg.has_value()) << "message " << i << " missing";
    uint64_t index = 0;
    std::vector<uint8_t> payload;
    support::deserializeAll(msg->payload, index, payload);
    EXPECT_EQ(index, i);
    EXPECT_EQ(payload, sent[i]);
  }
  EXPECT_FALSE(net.tryRecv(1, comm::kTagGeneric).has_value());
}

TEST(FlushPolicy, AgeFlushBoundsIdleSenderLatency) {
  Network net(2);
  net.setAggregation(
      {.packetBytes = 1 << 16, .maxAgeSeconds = 0.05});

  const auto start = std::chrono::steady_clock::now();
  comm::runHosts(net, [&](comm::HostId me) {
    if (me == 0) {
      // Commit one message far below the cap, then go idle in a blocking
      // receive: nothing on the sender side will ever flush it.
      auto writer = net.packedWriter(0, 1, comm::kTagGeneric);
      support::serialize(writer, uint64_t{42});
      writer.commit();
      auto ack = net.recvFrom(0, 1, comm::kTagGeneric);
      uint64_t value = 0;
      support::deserialize(ack.payload, value);
      EXPECT_EQ(value, 43u);
    } else {
      // The blocked receiver's age pull is the only delivery path.
      auto msg = net.recvFrom(1, 0, comm::kTagGeneric);
      uint64_t value = 0;
      support::deserialize(msg.payload, value);
      EXPECT_EQ(value, 42u);
      SendBuffer ack;
      support::serialize(ack, uint64_t{43});
      net.send(1, 0, comm::kTagGeneric, std::move(ack));
    }
  });
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  const auto snap = net.aggSnapshot();
  EXPECT_GE(snap.flushes[static_cast<size_t>(FlushCause::kAge)], 1u);
  EXPECT_EQ(snap.pendingBytes, 0u);
  // The age bound is 50ms; anything near the 5s mark would mean the pull
  // never fired and a timeout bailed us out instead.
  EXPECT_LT(elapsed, 5.0);
}

TEST(FlushPolicy, PressureFlushFiresBeforeBudgetOverdraft) {
  // Budget pre-loaded past the 87.5% pressure threshold: every commit must
  // ship immediately instead of parking bytes the budget cannot cover.
  support::ScopedMemoryBudget scoped(1 << 14);
  scoped.budget()->reserveOverdraft(15000);

  Network net(2);
  net.setAggregation({.packetBytes = 1 << 16});
  for (uint64_t i = 0; i < 8; ++i) {
    auto writer = net.packedWriter(0, 1, comm::kTagGeneric);
    support::serialize(writer, i);
    writer.commit();
    // Nothing may linger while the budget is under pressure.
    EXPECT_EQ(net.aggSnapshot().pendingBytes, 0u);
  }
  const auto snap = net.aggSnapshot();
  EXPECT_GE(snap.flushes[static_cast<size_t>(FlushCause::kPressure)], 8u);
  EXPECT_EQ(snap.packedMessages, 8u);

  scoped.budget()->release(15000);
}

TEST(FlushPolicy, FlushAllLeavesZeroResidual) {
  obs::ScopedObservability obs;  // attach BEFORE the Network resolves cells
  Network net(3);
  net.setAggregation({.packetBytes = 1 << 16});

  comm::BufferedSender sender(net, 0, comm::kTagEdgeBatch, 1 << 20);
  for (uint64_t i = 0; i < 50; ++i) {
    sender.append(1, i);
    sender.append(2, i * 3);
  }
  sender.flushAll();

  const auto snap = net.aggSnapshot();
  EXPECT_EQ(snap.pendingBytes, 0u);
  EXPECT_GE(snap.flushes[static_cast<size_t>(FlushCause::kBarrier)], 1u);
  EXPECT_EQ(snap.packedMessages, 2u);  // one packed frame per destination

  // The mirrored gauge must agree with the internal counter.
  const auto metrics = obs.metrics().snapshot();
  bool sawGauge = false;
  for (const auto& gauge : metrics.gauges) {
    if (gauge.name == "cusp.net.agg.pending_bytes") {
      sawGauge = true;
      EXPECT_EQ(gauge.value, 0.0);
    }
  }
  EXPECT_TRUE(sawGauge);
  EXPECT_GE(metrics.counterValue("cusp.net.agg.packets"), 2u);
}

// Aggregation is the only packed mode: a self-send or a reserved tag has no
// channel to ride, so both packed entry points refuse it instead of
// quietly taking the bare path.
TEST(FlushPolicy, PackedEntryPointsRefuseSelfSendsAndReservedTags) {
  Network net(2);
  EXPECT_THROW(net.packedWriter(0, 0, comm::kTagGeneric),
               std::invalid_argument);
  EXPECT_THROW(net.packedWriter(0, 1, comm::kTagBarrierUp),
               std::invalid_argument);
  EXPECT_THROW(net.sendPacked(1, 1, comm::kTagEdgeBatch, SendBuffer()),
               std::invalid_argument);
  EXPECT_THROW(net.sendPacked(1, 0, comm::kTagCollectiveUp, SendBuffer()),
               std::invalid_argument);
  EXPECT_THROW(net.packedWriter(0, 2, comm::kTagGeneric), std::out_of_range);
  EXPECT_EQ(net.aggSnapshot().packedMessages, 0u);
  EXPECT_EQ(net.mailboxBacklogBytesExact(), 0u);
}

// --- bare and packed delivery under one fault plan ---

// Drains `me`'s kTagGeneric messages; tryRecv ages delayed ones, so a few
// empty polls in a row mean the mailbox is really empty.
std::vector<std::vector<uint8_t>> drainGeneric(Network& net, comm::HostId me) {
  std::vector<std::vector<uint8_t>> got;
  for (int idle = 0; idle < 8;) {
    if (auto msg = net.tryRecv(me, comm::kTagGeneric)) {
      std::vector<uint8_t> bytes(msg->payload.size());
      msg->payload.readBytes(bytes.data(), bytes.size());
      got.push_back(std::move(bytes));
      idle = 0;
    } else {
      ++idle;
    }
  }
  return got;
}

std::vector<uint64_t> faultCounters(const comm::FaultInjector& injector) {
  const comm::FaultStats s = injector.stats();
  return {s.dropped,      s.duplicated,     s.duplicatesSuppressed,
          s.delayed,      s.corrupted,      s.retries,
          s.crashesFired, s.slowdownOps,    s.slowdownMicros,
          s.linkDropped,  s.partitionDropped};
}

// The same messages sent bare (sendReliable) and packed (packedWriter +
// flushAggregated) under one fault plan: a drop, a duplicate, a delay and
// a corruption on fixed occurrences of one channel. Both shapes draw the
// same faults and charge the same cost; they differ only in where a
// delivered draw takes effect (at enqueue, or at packet unpack) and in
// framing (a footer per message, or one per packet plus headers).
TEST(DeliveryShapes, BareAndPackedAgreeUnderOneFaultPlan) {
  FaultPlan plan;
  const auto fault = [&](uint64_t occurrence, FaultAction action) {
    plan.messageFaults.push_back({.src = 0,
                                  .dst = 1,
                                  .tag = comm::kTagGeneric,
                                  .occurrence = occurrence,
                                  .repeat = 1,
                                  .action = action,
                                  .delayScans = 3});
  };
  fault(2, FaultAction::kDrop);
  fault(5, FaultAction::kDuplicate);
  fault(7, FaultAction::kDelay);
  fault(10, FaultAction::kCorrupt);
  const comm::NetworkCostModel cost{.sendOverheadMicros = 3.0,
                                    .bandwidthMBps = 50.0};
  Network bare(2, cost);
  Network packed(2, cost);
  const auto bareInjector = std::make_shared<comm::FaultInjector>(plan);
  const auto packedInjector = std::make_shared<comm::FaultInjector>(plan);
  bare.setFaultInjector(bareInjector);
  packed.setFaultInjector(packedInjector);

  constexpr uint64_t kMessages = 16;
  std::vector<std::vector<uint8_t>> sent;
  for (uint64_t i = 0; i < kMessages; ++i) {
    const std::vector<uint8_t> body(3 * i, static_cast<uint8_t>(i));
    SendBuffer buf;
    support::serializeAll(buf, i, body);
    sent.emplace_back(buf.data(), buf.data() + buf.size());
    bare.sendReliable(0, 1, comm::kTagGeneric, std::move(buf));
    auto writer = packed.packedWriter(0, 1, comm::kTagGeneric);
    support::serializeAll(writer, i, body);
    writer.commit();
  }
  packed.flushAggregated(0);

  EXPECT_EQ(drainGeneric(bare, 1), sent);
  EXPECT_EQ(drainGeneric(packed, 1), sent);

  const comm::VolumeStats b = bare.statsSnapshot();
  const comm::VolumeStats p = packed.statsSnapshot();
  EXPECT_TRUE(std::equal(std::begin(b.bytes), std::end(b.bytes),
                         std::begin(p.bytes)));
  EXPECT_TRUE(std::equal(std::begin(b.messages), std::end(b.messages),
                         std::begin(p.messages)));
  EXPECT_EQ(b.collectiveBytes, p.collectiveBytes);
  EXPECT_EQ(b.collectiveMessages, p.collectiveMessages);
  EXPECT_EQ(b.corruptionsDetected, p.corruptionsDetected);
  EXPECT_EQ(b.corruptionsRecovered, p.corruptionsRecovered);
  EXPECT_EQ(b.corruptionsRecovered, 1u);
  EXPECT_EQ(faultCounters(*bareInjector), faultCounters(*packedInjector));
  const comm::FaultStats fired = bareInjector->stats();
  EXPECT_EQ(fired.dropped, 1u);
  EXPECT_EQ(fired.duplicatesSuppressed, 1u);
  EXPECT_EQ(fired.delayed, 1u);
  EXPECT_EQ(fired.corrupted, 1u);
  EXPECT_EQ(fired.retries, 2u);
  EXPECT_EQ(bare.modeledCommSeconds(0), packed.modeledCommSeconds(0));
}

// --- cached mailbox backlog stays exact ---

TEST(BacklogCache, ExactAcrossDuplicateDropAndEvictionPurge) {
  auto plan = std::make_shared<FaultPlan>();
  // First generic-tag message out of host 0 is duplicated in flight; the
  // receiver's dedup scan drops the copy.
  plan->messageFaults.push_back({.src = 0,
                                 .dst = 1,
                                 .tag = comm::kTagGeneric,
                                 .occurrence = 0,
                                 .repeat = 1,
                                 .action = FaultAction::kDuplicate});
  Network net(3);
  net.setFaultInjector(std::make_shared<comm::FaultInjector>(*plan));
  net.setAggregation({.packetBytes = 1 << 16});

  // Stage 1: bare sends, including the duplicated one — the cached counter
  // must account both copies while they sit in the mailbox.
  for (uint64_t i = 0; i < 6; ++i) {
    SendBuffer buf;
    support::serialize(buf, i);
    net.send(0, 1, comm::kTagGeneric, std::move(buf));
  }
  EXPECT_EQ(net.mailboxBacklogBytes(), net.mailboxBacklogBytesExact());
  EXPECT_GT(net.mailboxBacklogBytes(), 0u);

  // Stage 2: a packed frame unpacks into per-message mailbox entries.
  for (uint64_t i = 0; i < 4; ++i) {
    auto writer = net.packedWriter(0, 2, comm::kTagGeneric);
    support::serialize(writer, i);
    writer.commit();
  }
  net.flushAggregated(0);
  EXPECT_EQ(net.mailboxBacklogBytes(), net.mailboxBacklogBytesExact());

  // Stage 3: draining host 1 walks the dedup scan over the duplicated
  // entry (suppressed copy decremented without delivery).
  uint64_t received = 0;
  while (auto msg = net.tryRecv(1, comm::kTagGeneric)) {
    uint64_t value = 0;
    support::deserialize(msg->payload, value);
    EXPECT_EQ(value, received++);
  }
  EXPECT_EQ(received, 6u);
  EXPECT_EQ(net.mailboxBacklogBytes(), net.mailboxBacklogBytesExact());

  // Stage 4: stage unflushed commits toward host 2, then evict it — both
  // its mailbox backlog and the pending aggregation bytes must be purged.
  for (uint64_t i = 0; i < 4; ++i) {
    auto writer = net.packedWriter(0, 2, comm::kTagGeneric);
    support::serialize(writer, 100 + i);
    writer.commit();
  }
  EXPECT_GT(net.aggSnapshot().pendingBytes, 0u);
  net.evict(2);
  EXPECT_EQ(net.aggSnapshot().pendingBytes, 0u);
  EXPECT_EQ(net.mailboxBacklogBytes(), net.mailboxBacklogBytesExact());
  EXPECT_EQ(net.mailboxBacklogBytesExact(), 0u);
}

}  // namespace
}  // namespace cusp
