#include "core/partitioner.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <optional>
#include <stdexcept>
#include <thread>

#include "core/checkpoint.h"
#include "core/degraded.h"
#include "core/recovery.h"
#include "obs/obs.h"
#include "support/bitset.h"
#include "support/logging.h"
#include "support/storage.h"
#include "support/prefix_sum.h"
#include "support/threading.h"
#include "support/varint.h"

namespace cusp::core {

namespace {

using comm::HostId;
using graph::ReadRange;
using support::DynamicBitset;
using support::RecvBuffer;
using support::SendBuffer;

// Local-id table entry of a node without a proxy on this host.
constexpr uint32_t kNoLocal = UINT32_MAX;

using MasterPairs = std::vector<std::pair<uint64_t, uint32_t>>;

// One host's partitioning job; phase methods run in order and share state
// through the members. All inter-host data moves through `net`; checkpoints
// commit through the run's `recovery` context, and `resumeVote` (optional)
// receives this host's vote in the resume agreement.
class PartitionJob {
 public:
  PartitionJob(comm::Network& net, HostId me, const graph::GraphFile& file,
               const PartitionPolicy& policy, const PartitionerConfig& config,
               support::PhaseTimes& phaseTimes, RecoveryContext& recovery,
               uint32_t* resumeVote)
      : net_(net),
        me_(me),
        file_(file),
        policy_(policy),
        config_(config),
        phaseTimes_(phaseTimes),
        recovery_(recovery),
        resumeVote_(resumeVote),
        prop_(file, net.numHosts()) {
    for (const auto& counter : policy.master.stateCounters) {
      state_.registerCounter(counter);
    }
    for (const auto& counter : policy.edge.stateCounters) {
      state_.registerCounter(counter);
    }
    if (policy.master.usesNodeMasks || policy.edge.usesNodeMasks) {
      state_.enableNodeMasks();
    }
    state_.initialize(net.numHosts());
    if (obs::attached()) {
      const obs::Sink sink = obs::sink();
      trace_ = sink.trace;
      metrics_ = sink.metrics;
    }
    if (support::memoryBudgetAttached()) {
      budget_ = support::memoryBudget();
    }
  }

  PartitionJob(const PartitionJob&) = delete;
  PartitionJob& operator=(const PartitionJob&) = delete;

  ~PartitionJob() {
    if (budget_ && windowChargeBytes_ > 0) {
      budget_->release(windowChargeBytes_);
    }
    removeSpillSegments();
  }

  DistGraph run() {
    // Each phase is timed as this host's CPU work plus its modeled
    // communication charges (plus modeled disk time for reading); the
    // driver max-combines the per-host tables, and phases are separated by
    // barriers, so the sum of the maxima is the simulated cluster
    // makespan. (The construction phase's dedicated receiver thread is not
    // CPU-accounted: it models the communication hyperthread of paper
    // IV-D1, which overlaps computation.)
    //
    // With checkpointing on, hosts first agree on the last phase EVERY host
    // holds a valid checkpoint for (min across hosts — a crashed run leaves
    // hosts at different phases) and the pipeline resumes after it; skipped
    // phases run no barriers, so all hosts stay collectively aligned.
    uint32_t resumePhase = 0;
    if (checkpointing()) {
      const uint32_t mine = latestValidCheckpoint(
          config_.resilience.checkpointDir, me_, numHosts(), 5);
      if (resumeVote_ != nullptr) {
        *resumeVote_ = mine;  // before any crossing: every host gets to vote
      }
      resumePhase = net_.allReduceMin(me_, mine);
    }
    if (resumePhase >= 5) {
      restoreCheckpoint(5);
      return std::move(result_);
    }
    if (resumePhase == 0) {
      runPhase(1, "Graph Reading", [&] { phaseGraphReading(); });
    } else {
      // Graph reading has no communication and its window arrays are large
      // and deterministic, so they are never checkpointed: re-run it
      // locally, then restore the agreed checkpoint on top.
      timedPhase("Graph Reading", [&] { phaseGraphReading(); });
      restoreCheckpoint(resumePhase);
    }
    if (resumePhase < 2) {
      runPhase(2, "Master Assignment", [&] { phaseMasterAssignment(); });
    }
    if (resumePhase < 3) {
      runPhase(3, "Edge Assignment", [&] { phaseEdgeAssignment(); });
    }
    if (resumePhase < 4) {
      runPhase(4, "Graph Allocation", [&] { phaseGraphAllocation(); });
    }
    runPhase(5, "Graph Construction", [&] { phaseGraphConstruction(); });
    return std::move(result_);
  }

 private:
  template <typename Fn>
  void timedPhase(const char* name, Fn&& body) {
    obs::ScopedSpan span(trace_.get(), me_, name);
    const double cpu0 = support::threadCpuSeconds();
    const double comm0 = net_.modeledCommSeconds(me_);
    const double disk0 = modeledDiskSeconds_;
    body();
    phaseTimes_.add(name, (support::threadCpuSeconds() - cpu0) +
                              (net_.modeledCommSeconds(me_) - comm0) +
                              (modeledDiskSeconds_ - disk0));
    mirrorMemGauges();
  }

  // Samples the network backlog into the budget and mirrors the governor's
  // accounting into cusp.mem.* gauges at every phase boundary. Gauges are
  // last-write-wins, so concurrent hosts racing on them is fine — they all
  // read the same process-wide budget.
  void mirrorMemGauges() {
    if (!budget_) {
      return;
    }
    budget_->noteCommBacklog(net_.mailboxBacklogBytes());
    if (!metrics_) {
      return;
    }
    const support::MemoryBudgetStats s = budget_->stats();
    metrics_->gauge("cusp.mem.budget_bytes")
        .set(static_cast<double>(s.totalBytes));
    metrics_->gauge("cusp.mem.in_use_bytes")
        .set(static_cast<double>(s.inUseBytes));
    metrics_->gauge("cusp.mem.peak_bytes")
        .set(static_cast<double>(s.peakBytes));
    metrics_->gauge("cusp.mem.spill_bytes")
        .set(static_cast<double>(s.spillBytes));
    metrics_->gauge("cusp.mem.comm_backlog_bytes")
        .set(static_cast<double>(s.commBacklogBytes));
  }

  // One pipeline phase: announce it to the fault injector (phase-scheduled
  // crashes; the explicit fault point gives opsIntoPhase=0 a crossing even
  // in communication-free phases), run the body, checkpoint the completed
  // phase, and barrier. The barrier guarantees that once any host starts
  // phase p+1, every host holds a phase-p checkpoint.
  template <typename Fn>
  void runPhase(uint32_t phase, const char* name, Fn&& body) {
    if (const auto& cancel = config_.resilience.cancel) {
      cancel->check("partition phase " + std::to_string(phase));
    }
    net_.enterPhase(me_, phase);
    net_.faultPoint(me_);
    timedPhase(name, std::forward<Fn>(body));
    if (checkpointing()) {
      writeCheckpoint(phase);
    }
    net_.barrier(me_);
  }

  // ---- per-phase checkpoints (core/checkpoint.h) -------------------------

  bool checkpointing() const {
    return config_.resilience.enableCheckpoints &&
           !config_.resilience.checkpointDir.empty();
  }

  void writeCheckpoint(uint32_t phase) {
    if (recovery_.checkpointsDisabled()) {
      return;  // earlier persistent ENOSPC: skip serializing the payload
    }
    SendBuffer payload;
    switch (phase) {
      case 1:
        break;  // marker only: reading is re-run locally on resume
      case 2:
        serializeMasterSection(payload);
        break;
      case 3:
        serializeMasterSection(payload);
        serializeEdgeSection(payload);
        break;
      case 4:
        serializeMasterSection(payload);
        serializeAllocSection(payload);
        break;
      case 5:
        serializeDistGraph(payload, result_);
        break;
    }
    // A failed checkpoint never fails the phase: the run just loses one
    // restart point.
    if (!recovery_.commitCheckpoint(config_.resilience.checkpointDir, me_,
                                    numHosts(), phase, payload,
                                    config_.resilience.buddyReplication)) {
      return;
    }
    if (metrics_) {
      metrics_
          ->counter("cusp.partitioner.checkpoints_written",
                    {{"phase", std::to_string(phase)}})
          .add();
    }
  }

  void restoreCheckpoint(uint32_t phase) {
    auto payload = loadCheckpointOrReplica(config_.resilience.checkpointDir,
                                           me_, numHosts(), phase);
    if (!payload) {
      // The agreement said every host has this phase; a vanished/corrupt
      // file between probe and load means live storage trouble. Surface it
      // as a retryable storage fault: the next attempt re-agrees on a phase
      // every host can actually still read.
      throw support::StorageError(
          support::StorageError::Kind::kReadFailed,
          checkpointPath(config_.resilience.checkpointDir, me_, phase),
          "checkpoint for phase " + std::to_string(phase) +
              " disappeared on host " + std::to_string(me_) +
              " between agreement and restore");
    }
    if (metrics_) {
      metrics_
          ->counter("cusp.partitioner.checkpoints_restored",
                    {{"phase", std::to_string(phase)}})
          .add();
    }
    RecvBuffer buf(std::move(*payload));
    if (phase >= 2 && phase <= 4) {
      restoreMasterSection(buf);
      if (phase >= 3 && pureMasterPath()) {
        fillPureMasterTable();  // edge assignment, which fills it, is done
      }
    }
    if (phase == 3) {
      restoreEdgeSection(buf);
    } else if (phase == 4) {
      restoreAllocSection(buf);
    } else if (phase == 5) {
      result_ = deserializeDistGraph(buf);
    }
  }

  // Master-assignment outputs, needed by every later phase (masterOf).
  // Pure-master policies refill the master table from the rule instead, so
  // only the partitioning-state snapshot is stored for them.
  void serializeMasterSection(SendBuffer& buf) const {
    const uint8_t stateful = pureMasterPath() ? 0 : 1;
    support::serialize(buf, stateful);
    if (stateful) {
      std::vector<uint32_t> masters(myNumNodes());
      for (uint64_t idx = 0; idx < masters.size(); ++idx) {
        masters[idx] = masterTable_[myRange_.nodeBegin + idx].load(
            std::memory_order_relaxed);
      }
      support::serializeAll(buf, masters, masterPairs(requested_));
    }
    state_.serializeSnapshot(buf);
  }

  void restoreMasterSection(RecvBuffer& buf) {
    uint8_t stateful = 0;
    support::deserialize(buf, stateful);
    if (stateful) {
      std::vector<uint32_t> masters;
      MasterPairs remote;
      support::deserializeAll(buf, masters, remote);
      if (masters.size() != myNumNodes() ||
          std::any_of(masters.begin(), masters.end(),
                      [&](uint32_t m) { return m >= numHosts(); })) {
        badEntry("checkpointed masters do not fit the read range and hosts");
      }
      resetMasterTable();
      for (uint64_t idx = 0; idx < masters.size(); ++idx) {
        masterTable_[myRange_.nodeBegin + idx].store(
            masters[idx], std::memory_order_relaxed);
      }
      for (const auto& [gid, master] : remote) {
        learnMaster(gid, master, requested_);
      }
    }
    state_.restoreSnapshot(buf);
  }

  // Edge-assignment outputs, needed to enter graph allocation.
  void serializeEdgeSection(SendBuffer& buf) const {
    support::serialize(buf, countsFrom_);
    support::serializeAll(buf, masterPairs(mirrors_), myMasterNodes_);
  }

  void restoreEdgeSection(RecvBuffer& buf) {
    MasterPairs mirrors;
    support::deserializeAll(buf, countsFrom_, mirrors, myMasterNodes_);
    if (countsFrom_.size() != numHosts()) {
      badEntry("checkpointed edge counts do not cover every host");
    }
    mirrors_.resize(prop_.getNumNodes());
    for (const auto& [gid, master] : mirrors) {
      learnMaster(gid, master, mirrors_);
    }
  }

  // (gid, master) pairs of the nodes set in `nodes`, ascending by gid: the
  // checkpoint form of a subset of the master table.
  MasterPairs masterPairs(const DynamicBitset& nodes) const {
    std::vector<uint64_t> gids;
    nodes.collectSetBits(gids);
    MasterPairs pairs(gids.size());
    for (size_t i = 0; i < gids.size(); ++i) {
      pairs[i] = {gids[i],
                  masterTable_[gids[i]].load(std::memory_order_relaxed)};
    }
    return pairs;
  }

  // Allocation outputs, needed to enter graph construction. The local CSR
  // skeleton (row offsets + expected edge count) is stored; the edge arrays
  // themselves are re-filled by the construction replay.
  void serializeAllocSection(SendBuffer& buf) const {
    support::serializeAll(buf, result_.numMasters, result_.localToGlobal,
                          result_.masterHostOfLocal, result_.mirrorsOnHost,
                          result_.myMirrorsByOwner, localRowStart_,
                          expectedRemoteEdges_);
  }

  void restoreAllocSection(RecvBuffer& buf) {
    result_.hostId = me_;
    result_.numHosts = numHosts();
    result_.numGlobalNodes = prop_.getNumNodes();
    result_.numGlobalEdges = prop_.getNumEdges();
    support::deserializeAll(buf, result_.numMasters, result_.localToGlobal,
                            result_.masterHostOfLocal, result_.mirrorsOnHost,
                            result_.myMirrorsByOwner, localRowStart_,
                            expectedRemoteEdges_);
    buildLocalIdTable();
    localDests_.assign(localRowStart_.back(), 0);
    if (file_.hasEdgeData()) {
      localEdgeData_.assign(localRowStart_.back(), 0);
    }
    insertCursor_ =
        std::vector<std::atomic<uint64_t>>(result_.localToGlobal.size());
    for (size_t lid = 0; lid + 1 < localRowStart_.size(); ++lid) {
      insertCursor_[lid].store(localRowStart_[lid],
                               std::memory_order_relaxed);
    }
    state_.reset();  // construction replays against initial state (IV-B4)
  }

  uint32_t numHosts() const { return net_.numHosts(); }
  uint64_t myNumNodes() const { return myRange_.numNodes(); }

  // Whether the pure-master fast path (replicated computation, zero master
  // communication — paper IV-D5) applies; the config can disable it for
  // ablation measurements.
  bool pureMasterPath() const {
    return policy_.master.isPure() && !config_.disablePureMasterOptimization;
  }

  // Global node id -> index into this host's read window.
  uint64_t windowIndex(uint64_t gid) const { return gid - myRange_.nodeBegin; }
  bool inMyRange(uint64_t gid) const {
    return gid >= myRange_.nodeBegin && gid < myRange_.nodeEnd;
  }

  // ---- phase 1: graph reading -------------------------------------------

  // One node-aligned chunk of the read window: node bounds are
  // window-relative, edge bounds are GLOBAL file offsets (winRowStart_'s
  // values). Resident mode has one chunk covering the window.
  struct Chunk {
    uint64_t nodeBegin = 0, nodeEnd = 0;
    uint64_t edgeBegin = 0, edgeEnd = 0;
    uint64_t numEdges() const { return edgeEnd - edgeBegin; }
  };

  // A chunk's edges, chunk-relative: views into a resident graph file, or
  // into the EdgeBuffers they were read or restored into.
  struct ChunkEdges {
    std::span<const uint64_t> dests;
    std::span<const uint32_t> weights;  // empty without edge data
  };
  struct EdgeBuffers {
    std::vector<uint64_t> dests;
    std::vector<uint32_t> weights;
  };

  void phaseGraphReading() {
    const bool defaultSplit =
        config_.readNodeWeight == 0.0 && config_.readEdgeWeight == 1.0;
    ranges_ = defaultSplit
                  ? graph::contiguousEbRanges(file_, numHosts())
                  : graph::computeReadRanges(file_, numHosts(),
                                             config_.readNodeWeight,
                                             config_.readEdgeWeight);
    myRange_ = ranges_[me_];
    // The row-offset slice is always resident: every later phase needs
    // random row lookups, and at (numNodes+1)*8 bytes it is the small part
    // of the window. Overdraft — a budget too small for the offsets alone
    // is not recoverable by streaming.
    winRowStart_ =
        file_.rowStarts().subspan(myRange_.nodeBegin, myNumNodes() + 1);
    const uint64_t rowBytes = winRowStart_.size() * sizeof(uint64_t);
    if (budget_) {
      budget_->reserveOverdraft(rowBytes);
      windowChargeBytes_ += rowBytes;
    }
    const uint64_t destBytes = edgeBytes(myRange_.numEdges());

    // Window residency: ADWISE-class windowed policies score edges at
    // random window offsets and must stay resident (charged as overdraft);
    // otherwise the window streams in bounded chunks when forced by config
    // or when the budget refuses the resident reservation (the refusal is
    // the memory-fault injection point, so seeded plans can push any host
    // into streaming).
    streamingWindows_ = false;
    if (windowedMode()) {
      if (budget_) {
        budget_->reserveOverdraft(destBytes);
        windowChargeBytes_ += destBytes;
      }
    } else if (config_.forceStreamingWindows) {
      streamingWindows_ = true;
    } else if (budget_ &&
               !budget_->tryReserve(destBytes,
                                    "partition.window.h" +
                                        std::to_string(me_))) {
      streamingWindows_ = true;
      if (metrics_) {
        metrics_->counter("cusp.mem.window_stream_fallbacks").add();
      }
    } else if (budget_) {
      windowChargeBytes_ += destBytes;  // tryReserve succeeded: charged
    }

    if (!streamingWindows_) {
      // Resident mode is the one-chunk case: the whole window, read once
      // here and from memory afterwards (paper IV-B1). Its edges are views
      // into a resident file, or this host's own copy of a windowed one;
      // the budget and disk charges model the host's own copy either way.
      chunks_.assign(
          1, Chunk{0, myNumNodes(), myRange_.edgeBegin, myRange_.edgeEnd});
      residentEdges_ = fetchChunk(0, residentBuffers_);
      simulateDiskRead(rowBytes + destBytes);
      return;
    }

    // Streaming mode: never materialize the full window. Build the
    // node-aligned chunk table; later phases fetch one chunk at a time.
    buildChunks();
    simulateDiskRead(rowBytes);  // chunk bytes are charged per fetch
    if (!config_.spillDir.empty()) {
      // Spill every chunk once, compressed, through the hardened storage
      // seam; later passes restore from the spill store instead of
      // re-reading the raw file.
      ensureStoreDirs(config_.spillDir);
      EdgeBuffers buffers;
      for (size_t c = 0; c < chunks_.size(); ++c) {
        const ChunkEdges edges = fetchChunk(c, buffers);
        simulateDiskRead(edgeBytes(chunks_[c].numEdges()));
        support::spillEdgeSegment(
            spillChunkPath(c), edges.dests.data(), edges.dests.size(),
            edges.weights.empty() ? nullptr : edges.weights.data());
      }
      spilled_ = true;
    }
  }

  // Bytes of `numEdges` edges on disk and in memory: destinations plus
  // edge data.
  uint64_t edgeBytes(uint64_t numEdges) const {
    return numEdges * (sizeof(uint64_t) +
                       (file_.hasEdgeData() ? sizeof(uint32_t) : 0));
  }

  // Node-aligned streaming chunks of up to streamChunkEdges edges each; a
  // node whose degree exceeds the target gets a chunk of its own.
  void buildChunks() {
    chunks_.clear();
    const uint64_t targetEdges =
        std::max<uint64_t>(1, config_.streamChunkEdges);
    const uint64_t n = myNumNodes();
    uint64_t nodeBegin = 0;
    while (nodeBegin < n) {
      const uint64_t edgeBegin = winRowStart_[nodeBegin];
      uint64_t nodeEnd = nodeBegin + 1;
      while (nodeEnd < n &&
             winRowStart_[nodeEnd + 1] - edgeBegin <= targetEdges) {
        ++nodeEnd;
      }
      chunks_.push_back(
          Chunk{nodeBegin, nodeEnd, edgeBegin, winRowStart_[nodeEnd]});
      nodeBegin = nodeEnd;
    }
  }

  std::string spillChunkPath(size_t chunk) const {
    return config_.spillDir + "/h" + std::to_string(me_) + ".n" +
           std::to_string(numHosts()) + ".c" + std::to_string(chunk) +
           ".spill";
  }

  // Deletes this host's spill segments when the job ends, normally or by
  // exception. Nothing reads them again: a later attempt re-runs phase 1,
  // which rewrites its own. Best effort, and never throws (destructor).
  void removeSpillSegments() noexcept {
    if (!streamingWindows_ || config_.spillDir.empty()) {
      return;
    }
    try {
      for (size_t c = 0; c < chunks_.size(); ++c) {
        std::remove(spillChunkPath(c).c_str());
      }
    } catch (...) {
      CUSP_LOG_WARN() << "partitioner: spill segments of host " << me_
                      << " left in " << config_.spillDir;
    }
  }

  // Chunk c's edges: restored from the spill store once phase 1 has spilled
  // them, else a GraphFile view (read into `buffers` from a windowed file).
  ChunkEdges fetchChunk(size_t c, EdgeBuffers& buffers) const {
    const Chunk& chunk = chunks_[c];
    if (spilled_) {
      auto segment = support::restoreEdgeSegment(spillChunkPath(c));
      if (!segment) {
        throw support::StorageError(support::StorageError::Kind::kReadFailed,
                                    spillChunkPath(c),
                                    "spilled edge segment vanished");
      }
      buffers.dests = std::move(segment->dests);
      buffers.weights = std::move(segment->weights);
      return {buffers.dests, buffers.weights};
    }
    return {file_.destWindow(chunk.edgeBegin, chunk.edgeEnd, buffers.dests),
            file_.edgeDataWindow(chunk.edgeBegin, chunk.edgeEnd,
                                 buffers.weights)};
  }

  // Visits the window chunk by chunk in ascending node order; fn(chunk,
  // edges) gets chunk-relative edge arrays. The resident window is one
  // chunk, fetched and charged once by phase 1. A streaming chunk is
  // fetched on every pass: its bytes are charged against the budget as
  // spillable transient state (the chunk buffer IS the mechanism of staying
  // under budget, so the cap never refuses it — but injected kAllocFail
  // faults throw MemoryPressure here, the chaos ladder's per-chunk seam)
  // and to the modeled disk, and the budget charge is released afterwards.
  template <typename Fn>
  void forEachChunk(Fn&& fn) {
    if (!streamingWindows_) {
      fn(chunks_.front(), residentEdges_);
      return;
    }
    const std::string context = "partition.chunk.h" + std::to_string(me_);
    EdgeBuffers buffers;
    for (size_t c = 0; c < chunks_.size(); ++c) {
      const uint64_t bytes = edgeBytes(chunks_[c].numEdges());
      if (budget_) {
        budget_->reserveSpillable(bytes, context);  // may throw (injected)
      }
      try {
        const ChunkEdges edges = fetchChunk(c, buffers);
        simulateDiskRead(bytes);
        fn(chunks_[c], edges);
      } catch (...) {
        if (budget_) {
          budget_->release(bytes);
        }
        throw;
      }
      if (budget_) {
        budget_->release(bytes);
      }
    }
  }

  // Disk time is modeled, not slept: it is added to this host's reading
  // phase account (hosts read their windows concurrently, as on a parallel
  // filesystem, so per-host time is the right unit). The bytes are counted
  // whether or not a bandwidth is set.
  void simulateDiskRead(uint64_t bytes) {
    if (metrics_) {
      metrics_->counter("cusp.partitioner.read_bytes").add(bytes);
    }
    if (config_.simulatedDiskBandwidthMBps <= 0.0) {
      return;
    }
    modeledDiskSeconds_ += static_cast<double>(bytes) /
                           (config_.simulatedDiskBandwidthMBps * 1e6);
  }

  // Stateful edge rules run on one thread, so their state evolves in node
  // order; pure ones use every thread of the host.
  unsigned edgeThreads() const {
    return policy_.edge.usesState ? 1 : config_.threadsPerHost;
  }

  // ---- phase 2: master assignment ---------------------------------------

  void phaseMasterAssignment() {
    if (pureMasterPath()) {
      // Pure rule: replicate computation instead of communicating (paper
      // IV-D5). Edge assignment fills the master table; nothing to do here.
      return;
    }
    resetMasterTable();

    // Pre-request the master assignments this host will need: the
    // destinations of its read edges (they are both the Fennel scoring
    // neighbors and the dstMaster inputs of edge assignment). Paper IV-D5:
    // assignments are only communicated on request.
    std::vector<std::vector<uint64_t>> requestsTo(numHosts());
    {
      DynamicBitset needed(prop_.getNumNodes());
      forEachChunk([&](const Chunk&, const ChunkEdges& edges) {
        for (uint64_t d : edges.dests) {
          if (!inMyRange(d)) {
            needed.set(d);
          }
        }
      });
      std::vector<uint64_t> neededIds;
      needed.collectSetBits(neededIds);
      for (uint64_t gid : neededIds) {
        requestsTo[graph::readingHostOf(ranges_, gid)].push_back(gid);
      }
    }
    uint64_t totalExpected = 0;
    for (HostId h = 0; h < numHosts(); ++h) {
      if (h == me_) {
        continue;
      }
      totalExpected += requestsTo[h].size();
      auto writer = net_.packedWriter(me_, h, comm::kTagMasterRequest);
      support::serialize(writer, requestsTo[h]);
      writer.commit();
    }
    net_.flushAggregated(me_);  // about to block on the other hosts' requests
    std::vector<std::vector<uint64_t>> requestsFrom(numHosts());
    for (HostId h = 0; h < numHosts(); ++h) {
      if (h == me_) {
        continue;
      }
      auto msg = net_.recvFrom(me_, h, comm::kTagMasterRequest);
      support::deserialize(msg.payload, requestsFrom[h]);
      for (uint64_t gid : requestsFrom[h]) {
        if (!inMyRange(gid)) {
          badEntry("request for the master of node " + std::to_string(gid) +
                   " outside the read range");
        }
      }
    }

    // Assign my read vertices in `rounds` chunks; after each chunk, ship
    // newly available requested assignments, opportunistically drain
    // incoming ones, and reconcile the partitioning state (paper IV-D4).
    const uint64_t rounds = std::max<uint32_t>(1, config_.stateSyncRounds);
    const uint64_t chunk =
        myNumNodes() == 0 ? 1 : (myNumNodes() + rounds - 1) / rounds;
    std::vector<size_t> requestCursor(numHosts(), 0);
    uint64_t totalReceived = 0;
    MasterLookup lookup = [this](uint64_t gid) -> uint32_t {
      return masterTable_[gid].load(std::memory_order_relaxed);
    };
    for (uint64_t r = 0; r < rounds; ++r) {
      const uint64_t begin = std::min(myNumNodes(), r * chunk);
      const uint64_t end = std::min(myNumNodes(), begin + chunk);
      support::parallelFor(
          begin, end,
          [&](uint64_t idx) {
            const uint64_t gid = myRange_.nodeBegin + idx;
            const uint32_t part =
                policy_.master.fn(prop_, gid, state_, lookup);
            masterTable_[gid].store(part, std::memory_order_relaxed);
          },
          config_.threadsPerHost);
      // Ship assignments the other hosts requested for this chunk. Requests
      // are sorted and chunks advance in node order, so a cursor per host
      // suffices; each assignment is sent exactly once.
      for (HostId h = 0; h < numHosts(); ++h) {
        if (h == me_) {
          continue;
        }
        std::vector<uint64_t> gids;
        std::vector<uint32_t> parts;
        auto& cursor = requestCursor[h];
        const auto& wanted = requestsFrom[h];
        while (cursor < wanted.size() &&
               windowIndex(wanted[cursor]) < end) {
          const uint64_t gid = wanted[cursor];
          gids.push_back(gid);
          parts.push_back(masterTable_[gid].load(std::memory_order_relaxed));
          ++cursor;
        }
        if (!gids.empty()) {
          auto writer = net_.packedWriter(me_, h, comm::kTagMasterAssign);
          support::serializeAll(writer, gids, parts);
          writer.commit();
        }
      }
      // Drain whatever has arrived without blocking (paper IV-D5: no
      // barrier in master-assignment rounds), then reconcile state
      // asynchronously (IV-D4 — also without blocking).
      totalReceived += drainMasterAssignments(false, 0);
      state_.exchangeAsync(net_, me_);
    }
    // Block until every requested assignment and every state delta has
    // arrived, so nothing leaks into later phases. Ship any assignments and
    // deltas still sitting in aggregation channels first: every host flushes
    // before it blocks, so nobody waits on unflushed traffic.
    net_.flushAggregated(me_);
    totalReceived +=
        drainMasterAssignments(true, totalExpected - totalReceived);
    state_.finishExchanges(net_, me_);
  }

  // Receives kTagMasterAssign messages into the master table. Non-blocking
  // drains everything currently queued; blocking receives until `pending`
  // more assignments have arrived. Returns the number of assignments read.
  uint64_t drainMasterAssignments(bool blocking, uint64_t pending) {
    uint64_t received = 0;
    auto absorb = [&](comm::Message& msg) {
      std::vector<uint64_t> gids;
      std::vector<uint32_t> parts;
      support::deserializeAll(msg.payload, gids, parts);
      learnMasters(gids, parts, requested_);
      received += gids.size();
    };
    if (blocking) {
      while (received < pending) {
        auto msg = net_.recv(me_, comm::kTagMasterAssign);
        absorb(msg);
      }
    } else {
      while (auto msg = net_.tryRecv(me_, comm::kTagMasterAssign)) {
        absorb(*msg);
      }
    }
    return received;
  }

  // ---- master table ------------------------------------------------------

  // Every entry unknown (kNoMaster), nothing learned from other hosts yet.
  void resetMasterTable() {
    masterTable_ = std::vector<std::atomic<uint32_t>>(prop_.getNumNodes());
    for (auto& entry : masterTable_) {
      entry.store(kNoMaster, std::memory_order_relaxed);
    }
    requested_.resize(prop_.getNumNodes());
  }

  // Pure rules: every host computes every node's master once (replicated
  // computation instead of communication, paper IV-D5). Called at the start
  // of edge assignment and after restoring a checkpoint taken past it, never
  // in phase 2, which stays empty for pure rules.
  void fillPureMasterTable() {
    masterTable_ = std::vector<std::atomic<uint32_t>>(prop_.getNumNodes());
    static const MasterLookup noLookup;
    support::parallelFor(
        0, masterTable_.size(),
        [&](uint64_t gid) {
          masterTable_[gid].store(
              policy_.master.fn(prop_, gid, state_, noLookup),
              std::memory_order_relaxed);
        },
        config_.threadsPerHost);
  }

  // Records a master learned from a message or a checkpoint and marks the
  // node in `learned`. A known entry is kept: masters never change once
  // assigned.
  void learnMaster(uint64_t gid, uint32_t master, DynamicBitset& learned) {
    if (gid >= masterTable_.size() || master >= numHosts()) {
      badEntry("master " + std::to_string(master) + " of node " +
               std::to_string(gid) + " out of range");
    }
    learned.set(gid);
    auto& entry = masterTable_[gid];
    if (entry.load(std::memory_order_relaxed) == kNoMaster) {
      entry.store(master, std::memory_order_relaxed);
    }
  }

  void learnMasters(const std::vector<uint64_t>& gids,
                    const std::vector<uint32_t>& masters,
                    DynamicBitset& learned) {
    if (gids.size() != masters.size()) {
      badEntry("message pairs " + std::to_string(gids.size()) + " nodes with " +
               std::to_string(masters.size()) + " masters");
    }
    for (size_t i = 0; i < gids.size(); ++i) {
      learnMaster(gids[i], masters[i], learned);
    }
  }

  // Master of any node this host legitimately queries: its own read nodes
  // and the destinations of its read edges (every node, for pure rules).
  uint32_t masterOf(uint64_t gid) const {
    const uint32_t master = masterTable_[gid].load(std::memory_order_relaxed);
    if (master == kNoMaster) {
      badEntry("master of node " + std::to_string(gid) + " unknown");
    }
    return master;
  }

  // ---- local-id table ------------------------------------------------------

  // gid -> lid of every proxy on this host (kNoLocal elsewhere), built from
  // result_.localToGlobal; rejects ids out of range and duplicate proxies.
  void buildLocalIdTable() {
    const std::vector<uint64_t>& l2g = result_.localToGlobal;
    if (l2g.size() >= kNoLocal) {
      badEntry("more than 2^32-1 proxies");
    }
    localIdTable_.assign(prop_.getNumNodes(), kNoLocal);
    for (uint64_t lid = 0; lid < l2g.size(); ++lid) {
      if (l2g[lid] >= localIdTable_.size() ||
          localIdTable_[l2g[lid]] != kNoLocal) {
        badEntry("proxy of node " + std::to_string(l2g[lid]) +
                 " out of range or duplicated");
      }
      localIdTable_[l2g[lid]] = static_cast<uint32_t>(lid);
    }
  }

  uint64_t localIdOf(uint64_t gid) const {
    if (gid < localIdTable_.size() && localIdTable_[gid] != kNoLocal) {
      return localIdTable_[gid];
    }
    badEntry("node " + std::to_string(gid) + " has no proxy");
  }

  // Malformed input from a message or checkpoint, or a lookup of a node
  // this host holds no table entry for.
  [[noreturn]] void badEntry(const std::string& what) const {
    throw std::out_of_range("partitioner: " + what + " on host " +
                            std::to_string(me_));
  }

  // ---- streaming-window support (ADWISE class, paper II-B2) -------------

  bool windowedMode() const {
    return config_.windowSize > 1 && policy_.edge.windowScore != nullptr;
  }

  // Sequentially visits every read edge in windowed priority order: keep a
  // window of up to windowSize scanned edges, repeatedly assign the one the
  // rule scores highest (ties: lowest window slot), refill from the
  // stream. Deterministic per host given the same initial state, so graph
  // construction replays the exact assignment order.
  template <typename Visit>
  void forEachEdgeWindowed(Visit&& visit) {
    struct Pending {
      uint64_t srcGid;
      uint64_t edgeOffset;  // window-relative edge index
    };
    std::vector<Pending> window;
    window.reserve(config_.windowSize);
    const uint64_t totalEdges = myRange_.numEdges();
    uint64_t nextEdge = 0;
    uint64_t srcCursor = 0;  // window-relative node index of nextEdge
    auto refill = [&] {
      while (window.size() < config_.windowSize && nextEdge < totalEdges) {
        while (winRowStart_[srcCursor + 1] - myRange_.edgeBegin <= nextEdge) {
          ++srcCursor;
        }
        window.push_back(Pending{myRange_.nodeBegin + srcCursor, nextEdge});
        ++nextEdge;
      }
    };
    refill();
    while (!window.empty()) {
      size_t bestSlot = 0;
      double bestScore = -1e300;
      for (size_t i = 0; i < window.size(); ++i) {
        const double score =
            policy_.edge.windowScore(prop_, window[i].srcGid,
                                     residentEdges_.dests[window[i].edgeOffset],
                                     state_);
        if (score > bestScore) {
          bestScore = score;
          bestSlot = i;
        }
      }
      const Pending chosen = window[bestSlot];
      window[bestSlot] = window.back();
      window.pop_back();
      visit(chosen.srcGid, chosen.edgeOffset);
      refill();
    }
  }

  // ---- phase 3: edge assignment (paper Algorithm 3) ----------------------

  void phaseEdgeAssignment() {
    if (pureMasterPath()) {
      fillPureMasterTable();
    }
    const uint32_t k = numHosts();
    outCounts_.assign(k, std::vector<uint64_t>(myNumNodes(), 0));
    std::vector<DynamicBitset> mirrorFlags(k);
    for (auto& flags : mirrorFlags) {
      flags.resize(prop_.getNumNodes());
    }
    auto recordEdge = [&](uint64_t s, uint64_t d) {
      const uint32_t sMaster = masterOf(s);
      const uint32_t dMaster = masterOf(d);
      const uint32_t owner =
          policy_.edge.fn(prop_, s, d, sMaster, dMaster, state_);
      ++outCounts_[owner][windowIndex(s)];
      if (owner != dMaster) {
        mirrorFlags[owner].set(d);
      }
      if (owner != sMaster) {
        mirrorFlags[owner].set(s);
      }
    };
    if (windowedMode()) {
      forEachEdgeWindowed([&](uint64_t s, uint64_t e) {
        recordEdge(s, residentEdges_.dests[e]);
      });
    } else {
      // Chunks in ascending node order; a stateful rule's single thread
      // visits the edges in the same order at any chunk size, so its state
      // evolves identically.
      forEachChunk([&](const Chunk& chunk, const ChunkEdges& edges) {
        support::parallelFor(
            chunk.nodeBegin, chunk.nodeEnd,
            [&](uint64_t idx) {
              const uint64_t s = myRange_.nodeBegin + idx;
              const uint64_t eBegin = winRowStart_[idx] - chunk.edgeBegin;
              const uint64_t eEnd = winRowStart_[idx + 1] - chunk.edgeBegin;
              for (uint64_t e = eBegin; e < eEnd; ++e) {
                recordEdge(s, edges.dests[e]);
              }
            },
            edgeThreads());
      });
    }
    if (policy_.edge.usesState) {
      state_.synchronize(net_, me_);
    }

    // Exchange counts (positional vectors, paper IV-D2) and mirror flags
    // (paired with master hosts so receivers can place proxies without
    // knowing the master rule). All-zero vectors are elided to an empty
    // message (IV-D2's "nothing to send" optimization).
    for (HostId h = 0; h < k; ++h) {
      if (h == me_) {
        continue;
      }
      const bool anyEdges = std::any_of(outCounts_[h].begin(),
                                        outCounts_[h].end(),
                                        [](uint64_t c) { return c != 0; });
      {
        auto writer = net_.packedWriter(me_, h, comm::kTagEdgeCounts);
        support::serialize(writer,
                           anyEdges ? outCounts_[h] : std::vector<uint64_t>());
        writer.commit();
      }

      std::vector<uint64_t> gids;
      mirrorFlags[h].collectSetBits(gids);
      std::vector<uint32_t> masters(gids.size());
      for (size_t i = 0; i < gids.size(); ++i) {
        masters[i] = masterOf(gids[i]);
      }
      // Rides in the same aggregation channel as the counts message above,
      // so small counts + flags pairs ship as a single packet per peer.
      auto writer = net_.packedWriter(me_, h, comm::kTagMirrorFlags);
      support::serializeAll(writer, gids, masters);
      writer.commit();
    }
    net_.flushAggregated(me_);  // blocking on every peer's counts next
    // Local contribution (host == me) is absorbed directly; the masters of
    // my own flags are already in the table.
    countsFrom_.assign(k, {});
    countsFrom_[me_] = outCounts_[me_];
    mirrors_ = std::move(mirrorFlags[me_]);
    for (HostId h = 0; h < k; ++h) {
      if (h == me_) {
        continue;
      }
      auto countsMsg = net_.recvFrom(me_, h, comm::kTagEdgeCounts);
      support::deserialize(countsMsg.payload, countsFrom_[h]);
      auto mirrorMsg = net_.recvFrom(me_, h, comm::kTagMirrorFlags);
      std::vector<uint64_t> gids;
      std::vector<uint32_t> masters;
      support::deserializeAll(mirrorMsg.payload, gids, masters);
      learnMasters(gids, masters, mirrors_);
    }

    // Master lists: which global nodes is this host the master of? For pure
    // rules each host replicates the computation over all nodes (IV-D5);
    // stateful rules exchange the lists computed by the reading hosts.
    if (pureMasterPath()) {
      for (uint64_t gid = 0; gid < prop_.getNumNodes(); ++gid) {
        if (masterOf(gid) == me_) {
          myMasterNodes_.push_back(gid);
        }
      }
    } else {
      std::vector<std::vector<uint64_t>> listFor(k);
      for (uint64_t gid = myRange_.nodeBegin; gid < myRange_.nodeEnd; ++gid) {
        listFor[masterOf(gid)].push_back(gid);
      }
      for (HostId h = 0; h < k; ++h) {
        if (h == me_) {
          continue;
        }
        auto writer = net_.packedWriter(me_, h, comm::kTagMasterList);
        support::serialize(writer, listFor[h]);
        writer.commit();
      }
      net_.flushAggregated(me_);  // blocking on every peer's list next
      myMasterNodes_ = std::move(listFor[me_]);
      for (HostId h = 0; h < k; ++h) {
        if (h == me_) {
          continue;
        }
        auto msg = net_.recvFrom(me_, h, comm::kTagMasterList);
        std::vector<uint64_t> list;
        support::deserialize(msg.payload, list);
        myMasterNodes_.insert(myMasterNodes_.end(), list.begin(), list.end());
      }
      std::sort(myMasterNodes_.begin(), myMasterNodes_.end());
    }
  }

  // ---- phase 4: graph allocation -----------------------------------------

  void phaseGraphAllocation() {
    const uint32_t k = numHosts();
    result_.hostId = me_;
    result_.numHosts = k;
    result_.numGlobalNodes = prop_.getNumNodes();
    result_.numGlobalEdges = prop_.getNumEdges();

    // Local id space: masters (sorted), then mirrors (sorted — the flag
    // bitset yields ascending ids). A flagged node whose master is this
    // host is already in the master list, not a mirror.
    std::vector<uint64_t> flagged;
    mirrors_.collectSetBits(flagged);
    result_.numMasters = myMasterNodes_.size();
    result_.localToGlobal = myMasterNodes_;
    for (uint64_t gid : flagged) {
      if (masterOf(gid) != me_) {
        result_.localToGlobal.push_back(gid);
      }
    }
    buildLocalIdTable();
    result_.masterHostOfLocal.assign(result_.localToGlobal.size(), me_);
    for (uint64_t lid = result_.numMasters;
         lid < result_.localToGlobal.size(); ++lid) {
      result_.masterHostOfLocal[lid] = masterOf(result_.localToGlobal[lid]);
    }

    // Per-local-node out-edge counts from the received positional vectors;
    // prefix sum gives the CSR row offsets, and edges can then be inserted
    // in parallel as they arrive (paper IV-B4).
    std::vector<uint64_t> localOutCount(result_.localToGlobal.size(), 0);
    expectedRemoteEdges_ = 0;
    for (HostId h = 0; h < k; ++h) {
      const auto& counts = countsFrom_[h];
      if (counts.size() > ranges_[h].numNodes()) {
        badEntry("edge counts from host " + std::to_string(h) +
                 " beyond its read range");
      }
      for (size_t idx = 0; idx < counts.size(); ++idx) {
        if (counts[idx] == 0) {
          continue;
        }
        const uint64_t gid = ranges_[h].nodeBegin + idx;
        localOutCount[localIdOf(gid)] += counts[idx];
        if (h != me_) {
          expectedRemoteEdges_ += counts[idx];
        }
      }
    }
    localRowStart_ = support::parallelExclusivePrefixSum(
        localOutCount, config_.threadsPerHost);
    localDests_.assign(localRowStart_.back(), 0);
    if (file_.hasEdgeData()) {
      localEdgeData_.assign(localRowStart_.back(), 0);
    }
    insertCursor_ =
        std::vector<std::atomic<uint64_t>>(result_.localToGlobal.size());
    for (size_t lid = 0; lid < localOutCount.size(); ++lid) {
      insertCursor_[lid].store(localRowStart_[lid],
                               std::memory_order_relaxed);
    }

    // Exchange master/mirror synchronization metadata: each host tells the
    // owner of every mirror it created; owners record the broadcast lists.
    result_.myMirrorsByOwner.assign(k, {});
    result_.mirrorsOnHost.assign(k, {});
    for (uint64_t lid = result_.numMasters;
         lid < result_.localToGlobal.size(); ++lid) {
      result_.myMirrorsByOwner[result_.masterHostOfLocal[lid]].push_back(lid);
    }
    for (HostId h = 0; h < k; ++h) {
      if (h == me_) {
        continue;
      }
      std::vector<uint64_t> gids;
      gids.reserve(result_.myMirrorsByOwner[h].size());
      for (uint64_t lid : result_.myMirrorsByOwner[h]) {
        gids.push_back(result_.localToGlobal[lid]);
      }
      auto writer = net_.packedWriter(me_, h, comm::kTagMirrorToMaster);
      support::serialize(writer, gids);
      writer.commit();
    }
    net_.flushAggregated(me_);  // blocking on every peer's mirror list next
    for (HostId h = 0; h < k; ++h) {
      if (h == me_) {
        continue;
      }
      auto msg = net_.recvFrom(me_, h, comm::kTagMirrorToMaster);
      std::vector<uint64_t> gids;
      support::deserialize(msg.payload, gids);
      auto& lids = result_.mirrorsOnHost[h];
      lids.reserve(gids.size());
      for (uint64_t gid : gids) {
        lids.push_back(localIdOf(gid));
      }
    }

    // Reset partitioning state so construction's getEdgeOwner calls see the
    // same values edge assignment saw (paper IV-B4).
    state_.reset();
  }

  // ---- phase 5: graph construction (paper Algorithm 4) -------------------

  void phaseGraphConstruction() {
    const bool withData = file_.hasEdgeData();

    // Dedicated receiver (the paper's communication thread, IV-D1): drains
    // edge batches while the main thread streams and sends.
    std::exception_ptr receiverError;
    std::thread receiver([&] {
      try {
        uint64_t received = 0;
        uint64_t srcGid = 0;
        std::vector<uint64_t> dsts;  // reused across records
        std::vector<uint32_t> weights;
        while (received < expectedRemoteEdges_) {
          auto msg = net_.recv(me_, comm::kTagEdgeBatch);
          while (!msg.payload.exhausted()) {
            support::deserialize(msg.payload, srcGid);
            if (config_.compressEdgeBatches) {
              const auto block =
                  support::deserializeVarintBlock(msg.payload);
              size_t offset = 0;
              dsts = support::decodeSortedIds(block, offset);
            } else {
              support::deserialize(msg.payload, dsts);
            }
            if (withData) {
              support::deserialize(msg.payload, weights);
            }
            insertEdges(srcGid, dsts, weights);
            received += dsts.size();
          }
        }
      } catch (...) {
        receiverError = std::current_exception();
      }
    });

    // Any exception on the streaming side (e.g. an injected HostFailure at
    // a send crossing) must not leave the receiver thread joinable: abort
    // the network so it unwinds, join it, then propagate.
    try {
      streamAndSendEdges(withData);
    } catch (...) {
      net_.abort();
      receiver.join();
      throw;
    }
    receiver.join();
    if (receiverError) {
      std::rethrow_exception(receiverError);
    }

    // Canonicalize rows (arrival order is nondeterministic) and finalize.
    sortRows(withData);
    graph::CsrGraph local(std::move(localRowStart_),
                          localDests_.takeVector(),
                          localEdgeData_.takeVector());
    if (config_.buildTranspose) {
      result_.graph = local.transpose();
      result_.isTransposed = true;
    } else {
      result_.graph = std::move(local);
    }
  }

  // One construction thread's buffered sender and per-owner grouping
  // scratch (paper IV-C3: each thread serializes into its own buffer).
  struct EdgeSender {
    EdgeSender(comm::Network& net, HostId me, size_t threshold)
        : sender(net, me, comm::kTagEdgeBatch, threshold),
          dstsFor(net.numHosts()),
          weightsFor(net.numHosts()) {}
    comm::BufferedSender sender;
    std::vector<std::vector<uint64_t>> dstsFor;
    std::vector<std::vector<uint32_t>> weightsFor;
  };

  // The streaming half of graph construction: re-assign every read edge
  // and either insert it locally or ship it to its owner.
  void streamAndSendEdges(bool withData) {
    if (windowedMode()) {
      // Windowed mode replays the exact priority order of edge assignment
      // (same initial state, same scores), shipping one edge per record.
      comm::BufferedSender sender(net_, me_, comm::kTagEdgeBatch,
                                  config_.messageBufferThreshold);
      forEachEdgeWindowed([&](uint64_t s, uint64_t e) {
        const uint64_t d = residentEdges_.dests[e];
        const uint32_t owner =
            policy_.edge.fn(prop_, s, d, masterOf(s), masterOf(d), state_);
        std::vector<uint64_t> oneDst{d};
        std::vector<uint32_t> oneWeight =
            withData ? std::vector<uint32_t>{residentEdges_.weights[e]}
                     : std::vector<uint32_t>{};
        if (owner == me_) {
          insertEdges(s, oneDst, oneWeight);
        } else {
          sendRecord(sender, owner, s, oneDst, oneWeight, withData);
        }
      });
      sender.flushAll();
      return;
    }

    // Chunks in ascending node order, each split across the threads. The
    // per-thread senders outlive the chunks and flush once at the end.
    // Chunks are node-aligned, so per-node records group identically at any
    // chunk size; arrival-order differences are absorbed by the row sort.
    const unsigned threads = edgeThreads();
    std::deque<EdgeSender> senders;
    for (unsigned t = 0; t < std::max(1u, threads); ++t) {
      senders.emplace_back(net_, me_, config_.messageBufferThreshold);
    }
    forEachChunk([&](const Chunk& chunk, const ChunkEdges& edges) {
      support::parallelForBlocked(
          chunk.nodeBegin, chunk.nodeEnd,
          [&](unsigned tid, uint64_t lo, uint64_t hi) {
            auto& [sender, dstsFor, weightsFor] = senders[tid];
            for (uint64_t idx = lo; idx < hi; ++idx) {
              const uint64_t s = myRange_.nodeBegin + idx;
              const uint64_t eBegin = winRowStart_[idx] - chunk.edgeBegin;
              const uint64_t eEnd = winRowStart_[idx + 1] - chunk.edgeBegin;
              if (eBegin == eEnd) {
                continue;
              }
              const uint32_t sMaster = masterOf(s);
              for (auto& v : dstsFor) {
                v.clear();
              }
              for (auto& v : weightsFor) {
                v.clear();
              }
              for (uint64_t e = eBegin; e < eEnd; ++e) {
                const uint64_t d = edges.dests[e];
                const uint32_t owner = policy_.edge.fn(prop_, s, d, sMaster,
                                                       masterOf(d), state_);
                dstsFor[owner].push_back(d);
                if (withData) {
                  weightsFor[owner].push_back(edges.weights[e]);
                }
              }
              for (HostId h = 0; h < numHosts(); ++h) {
                if (dstsFor[h].empty()) {
                  continue;
                }
                if (h == me_) {
                  insertEdges(s, dstsFor[h], weightsFor[h]);
                } else {
                  sendRecord(sender, h, s, dstsFor[h], weightsFor[h],
                             withData);
                }
              }
            }
          },
          threads);
    });
    for (EdgeSender& t : senders) {
      t.sender.flushAll();
    }
  }

  void insertEdges(uint64_t srcGid, const std::vector<uint64_t>& dsts,
                   const std::vector<uint32_t>& weights) {
    const uint64_t srcLid = localIdOf(srcGid);
    const uint64_t base = insertCursor_[srcLid].fetch_add(
        dsts.size(), std::memory_order_relaxed);
    if (base + dsts.size() > localRowStart_[srcLid + 1] ||
        (!weights.empty() && weights.size() != dsts.size())) {
      badEntry("malformed or overflowing edge record of node " +
               std::to_string(srcGid));
    }
    for (size_t i = 0; i < dsts.size(); ++i) {
      localDests_[base + i] = localIdOf(dsts[i]);
      if (!weights.empty()) {
        localEdgeData_[base + i] = weights[i];
      }
    }
  }

  // Serializes one (src, dsts..., weights...) record into the buffered
  // sender, optionally delta+varint coding the destinations (sorted
  // together with their weights; final rows are re-sorted anyway).
  void sendRecord(comm::BufferedSender& sender, HostId dst, uint64_t srcGid,
                  std::vector<uint64_t>& dsts, std::vector<uint32_t>& weights,
                  bool withData) {
    if (config_.compressEdgeBatches) {
      if (withData) {
        std::vector<std::pair<uint64_t, uint32_t>> paired(dsts.size());
        for (size_t i = 0; i < dsts.size(); ++i) {
          paired[i] = {dsts[i], weights[i]};
        }
        std::sort(paired.begin(), paired.end());
        for (size_t i = 0; i < paired.size(); ++i) {
          dsts[i] = paired[i].first;
          weights[i] = paired[i].second;
        }
      } else {
        std::sort(dsts.begin(), dsts.end());
      }
      const std::vector<uint8_t> block = support::encodeSortedIds(dsts);
      if (withData) {
        sender.append(dst, srcGid, block, weights);
      } else {
        sender.append(dst, srcGid, block);
      }
    } else if (withData) {
      sender.append(dst, srcGid, dsts, weights);
    } else {
      sender.append(dst, srcGid, dsts);
    }
  }

  void sortRows(bool withData) {
    support::parallelFor(
        0, result_.localToGlobal.size(),
        [&](uint64_t lid) {
          const uint64_t lo = localRowStart_[lid];
          const uint64_t hi = localRowStart_[lid + 1];
          if (withData) {
            std::vector<std::pair<uint64_t, uint32_t>> row;
            row.reserve(hi - lo);
            for (uint64_t e = lo; e < hi; ++e) {
              row.emplace_back(localDests_[e], localEdgeData_[e]);
            }
            std::sort(row.begin(), row.end());
            for (uint64_t e = lo; e < hi; ++e) {
              localDests_[e] = row[e - lo].first;
              localEdgeData_[e] = row[e - lo].second;
            }
          } else {
            std::sort(localDests_.begin() + static_cast<ptrdiff_t>(lo),
                      localDests_.begin() + static_cast<ptrdiff_t>(hi));
          }
        },
        config_.threadsPerHost);
  }

  // --- inputs ---
  comm::Network& net_;
  const HostId me_;
  const graph::GraphFile& file_;
  const PartitionPolicy& policy_;
  const PartitionerConfig& config_;
  support::PhaseTimes& phaseTimes_;
  RecoveryContext& recovery_;
  uint32_t* const resumeVote_;
  GraphProperties prop_;
  double modeledDiskSeconds_ = 0.0;

  // Observability (null when no sink was attached at construction).
  std::shared_ptr<obs::TraceBuffer> trace_;
  std::shared_ptr<obs::MetricsRegistry> metrics_;

  // --- memory governor (null budget_ = unbudgeted, all charging elided) ---
  std::shared_ptr<support::MemoryBudget> budget_;
  uint64_t windowChargeBytes_ = 0;  // released in the destructor

  // --- reading phase ---
  std::vector<ReadRange> ranges_;
  ReadRange myRange_;
  std::span<const uint64_t> winRowStart_;  // view of file_.rowStarts()
  bool streamingWindows_ = false;  // bounded-window streaming reads
  std::vector<Chunk> chunks_;      // one chunk covering a resident window
  ChunkEdges residentEdges_;       // the resident chunk's edges
  EdgeBuffers residentBuffers_;    // back residentEdges_ for windowed files
  bool spilled_ = false;  // chunks live in spillDir, not the graph file

  // --- master assignment ---
  PartitionState state_;
  // Master of each global node as far as this host knows it (kNoMaster =
  // unknown): every node for pure rules; for stateful rules the read
  // nodes, the assignments requested in phase 2 and the masters of the
  // mirrors flagged here. Relaxed atomics: phase-2 threads write their read
  // nodes' entries while master rules read their neighbours'.
  std::vector<std::atomic<uint32_t>> masterTable_;
  DynamicBitset requested_;  // stateful: entries received in phase 2

  // --- edge assignment / allocation ---
  std::vector<std::vector<uint64_t>> outCounts_;   // [host][window index]
  std::vector<std::vector<uint64_t>> countsFrom_;  // [host][their index]
  DynamicBitset mirrors_;  // nodes flagged for a proxy on this host
  std::vector<uint64_t> myMasterNodes_;
  uint64_t expectedRemoteEdges_ = 0;
  std::vector<uint32_t> localIdTable_;  // gid -> lid; kNoLocal = no proxy

  // --- construction ---
  // The local CSR edge arrays are the partition being built — they must be
  // resident, so they charge the budget in overdraft (accounted, never
  // refused); the BudgetedVector's charge is released when the arrays are
  // handed to CsrGraph.
  std::vector<uint64_t> localRowStart_;
  support::BudgetedVector<uint64_t> localDests_{"partition.csr.dests",
                                                /*overdraft=*/true};
  support::BudgetedVector<uint32_t> localEdgeData_{"partition.csr.data",
                                                   /*overdraft=*/true};
  std::vector<std::atomic<uint64_t>> insertCursor_;

  DistGraph result_;
};

}  // namespace

DistGraph partitionOnHost(comm::Network& net, comm::HostId me,
                          const graph::GraphFile& file,
                          const PartitionPolicy& policy,
                          const PartitionerConfig& config,
                          support::PhaseTimes& phaseTimes) {
  if (net.numHosts() != config.numHosts) {
    throw std::invalid_argument(
        "partitionOnHost: network size != config.numHosts");
  }
  // The caller owns the Network and its faults; outside a driver run the
  // host keeps only its own ENOSPC latch.
  RecoveryContext recovery(config.numHosts, nullptr, {}, /*withFence=*/false);
  return PartitionJob(net, me, file, policy, config, phaseTimes, recovery,
                      /*resumeVote=*/nullptr)
      .run();
}

namespace {

// One full pipeline run over a fresh attempt Network. The run's recovery
// context outlives the attempt: a crash fires once across attempts, blame
// against a slow host survives a teardown, and the ENOSPC latch and fence
// hold for the whole run. `resumeVotes` (one slot per host), when given,
// receives each host's vote in the resume agreement.
PartitionResult runPipeline(const graph::GraphFile& file,
                            const PartitionPolicy& policy,
                            const PartitionerConfig& config,
                            RecoveryContext& recovery,
                            std::vector<uint32_t>* resumeVotes = nullptr) {
  const auto net = recovery.network(
      config.numHosts, config.networkCostModel, config.aggregation,
      config.resilience.recvTimeoutSeconds, config.resilience.retry);
  PartitionResult result;
  result.partitions.resize(config.numHosts);
  std::vector<support::PhaseTimes> hostTimes(config.numHosts);
  support::Timer total;
  comm::runHosts(*net, [&](comm::HostId me) {
    result.partitions[me] =
        PartitionJob(*net, me, file, policy, config, hostTimes[me], recovery,
                     resumeVotes != nullptr ? &(*resumeVotes)[me] : nullptr)
            .run();
  });
  result.wallSeconds = total.elapsedSeconds();
  for (const auto& times : hostTimes) {
    result.phaseTimes.maxWith(times);
  }
  result.totalSeconds = result.phaseTimes.total();
  result.volume = net->statsSnapshot();
  return result;
}

// The reading split the pipeline will use for `numHosts` hosts; mirrors
// phaseGraphReading so the driver can reason about old/new windows without
// running a host.
std::vector<ReadRange> readRangesFor(const graph::GraphFile& file,
                                     const PartitionerConfig& config,
                                     uint32_t numHosts) {
  const bool defaultSplit =
      config.readNodeWeight == 0.0 && config.readEdgeWeight == 1.0;
  return defaultSplit ? graph::contiguousEbRanges(file, numHosts)
                      : graph::computeReadRanges(file, numHosts,
                                                 config.readNodeWeight,
                                                 config.readEdgeWeight);
}

ReadRange intersectRanges(const ReadRange& a, const ReadRange& b) {
  ReadRange r;
  r.nodeBegin = std::max(a.nodeBegin, b.nodeBegin);
  r.nodeEnd = std::max(r.nodeBegin, std::min(a.nodeEnd, b.nodeEnd));
  r.edgeBegin = std::max(a.edgeBegin, b.edgeBegin);
  r.edgeEnd = std::max(r.edgeBegin, std::min(a.edgeEnd, b.edgeEnd));
  return r;
}

// Bytes a host reads from the graph file for window `r` (row offsets +
// destinations + optional edge data) — the same arithmetic
// phaseGraphReading charges to the simulated disk.
uint64_t windowBytes(const ReadRange& r, bool withData) {
  return (r.numNodes() + 1) * sizeof(uint64_t) +
         r.numEdges() * sizeof(uint64_t) +
         (withData ? r.numEdges() * sizeof(uint32_t) : 0);
}

// One Path A redistribution round (core/degraded.h): the survivors of the
// current base run a membership agreement, each loads every rank's phase-5
// state (buddy replicas for the dead), computes the identical
// redistribution, and keeps its own compacted partition. Crossing-visible
// like a pipeline run, so pending crashes can fire inside the round.
PartitionResult runRedistributionRound(
    const PartitionerConfig& baseConfig, const RecoveryContext& recovery,
    const std::vector<uint32_t>& deadRanks) {
  const uint32_t k = baseConfig.numHosts;
  const auto attemptNet = recovery.network(
      k, baseConfig.networkCostModel, baseConfig.aggregation,
      baseConfig.resilience.recvTimeoutSeconds, baseConfig.resilience.retry);
  comm::Network& net = *attemptNet;
  for (uint32_t d : deadRanks) {
    net.evict(d);
  }
  std::vector<uint32_t> newRankOf(k, UINT32_MAX);
  uint32_t numSurvivors = 0;
  for (uint32_t r = 0; r < k; ++r) {
    if (net.isAlive(r)) {
      newRankOf[r] = numSurvivors++;
    }
  }
  const std::string& dir = baseConfig.resilience.checkpointDir;
  PartitionResult result;
  result.partitions.resize(numSurvivors);
  std::vector<support::PhaseTimes> hostTimes(k);
  const std::shared_ptr<obs::TraceBuffer> trace = obs::sink().trace;
  support::Timer total;
  comm::runHosts(net, [&](comm::HostId me) {
    obs::ScopedSpan span(trace.get(), me, "Degraded Redistribution");
    const double cpu0 = support::threadCpuSeconds();
    net.enterPhase(me, 0);
    net.faultPoint(me);
    const comm::MembershipView view = net.agreeMembership(me);
    // Replicated computation (paper IV-D5): every survivor loads all k
    // phase-5 states and derives the same redistribution locally; no
    // partition data crosses the network.
    std::vector<DistGraph> parts(k);
    for (uint32_t h = 0; h < k; ++h) {
      // Dead ranks: own store first, then the buddy replica. A condemned
      // straggler's machine is slow, not dead, so its own files are still
      // readable; a crashed rank's store was removed with it and only the
      // replica can answer.
      auto payload = view.isAlive(h)
                         ? loadCheckpoint(dir, h, k, 5)
                         : loadCheckpointOrReplica(dir, h, k, 5);
      if (!payload) {
        throw support::StorageError(
            support::StorageError::Kind::kReadFailed,
            checkpointPath(dir, h, 5),
            "phase-5 state of host " + std::to_string(h) +
                " vanished during redistribution");
      }
      RecvBuffer buf(std::move(*payload));
      parts[h] = deserializeDistGraph(buf);
    }
    std::vector<DistGraph> compacted =
        redistributePartitions(parts, deadRanks, /*compact=*/true);
    result.partitions[newRankOf[me]] = std::move(compacted[newRankOf[me]]);
    hostTimes[me].add("Degraded Redistribution",
                      support::threadCpuSeconds() - cpu0);
    net.barrier(me);
  });
  result.wallSeconds = total.elapsedSeconds();
  for (const auto& times : hostTimes) {
    result.phaseTimes.maxWith(times);
  }
  result.totalSeconds = result.phaseTimes.total();
  result.volume = net.statsSnapshot();
  return result;
}

}  // namespace

namespace {

// Attaches the config-requested process budget unless one is already
// attached (the CLI's --memory-budget wins; its plan and accumulated
// shrinks must not be reset by the entry point).
std::unique_ptr<support::ScopedMemoryBudget> scopedBudgetFor(
    const PartitionerConfig& config) {
  if (config.memoryBudgetBytes == 0 || support::memoryBudgetAttached()) {
    return nullptr;
  }
  const auto& plan = config.resilience.memoryFaultPlan;
  return std::make_unique<support::ScopedMemoryBudget>(
      config.memoryBudgetBytes, plan ? *plan : support::MemoryFaultPlan{});
}

}  // namespace

PartitionResult partitionGraph(const graph::GraphFile& file,
                               const PartitionPolicy& policy,
                               const PartitionerConfig& config) {
  if (config.numHosts == 0) {
    throw std::invalid_argument("partitionGraph: numHosts must be > 0");
  }
  const auto scopedBudget = scopedBudgetFor(config);
  RecoveryContext recovery(config.numHosts, config.resilience.faultPlan,
                           config.resilience.straggler, /*withFence=*/false);
  return runPipeline(file, policy, config, recovery);
}

PartitionResult partitionGraphResilient(const graph::GraphFile& file,
                                        const PartitionPolicy& policy,
                                        const PartitionerConfig& config,
                                        RecoveryReport* report) {
  if (config.numHosts == 0) {
    throw std::invalid_argument(
        "partitionGraphResilient: numHosts must be > 0");
  }
  const uint32_t maxAttempts =
      std::max(1u, config.resilience.maxRecoveryAttempts);
  const bool checkpoints = config.resilience.enableCheckpoints &&
                           !config.resilience.checkpointDir.empty();
  if (checkpoints) {
    garbageCollectCheckpointTmp(config.resilience.checkpointDir,
                                config.resilience.checkpointGcAgeSeconds);
  }
  // One budget for the whole recovery loop (not per attempt): injected
  // budget shrinks persist across restarts, so "checkpoint-and-restart at a
  // smaller budget" is exactly what a retry after kBudgetShrink does.
  const auto scopedBudget = scopedBudgetFor(config);
  // What the attempts share (core/recovery.h): injector, straggler monitor,
  // ENOSPC latch and, in degraded mode, the write fence. Fences applied by
  // the quorum rule (here or by a Network inside a run) stay in force
  // across attempt teardowns until a heal lifts them.
  RecoveryContext recovery(config.numHosts, config.resilience.faultPlan,
                           config.resilience.straggler,
                           config.resilience.degradedMode);
  // The hosts' own resume votes in the latest attempt; the report's resume
  // phase is their min. Redistribution rounds do not vote: a Path A round
  // reports 0, a heal rejoin 5 (it reloads every phase-5 state).
  std::vector<uint32_t> resumeVotes;
  // The report is written once, on every exit: a result or a rethrown fault.
  RecoveryReport rep;
  rep.finalNumHosts = config.numHosts;
  const auto publish = [&] {
    if (report == nullptr) {
      return;
    }
    rep.resumedFromPhase =
        resumeVotes.empty()
            ? 0
            : *std::min_element(resumeVotes.begin(), resumeVotes.end());
    rep.checkpointWriteFailures = recovery.checkpointWriteFailures();
    rep.checkpointingDisabledByEnospc = recovery.checkpointsDisabled();
    rep.stragglerSoftReports = recovery.stragglerSoftReports();
    if (support::memoryBudgetAttached()) {
      const support::MemoryBudgetStats ms = support::memoryBudget()->stats();
      rep.spillBytesWritten = ms.spillBytes;
      rep.memoryPeakBytes = ms.peakBytes;
    }
    if (const support::WriteFence* fence = recovery.fence()) {
      rep.fencedWriteAttempts = fence->fencedWriteAttempts();
    }
    *report = std::move(rep);
  };
  const struct PublishOnExit {
    const decltype(publish)& fn;
    ~PublishOnExit() { fn(); }
  } publishOnExit{publish};
  // Driver-side observability: attempt spans land on the dedicated driver
  // lane; eviction/re-read counters mirror the RecoveryReport fields.
  const obs::Sink obsSink = obs::sink();
  uint64_t totalAttempts = 0;

  // The current "base": the host set the pipeline runs over. Evictions
  // shrink it; aliveOriginal[rank] is the ORIGINAL id of the host running
  // as `rank` in the current base. The attempt budget resets per base.
  PartitionerConfig baseConfig = config;
  std::vector<comm::HostId> aliveOriginal(config.numHosts);
  for (uint32_t r = 0; r < config.numHosts; ++r) {
    aliveOriginal[r] = r;
  }
  // Memory-pressure degradation ladder position. Each MemoryPressure fault
  // advances at most one rung (stream windows -> spill -> halve chunks);
  // the cap bounds the free (unmetered) config changes so persistent
  // pressure eventually burns the ordinary attempt budget instead of
  // looping forever.
  uint32_t memoryLadderSteps = 0;
  constexpr uint32_t kMaxMemoryLadderSteps = 16;
  uint64_t epoch = 0;
  // Path A state: base ranks evicted but with phase-5 state recoverable,
  // awaiting a redistribution round; the matching replica payload bytes and
  // the report index of each base rank's eviction record.
  std::vector<uint32_t> pendingRedistribution;
  uint64_t pendingReplicaBytes = 0;
  std::map<uint32_t, size_t> recordIndexOfRank;
  // Heal-time rejoin: a healed partition left a complete phase-5 set, so
  // the next try runs the Path A round over the FULL base (no dead ranks) —
  // every host, including the formerly fenced minority, reloads its state
  // from the checkpoint store and the run finishes at full strength.
  bool healRejoin = false;

  for (;;) {  // one iteration per base (membership epoch)
    const bool baseCheckpoints =
        baseConfig.resilience.enableCheckpoints &&
        !baseConfig.resilience.checkpointDir.empty();
    bool newBase = false;
    for (uint32_t attempt = 0; !newBase;) {
      ++rep.attempts;
      resumeVotes.assign(baseConfig.numHosts,
                         healRejoin && pendingRedistribution.empty() ? 5 : 0);
      try {
        // A cancelled/expired job must not start another full pipeline run;
        // JobCancelled is not a fault, so the catch below rethrows it.
        if (const auto& cancel = config.resilience.cancel) {
          cancel->check("partition driver attempt " +
                        std::to_string(totalAttempts + 1));
        }
        ++totalAttempts;
        obs::ScopedSpan attemptSpan(
            obsSink.trace.get(), obs::kDriverLane,
            (healRejoin ? "partition rejoin "
                        : pendingRedistribution.empty() ? "attempt "
                                                        : "redistribution ") +
                std::to_string(totalAttempts));
        PartitionResult result =
            healRejoin ? runRedistributionRound(baseConfig, recovery, {})
            : pendingRedistribution.empty()
                ? runPipeline(file, policy, baseConfig, recovery, &resumeVotes)
                : runRedistributionRound(baseConfig, recovery,
                                         pendingRedistribution);
        if (!pendingRedistribution.empty()) {
          if (obsSink.metrics) {
            obsSink.metrics->counter("cusp.partitioner.replica_bytes_read")
                .add(pendingReplicaBytes);
          }
          rep.replicaBytesRead += pendingReplicaBytes;
          for (uint32_t d : pendingRedistribution) {
            rep.evictions[recordIndexOfRank.at(d)].redistributed = true;
          }
        }
        rep.finalNumHosts = static_cast<uint32_t>(result.partitions.size());
        return result;
      } catch (...) {
        const auto fault = classifyFault(std::current_exception());
        if (!fault) {
          throw;  // not a fault exception; never retried
        }
        rep.failures.emplace_back(fault->what);
        rep.failureKinds.emplace_back(fault->kindName());
        const auto& injector = recovery.injector();
        const auto& monitor = recovery.stragglerMonitor();

        // --- split-brain quorum rung --------------------------------------
        // A timed partition event is in force: resolve it under the quorum
        // rule instead of burning recovery attempts against a cluster that
        // cannot agree. A strict-majority component fences the minority and
        // proceeds; an even split fails fast on both sides; a healing
        // partition lifts the fences and the fenced hosts rejoin from the
        // checkpoint store. Minority ranks evicted here keep their stores
        // (the machines are fenced, not dead), so the shared eviction
        // machinery below treats them like condemned stragglers.
        std::vector<uint32_t> partitionFenced;
        const auto pendingPartition = injector != nullptr
                                          ? injector->unresolvedPartition()
                                          : std::nullopt;
        if (baseConfig.resilience.degradedMode && pendingPartition &&
            baseConfig.numHosts > 1) {
          const comm::PartitionEvent pe =
              injector->partitionEvent(*pendingPartition);
          if (pe.groupOf.size() == baseConfig.numHosts) {
            ++rep.partitionEvents;
            if (obsSink.metrics) {
              obsSink.metrics->counter("cusp.net.partition.events").add();
            }
            std::map<uint8_t, uint32_t> groupSize;
            for (uint32_t r = 0; r < baseConfig.numHosts; ++r) {
              ++groupSize[pe.groupOf[r]];
            }
            int majorityGroup = -1;
            for (const auto& [group, size] : groupSize) {
              if (size * 2 > baseConfig.numHosts) {
                majorityGroup = group;
              }
            }
            if (majorityGroup < 0) {
              // Even split: no component holds a strict majority, so neither
              // side may evict the other and proceed. Both sides have fenced
              // themselves (Network::enforceQuorumOnFailure) and thrown
              // MinorityPartition; fail fast without spending attempts on an
              // unwinnable agreement.
              throw;
            }
            // Degraded mode: the run built its fence.
            support::WriteFence& fence = *recovery.fence();
            fence.advance(++epoch);
            for (uint32_t r = 0; r < baseConfig.numHosts; ++r) {
              if (pe.groupOf[r] != static_cast<uint8_t>(majorityGroup)) {
                partitionFenced.push_back(r);
                fence.fence(r);
                rep.fencedHosts.push_back(aliveOriginal[r]);
              }
            }
            injector->resolvePartition(*pendingPartition);
            if (pe.heals) {
              // Heal-time rejoin: connectivity is restored, so the fenced
              // hosts lift their fences and rejoin at full strength. With a
              // complete phase-5 set the rejoin runs the Path A round over
              // the full base; otherwise the next pipeline attempt restores
              // every host — the healed minority included — from the last
              // common checkpoint. Either way the run completes at full
              // size, and a deterministic policy reproduces the clean
              // output bit for bit.
              for (uint32_t r : partitionFenced) {
                fence.lift(r);
                rep.rejoinedHosts.push_back(aliveOriginal[r]);
              }
              if (obsSink.metrics) {
                obsSink.metrics->counter("cusp.net.partition.heals").add();
                obsSink.metrics->counter("cusp.net.partition.rejoins")
                    .add(partitionFenced.size());
              }
              bool p5Complete = baseCheckpoints;
              for (uint32_t r = 0; p5Complete && r < baseConfig.numHosts;
                   ++r) {
                p5Complete = loadCheckpoint(baseConfig.resilience.checkpointDir,
                                            r, baseConfig.numHosts, 5)
                                 .has_value();
              }
              healRejoin = p5Complete;
              continue;  // the fault was the partition's; no attempt burned
            }
            if (obsSink.metrics) {
              obsSink.metrics->counter("cusp.net.partition.quorum_evictions")
                  .add(partitionFenced.size());
            }
            // No heal: fall through to the eviction machinery with the
            // minority marked for removal from the base — still without
            // burning an attempt (partitionFenced forces `evictable`).
          }
        }
        if (partitionFenced.empty() &&
            fault->kind == ClassifiedFault::kMinorityPartition) {
          // A fenced minority without a resolvable partition event (an
          // asymmetric link cut isolated the host for good): fail-fast by
          // contract — no retry can win back a quorum that is not there.
          throw;
        }

        // --- memory-pressure degradation ladder ---------------------------
        // A refused reservation is a resource-shape problem, not a transient
        // fault: retrying the identical configuration would hit the same
        // wall. Walk one rung per event — (1) stream windows instead of
        // materializing them, (2) spill streamed chunks compressed next to
        // the checkpoints, (3) halve the chunk size — and only when the
        // ladder is exhausted fall through to the plain retry/throw path.
        if (fault->kind == ClassifiedFault::kMemoryPressure) {
          ++rep.memoryPressureEvents;
          if (obsSink.metrics) {
            obsSink.metrics->counter("cusp.mem.pressure_events").add();
          }
          if (memoryLadderSteps < kMaxMemoryLadderSteps) {
            ++memoryLadderSteps;
            if (!baseConfig.forceStreamingWindows) {
              baseConfig.forceStreamingWindows = true;
              CUSP_LOG_WARN() << "memory pressure: switching to streaming "
                                 "window reads";
              continue;
            }
            if (baseConfig.spillDir.empty() && baseCheckpoints) {
              baseConfig.spillDir =
                  baseConfig.resilience.checkpointDir + "/spill";
              CUSP_LOG_WARN() << "memory pressure: spilling window chunks "
                                 "to "
                              << baseConfig.spillDir;
              continue;
            }
            if (baseConfig.streamChunkEdges > 1024) {
              baseConfig.streamChunkEdges = std::max<uint64_t>(
                  1024, baseConfig.streamChunkEdges / 2);
              CUSP_LOG_WARN() << "memory pressure: shrinking stream chunks "
                                 "to "
                              << baseConfig.streamChunkEdges << " edges";
              continue;
            }
          }
          // Ladder exhausted: fall through to the ordinary retry budget.
        }

        const bool crashEvictable =
            fault->kind == ClassifiedFault::kHostFailure &&
            injector != nullptr && fault->host != comm::kAnyHost &&
            injector->isPermanentlyDown(fault->host);
        const bool stragglerEvictable =
            fault->kind == ClassifiedFault::kStragglerDeadline &&
            monitor != nullptr && fault->host != comm::kAnyHost &&
            monitor->isCondemned(fault->host);
        const bool evictable =
            baseConfig.resilience.degradedMode &&
            (crashEvictable || stragglerEvictable ||
             !partitionFenced.empty()) &&
            baseConfig.numHosts > 1;
        if (!evictable) {
          if (++attempt >= maxAttempts) {
            throw;
          }
          continue;  // plain retry: transient crash, stall, or lost sends
        }

        // --- membership eviction ------------------------------------------
        // Every permanently-down and every condemned base rank is evicted
        // together (a second machine may have died — or stalled — in the
        // same run). Crashed ranks lose their checkpoint stores; condemned
        // stragglers keep theirs (the machine is slow, not dead), and so do
        // the quorum-fenced minority's.
        std::vector<bool> dead(baseConfig.numHosts, false);
        std::vector<bool> crashedRank(baseConfig.numHosts, false);
        for (const EvictionCandidate& c : recovery.evictionCandidates({})) {
          dead[c.host] = true;
          crashedRank[c.host] = c.crashed;
        }
        for (uint32_t r : partitionFenced) {
          dead[r] = true;
        }
        std::vector<uint32_t> deadRanks;
        for (uint32_t r = 0; r < baseConfig.numHosts; ++r) {
          if (dead[r]) {
            deadRanks.push_back(r);
          }
        }
        for (uint32_t d : deadRanks) {
          if (recordIndexOfRank.count(d) != 0) {
            continue;  // evicted earlier in this base
          }
          ++epoch;
          if (obsSink.metrics) {
            obsSink.metrics->counter("cusp.partitioner.evictions").add();
          }
          recordIndexOfRank[d] = rep.evictions.size();
          rep.evictions.push_back(EvictionRecord{aliveOriginal[d], fault->phase,
                                                 epoch,
                                                 /*redistributed=*/false,
                                                 /*replicaLost=*/false});
          if (baseCheckpoints && crashedRank[d]) {
            // The dead machine's local store dies with it: its own
            // checkpoints and every buddy replica it held for others.
            removeHostCheckpointStore(baseConfig.resilience.checkpointDir, d,
                                      baseConfig.numHosts, 5);
          }
        }

        // Path A feasibility: every survivor still holds its own phase-5
        // checkpoint AND every dead rank's phase-5 state is recoverable —
        // from its own (still readable) store for condemned stragglers,
        // from its buddy replica for crashed ranks.
        const bool anyCrashed =
            std::find(crashedRank.begin(), crashedRank.end(), true) !=
            crashedRank.end();
        bool feasible = baseCheckpoints &&
                        (!anyCrashed ||
                         baseConfig.resilience.buddyReplication) &&
                        deadRanks.size() < baseConfig.numHosts;
        pendingReplicaBytes = 0;
        if (feasible) {
          for (uint32_t r = 0; r < baseConfig.numHosts; ++r) {
            if (!dead[r] &&
                !loadCheckpoint(baseConfig.resilience.checkpointDir, r,
                                baseConfig.numHosts, 5)) {
              feasible = false;  // mid-pipeline loss: no complete p5 set
            }
          }
          if (feasible) {
            for (uint32_t d : deadRanks) {
              if (!crashedRank[d] &&
                  loadCheckpoint(baseConfig.resilience.checkpointDir, d,
                                 baseConfig.numHosts, 5)) {
                continue;  // condemned straggler's own store answers
              }
              const auto replica =
                  loadCheckpointReplica(baseConfig.resilience.checkpointDir,
                                        d, baseConfig.numHosts, 5);
              if (!replica) {
                feasible = false;  // buddy died too; replica gone with it
                rep.evictions[recordIndexOfRank.at(d)].replicaLost = true;
              } else {
                pendingReplicaBytes += replica->size();
              }
            }
          }
        }
        if (feasible) {
          pendingRedistribution = deadRanks;
          continue;  // next try runs the redistribution round
        }

        // --- Path B: shrink the base and re-partition ---------------------
        std::vector<comm::HostId> newAlive;
        std::vector<uint32_t> survivorOldRank;
        for (uint32_t r = 0; r < baseConfig.numHosts; ++r) {
          if (!dead[r]) {
            newAlive.push_back(aliveOriginal[r]);
            survivorOldRank.push_back(r);
          }
        }
        if (newAlive.empty()) {
          throw;  // every host is gone; nothing to degrade to
        }
        const uint32_t m = static_cast<uint32_t>(newAlive.size());
        // Adopted-window bookkeeping: the new m-way split re-reads the
        // dead hosts' old windows; record which survivor re-reads which
        // slice and the modeled bytes beyond each survivor's own old
        // window.
        const auto oldRanges =
            readRangesFor(file, baseConfig, baseConfig.numHosts);
        const auto newRanges = readRangesFor(file, baseConfig, m);
        const bool withData = file.hasEdgeData();
        uint64_t bytesReRead = 0;
        for (uint32_t r = 0; r < m; ++r) {
          const ReadRange& mine = newRanges[r];
          for (uint32_t d : deadRanks) {
            const ReadRange adopted = intersectRanges(mine, oldRanges[d]);
            if (adopted.numNodes() == 0 && adopted.numEdges() == 0) {
              continue;
            }
            rep.adoptedRanges.push_back(AdoptedEdgeRange{
                newAlive[r], aliveOriginal[d], adopted.nodeBegin,
                adopted.nodeEnd, adopted.edgeBegin, adopted.edgeEnd});
          }
          const ReadRange keep =
              intersectRanges(mine, oldRanges[survivorOldRank[r]]);
          bytesReRead +=
              windowBytes(mine, withData) - windowBytes(keep, withData);
        }
        rep.bytesReRead += bytesReRead;
        if (obsSink.metrics) {
          obsSink.metrics->counter("cusp.partitioner.bytes_reread")
              .add(bytesReRead);
        }
        aliveOriginal = std::move(newAlive);
        baseConfig.numHosts = m;
        if (checkpoints) {
          // Old-base checkpoints carry numHosts == old size and would be
          // rejected anyway (with a warning); the shrunk base gets its own
          // epoch-stamped directory.
          baseConfig.resilience.checkpointDir =
              config.resilience.checkpointDir + "/e" + std::to_string(epoch);
        }
        // Project the ORIGINAL plan onto the survivors: faults pinned to
        // evicted hosts disappear; the rest follow their host to its new
        // rank. (A transient crash that already fired may fire once more in
        // the fresh injector — it is retryable and merely costs an attempt.)
        recovery.rebase(m, config.resilience.faultPlan == nullptr
                               ? nullptr
                               : std::make_shared<comm::FaultPlan>(
                                     remapFaultPlan(*config.resilience.faultPlan,
                                                    aliveOriginal)));
        healRejoin = false;
        pendingRedistribution.clear();
        pendingReplicaBytes = 0;
        recordIndexOfRank.clear();
        newBase = true;  // fresh attempt budget for the shrunk cluster
      }
    }
  }
}

PartitionResult partitionGraphCsc(const graph::GraphFile& cscFile,
                                  const PartitionPolicy& policy,
                                  const PartitionerConfig& config) {
  PartitionResult result = partitionGraph(cscFile, policy, config);
  // The streamed file was the transpose of the logical graph, so each
  // partition's orientation flag flips relative to the logical graph: a
  // plain run produced in-edge rows (CSC of the logical graph), and a
  // buildTranspose run produced out-edge rows (CSR of the logical graph).
  for (DistGraph& part : result.partitions) {
    part.isTransposed = !part.isTransposed;
  }
  return result;
}

}  // namespace cusp::core
