// The CuSP streaming edge partitioner: five phases over a simulated
// distributed cluster (paper Section IV-B, Fig. 2):
//
//   1. Graph reading      — each host loads a contiguous, edge-balanced
//                           window of the on-disk CSR into memory.
//   2. Master assignment  — getMaster over read vertices; masters and
//                           partitioning state synchronized in periodic
//                           rounds (skipped entirely for pure rules).
//   3. Edge assignment    — getEdgeOwner over read edges; per-host outgoing
//                           edge counts (positional vectors, IV-D2) and
//                           createMirror flags exchanged.
//   4. Graph allocation   — local CSR memory allocated up front from the
//                           received counts; dense global->local id table
//                           built; partitioning state reset.
//   5. Graph construction — edges re-streamed and shipped in large buffered
//                           messages (IV-D3) to their owners, inserted in
//                           parallel with atomic per-row cursors while a
//                           dedicated receiver thread drains the network
//                           (IV-D1); optional in-memory transpose to CSC.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "comm/network.h"
#include "core/dist_graph.h"
#include "core/policies.h"
#include "graph/graph_file.h"
#include "support/cancel.h"
#include "support/memory.h"
#include "support/timer.h"

namespace cusp::core {

// Fault-tolerance knobs; everything off by default, in which case the
// partitioner's behavior (messages, bytes, outputs) is identical to a
// build without any of the fault machinery.
struct ResilienceConfig {
  // Directory for per-phase checkpoints (h<host>.p<phase>.ckpt). Hosts
  // checkpoint after each completed phase and partitionGraphResilient
  // restarts crashed runs from the last phase completed by EVERY host.
  // Empty or enableCheckpoints=false disables checkpointing.
  std::string checkpointDir;
  bool enableCheckpoints = false;

  // How many times partitionGraphResilient re-runs the pipeline after a
  // fault exception before giving up and rethrowing.
  uint32_t maxRecoveryAttempts = 3;

  // Bounds every blocking receive; on expiry the receive throws
  // NetworkStalled naming each blocked host and its tag, instead of
  // hanging. <= 0 = unbounded (the default).
  double recvTimeoutSeconds = 0.0;

  // Deterministic fault plan to inject (drops/duplicates/delays/crashes);
  // null or empty = clean network.
  std::shared_ptr<const comm::FaultPlan> faultPlan;

  // Deterministic memory-fault plan (support/memory.h): allocation refusals
  // and budget shrinks injected into the budget the entry points attach
  // when memoryBudgetBytes > 0. Ignored when a budget is already attached
  // process-wide (the pre-attached budget keeps its own plan). Null or
  // empty = clean budget.
  std::shared_ptr<const support::MemoryFaultPlan> memoryFaultPlan;

  // Retry budget for dropped messages (Network::sendReliable).
  comm::RetryPolicy retry;

  // Degraded completion after PERMANENT host loss (core/degraded.h): when a
  // host that will never reboot crashes, evict it from the membership and
  // finish on the survivors — either by redistributing phase-5 checkpoint
  // state (buddyReplication below) or by re-partitioning over the shrunk
  // host set — instead of rethrowing once the attempt budget is spent.
  // Strictly opt-in: off, permanent crashes burn the retry budget exactly
  // like transient ones and outputs are unchanged.
  bool degradedMode = false;

  // Mirror every checkpoint to the host's ring successor
  // (h<buddy>.p<phase>.buddy<owner>.ckpt) so a dead host's phase state
  // survives the loss of its local store. Needs enableCheckpoints. Off by
  // default: no replica files are written and restores never consult them.
  bool buddyReplication = false;

  // Straggler deadlines (comm::StragglerPolicy): receivers blocked on one
  // slow peer past the soft deadline emit blame reports through obs; a
  // peer over the hard deadline is condemned and — with degradedMode on —
  // evicted into the degraded paths like a permanent crash, except that
  // its checkpoint store stays readable (the machine is slow, not dead).
  comm::StragglerPolicy straggler;

  // Age threshold (seconds) before the driver's startup GC sweeps
  // .quarantined checkpoint files; orphaned .tmp commit debris is always
  // swept regardless of age. Exposed so operators (and tests) can tighten
  // the forensic-retention window (--checkpoint-gc-age).
  double checkpointGcAgeSeconds = 24.0 * 3600.0;

  // Cooperative cancellation (support/cancel.h): when set, every host
  // checks the token at phase boundaries and the resilient driver checks
  // it before starting another attempt. An expired token unwinds the run
  // with support::JobCancelled, which classifyFault does NOT treat as a
  // fault — so it propagates to the caller immediately instead of burning
  // recovery attempts. Null (the default) never cancels.
  std::shared_ptr<support::CancelToken> cancel;
};

// One membership eviction performed by the degraded-mode driver.
struct EvictionRecord {
  uint32_t host = 0;   // ORIGINAL host id of the evicted host
  uint32_t phase = 0;  // pipeline phase of the fatal failure (0 = outside)
  uint64_t epoch = 0;  // driver membership epoch after this eviction
  // Path A succeeded: survivors redistributed phase-5 checkpoint state
  // instead of re-partitioning.
  bool redistributed = false;
  // The dead host's buddy replica was unavailable (typically because the
  // buddy died too); the driver fell back to a full re-partition.
  bool replicaLost = false;
};

// A slice of an evicted host's old read window that a survivor re-reads in
// the degraded re-partition (Path B). Hosts are ORIGINAL ids; node/edge
// bounds are global CSR coordinates.
struct AdoptedEdgeRange {
  uint32_t survivor = 0;
  uint32_t evicted = 0;
  uint64_t nodeBegin = 0, nodeEnd = 0;
  uint64_t edgeBegin = 0, edgeEnd = 0;
};

// What partitionGraphResilient did to produce its result.
struct RecoveryReport {
  uint32_t attempts = 0;  // pipeline runs, including the successful one
  // what() of every fault exception that triggered a re-run, in order.
  std::vector<std::string> failures;
  // Classified kind of each entry of `failures` (parallel vector):
  // "HostFailure" | "NetworkStalled" | "SendRetriesExhausted" |
  // "HostEvicted" (core/degraded.h).
  std::vector<std::string> failureKinds;
  // Resume phase of the final attempt: the pipeline restarted after this
  // phase (0 = ran from scratch).
  uint32_t resumedFromPhase = 0;

  // Degraded mode only (empty/zero otherwise):
  std::vector<EvictionRecord> evictions;
  std::vector<AdoptedEdgeRange> adoptedRanges;
  // Modeled bytes of graph file re-read by survivors beyond their own old
  // windows during degraded re-partitions (row offsets + destinations +
  // edge data of the newly adopted slices).
  uint64_t bytesReRead = 0;
  // Bytes of buddy-replica checkpoint payloads consumed by Path A.
  uint64_t replicaBytesRead = 0;
  // Host count of the returned partition set (== config.numHosts unless
  // evictions shrank the cluster).
  uint32_t finalNumHosts = 0;

  // Storage-fault outcomes: checkpoint writes that failed and were absorbed
  // (the phase continued uncheckpointed), and whether a persistent ENOSPC
  // flipped the run into checkpointing-disabled continuation mode.
  uint32_t checkpointWriteFailures = 0;
  bool checkpointingDisabledByEnospc = false;
  // Soft straggler reports accumulated by the run's StragglerMonitor.
  uint64_t stragglerSoftReports = 0;

  // Memory-governor outcomes (zero without a budget): MemoryPressure faults
  // the degradation ladder absorbed, cumulative bytes spilled to disk, and
  // the budget's high-water mark over the whole run.
  uint32_t memoryPressureEvents = 0;
  uint64_t spillBytesWritten = 0;
  uint64_t memoryPeakBytes = 0;

  // Split-brain outcomes (zero/empty without partition events): partition
  // events the driver resolved under the quorum rule, ORIGINAL ids of the
  // minority hosts fenced by those events, the subset that later healed and
  // rejoined via checkpoint redistribution, and checkpoint writes refused
  // by the fencing token (asserted zero debris through the storage seam).
  uint32_t partitionEvents = 0;
  std::vector<uint32_t> fencedHosts;
  std::vector<uint32_t> rejoinedHosts;
  uint64_t fencedWriteAttempts = 0;
};

struct PartitionerConfig {
  uint32_t numHosts = 4;

  // Message-buffering threshold for graph construction (paper IV-D3;
  // evaluation default 8 MB, Fig. 7 sweeps it). 0 = send immediately.
  size_t messageBufferThreshold = 8ull << 20;

  // Number of synchronization rounds in the master-assignment phase for
  // stateful policies (paper IV-D4/V-D2; evaluation default 100).
  uint32_t stateSyncRounds = 100;

  // Reading-split importance weights (paper IV-B1: command-line arguments
  // balancing nodes and/or edges). The default (0, 1) uses the paper's
  // ContiguousEB-aligned edge-balanced split, which makes EEC
  // communication-free; any other combination uses a weighted split.
  double readNodeWeight = 0.0;
  double readEdgeWeight = 1.0;

  // Produce the partition in CSC orientation (in-memory transpose after
  // construction; paper IV-B5).
  bool buildTranspose = false;

  // Intra-host parallelism for the assignment/construction loops.
  unsigned threadsPerHost = 1;

  // Compress graph-construction edge batches: each record's destinations
  // are sorted and delta+varint coded (rows are canonically sorted after
  // construction anyway, so per-record sorting is free). Cuts the
  // construction-phase volume severalfold on dense id spaces; ablated in
  // bench_ablation_optimizations.
  bool compressEdgeBatches = false;

  // Streaming-window mode (the ADWISE class of paper Section II-B2, left
  // as future work there): when > 1 and the edge rule provides a
  // windowScore, each host keeps a window of this many scanned edges and
  // repeatedly assigns the highest-scoring one instead of the next edge in
  // stream order. 0/1 = plain streaming.
  uint32_t windowSize = 0;

  // Ablation switch: when true, pure master rules are NOT detected and the
  // full stateful machinery runs (request/assignment exchanges, master-list
  // exchange) even though every host could just recompute the assignments.
  // Results are identical; only cost changes. This isolates the paper's
  // replicate-computation-instead-of-communication optimization (IV-D5).
  bool disablePureMasterOptimization = false;

  // Interconnect cost model for the simulated cluster (per-message
  // overhead and bandwidth); zero-cost by default.
  comm::NetworkCostModel networkCostModel;

  // Send-aggregation tuning for this run's networks (packetBytes,
  // maxAgeSeconds). Unset = comm::AggregationPolicy{}: a 1400-byte packet
  // cap and no receiver-side age pull.
  std::optional<comm::AggregationPolicy> aggregation;

  // Simulated per-host disk bandwidth for the graph-reading phase, in
  // MB/s; 0 disables throttling. The simulation's "disk" is host memory,
  // so without this knob reading is a memcpy and the reading-dominated
  // profile of communication-free policies (paper Fig. 4, EEC) cannot
  // appear. Hosts read their windows concurrently, as on a parallel
  // filesystem.
  double simulatedDiskBandwidthMBps = 0.0;

  // ---- memory governor (support/memory.h) --------------------------------

  // Hard per-process memory budget in bytes; 0 = unbudgeted (every code
  // path identical to a build without the governor). When set, the
  // partitioning entry points attach a process-wide support::MemoryBudget
  // for the duration of the run (unless one is already attached, e.g. by
  // the --memory-budget CLI), hot containers charge it, and over-budget
  // reservations surface as support::MemoryPressure — which
  // partitionGraphResilient degrades through instead of dying.
  uint64_t memoryBudgetBytes = 0;

  // Force bounded-window streaming in the reading phase even when the
  // window would fit the budget (or no budget is attached): later phases
  // re-stream the host's edge window in node-aligned chunks of
  // streamChunkEdges edges instead of keeping it resident. First rung of
  // the degradation ladder; also useful for testing. Partitions are
  // bit-identical to resident-window runs for deterministic policies.
  bool forceStreamingWindows = false;

  // Directory for spilled cold state (delta+varint-compressed edge-window
  // segments, support/memory.h codec). Empty = no spill: streaming re-reads
  // chunks from the GraphFile each pass. Second rung of the ladder — the
  // resilient driver points this into <checkpointDir>/spill when pressure
  // persists with streaming on.
  std::string spillDir;

  // Edges per streaming chunk (node-aligned; a node with a larger degree
  // gets a chunk of its own). Third rung: the driver halves this under
  // repeated pressure. Chunk size changes processing granularity only,
  // never output.
  uint64_t streamChunkEdges = 1ull << 16;

  // Fault-tolerance knobs (fault injection, recv timeouts, checkpoints,
  // retry); all off by default. partitionGraph honors the injection/
  // timeout/retry/checkpoint knobs; the recovery loop lives in
  // partitionGraphResilient.
  ResilienceConfig resilience;
};

struct PartitionResult {
  std::vector<DistGraph> partitions;
  // Per-phase simulated cluster times: each host accounts its own CPU work
  // plus modeled communication/disk charges; the table holds the
  // element-wise max across hosts (phases are barrier-separated).
  support::PhaseTimes phaseTimes;
  // Cross-host traffic for the whole run, by tag.
  comm::VolumeStats volume;
  // Simulated cluster makespan: sum over phases of the slowest host's time.
  double totalSeconds = 0.0;
  // Actual wall-clock of the simulation on this machine (all host threads
  // time-share the local cores; useful for sanity only).
  double wallSeconds = 0.0;
};

// Runs the full pipeline: spins up config.numHosts simulated hosts,
// partitions `file` under `policy`, and returns all partitions plus timing
// and communication statistics.
PartitionResult partitionGraph(const graph::GraphFile& file,
                               const PartitionPolicy& policy,
                               const PartitionerConfig& config);

// CSC-reading variant (paper Section III-B: every policy has a CSR and a
// CSC variant — PowerLyra's HVC/GVC are the CSC ones, whose heuristics see
// in-degrees/in-edges). `cscFile` must hold the TRANSPOSE of the logical
// graph on disk (use the converters); the partitioner streams it exactly
// like a CSR file, so "out" in every rule means "in" of the logical graph.
// The returned partitions are labeled with the logical orientation:
// without config.buildTranspose their local rows are in-edges
// (isTransposed = true); with it, the in-memory transpose restores out-edge
// rows (isTransposed = false), ready for the analytics engine.
PartitionResult partitionGraphCsc(const graph::GraphFile& cscFile,
                                  const PartitionPolicy& policy,
                                  const PartitionerConfig& config);

// Fault-tolerant driver: runs the pipeline like partitionGraph, but when a
// fault exception escapes (an injected HostFailure, a receive timeout, or
// exhausted send retries) it tears the cluster down and re-runs, resuming
// from the last phase every host holds a valid checkpoint for (see
// core/checkpoint.h; without checkpoints enabled a re-run starts from
// scratch). The same FaultInjector is shared across attempts, so a crash
// fires exactly once and the re-run proceeds past it. Gives up after
// config.resilience.maxRecoveryAttempts runs and rethrows the last fault.
// For deterministic policies the recovered result is bit-identical to a
// fault-free run.
//
// With resilience.degradedMode on, a PERMANENT crash (HostCrash::permanent)
// is handled by eviction instead: the dead host leaves the membership and
// the survivors finish — redistributing phase-5 checkpoint state when buddy
// replicas make that possible (Path A), or re-partitioning over the shrunk
// host set with the dead host's edge window re-read and split across the
// survivors (Path B). The result then spans fewer hosts than
// config.numHosts; the report's evictions/adoptedRanges/finalNumHosts
// describe what happened.
PartitionResult partitionGraphResilient(const graph::GraphFile& file,
                                        const PartitionPolicy& policy,
                                        const PartitionerConfig& config,
                                        RecoveryReport* report = nullptr);

// Host-level entry point for callers that already run inside a Network
// (e.g. an analytics pipeline that partitions and then computes without
// leaving the simulated cluster). Collective: all hosts must call it.
DistGraph partitionOnHost(comm::Network& net, comm::HostId me,
                          const graph::GraphFile& file,
                          const PartitionPolicy& policy,
                          const PartitionerConfig& config,
                          support::PhaseTimes& phaseTimes);

}  // namespace cusp::core
