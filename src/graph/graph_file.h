// On-disk binary CSR graph format and the "disk" abstraction for CuSP.
//
// Format (little-endian, file extension .cgr), modelled on the Galois .gr
// format the paper's implementation consumes:
//
//   u64 magic          'C','G','R','1',0,0,0,0
//   u64 sizeofEdgeData 0 (unweighted) or 4 (uint32 weights)
//   u64 numNodes
//   u64 numEdges
//   u64 rowStart[numNodes + 1]   exclusive prefix sum of out-degrees
//   u64 dests[numEdges]
//   u32 edgeData[numEdges]       present iff sizeofEdgeData == 4
//
// GraphFile plays the role of the Lustre-resident input in the paper: it is
// immutable, shared by all simulated hosts, and hosts read *windows* of it
// (a contiguous node range plus that range's edges) during the
// graph-reading phase. GraphFile can be backed by a real file on disk or
// constructed directly from an in-memory CsrGraph (tests and benches use
// both paths; they are byte-for-byte equivalent).
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/csr_graph.h"

namespace cusp::graph {

// Structured error for every way a graph file can be unusable: missing,
// truncated, bad magic, a header whose claimed node/edge counts cannot fit
// in the actual file, a corrupt index, or a failed checksum. Loaders
// validate the header against the real file size BEFORE sizing any buffer,
// so a garbage header can never trigger a huge allocation or a read past
// the end of the payload. Derives from std::runtime_error so existing
// catch sites keep working; `path()`/`reason()` give callers the pieces.
class GraphFileError : public std::runtime_error {
 public:
  GraphFileError(const std::string& path, const std::string& reason)
      : std::runtime_error("GraphFile: " + reason + " [" + path + "]"),
        path_(path),
        reason_(reason) {}

  const std::string& path() const { return path_; }
  const std::string& reason() const { return reason_; }

 private:
  std::string path_;
  std::string reason_;
};

class GraphFile {
 public:
  GraphFile() = default;

  // Wraps an in-memory graph (no disk involved). The graph is copied.
  static GraphFile fromCsr(const CsrGraph& graph);

  // Reads a .cgr file fully into memory, validating the header against the
  // actual file size before any allocation. Throws GraphFileError on any
  // malformed input (missing file, bad magic, counts that don't fit the
  // file, corrupt index, checksum mismatch).
  static GraphFile load(const std::string& path);

  // True bounded-window streaming open: materializes only the header and the
  // row index ((numNodes + 1) * 8 bytes); destinations and edge data stay on
  // disk and are fetched per edge range with destWindow / edgeDataWindow.
  // The CRC footer is verified at open time with a
  // chunked streaming read (bounded buffer), so at-rest corruption is caught
  // up front exactly as load() catches it. Whole-image accessors
  // (destinations(), outNeighbors(), edgeData()) throw GraphFileError in
  // this mode — callers must go through the window API.
  static GraphFile openWindowed(const std::string& path);

  // Writes `graph` to `path` in .cgr format.
  static void save(const std::string& path, const CsrGraph& graph);

  uint64_t numNodes() const { return numNodes_; }
  uint64_t numEdges() const { return numEdges_; }
  bool hasEdgeData() const { return hasEdgeData_; }
  bool windowed() const { return windowed_; }

  // Whole-file accessors (the "disk contents"). destinations() and
  // edgeDataArray() require a fully materialized file (they throw
  // GraphFileError when windowed()); rowStarts() works in both modes.
  std::span<const uint64_t> rowStarts() const { return rowStart_; }
  std::span<const uint64_t> destinations() const {
    requireResident("destinations()");
    return dests_;
  }
  std::span<const uint32_t> edgeDataArray() const {
    requireResident("edgeDataArray()");
    return edgeData_;
  }

  // Views of the edge range [edgeBegin, edgeEnd), the only way hosts touch
  // edges in either mode. A resident file returns a subspan of its own
  // array and leaves `buffer` alone; a windowed file reads the range into
  // `buffer` and returns a span of it. The view is byte-identical to slicing
  // the in-memory arrays (the streaming fuzz test asserts this) and lives as
  // long as the file or the buffer. Windowed reads go through
  // support::readFileRange, so injected storage faults apply; every fetched
  // destination is re-validated against numNodes. edgeDataWindow is empty
  // without edge data. Throws GraphFileError on truncation or a read fault.
  std::span<const uint64_t> destWindow(uint64_t edgeBegin, uint64_t edgeEnd,
                                       std::vector<uint64_t>& buffer) const;
  std::span<const uint32_t> edgeDataWindow(
      uint64_t edgeBegin, uint64_t edgeEnd,
      std::vector<uint32_t>& buffer) const;

  uint64_t outDegree(uint64_t node) const {
    return rowStart_[node + 1] - rowStart_[node];
  }
  uint64_t firstOutEdge(uint64_t node) const { return rowStart_[node]; }
  std::span<const uint64_t> outNeighbors(uint64_t node) const {
    return destinations().subspan(rowStart_[node],
                                  rowStart_[node + 1] - rowStart_[node]);
  }
  uint32_t edgeData(uint64_t edge) const {
    requireResident("edgeData()");
    return edgeData_.empty() ? 0 : edgeData_[edge];
  }

  // Materializes the full graph (used by offline partitioners, which by
  // definition load the whole graph). Works in windowed mode too, streaming
  // the edges in bounded chunks.
  CsrGraph toCsr() const;

  // --- Galois .gr (version 1) interop ---
  //
  // The format the real CuSP/Galois ecosystem consumes: u64 header
  // {version=1, sizeofEdgeData, numNodes, numEdges}, u64 outIdxs[numNodes]
  // (row END offsets), u32 dests[numEdges] padded to 8 bytes, then u32
  // edge data if sizeofEdgeData == 4. Node ids are 32-bit in v1, so graphs
  // with 2^32+ nodes are rejected on save.
  static GraphFile loadGalois(const std::string& path);
  static void saveGalois(const std::string& path, const CsrGraph& graph);

 private:
  void requireResident(const char* what) const {
    if (windowed_) {
      throw GraphFileError(path_, std::string(what) +
                                      " requires a resident file; use the "
                                      "window API in windowed mode");
    }
  }

  uint64_t numNodes_ = 0;
  uint64_t numEdges_ = 0;
  bool hasEdgeData_ = false;
  std::vector<uint64_t> rowStart_{0};
  std::vector<uint64_t> dests_;
  std::vector<uint32_t> edgeData_;

  // Windowed-mode state: the backing file path and the byte offsets of the
  // on-disk destination / edge-data arrays (fixed by the .cgr layout once
  // the header is read).
  bool windowed_ = false;
  std::string path_;
  uint64_t destOffset_ = 0;
  uint64_t edgeDataOffset_ = 0;
};

// A host's assigned window of the on-disk graph: the contiguous node range
// [nodeBegin, nodeEnd) and that range's edge range [edgeBegin, edgeEnd).
struct ReadRange {
  uint64_t nodeBegin = 0;
  uint64_t nodeEnd = 0;
  uint64_t edgeBegin = 0;
  uint64_t edgeEnd = 0;

  uint64_t numNodes() const { return nodeEnd - nodeBegin; }
  uint64_t numEdges() const { return edgeEnd - edgeBegin; }
  friend bool operator==(const ReadRange&, const ReadRange&) = default;
};

// Splits the node sequence into `numHosts` contiguous ranges balancing the
// weighted unit count nodeWeight * nodes + edgeWeight * edges per range
// (paper Section IV-B1: edge-balanced by default, tunable toward node
// balance). Never splits a node's out-edges across hosts. Ranges cover
// [0, numNodes) exactly and are non-overlapping.
std::vector<ReadRange> computeReadRanges(std::span<const uint64_t> rowStart,
                                         uint32_t numHosts,
                                         double nodeWeight = 0.0,
                                         double edgeWeight = 1.0);

inline std::vector<ReadRange> computeReadRanges(const GraphFile& file,
                                                uint32_t numHosts,
                                                double nodeWeight = 0.0,
                                                double edgeWeight = 1.0) {
  return computeReadRanges(file.rowStarts(), numHosts, nodeWeight, edgeWeight);
}

// Splits nodes using the paper's ContiguousEB formula:
//   blockSize = ceil((numEdges + 1) / numHosts)
//   host(v)   = floor(firstOutEdge(v) / blockSize)
// This is the partitioner's default reading split so that the ContiguousEB
// master rule assigns every vertex to the host that read it — which is what
// makes EEC communication-free (paper Section V-A).
std::vector<ReadRange> contiguousEbRanges(std::span<const uint64_t> rowStart,
                                          uint32_t numHosts);

inline std::vector<ReadRange> contiguousEbRanges(const GraphFile& file,
                                                 uint32_t numHosts) {
  return contiguousEbRanges(file.rowStarts(), numHosts);
}

// Returns the host whose read range contains `node` (binary search).
uint32_t readingHostOf(std::span<const ReadRange> ranges, uint64_t node);

}  // namespace cusp::graph
