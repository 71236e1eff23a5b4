#include "graph/graph_file.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <optional>
#include <stdexcept>

#include "support/crc32.h"
#include "support/storage.h"

namespace cusp::graph {

namespace {

constexpr uint64_t kMagic = 0x0000000031524743ULL;  // "CGR1"

// Graph I/O goes through the storage seam (support/storage.h): loads pull
// the whole image with readFileBytes — so injected read failures and
// at-rest bit rot apply — and parse from memory; saves build the image in
// memory and commit it with the durable atomic write protocol, so a crash
// mid-save can never leave a torn .cgr/.gr behind. Graph files are MB-scale
// here, so whole-image buffering is cheap.

// Sequential typed reads over an in-memory file image; all the validation
// of the former FILE*-based reader, with EOF as a typed GraphFileError.
class ByteReader {
 public:
  ByteReader(const std::vector<uint8_t>& bytes, const std::string& path)
      : bytes_(bytes), path_(path) {}

  template <typename T>
  void read(T* data, size_t count) {
    const size_t want = count * sizeof(T);
    if (want > bytes_.size() - pos_) {
      throw GraphFileError(path_, "truncated file");
    }
    if (want > 0) {
      std::memcpy(data, bytes_.data() + pos_, want);
    }
    pos_ += want;
  }

  size_t remaining() const { return bytes_.size() - pos_; }

 private:
  const std::vector<uint8_t>& bytes_;
  const std::string& path_;
  size_t pos_ = 0;
};

template <typename T>
void appendBytes(std::vector<uint8_t>& out, const T* data, size_t count) {
  const size_t bytes = count * sizeof(T);
  if (bytes == 0) {
    return;
  }
  const size_t offset = out.size();
  out.resize(offset + bytes);
  std::memcpy(out.data() + offset, data, bytes);
}

// Whole-image read through the storage seam; missing file and injected
// read failure both surface as typed GraphFileErrors.
std::vector<uint8_t> readImage(const std::string& path) {
  std::optional<std::vector<uint8_t>> image;
  try {
    image = support::readFileBytes(path);
  } catch (const support::StorageError& e) {
    throw GraphFileError(path,
                         std::string("storage read failure (") + e.kindName() +
                             ")");
  }
  if (!image) {
    throw GraphFileError(path, "cannot open");
  }
  return std::move(*image);
}

// Header preflight: rejects claimed element counts whose payload cannot
// possibly fit in `available` bytes — BEFORE any buffer is sized from them.
// A header of random bytes typically claims astronomical counts; without
// this check the loader would attempt a multi-exabyte resize() (or, for
// numNodes == UINT64_MAX, overflow numNodes + 1 to zero and then misindex
// rowStart). Overflow-safe: divides instead of multiplying.
void requireFits(uint64_t count, uint64_t elemSize, uint64_t available,
                 const std::string& path, const char* what) {
  if (count > available / elemSize) {
    throw GraphFileError(path, std::string("header claims more ") + what +
                                   " than the file can hold");
  }
}

}  // namespace

GraphFile GraphFile::fromCsr(const CsrGraph& graph) {
  GraphFile file;
  file.numNodes_ = graph.numNodes();
  file.numEdges_ = graph.numEdges();
  file.rowStart_.assign(graph.rowStarts().begin(), graph.rowStarts().end());
  file.dests_.assign(graph.destinations().begin(),
                     graph.destinations().end());
  file.edgeData_.assign(graph.edgeDataArray().begin(),
                        graph.edgeDataArray().end());
  file.hasEdgeData_ = !file.edgeData_.empty();
  return file;
}

GraphFile GraphFile::load(const std::string& path) {
  const std::vector<uint8_t> image = readImage(path);
  ByteReader reader(image, path);
  const uint64_t fileBytes = image.size();
  if (fileBytes < 4 * sizeof(uint64_t)) {
    throw GraphFileError(path, "truncated header");
  }
  uint32_t crc = 0;
  auto readChecked = [&](auto* data, size_t count) {
    reader.read(data, count);
    crc = support::crc32Update(crc, data, count * sizeof(*data));
  };
  uint64_t header[4];
  readChecked(header, 4);
  if (header[0] != kMagic) {
    throw GraphFileError(path, "bad magic");
  }
  const uint64_t sizeofEdgeData = header[1];
  if (sizeofEdgeData != 0 && sizeofEdgeData != 4) {
    throw GraphFileError(path, "unsupported edge data size");
  }
  GraphFile file;
  file.numNodes_ = header[2];
  file.numEdges_ = header[3];
  // Validate the claimed counts against the real file size before sizing
  // any buffer from them (see requireFits). numNodes + 1 row entries, so
  // reject numNodes at the u64 ceiling outright.
  const uint64_t payloadBytes = fileBytes - 4 * sizeof(uint64_t);
  if (file.numNodes_ == UINT64_MAX) {
    throw GraphFileError(path, "header claims more nodes than the file can hold");
  }
  requireFits(file.numNodes_ + 1, sizeof(uint64_t), payloadBytes, path,
              "nodes");
  requireFits(file.numEdges_, sizeof(uint64_t) + sizeofEdgeData,
              payloadBytes - (file.numNodes_ + 1) * sizeof(uint64_t), path,
              "edges");
  file.rowStart_.resize(file.numNodes_ + 1);
  readChecked(file.rowStart_.data(), file.rowStart_.size());
  if (file.rowStart_.front() != 0 || file.rowStart_.back() != file.numEdges_ ||
      !std::is_sorted(file.rowStart_.begin(), file.rowStart_.end())) {
    throw GraphFileError(path, "corrupt row index");
  }
  file.dests_.resize(file.numEdges_);
  readChecked(file.dests_.data(), file.dests_.size());
  for (uint64_t dst : file.dests_) {
    if (dst >= file.numNodes_) {
      throw GraphFileError(path, "destination out of range");
    }
  }
  if (sizeofEdgeData == 4) {
    file.edgeData_.resize(file.numEdges_);
    readChecked(file.edgeData_.data(), file.edgeData_.size());
  }
  file.hasEdgeData_ = sizeofEdgeData == 4;
  // Optional CRC footer after the payload (newer writers always add it);
  // legacy files simply end here and are accepted unverified.
  uint64_t footer[2];
  if (reader.remaining() >= sizeof(footer)) {
    reader.read(footer, 2);
    if (footer[0] == support::kCrcFooterMagic &&
        footer[1] != static_cast<uint64_t>(crc)) {
      throw GraphFileError(path, "checksum mismatch");
    }
  }
  return file;
}

namespace {

// Byte size of the file at `path` without pulling it into memory; nullopt
// when the file cannot be opened. Metadata only — not a faultable storage
// read (the subsequent range reads are).
std::optional<uint64_t> fileSizeOf(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return std::nullopt;
  }
  std::optional<uint64_t> size;
  if (std::fseek(f, 0, SEEK_END) == 0) {
    const long end = std::ftell(f);
    if (end >= 0) {
      size = static_cast<uint64_t>(end);
    }
  }
  std::fclose(f);
  return size;
}

// Bounded-window read into `out` through the storage seam with typed error
// conversion; a short read means the file is truncated relative to its own
// validated header.
void readRangeChecked(const std::string& path, uint64_t offset,
                      std::span<uint8_t> out) {
  bool complete = false;
  try {
    complete = support::readFileRange(path, offset, out);
  } catch (const support::StorageError& e) {
    throw GraphFileError(path, std::string("storage read failure (") +
                                   e.kindName() + ")");
  }
  if (!complete) {
    throw GraphFileError(path, "truncated file");
  }
}

// readRangeChecked into the bytes of `values`.
template <typename T>
void readValuesChecked(const std::string& path, uint64_t offset,
                       std::vector<T>& values) {
  readRangeChecked(path, offset,
                   {reinterpret_cast<uint8_t*>(values.data()),
                    values.size() * sizeof(T)});
}

// Chunk size for streaming passes over on-disk edge arrays (CRC verify at
// open, toCsr materialization). 4 MiB keeps the resident buffer bounded
// while staying well above the per-call overhead.
constexpr uint64_t kStreamChunkBytes = 4u << 20;

}  // namespace

GraphFile GraphFile::openWindowed(const std::string& path) {
  const std::optional<uint64_t> sizeOpt = fileSizeOf(path);
  if (!sizeOpt) {
    throw GraphFileError(path, "cannot open");
  }
  const uint64_t fileBytes = *sizeOpt;
  if (fileBytes < 4 * sizeof(uint64_t)) {
    throw GraphFileError(path, "truncated header");
  }
  std::vector<uint64_t> header(4);
  readValuesChecked(path, 0, header);
  if (header[0] != kMagic) {
    throw GraphFileError(path, "bad magic");
  }
  const uint64_t sizeofEdgeData = header[1];
  if (sizeofEdgeData != 0 && sizeofEdgeData != 4) {
    throw GraphFileError(path, "unsupported edge data size");
  }
  GraphFile file;
  file.numNodes_ = header[2];
  file.numEdges_ = header[3];
  file.hasEdgeData_ = sizeofEdgeData == 4;
  // Same preflight as load(): validate claimed counts against the real file
  // size before sizing the row index from them.
  const uint64_t payloadBytes = fileBytes - 4 * sizeof(uint64_t);
  if (file.numNodes_ == UINT64_MAX) {
    throw GraphFileError(path,
                         "header claims more nodes than the file can hold");
  }
  requireFits(file.numNodes_ + 1, sizeof(uint64_t), payloadBytes, path,
              "nodes");
  requireFits(file.numEdges_, sizeof(uint64_t) + sizeofEdgeData,
              payloadBytes - (file.numNodes_ + 1) * sizeof(uint64_t), path,
              "edges");
  const uint64_t rowBytes = (file.numNodes_ + 1) * sizeof(uint64_t);
  file.rowStart_.resize(file.numNodes_ + 1);
  readValuesChecked(path, 4 * sizeof(uint64_t), file.rowStart_);
  if (file.rowStart_.front() != 0 || file.rowStart_.back() != file.numEdges_ ||
      !std::is_sorted(file.rowStart_.begin(), file.rowStart_.end())) {
    throw GraphFileError(path, "corrupt row index");
  }
  file.windowed_ = true;
  file.path_ = path;
  file.destOffset_ = 4 * sizeof(uint64_t) + rowBytes;
  file.edgeDataOffset_ = file.destOffset_ + file.numEdges_ * sizeof(uint64_t);
  const uint64_t payloadEnd =
      file.edgeDataOffset_ +
      (file.hasEdgeData_ ? file.numEdges_ * sizeof(uint32_t) : 0);
  if (payloadEnd > fileBytes) {
    throw GraphFileError(path, "truncated file");
  }
  // CRC footer verify via a chunked streaming pass: same guarantee as
  // load() — at-rest corruption anywhere in the image is caught at open —
  // with a bounded buffer instead of a whole-file read. Legacy files with
  // no footer are accepted unverified, as in load().
  if (fileBytes - payloadEnd >= support::kCrcFooterSize) {
    std::vector<uint64_t> footer(support::kCrcFooterSize / sizeof(uint64_t));
    readValuesChecked(path, payloadEnd, footer);
    if (footer[0] == support::kCrcFooterMagic) {
      uint32_t crc = 0;
      std::vector<uint8_t> chunk;
      for (uint64_t offset = 0; offset < payloadEnd;
           offset += kStreamChunkBytes) {
        chunk.resize(std::min(kStreamChunkBytes, payloadEnd - offset));
        readValuesChecked(path, offset, chunk);
        crc = support::crc32Update(crc, chunk.data(), chunk.size());
      }
      if (footer[1] != static_cast<uint64_t>(crc)) {
        throw GraphFileError(path, "checksum mismatch");
      }
    }
  }
  return file;
}

std::span<const uint64_t> GraphFile::destWindow(
    uint64_t edgeBegin, uint64_t edgeEnd,
    std::vector<uint64_t>& buffer) const {
  if (edgeBegin > edgeEnd || edgeEnd > numEdges_) {
    throw GraphFileError(path_, "edge window out of range");
  }
  if (!windowed_) {
    return std::span<const uint64_t>(dests_).subspan(edgeBegin,
                                                     edgeEnd - edgeBegin);
  }
  buffer.resize(edgeEnd - edgeBegin);
  readValuesChecked(path_, destOffset_ + edgeBegin * sizeof(uint64_t),
                    buffer);
  // Re-validate: the open-time CRC covers at-rest state, but this read may
  // itself have been faulted (injected bit rot), and defense-in-depth on a
  // fresh fetch is cheap.
  for (uint64_t dst : buffer) {
    if (dst >= numNodes_) {
      throw GraphFileError(path_, "destination out of range");
    }
  }
  return buffer;
}

std::span<const uint32_t> GraphFile::edgeDataWindow(
    uint64_t edgeBegin, uint64_t edgeEnd,
    std::vector<uint32_t>& buffer) const {
  if (edgeBegin > edgeEnd || edgeEnd > numEdges_) {
    throw GraphFileError(path_, "edge window out of range");
  }
  if (!hasEdgeData_) {
    return {};
  }
  if (!windowed_) {
    return std::span<const uint32_t>(edgeData_).subspan(edgeBegin,
                                                        edgeEnd - edgeBegin);
  }
  buffer.resize(edgeEnd - edgeBegin);
  readValuesChecked(path_, edgeDataOffset_ + edgeBegin * sizeof(uint32_t),
                    buffer);
  return buffer;
}

void GraphFile::save(const std::string& path, const CsrGraph& graph) {
  std::vector<uint8_t> image;
  uint32_t crc = 0;
  auto writeChecked = [&](const auto* data, size_t count) {
    appendBytes(image, data, count);
    crc = support::crc32Update(crc, data, count * sizeof(*data));
  };
  const uint64_t header[4] = {kMagic, graph.hasEdgeData() ? 4ull : 0ull,
                              graph.numNodes(), graph.numEdges()};
  writeChecked(header, 4);
  writeChecked(graph.rowStarts().data(), graph.rowStarts().size());
  writeChecked(graph.destinations().data(), graph.destinations().size());
  if (graph.hasEdgeData()) {
    writeChecked(graph.edgeDataArray().data(), graph.edgeDataArray().size());
  }
  const uint64_t footer[2] = {support::kCrcFooterMagic,
                              static_cast<uint64_t>(crc)};
  appendBytes(image, footer, 2);
  support::atomicWriteFile(path, image);  // StorageError on failure
}

CsrGraph GraphFile::toCsr() const {
  if (!windowed_) {
    return CsrGraph(rowStart_, dests_, edgeData_);
  }
  // Offline consumers materialize the whole graph by definition; stream the
  // on-disk arrays in bounded chunks rather than one whole-file read.
  const uint64_t chunkEdges =
      std::max<uint64_t>(1, kStreamChunkBytes / sizeof(uint64_t));
  std::vector<uint64_t> dests;
  dests.reserve(numEdges_);
  std::vector<uint32_t> edgeData;
  if (hasEdgeData_) {
    edgeData.reserve(numEdges_);
  }
  std::vector<uint64_t> destBuffer;
  std::vector<uint32_t> dataBuffer;
  for (uint64_t e = 0; e < numEdges_; e += chunkEdges) {
    const uint64_t end = std::min(numEdges_, e + chunkEdges);
    const auto destChunk = destWindow(e, end, destBuffer);
    dests.insert(dests.end(), destChunk.begin(), destChunk.end());
    const auto dataChunk = edgeDataWindow(e, end, dataBuffer);
    edgeData.insert(edgeData.end(), dataChunk.begin(), dataChunk.end());
  }
  return CsrGraph(rowStart_, std::move(dests), std::move(edgeData));
}

GraphFile GraphFile::loadGalois(const std::string& path) {
  const std::vector<uint8_t> image = readImage(path);
  ByteReader reader(image, path);
  const uint64_t fileBytes = image.size();
  if (fileBytes < 4 * sizeof(uint64_t)) {
    throw GraphFileError(path, "truncated .gr header");
  }
  uint64_t header[4];
  reader.read(header, 4);
  if (header[0] != 1) {
    throw GraphFileError(path, "unsupported .gr version");
  }
  const uint64_t sizeofEdgeData = header[1];
  if (sizeofEdgeData != 0 && sizeofEdgeData != 4) {
    throw GraphFileError(path, "unsupported .gr edge data size");
  }
  GraphFile file;
  file.numNodes_ = header[2];
  file.numEdges_ = header[3];
  // Same preflight as load(): row index is numNodes u64s, dests numEdges
  // u32s, edge data (if any) numEdges more u32s — all of which must fit
  // the real file before any buffer is sized from the claimed counts.
  const uint64_t payloadBytes = fileBytes - 4 * sizeof(uint64_t);
  if (file.numNodes_ == UINT64_MAX) {
    throw GraphFileError(path,
                         "header claims more nodes than the file can hold");
  }
  requireFits(file.numNodes_, sizeof(uint64_t), payloadBytes, path, "nodes");
  requireFits(file.numEdges_, sizeof(uint32_t) + sizeofEdgeData,
              payloadBytes - file.numNodes_ * sizeof(uint64_t), path, "edges");
  // v1 stores row END offsets; rebuild our rowStart convention.
  std::vector<uint64_t> outIdx(file.numNodes_);
  reader.read(outIdx.data(), outIdx.size());
  file.rowStart_.assign(file.numNodes_ + 1, 0);
  for (uint64_t v = 0; v < file.numNodes_; ++v) {
    file.rowStart_[v + 1] = outIdx[v];
  }
  if ((file.numNodes_ > 0 && file.rowStart_.back() != file.numEdges_) ||
      !std::is_sorted(file.rowStart_.begin(), file.rowStart_.end())) {
    throw GraphFileError(path, "corrupt .gr index");
  }
  std::vector<uint32_t> dests32(file.numEdges_);
  reader.read(dests32.data(), dests32.size());
  file.dests_.assign(dests32.begin(), dests32.end());
  for (uint64_t dst : file.dests_) {
    if (dst >= file.numNodes_) {
      throw GraphFileError(path, ".gr destination out of range");
    }
  }
  if (sizeofEdgeData == 4) {
    if (file.numEdges_ % 2 == 1) {
      uint32_t padding = 0;
      reader.read(&padding, 1);
    }
    file.edgeData_.resize(file.numEdges_);
    reader.read(file.edgeData_.data(), file.edgeData_.size());
  }
  file.hasEdgeData_ = sizeofEdgeData == 4;
  return file;
}

void GraphFile::saveGalois(const std::string& path, const CsrGraph& graph) {
  if (graph.numNodes() > UINT32_MAX) {
    throw std::invalid_argument(
        "GraphFile: .gr v1 cannot hold graphs with 2^32+ nodes");
  }
  std::vector<uint8_t> image;
  const uint64_t header[4] = {1, graph.hasEdgeData() ? 4ull : 0ull,
                              graph.numNodes(), graph.numEdges()};
  appendBytes(image, header, 4);
  // Row END offsets.
  std::vector<uint64_t> outIdx(graph.numNodes());
  for (uint64_t v = 0; v < graph.numNodes(); ++v) {
    outIdx[v] = graph.edgeEnd(v);
  }
  appendBytes(image, outIdx.data(), outIdx.size());
  std::vector<uint32_t> dests32(graph.destinations().begin(),
                                graph.destinations().end());
  appendBytes(image, dests32.data(), dests32.size());
  if (graph.hasEdgeData()) {
    if (graph.numEdges() % 2 == 1) {
      const uint32_t padding = 0;
      appendBytes(image, &padding, 1);
    }
    appendBytes(image, graph.edgeDataArray().data(),
                graph.edgeDataArray().size());
  }
  support::atomicWriteFile(path, image);  // StorageError on failure
}

std::vector<ReadRange> computeReadRanges(std::span<const uint64_t> rowStart,
                                         uint32_t numHosts, double nodeWeight,
                                         double edgeWeight) {
  if (numHosts == 0) {
    throw std::invalid_argument("computeReadRanges: numHosts must be > 0");
  }
  if (rowStart.empty()) {
    throw std::invalid_argument("computeReadRanges: empty row index");
  }
  if (nodeWeight < 0 || edgeWeight < 0 || (nodeWeight == 0 && edgeWeight == 0)) {
    throw std::invalid_argument("computeReadRanges: bad importance weights");
  }
  const uint64_t numNodes = rowStart.size() - 1;
  const uint64_t numEdges = rowStart.back();
  const double totalUnits = nodeWeight * static_cast<double>(numNodes) +
                            edgeWeight * static_cast<double>(numEdges);
  // unitsBefore(v) is monotone in v, so each split point is a binary search.
  auto unitsBefore = [&](uint64_t v) {
    return nodeWeight * static_cast<double>(v) +
           edgeWeight * static_cast<double>(rowStart[v]);
  };
  std::vector<ReadRange> ranges(numHosts);
  uint64_t prev = 0;
  for (uint32_t h = 0; h < numHosts; ++h) {
    const double target =
        totalUnits * static_cast<double>(h + 1) / static_cast<double>(numHosts);
    uint64_t lo = prev;
    uint64_t hi = numNodes;
    // Find the smallest v with unitsBefore(v) >= target.
    while (lo < hi) {
      const uint64_t mid = lo + (hi - lo) / 2;
      if (unitsBefore(mid) < target) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    const uint64_t cut = (h + 1 == numHosts) ? numNodes : lo;
    ranges[h] = ReadRange{prev, cut, rowStart[prev], rowStart[cut]};
    prev = cut;
  }
  return ranges;
}

std::vector<ReadRange> contiguousEbRanges(std::span<const uint64_t> rowStart,
                                          uint32_t numHosts) {
  if (numHosts == 0) {
    throw std::invalid_argument("contiguousEbRanges: numHosts must be > 0");
  }
  if (rowStart.empty()) {
    throw std::invalid_argument("contiguousEbRanges: empty row index");
  }
  const uint64_t numNodes = rowStart.size() - 1;
  const uint64_t numEdges = rowStart.back();
  const uint64_t blockSize = (numEdges + 1 + numHosts - 1) / numHosts;
  std::vector<ReadRange> ranges(numHosts);
  uint64_t prev = 0;
  for (uint32_t h = 0; h < numHosts; ++h) {
    // End of host h's range: first v with floor(rowStart[v]/blockSize) > h,
    // i.e. rowStart[v] >= (h+1)*blockSize. Binary search (rowStart sorted).
    const uint64_t bound = (h + 1) * blockSize;
    uint64_t lo = prev;
    uint64_t hi = numNodes;
    while (lo < hi) {
      const uint64_t mid = lo + (hi - lo) / 2;
      if (rowStart[mid] < bound) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    const uint64_t cut = (h + 1 == numHosts) ? numNodes : lo;
    ranges[h] = ReadRange{prev, cut, rowStart[prev], rowStart[cut]};
    prev = cut;
  }
  return ranges;
}

uint32_t readingHostOf(std::span<const ReadRange> ranges, uint64_t node) {
  // Binary search over nodeBegin; ranges are contiguous and sorted, but some
  // may be empty, so find the last range whose nodeBegin <= node and then
  // advance past empties.
  uint32_t lo = 0;
  uint32_t hi = static_cast<uint32_t>(ranges.size());
  while (lo < hi) {
    const uint32_t mid = lo + (hi - lo) / 2;
    if (ranges[mid].nodeEnd <= node) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo >= ranges.size() || node < ranges[lo].nodeBegin ||
      node >= ranges[lo].nodeEnd) {
    throw std::out_of_range("readingHostOf: node not covered by any range");
  }
  return lo;
}

}  // namespace cusp::graph
