#include "support/storage.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <limits>
#include <utility>

#include "support/random.h"

namespace cusp::support {

namespace {

// Which operation class a fault kind belongs to; a fault's occurrence
// counter only advances on operations of its own class.
StorageOp opOf(StorageFaultKind kind) {
  switch (kind) {
    case StorageFaultKind::kWriteFail:
    case StorageFaultKind::kTornWrite:
    case StorageFaultKind::kEnospc:
      return StorageOp::kWrite;
    case StorageFaultKind::kRenameFail:
      return StorageOp::kRename;
    case StorageFaultKind::kReadFail:
    case StorageFaultKind::kBitRot:
      return StorageOp::kRead;
  }
  return StorageOp::kWrite;
}

std::mutex& globalMutex() {
  static std::mutex m;
  return m;
}

std::shared_ptr<StorageFaultInjector>& globalInjector() {
  static std::shared_ptr<StorageFaultInjector> injector;
  return injector;
}

std::optional<StorageFault> consult(StorageOp op, const std::string& path) {
  auto injector = storageFaults();
  if (!injector) {
    return std::nullopt;
  }
  return injector->onOp(op, path);
}

// Best-effort fsync of the directory containing `path`, making a preceding
// rename durable. Failure here loses durability, not consistency (the
// rename either survives the crash or the old state does), so it does not
// fail the commit.
void fsyncParentDir(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    return;
  }
  ::fsync(fd);
  ::close(fd);
}

// Writes `size` bytes of `data` to `path` and makes them durable
// (fwrite + fflush + fsync). Returns false on any failure, removing the
// partial file.
bool writeDurable(const std::string& path, const void* data, size_t size) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return false;
  }
  bool ok = size == 0 || std::fwrite(data, 1, size, f) == size;
  if (ok && std::fflush(f) != 0) {
    ok = false;
  }
  if (ok && ::fsync(fileno(f)) != 0) {
    ok = false;
  }
  if (std::fclose(f) != 0) {
    ok = false;
  }
  if (!ok) {
    std::remove(path.c_str());
  }
  return ok;
}

}  // namespace

const char* storageFaultKindName(StorageFaultKind kind) {
  switch (kind) {
    case StorageFaultKind::kWriteFail:
      return "write-fail";
    case StorageFaultKind::kTornWrite:
      return "torn-write";
    case StorageFaultKind::kEnospc:
      return "enospc";
    case StorageFaultKind::kRenameFail:
      return "rename-fail";
    case StorageFaultKind::kReadFail:
      return "read-fail";
    case StorageFaultKind::kBitRot:
      return "bit-rot";
  }
  return "unknown";
}

StorageError::StorageError(Kind kind, std::string path,
                           const std::string& detail)
    : std::runtime_error("storage error [" + path + "]: " + detail),
      kind(kind),
      path(std::move(path)) {}

const char* StorageError::kindName() const {
  switch (kind) {
    case Kind::kWriteFailed:
      return "write-failed";
    case Kind::kNoSpace:
      return "no-space";
    case Kind::kRenameFailed:
      return "rename-failed";
    case Kind::kReadFailed:
      return "read-failed";
  }
  return "unknown";
}

StorageFaultInjector::StorageFaultInjector(StorageFaultPlan plan)
    : plan_(std::move(plan)), matches_(plan_.faults.size(), 0) {}

std::optional<StorageFault> StorageFaultInjector::onOp(
    StorageOp op, const std::string& path) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::optional<StorageFault> decision;
  for (size_t i = 0; i < plan_.faults.size(); ++i) {
    const StorageFault& fault = plan_.faults[i];
    if (opOf(fault.kind) != op) {
      continue;
    }
    if (!fault.pathSubstring.empty() &&
        path.find(fault.pathSubstring) == std::string::npos) {
      continue;
    }
    const uint64_t seen = matches_[i]++;
    if (decision.has_value()) {
      continue;  // first due fault wins, but every counter advances
    }
    if (seen < fault.occurrence || seen >= fault.occurrence + fault.repeat) {
      continue;
    }
    decision = fault;
    switch (fault.kind) {
      case StorageFaultKind::kWriteFail:
        ++stats_.writeFailures;
        break;
      case StorageFaultKind::kTornWrite:
        ++stats_.tornWrites;
        break;
      case StorageFaultKind::kEnospc:
        ++stats_.enospcFailures;
        break;
      case StorageFaultKind::kRenameFail:
        ++stats_.renameFailures;
        break;
      case StorageFaultKind::kReadFail:
        ++stats_.readFailures;
        break;
      case StorageFaultKind::kBitRot:
        ++stats_.bitRotsInjected;
        break;
    }
  }
  return decision;
}

StorageFaultStats StorageFaultInjector::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::shared_ptr<StorageFaultInjector> storageFaults() {
  std::lock_guard<std::mutex> lock(globalMutex());
  return globalInjector();
}

void attachStorageFaults(std::shared_ptr<StorageFaultInjector> injector) {
  std::lock_guard<std::mutex> lock(globalMutex());
  globalInjector() = std::move(injector);
}

void detachStorageFaults() {
  std::lock_guard<std::mutex> lock(globalMutex());
  globalInjector().reset();
}

ScopedStorageFaults::ScopedStorageFaults(StorageFaultPlan plan)
    : injector_(std::make_shared<StorageFaultInjector>(std::move(plan))) {
  std::lock_guard<std::mutex> lock(globalMutex());
  previous_ = globalInjector();
  globalInjector() = injector_;
}

ScopedStorageFaults::~ScopedStorageFaults() {
  std::lock_guard<std::mutex> lock(globalMutex());
  globalInjector() = previous_;
}

uint64_t WriteFence::advance(uint64_t epoch) {
  std::lock_guard<std::mutex> lock(mutex_);
  epoch_ = std::max(epoch_, epoch);
  return epoch_;
}

uint64_t WriteFence::epoch() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return epoch_;
}

void WriteFence::fence(uint32_t host) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (fenced_.size() <= host) {
    fenced_.resize(host + 1, false);
  }
  fenced_[host] = true;
}

void WriteFence::lift(uint32_t host) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (host < fenced_.size()) {
    fenced_[host] = false;
  }
}

bool WriteFence::isFenced(uint32_t host) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return host < fenced_.size() && fenced_[host];
}

std::vector<uint32_t> WriteFence::fencedHosts() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<uint32_t> hosts;
  for (uint32_t h = 0; h < fenced_.size(); ++h) {
    if (fenced_[h]) {
      hosts.push_back(h);
    }
  }
  return hosts;
}

uint64_t WriteFence::fencedWriteAttempts() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return fencedWriteAttempts_;
}

void WriteFence::countFencedWriteAttempt() {
  std::lock_guard<std::mutex> lock(mutex_);
  ++fencedWriteAttempts_;
}

void atomicWriteFile(const std::string& path, const void* data, size_t size) {
  const std::string tmpPath = path + ".tmp";
  const auto writeFault = consult(StorageOp::kWrite, path);
  if (writeFault.has_value() &&
      (writeFault->kind == StorageFaultKind::kWriteFail ||
       writeFault->kind == StorageFaultKind::kEnospc)) {
    // The write dies partway: leave a torn tmp behind as crash debris (the
    // GC sweep is responsible for it) and never touch the final file.
    writeDurable(tmpPath, data, size / 2);
    if (writeFault->kind == StorageFaultKind::kEnospc) {
      throw StorageError(StorageError::Kind::kNoSpace, path,
                         "injected ENOSPC");
    }
    throw StorageError(StorageError::Kind::kWriteFailed, path,
                       "injected write failure");
  }
  size_t writeSize = size;
  if (writeFault.has_value() &&
      writeFault->kind == StorageFaultKind::kTornWrite) {
    // Silent torn write: the commit below "succeeds" with a truncated
    // image. The consumer's CRC check is what must catch this.
    writeSize = std::min<size_t>(size, writeFault->tornBytes);
  }
  if (!writeDurable(tmpPath, data, writeSize)) {
    throw StorageError(StorageError::Kind::kWriteFailed, path,
                       "cannot write " + tmpPath);
  }
  const auto renameFault = consult(StorageOp::kRename, path);
  if (renameFault.has_value() &&
      renameFault->kind == StorageFaultKind::kRenameFail) {
    // Crash between tmp-write and rename: the durable tmp is orphaned.
    throw StorageError(StorageError::Kind::kRenameFailed, path,
                       "injected rename failure");
  }
  if (std::rename(tmpPath.c_str(), path.c_str()) != 0) {
    std::remove(tmpPath.c_str());
    throw StorageError(StorageError::Kind::kRenameFailed, path,
                       "rename from " + tmpPath + " failed");
  }
  fsyncParentDir(path);
}

void atomicWriteFile(const std::string& path,
                     const std::vector<uint8_t>& bytes) {
  atomicWriteFile(path, bytes.data(), bytes.size());
}

std::optional<std::vector<uint8_t>> readFileBytes(const std::string& path) {
  const auto fault = consult(StorageOp::kRead, path);
  if (fault.has_value() && fault->kind == StorageFaultKind::kReadFail) {
    throw StorageError(StorageError::Kind::kReadFailed, path,
                       "injected read failure");
  }
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return std::nullopt;
  }
  if (std::fseek(f, 0, SEEK_END) != 0) {
    std::fclose(f);
    return std::nullopt;
  }
  const long size = std::ftell(f);
  if (size < 0 || std::fseek(f, 0, SEEK_SET) != 0) {
    std::fclose(f);
    return std::nullopt;
  }
  std::vector<uint8_t> bytes(static_cast<size_t>(size));
  const size_t got =
      bytes.empty() ? 0 : std::fread(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
  if (got != bytes.size()) {
    return std::nullopt;
  }
  if (fault.has_value() && fault->kind == StorageFaultKind::kBitRot &&
      !bytes.empty()) {
    // Flip one deterministically chosen byte of the image at rest.
    const uint64_t index =
        hashU64(bytes.size() ^ (fault->occurrence * 0x9E3779B97F4A7C15ULL)) %
        bytes.size();
    bytes[index] ^= 0x40;
  }
  return bytes;
}

bool readFileRange(const std::string& path, uint64_t offset,
                   std::span<uint8_t> out) {
  const auto fault = consult(StorageOp::kRead, path);
  if (fault.has_value() && fault->kind == StorageFaultKind::kReadFail) {
    throw StorageError(StorageError::Kind::kReadFailed, path,
                       "injected read failure");
  }
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return false;
  }
  if (offset > static_cast<uint64_t>(std::numeric_limits<long>::max()) ||
      std::fseek(f, static_cast<long>(offset), SEEK_SET) != 0) {
    std::fclose(f);
    return false;
  }
  const size_t got =
      out.empty() ? 0 : std::fread(out.data(), 1, out.size(), f);
  std::fclose(f);
  if (got != out.size()) {
    return false;  // file shorter than offset + length: truncation
  }
  if (fault.has_value() && fault->kind == StorageFaultKind::kBitRot &&
      !out.empty()) {
    // Same deterministic byte choice as readFileBytes, salted with the
    // offset so distinct windows of one file rot at distinct positions.
    const uint64_t index =
        hashU64((out.size() ^ offset) ^
                (fault->occurrence * 0x9E3779B97F4A7C15ULL)) %
        out.size();
    out[index] ^= 0x40;
  }
  return true;
}

StorageFaultPlan randomStorageFaultPlan(uint64_t seed, uint32_t numHosts,
                                        uint32_t maxFaults) {
  Rng rng(seed * 0xD1B54A32D192ED03ULL + 3);
  StorageFaultPlan plan;
  if (numHosts == 0 || maxFaults == 0) {
    return plan;
  }
  const uint64_t count = rng.nextBounded(maxFaults + 1);
  static const StorageFaultKind kKinds[] = {
      StorageFaultKind::kWriteFail,  StorageFaultKind::kTornWrite,
      StorageFaultKind::kEnospc,     StorageFaultKind::kRenameFail,
      StorageFaultKind::kReadFail,   StorageFaultKind::kBitRot,
  };
  for (uint64_t i = 0; i < count; ++i) {
    StorageFault fault;
    fault.kind = kKinds[rng.nextBounded(std::size(kKinds))];
    // Pin each fault to one host's checkpoint files so that the per-fault
    // occurrence counter sees a deterministic stream even when all host
    // threads are writing concurrently.
    fault.pathSubstring =
        "h" + std::to_string(rng.nextBounded(numHosts)) + ".p";
    fault.occurrence = rng.nextBounded(4);
    fault.repeat = 1 + static_cast<uint32_t>(rng.nextBounded(2));
    fault.tornBytes = rng.nextBounded(96);
    plan.faults.push_back(std::move(fault));
  }
  return plan;
}

}  // namespace cusp::support
