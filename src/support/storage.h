// cusp::support — injectable storage layer with deterministic fault
// injection and a durable atomic-write primitive.
//
// Every durable artifact of the stack (checkpoint images, buddy replicas,
// .cgr/.gr graph files) goes through the two primitives below instead of
// raw stdio, for two reasons:
//
//  * Durability. atomicWriteFile implements the full commit protocol a
//    crash-consistent store needs: write to `<path>.tmp`, fflush + fsync
//    the file, rename() into place, then fsync the containing directory.
//    Without the fsyncs a host crash can commit a zero-length or partial
//    "final" file (the rename is durable before the data is); without the
//    directory fsync the rename itself can be lost.
//
//  * Injectability. A StorageFaultPlan describes, ahead of a run, which
//    storage operations fail and how — mirroring comm::FaultPlan for the
//    interconnect. Faults match by (operation, path substring, occurrence)
//    so a given plan replays identically for a given program; the
//    occurrence counter is per fault, counting only the operations that
//    fault's predicate matches. (With several host threads writing
//    DIFFERENT files, substring-pinned faults stay deterministic; a
//    wildcard fault — empty substring — counts a thread-interleaving-
//    dependent global order and is only deterministic single-threaded.)
//
// Fault taxonomy (StorageFaultKind):
//   kWriteFail   — the tmp write dies partway; a torn tmp file is left
//                  behind (crash debris) and StorageError{kWriteFailed}
//                  is thrown. The final file is never touched.
//   kTornWrite   — silent corruption: only the first `tornBytes` bytes of
//                  the image reach the disk, yet the commit "succeeds".
//                  Models storage that acknowledges writes it lost; caught
//                  later by the consumer's CRC check on load.
//   kEnospc      — like kWriteFail but with StorageError{kNoSpace}, the
//                  signature consumers treat as PERSISTENT (a full disk
//                  does not fix itself mid-run) and react to by disabling
//                  further checkpointing instead of retrying.
//   kRenameFail  — the tmp file is fully written and fsynced but the
//                  commit rename fails (equivalently: the process crashed
//                  between write and rename). The orphaned tmp is exactly
//                  what garbageCollectCheckpointTmp sweeps.
//   kReadFail    — the read fails outright (EIO); readFileBytes throws
//                  StorageError{kReadFailed}.
//   kBitRot      — at-rest corruption: the read succeeds but one
//                  deterministically chosen byte of the returned image is
//                  flipped. Caught by the consumer's CRC check.
//
// The injector attaches process-wide (like obs::attach) so the seam
// reaches every consumer without threading a handle through ten call
// signatures; ScopedStorageFaults is the RAII attach the tests use.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace cusp::support {

enum class StorageOp : uint8_t {
  kWrite,   // an atomicWriteFile commit (consulted once per call)
  kRename,  // the rename step of a commit (consulted after a good write)
  kRead,    // a readFileBytes call
};

enum class StorageFaultKind : uint8_t {
  kWriteFail,
  kTornWrite,
  kEnospc,
  kRenameFail,
  kReadFail,
  kBitRot,
};

const char* storageFaultKindName(StorageFaultKind kind);

// Matches the `occurrence`-th (0-based) operation of the kind's op class
// whose path contains `pathSubstring`, and the following `repeat - 1`
// matches of the same shape (repeat > 1 models a persistent condition,
// e.g. ENOSPC firing on every write until the run reacts).
struct StorageFault {
  StorageFaultKind kind = StorageFaultKind::kWriteFail;
  std::string pathSubstring;  // empty = any path
  uint64_t occurrence = 0;
  uint32_t repeat = 1;
  uint64_t tornBytes = 0;  // kTornWrite: bytes that actually reach the disk
};

struct StorageFaultPlan {
  std::vector<StorageFault> faults;

  bool empty() const { return faults.empty(); }
};

// Injection counters, by kind.
struct StorageFaultStats {
  uint64_t writeFailures = 0;
  uint64_t tornWrites = 0;
  uint64_t enospcFailures = 0;
  uint64_t renameFailures = 0;
  uint64_t readFailures = 0;
  uint64_t bitRotsInjected = 0;
};

// Structured storage failure. Consumers dispatch on `kind`: kNoSpace is the
// persistent-condition signal (checkpointing is disabled for the rest of
// the run), everything else is a per-operation failure the escalation
// ladder absorbs (skip the checkpoint / fall back to replica or an earlier
// epoch).
class StorageError : public std::runtime_error {
 public:
  enum class Kind : uint8_t { kWriteFailed, kNoSpace, kRenameFailed, kReadFailed };

  StorageError(Kind kind, std::string path, const std::string& detail);

  const char* kindName() const;

  Kind kind;
  std::string path;
};

// Runtime fault state; thread-safe, shared process-wide for the duration of
// a chaos run so occurrence counters persist across recovery attempts
// (mirroring comm::FaultInjector's lifetime contract).
class StorageFaultInjector {
 public:
  explicit StorageFaultInjector(StorageFaultPlan plan);

  // Consulted once per storage operation. Advances the occurrence counter
  // of every fault whose predicate matches and returns the first fault due
  // to fire (or nullopt for a clean operation).
  std::optional<StorageFault> onOp(StorageOp op, const std::string& path);

  StorageFaultStats stats() const;

 private:
  mutable std::mutex mutex_;
  StorageFaultPlan plan_;
  std::vector<uint64_t> matches_;  // per fault: predicate matches so far
  StorageFaultStats stats_;
};

// --- process-wide attachment (mirrors obs::attach) ---

// Current injector; nullptr when detached (the default — all primitives
// below are then plain durable I/O).
std::shared_ptr<StorageFaultInjector> storageFaults();
void attachStorageFaults(std::shared_ptr<StorageFaultInjector> injector);
void detachStorageFaults();

// RAII attach of a fresh injector for `plan`; restores the previous
// injector on destruction so scopes nest.
class ScopedStorageFaults {
 public:
  explicit ScopedStorageFaults(StorageFaultPlan plan);
  ScopedStorageFaults(const ScopedStorageFaults&) = delete;
  ScopedStorageFaults& operator=(const ScopedStorageFaults&) = delete;
  ~ScopedStorageFaults();

  const std::shared_ptr<StorageFaultInjector>& injector() const {
    return injector_;
  }
  StorageFaultStats stats() const { return injector_->stats(); }

 private:
  std::shared_ptr<StorageFaultInjector> injector_;
  std::shared_ptr<StorageFaultInjector> previous_;
};

// --- epoch write fence (split-brain protection) ---

// Fencing token shared by every host thread of one resilient run. Quorum
// agreement (comm::Network::agreeMembership and the resilient driver)
// advances the cluster epoch and fences the hosts on the losing side of a
// network partition; the checkpoint store consults the fence BEFORE any
// write, so a fenced host can never clobber or buddy-replicate stale state
// — its writes are refused pre-I/O, leaving no torn debris for the GC to
// sweep. Fencing is sticky per host until lifted at heal-time rejoin. The
// run owns its fence and hands it to its Networks and checkpoint writes
// (core/recovery.h); nothing attaches it process-wide, so concurrent runs
// never see each other's epochs.
class WriteFence {
 public:
  // Monotone-max advance of the cluster fencing epoch. Returns the epoch
  // after the advance.
  uint64_t advance(uint64_t epoch);
  uint64_t epoch() const;

  void fence(uint32_t host);
  void lift(uint32_t host);
  bool isFenced(uint32_t host) const;
  std::vector<uint32_t> fencedHosts() const;

  // Writes refused because the writer was fenced (the zero-post-fence-
  // writes assertion of the split-brain tests reads this).
  uint64_t fencedWriteAttempts() const;
  void countFencedWriteAttempt();

 private:
  mutable std::mutex mutex_;
  uint64_t epoch_ = 0;
  std::vector<bool> fenced_;  // indexed by host id (grown on demand)
  uint64_t fencedWriteAttempts_ = 0;
};

// --- primitives ---

// Durable atomic write of `size` bytes to `path` via the tmp + fsync +
// rename + directory-fsync commit protocol described above. Throws
// StorageError on failure (real or injected); on a kWriteFail/kEnospc/
// kRenameFail injection a torn or orphaned `<path>.tmp` is deliberately
// left behind, exactly as a crash would leave it.
void atomicWriteFile(const std::string& path, const void* data, size_t size);
void atomicWriteFile(const std::string& path,
                     const std::vector<uint8_t>& bytes);

// Whole-file read. nullopt when the file does not exist (or is concurrently
// truncated — indistinguishable from absent for our consumers); throws
// StorageError{kReadFailed} on an injected read failure. An injected
// kBitRot flips one deterministically chosen byte of the returned image.
std::optional<std::vector<uint8_t>> readFileBytes(const std::string& path);

// Bounded-window read of `out.size()` bytes starting at `offset`, straight
// into the caller's bytes. Same fault semantics as readFileBytes (each call
// counts as one kRead operation; kBitRot flips one byte of `out`). False
// when the file is missing or shorter than offset + out.size() — windowed
// consumers size their requests from a validated header, so a short read
// means truncation.
bool readFileRange(const std::string& path, uint64_t offset,
                   std::span<uint8_t> out);

// Seeded random storage-fault plan for the fuzzer: up to `maxFaults` faults
// over all six kinds, each pinned to one host's checkpoint files
// ("h<r>.p" path substring) so multi-threaded runs replay deterministically.
StorageFaultPlan randomStorageFaultPlan(uint64_t seed, uint32_t numHosts,
                                        uint32_t maxFaults = 4);

}  // namespace cusp::support
