// Per-phase partitioning checkpoints.
//
// Fault-tolerant runs persist each host's state after every completed
// pipeline phase as `<dir>/h<host>.p<phase>.ckpt`. A checkpoint is a small
// header (magic, host, numHosts, phase) followed by an opaque payload the
// partitioner serializes with the support/serialize.h machinery, and a
// CRC32 footer (support/crc32.h). Writes go through the storage seam's
// durable commit protocol (support/storage.h: tmp + fflush + fsync +
// rename + directory fsync) so a crash mid-checkpoint can never leave a
// truncated file that passes validation, and a crash right after the
// rename cannot lose the committed bytes. Any file that fails the
// magic/identity/CRC checks is treated as absent; a file failing CRC is
// additionally QUARANTINED (renamed to `<path>.quarantined`) so it stops
// shadowing the escalation ladder and stays available for post-mortems.
// An injected or real read failure is also reported as absent (counted in
// obs), pushing the caller down the same ladder: local file -> buddy
// replica -> earlier epoch -> degraded re-partition.
//
// Hosts keep every phase's file (not just the latest): after a crash the
// recovery driver agrees on min-over-hosts of the latest valid phase, so
// any host may be asked to reload an older checkpoint than its newest.
//
// Buddy replication (degraded mode, opt-in): alongside its own file each
// host mirrors the payload to its RING SUCCESSOR's store as
// `h<buddy>.p<phase>.buddy<owner>.ckpt` with buddy = (owner+1) mod k. When
// a host is permanently lost — in this simulation, its store (own files
// plus the replicas it held) is deleted — survivors can still reload the
// dead host's phase state from the replica, unless the buddy itself died
// first, in which case the replica is gone too and the degraded driver
// falls back to a full re-partition. latestValidCheckpoint and the loaders
// consult the replica whenever the primary file is missing or corrupt.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "support/serialize.h"

namespace cusp::support {
class WriteFence;
}  // namespace cusp::support

namespace cusp::core {

inline constexpr uint64_t kCheckpointMagic = 0x0000000031504B43ULL;  // "CKP1"

// `<dir>/h<host>.p<phase>.ckpt`
std::string checkpointPath(const std::string& dir, uint32_t host,
                           uint32_t phase);

// Durably and atomically writes `payload` as host `host`'s checkpoint for
// `phase`. Creates `dir` if missing. Throws support::StorageError (a
// std::runtime_error) on I/O failure, real or injected; callers dispatch
// on its kind — kNoSpace means the condition is persistent and further
// checkpointing should be disabled, everything else means skip this one
// checkpoint and continue. With a `fence` (split-brain protection), a
// fenced `host` is refused before any I/O and the image is stamped with
// the fence's epoch.
void saveCheckpoint(const std::string& dir, uint32_t host, uint32_t numHosts,
                    uint32_t phase, const support::SendBuffer& payload,
                    support::WriteFence* fence = nullptr);

// Loads and validates a checkpoint; nullopt if the file is missing, fails
// CRC, or does not match (host, numHosts, phase). A checkpoint written for
// a different cluster size is rejected with a warn log, not silently — it
// is the signature of a reused checkpoint directory. Returns the bare
// payload.
std::optional<std::vector<uint8_t>> loadCheckpoint(const std::string& dir,
                                                   uint32_t host,
                                                   uint32_t numHosts,
                                                   uint32_t phase);

// --- buddy replication ---

// `<dir>/h<buddy>.p<phase>.buddy<owner>.ckpt` with buddy = (owner+1) mod
// numHosts: the replica of `owner`'s checkpoint held by its ring successor.
std::string checkpointReplicaPath(const std::string& dir, uint32_t owner,
                                  uint32_t numHosts, uint32_t phase);

// Atomically writes the replica of `owner`'s phase checkpoint into its ring
// successor's store (same header/CRC format and fence check as the
// primary).
void saveCheckpointReplica(const std::string& dir, uint32_t owner,
                           uint32_t numHosts, uint32_t phase,
                           const support::SendBuffer& payload,
                           support::WriteFence* fence = nullptr);

// Loads `owner`'s checkpoint from the buddy replica; same validation as
// loadCheckpoint (the header identity is the OWNER's).
std::optional<std::vector<uint8_t>> loadCheckpointReplica(
    const std::string& dir, uint32_t owner, uint32_t numHosts,
    uint32_t phase);

// loadCheckpoint falling back to the buddy replica; what restore paths use
// so a host whose own file was lost can still resume.
std::optional<std::vector<uint8_t>> loadCheckpointOrReplica(
    const std::string& dir, uint32_t host, uint32_t numHosts, uint32_t phase);

// Highest phase in [1, maxPhase] with a valid checkpoint for `host`,
// consulting the buddy replica when the primary is missing or corrupt;
// 0 if none (restart from scratch).
uint32_t latestValidCheckpoint(const std::string& dir, uint32_t host,
                               uint32_t numHosts, uint32_t maxPhase);

// Deletes every checkpoint file of `host` up to `maxPhase` (best effort).
void removeCheckpoints(const std::string& dir, uint32_t host,
                       uint32_t maxPhase);

// Simulates the loss of `host`'s local checkpoint store on eviction:
// removes the host's own files AND every replica it held for other hosts
// (so the predecessor's state dies with it — the scenario buddy
// replication cannot cover when both die).
void removeHostCheckpointStore(const std::string& dir, uint32_t host,
                               uint32_t numHosts, uint32_t maxPhase);

// Removes orphaned `*.ckpt.tmp` files a crash mid-rename may have left in
// `dir` (the atomic-write protocol never lets them become visible as valid
// checkpoints, but they would otherwise accumulate), plus stale
// `*.quarantined` debris from the corrupt-checkpoint quarantine. Tmp files
// are always swept; quarantined files are kept for
// `quarantineAgeSeconds` after their last modification so in-flight
// forensics (a corrupt image quarantined moments ago, possibly mid-run)
// aren't deleted from under whoever is inspecting them. Returns the number
// of files removed. The resilient driver runs this on start.
uint32_t garbageCollectCheckpointTmp(const std::string& dir,
                                     double quarantineAgeSeconds = 24 * 3600);

// mkdir -p for a checkpoint/spill store directory.
void ensureStoreDirs(const std::string& dir);

}  // namespace cusp::core
