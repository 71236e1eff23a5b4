#include "core/checkpoint.h"

#include <dirent.h>
#include <sys/stat.h>

#include <cstdio>
#include <cstring>
#include <ctime>
#include <stdexcept>

#include "obs/obs.h"
#include "support/crc32.h"
#include "support/logging.h"
#include "support/storage.h"

namespace cusp::core {

namespace {

// Checkpoint I/O is rare (a handful of files per run), so the store looks
// the sink up per operation instead of caching cells like the network does.
void countCheckpoint(const char* name, uint64_t n) {
  if (!obs::attached()) {
    return;
  }
  if (const auto registry = obs::sink().metrics) {
    registry->counter(name).add(n);
  }
}

struct CheckpointHeader {
  uint64_t magic = kCheckpointMagic;
  uint32_t host = 0;
  uint32_t numHosts = 0;
  uint32_t phase = 0;
  uint32_t reserved = 0;
};
static_assert(sizeof(CheckpointHeader) == 24);

// mkdir -p: epoch stores live in subdirectories of the configured
// checkpoint dir (<dir>/e<N>), so a single-level mkdir is not enough.
void makeDirs(const std::string& dir) {
  for (size_t pos = 1; pos <= dir.size(); ++pos) {
    if (pos == dir.size() || dir[pos] == '/') {
      ::mkdir(dir.substr(0, pos).c_str(), 0777);  // fine if it exists
    }
  }
}

// A corrupt image (torn write, bit rot) is moved aside rather than deleted:
// it stops shadowing the escalation ladder (buddy replica, earlier epoch)
// while staying on disk for post-mortem inspection. A quarantined file also
// never gets mistaken for a valid checkpoint again, so retry loops cannot
// oscillate on it.
void quarantineCorrupt(const std::string& path) {
  const std::string quarantined = path + ".quarantined";
  if (std::rename(path.c_str(), quarantined.c_str()) == 0) {
    countCheckpoint("cusp.checkpoint.quarantined", 1);
    CUSP_LOG_WARN() << "quarantined corrupt checkpoint " << path << " -> "
                    << quarantined;
  }
}

// Validates the file at `path` as a checkpoint of (host, numHosts, phase)
// and returns the bare payload; nullopt when missing or invalid. A wrong
// `numHosts` in an otherwise valid file means the directory is being reused
// across cluster sizes — worth a warning, not silence.
std::optional<std::vector<uint8_t>> loadFromPath(const std::string& path,
                                                 uint32_t host,
                                                 uint32_t numHosts,
                                                 uint32_t phase) {
  std::optional<std::vector<uint8_t>> bytes;
  try {
    bytes = support::readFileBytes(path);
  } catch (const support::StorageError&) {
    // A failed read is indistinguishable from an absent checkpoint for the
    // caller: report nullopt so the escalation ladder (replica, earlier
    // epoch, re-partition) takes over.
    countCheckpoint("cusp.checkpoint.read_failures", 1);
    return std::nullopt;
  }
  if (!bytes) {
    return std::nullopt;
  }
  if (support::verifyAndStripCrcFooter(*bytes) !=
      support::CrcFooterStatus::kVerified) {
    countCheckpoint("cusp.checkpoint.crc_failures", 1);
    quarantineCorrupt(path);
    return std::nullopt;  // checkpoints always carry a footer; no legacy path
  }
  if (bytes->size() < sizeof(CheckpointHeader)) {
    return std::nullopt;
  }
  CheckpointHeader header;
  std::memcpy(&header, bytes->data(), sizeof(header));
  if (header.magic != kCheckpointMagic || header.host != host ||
      header.phase != phase) {
    return std::nullopt;
  }
  if (header.numHosts != numHosts) {
    CUSP_LOG_WARN() << "rejecting checkpoint " << path << ": written for "
                    << header.numHosts << " hosts, expected " << numHosts
                    << " (stale checkpoint directory?)";
    return std::nullopt;
  }
  bytes->erase(bytes->begin(), bytes->begin() + sizeof(header));
  countCheckpoint("cusp.checkpoint.bytes_read", bytes->size());
  return bytes;
}

// Durable atomic write of a header+payload+CRC checkpoint image, via the
// storage seam's full commit protocol (tmp + fflush + fsync + rename +
// directory fsync). Throws support::StorageError on failure — callers
// dispatch on its kind (ENOSPC disables checkpointing; anything else skips
// this checkpoint and carries on).
void writeCheckpointFile(const std::string& finalPath, uint32_t host,
                         uint32_t numHosts, uint32_t phase,
                         const support::SendBuffer& payload,
                         support::WriteFence* fence) {
  CheckpointHeader header;
  header.host = host;
  header.numHosts = numHosts;
  header.phase = phase;
  // Fencing-token check (split-brain protection): when the run hands in a
  // WriteFence, a fenced writer — the minority side of a network partition —
  // is refused HERE, before any byte touches the disk, so a fenced host can
  // neither clobber its primary image nor buddy-replicate stale state.
  // Refusal leaves no tmp debris (unlike an injected write fault, nothing
  // was started). `host` is the OWNER of the image, which for a buddy
  // replica is also the writer, so one check covers both paths.
  if (fence != nullptr) {
    if (fence->isFenced(host)) {
      fence->countFencedWriteAttempt();
      countCheckpoint("cusp.checkpoint.fenced_writes", 1);
      throw support::StorageError(
          support::StorageError::Kind::kWriteFailed, finalPath,
          "writer is fenced at epoch " + std::to_string(fence->epoch()) +
              " (split-brain protection)");
    }
    // Stamp the image with the fencing epoch it was written under; the
    // formerly-reserved header word is the stamp slot.
    header.reserved = static_cast<uint32_t>(fence->epoch());
  }
  std::vector<uint8_t> bytes(sizeof(header) + payload.size());
  std::memcpy(bytes.data(), &header, sizeof(header));
  if (payload.size() > 0) {  // data() may be null on an empty buffer
    std::memcpy(bytes.data() + sizeof(header), payload.data(),
                payload.size());
  }
  support::appendCrcFooter(bytes);
  try {
    support::atomicWriteFile(finalPath, bytes);
  } catch (const support::StorageError&) {
    countCheckpoint("cusp.checkpoint.write_failures", 1);
    throw;
  }
  countCheckpoint("cusp.checkpoint.files_written", 1);
  countCheckpoint("cusp.checkpoint.bytes_written", bytes.size());
}

}  // namespace

std::string checkpointPath(const std::string& dir, uint32_t host,
                           uint32_t phase) {
  return dir + "/h" + std::to_string(host) + ".p" + std::to_string(phase) +
         ".ckpt";
}

std::string checkpointReplicaPath(const std::string& dir, uint32_t owner,
                                  uint32_t numHosts, uint32_t phase) {
  const uint32_t buddy = (owner + 1) % numHosts;
  return dir + "/h" + std::to_string(buddy) + ".p" + std::to_string(phase) +
         ".buddy" + std::to_string(owner) + ".ckpt";
}

void saveCheckpoint(const std::string& dir, uint32_t host, uint32_t numHosts,
                    uint32_t phase, const support::SendBuffer& payload,
                    support::WriteFence* fence) {
  makeDirs(dir);
  writeCheckpointFile(checkpointPath(dir, host, phase), host, numHosts, phase,
                      payload, fence);
}

void saveCheckpointReplica(const std::string& dir, uint32_t owner,
                           uint32_t numHosts, uint32_t phase,
                           const support::SendBuffer& payload,
                           support::WriteFence* fence) {
  makeDirs(dir);
  writeCheckpointFile(checkpointReplicaPath(dir, owner, numHosts, phase),
                      owner, numHosts, phase, payload, fence);
  countCheckpoint("cusp.checkpoint.replicas_written", 1);
}

std::optional<std::vector<uint8_t>> loadCheckpoint(const std::string& dir,
                                                   uint32_t host,
                                                   uint32_t numHosts,
                                                   uint32_t phase) {
  return loadFromPath(checkpointPath(dir, host, phase), host, numHosts,
                      phase);
}

std::optional<std::vector<uint8_t>> loadCheckpointReplica(
    const std::string& dir, uint32_t owner, uint32_t numHosts,
    uint32_t phase) {
  return loadFromPath(checkpointReplicaPath(dir, owner, numHosts, phase),
                      owner, numHosts, phase);
}

std::optional<std::vector<uint8_t>> loadCheckpointOrReplica(
    const std::string& dir, uint32_t host, uint32_t numHosts,
    uint32_t phase) {
  if (auto own = loadCheckpoint(dir, host, numHosts, phase)) {
    return own;
  }
  return loadCheckpointReplica(dir, host, numHosts, phase);
}

uint32_t latestValidCheckpoint(const std::string& dir, uint32_t host,
                               uint32_t numHosts, uint32_t maxPhase) {
  for (uint32_t phase = maxPhase; phase >= 1; --phase) {
    if (loadCheckpointOrReplica(dir, host, numHosts, phase)) {
      return phase;
    }
  }
  return 0;
}

namespace {

// A checkpoint leaves up to three artifacts: the image itself, an aborted
// tmp, and a quarantined corrupt copy — remove all of them together.
void removeCheckpointArtifacts(const std::string& path) {
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
  std::remove((path + ".quarantined").c_str());
}

}  // namespace

void removeCheckpoints(const std::string& dir, uint32_t host,
                       uint32_t maxPhase) {
  for (uint32_t phase = 1; phase <= maxPhase; ++phase) {
    removeCheckpointArtifacts(checkpointPath(dir, host, phase));
  }
}

void removeHostCheckpointStore(const std::string& dir, uint32_t host,
                               uint32_t numHosts, uint32_t maxPhase) {
  for (uint32_t phase = 1; phase <= maxPhase; ++phase) {
    removeCheckpointArtifacts(checkpointPath(dir, host, phase));
    for (uint32_t owner = 0; owner < numHosts; ++owner) {
      if ((owner + 1) % numHosts != host) {
        continue;  // only replicas physically stored on `host`
      }
      removeCheckpointArtifacts(
          checkpointReplicaPath(dir, owner, numHosts, phase));
    }
  }
}

uint32_t garbageCollectCheckpointTmp(const std::string& dir,
                                     double quarantineAgeSeconds) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) {
    return 0;
  }
  static constexpr std::string_view kTmpSuffix = ".ckpt.tmp";
  static constexpr std::string_view kQuarantineSuffix = ".quarantined";
  const std::time_t now = std::time(nullptr);
  uint32_t removedTmp = 0;
  uint32_t removedQuarantined = 0;
  while (dirent* entry = ::readdir(d)) {
    const std::string_view name = entry->d_name;
    auto hasSuffix = [&](std::string_view suffix) {
      return name.size() >= suffix.size() &&
             name.substr(name.size() - suffix.size()) == suffix;
    };
    const std::string path = dir + "/" + std::string(name);
    if (hasSuffix(kTmpSuffix)) {
      // Orphaned commit debris is dead the moment the run that wrote it is
      // gone; no age grace needed.
      if (std::remove(path.c_str()) == 0) {
        ++removedTmp;
      }
      continue;
    }
    if (hasSuffix(kQuarantineSuffix)) {
      // Quarantined corrupt checkpoints are forensic evidence: keep them
      // until they have aged past the threshold, so a run (or a person)
      // inspecting a fresh quarantine never has it swept away mid-look.
      struct stat st {};
      if (::stat(path.c_str(), &st) != 0) {
        continue;
      }
      const double age = std::difftime(now, st.st_mtime);
      if (age < quarantineAgeSeconds) {
        continue;
      }
      if (std::remove(path.c_str()) == 0) {
        ++removedQuarantined;
      }
    }
  }
  ::closedir(d);
  if (removedTmp > 0) {
    CUSP_LOG_WARN() << "garbage-collected " << removedTmp
                    << " orphaned .ckpt.tmp file(s) in " << dir;
  }
  if (removedQuarantined > 0) {
    countCheckpoint("cusp.checkpoint.quarantine_collected",
                    removedQuarantined);
    CUSP_LOG_WARN() << "garbage-collected " << removedQuarantined
                    << " stale .quarantined file(s) in " << dir;
  }
  return removedTmp + removedQuarantined;
}

void ensureStoreDirs(const std::string& dir) { makeDirs(dir); }

}  // namespace cusp::core
