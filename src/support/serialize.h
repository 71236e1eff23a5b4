// Byte-buffer serialization for inter-host messages.
//
// The simulated network moves opaque byte buffers between hosts, exactly as
// MPI would, so every piece of partitioning metadata and every edge batch is
// explicitly serialized. This keeps communication volume measurable (paper
// Table V) and keeps the message-buffering optimization (paper Section
// IV-D3, Fig. 7) meaningful: a SendBuffer accumulates serialized records and
// is shipped as one message when full.
//
// The serialize overloads are generic over any byte sink exposing
// appendBytes(const void*, size_t): a plain SendBuffer, or the network's
// zero-copy comm::PackedWriter which serializes straight into the
// per-destination aggregation buffer with no intermediate per-message
// vector.
//
// Supported types: trivially-copyable values, std::vector<trivially
// copyable>, std::vector<std::string>, std::string, std::pair, and nested
// vectors thereof via recursive overloads.
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace cusp::support {

// Anything serialize() can write into: SendBuffer, comm::PackedWriter, ...
template <typename B>
concept ByteSink = requires(B& b, const void* p, size_t n) {
  b.appendBytes(p, n);
};

class SendBuffer {
 public:
  SendBuffer() = default;

  size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }
  const uint8_t* data() const { return data_.data(); }
  void clear() { data_.clear(); }
  void reserve(size_t bytes) { data_.reserve(bytes); }

  void appendBytes(const void* src, size_t len) {
    if (len == 0) {  // src may be null for an empty range
      return;
    }
    const auto* bytes = static_cast<const uint8_t*>(src);
    data_.insert(data_.end(), bytes, bytes + len);
  }

  std::vector<uint8_t> release() { return std::move(data_); }

 private:
  std::vector<uint8_t> data_;
};

// Read-side buffer. Two storage modes share one read API:
//  * owned — the buffer holds the message bytes itself (a bare send());
//  * shared view — a (blob, base, length) window into a multi-message packet
//    blob kept alive by shared_ptr, so unpacking a packet hands every
//    message a zero-copy view instead of a per-message copy.
class RecvBuffer {
 public:
  RecvBuffer() = default;
  explicit RecvBuffer(std::vector<uint8_t> data)
      : owned_(std::move(data)), len_(owned_.size()) {}
  RecvBuffer(std::shared_ptr<const std::vector<uint8_t>> blob, size_t base,
             size_t len)
      : blob_(std::move(blob)), base_(base), len_(len) {
    if (blob_ == nullptr || base_ + len_ > blob_->size()) {
      throw std::out_of_range("RecvBuffer: view outside packet blob");
    }
  }

  size_t size() const { return len_; }
  size_t remaining() const { return len_ - offset_; }
  bool exhausted() const { return offset_ >= len_; }

  void readBytes(void* dst, size_t len) {
    if (remaining() < len) {
      throw std::out_of_range("RecvBuffer: read past end of message");
    }
    std::memcpy(dst, data() + offset_, len);
    offset_ += len;
  }

 private:
  // Pointer computed on demand so default copy/move stay correct for both
  // storage modes.
  const uint8_t* data() const {
    return blob_ != nullptr ? blob_->data() + base_ : owned_.data();
  }

  std::vector<uint8_t> owned_;
  std::shared_ptr<const std::vector<uint8_t>> blob_;
  size_t base_ = 0;
  size_t len_ = 0;
  size_t offset_ = 0;
};

// --- Scalar (trivially copyable) ---

template <ByteSink Buf, typename T>
  requires std::is_trivially_copyable_v<T>
void serialize(Buf& buf, const T& value) {
  buf.appendBytes(&value, sizeof(T));
}

template <typename T>
  requires std::is_trivially_copyable_v<T>
void deserialize(RecvBuffer& buf, T& value) {
  buf.readBytes(&value, sizeof(T));
}

// --- std::string ---

template <ByteSink Buf>
void serialize(Buf& buf, const std::string& value) {
  const uint64_t len = value.size();
  buf.appendBytes(&len, sizeof(len));
  buf.appendBytes(value.data(), value.size());
}

inline void deserialize(RecvBuffer& buf, std::string& value) {
  uint64_t len = 0;
  buf.readBytes(&len, sizeof(len));
  value.resize(len);
  if (len > 0) {
    buf.readBytes(value.data(), len);
  }
}

// --- std::pair ---

template <ByteSink Buf, typename A, typename B>
void serialize(Buf& buf, const std::pair<A, B>& value) {
  serialize(buf, value.first);
  serialize(buf, value.second);
}

template <typename A, typename B>
void deserialize(RecvBuffer& buf, std::pair<A, B>& value) {
  deserialize(buf, value.first);
  deserialize(buf, value.second);
}

// --- std::vector ---

template <ByteSink Buf, typename T>
  requires std::is_trivially_copyable_v<T>
void serialize(Buf& buf, const std::vector<T>& values) {
  const uint64_t count = values.size();
  buf.appendBytes(&count, sizeof(count));
  if (count > 0) {
    buf.appendBytes(values.data(), count * sizeof(T));
  }
}

template <ByteSink Buf, typename T>
  requires(!std::is_trivially_copyable_v<T>)
void serialize(Buf& buf, const std::vector<T>& values) {
  const uint64_t count = values.size();
  buf.appendBytes(&count, sizeof(count));
  for (const auto& value : values) {
    serialize(buf, value);
  }
}

template <typename T>
  requires std::is_trivially_copyable_v<T>
void deserialize(RecvBuffer& buf, std::vector<T>& values) {
  uint64_t count = 0;
  buf.readBytes(&count, sizeof(count));
  if (count * sizeof(T) > buf.remaining()) {
    throw std::out_of_range("RecvBuffer: vector length exceeds message size");
  }
  values.resize(count);
  if (count > 0) {
    buf.readBytes(values.data(), count * sizeof(T));
  }
}

template <typename T>
  requires(!std::is_trivially_copyable_v<T>)
void deserialize(RecvBuffer& buf, std::vector<T>& values) {
  uint64_t count = 0;
  buf.readBytes(&count, sizeof(count));
  values.clear();
  values.reserve(count < (1u << 20) ? count : 0);
  for (uint64_t i = 0; i < count; ++i) {
    T value;
    deserialize(buf, value);
    values.push_back(std::move(value));
  }
}

// Variadic convenience: gSerialize/gDeserialize in Galois style.
template <ByteSink Buf, typename... Ts>
void serializeAll(Buf& buf, const Ts&... values) {
  (serialize(buf, values), ...);
}

template <typename... Ts>
void deserializeAll(RecvBuffer& buf, Ts&... values) {
  (deserialize(buf, values), ...);
}

}  // namespace cusp::support
