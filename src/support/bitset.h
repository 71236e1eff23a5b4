// Fixed-capacity dynamic bitset with two write disciplines.
//
//  * Shared: set() is an atomic fetch_or on the 64-bit word, safe under
//    concurrent writers. The partitioner's sets that several threads of one
//    host write (edge assignment's createMirror flags) use it.
//  * Single-writer: setSingleWriter()/clearSingleWriter() are a relaxed
//    load, an OR / AND-NOT and a relaxed store of the word, with no locked
//    read-modify-write. They are valid only while ONE thread writes the
//    bitset; concurrent readers still see whole words. Every analytics
//    bitset (frontier, dirty, changed flags) belongs to one host thread —
//    a host is one thread in comm::runHosts — so the analytics kernels use
//    these, and the tsan-analytics lane of tests/run_sanitized.sh checks
//    that no second writer appears.
//
// test() and the whole-set reads are relaxed loads; resize and resetAll are
// not concurrent with writers.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

namespace cusp::support {

class DynamicBitset {
 public:
  DynamicBitset() = default;
  explicit DynamicBitset(uint64_t numBits) { resize(numBits); }

  DynamicBitset(const DynamicBitset& other) { copyFrom(other); }
  DynamicBitset& operator=(const DynamicBitset& other) {
    if (this != &other) {
      copyFrom(other);
    }
    return *this;
  }
  DynamicBitset(DynamicBitset&&) = default;
  DynamicBitset& operator=(DynamicBitset&&) = default;

  void resize(uint64_t numBits) {
    numBits_ = numBits;
    words_ = std::vector<std::atomic<uint64_t>>((numBits + 63) / 64);
  }

  uint64_t size() const { return numBits_; }

  // Thread-safe. Returns true if the bit was newly set.
  bool set(uint64_t index) {
    const uint64_t mask = 1ULL << (index & 63);
    const uint64_t old =
        words_[index >> 6].fetch_or(mask, std::memory_order_relaxed);
    return (old & mask) == 0;
  }

  // Thread-safe with concurrent set() on other bits; plain read.
  bool test(uint64_t index) const {
    const uint64_t mask = 1ULL << (index & 63);
    return (words_[index >> 6].load(std::memory_order_relaxed) & mask) != 0;
  }

  // Only for a bitset written by one thread (see the header comment).
  void setSingleWriter(uint64_t index) {
    auto& word = words_[index >> 6];
    word.store(word.load(std::memory_order_relaxed) | (1ULL << (index & 63)),
               std::memory_order_relaxed);
  }
  void clearSingleWriter(uint64_t index) {
    auto& word = words_[index >> 6];
    word.store(word.load(std::memory_order_relaxed) & ~(1ULL << (index & 63)),
               std::memory_order_relaxed);
  }

  void resetAll() {
    for (auto& word : words_) {
      word.store(0, std::memory_order_relaxed);
    }
  }

  uint64_t count() const {
    uint64_t total = 0;
    for (const auto& word : words_) {
      total += static_cast<uint64_t>(
          __builtin_popcountll(word.load(std::memory_order_relaxed)));
    }
    return total;
  }

  bool any() const {
    for (const auto& word : words_) {
      if (word.load(std::memory_order_relaxed) != 0) {
        return true;
      }
    }
    return false;
  }

  // Appends the indices of all set bits to `out` in ascending order.
  void collectSetBits(std::vector<uint64_t>& out) const {
    for (uint64_t w = 0; w < words_.size(); ++w) {
      uint64_t word = words_[w].load(std::memory_order_relaxed);
      while (word != 0) {
        const int bit = __builtin_ctzll(word);
        const uint64_t index = (w << 6) + static_cast<uint64_t>(bit);
        if (index < numBits_) {
          out.push_back(index);
        }
        word &= word - 1;
      }
    }
  }

 private:
  // Reuses the words when the sizes match, so a per-superstep copy into
  // long-lived scratch allocates nothing.
  void copyFrom(const DynamicBitset& other) {
    numBits_ = other.numBits_;
    if (words_.size() != other.words_.size()) {
      words_ = std::vector<std::atomic<uint64_t>>(other.words_.size());
    }
    for (size_t i = 0; i < words_.size(); ++i) {
      words_[i].store(other.words_[i].load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
    }
  }

  uint64_t numBits_ = 0;
  std::vector<std::atomic<uint64_t>> words_;
};

}  // namespace cusp::support
