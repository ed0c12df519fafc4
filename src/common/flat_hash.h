// Open-addressed hash map from 64-bit keys to small inline values,
// purpose-built for simulator hot paths (the CMP L1 directory probes it
// on every L1D fill and eviction).
//
// Design, chosen against std::unordered_map's node-per-entry layout:
//   * power-of-two capacity with Fibonacci bucket mixing — index math is
//     a multiply and a shift, no modulo;
//   * linear probing over parallel key/value/used arrays — one cache
//     line of keys covers eight probe steps, and values are stored
//     inline (no per-entry allocation, ever);
//   * tombstone-free deletion via backward-shift erase — probe chains
//     stay minimal under churn, so lookup cost does not degrade the way
//     tombstone schemes do when the same lines are filled and evicted
//     millions of times;
//   * growth at 7/8 load by rehash into a doubled table;
//   * optional per-slot words: a map built with `words_per_slot` = W
//     stores W uint64_t words beside every value (zeroed on insert,
//     moved with the value by erase and rehash). The coherence
//     directories keep each line's sharer bitmap there, so its width is
//     a construction-time count rather than a type parameter.
//
// Iteration order is unspecified and changes across rehashes; callers
// needing deterministic output must sort (the simulator only does point
// lookups). Not thread-safe.
#ifndef STAGEDCMP_COMMON_FLAT_HASH_H_
#define STAGEDCMP_COMMON_FLAT_HASH_H_

#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

namespace stagedcmp {

template <typename V>
class FlatMap64 {
 public:
  explicit FlatMap64(size_t initial_capacity = 64,
                     uint32_t words_per_slot = 0)
      : stride_(words_per_slot) {
    size_t cap = 16;
    while (cap < initial_capacity) cap <<= 1;
    Rebuild(cap);
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t capacity() const { return keys_.size(); }
  uint32_t words_per_slot() const { return stride_; }

  /// Returns the value for `key`, or null if absent.
  V* Find(uint64_t key) {
    size_t i = Bucket(key);
    while (used_[i]) {
      if (keys_[i] == key) return &vals_[i];
      i = (i + 1) & mask_;
    }
    return nullptr;
  }
  const V* Find(uint64_t key) const {
    return const_cast<FlatMap64*>(this)->Find(key);
  }

  /// Returns the value for `key`, default-constructing it (and zeroing
  /// its words) on first use.
  V& FindOrInsert(uint64_t key) {
    size_t i = Bucket(key);
    while (used_[i]) {
      if (keys_[i] == key) return vals_[i];
      i = (i + 1) & mask_;
    }
    if (size_ + 1 > capacity() - capacity() / 8) {
      Rebuild(capacity() * 2);
      i = Bucket(key);
      while (used_[i]) i = (i + 1) & mask_;
    }
    used_[i] = 1;
    keys_[i] = key;
    vals_[i] = V{};
    for (uint32_t w = 0; w < stride_; ++w) words_[i * stride_ + w] = 0;
    ++size_;
    return vals_[i];
  }

  /// The `words_per_slot()` words stored beside `v`, which must be a
  /// value of this map (from Find, FindOrInsert or ForEach). Valid as
  /// long as `v` is: until the next FindOrInsert or Erase.
  uint64_t* Words(const V& v) {
    return words_.data() + static_cast<size_t>(&v - vals_.data()) * stride_;
  }
  const uint64_t* Words(const V& v) const {
    return const_cast<FlatMap64*>(this)->Words(v);
  }

  /// Removes `key` if present; returns whether it was. Backward-shift:
  /// every displaced successor in the probe chain moves one step closer
  /// to its home bucket, leaving no tombstone behind.
  bool Erase(uint64_t key) {
    size_t i = Bucket(key);
    while (true) {
      if (!used_[i]) return false;
      if (keys_[i] == key) break;
      i = (i + 1) & mask_;
    }
    size_t j = i;
    while (true) {
      j = (j + 1) & mask_;
      if (!used_[j]) break;
      // The entry at j may slide into the hole at i only if that does
      // not put it before its home bucket: home must be at or before i
      // in cyclic probe order, i.e. dist(home->j) >= dist(i->j).
      const size_t home = Bucket(keys_[j]);
      if (((j - home) & mask_) >= ((j - i) & mask_)) {
        keys_[i] = keys_[j];
        vals_[i] = vals_[j];
        for (uint32_t w = 0; w < stride_; ++w) {
          words_[i * stride_ + w] = words_[j * stride_ + w];
        }
        i = j;
      }
    }
    used_[i] = 0;
    --size_;
    return true;
  }

  void Clear() {
    used_.assign(used_.size(), 0);
    size_ = 0;
  }

  /// Visits every (key, value) pair in unspecified order (tests/stats).
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (size_t i = 0; i < keys_.size(); ++i) {
      if (used_[i]) fn(keys_[i], vals_[i]);
    }
  }

  /// Probe distance of `key`'s slot from its home bucket (tests; asserts
  /// the backward-shift invariant). Returns -1 if absent.
  int64_t ProbeDistance(uint64_t key) const {
    size_t i = Bucket(key);
    int64_t d = 0;
    while (used_[i]) {
      if (keys_[i] == key) return d;
      i = (i + 1) & mask_;
      ++d;
    }
    return -1;
  }

 private:
  size_t Bucket(uint64_t key) const {
    return static_cast<size_t>((key * 0x9E3779B97F4A7C15ULL) >> shift_);
  }

  void Rebuild(size_t new_cap) {
    assert((new_cap & (new_cap - 1)) == 0);
    std::vector<uint64_t> old_keys = std::move(keys_);
    std::vector<V> old_vals = std::move(vals_);
    std::vector<uint8_t> old_used = std::move(used_);
    std::vector<uint64_t> old_words = std::move(words_);
    keys_.assign(new_cap, 0);
    vals_.assign(new_cap, V{});
    used_.assign(new_cap, 0);
    words_.assign(new_cap * stride_, 0);
    mask_ = new_cap - 1;
    shift_ = 64;
    while ((size_t{1} << (64 - shift_)) < new_cap) --shift_;
    for (size_t i = 0; i < old_keys.size(); ++i) {
      if (!old_used[i]) continue;
      size_t j = Bucket(old_keys[i]);
      while (used_[j]) j = (j + 1) & mask_;
      used_[j] = 1;
      keys_[j] = old_keys[i];
      vals_[j] = old_vals[i];
      for (uint32_t w = 0; w < stride_; ++w) {
        words_[j * stride_ + w] = old_words[i * stride_ + w];
      }
    }
  }

  std::vector<uint64_t> keys_;
  std::vector<V> vals_;
  std::vector<uint8_t> used_;
  std::vector<uint64_t> words_;  // stride_ words per slot
  size_t mask_ = 0;
  uint32_t shift_ = 64;
  uint32_t stride_ = 0;
  size_t size_ = 0;
};

}  // namespace stagedcmp

#endif  // STAGEDCMP_COMMON_FLAT_HASH_H_
