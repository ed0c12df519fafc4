// Runtime-width bitset view for coherence sharer tracking. Both coherence
// directories (the CMP L1 directory and the SMP private-L2 directory)
// keep one bit per node in ceil(num_cores / 64) words, fixed when the
// hierarchy is built and stored beside each directory entry
// (FlatMap64's per-slot words). `BitSpan` is a non-owning view of those
// words with the exact inline hot-path shape the directories always had:
// a word array walked with ctz (`while (rest) { visit(ctz(rest));
// rest &= rest - 1; }`), so set bits are visited in ascending index order
// at every width. tests/test_bitset.cc pins the semantics bit-for-bit
// against std::bitset and the historical u64 code.
#ifndef STAGEDCMP_COMMON_BITSET_H_
#define STAGEDCMP_COMMON_BITSET_H_

#include <cstdint>

namespace stagedcmp {

/// Words needed for one bit per node.
inline constexpr uint32_t BitWordsFor(uint32_t bits) {
  return (bits + 63) / 64;
}

/// A view of `words` 64-bit words as one bitset. `Word` is uint64_t for
/// a mutable view (`BitSpan`) or const uint64_t for a read-only one
/// (`ConstBitSpan`); the mutators only compile for the former.
template <typename Word>
class BitSpanT {
 public:
  BitSpanT(Word* w, uint32_t words) : w_(w), n_(words) {}

  void Set(uint32_t i) const { w_[i >> 6] |= uint64_t{1} << (i & 63); }
  void Reset(uint32_t i) const { w_[i >> 6] &= ~(uint64_t{1} << (i & 63)); }
  bool Test(uint32_t i) const {
    return (w_[i >> 6] >> (i & 63)) & uint64_t{1};
  }

  void Clear() const {
    for (uint32_t w = 0; w < n_; ++w) w_[w] = 0;
  }
  /// Clear() then Set(i) — "this node becomes the sole sharer".
  void SetOnly(uint32_t i) const {
    Clear();
    Set(i);
  }

  bool Any() const {
    uint64_t acc = 0;
    for (uint32_t w = 0; w < n_; ++w) acc |= w_[w];
    return acc != 0;
  }
  bool None() const { return !Any(); }
  /// True iff any bit other than `i` is set.
  bool AnyExcept(uint32_t i) const {
    uint64_t acc = 0;
    for (uint32_t w = 0; w < n_; ++w) {
      uint64_t v = w_[w];
      if (w == (i >> 6)) v &= ~(uint64_t{1} << (i & 63));
      acc |= v;
    }
    return acc != 0;
  }

  uint32_t Count() const {
    uint32_t n = 0;
    for (uint32_t w = 0; w < n_; ++w) {
      n += static_cast<uint32_t>(__builtin_popcountll(w_[w]));
    }
    return n;
  }

  /// Visits set bits in ascending index order — the same ctz walk the
  /// directories always used, so visit order (and therefore every
  /// order-dependent simulation outcome) does not depend on the width.
  template <typename Fn>
  void ForEachSetBit(Fn&& fn) const {
    for (uint32_t w = 0; w < n_; ++w) {
      uint64_t rest = w_[w];
      while (rest != 0) {
        fn((w << 6) + static_cast<uint32_t>(__builtin_ctzll(rest)));
        rest &= rest - 1;
      }
    }
  }
  /// ForEachSetBit skipping index `skip` (the requesting node): the
  /// `sharers & ~(1 << node)` peer walk, without materializing a copy.
  template <typename Fn>
  void ForEachSetBitExcept(uint32_t skip, Fn&& fn) const {
    for (uint32_t w = 0; w < n_; ++w) {
      uint64_t rest = w_[w];
      if (w == (skip >> 6)) rest &= ~(uint64_t{1} << (skip & 63));
      while (rest != 0) {
        fn((w << 6) + static_cast<uint32_t>(__builtin_ctzll(rest)));
        rest &= rest - 1;
      }
    }
  }

  /// Raw word access (tests and directed assertions only).
  uint64_t word(uint32_t w) const { return w_[w]; }

 private:
  Word* w_;
  uint32_t n_;
};

using BitSpan = BitSpanT<uint64_t>;
using ConstBitSpan = BitSpanT<const uint64_t>;

}  // namespace stagedcmp

#endif  // STAGEDCMP_COMMON_BITSET_H_
