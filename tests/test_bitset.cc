// BitSpan semantics pins, per the directory-widening contract: a one-word
// view must reproduce the historical raw-u64 sharers semantics
// bit-for-bit (the SMP/CMP directories' hot paths were written against
// those masks), and views of 1, 4 and 16 words must agree with a
// std::bitset oracle under randomized churn, so the sharer-set width is
// a pure representation choice.
#include <gtest/gtest.h>

#include <bitset>
#include <cstdint>
#include <vector>

#include "common/bitset.h"
#include "common/rng.h"

namespace stagedcmp {
namespace {

// ---------------------------------------------------------------------------
// One word: exact equivalence with the historical u64 mask operations.
// ---------------------------------------------------------------------------

/// The pre-bitset directory representation, verbatim: every operation the
/// SMP directory and CMP L1 directory performed on their u64/u32 sharers
/// words, expressed on a bare uint64_t.
struct U64Oracle {
  uint64_t bits = 0;

  void Set(uint32_t i) { bits |= uint64_t{1} << i; }
  void Reset(uint32_t i) { bits &= ~(uint64_t{1} << i); }
  bool Test(uint32_t i) const { return (bits >> i) & 1u; }
  void SetOnly(uint32_t i) { bits = uint64_t{1} << i; }
  bool Any() const { return bits != 0; }
  bool AnyExcept(uint32_t i) const {
    return (bits & ~(uint64_t{1} << i)) != 0;
  }
  uint32_t Count() const {
    return static_cast<uint32_t>(__builtin_popcountll(bits));
  }
  /// The directories' ctz peer walk, verbatim.
  std::vector<uint32_t> Walk(int skip = -1) const {
    uint64_t rest = bits;
    if (skip >= 0) rest &= ~(uint64_t{1} << skip);
    std::vector<uint32_t> out;
    while (rest != 0) {
      out.push_back(static_cast<uint32_t>(__builtin_ctzll(rest)));
      rest &= rest - 1;
    }
    return out;
  }
};

std::vector<uint32_t> Walk(const BitSpan& b, int skip = -1) {
  std::vector<uint32_t> out;
  if (skip >= 0) {
    b.ForEachSetBitExcept(static_cast<uint32_t>(skip),
                          [&](uint32_t i) { out.push_back(i); });
  } else {
    b.ForEachSetBit([&](uint32_t i) { out.push_back(i); });
  }
  return out;
}

TEST(BitSpanOneWordTest, MatchesU64SharersSemanticsUnderRandomOps) {
  uint64_t word = 0;
  const BitSpan b(&word, 1);
  U64Oracle o;
  Rng rng(99);
  for (int step = 0; step < 1'000'000; ++step) {
    const uint32_t i = static_cast<uint32_t>(rng.Next() % 64);
    switch (rng.Next() % 5) {
      case 0: b.Set(i); o.Set(i); break;
      case 1: b.Reset(i); o.Reset(i); break;
      case 2: b.SetOnly(i); o.SetOnly(i); break;
      case 3:
        ASSERT_EQ(b.Test(i), o.Test(i)) << "step " << step;
        ASSERT_EQ(b.AnyExcept(i), o.AnyExcept(i)) << "step " << step;
        break;
      default:
        ASSERT_EQ(b.word(0), o.bits) << "step " << step;
        ASSERT_EQ(b.Any(), o.Any());
        ASSERT_EQ(b.None(), !o.Any());
        ASSERT_EQ(b.Count(), o.Count());
        ASSERT_EQ(Walk(b), o.Walk()) << "step " << step;
        ASSERT_EQ(Walk(b, static_cast<int>(i)),
                  o.Walk(static_cast<int>(i)))
            << "step " << step << " skip " << i;
        break;
    }
  }
  ASSERT_EQ(b.word(0), o.bits);
}

// Directed transitions mirroring the directory bookkeeping sequences.
TEST(BitSpanOneWordTest, DirectoryTransitionShapes) {
  uint64_t word = 0;
  const BitSpan b(&word, 1);
  EXPECT_TRUE(b.None());
  EXPECT_EQ(b.Count(), 0u);
  EXPECT_TRUE(Walk(b).empty());

  // Fill: sole sharer.
  b.SetOnly(5);
  EXPECT_EQ(b.word(0), uint64_t{1} << 5);
  EXPECT_FALSE(b.AnyExcept(5));
  EXPECT_TRUE(b.AnyExcept(6));

  // Peer read joins.
  b.Set(63);
  EXPECT_EQ(b.Count(), 2u);
  EXPECT_EQ(Walk(b), (std::vector<uint32_t>{5, 63}));         // ascending
  EXPECT_EQ(Walk(b, 5), (std::vector<uint32_t>{63}));          // peer walk
  EXPECT_EQ(Walk(b, 63), (std::vector<uint32_t>{5}));

  // Upgrade: writer becomes sole sharer again.
  b.SetOnly(63);
  EXPECT_EQ(b.word(0), uint64_t{1} << 63);
  EXPECT_FALSE(b.AnyExcept(63));

  // Eviction of the last sharer empties the set ("erase the entry").
  b.Reset(63);
  EXPECT_TRUE(b.None());
  EXPECT_FALSE(b.Any());
  EXPECT_EQ(b.Count(), 0u);
}

// ---------------------------------------------------------------------------
// 1, 4 and 16 words: std::bitset oracle churn + cross-word walks.
// ---------------------------------------------------------------------------

TEST(BitSpanTest, WordsForNodeCounts) {
  EXPECT_EQ(BitWordsFor(1), 1u);
  EXPECT_EQ(BitWordsFor(64), 1u);
  EXPECT_EQ(BitWordsFor(65), 2u);
  EXPECT_EQ(BitWordsFor(256), 4u);
  EXPECT_EQ(BitWordsFor(1024), 16u);
}

template <uint32_t kWords>
void ChurnAgainstStdBitset(uint64_t seed, int steps) {
  constexpr uint32_t kBits = kWords * 64;
  uint64_t words[kWords] = {};
  const BitSpan b(words, kWords);
  std::bitset<kBits> o;
  Rng rng(seed);
  for (int step = 0; step < steps; ++step) {
    const uint32_t i = static_cast<uint32_t>(rng.Next() % kBits);
    switch (rng.Next() % 6) {
      case 0: b.Set(i); o.set(i); break;
      case 1: b.Reset(i); o.reset(i); break;
      case 2:
        b.SetOnly(i);
        o.reset();
        o.set(i);
        break;
      case 3: b.Clear(); o.reset(); break;
      case 4:
        ASSERT_EQ(b.Test(i), o.test(i)) << "step " << step;
        ASSERT_EQ(b.Any(), o.any());
        ASSERT_EQ(b.Count(), static_cast<uint32_t>(o.count()));
        break;
      default: {
        // The walk must visit exactly the oracle's set bits, ascending.
        std::vector<uint32_t> expect;
        for (uint32_t k = 0; k < kBits; ++k) {
          if (o.test(k)) expect.push_back(k);
        }
        ASSERT_EQ(Walk(b), expect) << "step " << step;
        std::vector<uint32_t> expect_skip;
        for (uint32_t k : expect) {
          if (k != i) expect_skip.push_back(k);
        }
        ASSERT_EQ(Walk(b, static_cast<int>(i)), expect_skip)
            << "step " << step << " skip " << i;
        ASSERT_EQ(b.AnyExcept(i), !expect_skip.empty()) << "step " << step;
        break;
      }
    }
  }
}

TEST(BitSpanTest, Churn1Word) { ChurnAgainstStdBitset<1>(11, 120'000); }
TEST(BitSpanTest, Churn4Words) { ChurnAgainstStdBitset<4>(22, 120'000); }
TEST(BitSpanTest, Churn16Words) { ChurnAgainstStdBitset<16>(33, 120'000); }

// Word-boundary bits are where a shift-width bug would hide: indices
// 63/64/65 land in different words, and bit 1023 is the top of the last.
TEST(BitSpanTest, CrossWordBoundaries) {
  uint64_t words[16] = {};
  const BitSpan b(words, 16);
  for (uint32_t i : {0u, 63u, 64u, 65u, 511u, 512u, 1023u}) b.Set(i);
  EXPECT_EQ(b.Count(), 7u);
  EXPECT_EQ(Walk(b), (std::vector<uint32_t>{0, 63, 64, 65, 511, 512, 1023}));
  EXPECT_EQ(b.word(0), (uint64_t{1} << 0) | (uint64_t{1} << 63));
  EXPECT_EQ(b.word(1), (uint64_t{1} << 0) | (uint64_t{1} << 1));
  EXPECT_EQ(b.word(15), uint64_t{1} << 63);

  // Skip walks drop exactly the skipped index, wherever its word is.
  EXPECT_EQ(Walk(b, 64), (std::vector<uint32_t>{0, 63, 65, 511, 512, 1023}));
  EXPECT_EQ(Walk(b, 1023), (std::vector<uint32_t>{0, 63, 64, 65, 511, 512}));
  EXPECT_TRUE(b.AnyExcept(1023));

  // Reset down to one bit: AnyExcept flips to false only then.
  for (uint32_t i : {0u, 63u, 64u, 65u, 511u, 512u}) b.Reset(i);
  EXPECT_TRUE(b.Test(1023));
  EXPECT_FALSE(b.AnyExcept(1023));
  b.Reset(1023);
  EXPECT_TRUE(b.None());
}

// SetOnly clears every word, not just the one it sets; a read-only view
// of the same words sees the result.
TEST(BitSpanTest, SetOnlyAcrossWords) {
  uint64_t words[4] = {};
  const BitSpan a(words, 4);
  a.Set(200);
  a.SetOnly(7);  // clears word 3, sets word 0
  const ConstBitSpan c(words, 4);
  EXPECT_EQ(c.Count(), 1u);
  EXPECT_TRUE(c.Test(7));
  EXPECT_FALSE(c.Test(200));
  EXPECT_EQ(words[3], 0u);
}

}  // namespace
}  // namespace stagedcmp
