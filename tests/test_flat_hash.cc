// Unit suite for the open-addressed FlatMap64 backing both coherence
// directories: point operations, growth rehash, backward-shift erase
// under forced collision clusters, and a randomized oracle comparison
// against std::unordered_map under heavy churn, with and without
// per-slot words.
#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/flat_hash.h"
#include "common/rng.h"

namespace stagedcmp {
namespace {

struct DirValue {
  uint32_t sharers = 0;
  int8_t dirty_owner = -1;
  bool operator==(const DirValue& o) const {
    return sharers == o.sharers && dirty_owner == o.dirty_owner;
  }
};

TEST(FlatMap64Test, InsertFindErase) {
  FlatMap64<DirValue> m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.Find(42u), nullptr);

  DirValue& v = m.FindOrInsert(42);
  EXPECT_EQ(v.sharers, 0u);        // default-constructed
  EXPECT_EQ(v.dirty_owner, -1);
  v.sharers = 0b101;
  v.dirty_owner = 2;
  ASSERT_NE(m.Find(42u), nullptr);
  EXPECT_EQ(m.Find(42u)->sharers, 0b101u);
  EXPECT_EQ(m.size(), 1u);

  // FindOrInsert on an existing key returns the same entry.
  EXPECT_EQ(&m.FindOrInsert(42), m.Find(42u));
  EXPECT_EQ(m.size(), 1u);

  EXPECT_TRUE(m.Erase(42));
  EXPECT_FALSE(m.Erase(42));
  EXPECT_EQ(m.Find(42u), nullptr);
  EXPECT_TRUE(m.empty());
}

TEST(FlatMap64Test, ZeroAndLargeKeys) {
  FlatMap64<uint64_t> m;
  m.FindOrInsert(0) = 7;
  m.FindOrInsert(UINT64_MAX) = 9;
  ASSERT_NE(m.Find(0u), nullptr);
  EXPECT_EQ(*m.Find(0u), 7u);
  ASSERT_NE(m.Find(UINT64_MAX), nullptr);
  EXPECT_EQ(*m.Find(UINT64_MAX), 9u);
}

// Craft keys that all land in one home bucket, then erase from the front
// of the cluster: backward shift must compact the chain (probe distances
// shrink) and every survivor must stay findable. With tombstones the
// distances would never shrink.
TEST(FlatMap64Test, BackwardShiftCompactsForcedCollisionCluster) {
  FlatMap64<uint64_t> m(64);
  const size_t target = 11;
  std::vector<uint64_t> colliders;
  // Brute-force keys whose home bucket is `target` for capacity 64:
  // Bucket(k) = (k * phi64) >> 58.
  for (uint64_t k = 1; colliders.size() < 8; ++k) {
    if (((k * 0x9E3779B97F4A7C15ULL) >> 58) == target) colliders.push_back(k);
  }
  for (size_t i = 0; i < colliders.size(); ++i) {
    m.FindOrInsert(colliders[i]) = i;
  }
  // Linear probing: the i-th collider sits i slots from home.
  for (size_t i = 0; i < colliders.size(); ++i) {
    EXPECT_EQ(m.ProbeDistance(colliders[i]), static_cast<int64_t>(i));
  }
  // Erasing the head must shift every successor one step closer.
  EXPECT_TRUE(m.Erase(colliders[0]));
  for (size_t i = 1; i < colliders.size(); ++i) {
    EXPECT_EQ(m.ProbeDistance(colliders[i]), static_cast<int64_t>(i - 1));
    ASSERT_NE(m.Find(colliders[i]), nullptr);
    EXPECT_EQ(*m.Find(colliders[i]), i);
  }
  // Erasing from the middle compacts the tail but not the head.
  EXPECT_TRUE(m.Erase(colliders[4]));
  EXPECT_EQ(m.ProbeDistance(colliders[1]), 0);
  EXPECT_EQ(m.ProbeDistance(colliders[7]), 5);
  EXPECT_EQ(m.size(), 6u);
}

// An entry displaced *past* an unrelated home bucket must not be shifted
// before that bucket by an erase (the dist(home->j) >= dist(i->j) guard).
TEST(FlatMap64Test, BackwardShiftRespectsHomeBuckets) {
  FlatMap64<uint64_t> m(64);
  auto bucket_of = [](uint64_t k) {
    return (k * 0x9E3779B97F4A7C15ULL) >> 58;
  };
  // Two keys homed at b, one key homed at b+1; the b-cluster pushes the
  // b+1 key to distance 1.
  uint64_t a = 0, b = 0, c = 0;
  for (uint64_t k = 1; a == 0 || b == 0 || c == 0; ++k) {
    const uint64_t h = bucket_of(k);
    if (h == 20) {
      if (a == 0) {
        a = k;
      } else if (b == 0) {
        b = k;
      }
    } else if (h == 21 && c == 0) {
      c = k;
    }
  }
  m.FindOrInsert(a) = 1;
  m.FindOrInsert(b) = 2;
  m.FindOrInsert(c) = 3;
  EXPECT_EQ(m.ProbeDistance(c), 1);
  // Erasing `a` lets `b` slide home but `c` may only reach its own home
  // bucket (distance 0), not slot 20.
  EXPECT_TRUE(m.Erase(a));
  EXPECT_EQ(m.ProbeDistance(b), 0);
  EXPECT_EQ(m.ProbeDistance(c), 0);
  EXPECT_EQ(*m.Find(c), 3u);
}

TEST(FlatMap64Test, GrowthRehashKeepsEverything) {
  FlatMap64<uint64_t> m(16);
  const size_t initial_cap = m.capacity();
  constexpr uint64_t kN = 10'000;
  for (uint64_t k = 0; k < kN; ++k) {
    m.FindOrInsert(k * 0x123456789ULL) = k;
  }
  EXPECT_EQ(m.size(), kN);
  EXPECT_GT(m.capacity(), initial_cap);
  // Load factor stays below 7/8 across growth.
  EXPECT_LE(m.size(), m.capacity() - m.capacity() / 8);
  for (uint64_t k = 0; k < kN; ++k) {
    auto* v = m.Find(k * 0x123456789ULL);
    ASSERT_NE(v, nullptr) << k;
    EXPECT_EQ(*v, k);
  }
  uint64_t visited = 0;
  m.ForEach([&](uint64_t, const uint64_t&) { ++visited; });
  EXPECT_EQ(visited, kN);
}

// Directory-churn oracle: random insert/mutate/erase mix mirrored into a
// std::unordered_map; contents must agree at every step boundary. With
// `stride` per-slot words, each entry's words ride along in the oracle
// too: they must start zeroed and survive every erase shift and rehash.
void ChurnAgainstUnorderedMap(uint32_t stride) {
  struct OracleEntry {
    DirValue v;
    std::vector<uint64_t> words;
  };
  FlatMap64<DirValue> m(64, stride);
  ASSERT_EQ(m.words_per_slot(), stride);
  std::unordered_map<uint64_t, OracleEntry> oracle;
  auto words_of = [&](const DirValue& v) {
    const uint64_t* w = m.Words(v);
    return std::vector<uint64_t>(w, w + stride);
  };
  Rng rng(123);
  // Narrow key space forces constant collide/erase/reinsert traffic.
  constexpr uint64_t kKeySpace = 4096;
  for (int step = 0; step < 200'000; ++step) {
    const uint64_t key = rng.Next() % kKeySpace;
    switch (rng.Next() % 4) {
      case 0:
      case 1: {  // upsert
        DirValue& v = m.FindOrInsert(key);
        auto [it, fresh] = oracle.try_emplace(key);
        OracleEntry& ov = it->second;
        if (fresh) ov.words.assign(stride, 0);
        EXPECT_EQ(v, ov.v);
        EXPECT_EQ(words_of(v), ov.words);
        v.sharers = ov.v.sharers = static_cast<uint32_t>(rng.Next());
        v.dirty_owner = ov.v.dirty_owner = static_cast<int8_t>(rng.Next() % 8);
        uint64_t* w = m.Words(v);
        for (uint32_t k = 0; k < stride; ++k) w[k] = ov.words[k] = rng.Next();
        break;
      }
      case 2: {  // lookup
        DirValue* v = m.Find(key);
        auto it = oracle.find(key);
        ASSERT_EQ(v != nullptr, it != oracle.end());
        if (v != nullptr) {
          EXPECT_EQ(*v, it->second.v);
          EXPECT_EQ(words_of(*v), it->second.words);
        }
        break;
      }
      case 3: {  // erase
        EXPECT_EQ(m.Erase(key), oracle.erase(key) > 0);
        break;
      }
    }
    ASSERT_EQ(m.size(), oracle.size());
  }
  // Final full sweep both directions.
  for (const auto& [k, ov] : oracle) {
    auto* got = m.Find(k);
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(*got, ov.v);
    EXPECT_EQ(words_of(*got), ov.words);
  }
  m.ForEach([&](uint64_t k, const DirValue& v) {
    auto it = oracle.find(k);
    ASSERT_NE(it, oracle.end());
    EXPECT_EQ(v, it->second.v);
    EXPECT_EQ(words_of(v), it->second.words);
  });
}

TEST(FlatMap64Test, RandomChurnMatchesUnorderedMapOracle) {
  ChurnAgainstUnorderedMap(0);
}
// One word is the <= 64-node sharer set, three an odd multi-word stride.
TEST(FlatMap64Test, RandomChurnWithSlotWordsMatchesOracle) {
  ChurnAgainstUnorderedMap(1);
  ChurnAgainstUnorderedMap(3);
}

}  // namespace
}  // namespace stagedcmp
