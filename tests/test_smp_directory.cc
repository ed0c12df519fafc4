// Bookkeeping suite for the SMP sharers-bitmap directory: directed
// transition checks plus an oracle-checked eviction-churn run (in the
// spirit of test_flat_hash.cc's churn-vs-oracle test).
//
// The invariant under test: after every access, the directory reports a
// node as sharer if and only if that node's L2 actually holds the line in
// a non-Invalid state, and dirty_owner points at the node holding it
// Modified (or -1). PrivateL2Hierarchy::CheckDirectoryInvariants verifies
// both directions against the real cache contents; here we force heavy L2
// eviction traffic — the path where a forgotten notification would leave
// stale sharer bits — and assert it stays clean throughout.
#include <gtest/gtest.h>

#include <cstdint>
#include <type_traits>

#include "common/rng.h"
#include "memsim/hierarchy.h"

namespace stagedcmp::memsim {
namespace {

/// Tiny caches so a few hundred lines already thrash every L2 set.
HierarchyConfig TinyConfig(uint32_t cores) {
  HierarchyConfig h;
  h.num_cores = cores;
  h.l1i = CacheConfig{2 * 1024, 2, 64};
  h.l1d = CacheConfig{2 * 1024, 2, 64};
  h.l2 = CacheConfig{8 * 1024, 2, 64};  // 64 sets, 128 lines per node
  return h;
}

const SmpDirEntry* Entry(const PrivateL2Hierarchy& h, uint64_t addr) {
  return h.directory().Find(addr >> 6);  // 64B lines
}

TEST(SmpDirectoryTest, TracksWriteReadAndUpgradeTransitions) {
  PrivateL2Hierarchy h(TinyConfig(4));
  const uint64_t addr = 0x6000;

  // Node 0 writes: sole sharer, dirty owner.
  h.AccessData(0, addr, true, 0);
  const SmpDirEntry* e = Entry(h, addr);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->sharers.word(0), 0b1u);
  EXPECT_EQ(e->dirty_owner, 0);

  // Node 1 reads: dirty owner downgraded, both share.
  EXPECT_EQ(h.AccessData(1, addr, false, 10).cls, AccessClass::kCoherence);
  e = Entry(h, addr);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->sharers.word(0), 0b11u);
  EXPECT_EQ(e->dirty_owner, -1);

  // Node 2 reads the now-clean line: three sharers, still no owner.
  EXPECT_EQ(h.AccessData(2, addr, false, 20).cls, AccessClass::kOffChip);
  e = Entry(h, addr);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->sharers.word(0), 0b111u);
  EXPECT_EQ(e->dirty_owner, -1);

  // Node 1 upgrades (write to Shared): peers invalidated, sole owner.
  EXPECT_EQ(h.AccessData(1, addr, true, 30).cls, AccessClass::kCoherence);
  e = Entry(h, addr);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->sharers.word(0), 0b10u);
  EXPECT_EQ(e->dirty_owner, 1);

  EXPECT_EQ(h.CheckDirectoryInvariants(), "");
}

TEST(SmpDirectoryTest, ExclusiveStaysCleanUntilTheL2CopyIsWritten) {
  const HierarchyConfig cfg = TinyConfig(4);
  PrivateL2Hierarchy h(cfg);
  const uint64_t addr = 0x9000;
  h.AccessData(3, addr, false, 0);  // fills Exclusive (no remote holder)
  const SmpDirEntry* e = Entry(h, addr);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->sharers.word(0), 0b1000u);
  EXPECT_EQ(e->dirty_owner, -1);  // Exclusive is clean

  // A write now hits the L1 copy (Exclusive is writable): the L1 goes
  // Modified but the L2 copy stays Exclusive — the directory mirrors L2
  // state, so dirty_owner stays -1, exactly what a snoop would observe.
  h.AccessData(3, addr, true, 10);
  e = Entry(h, addr);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->dirty_owner, -1);

  // Conflict the line out of the (tiny) L1D only: the two fills below
  // share its L1 set but land in different L2 sets. The next write then
  // misses L1, hits the L2 copy, and dirties it — now the directory must
  // record the owner.
  const uint64_t l1_stride = cfg.l1d.num_sets() * 64;
  h.AccessData(3, addr + l1_stride, false, 20);
  h.AccessData(3, addr + 2 * l1_stride, false, 30);
  h.AccessData(3, addr, true, 40);
  e = Entry(h, addr);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->dirty_owner, 3);
  EXPECT_EQ(h.CheckDirectoryInvariants(), "");
}

// Conflict-evict a node's copy out of its L2 and verify the directory
// forgets that sharer: fill one L2 set past its associativity and check
// the earliest line no longer lists the node.
TEST(SmpDirectoryTest, EvictionClearsSharerBitAndErasesEmptyEntries) {
  const HierarchyConfig cfg = TinyConfig(2);
  PrivateL2Hierarchy h(cfg);
  const uint64_t sets = cfg.l2.num_sets();          // 64
  const uint64_t set_stride = sets * 64;            // same-set line stride
  const uint64_t base = 0x40000;

  // 2-way L2 set: the third same-set fill evicts the first line.
  h.AccessData(0, base + 0 * set_stride, false, 0);
  h.AccessData(0, base + 1 * set_stride, false, 1);
  ASSERT_NE(Entry(h, base), nullptr);
  h.AccessData(0, base + 2 * set_stride, false, 2);
  // Sole sharer evicted => entry erased entirely.
  EXPECT_EQ(Entry(h, base), nullptr);
  EXPECT_EQ(h.CheckDirectoryInvariants(), "");

  // With a second sharer, eviction at node 0 must only clear node 0's bit.
  h.AccessData(1, base + 1 * set_stride, false, 3);
  h.AccessData(0, base + 1 * set_stride, false, 4);  // refresh LRU at node 0
  h.AccessData(0, base + 3 * set_stride, false, 5);  // evicts 2*stride
  h.AccessData(0, base + 4 * set_stride, false, 6);  // evicts 1*stride @node0
  const SmpDirEntry* e = Entry(h, base + 1 * set_stride);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->sharers.word(0), 0b10u);  // node 1 still holds it
  EXPECT_EQ(h.CheckDirectoryInvariants(), "");
}

/// True iff VisitHierarchy resolves `h` to exactly the concrete type `Want`.
template <class Want>
bool VisitsAs(MemoryHierarchy& h) {
  return VisitHierarchy(h, [](auto& c) {
    return std::is_same_v<std::remove_reference_t<decltype(c)>, Want>;
  });
}

// Factory width routing: up to 64 nodes uses the single-word directory
// (the instantiation whose hot path compiles to the historical scalar
// masks), 65..1024 the BitSet<1024> wide directory; past the wide cap
// both factories abort with the constructor's message.
TEST(SmpDirectoryTest, FactoryRoutesWidthsAndAbortsPast1024Nodes) {
  HierarchyConfig cfg = TinyConfig(64);
  auto at_cap = MakeSmpHierarchy(cfg);
  EXPECT_TRUE(VisitsAs<PrivateL2Hierarchy>(*at_cap));
  EXPECT_TRUE(VisitsAs<SharedL2Hierarchy>(*MakeCmpHierarchy(cfg)));
  for (uint32_t n : {65u, 256u, 1024u}) {
    cfg.num_cores = n;
    auto wide = MakeSmpHierarchy(cfg);
    EXPECT_TRUE(VisitsAs<PrivateL2HierarchyWide>(*wide)) << n << " nodes";
    EXPECT_TRUE(VisitsAs<SharedL2HierarchyWide>(*MakeCmpHierarchy(cfg)))
        << n << " nodes";
    // The wide directory simulates correctly with a top-node sharer.
    wide->AccessData(n - 1, 0x6000, true, 0);
    EXPECT_EQ(wide->AccessData(0, 0x6000, false, 10).cls,
              AccessClass::kCoherence)
        << n << " nodes";
  }
  cfg.num_cores = 1025;
  EXPECT_DEATH(MakeSmpHierarchy(cfg),
               "PrivateL2Hierarchy: directory supports <= 1024 nodes, "
               "got 1025");
  EXPECT_DEATH(MakeCmpHierarchy(cfg),
               "SharedL2Hierarchy: L1 directory supports <= 1024 cores, "
               "got 1025");
}

// The snoop reference arm is no production type: the visitor refuses it
// rather than silently replaying it.
TEST(SmpDirectoryTest, VisitorAbortsOnSnoopReferenceArm) {
  PrivateL2SnoopHierarchy snoop(TinyConfig(4));
  EXPECT_DEATH(VisitHierarchy(snoop, [](auto&) { return 0; }),
               "VisitHierarchy: not a production hierarchy type");
}

// Randomized churn: tiny L2s, a footprint ~30x the cache, mixed
// read/write/instruction traffic from every node, oracle-checked
// periodically. A single missed eviction/invalidation notification shows
// up here as a stale sharer bit.
class SmpDirectoryChurnTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(SmpDirectoryChurnTest, OracleCleanUnderEvictionChurn) {
  const uint32_t cores = GetParam();
  PrivateL2Hierarchy h(TinyConfig(cores));
  Rng rng(7 * cores + 1);
  uint64_t now = 0;
  uint64_t dir_peak = 0;
  for (int step = 0; step < 120'000; ++step) {
    const uint32_t node = static_cast<uint32_t>(rng.Next() % cores);
    const uint64_t addr = 0x10000 + (rng.Next() % 4096) * 64;
    const uint32_t kind = static_cast<uint32_t>(rng.Next() % 10);
    if (kind == 0) {
      h.AccessInstr(node, addr, now);
    } else {
      h.AccessData(node, addr, kind < 4, now);
    }
    ++now;
    dir_peak = std::max<uint64_t>(dir_peak, h.directory().size());
    if (step % 5000 == 4999) {
      ASSERT_EQ(h.CheckDirectoryInvariants(), "") << "after step " << step;
    }
  }
  ASSERT_EQ(h.CheckDirectoryInvariants(), "");
  // The directory tracks resident lines only — churn must not grow it
  // beyond total L2 capacity (128 lines per node), i.e. entries are
  // really erased when their last sharer leaves.
  EXPECT_LE(dir_peak, uint64_t{128} * cores);
  EXPECT_GT(h.stats().invalidations, 0u);
  EXPECT_GT(h.stats().writebacks, 0u);
}

INSTANTIATE_TEST_SUITE_P(Nodes, SmpDirectoryChurnTest,
                         ::testing::Values(2u, 4u, 8u, 64u));

// Same oracle churn on the wide (BitSet<1024>) directory with a node
// count past the single-word cap, so multi-word sharer bookkeeping — the
// upper words' set/clear/walk paths — faces the same eviction storm.
TEST(SmpDirectoryWideChurnTest, OracleCleanUnderEvictionChurn) {
  const uint32_t cores = 96;  // bits span two 64-bit words
  PrivateL2HierarchyWide h(TinyConfig(cores));
  Rng rng(7 * cores + 1);
  uint64_t now = 0;
  for (int step = 0; step < 120'000; ++step) {
    const uint32_t node = static_cast<uint32_t>(rng.Next() % cores);
    const uint64_t addr = 0x10000 + (rng.Next() % 4096) * 64;
    const uint32_t kind = static_cast<uint32_t>(rng.Next() % 10);
    if (kind == 0) {
      h.AccessInstr(node, addr, now);
    } else {
      h.AccessData(node, addr, kind < 4, now);
    }
    ++now;
    if (step % 5000 == 4999) {
      ASSERT_EQ(h.CheckDirectoryInvariants(), "") << "after step " << step;
    }
  }
  ASSERT_EQ(h.CheckDirectoryInvariants(), "");
  EXPECT_GT(h.stats().invalidations, 0u);
  EXPECT_GT(h.stats().writebacks, 0u);
}

}  // namespace
}  // namespace stagedcmp::memsim
