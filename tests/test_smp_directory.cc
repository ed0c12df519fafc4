// Bookkeeping suite for the SMP sharers-bitmap directory: directed
// transition checks plus an oracle-checked eviction-churn run (in the
// spirit of test_flat_hash.cc's churn-vs-oracle test).
//
// The invariant under test: after every access, the directory reports a
// node as sharer if and only if that node's L2 actually holds the line in
// a non-Invalid state, and `owner` names the one node holding it
// Exclusive or Modified (or -1). PrivateL2Hierarchy::CheckDirectoryInvariants
// verifies both directions against the real cache contents; here we force
// heavy L2 eviction traffic — the path where a forgotten notification
// would leave stale sharer bits — and assert it stays clean throughout.
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

const DirEntry* Entry(const PrivateL2Hierarchy& h, uint64_t addr) {
  return h.directory().Find(addr >> 6);  // 64B lines
}

/// The low sharer word of `e`, an entry of `h`'s directory.
uint64_t SharerWord0(const PrivateL2Hierarchy& h, const DirEntry* e) {
  return SharersOf(h.directory(), *e).word(0);
}

/// Node `n`'s L2 and L1D states for `addr`.
LineState L2State(const PrivateL2Hierarchy& h, uint32_t n, uint64_t addr) {
  return h.l2(n).GetState(addr >> 6);
}
LineState L1DState(const PrivateL2Hierarchy& h, uint32_t n, uint64_t addr) {
  return h.l1d(n).GetState(addr >> 6);
}

TEST(SmpDirectoryTest, TracksWriteReadAndUpgradeTransitions) {
  PrivateL2Hierarchy h(TinyConfig(4));
  const uint64_t addr = 0x6000;

  // Node 0 writes: sole sharer, owner.
  h.AccessData(0, addr, true, 0);
  const DirEntry* e = Entry(h, addr);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(SharerWord0(h, e), 0b1u);
  EXPECT_EQ(e->owner, 0);

  // Node 1 reads: the Modified owner is downgraded, both share.
  EXPECT_EQ(h.AccessData(1, addr, false, 10).cls, AccessClass::kCoherence);
  e = Entry(h, addr);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(SharerWord0(h, e), 0b11u);
  EXPECT_EQ(e->owner, -1);

  // Node 2 reads the now-clean line: three sharers, still no owner.
  EXPECT_EQ(h.AccessData(2, addr, false, 20).cls, AccessClass::kOffChip);
  e = Entry(h, addr);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(SharerWord0(h, e), 0b111u);
  EXPECT_EQ(e->owner, -1);

  // Node 1 upgrades (write to Shared): peers invalidated, sole owner.
  EXPECT_EQ(h.AccessData(1, addr, true, 30).cls, AccessClass::kCoherence);
  e = Entry(h, addr);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(SharerWord0(h, e), 0b10u);
  EXPECT_EQ(e->owner, 1);
  EXPECT_EQ(L2State(h, 1, addr), LineState::kModified);

  EXPECT_EQ(h.CheckDirectoryInvariants(), "");
}

TEST(SmpDirectoryTest, ExclusiveFillSetsOwnerAndWriteHitsKeepIt) {
  const HierarchyConfig cfg = TinyConfig(4);
  PrivateL2Hierarchy h(cfg);
  const uint64_t addr = 0x9000;
  h.AccessData(3, addr, false, 0);  // fills Exclusive (no remote holder)
  const DirEntry* e = Entry(h, addr);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(SharerWord0(h, e), 0b1000u);
  EXPECT_EQ(e->owner, 3);
  EXPECT_EQ(L2State(h, 3, addr), LineState::kExclusive);

  // A write now hits the L1 copy (Exclusive is writable): the L1 goes
  // Modified but the L2 copy stays Exclusive, and the owner stays put.
  h.AccessData(3, addr, true, 10);
  EXPECT_EQ(L1DState(h, 3, addr), LineState::kModified);
  EXPECT_EQ(L2State(h, 3, addr), LineState::kExclusive);
  e = Entry(h, addr);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->owner, 3);

  // Conflict the line out of the (tiny) L1D only: the two fills below
  // share its L1 set but land in different L2 sets. The next write then
  // misses L1, hits the L2 copy and dirties it; the writer already owns
  // the line, so the owner is unchanged.
  const uint64_t l1_stride = cfg.l1d.num_sets() * 64;
  h.AccessData(3, addr + l1_stride, false, 20);
  h.AccessData(3, addr + 2 * l1_stride, false, 30);
  EXPECT_EQ(h.AccessData(3, addr, true, 40).cls, AccessClass::kL2Hit);
  EXPECT_EQ(L2State(h, 3, addr), LineState::kModified);
  e = Entry(h, addr);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->owner, 3);
  EXPECT_EQ(h.CheckDirectoryInvariants(), "");
}

// A peer's read of an Exclusive line downgrades the owner (a clean
// fetch, not a cache-to-cache transfer); both copies end Shared.
TEST(SmpDirectoryTest, PeerReadDowngradesTheOwnerAndBothEndShared) {
  PrivateL2Hierarchy h(TinyConfig(4));
  const uint64_t addr = 0xa000;
  h.AccessData(0, addr, false, 0);
  ASSERT_EQ(Entry(h, addr)->owner, 0);

  EXPECT_EQ(h.AccessData(1, addr, false, 10).cls, AccessClass::kOffChip);
  const DirEntry* e = Entry(h, addr);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->owner, -1);
  EXPECT_EQ(SharerWord0(h, e), 0b11u);
  for (uint32_t n : {0u, 1u}) {
    EXPECT_EQ(L2State(h, n, addr), LineState::kShared) << "node " << n;
    EXPECT_EQ(L1DState(h, n, addr), LineState::kShared) << "node " << n;
  }
  EXPECT_EQ(h.stats().invalidations, 0u);
  EXPECT_EQ(h.CheckDirectoryInvariants(), "");
}

// A write miss invalidates every holder and leaves the writer as the
// line's Modified owner.
TEST(SmpDirectoryTest, WriteMissMakesTheWriterOwner) {
  PrivateL2Hierarchy h(TinyConfig(4));
  const uint64_t addr = 0xb000;
  for (uint32_t n = 0; n < 3; ++n) h.AccessData(n, addr, false, n);
  ASSERT_EQ(Entry(h, addr)->owner, -1);

  EXPECT_EQ(h.AccessData(3, addr, true, 10).cls, AccessClass::kOffChip);
  const DirEntry* e = Entry(h, addr);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->owner, 3);
  EXPECT_EQ(SharerWord0(h, e), 0b1000u);
  EXPECT_EQ(L2State(h, 3, addr), LineState::kModified);
  EXPECT_EQ(h.stats().invalidations, 3u);
  EXPECT_EQ(h.CheckDirectoryInvariants(), "");
}

// Evicting the owner's copy clears the owner, whether or not another
// node (here an I-fetch Shared copy) keeps the entry alive.
TEST(SmpDirectoryTest, EvictingTheOwnerClearsOwner) {
  const HierarchyConfig cfg = TinyConfig(2);
  PrivateL2Hierarchy h(cfg);
  const uint64_t set_stride = cfg.l2.num_sets() * 64;
  const uint64_t base = 0x80000;

  h.AccessData(0, base, true, 0);  // Modified at node 0
  h.AccessInstr(1, base, 1);       // Shared I-fetch copy at node 1
  const DirEntry* e = Entry(h, base);
  ASSERT_NE(e, nullptr);
  ASSERT_EQ(e->owner, 0);
  ASSERT_EQ(SharerWord0(h, e), 0b11u);

  // 2-way L2 set: two more same-set fills at node 0 evict the owner.
  h.AccessData(0, base + set_stride, false, 2);
  h.AccessData(0, base + 2 * set_stride, false, 3);
  EXPECT_EQ(L2State(h, 0, base), LineState::kInvalid);
  e = Entry(h, base);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->owner, -1);
  EXPECT_EQ(SharerWord0(h, e), 0b10u);
  EXPECT_EQ(h.CheckDirectoryInvariants(), "");
}

// I-fetch fills install Shared without snooping, so a line can be Shared
// at one node while another holds it Exclusive. A third node's read must
// downgrade only the owner; the I-fetch copy is left alone.
TEST(SmpDirectoryTest, ReadBesideIFetchCopyDowngradesOnlyTheOwner) {
  PrivateL2Hierarchy h(TinyConfig(4));
  const uint64_t addr = 0xc000;
  h.AccessData(0, addr, false, 0);  // Exclusive at node 0
  h.AccessInstr(1, addr, 1);        // Shared I-fetch copy at node 1
  const DirEntry* e = Entry(h, addr);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->owner, 0);
  EXPECT_EQ(L2State(h, 0, addr), LineState::kExclusive);
  EXPECT_EQ(L2State(h, 1, addr), LineState::kShared);
  EXPECT_EQ(h.CheckDirectoryInvariants(), "");

  EXPECT_EQ(h.AccessData(2, addr, false, 10).cls, AccessClass::kOffChip);
  e = Entry(h, addr);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->owner, -1);
  EXPECT_EQ(SharerWord0(h, e), 0b111u);
  EXPECT_EQ(L2State(h, 0, addr), LineState::kShared);
  EXPECT_EQ(L1DState(h, 0, addr), LineState::kShared);
  EXPECT_EQ(L2State(h, 1, addr), LineState::kShared);
  EXPECT_EQ(L2State(h, 2, addr), LineState::kShared);
  EXPECT_EQ(L1DState(h, 2, addr), LineState::kShared);
  EXPECT_EQ(h.stats().invalidations, 0u);
  EXPECT_EQ(h.CheckDirectoryInvariants(), "");
}

// A read miss on a line with no owner changes no peer: every sharer's
// L1D and L2 state and the invalidation counter stay as they were, and
// the reader joins as one more Shared holder.
TEST(SmpDirectoryTest, ReadMissOnSharedLineChangesNoPeer) {
  constexpr uint32_t kSharers = 5;
  PrivateL2Hierarchy h(TinyConfig(8));
  const uint64_t addr = 0xd000;
  for (uint32_t n = 0; n < kSharers; ++n) h.AccessData(n, addr, false, n);
  ASSERT_EQ(Entry(h, addr)->owner, -1);
  LineState l2_before[kSharers], l1_before[kSharers];
  for (uint32_t n = 0; n < kSharers; ++n) {
    l2_before[n] = L2State(h, n, addr);
    l1_before[n] = L1DState(h, n, addr);
    ASSERT_EQ(l2_before[n], LineState::kShared) << "node " << n;
  }
  const uint64_t inv_before = h.stats().invalidations;

  EXPECT_EQ(h.AccessData(kSharers, addr, false, 10).cls,
            AccessClass::kOffChip);
  for (uint32_t n = 0; n < kSharers; ++n) {
    EXPECT_EQ(L2State(h, n, addr), l2_before[n]) << "node " << n;
    EXPECT_EQ(L1DState(h, n, addr), l1_before[n]) << "node " << n;
  }
  EXPECT_EQ(h.stats().invalidations, inv_before);
  EXPECT_EQ(L2State(h, kSharers, addr), LineState::kShared);
  const DirEntry* e = Entry(h, addr);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->owner, -1);
  EXPECT_EQ(SharerWord0(h, e), (1u << (kSharers + 1)) - 1);
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
  const DirEntry* e = Entry(h, base + 1 * set_stride);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(SharerWord0(h, e), 0b10u);  // node 1 still holds it
  EXPECT_EQ(h.CheckDirectoryInvariants(), "");
}

/// True iff VisitHierarchy resolves `h` to exactly the concrete type `Want`.
template <class Want>
bool VisitsAs(MemoryHierarchy& h) {
  return VisitHierarchy(h, [](auto& c) {
    return std::is_same_v<std::remove_reference_t<decltype(c)>, Want>;
  });
}

// One type per topology at every width: both factories build the same
// concrete type at 64 nodes (a one-word sharer set) and past it, the SMP
// directory sized to ceil(n / 64) sharer words; past 1024 nodes both
// factories abort with the constructor's message.
TEST(SmpDirectoryTest, FactoriesBuildOneTypeAtEveryWidthAndAbortPast1024) {
  HierarchyConfig cfg = TinyConfig(64);
  for (uint32_t n : {64u, 65u, 96u, 256u, 1024u}) {
    cfg.num_cores = n;
    auto smp = MakeSmpHierarchy(cfg);
    ASSERT_TRUE(VisitsAs<PrivateL2Hierarchy>(*smp)) << n << " nodes";
    EXPECT_TRUE(VisitsAs<SharedL2Hierarchy>(*MakeCmpHierarchy(cfg)))
        << n << " nodes";
    EXPECT_EQ(static_cast<PrivateL2Hierarchy&>(*smp)
                  .directory()
                  .words_per_slot(),
              (n + 63) / 64)
        << n << " nodes";
    // The top node's sharer bit, in the last word, drives coherence.
    smp->AccessData(n - 1, 0x6000, true, 0);
    EXPECT_EQ(smp->AccessData(0, 0x6000, false, 10).cls,
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
// up here as a stale sharer bit. 96 nodes spans two sharer words, so the
// upper word's set/clear/walk paths face the same eviction storm.
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
                         ::testing::Values(2u, 4u, 8u, 64u, 96u));

}  // namespace
}  // namespace stagedcmp::memsim
