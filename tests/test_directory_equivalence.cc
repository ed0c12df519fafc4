// Directory-vs-snoop equivalence pins for the SMP private-L2 hierarchy.
//
// PrivateL2Hierarchy resolves coherence through a sharers-bitmap
// directory that visits only the line's actual holders. The original
// broadcast snoop (probe every peer L2 per miss/upgrade) is kept as
// PrivateL2SnoopHierarchy, the reference arm: no factory builds it and
// production never replays it, so this suite instantiates the replay
// engine for it directly. The suite pins the two arms bit-identical —
// every HierarchyStats counter, every latency, every breakdown double —
// on randomized 1M-event synthetic traces across the paper's fig8-style
// core-count range, widened to the shootout grid (2..1024 nodes; past 64
// the directory's sharer sets span several words):
//
//   * full replay-engine fingerprints (both camps, looped/warmup mode),
//     where any bookkeeping drift compounds over millions of events;
//   * a direct per-access drive with deliberately tiny caches, where the
//     first diverging access fails with its index — eviction churn is the
//     classic way a directory bitmap goes stale — and the same lockstep
//     drive over the 64-node coherence-churn stream micro_kernels times
//     both arms on;
//   * the `smokesmp` builtin grid on real engine traces, the directory
//     arm replayed through RunExperiment exactly as a sweep replays it.
//
// Both arms run in the same process on the same traces, so the comparison
// is exact on any host/flags (no pinned constants needed).
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <type_traits>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "coresim/replay_core.h"
#include "harness/experiment.h"
#include "memsim/hierarchy.h"
#include "sweep/builtin_specs.h"
#include "synthetic_trace.h"

namespace stagedcmp {
namespace {

using memsim::AccessResult;
using memsim::HierarchyConfig;
using memsim::HierarchyStats;

// The fig8-style core-count axis, extended to the shootout grid's wide
// machines: 64 is the widest one-word sharer set, 256/1024 exercise 4-
// and 16-word sets against the width-independent snoop arm.
constexpr uint32_t kCoreCounts[] = {2, 8, 16, 64, 256, 1024};

// Sanitizer builds run the same node axis (the wide-directory paths are
// exactly what ASan should see) over proportionally fewer events, so the
// suite stays inside its ctest timeout at ~7x per-event cost.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr size_t kSanScale = 8;
#else
constexpr size_t kSanScale = 1;
#endif

HierarchyConfig SmpConfig(uint32_t cores, uint64_t l2_bytes) {
  HierarchyConfig hc;
  hc.num_cores = cores;
  // Modest per-node L2, shrunk further on the wide machines: 1024 nodes
  // x multi-MB arrays would dominate test memory without adding coverage.
  if (cores > 64 && l2_bytes > 256 * 1024) l2_bytes = 256 * 1024;
  hc.l2 = memsim::CacheConfig{l2_bytes, 8, 64};
  return hc;
}

template <class H>
constexpr bool kIsDirectoryArm = std::is_same_v<H, memsim::PrivateL2Hierarchy>;

/// Directory arm via the factory, exactly as a real experiment builds it.
std::unique_ptr<memsim::MemoryHierarchy> MakeDir(const HierarchyConfig& hc) {
  auto h = memsim::MakeSmpHierarchy(hc);
  // Guard against the factory serving anything but a directory arm
  // (which would make the equivalence tests vacuous).
  memsim::VisitHierarchy(*h, [](auto& c) {
    EXPECT_TRUE(kIsDirectoryArm<std::remove_reference_t<decltype(c)>>);
  });
  return h;
}

std::string DirInvariants(memsim::MemoryHierarchy* h) {
  return memsim::VisitHierarchy(*h, [](auto& c) -> std::string {
    if constexpr (kIsDirectoryArm<std::remove_reference_t<decltype(c)>>) {
      return c.CheckDirectoryInvariants();
    } else {
      return "not a directory hierarchy";
    }
  });
}

/// Serializes every HierarchyStats counter (and the per-level hit rates,
/// hexfloat so doubles compare bit-for-bit) into one comparable string.
std::string StatsFingerprint(const memsim::MemoryHierarchy& h) {
  const HierarchyStats& s = h.stats();
  std::string out;
  char buf[64];
  auto num = [&](const char* k, uint64_t v) {
    std::snprintf(buf, sizeof(buf), "%s=%llu\n", k,
                  static_cast<unsigned long long>(v));
    out += buf;
  };
  for (int i = 0; i < static_cast<int>(memsim::AccessClass::kCount); ++i) {
    const auto cls = static_cast<memsim::AccessClass>(i);
    num((std::string("data_") + memsim::AccessClassName(cls)).c_str(),
        s.data_count[i]);
    num((std::string("instr_") + memsim::AccessClassName(cls)).c_str(),
        s.instr_count[i]);
  }
  num("invalidations", s.invalidations);
  num("writebacks", s.writebacks);
  std::snprintf(buf, sizeof(buf), "l1d=%a\nl1i=%a\nl2=%a\n", h.L1DHitRate(),
                h.L1IHitRate(), h.L2HitRate());
  out += buf;
  return out;
}

// ---------------------------------------------------------------------------
// Replay-engine fingerprints: full simulation, both camps, looped mode.
// ---------------------------------------------------------------------------

/// Replays `traces` over `h`. The directory arm (a factory product, H =
/// MemoryHierarchy) takes the production path, CmpSimulator; the snoop
/// arm, which production refuses, gets the engine instantiated for its
/// concrete type, devirtualized exactly like production.
template <class H>
coresim::SimResult RunReplay(H* h, uint32_t cores,
                             const std::vector<trace::ClientTrace>& traces,
                             bool lean, bool looped) {
  std::vector<const trace::ClientTrace*> ptrs;
  for (const auto& t : traces) ptrs.push_back(&t);
  coresim::SimConfig sc;
  sc.core = lean ? coresim::CoreParams::Lean() : coresim::CoreParams::Fat();
  sc.num_cores = cores;
  sc.loop_traces = looped;
  // Looped cost is bounded by the instruction budget, not the trace
  // length, so the sanitizer scale applies here too.
  sc.max_instructions = looped ? 2'000'000 / kSanScale : 0;
  sc.warmup_instructions = looped ? 500'000 / kSanScale : 0;
  if constexpr (std::is_same_v<H, memsim::PrivateL2SnoopHierarchy>) {
    return coresim::ReplayEngine<H>(sc, h, ptrs).Run();
  } else {
    return coresim::CmpSimulator(sc, h, ptrs).Run();
  }
}

class DirectoryEquivalenceTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(DirectoryEquivalenceTest, ReplayFingerprintsBitIdentical) {
  const uint32_t cores = GetParam();
  // ~1M events total, spread over one client per node so every node
  // participates in the coherence traffic.
  const std::vector<trace::ClientTrace> traces =
      synthetic::MakeTraces(/*seed=*/17, /*clients=*/cores,
                            /*events_per_client=*/1'000'000 / kSanScale / cores);
  const HierarchyConfig hc = SmpConfig(cores, 1ull << 20);

  for (const bool lean : {false, true}) {
    auto dir = MakeDir(hc);
    memsim::PrivateL2SnoopHierarchy sno(hc);
    const coresim::SimResult rd =
        RunReplay(dir.get(), cores, traces, lean, false);
    const coresim::SimResult rs = RunReplay(&sno, cores, traces, lean, false);
    EXPECT_EQ(synthetic::Fingerprint(rd), synthetic::Fingerprint(rs))
        << cores << " cores, " << (lean ? "LC" : "FC");
    EXPECT_EQ(DirInvariants(dir.get()), "");
  }
}

// Looped steady-state mode exercises warmup ResetStats (which must keep
// cache contents AND directory contents) and trace rotation.
TEST_P(DirectoryEquivalenceTest, LoopedReplayBitIdentical) {
  const uint32_t cores = GetParam();
  const std::vector<trace::ClientTrace> traces =
      synthetic::MakeTraces(/*seed=*/29, /*clients=*/cores,
                            /*events_per_client=*/250'000 / kSanScale / cores);
  const HierarchyConfig hc = SmpConfig(cores, 1ull << 20);
  auto dir = MakeDir(hc);
  memsim::PrivateL2SnoopHierarchy sno(hc);
  const coresim::SimResult rd =
      RunReplay(dir.get(), cores, traces, false, true);
  const coresim::SimResult rs = RunReplay(&sno, cores, traces, false, true);
  EXPECT_EQ(synthetic::Fingerprint(rd), synthetic::Fingerprint(rs))
      << cores << " cores, looped";
  EXPECT_EQ(DirInvariants(dir.get()), "");
}

// ---------------------------------------------------------------------------
// Direct drive: per-access lockstep with tiny caches (eviction churn).
// ---------------------------------------------------------------------------

/// One access of a lockstep drive.
struct DriveAccess {
  uint32_t node;
  uint64_t addr;
  bool instr;
  bool is_write;
};

/// Drives a directory arm (from the factory) and the snoop arm over `hc`
/// with the same `steps` accesses from `next()`, failing at the first
/// access whose result differs; then compares every counter and checks
/// both arms' directories.
template <class Next>
void LockstepDrive(const HierarchyConfig& hc, size_t steps, Next&& next) {
  auto dirp = MakeDir(hc);
  memsim::MemoryHierarchy& dir = *dirp;
  memsim::PrivateL2SnoopHierarchy sno(hc);
  uint64_t now = 0;
  for (size_t i = 0; i < steps; ++i) {
    const DriveAccess x = next();
    AccessResult a, b;
    if (x.instr) {
      a = dir.AccessInstr(x.node, x.addr, now);
      b = sno.AccessInstr(x.node, x.addr, now);
    } else {
      a = dir.AccessData(x.node, x.addr, x.is_write, now);
      b = sno.AccessData(x.node, x.addr, x.is_write, now);
    }
    ++now;
    if (a.cls != b.cls || a.latency != b.latency ||
        a.queue_delay != b.queue_delay) {
      FAIL() << "arms diverged at access " << i << " (node " << x.node
             << ", addr " << std::hex << x.addr << std::dec
             << (x.instr ? ", instr" : x.is_write ? ", write" : ", read")
             << "): directory {cls="
             << memsim::AccessClassName(a.cls) << ", lat=" << a.latency
             << "} vs snoop {cls=" << memsim::AccessClassName(b.cls)
             << ", lat=" << b.latency << "}";
    }
  }
  EXPECT_EQ(StatsFingerprint(dir), StatsFingerprint(sno));
  EXPECT_EQ(DirInvariants(&dir), "");
  EXPECT_EQ(sno.CheckDirectoryInvariants(), "");  // snoop arm: dir empty
}

TEST_P(DirectoryEquivalenceTest, DirectDriveLockstepUnderEvictionChurn) {
  const uint32_t cores = GetParam();
  HierarchyConfig hc = SmpConfig(cores, 32 * 1024);
  hc.l1i = memsim::CacheConfig{2 * 1024, 2, 64};
  hc.l1d = memsim::CacheConfig{2 * 1024, 2, 64};
  Rng rng(1234 + cores);
  // Scale the drive down as the snoop arm's O(cores) probes per miss
  // scale up, so the widest machines stay CI-sized.
  const size_t steps =
      1'000'000 / kSanScale / (cores >= 256 ? 16 : cores >= 16 ? 4 : 1);
  LockstepDrive(hc, steps, [&] {
    DriveAccess x;
    x.node = static_cast<uint32_t>(rng.Next() % cores);
    x.instr = (rng.Next() % 8) == 0;
    x.is_write = !x.instr && (rng.Next() % 5) == 0;
    // Shared hot region (coherence) vs per-node region (capacity churn),
    // both far larger than the 32KB L2s.
    x.addr = (rng.Next() & 1)
                 ? 0x100000 + (rng.Next() % (256ull << 10))
                 : 0x4000000 + x.node * (1ull << 24) +
                       (rng.Next() % (128ull << 10));
    return x;
  });
}

INSTANTIATE_TEST_SUITE_P(CoreCounts, DirectoryEquivalenceTest,
                         ::testing::ValuesIn(kCoreCounts));

// The 64-node coherence-churn stream micro_kernels' BM_SmpSnoopChurn and
// BM_SmpDirectoryChurn time (benchutil::SmpChurnStream, 1MB private L2s):
// the two arms must agree on it access for access, so that benchmark pair
// compares the cost of identical work.
TEST(SmpChurnStreamTest, DirectoryMatchesSnoopInLockstep) {
  benchutil::SmpChurnStream stream;
  LockstepDrive(benchutil::SmpChurnStream::Config(), 2'000'000 / kSanScale,
                [&] {
                  const benchutil::SmpChurnStream::Access a = stream.Next();
                  return DriveAccess{a.node, a.addr, false, a.is_write};
                });
}

// ---------------------------------------------------------------------------
// The smokesmp grid: real engine traces through the production sweep path.
// ---------------------------------------------------------------------------

// Each cell's trace set is built once and replayed twice, on the same
// HierarchyConfig and SimConfig: through RunExperiment (the directory
// arm, exactly as a sweep replays the cell) and through the snoop
// reference arm.
TEST(SmokeSmpArmsTest, DirectoryMatchesSnoopOnEveryCell) {
  const sweep::SweepSpec spec = sweep::BuiltinSpec("smokesmp");
  harness::WorkloadFactory factory;
  sweep::ConfigureFactoryForSpec(spec.name(), &factory);
  const std::vector<sweep::Cell> cells = spec.Expand();
  ASSERT_FALSE(cells.empty());
  uint64_t invalidations = 0;
  for (const sweep::Cell& cell : cells) {
    ASSERT_EQ(cell.exp.topology, harness::Topology::kSmpPrivate);
    const harness::TraceSet traces = factory.Build(cell.trace);
    const coresim::SimResult dir = harness::RunExperiment(cell.exp, traces);
    memsim::PrivateL2SnoopHierarchy snoop(
        harness::MakeHierarchyConfig(cell.exp));
    const coresim::SimResult sno =
        coresim::ReplayEngine<memsim::PrivateL2SnoopHierarchy>(
            harness::MakeSimConfig(cell.exp, traces), &snoop,
            traces.Pointers())
            .Run();
    EXPECT_EQ(synthetic::Fingerprint(dir), synthetic::Fingerprint(sno))
        << "cell " << cell.index << " (" << cell.values[0] << ")";
    invalidations += dir.mem.invalidations;
  }
  // The grid must exercise coherence, or the comparison is vacuous. Only
  // the OLTP cell writes shared data; read-only DSS may invalidate
  // nothing, depending on heap placement.
  EXPECT_GT(invalidations, 0u);
}

}  // namespace
}  // namespace stagedcmp
