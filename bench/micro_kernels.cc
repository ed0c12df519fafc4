// google-benchmark microbenches for the engine's native kernels: B+-tree,
// cache simulator, hash join, TPC-C transactions, tracer overhead, replay
// scheduler.
// These measure the *native* cost of the reproduction's substrates (how
// fast the simulator itself runs), not simulated cycles.
#include <benchmark/benchmark.h>

#include <chrono>
#include <unordered_map>
#include <vector>

#include "bench/bench_util.h"
#include "common/arena.h"
#include "common/flat_hash.h"
#include "common/rng.h"
#include "coresim/cmp.h"
#include "db/bptree.h"
#include "db/exec.h"
#include "harness/experiment.h"
#include "memsim/cache.h"
#include "memsim/hierarchy.h"
#include "sweep/trace_bundle.h"
#include "trace/tracer.h"
#include "workload/tpcc.h"
#include "workload/tpch.h"

using namespace stagedcmp;

static void BM_CacheAccess(benchmark::State& state) {
  memsim::Cache cache(
      memsim::CacheConfig{static_cast<uint64_t>(state.range(0)), 8, 64});
  Rng rng(1);
  for (auto _ : state) {
    const uint64_t line = rng.Next() % 100000;
    if (!cache.Access(line, false)) cache.Fill(line, false);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheAccess)->Arg(64 << 10)->Arg(1 << 20)->Arg(16 << 20);

// Pure hit loop over a resident footprint: the L1 fast path the replay
// cores take on the overwhelming majority of accesses. Regressions here
// are invisible in end-to-end sweeps until they compound.
static void BM_CacheHitLoop(benchmark::State& state) {
  memsim::Cache cache(memsim::CacheConfig{64 << 10, 8, 64});
  constexpr uint64_t kLines = 256;  // fits: 1024 ways
  for (uint64_t l = 0; l < kLines; ++l) cache.Fill(l, false);
  uint64_t line = 0;
  for (auto _ : state) {
    const memsim::Cache::ProbeResult p = cache.Probe(line);
    benchmark::DoNotOptimize(cache.AccessAt(p, false));
    line = (line + 1) % kLines;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheHitLoop);

// Miss + evict loop: every access conflicts in one set, so each iteration
// pays the probe, the victim scan, and the eviction bookkeeping — the
// single-probe FillAt path (one tag scan) versus the legacy 2-3 scans.
static void BM_CacheMissEvict(benchmark::State& state) {
  memsim::Cache cache(memsim::CacheConfig{64 << 10, 8, 64});
  const uint64_t sets = (64 << 10) / (8 * 64);
  uint64_t i = 0;
  for (auto _ : state) {
    const uint64_t line = (i++) * sets;  // same set every time
    const memsim::Cache::ProbeResult p = cache.Probe(line);
    cache.AccessAt(p, false);
    benchmark::DoNotOptimize(cache.FillAt(p, line, false));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheMissEvict);

// Directory churn, flat open-addressed table: the CMP L1 directory's
// life — FindOrInsert on fill, Find + Erase on eviction, over a working
// set that cycles like L1 contents do.
static void BM_FlatDirChurn(benchmark::State& state) {
  struct DirEntry {
    uint32_t sharers = 0;
    int8_t dirty_owner = -1;
  };
  FlatMap64<DirEntry> dir(1 << 12);
  constexpr uint64_t kWindow = 2048;  // lines resident at once
  uint64_t next = 0;
  for (; next < kWindow; ++next) dir.FindOrInsert(next).sharers = 1;
  for (auto _ : state) {
    dir.FindOrInsert(next).sharers |= 1;
    benchmark::DoNotOptimize(dir.Find(next - kWindow / 2));
    dir.Erase(next - kWindow);
    ++next;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FlatDirChurn);

// Same churn on std::unordered_map — the container the directory used
// before the flat table; kept as the comparison arm.
static void BM_UnorderedDirChurn(benchmark::State& state) {
  struct DirEntry {
    uint32_t sharers = 0;
    int8_t dirty_owner = -1;
  };
  std::unordered_map<uint64_t, DirEntry> dir;
  dir.reserve(1 << 12);
  constexpr uint64_t kWindow = 2048;
  uint64_t next = 0;
  for (; next < kWindow; ++next) dir[next].sharers = 1;
  for (auto _ : state) {
    dir[next].sharers |= 1;
    auto it = dir.find(next - kWindow / 2);
    benchmark::DoNotOptimize(it);
    dir.erase(next - kWindow);
    ++next;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_UnorderedDirChurn);

static void BM_BtreeLookup(benchmark::State& state) {
  Arena arena;
  db::BPlusTree tree(&arena);
  const uint64_t n = static_cast<uint64_t>(state.range(0));
  for (uint64_t i = 0; i < n; ++i) tree.Insert(i * 7 % n, i, nullptr);
  Rng rng(2);
  uint64_t v;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.Lookup(rng.Next() % n, &v, nullptr));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BtreeLookup)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);

static void BM_BtreeInsert(benchmark::State& state) {
  Arena arena;
  db::BPlusTree tree(&arena);
  Rng rng(3);
  uint64_t i = 0;
  for (auto _ : state) {
    tree.Insert(rng.Next(), ++i, nullptr);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BtreeInsert);

static void BM_TracerMemEvent(benchmark::State& state) {
  trace::CodeMap code_map;
  const trace::RegionSet regions(&code_map);
  trace::Tracer tracer(&regions);
  char buf[256];
  for (auto _ : state) {
    tracer.Read(buf, 64, 4);
    if (tracer.trace().events.size() > (1u << 20)) {
      state.PauseTiming();
      tracer.Reset();
      state.ResumeTiming();
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TracerMemEvent);

static void BM_TpccNewOrderNative(benchmark::State& state) {
  workload::Database db;
  workload::TpccConfig cfg;
  cfg.warehouses = 2;
  cfg.customers_per_district = 120;
  cfg.items = 1000;
  cfg.initial_orders_per_district = 30;
  workload::TpccLoad(&db, cfg);
  workload::TpccDriver driver(&db, cfg, 1, 5);
  trace::CodeMap code_map;
  const trace::RegionSet regions(&code_map);
  trace::Tracer tracer(&regions);
  for (auto _ : state) {
    driver.Run(workload::TpccTxnType::kNewOrder, &tracer);
    if (tracer.trace().events.size() > (1u << 20)) {
      state.PauseTiming();
      tracer.Reset();
      state.ResumeTiming();
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TpccNewOrderNative);

// SMP coherence churn at 64 nodes (benchutil::SmpChurnStream, on which
// test_directory_equivalence pins both arms bit-identical): the snoop
// arm probes all 63 peers per local L2 miss; the directory arm visits
// only the sharers bitmap's set bits (usually zero or one). Same access
// stream for both arms — the gap is pure coherence-resolution cost.
template <typename Hierarchy>
static void SmpCoherenceChurn(benchmark::State& state) {
  Hierarchy h(benchutil::SmpChurnStream::Config());
  benchutil::SmpChurnStream stream;
  uint64_t now = 0;
  for (auto _ : state) {
    const benchutil::SmpChurnStream::Access a = stream.Next();
    h.AccessData(a.node, a.addr, a.is_write, ++now);
  }
  state.SetItemsProcessed(state.iterations());
}
static void BM_SmpSnoopChurn(benchmark::State& state) {
  SmpCoherenceChurn<memsim::PrivateL2SnoopHierarchy>(state);
}
BENCHMARK(BM_SmpSnoopChurn);
static void BM_SmpDirectoryChurn(benchmark::State& state) {
  SmpCoherenceChurn<memsim::PrivateL2Hierarchy>(state);
}
BENCHMARK(BM_SmpDirectoryChurn);

// Read misses on one line every SMP node shares, at n nodes. Direct-
// mapped L1D and L2 make each iteration two reads at one node: a
// private line that conflicts the hot line out of both caches, then the
// hot line again — a read miss while the other n - 1 nodes hold it
// Shared. The directory answers that read from the line's owner field
// (none here), so the ns/access column should not grow with n.
static void BM_SmpReadSharedLine(benchmark::State& state) {
  const uint32_t n = static_cast<uint32_t>(state.range(0));
  memsim::HierarchyConfig hc;
  hc.num_cores = n;
  hc.l1i = memsim::CacheConfig{4 << 10, 1, 64};
  hc.l1d = memsim::CacheConfig{4 << 10, 1, 64};
  hc.l2 = memsim::CacheConfig{16 << 10, 1, 64};
  memsim::PrivateL2Hierarchy h(hc);
  const uint64_t hot = 0x1000000;
  uint64_t now = 0;
  for (uint32_t k = 0; k < n; ++k) h.AccessData(k, hot, false, ++now);
  uint32_t k = 0;
  for (auto _ : state) {
    // hot + (k + 1) * L2 size maps to the hot line's set in both caches.
    h.AccessData(k, hot + (uint64_t{k} + 1) * hc.l2.size_bytes, false,
                 ++now);
    benchmark::DoNotOptimize(h.AccessData(k, hot, false, ++now));
    if (++k == n) k = 0;
  }
  state.SetItemsProcessed(2 * state.iterations());
}
BENCHMARK(BM_SmpReadSharedLine)->Arg(16)->Arg(256)->Arg(1024);

static void BM_CmpHierarchyAccess(benchmark::State& state) {
  memsim::HierarchyConfig hc;
  hc.num_cores = 4;
  auto h = memsim::MakeCmpHierarchy(hc);
  Rng rng(7);
  uint64_t now = 0;
  for (auto _ : state) {
    h->AccessData(static_cast<uint32_t>(rng.Next() % 4),
                  (rng.Next() % (1 << 26)), (rng.Next() & 7) == 0, ++now);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CmpHierarchyAccess);

// Replay-scheduler cost per event at n cores: one client per core, each
// looping a short trace whose code and data stay L1-resident, so the
// per-event time is the replay engine's own (next-core selection plus
// the core step) rather than the memory hierarchy's. The event budget is
// the same at every n, so the ns/event column compares directly across
// node counts.
static void BM_ReplayScheduler(benchmark::State& state) {
  const uint32_t n = static_cast<uint32_t>(state.range(0));
  std::vector<trace::ClientTrace> traces(n);
  for (uint32_t c = 0; c < n; ++c) {
    const uint64_t data = 0x100000000ULL + (uint64_t{c} << 10);
    for (uint32_t i = 0; i < 64; ++i) {
      traces[c].events.push_back(trace::PackEvent(
          trace::EventKind::kCompute, 0x400000 + (i % 16) * 64, 8));
      traces[c].events.push_back(trace::PackMemEvent(
          trace::EventKind::kRead, data + (i % 16) * 64, 4, false));
    }
  }
  std::vector<const trace::ClientTrace*> ptrs;
  for (const auto& t : traces) ptrs.push_back(&t);
  memsim::HierarchyConfig hc;
  hc.num_cores = n;
  hc.l2 = memsim::CacheConfig{1ull << 20, 8, 64};
  coresim::SimConfig sc;
  sc.core = coresim::CoreParams::Fat();
  sc.num_cores = n;
  sc.loop_traces = true;
  sc.max_instructions = 8'000'000;
  uint64_t events = 0;
  double run_seconds = 0.0;
  for (auto _ : state) {
    // Only Run() is timed: building and freeing n cores' caches is not
    // replay cost.
    auto h = memsim::MakeCmpHierarchy(hc);
    coresim::CmpSimulator sim(sc, h.get(), ptrs);
    const auto t0 = std::chrono::steady_clock::now();
    const coresim::SimResult r = sim.Run();
    const std::chrono::duration<double> dt =
        std::chrono::steady_clock::now() - t0;
    benchmark::DoNotOptimize(r);
    events += r.events_replayed;
    state.SetIterationTime(dt.count());
    run_seconds += dt.count();
  }
  state.SetItemsProcessed(static_cast<int64_t>(events));
  state.counters["ns_per_event"] =
      events ? run_seconds * 1e9 / static_cast<double>(events) : 0.0;
}
BENCHMARK(BM_ReplayScheduler)->Arg(16)->Arg(256)->Arg(1024)
    ->UseManualTime()->Unit(benchmark::kMillisecond);

// Warm bundle open on one synthetic bundle (32 MiB of fabricated trace
// words — the loader never interprets payloads, so no workload build is
// needed). The open maps the file, validates only the header and
// returns zero-copy views, deferring payload checksums to the build
// pool, so its cost should not grow with the payload size.
namespace {
struct SyntheticBundle {
  harness::WorkloadFactory factory;
  harness::TraceSetConfig cfg;
  std::string path = "/tmp/stagedcmp_bm_bundle.traces";

  SyntheticBundle() {
    cfg.clients = 8;
    cfg.requests_per_client = 1;
    cfg.seed = 1;
    harness::TraceSet set;
    set.config = cfg;
    Rng rng(99);
    constexpr uint64_t kWordsPerClient = 512 * 1024;  // 8 * 4 MiB total
    for (uint32_t c = 0; c < cfg.clients; ++c) {
      trace::ClientTrace t;
      t.requests = 1;
      t.events.reserve(kWordsPerClient);
      for (uint64_t i = 0; i < kWordsPerClient; ++i) {
        t.events.push_back(rng.Next());
      }
      t.total_instructions = kWordsPerClient;
      set.total_instructions += t.total_instructions;
      set.total_events += t.events.size();
      set.traces.push_back(std::move(t));
    }
    sweep::SaveTraceBundle(path, factory, {&set});
  }
};
}  // namespace

static void BM_BundleWarmMmap(benchmark::State& state) {
  static SyntheticBundle bundle;
  uint64_t bytes = 0;
  for (auto _ : state) {
    sweep::BundleOpenResult r =
        sweep::OpenTraceBundle(bundle.path, bundle.factory, {bundle.cfg});
    if (r.mode != "mmap") state.SkipWithError("mmap open failed");
    benchmark::DoNotOptimize(r.sets);
    bytes += r.sets[0].total_events * 8;
  }
  state.SetBytesProcessed(static_cast<int64_t>(bytes));
}
BENCHMARK(BM_BundleWarmMmap);

BENCHMARK_MAIN();
