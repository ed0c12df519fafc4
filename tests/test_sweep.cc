// Sweep engine: spec expansion, trace-set cache sharing, parallel runner
// determinism (thread-count invariance, byte-identical serialized
// output), equivalence with direct RunExperiment calls, the builtin
// specs' pinned configs, and the figure views' table rendering.
#include <atomic>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "sweep/builtin_specs.h"
#include "sweep/runner.h"
#include "sweep/sinks.h"
#include "sweep/spec.h"
#include "sweep/trace_bundle.h"
#include "sweep/trace_cache.h"

namespace stagedcmp {
namespace {

// Small 2x2x2 grid: cheap enough to simulate many times (also under
// ASan) while still covering both workloads, camps and topologies.
sweep::SweepSpec TinySpec() {
  sweep::SweepSpec spec("tiny", "2x2x2 test grid");
  spec.base_exp.cores = 2;
  spec.base_exp.l2_bytes = 1ull << 20;
  spec.base_exp.saturated = true;
  spec.base_exp.measure_instructions = 400'000;
  spec.base_exp.warmup_instructions = 100'000;
  spec.AddAxis("workload",
               {{"OLTP",
                 [](sweep::Cell& c) {
                   c.trace.workload = harness::WorkloadKind::kOltp;
                   c.trace.clients = 2;
                   c.trace.requests_per_client = 4;
                   c.trace.seed = 5;
                 }},
                {"DSS",
                 [](sweep::Cell& c) {
                   c.trace.workload = harness::WorkloadKind::kDss;
                   c.trace.clients = 2;
                   c.trace.requests_per_client = 1;
                   c.trace.seed = 5;
                 }}});
  spec.AddAxis(
      "camp",
      {{"FC", [](sweep::Cell& c) { c.exp.camp = coresim::Camp::kFat; }},
       {"LC", [](sweep::Cell& c) { c.exp.camp = coresim::Camp::kLean; }}});
  spec.AddAxis(
      "system",
      {{"CMP",
        [](sweep::Cell& c) {
          c.exp.topology = harness::Topology::kCmpShared;
        }},
       {"SMP", [](sweep::Cell& c) {
          c.exp.topology = harness::Topology::kSmpPrivate;
        }}});
  return spec;
}

TEST(SweepSpec, TwoByTwoByTwoExpandsToEightCells) {
  const sweep::SweepSpec spec = TinySpec();
  EXPECT_EQ(spec.CrossProductSize(), 8u);
  const std::vector<sweep::Cell> cells = spec.Expand();
  ASSERT_EQ(cells.size(), 8u);

  // Odometer order: first axis outermost, dense indices.
  for (size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(cells[i].index, i);
    ASSERT_EQ(cells[i].values.size(), 3u);
    EXPECT_EQ(cells[i].values[0], i < 4 ? "OLTP" : "DSS");
    EXPECT_EQ(cells[i].values[1], (i / 2) % 2 == 0 ? "FC" : "LC");
    EXPECT_EQ(cells[i].values[2], i % 2 == 0 ? "CMP" : "SMP");
  }
  // Mutators actually landed in the configs.
  EXPECT_EQ(cells[0].trace.workload, harness::WorkloadKind::kOltp);
  EXPECT_EQ(cells[7].trace.workload, harness::WorkloadKind::kDss);
  EXPECT_EQ(cells[2].exp.camp, coresim::Camp::kLean);
  EXPECT_EQ(cells[5].exp.topology, harness::Topology::kSmpPrivate);
  // Axis lookup by name.
  EXPECT_EQ(cells[6].Value(spec.axis_names(), "camp"), "LC");
  EXPECT_EQ(cells[6].Value(spec.axis_names(), "nope"), "");
}

TEST(SweepSpec, FiltersDropCellsAndReindexDensely) {
  sweep::SweepSpec spec = TinySpec();
  spec.AddFilter([](const sweep::Cell& c) {
    return c.exp.camp == coresim::Camp::kFat;
  });
  const std::vector<sweep::Cell> cells = spec.Expand();
  ASSERT_EQ(cells.size(), 4u);
  for (size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(cells[i].index, i);
    EXPECT_EQ(cells[i].values[1], "FC");
  }
}

TEST(SweepSpec, NoAxesExpandsToSingleBaseCell) {
  sweep::SweepSpec spec("base-only");
  spec.base_exp.cores = 3;
  const std::vector<sweep::Cell> cells = spec.Expand();
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_EQ(cells[0].exp.cores, 3u);
  EXPECT_TRUE(cells[0].values.empty());
}

TEST(TraceSetCache, BuildsEachDistinctConfigOnceAndShares) {
  harness::WorkloadFactory factory;
  sweep::TraceSetCache cache(&factory);

  harness::TraceSetConfig a;
  a.workload = harness::WorkloadKind::kOltp;
  a.clients = 2;
  a.requests_per_client = 2;
  a.seed = 3;
  harness::TraceSetConfig b = a;
  b.seed = 4;

  const harness::TraceSet& ts1 = cache.Get(a);
  const harness::TraceSet& ts2 = cache.Get(a);
  const harness::TraceSet& ts3 = cache.Get(b);
  EXPECT_EQ(&ts1, &ts2) << "same config must share one TraceSet";
  EXPECT_NE(&ts1, &ts3);
  EXPECT_EQ(cache.stats().builds, 2u);
  EXPECT_EQ(cache.stats().hits, 1u);

  // Hammer the cache from many threads; every result must alias the
  // already-built sets and no new builds may happen.
  std::vector<std::thread> pool;
  std::atomic<int> mismatches{0};
  for (int t = 0; t < 8; ++t) {
    pool.emplace_back([&] {
      for (int i = 0; i < 50; ++i) {
        if (&cache.Get(a) != &ts1 || &cache.Get(b) != &ts3) ++mismatches;
      }
    });
  }
  for (std::thread& t : pool) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(cache.stats().builds, 2u);
}

TEST(TraceSet, PointersAddressEveryTraceInClientOrder) {
  harness::WorkloadFactory factory;
  harness::TraceSetConfig tc;
  tc.workload = harness::WorkloadKind::kOltp;
  tc.clients = 2;
  tc.requests_per_client = 1;
  tc.seed = 9;
  const harness::TraceSet ts = factory.Build(tc);

  const std::vector<const trace::ClientTrace*> p = ts.Pointers();
  ASSERT_EQ(p.size(), ts.traces.size());
  for (size_t i = 0; i < p.size(); ++i) EXPECT_EQ(p[i], &ts.traces[i]);
}

// Exact SimResult equality — every field the sinks serialize.
void ExpectSameResult(const coresim::SimResult& x,
                      const coresim::SimResult& y, size_t cell) {
  EXPECT_EQ(x.instructions, y.instructions) << "cell " << cell;
  EXPECT_EQ(x.elapsed_cycles, y.elapsed_cycles) << "cell " << cell;
  EXPECT_EQ(x.requests_completed, y.requests_completed) << "cell " << cell;
  EXPECT_EQ(x.avg_response_cycles, y.avg_response_cycles) << "cell " << cell;
  EXPECT_EQ(x.l1d_hit_rate, y.l1d_hit_rate) << "cell " << cell;
  EXPECT_EQ(x.l1i_hit_rate, y.l1i_hit_rate) << "cell " << cell;
  EXPECT_EQ(x.l2_hit_rate, y.l2_hit_rate) << "cell " << cell;
  for (int b = 0; b < static_cast<int>(coresim::Bucket::kCount); ++b) {
    EXPECT_EQ(x.breakdown.cycles[static_cast<size_t>(b)],
              y.breakdown.cycles[static_cast<size_t>(b)])
        << "cell " << cell << " bucket " << b;
  }
}

TEST(SweepRunner, ResultsAreIdenticalForOneAndEightThreads) {
  // Both runs replay the same TraceSet instances (shared cache): traces
  // embed heap addresses, so only same-instance replays can be
  // bit-compared — see test_determinism.cc.
  harness::WorkloadFactory factory;
  sweep::TraceSetCache cache(&factory);
  auto run = [&](uint32_t threads) {
    sweep::SweepRunner runner(&factory, sweep::RunnerOptions{threads},
                              &cache);
    return runner.Run(TinySpec());
  };
  const sweep::SweepReport serial = run(1);
  const sweep::SweepReport parallel = run(8);

  ASSERT_EQ(serial.cells.size(), 8u);
  ASSERT_EQ(parallel.cells.size(), 8u);
  for (size_t i = 0; i < serial.cells.size(); ++i) {
    EXPECT_EQ(parallel.cells[i].cell.index, i);
    ExpectSameResult(serial.cells[i].result, parallel.cells[i].result, i);
  }

  // Stronger: the deterministic serialized forms are byte-identical.
  auto to_json = [](const sweep::SweepReport& r) {
    std::ostringstream os;
    sweep::JsonSink(/*include_timing=*/false).Emit(r, os);
    return os.str();
  };
  auto to_csv = [](const sweep::SweepReport& r) {
    std::ostringstream os;
    sweep::CsvSink(/*include_timing=*/false).Emit(r, os);
    return os.str();
  };
  EXPECT_EQ(to_json(serial), to_json(parallel));
  EXPECT_EQ(to_csv(serial), to_csv(parallel));
}

TEST(SweepRunner, ColdGoldenOutputByteIdenticalAcrossThreadCounts) {
  // The cold-determinism matrix: a fresh trace cache for every run, so
  // each thread count rebuilds every set from scratch through the
  // parallel build pool, then byte-diff the golden JSON and CSV forms.
  // Golden output carries only process-invariant fields (grid, configs,
  // trace skeleton totals) — the full simulated metrics legally shift
  // with heap placement across rebuilds, which is why check.sh diffs
  // sweep_main --golden the same way.
  harness::WorkloadFactory factory;
  auto run_cold = [&](uint32_t threads) {
    sweep::TraceSetCache cache(&factory);
    sweep::SweepRunner runner(&factory, sweep::RunnerOptions{threads},
                              &cache);
    const sweep::SweepReport report = runner.Run(TinySpec());
    // Each cold run really did rebuild both of the grid's sets.
    EXPECT_EQ(report.trace_sets_built, 2u) << "--threads " << threads;
    std::ostringstream json, csv;
    sweep::JsonSink(/*include_timing=*/false, /*golden=*/true)
        .Emit(report, json);
    sweep::CsvSink(/*include_timing=*/false, /*golden=*/true)
        .Emit(report, csv);
    return std::make_pair(json.str(), csv.str());
  };

  const auto reference = run_cold(1);
  EXPECT_NE(reference.first.find("total_events"), std::string::npos);
  EXPECT_NE(reference.second.find("trace_total_events"), std::string::npos);
  for (uint32_t threads : {2u, 8u}) {
    const auto got = run_cold(threads);
    EXPECT_EQ(reference.first, got.first)
        << "golden JSON diverged at --threads " << threads;
    EXPECT_EQ(reference.second, got.second)
        << "golden CSV diverged at --threads " << threads;
  }
}

TEST(SweepRunner, CellsMatchDirectRunExperimentCalls) {
  harness::WorkloadFactory factory;
  sweep::TraceSetCache cache(&factory);
  sweep::SweepRunner runner(&factory, sweep::RunnerOptions{4}, &cache);
  const sweep::SweepReport report = runner.Run(TinySpec());
  ASSERT_EQ(report.cells.size(), 8u);
  EXPECT_EQ(report.trace_sets_built, 2u) << "one OLTP + one DSS set";

  // Replay each cell by hand over the same shared trace sets; the sweep
  // result must be bit-equal to the direct RunExperiment result.
  for (const sweep::CellResult& cr : report.cells) {
    const harness::TraceSet& traces = cache.Get(cr.cell.trace);
    EXPECT_EQ(traces.total_instructions, cr.trace_total_instructions);
    EXPECT_EQ(traces.total_events, cr.trace_total_events);
    const coresim::SimResult direct =
        harness::RunExperiment(cr.cell.exp, traces);
    ExpectSameResult(cr.result, direct, cr.cell.index);
  }
}

TEST(ClientTrace, ClearKeepsCapacity) {
  trace::ClientTrace t;
  for (uint64_t i = 0; i < 1000; ++i) t.events.push_back(i);
  t.total_instructions = 7;
  t.requests = 3;
  const size_t cap = t.events.capacity();
  ASSERT_GE(cap, 1000u);

  t.Clear();
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.total_instructions, 0u);
  EXPECT_EQ(t.requests, 0u);
  EXPECT_EQ(t.events.capacity(), cap);  // refill path keeps the buffer
}

TEST(TraceSetCache, BuildsOnceThenHitsAndAFreshCacheRebuilds) {
  harness::WorkloadFactory factory;
  harness::TraceSetConfig cfg;
  cfg.workload = harness::WorkloadKind::kOltp;
  cfg.clients = 2;
  cfg.requests_per_client = 2;
  cfg.seed = 11;

  sweep::TraceSetCache cache(&factory);
  const harness::TraceSet& first = cache.Get(cfg);
  EXPECT_FALSE(first.traces.empty());
  EXPECT_EQ(&cache.Get(cfg), &first);
  EXPECT_EQ(cache.stats().builds, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);

  sweep::TraceSetCache fresh(&factory);
  const harness::TraceSet& rebuilt = fresh.Get(cfg);
  EXPECT_EQ(fresh.stats().builds, 1u);
  EXPECT_EQ(rebuilt.total_events, first.total_events);
}

// A served set's events, copied out of the mapping.
std::vector<uint64_t> EventsOf(const trace::ClientTrace& t) {
  return std::vector<uint64_t>(t.events_data(),
                               t.events_data() + t.events_size());
}

TEST(TraceBundle, SaveThenOpenRoundTripsEveryEvent) {
  harness::WorkloadFactory factory;
  harness::TraceSetConfig cfg;
  cfg.workload = harness::WorkloadKind::kOltp;
  cfg.clients = 2;
  cfg.requests_per_client = 2;
  cfg.seed = 23;
  const harness::TraceSet built = factory.Build(cfg);

  const std::string path = ::testing::TempDir() + "bundle_roundtrip.traces";
  ASSERT_TRUE(sweep::SaveTraceBundle(path, factory, {&built}));

  {
    const sweep::BundleOpenResult r =
        sweep::OpenTraceBundle(path, factory, {cfg});
    ASSERT_EQ(r.mode, "mmap");
    ASSERT_EQ(r.sets.size(), 1u);
    const harness::TraceSet& loaded = r.sets[0];
    EXPECT_EQ(loaded.total_instructions, built.total_instructions);
    EXPECT_EQ(loaded.total_events, built.total_events);
    ASSERT_EQ(loaded.traces.size(), built.traces.size());
    for (size_t i = 0; i < built.traces.size(); ++i) {
      EXPECT_EQ(loaded.traces[i].requests, built.traces[i].requests);
      EXPECT_EQ(loaded.traces[i].total_instructions,
                built.traces[i].total_instructions);
      EXPECT_EQ(EventsOf(loaded.traces[i]), built.traces[i].events);
    }
    EXPECT_TRUE(sweep::VerifyBundleSet(loaded, r.checksums[0]));
  }

  // A different expected sequence or different scale knobs must reject.
  const auto open_mode = [&](const harness::WorkloadFactory& f,
                             const harness::TraceSetConfig& c) {
    return sweep::OpenTraceBundle(path, f, {c}).mode;
  };
  harness::TraceSetConfig other = cfg;
  other.seed = 24;
  EXPECT_EQ(open_mode(factory, other), "cold");
  harness::WorkloadFactory rescaled;
  rescaled.tpcc_config.warehouses += 1;
  EXPECT_EQ(open_mode(rescaled, cfg), "cold");

  // Corruption must reject gracefully (fall back to a cold build), never
  // throw: a truncated file and an absurd in-band length word.
  {
    std::ifstream in(path, std::ios::binary);
    std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    in.close();
    std::ofstream trunc(path, std::ios::binary | std::ios::trunc);
    trunc.write(bytes.data(),
                static_cast<std::streamsize>(bytes.size() / 2));
    trunc.close();
    EXPECT_EQ(open_mode(factory, cfg), "cold");

    // Restore, then blow up trace 0's in-band event count (v3 header:
    // 2 magic/version + 22 scale + 1 n_sets + 14 config + 2 totals +
    // 1 n_traces = word 42 starts the index rows; n_events is row word
    // 2). Stomping it with 2^62 must hit the header checksum or a
    // length bound, not vector::resize.
    std::ofstream rewrite(path, std::ios::binary | std::ios::trunc);
    rewrite.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    rewrite.close();
    std::fstream stomp(path,
                       std::ios::binary | std::ios::in | std::ios::out);
    const uint64_t huge = 1ull << 62;
    stomp.seekp(44 * 8);
    stomp.write(reinterpret_cast<const char*>(&huge), 8);
    stomp.close();
    EXPECT_EQ(open_mode(factory, cfg), "cold");

    // A single flipped bit in the event payload must fail the checksum
    // (warm replays promise bit-identity with the run that recorded).
    // Payloads are outside the header checksum, so the open still
    // succeeds; the per-set verification is what rejects the set.
    std::ofstream rewrite2(path, std::ios::binary | std::ios::trunc);
    rewrite2.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    rewrite2.close();
    std::fstream flip(path, std::ios::binary | std::ios::in | std::ios::out);
    flip.seekg(static_cast<std::streamoff>(bytes.size() / 2));
    char b = 0;
    flip.read(&b, 1);
    b = static_cast<char>(b ^ 0x10);
    flip.seekp(static_cast<std::streamoff>(bytes.size() / 2));
    flip.write(&b, 1);
    flip.close();
    const sweep::BundleOpenResult r =
        sweep::OpenTraceBundle(path, factory, {cfg});
    ASSERT_EQ(r.mode, "mmap");
    EXPECT_FALSE(sweep::VerifyBundleSet(r.sets[0], r.checksums[0]));
  }
  std::remove(path.c_str());
}

// One small built set plus its bundle on disk, shared by the bundle
// tests below.
struct BundleFixture {
  harness::WorkloadFactory factory;
  harness::TraceSetConfig cfg;
  harness::TraceSet built;
  std::string path;

  explicit BundleFixture(const char* name) {
    cfg.workload = harness::WorkloadKind::kOltp;
    cfg.clients = 2;
    cfg.requests_per_client = 2;
    cfg.seed = 23;
    built = factory.Build(cfg);
    path = ::testing::TempDir() + name;
    EXPECT_TRUE(sweep::SaveTraceBundle(path, factory, {&built}));
  }
  ~BundleFixture() { std::remove(path.c_str()); }
};

TEST(TraceBundle, MmapServesZeroCopyViewsVerifiedLazily) {
  BundleFixture fx("bundle_mmap.traces");
  sweep::BundleOpenResult r =
      sweep::OpenTraceBundle(fx.path, fx.factory, {fx.cfg});
  ASSERT_EQ(r.mode, "mmap");
  EXPECT_GT(r.bytes_mapped, 0u);
  ASSERT_EQ(r.sets.size(), 1u);
  ASSERT_EQ(r.checksums.size(), 1u);
  ASSERT_EQ(r.sets[0].traces.size(), fx.built.traces.size());
  for (size_t i = 0; i < fx.built.traces.size(); ++i) {
    const trace::ClientTrace& t = r.sets[0].traces[i];
    // Zero-copy: events live in the mapping, not in an owning vector.
    EXPECT_NE(t.view_data, nullptr);
    EXPECT_TRUE(t.events.empty());
    ASSERT_EQ(t.events_size(), fx.built.traces[i].events.size());
    EXPECT_EQ(std::vector<uint64_t>(t.events_data(),
                                    t.events_data() + t.events_size()),
              fx.built.traces[i].events);
  }
  // The mapping is pinned by the set's backing keep-alive.
  EXPECT_NE(r.sets[0].backing, nullptr);
  // Lazy payload verification passes on the untouched file.
  EXPECT_TRUE(sweep::VerifyBundleSet(r.sets[0], r.checksums[0]));
}

TEST(TraceBundle, UnmappableFileDemotesToCold) {
  BundleFixture fx("bundle_unmappable.traces");
  // An empty file has nothing to map.
  { std::ofstream empty(fx.path, std::ios::binary | std::ios::trunc); }
  const sweep::BundleOpenResult empty =
      sweep::OpenTraceBundle(fx.path, fx.factory, {fx.cfg});
  EXPECT_EQ(empty.mode, "cold");
  EXPECT_TRUE(empty.sets.empty());
  // A directory opens but cannot be mapped.
  const sweep::BundleOpenResult dir =
      sweep::OpenTraceBundle(::testing::TempDir(), fx.factory, {fx.cfg});
  EXPECT_EQ(dir.mode, "cold");
  EXPECT_TRUE(dir.sets.empty());
}

TEST(TraceBundle, WrongVersionOrTruncationDemotesToCold) {
  BundleFixture fx("bundle_cold.traces");
  std::ifstream in(fx.path, std::ios::binary);
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  in.close();

  // A v2 bundle (or any other version word) must rebuild cold.
  {
    std::fstream stomp(fx.path,
                       std::ios::binary | std::ios::in | std::ios::out);
    const uint64_t v2 = 2;
    stomp.seekp(8);  // word 1: format version
    stomp.write(reinterpret_cast<const char*>(&v2), 8);
  }
  EXPECT_EQ(sweep::OpenTraceBundle(fx.path, fx.factory, {fx.cfg}).mode,
            "cold");

  // Truncation demotes to cold.
  {
    std::ofstream trunc(fx.path, std::ios::binary | std::ios::trunc);
    trunc.write(bytes.data(),
                static_cast<std::streamsize>(bytes.size() - 8));
  }
  EXPECT_EQ(sweep::OpenTraceBundle(fx.path, fx.factory, {fx.cfg}).mode,
            "cold");
}

TEST(TraceBundle, FlippedPayloadWordCaughtOnlyByVerify) {
  BundleFixture fx("bundle_flip.traces");
  // Flip one bit in trace 0's first payload word. The payload region
  // starts at the 64-byte-aligned end of the header; rather than
  // recompute it, read the recorded offset from index row 0 (header
  // word 42 starts the rows; offset_bytes is row word 3).
  uint64_t offset = 0;
  {
    std::fstream f(fx.path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekg((42 + 3) * 8);
    f.read(reinterpret_cast<char*>(&offset), 8);
    uint64_t w = 0;
    f.seekg(static_cast<std::streamoff>(offset));
    f.read(reinterpret_cast<char*>(&w), 8);
    w ^= 1ull << 40;
    f.seekp(static_cast<std::streamoff>(offset));
    f.write(reinterpret_cast<const char*>(&w), 8);
  }
  // The header still validates (payloads are not part of the header
  // checksum), so the open succeeds: it reads only the header. The
  // corruption surfaces in the per-set lazy verification.
  sweep::BundleOpenResult r =
      sweep::OpenTraceBundle(fx.path, fx.factory, {fx.cfg});
  ASSERT_EQ(r.mode, "mmap");
  EXPECT_FALSE(sweep::VerifyBundleSet(r.sets[0], r.checksums[0]));
}

TEST(TraceBundle, FileBytesSurvivesPastTwoGiB) {
  // Regression for the ftell-into-long truncation: sizes past 2^31 must
  // come back exact. Sparse file — no real disk is consumed.
  const std::string path = ::testing::TempDir() + "bundle_sparse.bin";
  const int64_t size = (int64_t{1} << 31) + (int64_t{1} << 29) + 4096;
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(fseeko(f, size - 1, SEEK_SET), 0);
    std::fputc(0, f);
    std::fclose(f);
  }
  EXPECT_EQ(sweep::BundleFileBytes(path), size);
  std::remove(path.c_str());
  EXPECT_LT(sweep::BundleFileBytes(path), 0);  // missing file: negative
}

TEST(TraceBundle, WarmSweepReplaysBitIdenticalToColdSweep) {
  const std::string path = ::testing::TempDir() + "bundle_sweep.traces";
  std::remove(path.c_str());

  auto run = [&](harness::WorkloadFactory* factory) {
    sweep::RunnerOptions options;
    options.threads = 1;
    options.trace_bundle = path;
    sweep::SweepRunner runner(factory, options);
    return runner.Run(TinySpec());
  };
  // Cold: generates traces and writes the bundle.
  harness::WorkloadFactory cold_factory;
  const sweep::SweepReport cold = run(&cold_factory);
  EXPECT_EQ(cold.bundle, "cold");
  EXPECT_GT(cold.trace_sets_built, 0u);

  // Warm, with a FRESH factory: nothing may regenerate, and because the
  // bundle preserves trace bytes exactly, every simulated metric — and
  // the serialized JSON — must be bit-identical to the cold run.
  harness::WorkloadFactory warm_factory;
  const sweep::SweepReport warm = run(&warm_factory);
  EXPECT_EQ(warm.bundle, "warm");
  EXPECT_EQ(warm.trace_sets_built, 0u);

  ASSERT_EQ(cold.cells.size(), warm.cells.size());
  for (size_t i = 0; i < cold.cells.size(); ++i) {
    ExpectSameResult(cold.cells[i].result, warm.cells[i].result, i);
  }
  auto to_json = [](const sweep::SweepReport& r) {
    std::ostringstream os;
    sweep::JsonSink(/*include_timing=*/false).Emit(r, os);
    return os.str();
  };
  EXPECT_EQ(to_json(cold), to_json(warm));
  std::remove(path.c_str());
}

TEST(TraceBundle, LazyMismatchRebuildsColdAndReportsPartial) {
  const std::string path = ::testing::TempDir() + "bundle_partial.traces";
  std::remove(path.c_str());
  auto run = [&](harness::WorkloadFactory* factory) {
    sweep::RunnerOptions options;
    options.threads = 1;
    options.trace_bundle = path;
    sweep::SweepRunner runner(factory, options);
    return runner.Run(TinySpec());
  };
  harness::WorkloadFactory f1, f2, f3;
  const sweep::SweepReport cold = run(&f1);
  ASSERT_EQ(cold.bundle, "cold");

  // Corrupt set 0's first payload word (offset read from index row 0 —
  // header word 42 starts the rows, offset_bytes is row word 3). The
  // mmap open still succeeds; only the lazy per-set verification on the
  // build pool notices, rebuilds that set cold, and flags the run.
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    uint64_t offset = 0;
    f.seekg((42 + 3) * 8);
    f.read(reinterpret_cast<char*>(&offset), 8);
    uint64_t w = 0;
    f.seekg(static_cast<std::streamoff>(offset));
    f.read(reinterpret_cast<char*>(&w), 8);
    w ^= 1ull << 40;
    f.seekp(static_cast<std::streamoff>(offset));
    f.write(reinterpret_cast<const char*>(&w), 8);
  }
  const sweep::SweepReport partial = run(&f2);
  EXPECT_EQ(partial.bundle, "partial");
  EXPECT_GT(partial.trace_sets_built, 0u);  // the bad set rebuilt cold
  auto golden = [](const sweep::SweepReport& r) {
    std::ostringstream os;
    sweep::JsonSink(/*include_timing=*/false, /*golden=*/true).Emit(r, os);
    return os.str();
  };
  EXPECT_EQ(golden(cold), golden(partial));

  // The partial run rewrote the bundle, so the next run is fully warm.
  const sweep::SweepReport warm = run(&f3);
  EXPECT_EQ(warm.bundle, "warm");
  EXPECT_EQ(warm.trace_sets_built, 0u);
  std::remove(path.c_str());
}

TEST(SweepRunner, ShardedRunExecutesAssignedCellsAndSkipsForeignBuilds) {
  // Workload as the LAST axis, so it alternates with cell parity: shard
  // 0/2 only ever needs OLTP traces and must not build the DSS set.
  sweep::SweepSpec spec("shardtest");
  spec.base_exp.cores = 2;
  spec.base_exp.l2_bytes = 1ull << 20;
  spec.base_exp.measure_instructions = 400'000;
  spec.base_exp.warmup_instructions = 100'000;
  spec.AddAxis(
      "camp",
      {{"FC", [](sweep::Cell& c) { c.exp.camp = coresim::Camp::kFat; }},
       {"LC", [](sweep::Cell& c) { c.exp.camp = coresim::Camp::kLean; }}});
  spec.AddAxis("workload",
               {{"OLTP",
                 [](sweep::Cell& c) {
                   c.trace.workload = harness::WorkloadKind::kOltp;
                   c.trace.clients = 2;
                   c.trace.requests_per_client = 4;
                   c.trace.seed = 5;
                 }},
                {"DSS",
                 [](sweep::Cell& c) {
                   c.trace.workload = harness::WorkloadKind::kDss;
                   c.trace.clients = 2;
                   c.trace.requests_per_client = 1;
                   c.trace.seed = 5;
                 }}});

  harness::WorkloadFactory factory;
  MetricsRegistry reg;
  sweep::RunnerOptions options;
  options.threads = 2;
  options.shard_index = 0;
  options.shard_count = 2;
  options.metrics = &reg;
  const sweep::SweepReport r =
      sweep::SweepRunner(&factory, options).Run(spec);

  ASSERT_EQ(r.cells.size(), 4u);  // the FULL grid is expanded
  EXPECT_EQ(r.shard_index, 0u);
  EXPECT_EQ(r.shard_count, 2u);
  for (const sweep::CellResult& cr : r.cells) {
    if (cr.cell.index % 2 == 0) {
      EXPECT_GT(cr.result.instructions, 0u) << "cell " << cr.cell.index;
    } else {
      // Unassigned slots stay default-constructed.
      EXPECT_EQ(cr.result.instructions, 0u) << "cell " << cr.cell.index;
    }
  }
  EXPECT_EQ(r.trace_sets_built, 1u);  // only the OLTP set; DSS skipped
  EXPECT_EQ(r.metrics.CounterOr("shard.cells_assigned"), 2u);
  EXPECT_EQ(r.metrics.CounterOr("shard.cells_skipped"), 2u);
}

TEST(Observability, MetricsCrossCheckAndResultsUnperturbed) {
  // Two runs of the same spec over separate caches: one instrumented,
  // one not. The metrics must cross-check against the report, and the
  // golden serialized output must not notice observability at all.
  harness::WorkloadFactory factory;
  auto golden_json = [](const sweep::SweepReport& r) {
    std::ostringstream os;
    sweep::JsonSink(/*include_timing=*/false, /*golden=*/true).Emit(r, os);
    return os.str();
  };

  MetricsRegistry reg;
  sweep::TraceSetCache cache(&factory, &reg);
  sweep::RunnerOptions options;
  options.threads = 4;
  options.metrics = &reg;
  const sweep::SweepReport instrumented =
      sweep::SweepRunner(&factory, options, &cache).Run(TinySpec());

  sweep::TraceSetCache plain_cache(&factory);
  const sweep::SweepReport plain =
      sweep::SweepRunner(&factory, sweep::RunnerOptions{4}, &plain_cache)
          .Run(TinySpec());
  EXPECT_FALSE(plain.has_metrics);
  EXPECT_EQ(golden_json(instrumented), golden_json(plain));

  ASSERT_TRUE(instrumented.has_metrics);
  const MetricsSnapshot& m = instrumented.metrics;
  // Replay counters agree with the report's own accounting.
  EXPECT_EQ(m.CounterOr("replay.events_replayed"),
            instrumented.events_replayed());
  EXPECT_EQ(m.CounterOr("replay.runs"), 8u);
  EXPECT_EQ(m.CounterOr("sweep.cells_simulated"), 8u);
  // Cache invariants: every lookup is a hit or a miss; the tiny grid has
  // two distinct configs, each built exactly once.
  EXPECT_EQ(m.CounterOr("trace_cache.lookups"),
            m.CounterOr("trace_cache.hits") +
                m.CounterOr("trace_cache.misses"));
  EXPECT_EQ(m.CounterOr("trace_cache.misses"), 2u);
  // The build pool executed one task per distinct config and drained.
  EXPECT_EQ(m.CounterOr("build_pool.tasks_executed"), 2u);
  EXPECT_EQ(m.CounterOr("build_pool.tasks_submitted"),
            m.CounterOr("build_pool.tasks_executed") +
                m.CounterOr("build_pool.tasks_discarded"));
}

TEST(Observability, RunExperimentMetricsNeverChangeResults) {
  harness::WorkloadFactory factory;
  harness::TraceSetConfig cfg;
  cfg.workload = harness::WorkloadKind::kOltp;
  cfg.clients = 2;
  cfg.requests_per_client = 2;
  cfg.seed = 3;
  const harness::TraceSet traces = factory.Build(cfg);
  harness::ExperimentConfig exp;
  exp.cores = 2;
  exp.l2_bytes = 1ull << 20;
  exp.measure_instructions = 200'000;
  exp.warmup_instructions = 50'000;

  const coresim::SimResult bare = harness::RunExperiment(exp, traces);
  MetricsRegistry reg;
  const coresim::SimResult observed =
      harness::RunExperiment(exp, traces, nullptr, &reg);
  ExpectSameResult(bare, observed, 0);

  const MetricsSnapshot m = reg.Snapshot();
  EXPECT_EQ(m.CounterOr("replay.runs"), 1u);
  EXPECT_EQ(m.CounterOr("replay.events_replayed"), observed.events_replayed);
  EXPECT_EQ(m.CounterOr("replay.instructions"), observed.instructions);
  const int l1 = static_cast<int>(memsim::AccessClass::kL1Hit);
  EXPECT_EQ(m.CounterOr("replay.data_l1_hits"),
            observed.mem.data_count[l1]);
}

TEST(Observability, DeterministicTraceByteStableAcrossThreadCounts) {
  // Same shared cache (same trace instances), deterministic collectors:
  // the flushed timeline must be byte-identical whatever the thread
  // count — the cold first run included, because the span SET (sweep,
  // one build per distinct config, one cell span per cell) is invariant.
  harness::WorkloadFactory factory;
  sweep::TraceSetCache cache(&factory);
  auto run_traced = [&](uint32_t threads) {
    TraceCollector tc(/*deterministic=*/true);
    sweep::RunnerOptions options;
    options.threads = threads;
    options.trace = &tc;
    sweep::SweepRunner(&factory, options, &cache).Run(TinySpec());
    std::ostringstream os;
    tc.WriteJson(os);
    return os.str();
  };
  const std::string cold = run_traced(1);
  const std::string warm1 = run_traced(1);
  const std::string warm8 = run_traced(8);
  EXPECT_EQ(cold, warm1);
  EXPECT_EQ(warm1, warm8);
  // Spot-check the taxonomy landed: the sweep span, a build span per
  // distinct config, a cell span per cell.
  EXPECT_NE(cold.find("\"sweep:tiny\""), std::string::npos);
  EXPECT_NE(cold.find("\"build:OLTP/c2/r4/s5/e0\""), std::string::npos);
  EXPECT_NE(cold.find("\"cell:7\""), std::string::npos);
}

// The table's L2 column prints sub-MB caches (shootout's 256KB per-node
// SMP L2s) in KB instead of rounding them to "0MB".
TEST(TableSink, SubMegabyteL2PrintsKilobytes) {
  sweep::SweepReport report;
  report.spec_name = "l2col";
  for (const uint64_t bytes : {256ull << 10, 4ull << 20}) {
    sweep::CellResult cr;
    cr.cell.index = report.cells.size();
    cr.cell.exp.l2_bytes = bytes;
    report.cells.push_back(cr);
  }
  std::ostringstream os;
  sweep::TableSink(/*include_timing=*/false).Emit(report, os);
  EXPECT_NE(os.str().find("256KB"), std::string::npos) << os.str();
  EXPECT_NE(os.str().find("4MB"), std::string::npos) << os.str();
  EXPECT_EQ(os.str().find("0MB"), std::string::npos) << os.str();
}

/// Every field of both configs: the cell must be exactly what a direct
/// Build(t) + RunExperiment(e, ...) call would have used.
void ExpectConfig(const sweep::Cell& c, const harness::TraceSetConfig& t,
                  const harness::ExperimentConfig& e) {
  SCOPED_TRACE("cell " + std::to_string(c.index));
  EXPECT_EQ(c.trace.workload, t.workload);
  EXPECT_EQ(c.trace.clients, t.clients);
  EXPECT_EQ(c.trace.requests_per_client, t.requests_per_client);
  EXPECT_EQ(c.trace.seed, t.seed);
  EXPECT_EQ(c.trace.engine, t.engine);
  EXPECT_EQ(c.trace.traffic.shapes_keys(), t.traffic.shapes_keys());
  EXPECT_EQ(c.trace.traffic.shapes_arrival(), t.traffic.shapes_arrival());
  EXPECT_EQ(c.trace.tenant2_clients, t.tenant2_clients);
  EXPECT_EQ(c.exp.camp, e.camp);
  EXPECT_EQ(c.exp.cores, e.cores);
  EXPECT_EQ(c.exp.l2_bytes, e.l2_bytes);
  EXPECT_EQ(c.exp.latency, e.latency);
  EXPECT_EQ(c.exp.topology, e.topology);
  EXPECT_EQ(c.exp.saturated, e.saturated);
  EXPECT_EQ(c.exp.measure_instructions, e.measure_instructions);
  EXPECT_EQ(c.exp.warmup_instructions, e.warmup_instructions);
  EXPECT_EQ(c.exp.stream_buffers, e.stream_buffers);
  EXPECT_EQ(c.exp.l2_ports, e.l2_ports);
  EXPECT_EQ(c.exp.memory_latency, e.memory_latency);
  EXPECT_EQ(c.exp.fixed_l2_latency, e.fixed_l2_latency);
  EXPECT_EQ(c.exp.smp_bus_model, e.smp_bus_model);
}

TEST(BuiltinSpecs, AllNamesExpandToTheExpectedGrids) {
  EXPECT_TRUE(sweep::HasBuiltinSpec("fig7"));
  EXPECT_FALSE(sweep::HasBuiltinSpec("fig99"));
  EXPECT_EQ(sweep::BuiltinSpec("smoke").Expand().size(), 4u);
  EXPECT_EQ(sweep::BuiltinSpec("fig4").Expand().size(), 8u);
  EXPECT_EQ(sweep::BuiltinSpec("fig6").Expand().size(), 24u);
  EXPECT_EQ(sweep::BuiltinSpec("fig7").Expand().size(), 4u);
  EXPECT_EQ(sweep::BuiltinSpec("fig8").Expand().size(), 8u);

  // fig7 cells carry the exact pre-port configs: SMP private 4MB per
  // node vs CMP shared 16MB, over the canonical saturated trace sets.
  const std::vector<sweep::Cell> fig7 = sweep::BuiltinSpec("fig7").Expand();
  EXPECT_EQ(fig7[0].trace.seed, sweep::OltpSaturatedConfig().seed);
  EXPECT_EQ(fig7[0].exp.topology, harness::Topology::kSmpPrivate);
  EXPECT_EQ(fig7[0].exp.l2_bytes, 4ull << 20);
  EXPECT_EQ(fig7[1].exp.topology, harness::Topology::kCmpShared);
  EXPECT_EQ(fig7[1].exp.l2_bytes, 16ull << 20);
  EXPECT_EQ(fig7[2].trace.clients, sweep::DssSaturatedConfig().clients);

  // fig8 scales offered load and measurement window with the machine.
  const std::vector<sweep::Cell> fig8 = sweep::BuiltinSpec("fig8").Expand();
  EXPECT_EQ(fig8[3].exp.cores, 16u);
  EXPECT_EQ(fig8[3].trace.clients, 48u);
  EXPECT_EQ(fig8[3].exp.measure_instructions, 48'000'000u);

  // The SMP grids run the private-L2 machine; fig8smp extends the
  // core-count axis to 32 nodes with fig8's load scaling.
  EXPECT_EQ(sweep::BuiltinSpec("smokesmp").Expand().size(), 2u);
  const std::vector<sweep::Cell> f8s = sweep::BuiltinSpec("fig8smp").Expand();
  ASSERT_EQ(f8s.size(), 8u);
  for (const sweep::Cell& c : f8s) {
    EXPECT_EQ(c.exp.topology, harness::Topology::kSmpPrivate);
    EXPECT_EQ(c.exp.l2_bytes, 4ull << 20);
  }
  EXPECT_EQ(f8s[3].exp.cores, 32u);
  EXPECT_EQ(f8s[3].trace.clients, 96u);
  EXPECT_EQ(f8s[3].exp.measure_instructions, 96'000'000u);

  // The figure and ablation grids: every cell equals, field for field,
  // the literal trace and machine configs each figure is reproduced
  // with.
  auto trace = [](harness::WorkloadKind w, uint32_t clients, uint32_t rpc,
                  uint64_t seed) {
    harness::TraceSetConfig tc;
    tc.workload = w;
    tc.clients = clients;
    tc.requests_per_client = rpc;
    tc.seed = seed;
    return tc;
  };
  auto fc4 = [](uint64_t l2_bytes, bool saturated) {
    harness::ExperimentConfig ec;
    ec.camp = coresim::Camp::kFat;
    ec.cores = 4;
    ec.l2_bytes = l2_bytes;
    ec.saturated = saturated;
    return ec;
  };
  const auto kOltp = harness::WorkloadKind::kOltp;
  const auto kDss = harness::WorkloadKind::kDss;
  const harness::TraceSetConfig oltp_sat = trace(kOltp, 32, 64, 11);
  const harness::TraceSetConfig dss_sat = trace(kDss, 24, 1, 23);

  const std::vector<sweep::Cell> fig2 = sweep::BuiltinSpec("fig2").Expand();
  ASSERT_EQ(fig2.size(), 8u);
  const uint32_t kClients[] = {1, 2, 4, 8, 16, 32, 64, 128};
  for (size_t i = 0; i < fig2.size(); ++i) {
    harness::ExperimentConfig ec = fc4(16ull << 20, true);
    ec.measure_instructions = 8'000'000;
    ec.warmup_instructions = 2'000'000;
    ExpectConfig(fig2[i], trace(kDss, kClients[i], 1, 51), ec);
  }

  const std::vector<sweep::Cell> fig3 = sweep::BuiltinSpec("fig3").Expand();
  ASSERT_EQ(fig3.size(), 1u);
  harness::ExperimentConfig power5 = fc4(2ull << 20, true);
  power5.memory_latency = 140;
  ExpectConfig(fig3[0], dss_sat, power5);

  // fig4 is also Figure 5's grid: {unsat,sat} x {OLTP,DSS} x {FC,LC}.
  const std::vector<sweep::Cell> fig4 = sweep::BuiltinSpec("fig4").Expand();
  ASSERT_EQ(fig4.size(), 8u);
  const harness::TraceSetConfig fig4_traces[] = {
      trace(kOltp, 1, 40, 31), trace(kDss, 1, 2, 41), oltp_sat, dss_sat};
  for (size_t i = 0; i < fig4.size(); ++i) {
    const bool saturated = i >= 4;
    harness::ExperimentConfig ec = fc4(26ull << 20, saturated);
    ec.camp = i % 2 ? coresim::Camp::kLean : coresim::Camp::kFat;
    ExpectConfig(fig4[i], fig4_traces[i / 2], ec);
  }

  const std::vector<sweep::Cell> fig6 = sweep::BuiltinSpec("fig6").Expand();
  ASSERT_EQ(fig6.size(), 24u);
  const uint64_t kSizesMb[] = {1, 2, 4, 8, 16, 26};
  for (size_t i = 0; i < fig6.size(); ++i) {
    harness::ExperimentConfig ec = fc4(kSizesMb[i % 6] << 20, true);
    ec.latency = (i / 6) % 2 ? harness::LatencyMode::kRealistic
                             : harness::LatencyMode::kFixed4;
    ExpectConfig(fig6[i], i < 12 ? oltp_sat : dss_sat, ec);
  }

  const std::vector<sweep::Cell> abl =
      sweep::BuiltinSpec("ablstaged").Expand();
  ASSERT_EQ(abl.size(), 3u);
  const harness::EngineMode kEngines[] = {harness::EngineMode::kVolcano,
                                          harness::EngineMode::kStagedTuple,
                                          harness::EngineMode::kStagedCohort};
  for (size_t i = 0; i < abl.size(); ++i) {
    harness::TraceSetConfig tc = trace(kDss, 4, 2, 61);
    tc.engine = kEngines[i];
    ExpectConfig(abl[i], tc, fc4(8ull << 20, false));
  }

  const std::vector<sweep::Cell> sb =
      sweep::BuiltinSpec("ablstreambuf").Expand();
  ASSERT_EQ(sb.size(), 2u);
  for (size_t i = 0; i < sb.size(); ++i) {
    harness::ExperimentConfig ec = fc4(16ull << 20, true);
    ec.stream_buffers = i == 0;
    ExpectConfig(sb[i], oltp_sat, ec);
  }
}

/// A report for builtin spec `name` with synthetic, non-zero results in
/// every cell — what a figure view renders, without simulating.
sweep::SweepReport SyntheticReport(const std::string& name) {
  const sweep::SweepSpec spec = sweep::BuiltinSpec(name);
  sweep::SweepReport report;
  report.spec_name = name;
  report.axis_names = spec.axis_names();
  for (const sweep::Cell& c : spec.Expand()) {
    sweep::CellResult cr;
    cr.cell = c;
    coresim::SimResult& r = cr.result;
    r.instructions = 2'000'000;
    r.elapsed_cycles = 1'000'000;
    r.requests_completed = 10;
    r.avg_response_cycles = 50'000.0 + 1'000.0 * static_cast<double>(c.index);
    r.l1d_hit_rate = 0.9;
    r.l1i_hit_rate = 0.95;
    r.l2_hit_rate = 0.5;
    for (size_t b = 0; b < r.breakdown.cycles.size(); ++b) {
      r.breakdown.cycles[b] = 10'000.0 * static_cast<double>(b + 1);
    }
    cr.hw.l2_hit_cycles = 10;
    cr.hw.contexts_per_core = 1;
    report.cells.push_back(cr);
  }
  return report;
}

std::string RenderTable(const sweep::SweepReport& report) {
  std::ostringstream os;
  sweep::TableSink(/*include_timing=*/false).Emit(report, os);
  return os.str();
}

// Every spec with a figure view renders its title(s) under the generic
// table from synthetic results.
TEST(FigureViews, EveryViewRendersItsTitlesWithoutSimulating) {
  const std::map<std::string, std::vector<std::string>> kTitles = {
      {"fig2", {"Figure 2:"}},
      {"fig3", {"Figure 3:"}},
      {"fig4", {"Table 1:", "Figure 4(a):", "Figure 4(b):", "Figure 5:"}},
      {"fig6",
       {"Figure 1 (a,b):", "Figure 6(a):", "Figure 6(b):", "Figure 6(c):"}},
      {"fig7", {"Figure 7:"}},
      {"fig8", {"Figure 8:"}},
      {"ablstaged", {"Ablation: staged"}},
      {"ablstreambuf", {"Ablation: instruction stream buffers"}},
  };
  size_t with_view = 0;
  for (const std::string& name : sweep::BuiltinSpecNames()) {
    if (sweep::BuiltinFigureView(name) == nullptr) continue;
    ++with_view;
    ASSERT_EQ(kTitles.count(name), 1u) << name << " has no expected title";
    const std::string out = RenderTable(SyntheticReport(name));
    EXPECT_EQ(out.rfind("sweep '" + name + "'", 0), 0u) << out;
    for (const std::string& title : kTitles.at(name)) {
      EXPECT_NE(out.find("\n=== " + title), std::string::npos)
          << name << " lacks '" << title << "':\n" << out;
    }
  }
  EXPECT_EQ(with_view, kTitles.size());
  EXPECT_EQ(sweep::BuiltinFigureView("smoke"), nullptr);
}

// Figure 4(b)'s ratio column is LC UIPC over FC UIPC.
TEST(FigureViews, Fig4RatioColumnIsLcOverFc) {
  sweep::SweepReport report = SyntheticReport("fig4");
  for (sweep::CellResult& cr : report.cells) {
    // FC UIPC 2.0, LC UIPC 3.4 = 1.7x.
    if (cr.cell.exp.camp == coresim::Camp::kLean) {
      cr.result.instructions = 3'400'000;
    }
  }
  const std::string out = RenderTable(report);
  const size_t fig4b = out.find("Figure 4(b)");
  ASSERT_NE(fig4b, std::string::npos) << out;
  const size_t row = out.find("| OLTP", fig4b);
  ASSERT_NE(row, std::string::npos) << out;
  const std::string line = out.substr(row, out.find('\n', row) - row);
  EXPECT_NE(line.find("| 1.70 "), std::string::npos) << line;
}

}  // namespace
}  // namespace stagedcmp
