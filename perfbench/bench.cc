// StagedCMP benchmark binary: one pass of one workload, from trace sets
// to written results, timed from outside the libraries' public calls.
//
//   stagedcmp_perfbench --workload W --seed N --out-dir DIR
//                       [--bundle PATH] [--prepare] [--trace]
//
// Without --bundle the pass is cold: every trace set is built in a fresh
// WorkloadWorld (database load, then trace generation) and written to
// DIR/bundle. With --bundle the pass is warm: the bundle is opened and
// its payloads verified. Either way the cells then replay on kThreads
// threads and the results go through the sweep JSON sink to
// DIR/results.json.
// --prepare only builds the sets and writes them to --bundle.
//
// --trace records a span around every timed call (name, start, end,
// parent, cell, work count), runs the layer probe after the results are
// written, and writes the spans to DIR/spans.json at exit. The probe
// covers the layers the pass itself skipped (bundle read on cold passes,
// database load and trace generation on warm ones), replays the first
// trace set on CMPs of 4/16/256/1024 cores and a 4-node SMP, and drives
// the same events straight into the memory hierarchies.
//
// The last line of stdout is one JSON object: phase times, trace-set
// totals, per-cell fingerprints and check failures, and the modelled
// (simulated) counters. run.py turns passes into metrics.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "harness/experiment.h"
#include "harness/world.h"
#include "memsim/hierarchy.h"
#include "sweep/builtin_specs.h"
#include "sweep/runner.h"
#include "sweep/sinks.h"
#include "sweep/trace_bundle.h"
#include "trace/events.h"

namespace {

using stagedcmp::coresim::Bucket;
using stagedcmp::coresim::Camp;
using stagedcmp::coresim::SimResult;
using stagedcmp::harness::EngineMode;
using stagedcmp::harness::ExperimentConfig;
using stagedcmp::harness::Topology;
using stagedcmp::harness::TraceSet;
using stagedcmp::harness::TraceSetConfig;
using stagedcmp::harness::WorkloadFactory;
using stagedcmp::harness::WorkloadKind;
using stagedcmp::memsim::AccessClass;
namespace sweep = stagedcmp::sweep;
namespace trace = stagedcmp::trace;

// Set-up and replay threads. On a 4-core host, warm replay of a 24-cell
// grid spread +-30% run to run at 4 threads against +-2% at 2, so the
// benchmark leaves two cores idle.
constexpr uint32_t kThreads = 2;

using Clock = std::chrono::steady_clock;
const Clock::time_point kProcessStart = Clock::now();

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Bytes of event payload a set holds, as the replay engine reads it.
uint64_t PayloadBytes(const TraceSet& set) {
  uint64_t bytes = 0;
  for (const trace::ClientTrace& t : set.traces) {
    bytes += t.events_size() * sizeof(*t.events_data());
  }
  return bytes;
}

// ---------------------------------------------------------------------
// Spans: kept in memory, written once at exit. A null log records
// nothing, so traced and untraced passes run the same code.

struct Span {
  const char* name;  // a string literal: recording a span never allocates
  double start_s = 0.0;  // since process start
  double end_s = 0.0;
  int parent = -1;
  int cell = -1;
  uint64_t work = 0;  // events, accesses or bytes, depending on the span
};

class SpanLog {
 public:
  SpanLog() { spans_.reserve(4096); }
  int Begin(const char* name, int parent, int cell) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, Since(kProcessStart), 0.0, parent, cell, 0});
    return static_cast<int>(spans_.size()) - 1;
  }
  void End(int id, uint64_t work) {
    const double now = Since(kProcessStart);
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<size_t>(id)].end_s = now;
    spans_[static_cast<size_t>(id)].work = work;
  }
  bool Write(const std::string& path) const {
    std::lock_guard<std::mutex> lock(mu_);
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"spans\": [\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "  {\"id\": %zu, \"name\": \"%s\", \"start_s\": %.9f, "
                   "\"end_s\": %.9f, \"parent\": %d, \"cell\": %d, "
                   "\"work\": %" PRIu64 "}%s\n",
                   i, s.name, s.start_s, s.end_s, s.parent, s.cell,
                   s.work, i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span; a no-op when `log` is null.
class Scope {
 public:
  Scope(SpanLog* log, const char* name, int parent, int cell = -1)
      : log_(log), id_(log ? log->Begin(name, parent, cell) : -1) {}
  ~Scope() { End(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int id() const { return id_; }
  void set_work(uint64_t w) { work_ = w; }
  /// Ends the span now (later calls, and the destructor, do nothing).
  void End() {
    if (log_ != nullptr) log_->End(id_, work_);
    log_ = nullptr;
  }

 private:
  SpanLog* log_;
  int id_;
  uint64_t work_ = 0;
};

// ---------------------------------------------------------------------
// Workloads.

struct CellDef {
  std::string label;
  size_t set = 0;  // index into Grid::sets
  ExperimentConfig exp;
};

struct Grid {
  std::vector<TraceSetConfig> sets;
  std::vector<CellDef> cells;
  bool shootout_scale = false;  // shrunk TPC-H (ConfigureFactoryForSpec)
};

/// Trace seeds derive from the benchmark seed; `k` keeps the sets of one
/// grid on distinct streams.
uint64_t TraceSeed(uint64_t seed, uint64_t k) { return seed * 1000 + k; }

TraceSetConfig SetOf(WorkloadKind w, uint32_t clients, uint32_t requests,
                     uint64_t seed, EngineMode engine = EngineMode::kVolcano) {
  TraceSetConfig t;
  t.workload = w;
  t.clients = clients;
  t.requests_per_client = requests;
  t.seed = seed;
  t.engine = engine;
  return t;
}

const char* KindLabel(WorkloadKind w) {
  return stagedcmp::harness::WorkloadName(w);
}

std::string SetLabel(const TraceSetConfig& t) {
  std::string s = KindLabel(t.workload);
  if (t.engine == EngineMode::kStagedCohort) s += "-cohort";
  if (t.traffic.shapes_keys()) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "-zipf%.2f", t.traffic.zipf_theta);
    s += buf;
  }
  if (t.tenant2_clients > 0) {
    s += std::string("+") + KindLabel(t.tenant2_workload);
  }
  return s + "-c" + std::to_string(t.clients + t.tenant2_clients);
}

// cold_mixed: many small, distinct sets; each replays on one short
// 4-core CMP cell, so database load and trace generation dominate. The
// DSS sets take longest to build and come first, so no large build
// starts last while the other build thread idles.
Grid ColdMixed(uint64_t seed) {
  Grid g;
  uint64_t k = 0;
  auto add = [&](TraceSetConfig t) {
    t.seed = TraceSeed(seed, ++k);
    g.sets.push_back(t);
  };
  for (EngineMode e : {EngineMode::kStagedCohort, EngineMode::kVolcano}) {
    add(SetOf(WorkloadKind::kDss, 4, 1, 0, e));
    add(SetOf(WorkloadKind::kDss, 2, 2, 0, e));
  }
  add(SetOf(WorkloadKind::kOltp, 4, 8, 0));
  add(SetOf(WorkloadKind::kOltp, 8, 4, 0));
  for (double theta : {0.0, 0.99}) {
    for (EngineMode e : {EngineMode::kVolcano, EngineMode::kStagedCohort}) {
      TraceSetConfig t = SetOf(WorkloadKind::kYcsb, 4, 8, 0, e);
      t.traffic.key_dist = stagedcmp::workload::KeyDist::kZipfian;
      t.traffic.zipf_theta = theta;
      add(t);
    }
  }
  TraceSetConfig corun = SetOf(WorkloadKind::kOltp, 4, 8, 0);
  corun.tenant2_workload = WorkloadKind::kYcsb;
  corun.tenant2_clients = 4;
  add(corun);

  for (size_t i = 0; i < g.sets.size(); ++i) {
    CellDef c;
    c.label = SetLabel(g.sets[i]) + "/CMP4-FC-4MB";
    c.set = i;
    c.exp.camp = Camp::kFat;
    c.exp.cores = 4;
    c.exp.l2_bytes = 4ull << 20;
    c.exp.saturated = true;
    c.exp.measure_instructions = 3'000'000;
    c.exp.warmup_instructions = 1'000'000;
    g.cells.push_back(c);
  }
  return g;
}

// warm_paper: the paper's machines on its saturated OLTP and DSS sets.
Grid WarmPaper(uint64_t seed) {
  Grid g;
  TraceSetConfig oltp = sweep::OltpSaturatedConfig(32);
  TraceSetConfig dss = sweep::DssSaturatedConfig(24);
  oltp.seed = TraceSeed(seed, 1);
  dss.seed = TraceSeed(seed, 2);
  g.sets = {oltp, dss};
  struct Machine {
    std::string name;
    Topology topo;
    uint32_t cores;
    uint64_t l2_mb;
    Camp camp;
  };
  std::vector<Machine> machines;
  const std::pair<uint32_t, uint64_t> cmps[] = {{4, 4}, {8, 16}, {16, 26}};
  for (const auto& [cores, mb] : cmps) {
    for (Camp camp : {Camp::kFat, Camp::kLean}) {
      machines.push_back({"CMP" + std::to_string(cores) + "-" +
                              (camp == Camp::kFat ? "FC" : "LC") + "-" +
                              std::to_string(mb) + "MB",
                          Topology::kCmpShared, cores, mb, camp});
    }
  }
  machines.push_back({"SMP4-FC-4MB", Topology::kSmpPrivate, 4, 4, Camp::kFat});
  for (size_t s = 0; s < g.sets.size(); ++s) {
    for (const Machine& m : machines) {
      CellDef c;
      c.label = SetLabel(g.sets[s]) + "/" + m.name;
      c.set = s;
      c.exp.camp = m.camp;
      c.exp.topology = m.topo;
      c.exp.cores = m.cores;
      c.exp.l2_bytes = m.l2_mb << 20;
      c.exp.saturated = true;  // paper windows: 12M measured + 3M warmup
      g.cells.push_back(c);
    }
  }
  return g;
}

// warm_scaleout: shootout-shaped large-n grid, short per-node windows.
constexpr uint64_t kScaleoutMeasurePerNode = 4'000;
constexpr uint64_t kScaleoutWarmupPerNode = 2'000;

Grid WarmScaleout(uint64_t seed) {
  Grid g;
  g.shootout_scale = true;
  const uint32_t nodes[] = {256, 1024};
  uint64_t k = 0;
  for (WorkloadKind w : {WorkloadKind::kOltp, WorkloadKind::kDss}) {
    for (uint32_t n : nodes) {
      g.sets.push_back(SetOf(w, n, w == WorkloadKind::kOltp ? 2 : 1,
                             TraceSeed(seed, ++k)));
    }
  }
  for (size_t s = 0; s < g.sets.size(); ++s) {
    const uint32_t n = g.sets[s].clients;
    for (Topology topo : {Topology::kSmpPrivate, Topology::kCmpShared}) {
      CellDef c;
      c.set = s;
      c.exp.camp = Camp::kFat;
      c.exp.topology = topo;
      c.exp.cores = n;
      c.exp.saturated = true;
      c.exp.smp_bus_model = true;
      c.exp.measure_instructions = kScaleoutMeasurePerNode * n;
      c.exp.warmup_instructions = kScaleoutWarmupPerNode * n;
      if (topo == Topology::kSmpPrivate) {
        c.exp.l2_bytes = 256ull << 10;  // per node
        c.label = SetLabel(g.sets[s]) + "/SMP" + std::to_string(n) + "-256KB";
      } else {
        c.exp.l2_bytes = 16ull << 20;
        c.exp.l2_ports = std::max(8u, n / 4);
        c.label = SetLabel(g.sets[s]) + "/CMP" + std::to_string(n) + "-16MB";
      }
      g.cells.push_back(c);
    }
  }
  return g;
}

bool MakeGrid(const std::string& name, uint64_t seed, Grid* out) {
  if (name == "cold_mixed") {
    *out = ColdMixed(seed);
  } else if (name == "warm_paper") {
    *out = WarmPaper(seed);
  } else if (name == "warm_scaleout") {
    *out = WarmScaleout(seed);
  } else {
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------
// Runs body(t) for t in [0, threads) on fresh threads (never the main
// one) and rethrows the first exception once every thread has joined.

void RunOnThreads(size_t threads, const std::function<void(size_t)>& body) {
  std::vector<std::exception_ptr> errors(threads);
  std::vector<std::thread> pool;
  for (size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      try {
        body(t);
      } catch (...) {
        errors[t] = std::current_exception();
      }
    });
  }
  for (std::thread& t : pool) t.join();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

// ---------------------------------------------------------------------
// Set-up phases.

/// Builds every set in its own WorkloadWorld, timing the database load
/// apart from trace generation (the world loads lazily, so asking for
/// the tenant-A database first isolates its load; a co-run's tenant-B
/// database loads inside Build and counts as generation).
///
/// Staged-cohort DSS skeletons depend on heap placement (packet buffers
/// are not line-aligned; see README.md), so the sets are dealt to the
/// threads in a fixed order and every pass repeats one allocation history.
std::vector<TraceSet> BuildSets(const WorkloadFactory& factory,
                                const std::vector<TraceSetConfig>& configs,
                                SpanLog* log, int parent) {
  std::vector<TraceSet> sets(configs.size());
  auto build = [&](size_t i) {
    stagedcmp::harness::WorkloadWorld world(
        factory.tpcc_config, factory.tpch_config, factory.ycsb_config);
    {
      Scope load(log, "harness.db_load", parent, static_cast<int>(i));
      switch (configs[i].workload) {
        case WorkloadKind::kOltp: world.oltp_db(); break;
        case WorkloadKind::kDss: world.dss_db(); break;
        case WorkloadKind::kYcsb: world.ycsb_db(); break;
      }
      load.set_work(1);
    }
    Scope gen(log, "harness.trace_gen", parent, static_cast<int>(i));
    sets[i] = world.Build(configs[i]);
    gen.set_work(sets[i].total_events);
  };
  const size_t n = std::min<size_t>(kThreads, configs.size());
  RunOnThreads(n, [&](size_t t) {
    for (size_t i = t; i < configs.size(); i += n) build(i);
  });
  return sets;
}

bool WriteBundle(const std::string& path, const WorkloadFactory& factory,
                 const std::vector<TraceSet>& sets, SpanLog* log,
                 int parent) {
  std::vector<const TraceSet*> ptrs;
  for (const TraceSet& s : sets) ptrs.push_back(&s);
  Scope span(log, "sweep.bundle_write", parent);
  const bool ok = sweep::SaveTraceBundle(path, factory, ptrs);
  const int64_t bytes = sweep::BundleFileBytes(path);
  span.set_work(bytes > 0 ? static_cast<uint64_t>(bytes) : 0);
  return ok;
}

/// Opens and verifies `path`; false (with a message) unless every set is
/// served from the file with its payload checksums intact.
bool OpenBundle(const std::string& path, const WorkloadFactory& factory,
                const std::vector<TraceSetConfig>& configs, SpanLog* log,
                int parent, std::vector<TraceSet>* sets) {
  const int64_t bytes = sweep::BundleFileBytes(path);
  sweep::BundleOpenResult opened;
  {
    Scope span(log, "sweep.bundle_open", parent);
    span.set_work(bytes > 0 ? static_cast<uint64_t>(bytes) : 0);
    opened = sweep::OpenTraceBundle(path, factory, configs);
  }
  if (opened.mode == "cold") {
    std::fprintf(stderr, "bundle %s does not match this workload\n",
                 path.c_str());
    return false;
  }
  if (opened.mode == "mmap") {
    for (size_t i = 0; i < opened.sets.size(); ++i) {
      Scope span(log, "sweep.bundle_verify", parent, static_cast<int>(i));
      if (!sweep::VerifyBundleSet(opened.sets[i], opened.checksums[i])) {
        std::fprintf(stderr, "bundle %s: set %zu fails its checksum\n",
                     path.c_str(), i);
        return false;
      }
      span.set_work(PayloadBytes(opened.sets[i]));
    }
  }
  *sets = std::move(opened.sets);
  return true;
}

// ---------------------------------------------------------------------
// Checks and fingerprints.

uint64_t Fnv(uint64_t h, const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

template <typename T>
uint64_t FnvValue(uint64_t h, const T& v) {
  return Fnv(h, &v, sizeof(v));
}

/// Hash of every simulated field of a result (bit patterns, so doubles
/// must match exactly).
uint64_t Fingerprint(const SimResult& r) {
  uint64_t h = 1469598103934665603ull;
  h = FnvValue(h, r.instructions);
  h = FnvValue(h, r.elapsed_cycles);
  h = Fnv(h, r.breakdown.cycles.data(),
          sizeof(double) * r.breakdown.cycles.size());
  h = FnvValue(h, r.requests_completed);
  h = FnvValue(h, r.avg_response_cycles);
  h = FnvValue(h, r.events_replayed);
  h = FnvValue(h, r.l1d_hit_rate);
  h = FnvValue(h, r.l1i_hit_rate);
  h = FnvValue(h, r.l2_hit_rate);
  h = Fnv(h, r.mem.data_count, sizeof(r.mem.data_count));
  h = Fnv(h, r.mem.instr_count, sizeof(r.mem.instr_count));
  h = FnvValue(h, r.mem.l1_to_l1_transfers);
  h = FnvValue(h, r.mem.invalidations);
  h = FnvValue(h, r.mem.writebacks);
  h = FnvValue(h, r.mem.queue_delay.count());
  h = FnvValue(h, r.mem.queue_delay.mean());
  h = FnvValue(h, r.mem.bus_transactions);
  h = FnvValue(h, r.mem.bus_busy_cycles);
  h = FnvValue(h, r.mem.bus_peak_queue);
  return h;
}

struct CellRun {
  SimResult result;
  std::vector<std::string> failures;
};

void CheckCell(const CellDef& def, CellRun* run) {
  const SimResult& r = run->result;
  auto fail = [run](const std::string& why) { run->failures.push_back(why); };
  // The engine stops after the first step that takes the total past the
  // window; one step runs each context of one core for at most one event,
  // so the total overshoots by less than one event per context. The
  // result floors each core's count, losing under one instruction per
  // core.
  const uint64_t window = def.exp.measure_instructions;
  const uint64_t below = def.exp.cores;
  const uint64_t above =
      uint64_t{stagedcmp::harness::MakeCoreParams(def.exp.camp).contexts} *
      (trace::kMaxEventCount + 1);
  if (r.instructions + below < window || r.instructions > window + above) {
    fail("committed " + std::to_string(r.instructions) +
         " instructions, window is " +
         std::to_string(def.exp.measure_instructions));
  }
  const double total = r.breakdown.total();
  double fractions = 0.0;
  for (size_t b = 0; b < static_cast<size_t>(Bucket::kCount); ++b) {
    if (r.breakdown.cycles[b] < 0.0) fail("negative breakdown bucket");
    fractions += r.breakdown.Fraction(static_cast<Bucket>(b));
  }
  if (!(total > 0.0) || std::fabs(fractions - 1.0) > 1e-9) {
    fail("breakdown fractions sum to " + std::to_string(fractions));
  }
  if (!(r.uipc() > 0.0) || !std::isfinite(r.uipc())) fail("uIPC not > 0");
  if (def.exp.topology == Topology::kCmpShared &&
      (r.breakdown.Get(Bucket::kDStallCoh) != 0.0 ||
       r.mem.data_count[static_cast<int>(AccessClass::kCoherence)] != 0)) {
    fail("coherence stalls on a CMP cell");
  }
}

/// warm_scaleout grid invariants, per workload: the SMP bus queue grows
/// from 256 to 1024 nodes, the CMP's banked L2 queue stays flat, and the
/// CMP's uIPC is at least the SMP's at matched node counts.
void CheckScaleout(const Grid& g, std::vector<CellRun>* runs) {
  auto find = [&](WorkloadKind w, Topology topo, uint32_t n) -> size_t {
    for (size_t i = 0; i < g.cells.size(); ++i) {
      const CellDef& c = g.cells[i];
      if (g.sets[c.set].workload == w && c.exp.topology == topo &&
          c.exp.cores == n) {
        return i;
      }
    }
    std::fprintf(stderr, "scaleout grid lacks a cell\n");
    std::abort();
  };
  auto queue = [&](size_t i) {
    return (*runs)[i].result.mem.queue_delay.mean();
  };
  for (WorkloadKind w : {WorkloadKind::kOltp, WorkloadKind::kDss}) {
    const std::string wl = KindLabel(w);
    const size_t smp256 = find(w, Topology::kSmpPrivate, 256);
    const size_t smp1024 = find(w, Topology::kSmpPrivate, 1024);
    const size_t cmp256 = find(w, Topology::kCmpShared, 256);
    const size_t cmp1024 = find(w, Topology::kCmpShared, 1024);
    if (!(queue(smp1024) > queue(smp256))) {
      const std::string why = wl + ": SMP queue delay does not rise";
      (*runs)[smp256].failures.push_back(why);
      (*runs)[smp1024].failures.push_back(why);
    }
    // Flat next to the bus: the banked L2's queue may grow a little with
    // the tile count, but by under a tenth of the SMP bus queue's growth.
    if (queue(cmp1024) - queue(cmp256) >
        0.1 * (queue(smp1024) - queue(smp256))) {
      const std::string why = wl + ": CMP queue delay is not flat";
      (*runs)[cmp256].failures.push_back(why);
      (*runs)[cmp1024].failures.push_back(why);
    }
    for (auto [smp, cmp] : {std::pair{smp256, cmp256},
                            std::pair{smp1024, cmp1024}}) {
      if ((*runs)[cmp].result.uipc() < (*runs)[smp].result.uipc()) {
        const std::string why = wl + ": CMP uIPC below SMP uIPC";
        (*runs)[smp].failures.push_back(why);
        (*runs)[cmp].failures.push_back(why);
      }
    }
  }
}

// ---------------------------------------------------------------------
// Modelled counters (simulated, not host, numbers).

struct Modelled {
  double uipc_sum = 0.0;
  double l1d_sum = 0.0;
  double l2_sum = 0.0;
  uint64_t runs = 0;
  uint64_t instructions = 0;
  double cycles = 0.0;
  uint64_t offchip = 0;
  uint64_t invalidations = 0;
  uint64_t bus_transactions = 0;
  uint64_t bus_busy_cycles = 0;
  uint64_t bus_peak_queue = 0;

  void Add(const SimResult& r) {
    ++runs;
    uipc_sum += r.uipc();
    l1d_sum += r.l1d_hit_rate;
    l2_sum += r.l2_hit_rate;
    instructions += r.instructions;
    cycles += r.breakdown.total();
    offchip += r.mem.data_count[static_cast<int>(AccessClass::kOffChip)] +
               r.mem.instr_count[static_cast<int>(AccessClass::kOffChip)];
    invalidations += r.mem.invalidations;
    bus_transactions += r.mem.bus_transactions;
    bus_busy_cycles += r.mem.bus_busy_cycles;
    bus_peak_queue = std::max(bus_peak_queue, r.mem.bus_peak_queue);
  }
  void Print(FILE* f) const {
    const double n = static_cast<double>(std::max<uint64_t>(runs, 1));
    const double instr =
        static_cast<double>(std::max<uint64_t>(instructions, 1));
    std::fprintf(f,
                 "{\"coresim.uipc\": %.17g, \"coresim.cpi\": %.17g, "
                 "\"memsim.l1d_hit_rate\": %.17g, "
                 "\"memsim.l2_hit_rate\": %.17g, "
                 "\"memsim.offchip_per_kinstr\": %.17g, "
                 "\"memsim.invalidations\": %" PRIu64 ", "
                 "\"memsim.bus.transactions\": %" PRIu64 ", "
                 "\"memsim.bus.busy_cycles\": %" PRIu64 ", "
                 "\"memsim.bus.peak_queue_cycles\": %" PRIu64 "}",
                 uipc_sum / n, cycles / instr, l1d_sum / n, l2_sum / n,
                 1000.0 * static_cast<double>(offchip) / instr, invalidations,
                 bus_transactions, bus_busy_cycles, bus_peak_queue);
  }
};

// ---------------------------------------------------------------------
// Layer probe.

/// Feeds `events` trace events of `set` straight into `h`, with the
/// replay engine's client placement (client i on core i % cores) and its
/// I-fetch walk (every code line a compute run or access covers, a line
/// fetched once per run), one event per client in turn. Returns the
/// number of hierarchy accesses made.
uint64_t DriveHierarchy(stagedcmp::memsim::MemoryHierarchy* h,
                        const TraceSet& set, uint32_t cores,
                        uint32_t instr_bytes, uint64_t events) {
  const auto& clients = set.Pointers();
  const uint64_t line = h->config().l2.line_bytes;
  struct Cursor {
    uint64_t pos = 0;
    uint64_t pc = 0;
    uint64_t next_line = 0;
  };
  std::vector<Cursor> cur(clients.size());
  uint64_t now = 0;
  uint64_t accesses = 0;
  auto fetch = [&](uint32_t core, Cursor& c, uint32_t instrs) {
    const uint64_t end = c.pc + uint64_t{instr_bytes} * instrs;
    const uint64_t last = (end == c.pc ? c.pc : end - 1) / line;
    for (uint64_t l = c.pc / line; l <= last; ++l) {
      if (l + 1 == c.next_line) continue;
      h->AccessInstr(core, l * line, now++);
      c.next_line = l + 1;
      ++accesses;
    }
    c.pc = end;
  };
  for (uint64_t done = 0; done < events;) {
    for (size_t i = 0; i < clients.size() && done < events; ++i) {
      const trace::ClientTrace* tr = clients[i];
      if (tr->empty()) continue;
      Cursor& c = cur[i];
      const uint64_t ev = tr->events_data()[c.pos];
      c.pos = (c.pos + 1) % tr->events_size();
      ++done;
      const uint32_t core = static_cast<uint32_t>(i % cores);
      switch (trace::UnpackKind(ev)) {
        case trace::EventKind::kCompute:
          c.pc = trace::UnpackAddr(ev);
          fetch(core, c, trace::UnpackCount(ev));
          break;
        case trace::EventKind::kRead:
        case trace::EventKind::kWrite:
          fetch(core, c, std::max<uint32_t>(1, trace::UnpackCount(ev)));
          h->AccessData(core, trace::UnpackAddr(ev),
                        trace::UnpackKind(ev) == trace::EventKind::kWrite,
                        now++);
          ++accesses;
          break;
        case trace::EventKind::kMarker:
          break;
      }
    }
  }
  return accesses;
}

constexpr uint64_t kProbeInstructions = 4'000'000;

/// Probe machines: the CMP at each node count the per-layer ledger
/// tracks, plus the paper's 4-node SMP with the bus model on.
struct ProbeMachine {
  Topology topology;
  uint32_t nodes;
  const char* replay_span;
  const char* build_span;  // constructing the memsim-only hierarchy
  const char* drive_span;
};
constexpr ProbeMachine kProbeMachines[] = {
    {Topology::kCmpShared, 4, "coresim.probe_replay.cmp.n4",
     "memsim.build.cmp.n4", "memsim.drive.cmp.n4"},
    {Topology::kCmpShared, 16, "coresim.probe_replay.cmp.n16",
     "memsim.build.cmp.n16", "memsim.drive.cmp.n16"},
    {Topology::kCmpShared, 256, "coresim.probe_replay.cmp.n256",
     "memsim.build.cmp.n256", "memsim.drive.cmp.n256"},
    {Topology::kCmpShared, 1024, "coresim.probe_replay.cmp.n1024",
     "memsim.build.cmp.n1024", "memsim.drive.cmp.n1024"},
    {Topology::kSmpPrivate, 4, "coresim.probe_replay.smp.n4",
     "memsim.build.smp.n4", "memsim.drive.smp.n4"},
};

/// Replays `set` on each probe machine, then builds a fresh copy of its
/// hierarchy and drives the replay's event count into it. Span work:
/// events for the replay, accesses for the drive.
void RunProbe(const TraceSet& set, SpanLog* log, int parent,
              Modelled* modelled) {
  for (const ProbeMachine& m : kProbeMachines) {
    ExperimentConfig exp;
    exp.camp = Camp::kFat;
    exp.saturated = true;
    exp.measure_instructions = kProbeInstructions;
    exp.warmup_instructions = 0;
    exp.topology = m.topology;
    exp.cores = m.nodes;
    if (m.topology == Topology::kCmpShared) {
      exp.l2_bytes = 16ull << 20;
      exp.l2_ports = std::max(8u, m.nodes / 4);
    } else {
      exp.l2_bytes = 4ull << 20;
      exp.smp_bus_model = true;
    }
    SimResult r;
    {
      Scope span(log, m.replay_span, parent);
      r = stagedcmp::harness::RunExperiment(exp, set);
      span.set_work(r.events_replayed);
    }
    modelled->Add(r);
    std::unique_ptr<stagedcmp::memsim::MemoryHierarchy> h;
    {
      Scope build(log, m.build_span, parent);
      const stagedcmp::memsim::HierarchyConfig hc =
          stagedcmp::harness::MakeHierarchyConfig(exp);
      h = m.topology == Topology::kCmpShared
              ? stagedcmp::memsim::MakeCmpHierarchy(hc)
              : stagedcmp::memsim::MakeSmpHierarchy(hc);
    }
    Scope drive(log, m.drive_span, parent);
    drive.set_work(DriveHierarchy(
        h.get(), set, m.nodes,
        stagedcmp::harness::MakeCoreParams(exp.camp).instr_bytes,
        r.events_replayed));
  }
}

// ---------------------------------------------------------------------

void PrintSets(FILE* f, const std::vector<TraceSet>& sets) {
  std::fprintf(f, "[");
  for (size_t i = 0; i < sets.size(); ++i) {
    std::fprintf(f,
                 "%s{\"label\": \"%s\", \"events\": %" PRIu64
                 ", \"instructions\": %" PRIu64 ", \"bytes\": %" PRIu64 "}",
                 i ? ", " : "", SetLabel(sets[i].config).c_str(),
                 sets[i].total_events, sets[i].total_instructions,
                 PayloadBytes(sets[i]));
  }
  std::fprintf(f, "]");
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload cold_mixed|warm_paper|warm_scaleout "
               "--seed N --out-dir DIR [--bundle PATH] [--prepare] "
               "[--trace]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string out_dir;
  std::string bundle;
  uint64_t seed = 0;
  bool have_seed = false;
  bool prepare = false;
  bool traced = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--prepare") {
      prepare = true;
    } else if (arg == "--trace") {
      traced = true;
    } else if ((arg == "--workload" || arg == "--out-dir" ||
                arg == "--bundle" || arg == "--seed") &&
               (v = value()) != nullptr) {
      if (arg == "--workload") workload = v;
      if (arg == "--out-dir") out_dir = v;
      if (arg == "--bundle") bundle = v;
      if (arg == "--seed") {
        char* end = nullptr;
        seed = std::strtoull(v, &end, 10);
        have_seed = *v != '\0' && *end == '\0';
        if (!have_seed) return Usage(argv[0]);
      }
    } else {
      return Usage(argv[0]);
    }
  }
  Grid grid;
  if (!have_seed || !MakeGrid(workload, seed, &grid) ||
      (prepare ? bundle.empty() : out_dir.empty())) {
    return Usage(argv[0]);
  }

  WorkloadFactory factory;
  if (grid.shootout_scale) sweep::ConfigureFactoryForSpec("shootout", &factory);

  if (prepare) {
    std::vector<TraceSet> sets =
        BuildSets(factory, grid.sets, nullptr, -1);
    if (!WriteBundle(bundle, factory, sets, nullptr, -1)) {
      std::fprintf(stderr, "cannot write bundle %s\n", bundle.c_str());
      return 1;
    }
    std::printf("{\"sets\": ");
    PrintSets(stdout, sets);
    std::printf("}\n");
    return 0;
  }

  SpanLog spans;
  SpanLog* log = traced ? &spans : nullptr;
  Scope pass(log, "pass", -1);

  // Set-up: every trace set ready.
  const bool cold = bundle.empty();
  const std::string written = out_dir + "/bundle";
  std::vector<TraceSet> sets;
  {
    Scope setup(log, "setup", pass.id());
    if (cold) {
      sets = BuildSets(factory, grid.sets, log, setup.id());
      if (!WriteBundle(written, factory, sets, log, setup.id())) {
        std::fprintf(stderr, "cannot write bundle %s\n", written.c_str());
        return 1;
      }
    } else if (!OpenBundle(bundle, factory, grid.sets, log, setup.id(),
                           &sets)) {
      return 1;
    }
  }
  // A set's client-pointer cache fills on first use and must not fill
  // concurrently (harness/experiment.h); bundle-served sets arrive cold.
  for (const TraceSet& s : sets) s.Pointers();
  const double setup_s = Since(kProcessStart);

  // Replay: workers claim cells in a fixed order. SMP cells come first:
  // their private L2s make the largest hierarchies, and starting them
  // together keeps the memory high-water mark from depending on which
  // cell finishes first. Then the largest cells, so no long one starts
  // last while the other workers idle. A cell's size is the events in its
  // window times a per-event cost that grows with the node count (the
  // replay engine scans every core to pick the next one: about 2x the
  // 4-core cost at 64 nodes, 15x at 1024).
  std::vector<std::pair<bool, double>> rank(grid.cells.size());
  std::vector<size_t> order(grid.cells.size());
  for (size_t i = 0; i < order.size(); ++i) {
    const ExperimentConfig& e = grid.cells[i].exp;
    const TraceSet& set = sets[grid.cells[i].set];
    rank[i] = {e.topology == Topology::kSmpPrivate,
               static_cast<double>(e.measure_instructions +
                                   e.warmup_instructions) *
                   static_cast<double>(set.total_events) /
                   static_cast<double>(
                       std::max<uint64_t>(set.total_instructions, 1)) *
                   (1.0 + e.cores / 64.0)};
    order[i] = i;
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return rank[a] > rank[b]; });
  std::vector<CellRun> runs(grid.cells.size());
  const Clock::time_point replay_start = Clock::now();
  {
    Scope replay(log, "replay", pass.id());
    std::atomic<size_t> next{0};
    RunOnThreads(std::min<size_t>(kThreads, order.size()), [&](size_t) {
      for (size_t k; (k = next.fetch_add(1)) < order.size();) {
        const size_t i = order[k];
        const CellDef& def = grid.cells[i];
        Scope span(log, "coresim.run_experiment", replay.id(),
                   static_cast<int>(i));
        runs[i].result =
            stagedcmp::harness::RunExperiment(def.exp, sets[def.set]);
        span.set_work(runs[i].result.events_replayed);
      }
    });
  }
  const double replay_s = Since(replay_start);

  // Results through the sweep JSON sink.
  {
    Scope span(log, "sweep.sink_emit", pass.id());
    sweep::SweepReport report;
    report.spec_name = workload;
    report.axis_names = {"cell"};
    report.threads = kThreads;
    for (size_t i = 0; i < grid.cells.size(); ++i) {
      const CellDef& def = grid.cells[i];
      sweep::CellResult cr;
      cr.cell.index = i;
      cr.cell.values = {def.label};
      cr.cell.trace = grid.sets[def.set];
      cr.cell.exp = def.exp;
      cr.result = runs[i].result;
      cr.hw.cores = def.exp.cores;
      cr.hw.l2_hit_cycles =
          stagedcmp::harness::MakeHierarchyConfig(def.exp).lat.l2_hit;
      cr.hw.contexts_per_core =
          stagedcmp::harness::MakeCoreParams(def.exp.camp).contexts;
      cr.trace_total_instructions = sets[def.set].total_instructions;
      cr.trace_total_events = sets[def.set].total_events;
      report.cells.push_back(std::move(cr));
    }
    std::ofstream os(out_dir + "/results.json");
    sweep::JsonSink(/*include_timing=*/false).Emit(report, os);
    os.close();
    if (!os) {
      std::fprintf(stderr, "cannot write %s/results.json\n", out_dir.c_str());
      return 1;
    }
  }
  const double wall_s = Since(kProcessStart);
  pass.End();

  for (size_t i = 0; i < grid.cells.size(); ++i) {
    CheckCell(grid.cells[i], &runs[i]);
  }
  if (workload == "warm_scaleout") CheckScaleout(grid, &runs);

  Modelled modelled;
  for (const CellRun& r : runs) modelled.Add(r.result);

  // Traced passes: the layer probe, after the results are written.
  std::vector<TraceSet> probe_sets;
  if (traced) {
    Scope probe(log, "probe", -1);
    bool ok = true;
    if (cold) {
      ok = OpenBundle(written, factory, grid.sets, log, probe.id(),
                      &probe_sets);
    } else {
      probe_sets = BuildSets(factory, grid.sets, log, probe.id());
      ok = WriteBundle(out_dir + "/rebuilt.bundle", factory, probe_sets, log,
                       probe.id());
    }
    if (!ok) return 1;
    RunProbe(sets[0], log, probe.id(), &modelled);
  }

  uint64_t sim_instructions = 0;
  uint64_t failed = 0;
  for (const CellDef& c : grid.cells) {
    sim_instructions += c.exp.measure_instructions + c.exp.warmup_instructions;
  }
  std::printf("{\"workload\": \"%s\", \"seed\": %" PRIu64
              ", \"mode\": \"%s\", \"wall_s\": %.9f, "
              "\"setup_s\": %.9f, \"replay_s\": %.9f, "
              "\"sim_instructions\": %" PRIu64 ", \"sets\": ",
              workload.c_str(), seed, cold ? "cold" : "warm",
              wall_s, setup_s, replay_s, sim_instructions);
  PrintSets(stdout, sets);
  if (traced) {
    std::printf(", \"probe_sets\": ");
    PrintSets(stdout, probe_sets);
  }
  std::printf(", \"cells\": [");
  for (size_t i = 0; i < runs.size(); ++i) {
    const CellDef& def = grid.cells[i];
    std::printf("%s{\"label\": \"%s\", \"set\": %zu, \"fingerprint\": "
                "\"%016" PRIx64 "\", \"failures\": [",
                i ? ", " : "", def.label.c_str(), def.set,
                Fingerprint(runs[i].result));
    for (size_t j = 0; j < runs[i].failures.size(); ++j) {
      std::printf("%s\"%s\"", j ? ", " : "", runs[i].failures[j].c_str());
    }
    std::printf("]}");
    if (!runs[i].failures.empty()) ++failed;
  }
  std::printf("], \"failed_cells\": %" PRIu64 ", \"modelled\": ", failed);
  modelled.Print(stdout);
  std::printf("}\n");
  std::fflush(stdout);

  if (traced && !spans.Write(out_dir + "/spans.json")) {
    std::fprintf(stderr, "cannot write %s/spans.json\n", out_dir.c_str());
    return 1;
  }
  return 0;
}
