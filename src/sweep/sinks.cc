#include "sweep/sinks.h"

#include <cmath>
#include <cstdio>
#include <ostream>
#include <sstream>
#include <thread>
#include <vector>

#ifdef __unix__
#include <unistd.h>
#endif

#include "common/json.h"
#include "common/table_printer.h"
#include "coresim/breakdown.h"
#include "sweep/builtin_specs.h"

namespace stagedcmp::sweep {

const char* EngineModeName(harness::EngineMode e) {
  switch (e) {
    case harness::EngineMode::kVolcano: return "volcano";
    case harness::EngineMode::kStagedCohort: return "staged-cohort";
    case harness::EngineMode::kStagedTuple: return "staged-tuple";
  }
  return "?";
}

const char* LatencyModeName(harness::LatencyMode m) {
  return m == harness::LatencyMode::kRealistic ? "realistic" : "fixed4";
}

const char* TopologyName(harness::Topology t) {
  return t == harness::Topology::kCmpShared ? "cmp-shared" : "smp-private";
}

void EmitCellConfigJson(const CellResult& cr, std::ostream& os, int indent) {
  const harness::TraceSetConfig& tc = cr.cell.trace;
  const harness::ExperimentConfig& ec = cr.cell.exp;
  JsonObj o(os, indent);
  o.Str("workload", harness::WorkloadName(tc.workload));
  o.Int("clients", tc.clients);
  o.Int("requests_per_client", tc.requests_per_client);
  o.Int("seed", tc.seed);
  o.Str("engine", EngineModeName(tc.engine));
  // Traffic shaping and tenancy: emitted only when non-default, so the
  // committed goldens of pre-existing specs keep their historical bytes.
  const workload::TrafficConfig& tr = tc.traffic;
  if (tr.shapes_keys()) {
    o.Str("key_dist", workload::KeyDistName(tr.key_dist));
    o.Num("zipf_theta", tr.zipf_theta);
    if (tr.key_dist == workload::KeyDist::kHotRotate) {
      o.Int("hot_rotate_period", tr.hot_rotate_period);
    }
  }
  if (tr.shapes_arrival()) {
    o.Str("arrival", workload::ArrivalShapeName(tr.arrival));
    if (tr.arrival == workload::ArrivalShape::kOnOffBurst) {
      o.Int("burst_on", tr.burst_on);
      o.Int("burst_off", tr.burst_off);
    }
    o.Int("think_instructions", tr.think_instructions);
  }
  if (tc.tenant2_clients > 0) {
    o.Str("tenant2_workload", harness::WorkloadName(tc.tenant2_workload));
    o.Int("tenant2_clients", tc.tenant2_clients);
  }
  // Same conditional-emission rule for the SMP bus model: only cells
  // that opt in (shootout) carry the knob, so pre-existing goldens keep
  // their historical bytes.
  if (ec.smp_bus_model) o.Bool("smp_bus_model", ec.smp_bus_model);
  o.Str("camp", coresim::CampName(ec.camp));
  o.Int("cores", ec.cores);
  o.Int("l2_bytes", ec.l2_bytes);
  o.Str("latency", LatencyModeName(ec.latency));
  o.Str("topology", TopologyName(ec.topology));
  o.Bool("saturated", ec.saturated);
  o.Int("measure_instructions", ec.measure_instructions);
  o.Int("warmup_instructions", ec.warmup_instructions);
  o.Bool("stream_buffers", ec.stream_buffers);
  o.Int("l2_ports", ec.l2_ports);
  o.Int("memory_latency", ec.memory_latency);
  o.Int("fixed_l2_latency", ec.fixed_l2_latency);
  o.Int("l2_hit_cycles", cr.hw.l2_hit_cycles);
  o.Int("contexts_per_core", cr.hw.contexts_per_core);
  o.Close();
}

namespace {

void EmitCellMetrics(const CellResult& cr, std::ostream& os, int indent) {
  const coresim::SimResult& r = cr.result;
  JsonObj o(os, indent);
  o.Int("instructions", r.instructions);
  o.Int("elapsed_cycles", r.elapsed_cycles);
  o.Num("cpi", r.cpi());
  o.Num("uipc", r.uipc());
  o.Num("l1d_hit_rate", r.l1d_hit_rate);
  o.Num("l1i_hit_rate", r.l1i_hit_rate);
  o.Num("l2_hit_rate", r.l2_hit_rate);
  o.Int("requests_completed", r.requests_completed);
  o.Num("avg_response_cycles", r.avg_response_cycles);
  {
    std::ostringstream sub;
    JsonObj c(sub, indent + 2);
    for (int b = 0; b < static_cast<int>(coresim::Bucket::kCount); ++b) {
      const auto bucket = static_cast<coresim::Bucket>(b);
      c.Num(coresim::BucketName(bucket), r.CpiComponent(bucket));
    }
    c.Close();
    o.Field("cpi_components", sub.str());
  }
  o.Num("queue_delay_mean", r.mem.queue_delay.mean());
  o.Int("l1_to_l1_transfers", r.mem.l1_to_l1_transfers);
  o.Int("invalidations", r.mem.invalidations);
  o.Int("writebacks", r.mem.writebacks);
  // Shared-bus occupancy, present only on cells that enable the SMP bus
  // model (keyed off the config, not the result, so deterministic bytes
  // of every other spec are untouched).
  if (cr.cell.exp.smp_bus_model &&
      cr.cell.exp.topology == harness::Topology::kSmpPrivate) {
    std::ostringstream sub;
    JsonObj b(sub, indent + 2);
    b.Int("transactions", r.mem.bus_transactions);
    b.Int("busy_cycles", r.mem.bus_busy_cycles);
    b.Int("peak_queue_delay", r.mem.bus_peak_queue);
    b.Close();
    o.Field("bus", sub.str());
  }
  // Multi-tenant attribution, present only on cells that set a tenant
  // boundary (SimConfig::tenant_a_clients).
  if (r.num_tenants > 0) {
    std::ostringstream sub;
    sub << "[";
    for (uint32_t t = 0; t < r.num_tenants; ++t) {
      const coresim::TenantStats& ts = r.tenants[t];
      sub << (t ? ",\n" : "\n") << JsonObj::Pad(indent + 4);
      JsonObj tn(sub, indent + 4);
      tn.Int("instructions", ts.instructions);
      tn.Int("requests", ts.requests);
      tn.Int("data_accesses", ts.data_accesses());
      tn.Num("data_offchip_rate", ts.data_offchip_rate());
      tn.Close();
    }
    sub << "\n" << JsonObj::Pad(indent + 2) << "]";
    o.Field("tenants", sub.str());
  }
  o.Close();
}

/// Execution-environment fingerprint for perf summaries: enough to tell
/// two BENCH trajectory points apart when they came from different
/// machines or build flavors. Build knobs arrive as compile definitions
/// (src/sweep/CMakeLists.txt); everything degrades to "unknown".
void EmitEnvironment(std::ostream& os, int indent) {
  std::string hostname = "unknown";
#ifdef __unix__
  char buf[256] = {0};
  if (gethostname(buf, sizeof(buf) - 1) == 0 && buf[0] != '\0') {
    hostname = buf;
  }
#endif
  JsonObj o(os, indent);
  o.Str("hostname", hostname);
  o.Int("hardware_concurrency", std::thread::hardware_concurrency());
#ifdef STAGEDCMP_BUILD_TYPE
  o.Str("build_type", STAGEDCMP_BUILD_TYPE);
#else
  o.Str("build_type", "unknown");
#endif
#if defined(STAGEDCMP_NATIVE_BUILD) && STAGEDCMP_NATIVE_BUILD
  o.Bool("native", true);
#else
  o.Bool("native", false);
#endif
  o.Close();
}

}  // namespace

void TableSink::Emit(const SweepReport& report, std::ostream& os) const {
  // Hardware context columns, skipped when a same-named axis already
  // carries the information (e.g. fig8's "cores", fig6's "l2").
  auto has_axis = [&](const char* name) {
    for (const std::string& a : report.axis_names) {
      if (a == name) return true;
    }
    return false;
  };
  const bool want_cores = !has_axis("cores");
  const bool want_l2 = !has_axis("l2");

  std::vector<std::string> header{"#"};
  for (const std::string& a : report.axis_names) header.push_back(a);
  if (want_cores) header.emplace_back("cores");
  if (want_l2) header.emplace_back("L2");
  for (const char* m : {"CPI", "UIPC", "L2 hit", "comp", "I-stall",
                        "D-stall", "coh", "other", "queue"}) {
    header.emplace_back(m);
  }
  TablePrinter table(std::move(header));
  for (const CellResult& cr : report.cells) {
    const coresim::SimResult& r = cr.result;
    std::vector<std::string> row{std::to_string(cr.cell.index)};
    for (const std::string& v : cr.cell.values) row.push_back(v);
    if (want_cores) row.push_back(std::to_string(cr.cell.exp.cores));
    if (want_l2) {
      // Sub-MB caches (the per-node SMP L2s) would round to "0MB".
      const uint64_t l2 = cr.cell.exp.l2_bytes;
      row.push_back(l2 >= (1ull << 20) ? std::to_string(l2 >> 20) + "MB"
                                       : std::to_string(l2 >> 10) + "KB");
    }
    row.push_back(TablePrinter::Num(r.cpi(), 2));
    row.push_back(TablePrinter::Num(r.uipc(), 2));
    row.push_back(TablePrinter::Pct(r.l2_hit_rate));
    const double n = r.instructions ? static_cast<double>(r.instructions) : 1;
    row.push_back(TablePrinter::Num(r.breakdown.computation() / n, 2));
    row.push_back(TablePrinter::Num(r.breakdown.i_stalls() / n, 2));
    row.push_back(TablePrinter::Num(r.breakdown.d_stalls() / n, 2));
    row.push_back(
        TablePrinter::Num(r.CpiComponent(coresim::Bucket::kDStallCoh), 3));
    row.push_back(TablePrinter::Num(r.breakdown.other() / n, 2));
    row.push_back(TablePrinter::Num(r.mem.queue_delay.mean(), 1));
    table.AddRow(std::move(row));
  }
  os << "sweep '" << report.spec_name << "': " << report.cells.size()
     << " cells\n";
  table.Print(os);
  if (include_timing_) {
    // Trace building overlaps the simulation pipeline, so the
    // components are not additive.
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%llu trace sets, %u threads | trace-build %.2fs "
                  "(overlapped) | wall %.2fs (%.2f cells/sec)\n",
                  static_cast<unsigned long long>(report.trace_sets_built),
                  report.threads, report.build_wall_seconds,
                  report.wall_seconds, report.cells_per_second());
    os << buf;
    // Cache/pool health, present when the run collected metrics. Lives
    // with the timing footer: like the timings it describes this
    // execution, not the spec.
    if (report.has_metrics) {
      const MetricsSnapshot& m = report.metrics;
      const MetricsSnapshot::GaugeValue* q =
          m.FindGauge("build_pool.queue_depth");
      std::snprintf(
          buf, sizeof(buf),
          "cache %llu hits / %llu misses / %llu rendezvous"
          " | build pool %llu tasks (peak queue %lld)"
          " | replay %llu events\n",
          static_cast<unsigned long long>(m.CounterOr("trace_cache.hits", 0)),
          static_cast<unsigned long long>(
              m.CounterOr("trace_cache.misses", 0)),
          static_cast<unsigned long long>(
              m.CounterOr("trace_cache.rendezvous_waits", 0)),
          static_cast<unsigned long long>(
              m.CounterOr("build_pool.tasks_executed", 0)),
          static_cast<long long>(q != nullptr ? q->peak : 0),
          static_cast<unsigned long long>(
              m.CounterOr("replay.events_replayed", 0)));
      os << buf;
    }
  }
  if (const FigureView view = BuiltinFigureView(report.spec_name)) {
    view(report, os);
  }
}

void JsonSink::Emit(const SweepReport& report, std::ostream& os) const {
  JsonObj top(os, 0);
  top.Str("spec", report.spec_name);
  {
    std::string axes = "[";
    for (size_t i = 0; i < report.axis_names.size(); ++i) {
      if (i) axes += ", ";
      axes += JsonQuote(report.axis_names[i]);
    }
    axes += "]";
    top.Field("axes", axes);
  }
  top.Int("cell_count", report.cells.size());
  // Execution-environment fields (not functions of the spec alone): how
  // many sets this run built depends on cache warmth, like the timings.
  if (include_timing_) {
    top.Int("trace_sets_built", report.trace_sets_built);
    top.Int("threads", report.threads);
    top.Num("build_wall_seconds", report.build_wall_seconds);
    top.Num("sim_wall_seconds", report.sim_wall_seconds);
    top.Num("wall_seconds", report.wall_seconds);
    top.Num("cells_per_second", report.cells_per_second());
  }
  {
    std::ostringstream cells;
    cells << "[";
    for (size_t i = 0; i < report.cells.size(); ++i) {
      const CellResult& cr = report.cells[i];
      cells << (i ? ",\n" : "\n") << JsonObj::Pad(4);
      JsonObj c(cells, 4);
      c.Int("index", cr.cell.index);
      {
        std::ostringstream labels;
        JsonObj l(labels, 6);
        for (size_t a = 0;
             a < report.axis_names.size() && a < cr.cell.values.size(); ++a) {
          l.Str(report.axis_names[a], cr.cell.values[a]);
        }
        l.Close();
        c.Field("labels", labels.str());
      }
      {
        std::ostringstream cfg;
        EmitCellConfigJson(cr, cfg, 6);
        c.Field("config", cfg.str());
      }
      {
        std::ostringstream ts;
        JsonObj t(ts, 6);
        t.Int("total_instructions", cr.trace_total_instructions);
        t.Int("total_events", cr.trace_total_events);
        t.Close();
        c.Field("trace_set", ts.str());
      }
      if (!golden_) {
        std::ostringstream met;
        EmitCellMetrics(cr, met, 6);
        c.Field("metrics", met.str());
      }
      if (include_timing_) c.Num("sim_wall_seconds", cr.sim_wall_seconds);
      c.Close();
    }
    cells << "\n" << JsonObj::Pad(2) << "]";
    top.Field("cells", cells.str());
  }
  top.Close();
  os << "\n";
}

void CsvSink::Emit(const SweepReport& report, std::ostream& os) const {
  std::vector<std::string> header{"index"};
  for (const std::string& a : report.axis_names) header.push_back(a);
  // cfg_ prefix keeps config columns distinct from same-named axes.
  for (const char* c :
       {"workload", "clients", "requests_per_client", "seed", "engine",
        "camp", "cores", "l2_bytes", "latency", "topology", "saturated",
        "l2_ports", "fixed_l2_latency"}) {
    header.emplace_back(std::string("cfg_") + c);
  }
  // Trace-set skeleton totals: process-invariant (like the JSON sink's
  // "trace_set" object), so they survive into golden mode.
  header.emplace_back("trace_total_instructions");
  header.emplace_back("trace_total_events");
  if (!golden_) {
    for (const char* m :
         {"instructions", "elapsed_cycles", "cpi", "uipc", "l1d_hit_rate",
          "l1i_hit_rate", "l2_hit_rate", "requests_completed",
          "avg_response_cycles", "queue_delay_mean", "l1_to_l1_transfers",
          "invalidations", "writebacks"}) {
      header.emplace_back(m);
    }
    for (int b = 0; b < static_cast<int>(coresim::Bucket::kCount); ++b) {
      header.emplace_back(
          std::string("cpi_") +
          coresim::BucketName(static_cast<coresim::Bucket>(b)));
    }
  }
  if (include_timing_ && !golden_) header.emplace_back("sim_wall_seconds");

  TablePrinter table(std::move(header));
  for (const CellResult& cr : report.cells) {
    const harness::TraceSetConfig& tc = cr.cell.trace;
    const harness::ExperimentConfig& ec = cr.cell.exp;
    const coresim::SimResult& r = cr.result;
    std::vector<std::string> row{std::to_string(cr.cell.index)};
    for (const std::string& v : cr.cell.values) row.push_back(v);
    row.push_back(harness::WorkloadName(tc.workload));
    row.push_back(std::to_string(tc.clients));
    row.push_back(std::to_string(tc.requests_per_client));
    row.push_back(std::to_string(tc.seed));
    row.push_back(EngineModeName(tc.engine));
    row.push_back(coresim::CampName(ec.camp));
    row.push_back(std::to_string(ec.cores));
    row.push_back(std::to_string(ec.l2_bytes));
    row.push_back(LatencyModeName(ec.latency));
    row.push_back(TopologyName(ec.topology));
    row.push_back(ec.saturated ? "1" : "0");
    row.push_back(std::to_string(ec.l2_ports));
    row.push_back(std::to_string(ec.fixed_l2_latency));
    row.push_back(std::to_string(cr.trace_total_instructions));
    row.push_back(std::to_string(cr.trace_total_events));
    if (!golden_) {
      row.push_back(std::to_string(r.instructions));
      row.push_back(std::to_string(r.elapsed_cycles));
      row.push_back(JsonDbl(r.cpi()));
      row.push_back(JsonDbl(r.uipc()));
      row.push_back(JsonDbl(r.l1d_hit_rate));
      row.push_back(JsonDbl(r.l1i_hit_rate));
      row.push_back(JsonDbl(r.l2_hit_rate));
      row.push_back(std::to_string(r.requests_completed));
      row.push_back(JsonDbl(r.avg_response_cycles));
      row.push_back(JsonDbl(r.mem.queue_delay.mean()));
      row.push_back(std::to_string(r.mem.l1_to_l1_transfers));
      row.push_back(std::to_string(r.mem.invalidations));
      row.push_back(std::to_string(r.mem.writebacks));
      for (int b = 0; b < static_cast<int>(coresim::Bucket::kCount); ++b) {
        row.push_back(JsonDbl(r.CpiComponent(static_cast<coresim::Bucket>(b))));
      }
    }
    if (include_timing_ && !golden_) {
      row.push_back(JsonDbl(cr.sim_wall_seconds));
    }
    table.AddRow(std::move(row));
  }
  table.PrintCsv(os);
}

void EmitPerfSummary(const SweepReport& report, std::ostream& os,
                     const std::vector<PerfSection>& extras) {
  JsonObj o(os, 0);
  // v2: added schema_version + environment (v1 files have neither).
  o.Int("schema_version", 2);
  o.Str("bench", "sweep");
  o.Str("spec", report.spec_name);
  {
    std::ostringstream env;
    EmitEnvironment(env, 2);
    o.Field("environment", env.str());
  }
  o.Int("threads", report.threads);
  o.Int("cells", report.cells_simulated());
  o.Str("trace_bundle", report.bundle);
  o.Int("trace_sets_built", report.trace_sets_built);
  // Per-phase wall clocks. bundle_load is serial; trace building overlaps
  // the sim pipeline (builder thread + workers), so build/sim are not
  // additive and wall_seconds is the end-to-end truth.
  {
    std::ostringstream sub;
    JsonObj p(sub, 2);
    p.Num("bundle_load_seconds", report.load_wall_seconds);
    p.Num("build_wall_seconds", report.build_wall_seconds);
    p.Num("sim_wall_seconds", report.sim_wall_seconds);
    p.Close();
    o.Field("phases", sub.str());
  }
  o.Num("wall_seconds", report.wall_seconds);
  o.Num("cells_per_second", report.cells_per_second());
  o.Int("events_replayed", report.events_replayed());
  o.Num("events_per_second", report.events_per_second());
  // Per-cell sim cost so a regression localizes to a cell, not a grid.
  {
    std::ostringstream cells;
    cells << "[";
    for (size_t i = 0; i < report.cells.size(); ++i) {
      const CellResult& cr = report.cells[i];
      cells << (i ? ",\n" : "\n") << JsonObj::Pad(4);
      JsonObj c(cells, 4);
      c.Int("index", cr.cell.index);
      c.Int("events_replayed", cr.result.events_replayed);
      c.Num("sim_wall_seconds", cr.sim_wall_seconds);
      c.Close();
    }
    cells << "\n" << JsonObj::Pad(2) << "]";
    o.Field("cells_detail", cells.str());
  }
  for (const PerfSection& e : extras) o.Field(e.key, e.raw_json);
  o.Close();
  os << "\n";
}

std::unique_ptr<ResultSink> MakeSink(const std::string& format,
                                     bool include_timing, bool golden) {
  if (golden) {
    // Golden output is always timing-free; a table has no golden subset.
    if (format == "json") {
      return std::make_unique<JsonSink>(/*include_timing=*/false,
                                        /*golden=*/true);
    }
    if (format == "csv") {
      return std::make_unique<CsvSink>(/*include_timing=*/false,
                                       /*golden=*/true);
    }
    return nullptr;
  }
  if (format == "table") return std::make_unique<TableSink>(include_timing);
  if (format == "json") return std::make_unique<JsonSink>(include_timing);
  if (format == "csv") return std::make_unique<CsvSink>(include_timing);
  return nullptr;
}

}  // namespace stagedcmp::sweep
