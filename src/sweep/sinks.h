// Pluggable result sinks for sweep reports: an aligned ASCII table for
// humans (reusing common/table_printer.h) plus machine-readable JSON and
// CSV emitters.
//
// JSON and CSV output is deterministic: fixed key/column order, doubles
// printed with %.17g (round-trip exact). With timing excluded the bytes
// depend only on the spec and the simulation — not on thread count or
// machine load — which is what the golden-diff in scripts/check.sh and
// the thread-invariance test rely on.
#ifndef STAGEDCMP_SWEEP_SINKS_H_
#define STAGEDCMP_SWEEP_SINKS_H_

#include <iosfwd>
#include <memory>
#include <string>

#include "sweep/runner.h"

namespace stagedcmp::sweep {

/// Spec-facing names for the remaining config enums (WorkloadName and
/// CampName already live in harness/coresim).
const char* EngineModeName(harness::EngineMode e);
const char* LatencyModeName(harness::LatencyMode m);
const char* TopologyName(harness::Topology t);

class ResultSink {
 public:
  virtual ~ResultSink() = default;
  virtual void Emit(const SweepReport& report, std::ostream& os) const = 0;
};

/// Human-readable aligned table (one row per cell) plus a footer with
/// throughput of the sweep itself (omitted when `include_timing` is
/// false, keeping the bytes deterministic). Figure specs then get their
/// paper-layout tables (BuiltinFigureView in sweep/builtin_specs.h).
class TableSink : public ResultSink {
 public:
  explicit TableSink(bool include_timing = true)
      : include_timing_(include_timing) {}
  void Emit(const SweepReport& report, std::ostream& os) const override;

 private:
  bool include_timing_;
};

/// BENCH_sweep.json-compatible document: sweep-level meta + one object
/// per cell with labels, resolved config, trace-set totals, and metrics.
///
/// `golden` additionally omits the simulated metrics, leaving only the
/// fields that are byte-stable across *processes*: grid shape, labels,
/// resolved configs (incl. cacti L2 latencies) and trace-set skeleton
/// totals. The simulated metrics are bit-deterministic only when the
/// same in-memory TraceSet is replayed — traces embed heap addresses, so
/// a fresh process perturbs them slightly (see tests/test_determinism.cc)
/// — and therefore cannot live in a checked-in golden.
class JsonSink : public ResultSink {
 public:
  explicit JsonSink(bool include_timing = true, bool golden = false)
      : include_timing_(include_timing), golden_(golden) {}
  void Emit(const SweepReport& report, std::ostream& os) const override;

 private:
  bool include_timing_;
  bool golden_;
};

/// Flat CSV, one row per cell: index, axis values, config, trace-set
/// totals, metrics.
///
/// `golden` mirrors JsonSink's golden mode: only the process-invariant
/// columns (index, axes, config, trace-set totals) are emitted, so the
/// bytes can be diffed across processes and thread counts.
class CsvSink : public ResultSink {
 public:
  explicit CsvSink(bool include_timing = true, bool golden = false)
      : include_timing_(include_timing), golden_(golden) {}
  void Emit(const SweepReport& report, std::ostream& os) const override;

 private:
  bool include_timing_;
  bool golden_;
};

/// Emits one cell's resolved-config JSON object — the "config" field of
/// JsonSink output. Shared with the shard writer (sweep/shard.cc), which
/// echoes it into shard files so a merge can validate each cell against
/// the re-expanded spec and reproduce sink output byte-identically.
void EmitCellConfigJson(const CellResult& cr, std::ostream& os, int indent);

/// An extra top-level section appended to the perf summary: `raw_json`
/// is emitted verbatim as the value of `key` (callers own indentation —
/// two-space base, like the built-in sections).
struct PerfSection {
  std::string key;
  std::string raw_json;
};

/// Writes the sweep-level perf summary (cells/sec, wall-clock, threads)
/// as a small JSON object — the BENCH_sweep.json trajectory format —
/// plus any caller-supplied extra sections (e.g. sweep_main's metrics
/// snapshot).
void EmitPerfSummary(const SweepReport& report, std::ostream& os,
                     const std::vector<PerfSection>& extras = {});

/// Factory for --format values: "table", "json", "csv". Null on unknown
/// (and on golden table output, which has no process-invariant subset).
std::unique_ptr<ResultSink> MakeSink(const std::string& format,
                                     bool include_timing,
                                     bool golden = false);

}  // namespace stagedcmp::sweep

#endif  // STAGEDCMP_SWEEP_SINKS_H_
