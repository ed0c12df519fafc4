#!/usr/bin/env bash
# Full verification: a static docs pass (link + spec drift), the tier-1
# build/test pass (Release), then an ASan+UBSan Debug pass over the whole
# test suite. Both build passes also run the sweep engine's smoke grid:
# the tier-1 pass runs the cold-determinism matrix (golden JSON + CSV
# byte-diffed across --threads 1/2/8, every set rebuilt from scratch
# through the parallel build pool each time), emits BENCH perf
# trajectories for both the cold build+sim path and the warm replay path
# (cells/sec, wall-clock), runs an
# observability pass (metrics + span timeline on, golden re-diffed,
# counters cross-checked against the perf summary), exercises sharded
# execution (cold shards + merge re-diffed against the golden; warm
# shards off one mapped bundle re-diffed against the unsharded run's
# full deterministic bytes, for both the smoke and skew grids), diffs
# the smokesmp grid against its golden (its directory-vs-snoop arm
# equivalence is pinned by the SmokeSmpArmsTest ctest in
# tests/test_directory_equivalence.cc), diffs the paper-figure grids
# (fig2, fig3, fig4, fig6, fig7, fig8, fig8smp, ablstreambuf) and the
# burst grid against their goldens, runs the 1024-node CMP-vs-SMP
# shootout grid cold at three thread counts plus a warm re-diff (and
# cross-checks the SMP bus-model counters against the per-cell sweep
# output, and gates warm replay of its 1024-node cells against
# BENCH_sweep_largen.json), and the sanitizer pass diffs the
# process-invariant --golden JSON against tests/golden/sweep_smoke.json.
# An optional ThreadSanitizer pass races the parallel cold build under
# TSan.
#
#   scripts/check.sh              # docs + tier-1 + ASan/UBSan passes
#   scripts/check.sh --tier1      # docs + tier-1 only
#   scripts/check.sh --sanitize   # docs + sanitizer pass only
#   scripts/check.sh --tsan       # docs + ThreadSanitizer pass only
set -euo pipefail

cd "$(dirname "$0")/.."

run_tier1=1
run_sanitize=1
run_tsan=0
case "${1:-}" in
  --tier1) run_sanitize=0 ;;
  --sanitize) run_tier1=0 ;;
  --tsan) run_tier1=0; run_sanitize=0; run_tsan=1 ;;
  "") ;;
  *) echo "usage: $0 [--tier1|--sanitize|--tsan]" >&2; exit 2 ;;
esac

jobs=$(nproc 2>/dev/null || echo 4)

echo "==> docs: internal links + sweep-spec and binary drift"
docs_fail=0
# Every relative markdown link in README.md and docs/*.md must resolve
# (targets are relative to the linking file's directory).
while IFS=: read -r file match; do
  link="${match#](}"
  link="${link%)}"
  case "$link" in
    http://*|https://*|mailto:*|"#"*) continue ;;
  esac
  target="${link%%#*}"
  [[ -z "$target" ]] && continue
  # Only path-shaped targets: code blocks legitimately contain `](`
  # (C++ lambdas in capture lists), which are not links.
  [[ "$target" =~ ^[A-Za-z0-9._/-]+$ ]] || continue
  if [[ ! -e "$(dirname "$file")/$target" ]]; then
    echo "FAIL: $file links to missing '$link'" >&2
    docs_fail=1
  fi
done < <(grep -HoE '\]\([^)]+\)' README.md docs/*.md)
# Sweep-spec drift, both directions: every `--spec NAME` in README must
# be a builtin, and every builtin name must be documented in README.
builtin_names=$(sed -n '/^constexpr Builtin kBuiltins/,/^};/p' \
                  src/sweep/builtin_specs.cc | grep -oE '"[a-z0-9]+"' \
                | tr -d '"')
if [[ -z "$builtin_names" ]]; then
  echo "FAIL: could not extract BuiltinSpecNames from builtin_specs.cc" >&2
  docs_fail=1
fi
for s in $(grep -oE '\-\-spec [a-z0-9]+' README.md | awk '{print $2}' \
           | sort -u); do
  if ! grep -qw "$s" <<<"$builtin_names"; then
    echo "FAIL: README uses --spec $s, which is not a builtin spec" >&2
    docs_fail=1
  fi
done
for s in $builtin_names; do
  if ! grep -q "\`$s\`" README.md; then
    echo "FAIL: builtin spec '$s' is not documented in README" >&2
    docs_fail=1
  fi
done
# Golden drift: every builtin spec has a committed golden, except
# ablstaged, whose staged cells' trace totals still depend on heap
# placement (see ROADMAP.md).
for s in $builtin_names; do
  [[ "$s" == ablstaged ]] && continue
  if [[ ! -f "tests/golden/sweep_$s.json" ]]; then
    echo "FAIL: builtin spec '$s' has no tests/golden/sweep_$s.json" >&2
    docs_fail=1
  fi
done
# sweep_main CLI drift: every flag in the driver's usage text must be
# documented in README (catches new flags landing without docs).
sweep_flags=$(grep -oE '"  --[a-z-]+' bench/sweep_main.cc \
              | grep -oE '\-\-[a-z-]+' | sort -u)
if [[ -z "$sweep_flags" ]]; then
  echo "FAIL: could not extract sweep_main flags from bench/sweep_main.cc" >&2
  docs_fail=1
fi
for f in $sweep_flags; do
  if ! grep -q -- "$f" README.md; then
    echo "FAIL: sweep_main flag '$f' is not documented in README" >&2
    docs_fail=1
  fi
done
# Binary drift: every ./build/bench/NAME or ./build/examples/NAME in the
# docs must be a target that bench/ or examples/ CMakeLists.txt builds
# (the STAGEDCMP_BENCHES / STAGEDCMP_EXAMPLES lists).
cmake_targets=$(cat bench/CMakeLists.txt examples/CMakeLists.txt | tr '\n' ' ' \
  | grep -oE '(set|list)\((APPEND )?STAGEDCMP_(BENCHES|EXAMPLES)[^)]*\)' \
  | sed -E 's/^(set|list)\((APPEND )?STAGEDCMP_[A-Z]+//; s/\)$//' \
  | tr ' ' '\n' | grep -v '^$' || true)
if [[ -z "$cmake_targets" ]]; then
  echo "FAIL: could not extract bench/example targets from CMakeLists" >&2
  docs_fail=1
fi
for b in $(grep -ohE '\./build/(bench|examples)/[A-Za-z0-9_]+' README.md \
             docs/*.md | sed 's#.*/##' | sort -u); do
  if ! grep -qx "$b" <<<"$cmake_targets"; then
    echo "FAIL: docs run ./build/.../$b, which no CMakeLists builds" >&2
    docs_fail=1
  fi
done
[[ $docs_fail -eq 0 ]] || exit 1
echo "    docs OK"

if [[ $run_tier1 -eq 1 ]]; then
  echo "==> tier-1: Release build + ctest"
  cmake -B build -S .
  cmake --build build -j "$jobs"
  ctest --test-dir build --output-on-failure -j "$jobs"

  echo "==> sweep smoke grid: cold-determinism matrix (--threads 1/2/8)"
  # Every run below is COLD — no trace bundle in play, every trace set
  # regenerated from scratch through the parallel build pool — so the
  # byte-diffs pin that the number of build workers cannot leak into the
  # golden JSON or CSV output. The final (8-thread) run also writes the
  # trace bundle the warm pass replays from and the cold perf summary
  # the gate below checks.
  rm -f build/smoke.traces
  for t in 1 2; do
    ./build/bench/sweep_main --spec smoke --threads "$t" --golden \
      --out "build/sweep_smoke_golden_t$t.json"
    diff -u tests/golden/sweep_smoke.json "build/sweep_smoke_golden_t$t.json"
    ./build/bench/sweep_main --spec smoke --threads "$t" --golden \
      --format csv --out "build/sweep_smoke_golden_t$t.csv"
  done
  ./build/bench/sweep_main --spec smoke --threads 8 --golden \
    --trace-bundle build/smoke.traces \
    --perf-out build/BENCH_sweep_cold_fresh.json \
    --out build/sweep_smoke_golden_t8.json
  diff -u tests/golden/sweep_smoke.json build/sweep_smoke_golden_t8.json
  ./build/bench/sweep_main --spec smoke --threads 8 --golden \
    --format csv --out build/sweep_smoke_golden_t8.csv
  # CSV has no committed golden; cross-thread-count identity is the pin.
  diff -u build/sweep_smoke_golden_t1.csv build/sweep_smoke_golden_t2.csv
  diff -u build/sweep_smoke_golden_t1.csv build/sweep_smoke_golden_t8.csv

  echo "==> sharded execution: cold smoke shards + merge vs golden"
  # Two cold shard processes cover the grid; the merge must reassemble
  # the committed golden byte-for-byte (cold shards build in separate
  # processes, so only the process-invariant golden fields compare).
  ./build/bench/sweep_main --spec smoke --threads 4 --shard 0/2 \
    --out build/smoke_shard0.json
  ./build/bench/sweep_main --spec smoke --threads 4 --shard 1/2 \
    --out build/smoke_shard1.json
  ./build/bench/sweep_main --merge build/sweep_smoke_merged_golden.json \
    build/smoke_shard0.json build/smoke_shard1.json --golden
  diff -u tests/golden/sweep_smoke.json build/sweep_smoke_merged_golden.json
  # Malformed merges must be rejected, not silently mis-assembled.
  if ./build/bench/sweep_main --merge /dev/null \
       build/smoke_shard0.json build/smoke_shard0.json 2>/dev/null; then
    echo "FAIL: overlapping shard merge was accepted" >&2; exit 1
  fi
  if ./build/bench/sweep_main --merge /dev/null \
       build/smoke_shard0.json 2>/dev/null; then
    echo "FAIL: incomplete shard merge was accepted" >&2; exit 1
  fi

  echo "==> sweep smoke grid: BENCH trajectory (warm)"
  # Warm pass: replay-only single-thread trajectory (the committed
  # BENCH_sweep.json baseline is measured exactly this way). Known scope
  # limit: the gate below therefore watches replay throughput only —
  # trace-GENERATION slowdowns show up in the cold pass's wall clock but
  # are not gated (too noisy on shared CI hardware).
  ./build/bench/sweep_main --spec smoke --threads 1 --format json \
    --trace-bundle build/smoke.traces --out /dev/null \
    --perf-out build/BENCH_sweep_fresh.json
  # The run must actually have been served from the bundle: a silent
  # cold rebuild would gate build throughput instead of replay.
  grep -q '"trace_bundle": "warm"' build/BENCH_sweep_fresh.json

  echo "==> sharded execution: warm-mmap shards + merge, full metrics"
  # Every run below replays the SAME mapped bundle, so the merge must
  # reproduce the unsharded run's full deterministic JSON — simulated
  # metrics included — byte for byte (shard files passed out of order).
  ./build/bench/sweep_main --spec smoke --threads 4 --format json \
    --deterministic --trace-bundle build/smoke.traces \
    --out build/sweep_smoke_warm_det.json
  ./build/bench/sweep_main --spec smoke --threads 4 --shard 0/2 \
    --trace-bundle build/smoke.traces \
    --metrics-out build/smoke_shard_metrics.json \
    --out build/smoke_warm_shard0.json
  ./build/bench/sweep_main --spec smoke --threads 4 --shard 1/2 \
    --trace-bundle build/smoke.traces \
    --out build/smoke_warm_shard1.json
  ./build/bench/sweep_main --merge build/sweep_smoke_warm_merged.json \
    build/smoke_warm_shard1.json build/smoke_warm_shard0.json --format json
  diff -u build/sweep_smoke_warm_det.json build/sweep_smoke_warm_merged.json
  # Shard bookkeeping: assigned + skipped must cover the whole grid.
  if command -v python3 >/dev/null 2>&1; then
    python3 - <<'EOF'
import json
c = json.load(open("build/smoke_shard_metrics.json"))["counters"]
cells = len(json.load(open("build/sweep_smoke_warm_det.json"))["cells"])
a, s = c["shard.cells_assigned"], c["shard.cells_skipped"]
assert a + s == cells, f"shard counters {a}+{s} != {cells} cells"
assert 0 < a < cells, f"shard 0/2 claimed {a} of {cells} cells"
print(f"    shard counters OK ({a} assigned + {s} skipped = {cells})")
EOF
  else
    echo "    python3 not found; skipping shard counter cross-checks"
  fi

  echo "==> observability: metrics + span timeline on a warm smoke run"
  # Golden bytes must be oblivious to observability: the run below turns
  # on every sink at once (--golden + --metrics-out + --perf-out +
  # --trace-out) and its output re-diffs the committed golden. The
  # emitted JSON must parse, the cache counters must satisfy
  # lookups == hits + misses, the replay engine's event counter must
  # equal the perf summary's events_replayed, and the perf summary's
  # "metrics" section must be the same snapshot as --metrics-out.
  ./build/bench/sweep_main --spec smoke --threads 8 --golden \
    --trace-bundle build/smoke.traces \
    --out build/sweep_smoke_golden_obs.json \
    --metrics-out build/smoke_metrics.json \
    --perf-out build/BENCH_sweep_obs.json \
    --trace-out build/smoke_trace.json
  diff -u tests/golden/sweep_smoke.json build/sweep_smoke_golden_obs.json
  if command -v python3 >/dev/null 2>&1; then
    python3 - <<'EOF'
import json
m = json.load(open("build/smoke_metrics.json"))
p = json.load(open("build/BENCH_sweep_obs.json"))
t = json.load(open("build/smoke_trace.json"))
c = m["counters"]
assert c["trace_cache.hits"] + c["trace_cache.misses"] \
    == c["trace_cache.lookups"], "cache lookups != hits + misses"
assert c["replay.events_replayed"] == p["events_replayed"], \
    "replay counter disagrees with perf summary"
assert p["metrics"] == m, "--metrics-out and perf 'metrics' diverged"
assert p["schema_version"] == 2 and "environment" in p, \
    "perf summary missing schema_version/environment"
xs = [e for e in t["traceEvents"] if e.get("ph") == "X"]
assert xs, "trace timeline has no span events"
names = {e["name"] for e in xs}
assert any(n.startswith("cell:") for n in names), "no cell spans"
assert any(n.startswith("build:") for n in names), "no build spans"
print("    observability cross-checks OK "
      f"({len(xs)} spans, {len(c)} counters)")
EOF
  else
    echo "    python3 not found; skipping observability JSON cross-checks"
  fi

  echo "==> sweep smokesmp grid: cold golden"
  # The directory-vs-snoop arm equivalence on this grid is a ctest
  # (SmokeSmpArmsTest in tests/test_directory_equivalence.cc); this pins
  # the SMP grid's process-invariant output.
  ./build/bench/sweep_main --spec smokesmp --threads 4 --golden \
    --out build/sweep_smokesmp_golden.json
  diff -u tests/golden/sweep_smokesmp.json build/sweep_smokesmp_golden.json

  echo "==> paper-figure grids: cold goldens"
  # The builtin specs behind the paper's Figures 2-4 and 6-8, the
  # stream-buffer ablation and the burst grid, each rebuilt cold and
  # diffed against its process-invariant golden. (ablstaged has none:
  # its staged cells' trace totals still depend on heap placement; see
  # ROADMAP.md.)
  for s in fig2 fig3 fig4 fig6 fig7 fig8 fig8smp ablstreambuf burst; do
    ./build/bench/sweep_main --spec "$s" --threads 4 --golden \
      --out "build/sweep_${s}_golden.json"
    diff -u "tests/golden/sweep_$s.json" "build/sweep_${s}_golden.json"
  done

  echo "==> sweep shootout grid: cold golden (--threads 1/2/8) + warm re-diff"
  # The CMP-vs-SMP scaling shootout runs both topologies to 1024 nodes
  # with the SMP shared-bus occupancy model on (the queue-delay knee).
  # Cold runs at three thread counts must agree on the committed golden
  # bytes; the warm run re-diffs it off the bundle the 8-thread cold run
  # wrote. The flat-latency reference arm's bytes are pinned separately:
  # every pre-existing (<=64-node) golden above re-diffing unchanged is
  # what proves the sharers-bitset widening and the bus-model plumbing
  # are pure representation changes for the historical specs.
  rm -f build/shootout.traces
  for t in 1 2; do
    ./build/bench/sweep_main --spec shootout --threads "$t" --golden \
      --out "build/sweep_shootout_golden_t$t.json"
    diff -u tests/golden/sweep_shootout.json \
      "build/sweep_shootout_golden_t$t.json"
  done
  ./build/bench/sweep_main --spec shootout --threads 8 --golden \
    --trace-bundle build/shootout.traces \
    --out build/sweep_shootout_golden_t8.json
  diff -u tests/golden/sweep_shootout.json build/sweep_shootout_golden_t8.json
  ./build/bench/sweep_main --spec shootout --threads 8 --golden \
    --trace-bundle build/shootout.traces \
    --out build/sweep_shootout_warm.json
  diff -u tests/golden/sweep_shootout.json build/sweep_shootout_warm.json

  echo "==> sweep shootout grid: large-n BENCH trajectory (warm, 1024 nodes)"
  # Shard 3/4 holds exactly the four 1024-node cells (nodes is the
  # fastest-varying axis): the replay path whose per-event cost grows
  # with node count. Warm off the bundle above, so the gate below
  # watches replay throughput at n = 1024 only.
  ./build/bench/sweep_main --spec shootout --threads 4 --shard 3/4 \
    --format json --trace-bundle build/shootout.traces --out /dev/null \
    --perf-out build/BENCH_sweep_largen_fresh.json

  echo "==> bus model: registry counters vs per-cell sweep output"
  # One warm deterministic run emits both the per-cell bus sub-objects
  # (SMP cells only — the flat/CMP cells must not carry one) and the
  # MetricsRegistry snapshot. The registry's bus.* counters must equal
  # the sum over cells and the peak-queue gauge's high-water mark the max
  # over cells — the replay engine records them per run, so a drop or a
  # double-count shows up as a sum mismatch here.
  ./build/bench/sweep_main --spec shootout --threads 8 --format json \
    --deterministic --trace-bundle build/shootout.traces \
    --metrics-out build/shootout_metrics.json \
    --out build/sweep_shootout_det.json
  if command -v python3 >/dev/null 2>&1; then
    python3 - <<'EOF'
import json
m = json.load(open("build/shootout_metrics.json"))
cells = json.load(open("build/sweep_shootout_det.json"))["cells"]
bus = [c["metrics"]["bus"] for c in cells if "bus" in c["metrics"]]
smp = [c for c in cells if c["config"]["topology"] == "smp-private"]
assert len(bus) == len(smp) > 0, "bus sub-objects != SMP cells"
c = m["counters"]
g = m["gauges"]["bus.peak_queue_delay"]
assert c["bus.transactions"] == sum(b["transactions"] for b in bus), \
    "bus.transactions disagrees with the per-cell sum"
assert c["bus.busy_cycles"] == sum(b["busy_cycles"] for b in bus), \
    "bus.busy_cycles disagrees with the per-cell sum"
assert g["peak"] == max(b["peak_queue_delay"] for b in bus), \
    "bus.peak_queue_delay gauge peak disagrees with the per-cell max"
assert all(b["transactions"] > 0 for b in bus), "an SMP cell saw no bus"
print("    bus counters OK "
      f"({len(bus)} SMP cells, {c['bus.transactions']} transactions)")
EOF
  else
    echo "    python3 not found; skipping bus counter cross-checks"
  fi

  echo "==> sweep skew grid: cold-determinism matrix (--threads 1/2/8)"
  # The skew grid exercises the traffic subsystem end to end: Zipfian key
  # popularity over OLTP and YCSB, staged and unstaged engines. Like the
  # smoke matrix every run is cold (each trace set regenerated through
  # the parallel build pool), so the byte-diffs pin that shaped builds
  # are pure functions of their config too. The last run writes the
  # bundle for the warm re-diff and the traffic/YCSB counter check.
  rm -f build/skew.traces
  for t in 1 2; do
    ./build/bench/sweep_main --spec skew --threads "$t" --golden \
      --out "build/sweep_skew_golden_t$t.json"
    diff -u tests/golden/sweep_skew.json "build/sweep_skew_golden_t$t.json"
  done
  ./build/bench/sweep_main --spec skew --threads 8 --golden \
    --trace-bundle build/skew.traces \
    --metrics-out build/skew_metrics.json \
    --out build/sweep_skew_golden_t8.json
  diff -u tests/golden/sweep_skew.json build/sweep_skew_golden_t8.json
  # Warm replay from the bundle reproduces the same golden bytes: the
  # traffic knobs round-trip through the bundle header.
  ./build/bench/sweep_main --spec skew --threads 8 --golden \
    --trace-bundle build/skew.traces \
    --out build/sweep_skew_warm.json
  diff -u tests/golden/sweep_skew.json build/sweep_skew_warm.json

  echo "==> sharded execution: skew grid, cold golden + warm full metrics"
  # Same two-pass discipline as the smoke grid, over the shaped-traffic
  # specs: cold shards reassemble the committed golden; warm shards off
  # one mapped bundle reassemble the unsharded deterministic bytes.
  ./build/bench/sweep_main --spec skew --threads 4 --shard 0/2 \
    --out build/skew_shard0.json
  ./build/bench/sweep_main --spec skew --threads 4 --shard 1/2 \
    --out build/skew_shard1.json
  ./build/bench/sweep_main --merge build/sweep_skew_merged_golden.json \
    build/skew_shard0.json build/skew_shard1.json --golden
  diff -u tests/golden/sweep_skew.json build/sweep_skew_merged_golden.json
  ./build/bench/sweep_main --spec skew --threads 4 --format json \
    --deterministic --trace-bundle build/skew.traces \
    --out build/sweep_skew_warm_det.json
  ./build/bench/sweep_main --spec skew --threads 4 --shard 0/2 \
    --trace-bundle build/skew.traces --out build/skew_warm_shard0.json
  ./build/bench/sweep_main --spec skew --threads 4 --shard 1/2 \
    --trace-bundle build/skew.traces --out build/skew_warm_shard1.json
  ./build/bench/sweep_main --merge build/sweep_skew_warm_merged.json \
    build/skew_warm_shard0.json build/skew_warm_shard1.json --format json
  diff -u build/sweep_skew_warm_det.json build/sweep_skew_warm_merged.json
  # Shaper/driver observability: a COLD run must surface the traffic.*
  # and ycsb.* counter families (warm runs build nothing, so they are
  # absent there by design).
  if command -v python3 >/dev/null 2>&1; then
    python3 - <<'EOF'
import json
c = json.load(open("build/skew_metrics.json"))["counters"]
assert c.get("traffic.keys_generated", 0) > 0, "no traffic.keys_generated"
assert c.get("traffic.hot_set_hits", 0) > 0, "no traffic.hot_set_hits"
assert c.get("ycsb.requests", 0) > 0, "no ycsb.requests"
assert c.get("ycsb.ops_read", 0) > 0, "no ycsb.ops_read"
print("    traffic/ycsb counters OK "
      f"(keys={c['traffic.keys_generated']}, "
      f"ycsb_requests={c['ycsb.requests']})")
EOF
  else
    echo "    python3 not found; skipping traffic counter cross-checks"
  fi

  echo "==> sweep tenants grid: cold golden + warm bundle round-trip"
  # Multi-tenant cells carry the tenancy boundary through the bundle and
  # emit per-tenant attribution; cold and warm runs must agree on the
  # golden bytes.
  rm -f build/tenants.traces
  ./build/bench/sweep_main --spec tenants --threads 4 --golden \
    --trace-bundle build/tenants.traces \
    --out build/sweep_tenants_golden.json
  diff -u tests/golden/sweep_tenants.json build/sweep_tenants_golden.json
  ./build/bench/sweep_main --spec tenants --threads 4 --golden \
    --trace-bundle build/tenants.traces \
    --out build/sweep_tenants_warm.json
  diff -u tests/golden/sweep_tenants.json build/sweep_tenants_warm.json

  echo "==> perf gates: warm replay, cold build, large-n replay; 20% budget"
  # Each gate compares absolute cells/sec against a baseline committed
  # from the CI container; on a substantially slower machine export
  # STAGEDCMP_SKIP_PERF_GATE=1 instead of committing that machine's
  # numbers. The warm gate watches replay throughput; the cold gate's
  # wall clock is end-to-end and so also covers trace GENERATION — a
  # build-path slowdown that the warm gate is blind to trips it.
  get_cps() {  # get_cps FILE — the top-level cells_per_second
    awk -F': ' '/"cells_per_second"/ { gsub(/,/, "", $2); print $2; exit }' \
      "$1"
  }
  gate_cps() {  # gate_cps LABEL BASELINE_FILE FRESH_FILE
    local label="$1" baseline_file="$2" fresh_file="$3"
    local baseline fresh
    baseline=$(get_cps "$baseline_file")
    fresh=$(get_cps "$fresh_file")
    if [[ -z "$baseline" || -z "$fresh" ]]; then
      # An unparsable side must fail loudly: awk would treat "" as 0 and
      # silently disable the gate forever.
      echo "FAIL: could not parse $label cells_per_second" \
           "(baseline='${baseline}', fresh='${fresh}')" >&2
      exit 1
    fi
    echo "    $label: baseline ${baseline} cells/s, fresh ${fresh} cells/s"
    if [[ "${STAGEDCMP_SKIP_PERF_GATE:-0}" != "1" ]]; then
      if ! awk -v f="$fresh" -v b="$baseline" \
           'BEGIN { exit (f >= 0.8 * b) ? 0 : 1 }'; then
        echo "FAIL: $label cells_per_second regressed >20%" \
             "(${fresh} < 0.8*${baseline})" >&2
        exit 1
      fi
    fi
    # The committed baseline only changes on explicit request (run on the
    # CI container: STAGEDCMP_UPDATE_PERF_BASELINE=1 scripts/check.sh),
    # and even then never downward — otherwise a faster dev machine would
    # silently commit numbers every other machine then fails against, and
    # noisy slower runs would ratchet the gate loose.
    if [[ "${STAGEDCMP_UPDATE_PERF_BASELINE:-0}" == "1" ]] \
       && awk -v f="$fresh" -v b="$baseline" 'BEGIN { exit (f >= b) ? 0 : 1 }'
    then
      cp "$fresh_file" "$baseline_file"
      echo "    $label committed baseline updated"
    fi
  }
  gate_cps warm BENCH_sweep.json build/BENCH_sweep_fresh.json
  gate_cps cold BENCH_sweep_cold.json build/BENCH_sweep_cold_fresh.json
  gate_cps largen BENCH_sweep_largen.json build/BENCH_sweep_largen_fresh.json
  cat build/BENCH_sweep_fresh.json
fi

if [[ $run_sanitize -eq 1 ]]; then
  echo "==> sanitizers: Debug + ASan/UBSan build + ctest"
  cmake -B build-asan -S . \
    -DCMAKE_BUILD_TYPE=Debug \
    -DSTAGEDCMP_SANITIZE=ON
  cmake --build build-asan -j "$jobs"
  ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=halt_on_error=1 \
    ctest --test-dir build-asan --output-on-failure -j "$jobs"

  echo "==> sweep smoke grid under ASan/UBSan: golden diff"
  ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=halt_on_error=1 \
    ./build-asan/bench/sweep_main --spec smoke --threads 4 --golden \
      --out build-asan/sweep_smoke_golden.json
  diff -u tests/golden/sweep_smoke.json build-asan/sweep_smoke_golden.json
fi

if [[ $run_tsan -eq 1 ]]; then
  echo "==> ThreadSanitizer: Debug + TSan build, parallel cold build"
  cmake -B build-tsan -S . \
    -DCMAKE_BUILD_TYPE=Debug \
    -DSTAGEDCMP_TSAN=ON
  cmake --build build-tsan -j "$jobs"
  # The concurrency-bearing suites: pool contract, world isolation, and
  # the sweep runner's build/sim pipeline.
  TSAN_OPTIONS=halt_on_error=1 \
    ctest --test-dir build-tsan --output-on-failure -j "$jobs" \
      -R 'test_threadpool|test_world_isolation|test_sweep'
  # Cold parallel build of the smoke grid: all trace sets regenerate
  # concurrently through the build pool while sim workers replay — the
  # exact interleaving the isolated-world design must keep race-free.
  TSAN_OPTIONS=halt_on_error=1 \
    ./build-tsan/bench/sweep_main --spec smoke --threads 8 --golden \
      --out build-tsan/sweep_smoke_golden.json
  diff -u tests/golden/sweep_smoke.json build-tsan/sweep_smoke_golden.json
fi

echo "==> all checks passed"
