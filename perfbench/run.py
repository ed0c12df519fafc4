#!/usr/bin/env python3
"""StagedCMP benchmark: builds the bench binary from source, runs one workload
for a fixed time, checks its outputs and prints the metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --steadiness --runs 10 [--workloads a,b] [--seconds S]
    python3 perfbench/run.py --record-totals

A run repeats passes of the workload (one bench process each) until the
time is up, and reports medians. With --trace 0 it prints the end-to-end
metrics; with --trace 1 it alternates untraced and traced passes and
prints the per-layer metrics. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cold_mixed", "warm_paper", "warm_scaleout")
COLD = {"cold_mixed"}
MIN_PASSES = 3
MIN_TRACED_ROUNDS = 2
DEFAULT_SEED = 1
HELD_OUT_SEED = 2
TOTALS_FILE = HERE / "expected_totals.json"
PROBE_NODES = (4, 16, 256, 1024)

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("sim_mips", "MIPS"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail_usage(msg):
    log(f"run.py: {msg}")
    sys.exit(2)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Configures and builds the bench binary; returns its path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail_usage(f"{ROOT} holds no StagedCMP sources to build")
    tree = build_dir() / "cmake"
    jobs = str(min(4, os.cpu_count() or 1))
    # Compiler temporaries stay inside the checkout too.
    tmp = build_dir() / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    steps = []
    if not (tree / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(tree),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(tree), "-j", jobs,
                  "--target", "stagedcmp_perfbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            log("run.py: build failed")
            sys.exit(1)
    return tree / "stagedcmp_perfbench"


def binary_key(binary):
    h = hashlib.sha256()
    with open(binary, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()[:16]


def prepare_bundle(binary, workload, seed):
    """The warm workloads' input, built by the binary under test outside
    the timed passes. Bundles key on config, not code, so they live under
    the binary's hash and are never shared across builds."""
    key = binary_key(binary)
    root = build_dir() / "bundles"
    if root.is_dir():
        for old in root.iterdir():
            if old.name != key:
                shutil.rmtree(old)
    bundle = root / key / f"{workload}-seed{seed}.bundle"
    if bundle.is_file():
        return bundle
    bundle.parent.mkdir(parents=True, exist_ok=True)
    for old in bundle.parent.glob(f"{workload}-seed*.bundle"):
        old.unlink()
    tmp = bundle.with_suffix(".tmp")
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--prepare", "--bundle", str(tmp)]
    if subprocess.run(cmd, stdout=subprocess.DEVNULL).returncode:
        log("run.py: bundle preparation failed")
        sys.exit(1)
    tmp.rename(bundle)
    return bundle


class Pass:
    """One bench process: its JSON report plus host rusage."""

    def __init__(self, report, cpu_s, rss_mb, out_dir):
        self.report = report
        self.cpu_s = cpu_s
        self.rss_mb = rss_mb
        self.out_dir = out_dir


def run_pass(binary, workload, seed, out_dir, bundle=None, traced=False):
    out_dir.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--out-dir", str(out_dir)]
    if bundle is not None:
        cmd += ["--bundle", str(bundle)]
    if traced:
        cmd.append("--trace")
    stdout_path = out_dir / "stdout"
    with open(stdout_path, "w") as out:
        proc = subprocess.Popen(cmd, stdout=out)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    report = None
    if proc.returncode == 0:
        lines = stdout_path.read_text().splitlines()
        try:
            report = json.loads(lines[-1])
        except (IndexError, ValueError):
            report = None
    if report is None:
        log(f"run.py: pass failed (exit {proc.returncode}): {' '.join(cmd)}")
    return Pass(report, usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss / 1024.0, out_dir)


class Ledger:
    """Counts cells attempted and failed, with the reasons."""

    def __init__(self, workload, seed):
        self.attempted = 0
        self.failed = 0
        self.reasons = []
        self.cells = 1  # cells in a pass, counted failed if a pass dies
        self.sets = None  # trace totals of the first pass
        self.fingerprints = None  # warm passes replay identical bytes
        totals = json.loads(TOTALS_FILE.read_text()) if TOTALS_FILE.is_file() else {}
        self.expected = totals.get(workload, {}).get(str(seed))
        self.warm = workload not in COLD

    def note(self, why):
        if len(self.reasons) < 20:
            self.reasons.append(why)

    def check(self, p, extra_bad=()):
        """Counts one pass's cells; `extra_bad` names cells failed by a
        check made outside the pass."""
        r = p.report
        if r is None:
            self.attempted += self.cells
            self.failed += self.cells
            self.note("bench pass failed")
            return
        self.cells = len(r["cells"])
        totals = [[s["events"], s["instructions"]] for s in r["sets"]]
        self.sets = self.sets or totals
        bad_sets = set()
        for i, t in enumerate(totals):
            if t != self.sets[i]:
                bad_sets.add(i)
                self.note(f"set {i} totals changed between passes: {t}")
            if self.expected is not None and t != self.expected[i]:
                bad_sets.add(i)
                self.note(f"set {i} totals {t} != recorded {self.expected[i]}")
        rebuilt = [[s["events"], s["instructions"]] for s in r.get("probe_sets", [])]
        for i, t in enumerate(rebuilt):
            if t != totals[i]:
                bad_sets.add(i)
                self.note(f"set {i} rebuilt totals {t} != {totals[i]}")
        if self.warm:
            prints = [c["fingerprint"] for c in r["cells"]]
            self.fingerprints = self.fingerprints or prints
            differ = {i for i, (a, b) in enumerate(zip(prints, self.fingerprints))
                      if a != b}
            if differ:
                self.note("warm replays of one bundle differ across passes")
                extra_bad = set(extra_bad) | differ
        for i, c in enumerate(r["cells"]):
            self.attempted += 1
            if c["failures"] or c["set"] in bad_sets or i in extra_bad:
                self.failed += 1
                for why in c["failures"]:
                    self.note(f"{c['label']}: {why}")


def median(xs):
    return statistics.median(xs) if xs else float("nan")


def end_to_end(p):
    r = p.report
    return {
        "wall_s": r["wall_s"],
        "setup_s": r["setup_s"],
        "sim_mips": r["sim_instructions"] / r["replay_s"] / 1e6,
        "cpu_s": p.cpu_s,
        "peak_rss_mb": p.rss_mb,
    }


def load_spans(out_dir):
    return json.loads((out_dir / "spans.json").read_text())["spans"]


def span_table(spans):
    """Per span name: count, total and self seconds (duration minus the
    part of it that its children cover)."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    table = {}
    for s in spans:
        covered, end = 0.0, s["start_s"]
        for c in sorted(children.get(s["id"], []), key=lambda c: c["start_s"]):
            lo, hi = max(c["start_s"], end), min(c["end_s"], s["end_s"])
            if hi > lo:
                covered += hi - lo
                end = hi
        row = table.setdefault(s["name"], [0, 0.0, 0.0, 0])
        row[0] += 1
        row[1] += s["end_s"] - s["start_s"]
        row[2] += s["end_s"] - s["start_s"] - covered
        row[3] += s["work"]
    return table


def per_layer(p):
    """Per-layer metrics of one traced pass: host times from its spans,
    modelled counters from its report."""
    t = span_table(load_spans(p.out_dir))

    def dur(name):
        return t[name][1] if name in t else 0.0

    def work(name):
        return t[name][3] if name in t else 0

    r = p.report
    payload = sum(s["bytes"] for s in r["sets"])
    instructions = sum(s["instructions"] for s in r["sets"])
    m = {
        "harness.db_load_s": (dur("harness.db_load"), "s"),
        "harness.db_loads": (work("harness.db_load"), "count"),
        "harness.trace_gen_s": (dur("harness.trace_gen"), "s"),
        "trace.events": (work("harness.trace_gen"), "count"),
        "trace.gen_events_per_s": (
            work("harness.trace_gen") / dur("harness.trace_gen"), "1/s"),
        "trace.bytes_per_kinstr": (payload / (instructions / 1000.0), "B"),
        "sweep.bundle_write_s": (dur("sweep.bundle_write"), "s"),
        "sweep.bundle_open_s": (dur("sweep.bundle_open"), "s"),
        "sweep.bundle_verify_s": (dur("sweep.bundle_verify"), "s"),
        "sweep.bundle_mb": (work("sweep.bundle_open") / 2**20, "MiB"),
        "sweep.sink_emit_s": (dur("sweep.sink_emit"), "s"),
        "coresim.replay_s": (dur("coresim.run_experiment"), "s"),
    }
    drive_s = drive_n = 0.0
    for n in PROBE_NODES:
        replay = f"coresim.probe_replay.cmp.n{n}"
        build, drive = f"memsim.build.cmp.n{n}", f"memsim.drive.cmp.n{n}"
        ev = work(replay)
        m[f"coresim.ns_per_event.n{n}"] = (1e9 * dur(replay) / ev, "ns")
        # RunExperiment builds its hierarchy too; both parts come off.
        m[f"coresim.self_ns_per_event.n{n}"] = (
            1e9 * (dur(replay) - dur(build) - dur(drive)) / ev, "ns")
        drive_s += dur(drive)
        drive_n += work(drive)
    m["memsim.cmp.ns_per_access"] = (1e9 * drive_s / drive_n, "ns")
    m["memsim.smp.ns_per_access"] = (
        1e9 * dur("memsim.drive.smp.n4") / work("memsim.drive.smp.n4"), "ns")
    units = {"coresim.uipc": "instr/cycle", "coresim.cpi": "cycle/instr",
             "memsim.l1d_hit_rate": "ratio", "memsim.l2_hit_rate": "ratio",
             "memsim.offchip_per_kinstr": "1/kinstr",
             "memsim.invalidations": "count",
             "memsim.bus.transactions": "count",
             "memsim.bus.busy_cycles": "cycles",
             "memsim.bus.peak_queue_cycles": "cycles"}
    for name, value in r["modelled"].items():
        m[name] = (value, units[name])
    return m, t


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


def print_metric(name, values, unit):
    med = median(values)
    q1, q3 = quartiles(values)
    print(f"{name:34s} {med:14.6g} {unit:12s} "
          f"(n={len(values)}, q1 {q1:.6g}, q3 {q3:.6g})")


def run_untraced(binary, args, bundle, runs_dir, ledger):
    deadline = time.monotonic() + args.seconds
    passes = []
    while len(passes) < MIN_PASSES or time.monotonic() < deadline:
        p = run_pass(binary, args.workload, args.seed,
                     runs_dir / f"pass{len(passes)}", bundle)
        ledger.check(p)
        shutil.rmtree(p.out_dir)
        if p.report is None:
            break
        passes.append(p)
    metrics = {}
    for name, unit in END_TO_END:
        values = [end_to_end(p)[name] for p in passes]
        if values:
            print_metric(name, values, unit)
            metrics[name] = {"value": median(values), "unit": unit}
    return metrics


def run_traced(binary, args, bundle, runs_dir, ledger):
    deadline = time.monotonic() + args.seconds
    untraced_wall, traced_wall, layers = [], [], []
    rounds = 0
    last_table = None
    while rounds < MIN_TRACED_ROUNDS or time.monotonic() < deadline:
        rounds += 1
        u = run_pass(binary, args.workload, args.seed,
                     runs_dir / f"u{rounds}", bundle)
        ledger.check(u)
        t = run_pass(binary, args.workload, args.seed,
                     runs_dir / f"t{rounds}", bundle, traced=True)
        if t.report is None or u.report is None:
            ledger.check(t)
            break
        # Traced and untraced replays of one bundle must agree bit for bit.
        # A cold pass writes the bundle it built; replay that one.
        ref = u
        if args.workload in COLD:
            ref = run_pass(binary, args.workload, args.seed,
                           runs_dir / f"r{rounds}", t.out_dir / "bundle")
        mismatched = set()
        if ref.report is None:
            mismatched = set(range(len(t.report["cells"])))
        else:
            for i, (a, b) in enumerate(zip(t.report["cells"], ref.report["cells"])):
                if a["fingerprint"] != b["fingerprint"]:
                    mismatched.add(i)
        if mismatched:
            ledger.note("traced and untraced replays differ")
        ledger.check(t, mismatched)
        untraced_wall.append(u.report["wall_s"])
        traced_wall.append(t.report["wall_s"])
        m, last_table = per_layer(t)
        layers.append(m)
        for p in {id(x): x for x in (u, t, ref)}.values():
            shutil.rmtree(p.out_dir, ignore_errors=True)
    metrics = {}
    if layers:
        for name, (_, unit) in layers[0].items():
            values = [m[name][0] for m in layers]
            print_metric(name, values, unit)
            metrics[name] = {"value": median(values), "unit": unit}
        overhead = median(traced_wall) - median(untraced_wall)
        print_metric("bench.trace_overhead_s", [overhead], "s")
        metrics["bench.trace_overhead_s"] = {"value": overhead, "unit": "s"}
        print("\nspans of the last traced pass (busy seconds summed over threads):")
        print(f"  {'span':34s} {'count':>6s} {'total_s':>10s} {'self_s':>10s}")
        for name, (count, total, self_s, _) in last_table.items():
            print(f"  {name:34s} {count:6d} {total:10.4f} {self_s:10.4f}")
    return metrics


def bench(args):
    binary = build()
    bundle = None
    if args.workload not in COLD:
        bundle = prepare_bundle(binary, args.workload, args.seed)
    runs_dir = build_dir() / "runs" / str(os.getpid())
    if runs_dir.exists():
        shutil.rmtree(runs_dir)
    ledger = Ledger(args.workload, args.seed)
    try:
        if args.trace:
            metrics = run_traced(binary, args, bundle, runs_dir, ledger)
        else:
            metrics = run_untraced(binary, args, bundle, runs_dir, ledger)
    finally:
        shutil.rmtree(runs_dir, ignore_errors=True)
    attempted = max(ledger.attempted, 1)
    failed = ledger.failed if ledger.attempted else 1
    print(f"{'fail_ratio':34s} {failed / attempted:14.6g} {'ratio':12s} "
          f"({failed} of {attempted} cells failed)")
    for why in ledger.reasons:
        print(f"  check failed: {why}")
    print(json.dumps({"correct": failed == 0 and bool(metrics),
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def steadiness(args):
    """Runs each workload --runs times on consecutive seeds and prints
    each metric's median, quartiles and spread (q3 - q1) / median."""
    names = args.workloads.split(",") if args.workloads else list(WORKLOADS)
    summary = {}
    for w in names:
        values = {}
        for k in range(args.runs):
            seed = args.seed_base + k
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", w, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
            out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            lines = out.stdout.splitlines()
            result = json.loads(lines[-1])
            if not result["correct"]:
                log(f"{w} seed {seed}: checks failed")
                for line in lines:
                    if line.startswith(("fail_ratio", "  check failed")):
                        log(line)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            log(f"{w} seed {seed}: " + ", ".join(
                f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()))
        summary[w] = {}
        for name, xs in values.items():
            med = median(xs)
            q1, q3 = quartiles(xs)
            spread = (q3 - q1) / med if med else float("nan")
            summary[w][name] = {"median": med, "q1": q1, "q3": q3,
                                "spread": spread, "values": xs}
            print(f"{w:14s} {name:12s} median {med:10.5g}  q1 {q1:10.5g}  "
                  f"q3 {q3:10.5g}  spread {100 * spread:6.2f}%")
    print(json.dumps(summary))


def record_totals(_args):
    """Rewrites expected_totals.json from fresh builds on the default and
    held-out seeds (after a deliberate trace-generation change)."""
    binary = build()
    totals = {}
    tmp = build_dir() / "record.bundle"
    for w in WORKLOADS:
        totals[w] = {}
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            cmd = [str(binary), "--workload", w, "--seed", str(seed),
                   "--prepare", "--bundle", str(tmp)]
            out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
            sets = json.loads(out.stdout.splitlines()[-1])["sets"]
            totals[w][str(seed)] = [[s["events"], s["instructions"]] for s in sets]
    tmp.unlink(missing_ok=True)
    lines = []
    for w, seeds in totals.items():
        rows = [f'    "{seed}": {json.dumps(sets)}' for seed, sets in seeds.items()]
        lines.append(f'  "{w}": {{\n' + ",\n".join(rows) + "\n  }")
    TOTALS_FILE.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {TOTALS_FILE}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steadiness", action="store_true")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seed-base", type=int, default=100)
    ap.add_argument("--record-totals", action="store_true")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail_usage("--seed must be >= 0 and --seconds >= 1")
    if args.record_totals:
        record_totals(args)
    elif args.steadiness:
        steadiness(args)
    elif args.workload is None:
        fail_usage("--workload is required")
    else:
        bench(args)


if __name__ == "__main__":
    main()
