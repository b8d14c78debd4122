"""CI perf gate: the suite's canonical performance baseline.

Runs the six suite benchmarks at a fixed scale through the optimizer
under an observability session and compares against the checked-in
``benchmarks/BENCH_BASELINE.json``:

- **counter/gauge/histogram metrics compare exactly** — they are pure
  functions of the algorithm (no timings ever enter the registry; see
  docs/OBSERVABILITY.md), so any drift means the optimizer's behaviour
  changed: more pairs examined, fewer branches eliminated, a cache that
  stopped hitting.  That is a correctness-adjacent regression even when
  wall clock looks fine.
- **wall time compares within a configurable tolerance**, and as a
  *calibrated ratio* rather than absolute seconds: each benchmark's
  best-of-N optimize time is divided by the time of a fixed pure-Python
  spin loop measured on the same machine in the same process, which
  cancels most of the hardware and interpreter-version variance between
  the laptop that wrote the baseline and the CI runner that checks it.

Usage::

    PYTHONPATH=src python benchmarks/perf_baseline.py --check
    PYTHONPATH=src python benchmarks/perf_baseline.py --update
    PYTHONPATH=src python benchmarks/perf_baseline.py --check \
        --tolerance 1.0 --trace perf_trace.jsonl

``--update`` rewrites the baseline (run it on purpose, review the diff,
commit it — see docs/OBSERVABILITY.md, "Re-baselining").  ``--trace``
writes the full span tree of the measured runs; the CI perf-gate job
uploads it as an artifact when the gate fails.
"""

import argparse
import json
import os
import sys
import time

from repro import obs
from repro.benchgen.suite import benchmark_names, load_benchmark
from repro.ir import lower_program
from repro.transform import ICBEOptimizer, OptimizerOptions

BASELINE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "BENCH_BASELINE.json")
SCALE = 4
BUDGET = 1000
LIMIT = 100
#: Best-of-N wall measurements (first iteration also warms caches).
REPEATS = 3
#: Allowed fractional increase of the calibrated wall ratio before the
#: gate fails (1.5 = may take up to 2.5x the baseline ratio).  Wide by
#: design: the ratio cancels machine speed, not scheduler noise.
DEFAULT_TOLERANCE = 1.5
BASELINE_VERSION = 1


def calibrate() -> float:
    """Seconds for a fixed pure-Python spin, best of three.

    The reference workload against which benchmark wall times are
    normalized; it runs in-process immediately before measuring, so the
    stored ``wall_ratio`` is roughly machine-independent.
    """
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        acc = 0
        for i in range(300_000):
            acc = (acc * 1103515245 + i) & 0xFFFFFFFF
        best = min(best, time.perf_counter() - started)
    return best


def measure(name: str, calibration_s: float):
    """One benchmark's (metrics snapshot, wall ratio, spans)."""
    icfg = lower_program(load_benchmark(name, scale=SCALE).program)
    best_wall = float("inf")
    snapshot = None
    spans = []
    for _ in range(REPEATS):
        with obs.suspended(), obs.session() as active:
            started = time.perf_counter()
            with obs.span("perf.benchmark", benchmark=name, scale=SCALE):
                ICBEOptimizer(OptimizerOptions(
                    duplication_limit=LIMIT)).optimize(icfg)
            best_wall = min(best_wall, time.perf_counter() - started)
        if snapshot is not None and active.metrics.snapshot() != snapshot:
            raise AssertionError(
                f"{name}: metrics differ between identical runs — the "
                f"registry is supposed to be deterministic")
        snapshot = active.metrics.snapshot()
        spans = active.export_spans()
    return snapshot, best_wall / calibration_s, best_wall, spans


#: The store counters the gate pins (its lifecycle fields — health,
#: evictions, orphan sweeps, I/O errors — are not access accounting).
STORE_ACCOUNTING = ("hits", "misses", "stores", "rejects")


def measure_store(calibration_s: float):
    """The summary-store pseudo-benchmark: a cold-then-warm analysis
    sweep over ``li_like`` with an on-disk store.

    The counters are the store's exact hit/miss/store accounting in
    each phase — behavioural drift (a key scheme change that stops
    hitting, an entry class that stops persisting) fails the gate even
    when wall clock looks fine.  The suite-scale warm-over-cold speedup
    gate lives in ``bench_parallel.py``.
    """
    import shutil
    import tempfile
    from repro.analysis import AnalysisConfig, analyze_branch
    from repro.analysis.context import AnalysisContext
    from repro.analysis.store import SummaryStore
    config = AnalysisConfig(budget=BUDGET)
    icfg = lower_program(load_benchmark("li_like", scale=SCALE).program)
    branch_ids = sorted(b.id for b in icfg.branch_nodes())
    best_wall = float("inf")
    snapshot = None
    spans = []
    for _ in range(REPEATS):
        root = tempfile.mkdtemp(prefix="icbe-perf-store-")
        try:
            with obs.suspended(), obs.session() as active:
                started = time.perf_counter()
                with obs.span("perf.benchmark", benchmark="summary_store",
                              scale=SCALE):
                    for phase in ("cold", "warm"):
                        context = AnalysisContext()
                        context.bind(icfg)
                        context.attach_store(SummaryStore(root, config))
                        with obs.span(f"store.sweep.{phase}"):
                            for branch_id in branch_ids:
                                analyze_branch(icfg, branch_id, config,
                                               context=context)
                        stats = context.store.stats.snapshot()
                        for key in STORE_ACCOUNTING:
                            obs.add(f"store.{phase}.{key}", stats[key])
                best_wall = min(best_wall, time.perf_counter() - started)
            if (snapshot is not None
                    and active.metrics.snapshot() != snapshot):
                raise AssertionError(
                    "summary_store: metrics differ between identical runs")
            snapshot = active.metrics.snapshot()
            spans = active.export_spans()
        finally:
            shutil.rmtree(root, ignore_errors=True)
    return snapshot, best_wall / calibration_s, best_wall, spans


def run_suite(trace_path=None):
    """Measure every benchmark; optionally write the combined trace."""
    calibration_s = calibrate()
    results = {}
    # All measured sessions share the process clock, so their spans can
    # be collected into one tracer (lane per benchmark) with no rebase.
    tracer = obs.Tracer()
    for name in benchmark_names():
        snapshot, ratio, wall_s, spans = measure(name, calibration_s)
        results[name] = {"metrics": snapshot,
                         "wall_ratio": round(ratio, 3),
                         "wall_s": round(wall_s, 4)}
        tracer.adopt(spans, origin=name)
    snapshot, ratio, wall_s, spans = measure_store(calibration_s)
    results["summary_store"] = {"metrics": snapshot,
                                "wall_ratio": round(ratio, 3),
                                "wall_s": round(wall_s, 4)}
    tracer.adopt(spans, origin="summary_store")
    if trace_path:
        from repro.obs.export import write_jsonl
        write_jsonl(trace_path, tracer.export(),
                    meta={"harness": "perf_baseline", "scale": SCALE,
                          "calibration_s": round(calibration_s, 6)})
        print(f"trace written to {trace_path}")
    return results, calibration_s


def check(results, baseline, tolerance: float) -> list:
    """Every gate violation as a human-readable string."""
    failures = []
    if baseline.get("version") != BASELINE_VERSION:
        return [f"baseline version {baseline.get('version')!r} != "
                f"{BASELINE_VERSION}; re-run with --update"]
    if baseline.get("scale") != SCALE:
        return [f"baseline scale {baseline.get('scale')!r} != {SCALE}; "
                f"re-run with --update"]
    recorded = baseline.get("benchmarks", {})
    for name, measured in results.items():
        expected = recorded.get(name)
        if expected is None:
            failures.append(f"{name}: not in baseline (re-run --update)")
            continue
        failures.extend(_diff_metrics(name, expected["metrics"],
                                      measured["metrics"]))
        allowed = expected["wall_ratio"] * (1.0 + tolerance)
        if measured["wall_ratio"] > allowed:
            failures.append(
                f"{name}: wall ratio {measured['wall_ratio']:.2f} exceeds "
                f"baseline {expected['wall_ratio']:.2f} "
                f"+{tolerance:.0%} tolerance (= {allowed:.2f})")
    for name in recorded:
        if name not in results:
            failures.append(f"{name}: in baseline but no longer measured")
    return failures


def _diff_metrics(name: str, expected: dict, measured: dict) -> list:
    """Exact comparison, reported per diverging metric (not as one blob)."""
    diffs = []
    for kind in ("counters", "gauges", "histograms"):
        want, got = expected.get(kind, {}), measured.get(kind, {})
        for key in sorted(set(want) | set(got)):
            if want.get(key) != got.get(key):
                diffs.append(f"{name}: {kind[:-1]} {key!r} = "
                             f"{got.get(key)!r}, baseline {want.get(key)!r}")
    return diffs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument("--check", action="store_true",
                        help="compare against BENCH_BASELINE.json")
    action.add_argument("--update", action="store_true",
                        help="rewrite BENCH_BASELINE.json from this machine")
    parser.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                        help="allowed fractional wall-ratio increase "
                             f"(default {DEFAULT_TOLERANCE})")
    parser.add_argument("--trace", default=None, metavar="FILE.jsonl",
                        help="write the measured runs' span tree as JSONL")
    args = parser.parse_args(argv)

    results, calibration_s = run_suite(trace_path=args.trace)
    for name, entry in results.items():
        counters = entry["metrics"]["counters"]
        print(f"{name:15s} wall {entry['wall_s']*1000:7.1f}ms "
              f"ratio {entry['wall_ratio']:6.2f}  "
              f"optimized {counters.get('optimize.optimized', 0)}  "
              f"pairs {counters.get('analysis.pairs_examined', 0)}")
    print(f"calibration: {calibration_s*1000:.1f}ms")

    if args.update:
        payload = {"version": BASELINE_VERSION, "scale": SCALE,
                   "budget": BUDGET, "duplication_limit": LIMIT,
                   "benchmarks": results}
        with open(BASELINE_PATH, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"baseline written to {BASELINE_PATH}")
        return 0

    if not os.path.exists(BASELINE_PATH):
        print(f"no baseline at {BASELINE_PATH}; run --update first",
              file=sys.stderr)
        return 1
    with open(BASELINE_PATH, "r", encoding="utf-8") as handle:
        baseline = json.load(handle)
    failures = check(results, baseline, args.tolerance)
    for failure in failures:
        print(f"PERF GATE: {failure}", file=sys.stderr)
    if failures:
        print(f"perf gate FAILED ({len(failures)} violation(s)); if the "
              f"change is intentional, re-baseline with --update",
              file=sys.stderr)
        return 1
    print("perf gate passed: metrics exact, wall ratios within "
          f"{args.tolerance:.0%} of baseline")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
