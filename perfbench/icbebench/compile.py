"""The ``dense`` and ``suite8`` workloads: compile in this process.

One operation is one program taken from source text to emitted graph —
``parse_program`` → ``lower_program`` → ``ICBEOptimizer.optimize``
(final validation included) → ``dump_icfg`` — with duplication limit
100 and no differential check, as ``icbe optimize`` runs it.  A pass
compiles every program of the workload once; passes repeat until the
run's seconds are spent.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass
from statistics import median
from typing import Dict, List

from icbebench import frozen, layers
from icbebench.common import (SETUP_REPEATS, ReferenceClock, Result,
                              geomean, own_peak_rss_mb)
from icbebench.oracle import check_program
from repro import obs
from repro.ir import lower_program
from repro.ir.printer import dump_icfg
from repro.lang.parser import parse_program
from repro.transform import ICBEOptimizer, OptimizerOptions

#: The per-conditional duplication limit of ``icbe batch`` and
#: ``icbe serve``, so all workloads optimize alike.
DUPLICATION_LIMIT = 100
#: Conditional outcomes that count against ``cond_ok_frac``.
FAILED_OUTCOMES = ("failed", "transform-failed", "rolled-back")


@dataclass
class Compiled:
    """One program's compile: its input graph, report and emitted text."""

    program: frozen.Program
    original: object
    report: object
    dump: str


def compile_text(program: frozen.Program) -> Compiled:
    original = lower_program(parse_program(program.text))
    report = ICBEOptimizer(OptimizerOptions(
        duplication_limit=DUPLICATION_LIMIT)).optimize(original)
    return Compiled(program, original, report, dump_icfg(report.optimized))


def load_programs(kind: str, seed: int) -> List[frozen.Program]:
    manifest = frozen.load_manifest()
    if kind == "dense":
        return frozen.dense_programs(seed, manifest)
    return frozen.read_tier("suite8", manifest)


def score(result: Result, compiled: List[Compiled],
          battery: List[List[int]]) -> None:
    """Run the output oracle on each compile and add the optimizer
    quality metrics: the paper's benefit (executed conditionals), its
    cost (code size), and how many conditionals were optimized or
    failed."""
    if not compiled:
        return
    executed_ratios, size_ratios = [], []
    optimized = conditionals = outcomes = failed_outcomes = 0
    for entry in compiled:
        mismatches, executed = check_program(
            entry.program.name, entry.original, entry.report.optimized,
            entry.program.record, battery)
        if mismatches:
            result.fail(*mismatches)
        report = entry.report
        executed_ratios.append(
            executed / entry.program.record["ref_conditionals"])
        size_ratios.append(report.nodes_after / report.nodes_before)
        optimized += report.optimized_count
        conditionals += report.conditionals_before
        counts = report.outcome_counts()
        outcomes += sum(counts.values())
        failed_outcomes += sum(counts.get(k, 0) for k in FAILED_OUTCOMES)
    result.metrics["dyn_cond_ratio"] = geomean(executed_ratios)
    result.metrics["code_size_ratio"] = geomean(size_ratios)
    result.metrics["optimized_frac"] = optimized / conditionals
    result.metrics["cond_ok_frac"] = 1.0 - failed_outcomes / outcomes


def rescore(result: Result, programs: List[frozen.Program],
            expected: Dict[str, dict], battery: List[List[int]]) -> None:
    """The paper's metrics for programs another process optimized
    (``serve``, ``batch``), whose users never see the optimized graph:
    optimize them here too (untimed), require the counts that process
    returned, and :func:`score` the result."""
    compiled = []
    for program in programs:
        entry = compile_text(program)
        report = entry.report
        counts = {"conditionals": report.conditionals_before,
                  "nodes_before": report.nodes_before,
                  "optimized": report.optimized_count,
                  "failed": report.failed_count,
                  "rolled_back": report.rolled_back_count,
                  "nodes_after": report.nodes_after}
        if counts != expected[program.name]:
            result.fail(f"{program.name}: in-process counts {counts} "
                        f"differ from the returned {expected[program.name]}")
        compiled.append(entry)
    score(result, compiled, battery)


def _measure(result: Result, programs: List[frozen.Program],
             seconds: float, clock: ReferenceClock, root_span: str = ""):
    """Compile passes until ``seconds`` are spent (at least one).

    Returns each program's median compile time over the passes, in
    reference-host seconds, the last pass's compiles and the number of
    passes.  Every pass must emit the same graphs.  Only one pass's
    compiles are held at a time, so the peak resident set does not
    depend on how many passes the machine's speed allowed.  The
    per-program median, summed, is the pass time: on a shared machine
    whose speed changes from one second to the next, it is steadier
    than the time of any one pass.
    """
    times: Dict[str, List[float]] = {p.name: [] for p in programs}
    done: List[Compiled] = []
    reference = None
    passes = 0
    deadline = time.perf_counter() + seconds
    while reference is None or time.perf_counter() < deadline:
        passes += 1
        done = []
        gc.collect()
        clock.start()
        for program in programs:
            result.attempted += 1
            try:
                if root_span:
                    with obs.span(root_span, program=program.name):
                        done.append(compile_text(program))
                else:
                    done.append(compile_text(program))
            except Exception as failure:  # one failed compile, keep going
                clock.stop()
                result.fail(f"{program.name}: compile raised "
                            f"{type(failure).__name__}: {failure}")
                continue
            times[program.name].append(clock.stop())
        dumps = [c.dump for c in done]
        if reference is not None and dumps != reference:
            result.fail("emitted graphs differ between passes")
        reference = dumps
    medians = {name: median(values) for name, values in times.items()
               if values}
    return medians, done, passes


def run(kind: str, seed: int, seconds: float, trace: bool) -> Result:
    result = Result()
    clock = ReferenceClock()
    setups = []
    for _ in range(SETUP_REPEATS):
        clock.start()
        programs = load_programs(kind, seed)
        setups.append(clock.stop())
    battery = frozen.battery_inputs(seed)

    medians, compiled, _ = _measure(result, programs, seconds, clock)
    compile_s = sum(medians.values())
    result.metrics.update({
        "wait_s": compile_s,
        "wait_tail_s": max(medians.values()),
        "ops_per_s": len(medians) / compile_s,
        "setup_s": median(setups),
        "peak_rss_mb": own_peak_rss_mb(),
    })
    if trace:
        layers.install()
        try:
            with obs.session() as active:
                traced, _, passes = _measure(
                    result, programs, seconds, ReferenceClock(),
                    root_span="bench.program")
        finally:
            layers.uninstall()
        result.layers = layers.layer_metrics(
            active.export_spans(), active.metrics.snapshot()["counters"],
            ["bench.program"], units=passes)
        result.layers["trace_overhead_frac"] = (
            sum(traced.values()) / compile_s - 1.0)
    # The output check runs untimed and untraced: its interpretation is
    # not part of a compile.
    score(result, compiled, battery)
    result.metrics["ok_frac"] = 1.0 - result.failed / result.attempted
    result.report_as(compile_s="wait_s", setup_s="setup_s",
                     peak_rss_mb="peak_rss_mb",
                     dyn_cond_ratio="dyn_cond_ratio",
                     code_size_ratio="code_size_ratio",
                     optimized_frac="optimized_frac",
                     cond_failed_frac="cond_ok_frac",
                     failed_frac="ok_frac")
    result.report.append(("host_slowdown", clock.slowdown(), "ratio"))
    return result
