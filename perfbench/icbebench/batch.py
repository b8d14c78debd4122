"""The ``batch`` workload: ``run_batch`` over the frozen scale-4 suite.

The six scale-4 programs are written as ``.mc`` files and run through
``repro.robustness.supervisor.run_batch`` with two parallel jobs and
otherwise default options (differential check on, duplication limit
100), each pass into a fresh run directory.  That exercises
fork-per-attempt supervision, the fsynced journal, and the differential
check on programs that are mostly dead code.  Times are scaled to the
reference host by a :class:`~icbebench.common.SampledClock` running
beside the passes.
"""

from __future__ import annotations

import gc
import json
import os
import time
from collections import defaultdict
from statistics import median
from typing import Dict, List

from icbebench import frozen, layers
from icbebench.common import SETUP_REPEATS, Result, SampledClock
from icbebench.compile import rescore
from repro import obs
from repro.robustness.supervisor import (TELEMETRY_NAME, SupervisorOptions,
                                         run_batch)

JOBS = 2


def _write_inputs(directory: str,
                  programs: List[frozen.Program]) -> List[str]:
    os.makedirs(directory)
    paths = []
    for program in programs:
        path = os.path.join(directory, f"{program.name}.mc")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(program.text)
        paths.append(path)
    return paths


def _measure(result: Result, sources: List[str], seed: int,
             seconds: float, tag: str):
    """``run_batch`` passes until ``seconds`` are spent (at least one).

    Returns each pass's time, each job's attempt seconds per pass (both
    in reference-host seconds, see :class:`SampledClock`), the peak
    worker RSS in KiB, the latter two read from ``telemetry.jsonl``, and
    the scale to the reference host.  A pass gives one pass time but six
    job times, so the slowest job is judged by its median over the
    passes, as ``dense`` judges each program.
    """
    expected = {f"{name}.mc": entry["counts"] for name, entry
                in frozen.load_manifest()["batch"].items()}
    walls, rss = [], []
    job_s: Dict[str, List[float]] = defaultdict(list)
    deadline = time.perf_counter() + seconds
    with SampledClock() as clock:
        while not walls or time.perf_counter() < deadline:
            run_dir = f"run-{tag}{len(walls)}"
            gc.collect()
            started = time.perf_counter()
            report = run_batch(sources, run_dir, SupervisorOptions(
                jobs=JOBS, seed=seed))
            walls.append(time.perf_counter() - started)
            result.attempted += len(sources)
            for outcome in report.outcomes:
                if (outcome.status != "OK" or outcome.tier != 0
                        or outcome.counts != expected.get(outcome.job)):
                    result.fail(f"{outcome.job}: {outcome.status} tier "
                                f"{outcome.tier} {outcome.reason} "
                                f"counts {outcome.counts}")
            with open(os.path.join(run_dir, TELEMETRY_NAME), "r",
                      encoding="utf-8") as handle:
                telemetry = [json.loads(line) for line in handle]
            per_job: Dict[str, float] = defaultdict(float)
            for record in telemetry:
                per_job[record["job"]] += record["wall_s"]
            for job, spent in per_job.items():
                job_s[job].append(spent)
            rss.append(max(t["peak_rss_kb"] for t in telemetry))
    scale = clock.factor()
    return ([wall * scale for wall in walls],
            {job: [spent * scale for spent in values]
             for job, values in job_s.items()},
            rss, scale)


def run(seed: int, seconds: float, trace: bool, work_dir: str) -> Result:
    result = Result()
    # Jobs are named by paths relative to the work directory: the
    # supervisor derives each job's differential-check seed from its
    # path, so absolute paths would make the work vary with the
    # checkout's location.
    previous_cwd = os.getcwd()
    os.chdir(work_dir)
    try:
        setups = []
        for attempt in range(SETUP_REPEATS):
            started = time.perf_counter()
            programs = frozen.read_tier("suite4", frozen.load_manifest())
            sources = _write_inputs(f"inputs-{attempt}", programs)
            setups.append(time.perf_counter() - started)
        walls, job_s, rss, scale = _measure(result, sources, seed,
                                            seconds, "")
        result.metrics.update({
            "wait_s": median(walls),
            "wait_tail_s": max(median(v) for v in job_s.values()),
            "ops_per_s": len(walls) * len(sources) / sum(walls),
            "setup_s": median(setups) * scale,
            "peak_rss_mb": max(rss) / 1024.0,
        })
        if trace:
            result.layers = _traced(result, sources, seed, seconds,
                                    median(walls))
    finally:
        os.chdir(previous_cwd)

    manifest = frozen.load_manifest()
    rescore(result, programs, {name: entry["counts"] for name, entry
                               in manifest["batch"].items()},
            frozen.battery_inputs(seed))
    result.metrics["ok_frac"] = 1.0 - result.failed / result.attempted
    result.report_as(batch_s="wait_s", setup_s="setup_s",
                     peak_rss_mb="peak_rss_mb",
                     code_size_ratio="code_size_ratio",
                     optimized_frac="optimized_frac",
                     failed_frac="ok_frac")
    result.report.append(("host_slowdown", 1.0 / scale, "ratio"))
    return result


def _traced(result: Result, sources: List[str], seed: int, seconds: float,
            untraced_s: float) -> dict:
    """Passes under an observability session with the layer wrappers
    installed; forked workers inherit both, and the supervisor adopts
    their spans under each ``batch.attempt``."""
    layers.install()
    try:
        with obs.session() as active:
            walls, _, _, _ = _measure(result, sources, seed, seconds,
                                      "traced-")
    finally:
        layers.uninstall()
    spans = active.export_spans()
    metrics = layers.layer_metrics(spans, active.metrics.snapshot()[
        "counters"], ["batch.attempt"], units=len(walls))
    attempts = [s["dur_s"] for s in spans if s["name"] == "batch.attempt"]
    metrics.update({
        "robustness.batch_attempt_s": sum(attempts) / len(walls),
        "robustness.batch_attempts": len(attempts) / len(walls),
        "trace_overhead_frac": median(walls) / untraced_s - 1.0,
    })
    return metrics
