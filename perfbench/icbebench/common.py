"""Shared result shape and statistics of the benchmark's workloads."""

from __future__ import annotations

import gc
import math
import os
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from statistics import median
from typing import Dict, List, Optional, Sequence, Tuple

from icbebench.kernel import kernel_seconds

#: How many times each run sets its workload up; ``setup_s`` is the
#: median.
SETUP_REPEATS = 5


@dataclass
class Result:
    """What one workload run measured and checked."""

    attempted: int = 0
    failed: int = 0
    #: One line per failed check (output mismatch, refused request,
    #: drifted input); any entry makes the run incorrect.
    problems: List[str] = field(default_factory=list)
    #: The metrics of the final JSON line, by BENCHMARK.json name.
    metrics: Dict[str, float] = field(default_factory=dict)
    #: Per-layer metrics of a traced run, by BENCHMARK.json name.
    layers: Dict[str, float] = field(default_factory=dict)
    #: Human-readable report lines: (name, value, unit).
    report: List[Tuple[str, float, str]] = field(default_factory=list)

    def fail(self, problem: str, *details: str) -> None:
        """Count one failed operation; ``details`` are further lines
        about the same operation (every mismatch of one program)."""
        self.failed += 1
        self.problems.append(problem)
        self.problems.extend(details)

    def report_as(self, **aliases: str) -> None:
        """Add report lines under the names the workload's users know
        (``compile_s``, ``request_s_p90``, ...) for metrics the final
        JSON line carries under workload-neutral names."""
        for name, metric in aliases.items():
            if metric not in self.metrics:
                continue
            value = self.metrics[metric]
            if name in _COMPLEMENTS:
                value = 1.0 - value
            self.report.append((name, value, unit_of(name)))


#: Report names whose value is one minus the metric they alias
#: (``failed_frac`` = 1 - ``ok_frac``).
_COMPLEMENTS = ("failed_frac", "cond_failed_frac")


def unit_of(name: str) -> str:
    """The unit a metric's name implies."""
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("_s") or "_s_" in name:
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("_frac", "_ratio", "per_attempt")):
        return "ratio"
    return "count"


def percentile(values: Sequence[float], share: float) -> float:
    """Nearest-rank percentile (``share`` in (0, 1])."""
    ordered = sorted(values)
    rank = max(1, math.ceil(share * len(ordered)))
    return ordered[rank - 1]


def geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def own_peak_rss_mb() -> float:
    """This process's peak resident set so far, in MiB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":
        peak //= 1024
    return peak / 1024.0


#: Seconds one run of the calibration kernel (``icbebench/kernel.py``)
#: takes on the reference host (a quiet 2-core x86-64 VM, CPython 3.11).
#: The clocks below report times at that host's speed.
REFERENCE_KERNEL_S = 0.05


class ReferenceClock:
    """Times work done in this process in reference-host seconds.

    The machine the benchmark runs on is shared, and its speed swings by
    up to 3x over seconds to minutes; process CPU time swings with it
    (the slow spells are contention, not stolen time).  So the clock
    brackets each interval by runs of the kernel on the same thread and
    scales the interval by :data:`REFERENCE_KERNEL_S` over the mean
    kernel time of its two ends.
    """

    def __init__(self) -> None:
        #: Every kernel time taken.
        self.samples: List[float] = []
        self._kernel_s: Optional[float] = None
        self._started = 0.0

    def _sample(self) -> float:
        # The collector is off meanwhile, so the kernel's time does not
        # depend on how much the compiles left on the heap.
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            self.samples.append(kernel_seconds())
        finally:
            if was_enabled:
                gc.enable()
        return self.samples[-1]

    def start(self) -> None:
        """Begin an interval."""
        self._kernel_s = self._sample()
        self._started = time.perf_counter()

    def stop(self) -> float:
        """End the interval and begin the next; returns the interval in
        reference-host seconds."""
        elapsed = time.perf_counter() - self._started
        if self._kernel_s is None:
            raise RuntimeError("ReferenceClock.stop() before start()")
        kernel_s = self._sample()
        factor = 2.0 * REFERENCE_KERNEL_S / (self._kernel_s + kernel_s)
        self._kernel_s = kernel_s
        self._started = time.perf_counter()
        return elapsed * factor

    def slowdown(self) -> float:
        """How much slower than the reference host this run found the
        machine (median kernel time over the reference)."""
        return median(self.samples) / REFERENCE_KERNEL_S


class SampledClock:
    """Scales times of work done in other processes to the reference
    host, for the length of a ``with`` block.

    While the block runs, a sampler process (``icbebench/kernel.py``)
    runs the kernel about once a second, beside the work; times
    measured in the block are scaled by :data:`REFERENCE_KERNEL_S` over
    the median kernel time.  The kernel is timed in CPU time, so the
    time it waits for a processor while the work's own processes run
    is not counted, and the scale does not follow the load of the
    program under test.  The kernel timed next to the work tracks the
    work's speed: in a trial of five ``serve`` and five ``batch`` runs
    on a shared 2-core VM, with the kernel in a thread of the benchmark,
    its time varied by 1.8x and correlated with the workloads' times at
    0.8 to 0.99 (in magnitude).  Kernel runs taken only while the work
    paused did not track it.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._process: Optional[subprocess.Popen] = None

    def __enter__(self) -> "SampledClock":
        self._process = subprocess.Popen(
            [sys.executable, os.path.join(os.path.dirname(
                os.path.abspath(__file__)), "kernel.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        return self

    def __exit__(self, *exc_info) -> None:
        # Closing its input stops the sampler after its current run.
        output, _ = self._process.communicate(timeout=60)
        self.samples = [float(line) for line in output.split()]
        if self._process.returncode != 0 or not self.samples:
            raise RuntimeError(f"kernel sampler exited "
                               f"{self._process.returncode} after "
                               f"{len(self.samples)} samples")

    def factor(self) -> float:
        """Reference over the median kernel time."""
        return REFERENCE_KERNEL_S / median(self.samples)
