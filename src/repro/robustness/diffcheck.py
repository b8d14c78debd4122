"""Differential validation: original vs optimized observable behaviour.

The optimizer's correctness contract is semantic, not structural: the
verifier proves the graph is runnable, but only execution proves it
computes the same thing.  :func:`differential_check` runs the original
and the optimized ICFG over a shared battery of seeded workloads and
compares the :attr:`~repro.interp.machine.ExecutionResult.observable`
projections (status, exit value, output stream, fault message — the
semantics-defining portion; profiles and step counts are excluded on
purpose, since the whole point of the optimization is to change them).

The transactional optimizer runs this after every accepted transform
(and once more at pipeline end): a mismatch rolls the offending
conditional back instead of silently shipping a miscompile.  The
original's side of every one of those comparisons is the same — the
optimizer never mutates its input — so a run holds one
:class:`DiffReference`, which interprets the original once per
workload at the first check and compares each later candidate against
the recorded observables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro import obs
from repro.errors import DifferentialMismatch
from repro.interp.machine import DEFAULT_STEP_LIMIT, run_icfg
from repro.interp.workload import Workload
from repro.ir.icfg import ICFG
from repro.robustness.runtime import checkpoint


@dataclass
class DiffMismatch:
    """One workload on which the two graphs observably diverged."""

    workload_name: str
    workload_values: Tuple[int, ...]
    original: Tuple
    optimized: Tuple

    def describe(self) -> str:
        """One-line human-readable account of the divergence."""
        return (f"workload {self.workload_name or self.workload_values}: "
                f"original {self.original} != optimized {self.optimized}")


@dataclass
class DiffReport:
    """Outcome of one differential comparison."""

    runs: int = 0
    mismatches: List[DiffMismatch] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every workload produced identical observables."""
        return not self.mismatches

    def describe(self) -> str:
        """Summary suitable for logs and :class:`BranchRecord.failure`."""
        if self.ok:
            return f"differential check ok over {self.runs} workloads"
        lines = [m.describe() for m in self.mismatches]
        return (f"differential mismatch on {len(self.mismatches)} of "
                f"{self.runs} workloads: " + "; ".join(lines))


def seeded_workloads(seed: int = 0, runs: int = 3, length: int = 16,
                     low: int = 0, high: int = 8) -> List[Workload]:
    """The default battery: the empty stream plus ``runs`` seeded ones.

    Values are non-negative by default: idiomatic MiniC programs treat 0
    and negatives as end-of-file sentinels, and a sentinel-free endless
    stream can stop such programs from ever terminating — which would
    turn every differential run into a step-limit crawl.
    """
    loads = [Workload([], name="empty")]
    for index in range(runs):
        loads.append(Workload.random(length, low=low, high=high,
                                     seed=seed + index,
                                     name=f"seeded-{seed + index}"))
    return loads


class DiffReference:
    """The original program's side of differential validation.

    Holds the workload battery and, from the first :meth:`check` on,
    the original's observables over it.  Those are computed lazily and
    then reused by every later check, which is sound only while the
    original is not mutated: create one reference per optimizer run
    (whose input is never mutated) and let it go with the run, since it
    keeps the original graph alive.
    """

    def __init__(self, original: ICFG,
                 workloads: Optional[List[Workload]] = None,
                 seed: int = 0, runs: int = 3, length: int = 16,
                 step_limit: int = DEFAULT_STEP_LIMIT) -> None:
        self.original = original
        self.workloads = (workloads if workloads is not None
                          else seeded_workloads(seed, runs, length))
        self.step_limit = step_limit
        self._observables: Optional[List[Tuple]] = None

    def check(self, optimized: ICFG) -> DiffReport:
        """Compare ``optimized``'s observables against the original's.

        ``optimized`` is not mutated; workloads are re-wound via
        ``fresh``, so one battery serves every check."""
        with obs.span("robustness.diffcheck",
                      workloads=len(self.workloads)) as span:
            checkpoint("diffcheck:run")
            first = self._observables is None
            if first:
                self._observables = [
                    run_icfg(self.original, workload.fresh(),
                             step_limit=self.step_limit).observable
                    for workload in self.workloads]
            span.set(reference_runs=len(self.workloads) if first else 0)
            report = DiffReport(runs=len(self.workloads))
            for workload, before in zip(self.workloads, self._observables):
                after = run_icfg(optimized, workload.fresh(),
                                 step_limit=self.step_limit).observable
                if before != after:
                    report.mismatches.append(DiffMismatch(
                        workload_name=workload.name,
                        workload_values=tuple(workload.values),
                        original=before, optimized=after))
        return report


def differential_check(original: ICFG, optimized: ICFG,
                       workloads: Optional[List[Workload]] = None,
                       seed: int = 0, runs: int = 3, length: int = 16,
                       step_limit: int = DEFAULT_STEP_LIMIT) -> DiffReport:
    """Compare observable traces of ``original`` vs ``optimized`` once
    (a one-shot :class:`DiffReference`).

    Neither graph is mutated; workloads are re-wound via ``fresh`` so a
    caller-supplied battery can be reused across calls.
    """
    return DiffReference(original, workloads, seed, runs, length,
                         step_limit).check(optimized)


def require_equivalent(original: ICFG, optimized: ICFG,
                       **kwargs) -> DiffReport:
    """:func:`differential_check` that raises on any divergence."""
    report = differential_check(original, optimized, **kwargs)
    if not report.ok:
        raise DifferentialMismatch(report.describe())
    return report
