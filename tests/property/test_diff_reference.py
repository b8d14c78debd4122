"""Differential validation interprets the input once per optimizer run.

``optimize()`` never mutates its input, so the original program's side
of every differential check in a run is the same: the run's
:class:`~repro.robustness.diffcheck.DiffReference` interprets it once
per battery workload, at the first check, and reuses the observables.
Here that run is compared with one whose reference forgets after every
check (the old behaviour, re-interpreting the input each time), over
random programs and fault plans — ``diffcheck:run`` raises, semantic
corruption (``skew-print``) that only the check can catch, and
fault-free runs.  Graphs, records, diagnostics and every metric outside
``interp.*`` must be identical, and the input must be interpreted
exactly once per workload.
"""

from contextlib import contextmanager
from unittest import mock

from hypothesis import given, settings, strategies as st

from repro import obs
from repro.analysis import AnalysisConfig
from repro.benchgen import GeneratorOptions, generate_program
from repro.ir import dump_icfg, lower_program
from repro.robustness import FaultPlan, FaultSpec, diffcheck
from repro.robustness.diffcheck import DiffReference, seeded_workloads
from repro.transform import ICBEOptimizer, OptimizerOptions

OPTIONS = GeneratorOptions(procedures=3, statements_per_proc=7)
WORKLOADS = len(seeded_workloads())

fault_specs = st.one_of(
    st.builds(FaultSpec, site=st.just("diffcheck:run"),
              hit=st.integers(1, 4), action=st.just("raise")),
    st.builds(FaultSpec,
              site=st.sampled_from(("transform:split",
                                    "pipeline:branch-start")),
              hit=st.integers(1, 4), action=st.just("skew-print"),
              seed=st.integers(0, 99)))


@contextmanager
def forgetful_reference():
    """Make every reference forget the original's observables after
    each check, so each check interprets the original again."""
    real_check = DiffReference.check

    def check(self, optimized):
        try:
            return real_check(self, optimized)
        finally:
            self._observables = None

    with mock.patch.object(DiffReference, "check", check):
        yield


def optimize(icfg, specs, budget):
    """One diff-checked run: its comparable result, how often the input
    was interpreted, and the run's ``robustness.diffcheck`` spans."""
    original_runs = []
    real_run = diffcheck.run_icfg

    def counting_run(graph, *args, **kwargs):
        if graph is icfg:
            original_runs.append(graph)
        return real_run(graph, *args, **kwargs)

    with mock.patch.object(diffcheck, "run_icfg", counting_run), \
            obs.session() as session:
        report = ICBEOptimizer(OptimizerOptions(
            config=AnalysisConfig(budget=budget), diff_check=True,
            duplication_limit=100,
            fault_plan=FaultPlan(list(specs)))).optimize(icfg)
    metrics = {kind: {name: value for name, value in table.items()
                      if not name.startswith("interp.")}
               for kind, table in session.metrics.snapshot().items()}
    bundles = [(b.branch_id, b.phase, b.failure, b.icfg_dump,
                b.diff.describe() if b.diff is not None else None)
               for b in report.diagnostics]
    result = (dump_icfg(report.optimized), report.records, bundles, metrics)
    spans = [span for span in session.export_spans()
             if span["name"] == "robustness.diffcheck"]
    return result, len(original_runs), spans


@given(seed=st.integers(0, 4_000),
       specs=st.lists(fault_specs, max_size=2),
       budget=st.sampled_from((80, 10_000)))
@settings(max_examples=12, deadline=None)
def test_interpreting_the_input_once_changes_nothing(seed, specs, budget):
    icfg = lower_program(generate_program(seed, OPTIONS))
    once, once_runs, once_spans = optimize(icfg, specs, budget)
    with forgetful_reference():
        again, again_runs, again_spans = optimize(icfg, specs, budget)
    assert once == again
    # Every check opens a span; checks that got past the fault site
    # record how many reference runs they made.
    assert len(once_spans) == len(again_spans) >= 1
    compared = [s for s in once_spans if "reference_runs" in s["attrs"]]
    assert all(s["attrs"]["workloads"] == WORKLOADS for s in once_spans)
    assert [s["attrs"]["reference_runs"] for s in compared] == (
        [WORKLOADS] + [0] * (len(compared) - 1) if compared else [])
    assert once_runs == (WORKLOADS if compared else 0)
    assert again_runs == WORKLOADS * len(compared)


def test_a_run_with_many_checks_interprets_the_input_once_per_workload():
    icfg = lower_program(generate_program(4, OPTIONS))
    _, runs, spans = optimize(icfg, (), 10_000)
    assert len(spans) > 5  # one per optimized conditional, plus the final
    assert runs == WORKLOADS
