"""The optimizer's pass pipeline: passes, transactions, invalidation.

:class:`~repro.transform.pipeline.ICBEOptimizer` used to be one inline
loop; it is now a :class:`PassManager` running a fixed sequence of
passes over a :class:`PipelineState`:

1. :class:`RestructurePass` — one transaction per conditional:
   analyze, gate, split, eliminate, remove unreachable, verify; adopt
   or roll back.
2. :class:`SimplifyPass` — end-of-run nop compaction, as its own
   transaction.
3. :class:`FinalValidatePass` — full structural verification (never
   scoped) plus the optional differential check; a violation rolls the
   whole run back to a pristine clone of the input.

Each pass declares which cached analyses of the shared
:class:`~repro.analysis.context.AnalysisContext` it *preserves*.  After
a committed transaction the context invalidates only cache entries
reaching the procedures the transform dirtied (minus the preserved
analyses); a rollback invalidates nothing, because rolling back also
restores the generation the caches are keyed to.

With the context enabled (the default) a transaction's rollback point
is an undo-log mark of the live graph (:meth:`~repro.ir.icfg.ICFG.
begin`), not a full copy, so its cost scales with the edit.  The
transaction gets three structural shortcuts, none of which may change
outcomes:

- **snapshot reuse** — a new mark is begun only when the graph's
  generation moved past the last one (i.e. after a commit), instead of
  once per conditional; the counters keep their snapshot names;
- **restore elision** — a failed or fruitless transaction only rolls
  the log back when the live graph actually mutated (injected
  corruption marks the graph dirty, so this is generation-checked).  A
  real rollback undoes the log and then puts dict and predecessor-list
  order back the way a snapshot restore would, so both modes continue
  from the same graph;
- **analysis reuse / clone elision** — the conditional is first
  analyzed *in place* on the live graph (consulting the summary cache);
  verdicts that cannot lead to restructuring (not analyzable, provably
  no correlation) are recorded without ever cloning the graph.  A
  conditional that shows correlation is restructured in place from a
  fresh, cache-independent analysis — reusing the in-place analysis
  directly when it had no cache hits and no budget truncation,
  re-analyzing otherwise — because the splitter must see every
  callee-internal pair, which a cache-assisted analysis skipped.

Cache-off (``OptimizerOptions.analysis_cache=False``) keeps the
original per-branch behaviour — full-copy
:class:`~repro.robustness.snapshot.ICFGSnapshot`, clone, fresh
analysis, full verification, unconditional restore — which is exactly
what makes it the honest A/B baseline for ``--no-analysis-cache``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Union

from repro import obs
from repro.analysis.context import AnalysisContext
from repro.analysis.driver import analyze_branch
from repro.errors import DifferentialMismatch
from repro.ir.icfg import ICFG, Mark
from repro.ir.simplify import simplify_nops
from repro.ir.verify import verify_icfg
from repro.robustness.diffcheck import DiffReference, DiffReport
from repro.robustness.guards import ResourceGuard
from repro.robustness.runtime import checkpoint, robustness_context
from repro.robustness.snapshot import ICFGSnapshot
from repro.transform.restructure import (BranchOutcome, RestructureResult,
                                         restructure_branch)


@dataclass
class PipelineState:
    """Everything a pass may read or advance during one optimizer run."""

    optimizer: "ICBEOptimizer"
    original: ICFG
    current: ICFG
    report: "OptimizationReport"
    context: AnalysisContext
    done: Set[int] = field(default_factory=set)
    #: copy id -> original id, composed across transformations, so the
    #: profile-guided benefit gate keeps working on copies.
    origin: Dict[int, int] = field(default_factory=dict)
    gate_profile: Optional[object] = None
    growth_cap: Optional[int] = None
    #: Where the open transaction rolls back to: an undo-log mark of
    #: the live graph with the context on, a full-copy snapshot off.
    snapshot: Optional[Union[Mark, ICFGSnapshot]] = None
    #: The input's side of differential validation (None with the
    #: check off); it lives and dies with the run.
    reference: Optional[DiffReference] = None

    @property
    def options(self):
        return self.optimizer.options

    # -- transaction discipline ----------------------------------------------

    def fresh_snapshot(self) -> Union[Mark, ICFGSnapshot]:
        obs.add("transform.snapshots_taken")
        if self.options.analysis_cache:
            self.snapshot = self.current.begin()
        else:
            self.snapshot = ICFGSnapshot.take(self.current)
        return self.snapshot

    def ensure_snapshot(self) -> Union[Mark, ICFGSnapshot]:
        """A rollback point matching the live graph's generation,
        reusing the previous one when nothing mutated since it was
        taken."""
        if (self.snapshot is not None
                and self.snapshot.generation == self.current.generation):
            self.context.stats.snapshot_reuses += 1
            if (isinstance(self.snapshot, Mark)
                    and not self.current.holds(self.snapshot)):
                # Same state, but a commit closed the log it marks.
                self.snapshot = self.current.begin()
            return self.snapshot
        return self.fresh_snapshot()

    def heal(self, snapshot: Union[Mark, ICFGSnapshot]) -> None:
        """Return the live graph to ``snapshot`` (no bookkeeping)."""
        if isinstance(snapshot, Mark):
            self.current.rollback(snapshot)
        else:
            self.current = snapshot.restore()

    def restore(self, snapshot: Union[Mark, ICFGSnapshot]) -> None:
        """Roll the live graph back to ``snapshot``.

        With the context enabled, a restore is elided when the graph's
        generation never moved past the snapshot — nothing was mutated
        (corruption faults bump the generation, so they always force
        the real restore).  Cache-off keeps the original unconditional
        restore."""
        if (self.options.analysis_cache
                and self.current.generation == snapshot.generation):
            self.context.stats.restores_elided += 1
            return
        obs.add("transform.rollbacks")
        self.heal(snapshot)
        self.context.rollback(self.current)

    def commit(self, preserves: FrozenSet[str]) -> None:
        """Adopt the live graph's new state, invalidating cached
        analyses that reach its dirty procedures."""
        self.current.commit()
        self.context.commit(self.current, preserves=preserves)


class Pass:
    """One pipeline stage.  ``preserves`` names the cached analyses of
    the shared context that stay valid across this pass's committed
    mutations (see :class:`~repro.analysis.context.AnalysisContext`)."""

    name: str = "pass"
    preserves: FrozenSet[str] = frozenset()

    def run(self, state: PipelineState) -> None:
        raise NotImplementedError


class PassManager:
    """Runs passes in order over one shared :class:`PipelineState`."""

    def __init__(self, passes: List[Pass]) -> None:
        self.passes = list(passes)

    def run(self, state: PipelineState) -> PipelineState:
        for pass_ in self.passes:
            with obs.span(f"pass.{pass_.name}"):
                pass_.run(state)
        return state


# ---------------------------------------------------------------------------
# The per-branch restructuring pass.
# ---------------------------------------------------------------------------


class RestructurePass(Pass):
    """Per-conditional restructuring, one transaction per conditional."""

    name = "restructure"
    # Committed splits invalidate by dirty procedures (the context does
    # the per-entry reachability math); nothing is preserved wholesale.
    preserves: FrozenSet[str] = frozenset()

    def run(self, state: PipelineState) -> None:
        while True:
            pending = self._pending(state)
            if not pending:
                break
            if (state.growth_cap is not None
                    and state.current.node_count() > state.growth_cap):
                break
            branch_id = pending[0]
            state.done.add(branch_id)
            self._transact(state, branch_id)

    def _pending(self, state: PipelineState) -> List[int]:
        if state.options.analysis_cache:
            ids = state.context.branch_ids(state.current)
        else:
            ids = [b.id for b in state.current.branch_nodes()]
        return [bid for bid in ids if bid not in state.done]

    def _transact(self, state: PipelineState, branch_id: int) -> None:
        with obs.span("transform.branch", branch=branch_id) as obs_span:
            self._transact_traced(state, branch_id, obs_span)

    def _transact_traced(self, state: PipelineState, branch_id: int,
                         obs_span) -> None:
        from repro.transform.pipeline import BranchRecord

        opts = state.options
        optimizer = state.optimizer
        if opts.analysis_cache:
            snapshot = state.ensure_snapshot()
        else:
            snapshot = state.fresh_snapshot()
        guard = ResourceGuard(deadline_s=opts.deadline_s,
                              max_nodes=optimizer._node_cap(snapshot))
        diff: Optional[DiffReport] = None
        try:
            with guard, robustness_context(guard=guard,
                                           plan=opts.fault_plan):
                checkpoint("pipeline:branch-start", state.current)
                if (opts.analysis_cache
                        and state.current.generation != snapshot.generation):
                    # A fault corrupted the live graph at the checkpoint
                    # (corruption marks it dirty): heal before analyzing
                    # rather than poisoning this conditional's verdict.
                    state.heal(snapshot)
                result = self._attempt(state, branch_id, snapshot)
                if result.applied and state.reference is not None:
                    assert result.new_icfg is not None
                    diff = state.reference.check(result.new_icfg)
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception as failure:
            if opts.strict:
                raise
            state.restore(snapshot)
            state.report.records.append(BranchRecord(
                branch_id=branch_id, outcome=BranchOutcome.FAILED,
                failure=f"{type(failure).__name__}: {failure}"))
            optimizer._diagnose(state.report, branch_id, "restructure",
                                exc=failure, icfg=state.current)
            obs_span.set(outcome=BranchOutcome.FAILED.value)
            obs.add("transform.outcome.failed")
            return

        record = optimizer._record(result)
        adopted = False
        if result.applied:
            assert result.new_icfg is not None
            if diff is not None and not diff.ok:
                if opts.strict:
                    raise DifferentialMismatch(diff.describe())
                record.outcome = BranchOutcome.ROLLED_BACK
                record.failure = diff.describe()
                record.node_growth = 0
                optimizer._diagnose(state.report, branch_id, "diff-check",
                                    icfg=result.new_icfg, diff=diff)
            else:
                state.current = result.new_icfg
                adopted = True
                for new_id, old_id in result.cloned_from.items():
                    state.origin[new_id] = state.origin.get(old_id, old_id)
                    if old_id in state.done:
                        state.done.add(new_id)
                state.commit(self.preserves)
        if not adopted:
            # Nothing was accepted, so the pre-transaction state is the
            # truth.  Restoring it also heals any corruption of the
            # *live* graph that the conditional's own verdict would
            # otherwise smuggle forward (generation-checked, so the
            # fault-free case skips the copy when the cache is on).
            state.restore(snapshot)
        state.report.records.append(record)
        obs_span.set(outcome=record.outcome.value)
        obs.add(f"transform.outcome.{record.outcome.value}")
        if adopted:
            obs.add("transform.branches_eliminated",
                    record.eliminated_copies)
            obs.observe("transform.node_growth", record.node_growth)
            obs.observe("transform.duplication_bound",
                        record.duplication_bound)

    def _attempt(self, state: PipelineState, branch_id: int,
                 snapshot: Union[Mark, ICFGSnapshot]) -> RestructureResult:
        """One conditional's analyze-and-maybe-restructure attempt."""
        opts = state.options
        if not opts.analysis_cache:
            # The A/B baseline: clone + fresh analysis + full
            # verification, exactly the pre-context behaviour.
            return restructure_branch(
                state.current, branch_id, opts.config,
                opts.duplication_limit, profile=state.gate_profile,
                min_benefit_per_node=opts.min_benefit_per_node)

        # Cache-assisted pre-analysis, in place on the live graph (the
        # analysis never mutates it), consulting the summary cache.
        pre = analyze_branch(state.current, branch_id, opts.config,
                             context=state.context)
        base = RestructureResult(
            branch_id=branch_id, outcome=BranchOutcome.NOT_ANALYZABLE,
            analysis=pre,
            nodes_before=state.current.node_count(),
            executable_before=state.current.executable_node_count())
        if not pre.analyzable:
            return base
        if state.current.generation != snapshot.generation:
            # A corruption fault fired during the in-place analysis:
            # its verdict is tainted.  Heal and decide the conditional
            # the way the baseline would, with a fresh analysis.
            state.heal(snapshot)
            return restructure_branch(
                state.current, branch_id, opts.config,
                opts.duplication_limit, profile=state.gate_profile,
                min_benefit_per_node=opts.min_benefit_per_node,
                incremental_verify=True)
        if (not pre.has_correlation
                and not pre.stats.budget_exhausted):
            # Exact verdict (cached summaries are exact, and nothing
            # was truncated): no correlated path exists, so no clone,
            # no restructuring.  A truncated no-correlation verdict
            # falls through to the fresh path instead, which applies
            # the budget the same way the baseline does.
            base.outcome = BranchOutcome.NO_CORRELATION
            return base
        precomputed = None
        if (pre.stats.summary_cache_hits == 0
                and not pre.stats.budget_exhausted):
            # The pre-analysis never touched the cache and ran to
            # completion: it *is* a fresh analysis (node ids survive
            # cloning), so restructuring can consume it directly.
            precomputed = pre
            state.context.stats.analyses_reused += 1
        # Restructure the live graph in place: the graph's undo log (not
        # a throwaway clone) makes the transaction reversible, so the
        # copy is pure overhead.  Cloning preserves node ids, so the result
        # is identical to the baseline's cloned run.
        return restructure_branch(
            state.current, branch_id, opts.config, opts.duplication_limit,
            profile=state.gate_profile,
            min_benefit_per_node=opts.min_benefit_per_node,
            precomputed=precomputed, incremental_verify=True,
            in_place=True)


# ---------------------------------------------------------------------------
# End-of-run passes.
# ---------------------------------------------------------------------------


class SimplifyPass(Pass):
    """End-of-run nop compaction, as its own transaction.

    Nop removal rewires edges around non-operations: queries propagate
    through nops unchanged and no assignment, call, or entry/exit is
    touched, so both the summary cache and mod/ref summaries survive
    the commit.  Node sets do change, so adjacency indices do not.
    """

    name = "simplify"
    preserves: FrozenSet[str] = frozenset({AnalysisContext.SUMMARIES,
                                           AnalysisContext.MODREF})

    def run(self, state: PipelineState) -> None:
        opts = state.options
        if not opts.simplify:
            return
        if opts.analysis_cache:
            snapshot = state.ensure_snapshot()
        else:
            snapshot = state.fresh_snapshot()
        # Edit-scoped verification from the undo-log mark; the cache-off
        # baseline's full-copy snapshot gets the full check.
        since = snapshot if isinstance(snapshot, Mark) else None
        try:
            with robustness_context(plan=opts.fault_plan):
                checkpoint("pipeline:simplify", state.current)
                simplify_nops(state.current)
                verify_icfg(state.current, since=since)
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception as failure:
            if opts.strict:
                raise
            state.restore(snapshot)
            state.optimizer._diagnose(state.report, -1, "simplify",
                                      exc=failure, icfg=state.current)
            return
        state.commit(self.preserves)


class FinalValidatePass(Pass):
    """Last line of defence: a full (never scoped) structural
    verification plus the optional differential check.  It mutates
    nothing on success, so it preserves everything; on failure the
    whole run is rolled back to a pristine clone of the input."""

    name = "final-validate"
    preserves: FrozenSet[str] = AnalysisContext.ALL

    def run(self, state: PipelineState) -> None:
        state.current = state.optimizer._final_validation(state)


def build_default_pipeline() -> PassManager:
    """The standard restructure → simplify → validate pipeline."""
    return PassManager([RestructurePass(), SimplifyPass(),
                        FinalValidatePass()])
