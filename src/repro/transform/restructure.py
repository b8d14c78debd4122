"""Per-conditional restructuring driver: analyze → gate → split →
eliminate → verify (paper §3's two-phase optimization for one branch).

By default the driver never mutates the input graph: all work happens
on a clone, which is only handed back when the transformation succeeded
and the verifier accepted the result.  A rejection (no correlation,
duplication limit exceeded, or — defensively — a verification failure)
reports the reason and leaves the caller's graph untouched.  With
``in_place=True`` the driver works on the caller's graph itself, which
the caller must be able to roll back (the optimizer holds an undo-log
mark, :meth:`~repro.ir.icfg.ICFG.begin`) on any outcome but OPTIMIZED:
a rejected or failed attempt may leave it half-restructured.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.analysis.config import AnalysisConfig
from repro.analysis.cost import (duplication_upper_bound,
                                 eliminated_executions_estimate)
from repro.analysis.driver import analyze_branch
from repro.analysis.result import CorrelationResult
from repro.interp.profile import Profile
from repro.errors import TransformError, VerificationError
from repro.ir.icfg import ICFG
from repro.ir.verify import verify_icfg
from repro.robustness.runtime import checkpoint
from repro.transform.eliminate import eliminate_known_copies
from repro.transform.split import Splitter


class BranchOutcome(enum.Enum):
    """Why a conditional was or was not optimized."""

    OPTIMIZED = "optimized"
    NOT_ANALYZABLE = "not-analyzable"
    NO_CORRELATION = "no-correlation"
    OVER_LIMIT = "over-duplication-limit"
    LOW_BENEFIT = "low-benefit"
    TRANSFORM_FAILED = "transform-failed"
    #: An exception escaped analysis/restructuring (or a resource guard
    #: tripped); the optimizer rolled the conditional's transaction back.
    FAILED = "failed"
    #: The transform verified structurally but differential validation
    #: caught an observable divergence; the transform was discarded.
    ROLLED_BACK = "rolled-back"


@dataclass
class RestructureResult:
    """Outcome of attempting to optimize one conditional."""

    branch_id: int
    outcome: BranchOutcome
    analysis: Optional[CorrelationResult] = None
    new_icfg: Optional[ICFG] = None
    duplication_bound: int = 0
    nodes_before: int = 0
    nodes_after: int = 0
    executable_before: int = 0
    executable_after: int = 0
    eliminated_copies: int = 0
    cloned_from: Dict[int, int] = field(default_factory=dict)
    failure: str = ""

    @property
    def applied(self) -> bool:
        return self.outcome is BranchOutcome.OPTIMIZED

    @property
    def node_growth(self) -> int:
        return self.nodes_after - self.nodes_before


def restructure_branch(icfg: ICFG, branch_id: int,
                       config: Optional[AnalysisConfig] = None,
                       duplication_limit: Optional[int] = None,
                       profile=None,
                       min_benefit_per_node: Optional[float] = None,
                       precomputed: Optional[CorrelationResult] = None,
                       incremental_verify: bool = False,
                       in_place: bool = False) -> RestructureResult:
    """Try to eliminate one conditional along its correlated paths.

    ``duplication_limit`` is the paper's per-conditional gate: the
    restructuring only runs when the analysis' duplication upper bound
    does not exceed it (Fig. 11 sweeps this limit).

    ``profile`` + ``min_benefit_per_node`` implement the "better
    heuristic" the paper sketches at the end of §4: also require the
    estimated eliminated dynamic branch executions to pay for the code
    growth — at least ``min_benefit_per_node`` eliminated executions
    per duplicated node.

    ``precomputed`` hands in a finished analysis of ``icfg`` itself
    (same node ids as the working clone) instead of re-analyzing; it
    must be complete (not budget-truncated) and cache-independent —
    the splitter walks every pair the engine visited, so an analysis
    that short-circuited callees through a summary cache cannot drive
    restructuring.  ``incremental_verify`` scopes the post-transform
    verification to the nodes this call's edits touched, read from the
    working graph's undo log (it opens or continues a transaction on
    it); sound because the graph verified before the edit, and
    out-of-band corruption taints the graph, which forces the full
    check.
    ``in_place`` mutates ``icfg`` itself instead of a clone: the caller
    must hold a rollback point and use it on any non-OPTIMIZED outcome
    (cloning preserves node ids, so in-place and cloned runs produce
    identical graphs).
    """
    working = icfg if in_place else icfg.clone()
    since = working.begin() if incremental_verify else None
    if precomputed is not None:
        analysis = precomputed
    else:
        analysis = analyze_branch(working, branch_id, config)
    base = RestructureResult(branch_id=branch_id,
                             outcome=BranchOutcome.NOT_ANALYZABLE,
                             analysis=analysis,
                             nodes_before=icfg.node_count(),
                             executable_before=icfg.executable_node_count())
    if not analysis.analyzable:
        return base
    if not analysis.has_correlation:
        base.outcome = BranchOutcome.NO_CORRELATION
        return base

    bound = duplication_upper_bound(analysis)
    base.duplication_bound = bound
    if duplication_limit is not None and bound > duplication_limit:
        base.outcome = BranchOutcome.OVER_LIMIT
        return base
    if profile is not None and min_benefit_per_node is not None:
        estimate = eliminated_executions_estimate(analysis, profile)
        if estimate < min_benefit_per_node * max(1, bound):
            base.outcome = BranchOutcome.LOW_BENEFIT
            return base

    assert analysis.engine is not None and analysis.initial_query is not None
    try:
        splitter = Splitter(working, analysis.engine, analysis.answers,
                            branch_id, analysis.initial_query)
        outcome = splitter.split()
        base.eliminated_copies = eliminate_known_copies(
            working, outcome.branch_copies)
        working.remove_unreachable()
        checkpoint("transform:verify", working)
        verify_icfg(working, since=since)
    except (TransformError, VerificationError) as failure:
        base.outcome = BranchOutcome.TRANSFORM_FAILED
        base.failure = str(failure)
        return base

    base.outcome = BranchOutcome.OPTIMIZED
    base.new_icfg = working
    base.nodes_after = working.node_count()
    base.executable_after = working.executable_node_count()
    base.cloned_from = outcome.cloned_from
    return base
