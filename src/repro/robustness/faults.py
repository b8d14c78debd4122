"""Deterministic fault injection for testing the optimizer's recovery.

A :class:`FaultPlan` arms faults at named instrumentation *sites* — the
strings passed to :func:`~repro.robustness.runtime.checkpoint` — and
fires them on an exact hit count, so a fault lands at a chosen point of
a chosen conditional's transaction, reproducibly.  The instrumented
sites are:

==========================  ================================================
``analysis:pair``           per node-query pair the correlation engine pops
``transform:split``         per node the splitter is about to clone
``transform:eliminate``     entering branch elimination
``transform:verify``        just before the post-transform verifier runs
``pipeline:branch-start``   per conditional, before its transaction begins
``pipeline:simplify``       before the end-of-run nop compaction
``diffcheck:run``           entering a differential trace comparison
==========================  ================================================

Two fault families exist.  ``raise`` faults throw (by default
:class:`~repro.errors.FaultInjected`) to simulate crashes anywhere in
the stack.  Corruption faults silently damage the graph the checkpoint
hands in — dropped edges, stray edges, dangling nodes, cleared exit
lists, skewed print constants — to simulate transform bugs, including
the worst kind: a structurally valid graph that computes the wrong
answer (``skew-print``), which only differential validation can catch.
All corruption is seeded and therefore replayable.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.errors import FaultInjected
from repro.ir.expr import Const
from repro.ir.icfg import EdgeKind, ICFG
from repro.ir.nodes import PrintNode

#: Every corruption action :func:`corrupt_icfg` understands.
CORRUPTION_ACTIONS = ("drop-edge", "stray-edge", "drop-node",
                      "clear-exits", "skew-print")


@dataclass
class FaultSpec:
    """One armed fault: fire on the ``hit``-th visit of ``site``."""

    site: str
    hit: int = 1
    action: str = "raise"
    message: str = ""
    seed: int = 0
    exception: type = FaultInjected


@dataclass
class FiredFault:
    """Record of a fault that actually fired (for assertions and logs)."""

    site: str
    hit: int
    action: str
    detail: str = ""


class FaultPlan:
    """A deterministic schedule of faults, keyed by checkpoint site.

    Activate it through the optimizer's ``fault_plan`` option (or
    directly via :func:`~repro.robustness.runtime.robustness_context`);
    every checkpoint hit is counted per site and matching specs fire
    exactly once.  ``fired`` records what happened.
    """

    def __init__(self, specs: Sequence[FaultSpec] = ()) -> None:
        self.specs: List[FaultSpec] = list(specs)
        self.hits: Dict[str, int] = {}
        self.fired: List[FiredFault] = []

    @classmethod
    def raising(cls, site: str, hit: int = 1, message: str = "",
                exception: type = FaultInjected) -> "FaultPlan":
        """A plan with a single exception-raising fault."""
        return cls([FaultSpec(site, hit, "raise", message,
                              exception=exception)])

    @classmethod
    def corrupting(cls, site: str, hit: int = 1,
                   action: str = "drop-edge", seed: int = 0) -> "FaultPlan":
        """A plan with a single graph-corrupting fault."""
        return cls([FaultSpec(site, hit, action, seed=seed)])

    def reset(self) -> "FaultPlan":
        """Forget hit counts and fired records so the plan can rerun."""
        self.hits.clear()
        self.fired.clear()
        return self

    def fire(self, site: str, icfg: Optional[ICFG] = None) -> None:
        """Count a hit of ``site`` and execute any spec armed for it."""
        count = self.hits.get(site, 0) + 1
        self.hits[site] = count
        for spec in self.specs:
            if spec.site == site and spec.hit == count:
                self._execute(spec, icfg)

    def _execute(self, spec: FaultSpec, icfg: Optional[ICFG]) -> None:
        if spec.action == "raise":
            self.fired.append(FiredFault(spec.site, spec.hit, spec.action))
            raise spec.exception(
                spec.message
                or f"injected fault at {spec.site} (hit {spec.hit})")
        if icfg is None:
            return  # corruption fault at a graph-less site: nothing to do
        detail = corrupt_icfg(icfg, spec.action,
                              _rng(spec.site, spec.hit, spec.seed))
        self.fired.append(FiredFault(spec.site, spec.hit, spec.action,
                                     detail))


def _rng(site: str, hit: int, seed: int) -> random.Random:
    """A process-independent RNG for one (site, hit, seed) triple."""
    return random.Random((zlib.crc32(site.encode()) << 16)
                         ^ (hit * 7919) ^ seed)


def corrupt_icfg(icfg: ICFG, action: str, rng: random.Random) -> str:
    """Apply one named corruption to ``icfg``; returns a description.

    Deterministic given the RNG.  Structural actions break a verifier
    invariant; ``skew-print`` keeps the graph verifier-clean but changes
    its observable behaviour.

    Several actions bypass the graph's mutator methods on purpose (that
    is the kind of bug they simulate), so the graph is marked wholly
    dirty up front: generation-gated machinery (snapshot reuse, scoped
    verification, the analysis context, the graph's derived indexes)
    must never mistake a corrupted graph for an untouched one.  Each
    bypassing write logs its pre-image first, so rolling the open
    transaction back heals it like any logged mutation.
    """
    icfg.mark_all_dirty()
    if action == "drop-edge":
        sources = [nid for nid in sorted(icfg.nodes)
                   if icfg.succ_edges(nid)]
        if not sources:
            return "noop: graph has no edges"
        src = sources[rng.randrange(len(sources))]
        edges = icfg.succ_edges(src)
        edge = edges[rng.randrange(len(edges))]
        icfg.remove_edge(edge)
        return f"removed edge {edge}"
    if action == "stray-edge":
        nodes = sorted(icfg.nodes)
        src = nodes[rng.randrange(len(nodes))]
        for _ in range(8):
            dst = nodes[rng.randrange(len(nodes))]
            if not icfg.has_edge(src, dst, EdgeKind.NORMAL):
                icfg.add_edge(src, dst, EdgeKind.NORMAL)
                return f"added stray edge {src} -normal-> {dst}"
        return "noop: could not find a fresh edge slot"
    if action == "drop-node":
        nodes = sorted(icfg.nodes)
        doomed = nodes[rng.randrange(len(nodes))]
        icfg.record_node_entry(doomed)
        del icfg.nodes[doomed]  # leaves every incident edge dangling
        return f"dropped node {doomed}, leaving dangling edges"
    if action == "clear-exits":
        names = sorted(icfg.procs)
        name = names[rng.randrange(len(names))]
        icfg.record_proc_preimage(name)
        icfg.procs[name].exits.clear()
        return f"cleared exit list of procedure {name!r}"
    if action == "skew-print":
        prints = [n for n in icfg.iter_nodes() if isinstance(n, PrintNode)]
        if not prints:
            return "noop: graph has no print nodes"
        node = prints[rng.randrange(len(prints))]
        old = node.value
        icfg.record_node_preimage(node)
        bump = old.value + 1 if isinstance(old, Const) else 1
        node.value = Const(bump)
        return f"skewed print node {node.id}: {old} -> {node.value}"
    raise ValueError(f"unknown corruption action {action!r}")
