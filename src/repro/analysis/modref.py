"""Transitive MOD sets: which globals may a call modify?

The paper's intraprocedural baseline uses MOD/USE procedure summary
information at call sites [Cooper-Kennedy].  For queries, only MOD
matters: a query on global ``g`` may bypass a call to ``p`` exactly when
``g ∉ MOD(p)``.  MOD is the transitive closure over the call graph of
the globals a procedure assigns directly (including binding a call
result to a global at a call-site exit).
"""

from __future__ import annotations

from typing import Dict, Set

from repro.ir.expr import VarId
from repro.ir.icfg import ICFG
from repro.ir.nodes import AssignNode, CallExitNode


def direct_mod_sets(icfg: ICFG) -> Dict[str, Set[VarId]]:
    """Globals each procedure assigns without following calls."""
    mods: Dict[str, Set[VarId]] = {name: set() for name in icfg.procs}
    for node in icfg.iter_nodes():
        target = None
        if isinstance(node, AssignNode):
            target = node.target
        elif isinstance(node, CallExitNode):
            target = node.result
        if target is not None and target.is_global:
            mods[node.proc].add(target)
    return mods


def call_graph(icfg: ICFG) -> Dict[str, Set[str]]:
    """caller -> set of callees (by call nodes present in the graph,
    read from the graph's call index when it has one)."""
    edges: Dict[str, Set[str]] = {name: set() for name in icfg.procs}
    for node in icfg.call_nodes():
        edges[node.proc].add(node.callee)
    return edges


def transitive_mod_sets(icfg: ICFG) -> Dict[str, Set[VarId]]:
    """MOD(p): globals possibly modified by executing p, transitively."""
    mods = direct_mod_sets(icfg)
    callees = call_graph(icfg)
    changed = True
    while changed:
        changed = False
        for proc in icfg.procs:
            before = len(mods[proc])
            for callee in callees[proc]:
                mods[proc] |= mods[callee]
            if len(mods[proc]) != before:
                changed = True
    return mods
