"""Structural well-formedness checks for ICFGs.

The restructuring transformation is by far the most delicate part of the
system, so every optimized graph is re-verified.  The invariants checked
here are exactly the ones the interpreter relies on; a verifier-clean
graph cannot get the interpreter stuck (it can still loop forever, which
the step budget handles).

Checked invariants:

1.  Edge indices are symmetric and contain no duplicate edges.
2.  Every node belongs to a known procedure; intraprocedural edges stay
    inside it.
3.  Branch nodes have exactly one TRUE and one FALSE out-edge and
    nothing else; all other flow-through nodes have exactly one NORMAL
    out-edge.
4.  Call-site normal form: call nodes have one CALL edge (to an entry of
    their callee) and at least one LOCAL edge (each to a CallExit);
    every CallExit has exactly one LOCAL and one RETURN predecessor, and
    its RETURN predecessor is an exit of the called procedure.
5.  Return maps are consistent: values are exactly the call's LOCAL
    successors, keys are exits of the callee, and every callee exit
    reachable from the call's target entry has a mapping.
6.  Entry nodes have only CALL in-edges (main's start entry may have
    none) and one NORMAL out-edge; exit nodes have only RETURN out-edges
    and only intraprocedural in-edges.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set

from repro.errors import VerificationError
from repro.ir.icfg import EdgeKind, ICFG, INTRA_KINDS
from repro.ir.nodes import (BranchNode, CallExitNode, CallNode, EntryNode,
                            ExitNode, Node)


def _fail(message: str) -> None:
    raise VerificationError(message)


def _check_edge_symmetry(icfg: ICFG) -> None:
    forward = set()
    for node_id in icfg.nodes:
        edges = icfg.succ_edges(node_id)
        if len(set(edges)) != len(edges):
            _fail(f"duplicate out-edges at node {node_id}")
        for edge in edges:
            if edge.src != node_id:
                _fail(f"edge {edge} filed under wrong source {node_id}")
            if edge.dst not in icfg.nodes:
                _fail(f"edge {edge} targets unknown node")
            forward.add(edge)
    backward = set()
    for node_id in icfg.nodes:
        for edge in icfg.pred_edges(node_id):
            if edge.dst != node_id:
                _fail(f"edge {edge} filed under wrong destination {node_id}")
            backward.add(edge)
    if forward != backward:
        diff = forward.symmetric_difference(backward)
        _fail(f"succ/pred indices disagree on: {sorted(map(str, diff))}")


def _out_kinds(icfg: ICFG, node_id: int) -> Dict[EdgeKind, int]:
    counts: Dict[EdgeKind, int] = {}
    for edge in icfg.succ_edges(node_id):
        counts[edge.kind] = counts.get(edge.kind, 0) + 1
    return counts


def _in_kinds(icfg: ICFG, node_id: int) -> Dict[EdgeKind, int]:
    counts: Dict[EdgeKind, int] = {}
    for edge in icfg.pred_edges(node_id):
        counts[edge.kind] = counts.get(edge.kind, 0) + 1
    return counts


def _reachable_exits(icfg: ICFG, entry_id: int, proc: str) -> Set[int]:
    """Exit nodes of ``proc`` reachable from ``entry_id`` within the
    procedure.  LOCAL edges stand in for 'the call returns'."""
    seen: Set[int] = set()
    stack = [entry_id]
    exits: Set[int] = set()
    while stack:
        node_id = stack.pop()
        if node_id in seen:
            continue
        seen.add(node_id)
        node = icfg.nodes[node_id]
        if isinstance(node, ExitNode) and node.proc == proc:
            exits.add(node_id)
            continue
        for edge in icfg.succ_edges(node_id):
            if edge.kind in INTRA_KINDS or edge.kind is EdgeKind.LOCAL:
                stack.append(edge.dst)
    return exits


def _check_node(icfg: ICFG, node: Node) -> None:
    out = _out_kinds(icfg, node.id)
    inn = _in_kinds(icfg, node.id)
    info = icfg.procs.get(node.proc)
    if info is None:
        _fail(f"node {node.id} belongs to unknown procedure {node.proc!r}")

    for edge in icfg.succ_edges(node.id):
        if edge.kind in INTRA_KINDS or edge.kind is EdgeKind.LOCAL:
            if icfg.nodes[edge.dst].proc != node.proc:
                _fail(f"intraprocedural edge {edge} crosses procedures")

    if isinstance(node, BranchNode):
        if out != {EdgeKind.TRUE: 1, EdgeKind.FALSE: 1}:
            _fail(f"branch {node.id} has out-edges {out}")
        return

    if isinstance(node, CallNode):
        if out.get(EdgeKind.CALL, 0) != 1:
            _fail(f"call {node.id} must have exactly one CALL edge, has {out}")
        if out.get(EdgeKind.LOCAL, 0) < 1:
            _fail(f"call {node.id} has no call-site exit")
        if set(out) - {EdgeKind.CALL, EdgeKind.LOCAL}:
            _fail(f"call {node.id} has stray out-edges {out}")
        callee = icfg.procs.get(node.callee)
        if callee is None:
            _fail(f"call {node.id} targets unknown procedure {node.callee!r}")
        if node.entry_id not in callee.entries:
            _fail(f"call {node.id} CALL target {node.entry_id} is not an "
                  f"entry of {node.callee!r}")
        call_edge_dst = [e.dst for e in icfg.succ_edges(node.id)
                         if e.kind is EdgeKind.CALL][0]
        if call_edge_dst != node.entry_id:
            _fail(f"call {node.id} CALL edge disagrees with entry_id")
        local_dsts = {e.dst for e in icfg.succ_edges(node.id)
                      if e.kind is EdgeKind.LOCAL}
        if set(node.return_map.values()) != local_dsts:
            _fail(f"call {node.id} return_map values {node.return_map} "
                  f"!= LOCAL successors {local_dsts}")
        for exit_id in node.return_map:
            if exit_id not in callee.exits:
                _fail(f"call {node.id} return_map key {exit_id} is not an "
                      f"exit of {node.callee!r}")
        needed = _reachable_exits(icfg, node.entry_id, node.callee)
        missing = needed - set(node.return_map)
        if missing:
            _fail(f"call {node.id} lacks return addresses for reachable "
                  f"exits {sorted(missing)} of {node.callee!r}")
        return

    if isinstance(node, CallExitNode):
        if inn.get(EdgeKind.LOCAL, 0) != 1 or inn.get(EdgeKind.RETURN, 0) != 1:
            _fail(f"call-exit {node.id} has in-edges {inn}; call-site normal "
                  f"form requires exactly one LOCAL and one RETURN")
        if set(inn) - {EdgeKind.LOCAL, EdgeKind.RETURN}:
            _fail(f"call-exit {node.id} has stray in-edges {inn}")
        call_id = icfg.call_pred_of_call_exit(node.id)
        exit_id = icfg.exit_pred_of_call_exit(node.id)
        call = icfg.nodes[call_id]
        if not isinstance(call, CallNode):
            _fail(f"call-exit {node.id} LOCAL pred {call_id} is not a call")
        exit_node = icfg.nodes[exit_id]
        if not isinstance(exit_node, ExitNode):
            _fail(f"call-exit {node.id} RETURN pred {exit_id} is not an exit")
        if isinstance(call, CallNode) and exit_node.proc != call.callee:
            _fail(f"call-exit {node.id} returns from {exit_node.proc!r} but "
                  f"its call targets {call.callee!r}")
        if out != {EdgeKind.NORMAL: 1}:
            _fail(f"call-exit {node.id} has out-edges {out}")
        return

    if isinstance(node, EntryNode):
        if node.id not in info.entries:
            _fail(f"entry node {node.id} missing from {node.proc!r} entries")
        if set(inn) - {EdgeKind.CALL}:
            _fail(f"entry {node.id} has non-CALL in-edges {inn}")
        if out != {EdgeKind.NORMAL: 1}:
            _fail(f"entry {node.id} has out-edges {out}")
        return

    if isinstance(node, ExitNode):
        if node.id not in info.exits:
            _fail(f"exit node {node.id} missing from {node.proc!r} exits")
        if set(out) - {EdgeKind.RETURN}:
            _fail(f"exit {node.id} has non-RETURN out-edges {out}")
        for kind in inn:
            if kind not in INTRA_KINDS:
                _fail(f"exit {node.id} has in-edge of kind {kind}")
        return

    # Plain flow-through nodes (Assign, Store, Print, Nop).
    if out != {EdgeKind.NORMAL: 1}:
        _fail(f"node {node.id} ({node.label()}) has out-edges {out}; "
              f"expected exactly one NORMAL")
    for kind in inn:
        if kind not in INTRA_KINDS:
            _fail(f"node {node.id} has in-edge of kind {kind}")


def _check_edge_symmetry_scoped(icfg: ICFG, node_ids: Iterable[int]) -> None:
    """Edge-index symmetry restricted to edges incident to ``node_ids``.

    Sufficient when every edge mutation touches both endpoint
    procedures (which :class:`~repro.ir.icfg.ICFG`'s mutators
    guarantee): an edge between two clean procedures cannot have
    changed, so only scope-incident edges need re-checking.
    """
    for node_id in node_ids:
        edges = icfg.succ_edges(node_id)
        if len(set(edges)) != len(edges):
            _fail(f"duplicate out-edges at node {node_id}")
        for edge in edges:
            if edge.src != node_id:
                _fail(f"edge {edge} filed under wrong source {node_id}")
            if edge.dst not in icfg.nodes:
                _fail(f"edge {edge} targets unknown node")
            if edge not in icfg.pred_edges(edge.dst):
                _fail(f"edge {edge} missing from predecessor index")
        for edge in icfg.pred_edges(node_id):
            if edge.dst != node_id:
                _fail(f"edge {edge} filed under wrong destination {node_id}")
            if edge.src not in icfg.nodes:
                _fail(f"edge {edge} comes from unknown node")
            if edge not in icfg.succ_edges(edge.src):
                _fail(f"edge {edge} missing from successor index")


def _check_proc_lists(icfg: ICFG,
                      scope: Optional[Set[str]] = None) -> None:
    listed: List[int] = []
    for info in icfg.procs.values():
        if scope is not None and info.name not in scope:
            continue
        if not info.entries:
            _fail(f"procedure {info.name!r} has no entry")
        if not info.exits:
            _fail(f"procedure {info.name!r} has no exit")
        listed.extend(info.entries)
        listed.extend(info.exits)
        for node_id in info.entries:
            node = icfg.nodes.get(node_id)
            if not isinstance(node, EntryNode) or node.proc != info.name:
                _fail(f"{info.name!r} entry list contains non-entry {node_id}")
        for node_id in info.exits:
            node = icfg.nodes.get(node_id)
            if not isinstance(node, ExitNode) or node.proc != info.name:
                _fail(f"{info.name!r} exit list contains non-exit {node_id}")
    if len(listed) != len(set(listed)):
        _fail("a node appears twice in entry/exit lists")


def verify_icfg(icfg: ICFG, procs: Optional[Iterable[str]] = None) -> None:
    """Raise :class:`VerificationError` on the first broken invariant.

    With ``procs`` the check is *scoped*: only nodes, lists, and
    incident edges of the named procedures are re-checked.  That is
    sound for incremental re-verification exactly when ``procs`` covers
    every procedure structurally changed since the graph was last known
    clean (the ICFG's dirty-set tracking provides that set, and
    out-of-band mutation marks everything dirty).  ``procs=None`` is
    the full check.
    """
    from repro import obs
    with obs.span("ir.verify", scoped=procs is not None):
        _verify(icfg, procs)


def _verify(icfg: ICFG, procs: Optional[Iterable[str]]) -> None:
    """The untraced body of :func:`verify_icfg`."""
    if icfg.main not in icfg.procs:
        _fail(f"main procedure {icfg.main!r} missing")
    if procs is None:
        _check_edge_symmetry(icfg)
        _check_proc_lists(icfg)
        for node in icfg.iter_nodes():
            _check_node(icfg, node)
        return
    scope = set(procs)
    if not scope:
        return
    scoped_nodes = icfg.nodes_of(scope)
    _check_edge_symmetry_scoped(icfg, [node.id for node in scoped_nodes])
    _check_proc_lists(icfg, scope={name for name in scope
                                   if name in icfg.procs})
    for node in scoped_nodes:
        _check_node(icfg, node)
