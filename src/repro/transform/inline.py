"""Procedure inlining (paper §5, "Procedure inlining").

The paper discusses realizing ICBE through inlining: detect correlation
interprocedurally, inline the procedures involved, then apply
intraprocedural branch elimination — and argues this costs more code
growth than entry/exit splitting ("pre-pass inlining must resort to
exhaustive inlining... Clearly, pre-pass inlining incurs large code
growth").  This module provides the inliner so the claim can be
measured (``benchmarks/bench_inlining.py``).

``inline_call`` splices one call site: the callee body reachable from
the call's target entry is cloned into the caller with freshly scoped
variables, parameters become explicit copy assignments (which the
correlation analysis back-substitutes through, so correlation survives
inlining — the property the paper's inlining-based ICBE relies on), and
each callee exit is rerouted to the continuation of the call-site exit
it would have returned to.

``inline_exhaustively`` repeatedly inlines every non-recursive call
site up to a node budget, the "pre-pass" baseline.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.analysis.modref import call_graph
from repro.errors import TransformError
from repro.ir import expr as ir
from repro.ir.icfg import EdgeKind, ICFG, INTRA_KINDS
from repro.ir.nodes import (AssignNode, CallExitNode, CallNode, EntryNode,
                            ExitNode, Node, NopNode)


def _callee_body(icfg: ICFG, entry_id: int, callee: str) -> Set[int]:
    """Node ids of ``callee`` reachable from ``entry_id`` (LOCAL edges
    stand in for call returns; nested callees are not included)."""
    seen: Set[int] = set()
    stack = [entry_id]
    while stack:
        node_id = stack.pop()
        if node_id in seen:
            continue
        seen.add(node_id)
        for edge in icfg.succ_edges(node_id):
            if edge.kind in INTRA_KINDS or edge.kind is EdgeKind.LOCAL:
                stack.append(edge.dst)
    return seen


class _Inliner:
    """Splices one call site; each instance is single-use."""

    def __init__(self, icfg: ICFG, call: CallNode, instance: int) -> None:
        self.icfg = icfg
        self.call = call
        self.caller = call.proc
        self.callee = call.callee
        self.prefix = f"$inl{instance}"
        self.var_map: Dict[ir.VarId, ir.VarId] = {}
        self.node_map: Dict[int, Node] = {}

    # -- variable renaming -------------------------------------------------

    def rename_var(self, var: ir.VarId) -> ir.VarId:
        if var.is_global:
            return var
        if var.scope != self.callee:
            return var  # caller vars inside rewritten expressions
        mapped = self.var_map.get(var)
        if mapped is None:
            mapped = ir.VarId.local(self.caller,
                                    f"{self.prefix}_{var.name}")
            self.var_map[var] = mapped
            self.icfg.procs[self.caller].locals.append(mapped)
        return mapped

    def rename_expr(self, expr: ir.Expr) -> ir.Expr:
        if isinstance(expr, ir.VarExpr):
            return ir.VarExpr(self.rename_var(expr.var))
        if isinstance(expr, ir.UnaryExpr):
            return ir.UnaryExpr(expr.op, self.rename_expr(expr.operand))
        if isinstance(expr, ir.BinaryExpr):
            return ir.BinaryExpr(expr.op, self.rename_expr(expr.left),
                                 self.rename_expr(expr.right))
        if isinstance(expr, ir.Convert):
            return ir.Convert(self.rename_expr(expr.operand))
        if isinstance(expr, ir.Alloc):
            return ir.Alloc(self.rename_expr(expr.size))
        if isinstance(expr, ir.Load):
            return ir.Load(self.rename_expr(expr.address))
        return expr  # Const, InputRead

    # -- node cloning ---------------------------------------------------------

    def clone_node(self, node: Node) -> Node:
        copy = node.copy_with_id(self.icfg.new_id())
        copy.proc = self.caller
        if isinstance(copy, (EntryNode, ExitNode)):
            # Entries/exits of the inlined body become plain control.
            replacement = NopNode(copy.id, self.caller,
                                  note=f"{self.prefix}-{node.label()}")
            self.icfg.add_node(replacement)
            self.node_map[node.id] = replacement
            return replacement
        if isinstance(copy, AssignNode):
            copy.target = self.rename_var(copy.target)
            copy.rhs = self.rename_expr(copy.rhs)
        elif isinstance(copy, CallNode):
            copy.args = [self.rename_expr(a) for a in copy.args]
            copy.return_map = {}  # rebuilt below with cloned call exits
        elif isinstance(copy, CallExitNode):
            if copy.result is not None:
                copy.result = self.rename_var(copy.result)
        else:
            for attr in ("predicate", "address", "value"):
                if hasattr(copy, attr):
                    setattr(copy, attr,
                            self.rename_expr(getattr(copy, attr)))
        self.icfg.add_node(copy)
        self.node_map[node.id] = copy
        return copy

    # -- the splice ----------------------------------------------------------

    def run(self) -> None:
        icfg = self.icfg
        call = self.call
        body = _callee_body(icfg, call.entry_id, self.callee)

        for node_id in sorted(body):
            self.clone_node(icfg.nodes[node_id])

        # Intraprocedural and LOCAL edges within the body.
        for node_id in sorted(body):
            for edge in icfg.succ_edges(node_id):
                if edge.dst in body and (edge.kind in INTRA_KINDS
                                         or edge.kind is EdgeKind.LOCAL):
                    icfg.add_edge(self.node_map[edge.src].id,
                                  self.node_map[edge.dst].id, edge.kind)

        # Nested calls keep calling their original callees; their call
        # exits were cloned with them, so rebuild CALL/RETURN edges and
        # return maps against the *original* nested entries/exits.
        for node_id in sorted(body):
            original = icfg.nodes[node_id]
            if not isinstance(original, CallNode):
                continue
            copy = self.node_map[node_id]
            assert isinstance(copy, CallNode)
            icfg.add_edge(copy.id, original.entry_id, EdgeKind.CALL)
            for exit_id, call_exit_id in original.return_map.items():
                cloned_exit = self.node_map[call_exit_id]
                icfg.set_return_target(copy, exit_id, cloned_exit.id)
                icfg.add_edge(exit_id, cloned_exit.id, EdgeKind.RETURN)

        # Parameter binding: explicit copies ahead of the body, so the
        # correlation analysis substitutes through them.  Every other
        # callee local must be re-zeroed: a frame starts with zeroed
        # locals on each call, but the renamed locals now live in the
        # caller's frame and would otherwise keep values from an earlier
        # execution of the inlined region (e.g. inside a loop).
        callee_info = icfg.procs[self.callee]
        params = callee_info.params
        binds: List[AssignNode] = []
        for param, arg in zip(params, call.args):
            binds.append(AssignNode(icfg.new_id(), self.caller,
                                    self.rename_var(param), arg))
        for local in callee_info.locals:
            if local in params:
                continue
            binds.append(AssignNode(icfg.new_id(), self.caller,
                                    self.rename_var(local), ir.Const(0)))
        for bind in binds:
            icfg.add_node(bind)
        for first, second in zip(binds, binds[1:]):
            icfg.add_edge(first.id, second.id, EdgeKind.NORMAL)

        entry_nop = self.node_map[call.entry_id]
        chain_head = binds[0] if binds else entry_nop
        if binds:
            icfg.add_edge(binds[-1].id, entry_nop.id, EdgeKind.NORMAL)

        # Route the caller into the inlined body.
        for edge in list(icfg.pred_edges(call.id)):
            icfg.remove_edge(edge)
            icfg.add_edge(edge.src, chain_head.id, edge.kind)

        # Route each inlined exit to the continuation of the call-site
        # exit that exit would have returned to, binding the result.
        ret_var = ir.VarId.ret(self.callee)
        for exit_id, call_exit_id in call.return_map.items():
            if exit_id not in body:
                continue  # unreachable from this entry
            exit_nop = self.node_map[exit_id]
            call_exit = icfg.nodes[call_exit_id]
            assert isinstance(call_exit, CallExitNode)
            continuation = icfg.only_succ(call_exit.id, EdgeKind.NORMAL)
            if call_exit.result is not None:
                move = AssignNode(icfg.new_id(), self.caller,
                                  call_exit.result,
                                  ir.VarExpr(self.rename_var(ret_var)))
                icfg.add_node(move)
                icfg.add_edge(exit_nop.id, move.id, EdgeKind.NORMAL)
                icfg.add_edge(move.id, continuation, EdgeKind.NORMAL)
            else:
                icfg.add_edge(exit_nop.id, continuation, EdgeKind.NORMAL)

        # Drop the call site and its call-site exits.
        for call_exit_id in list(call.return_map.values()):
            icfg.remove_node(call_exit_id)
        icfg.remove_node(call.id)


def inline_call(icfg: ICFG, call_id: int, instance: Optional[int] = None
                ) -> None:
    """Inline one call site in place.

    Refuses direct self-recursion (a procedure inlined into itself
    would duplicate the call, not remove it).
    """
    call = icfg.nodes.get(call_id)
    if not isinstance(call, CallNode):
        raise TransformError(f"node {call_id} is not a call site")
    if call.callee == call.proc:
        raise TransformError(
            f"refusing to inline recursive call to {call.callee!r}")
    marker = instance if instance is not None else icfg.new_id()
    _Inliner(icfg, call, marker).run()


def _recursive_procs(icfg: ICFG) -> Set[str]:
    """Procedures on a call-graph cycle (never safe to inline away)."""
    graph = call_graph(icfg)
    recursive: Set[str] = set()
    for start in graph:
        stack = [start]
        seen: Set[str] = set()
        while stack:
            proc = stack.pop()
            for callee in graph.get(proc, ()):
                if callee == start:
                    recursive.add(start)
                    stack = []
                    break
                if callee not in seen:
                    seen.add(callee)
                    stack.append(callee)
    return recursive


def inline_hot_calls(icfg: ICFG, profile, min_executions: int,
                     node_budget: int = 1_000_000) -> int:
    """Partial inlining (paper §5): inline only frequently executed call
    sites.

    The paper suggests lowering the code growth of inlining-based ICBE
    by "performing full ICBE (with interprocedural restructuring),
    followed by partial inlining, in which only frequently executed
    paths through the optimized procedure are inlined".  ``profile``
    should be collected on ``icfg`` itself (e.g. a run of the already
    ICBE-optimized program).  Returns the number of call sites inlined.
    """
    recursive = _recursive_procs(icfg)
    hot = [call.id for call in icfg.call_nodes()
           if profile.count_of(call.id) >= min_executions
           and call.callee not in recursive and call.callee != call.proc]
    inlined = 0
    for call_id in hot:
        if icfg.node_count() >= node_budget:
            break
        if call_id not in icfg.nodes:
            continue  # consumed by an earlier inline of its caller
        inline_call(icfg, call_id)
        inlined += 1
    icfg.remove_unreachable()
    return inlined


def inline_exhaustively(icfg: ICFG, node_budget: int) -> int:
    """The pre-pass inlining baseline: repeatedly inline every call to a
    non-recursive procedure until none remain or ``node_budget`` nodes
    are exceeded.  Returns the number of call sites inlined.
    """
    recursive = _recursive_procs(icfg)
    inlined = 0
    progress = True
    while progress and icfg.node_count() < node_budget:
        progress = False
        for call in icfg.call_nodes():
            if icfg.node_count() >= node_budget:
                break
            if call.callee in recursive or call.callee == call.proc:
                continue
            if call.id not in icfg.nodes:
                continue
            inline_call(icfg, call.id)
            inlined += 1
            progress = True
    icfg.remove_unreachable()
    return inlined
