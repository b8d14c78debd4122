"""Lowering: MiniC AST → interprocedural CFG.

Shape guarantees the rest of the system relies on:

- one operation per node; effectful expressions (calls, ``input``,
  ``alloc``, ``load``) are hoisted out of compound expressions into
  compiler temporaries, so branch predicates, call arguments, and store
  operands are pure;
- short-circuit ``&&``/``||``/``!`` in *condition position* lower to
  branch trees (each relational test becomes its own BranchNode, the
  unit the optimization eliminates);
- every call site lowers to ``CallNode → CallExitNode`` wired in
  call-site normal form, with the return value bound by the call-site
  exit node;
- ``return e`` lowers to ``$ret := e`` followed by an edge to the
  procedure exit; a body that falls off the end returns 0.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import LoweringError
from repro.ir import expr as ir
from repro.ir.icfg import EdgeKind, ICFG, ProcInfo
from repro.ir.nodes import (AssignNode, BranchNode, CallExitNode, CallNode,
                            EntryNode, ExitNode, Node, NopNode, PrintNode,
                            StoreNode)
from repro.lang import ast
from repro.lang.sema import check_program, collect_locals


class _ProcLowerer:
    """Lowers one procedure body into an already-scaffolded ICFG."""

    def __init__(self, icfg: ICFG, proc: ast.ProcDef,
                 global_names: frozenset, entry_id: int, exit_id: int) -> None:
        self.icfg = icfg
        self.proc = proc
        self.global_names = global_names
        self.info = icfg.procs[proc.name]
        self.entry_id = entry_id
        self.exit_id = exit_id
        self.local_names = set(proc.params) | set(collect_locals(proc))
        self.cursor: Optional[int] = None
        self.temp_count = 0
        # (continue_target, break_collector_nop) per enclosing loop.
        self.loop_stack: List[Tuple[int, int]] = []

    # -- plumbing ----------------------------------------------------------

    def resolve(self, name: str) -> ir.VarId:
        if name in self.local_names:
            return ir.VarId.local(self.proc.name, name)
        if name in self.global_names:
            return ir.VarId.global_(name)
        raise LoweringError(f"{self.proc.name}: unresolved name {name!r}")

    def new_temp(self) -> ir.VarId:
        temp = ir.VarId.local(self.proc.name, f"$t{self.temp_count}")
        self.temp_count += 1
        self.info.locals.append(temp)
        return temp

    def emit(self, node: Node) -> Node:
        """Register ``node`` and chain it after the current cursor."""
        self.icfg.add_node(node)
        if self.cursor is not None:
            self.icfg.add_edge(self.cursor, node.id, EdgeKind.NORMAL)
        self.cursor = node.id
        return node

    def fresh_nop(self, note: str) -> NopNode:
        node = NopNode(self.icfg.new_id(), self.proc.name, note)
        self.icfg.add_node(node)
        return node

    # -- expressions -------------------------------------------------------

    def lower_pure(self, expr: ast.Expr) -> ir.Expr:
        """Lower ``expr`` to a pure IR expression, hoisting effects."""
        if isinstance(expr, ast.IntLit):
            return ir.Const(expr.value)
        if isinstance(expr, ast.VarRef):
            return ir.VarExpr(self.resolve(expr.name))
        if isinstance(expr, ast.Unary):
            return ir.UnaryExpr(expr.op, self.lower_pure(expr.operand))
        if isinstance(expr, ast.Binary):
            left = self.lower_pure(expr.left)
            right = self.lower_pure(expr.right)
            return ir.BinaryExpr(expr.op, left, right)
        if isinstance(expr, ast.UnsignedCast):
            return ir.Convert(self.lower_pure(expr.operand))
        if isinstance(expr, ast.CallExpr):
            temp = self.new_temp()
            self.emit_call(expr, temp)
            return ir.VarExpr(temp)
        if isinstance(expr, ast.InputExpr):
            return ir.VarExpr(self.hoist(ir.InputRead()))
        if isinstance(expr, ast.AllocExpr):
            size = self.lower_pure(expr.size)
            return ir.VarExpr(self.hoist(ir.Alloc(size)))
        if isinstance(expr, ast.LoadExpr):
            address = self.lower_pure(expr.address)
            return ir.VarExpr(self.hoist(ir.Load(address)))
        raise LoweringError(f"unknown expression {type(expr).__name__}")

    def hoist(self, rhs: ir.Expr) -> ir.VarId:
        temp = self.new_temp()
        self.emit(AssignNode(self.icfg.new_id(), self.proc.name, temp, rhs))
        return temp

    def lower_assign_rhs(self, target: ir.VarId, expr: ast.Expr) -> None:
        """Lower ``target = expr`` avoiding a temp for a top-level effect."""
        if isinstance(expr, ast.CallExpr):
            self.emit_call(expr, target)
            return
        if isinstance(expr, ast.InputExpr):
            rhs: ir.Expr = ir.InputRead()
        elif isinstance(expr, ast.AllocExpr):
            rhs = ir.Alloc(self.lower_pure(expr.size))
        elif isinstance(expr, ast.LoadExpr):
            rhs = ir.Load(self.lower_pure(expr.address))
        else:
            rhs = self.lower_pure(expr)
        self.emit(AssignNode(self.icfg.new_id(), self.proc.name, target, rhs))

    def emit_call(self, call: ast.CallExpr, result: Optional[ir.VarId]) -> None:
        args = [self.lower_pure(a) for a in call.args]
        callee_info = self.icfg.procs.get(call.name)
        if callee_info is None:
            raise LoweringError(f"call to unknown procedure {call.name!r}")
        entry_id = callee_info.entries[0]
        exit_id = callee_info.exits[0]
        call_node = CallNode(self.icfg.new_id(), self.proc.name,
                             callee=call.name, args=args, entry_id=entry_id)
        self.emit(call_node)
        call_exit = CallExitNode(self.icfg.new_id(), self.proc.name, result)
        self.icfg.add_node(call_exit)
        self.icfg.add_edge(call_node.id, entry_id, EdgeKind.CALL)
        self.icfg.add_edge(call_node.id, call_exit.id, EdgeKind.LOCAL)
        self.icfg.add_edge(exit_id, call_exit.id, EdgeKind.RETURN)
        self.icfg.set_return_target(call_node, exit_id, call_exit.id)
        self.cursor = call_exit.id

    # -- conditions ----------------------------------------------------------

    def lower_cond(self, expr: ast.Expr) -> Tuple[Optional[int], Optional[int]]:
        """Lower ``expr`` in condition position from the current cursor.

        Returns attach points ``(true_point, false_point)`` — nop nodes
        whose pending NORMAL out-edge continues the corresponding arm.
        A ``None`` side is statically unreachable (constant condition).
        """
        if isinstance(expr, ast.Unary) and expr.op == "!":
            true_point, false_point = self.lower_cond(expr.operand)
            return false_point, true_point
        if isinstance(expr, ast.Binary) and expr.op in ("&&", "||"):
            return self._lower_shortcircuit(expr)
        if isinstance(expr, ast.IntLit):
            # Constant condition: fold, no branch node at all.
            point = self.cursor
            if expr.value != 0:
                return point, None
            return None, point

        predicate = self.lower_pure(expr)
        branch = BranchNode(self.icfg.new_id(), self.proc.name, predicate)
        self.emit(branch)
        true_nop = self.fresh_nop("then")
        false_nop = self.fresh_nop("else")
        self.icfg.add_edge(branch.id, true_nop.id, EdgeKind.TRUE)
        self.icfg.add_edge(branch.id, false_nop.id, EdgeKind.FALSE)
        self.cursor = None
        return true_nop.id, false_nop.id

    def _lower_shortcircuit(self, expr: ast.Binary) -> Tuple[Optional[int],
                                                             Optional[int]]:
        left_true, left_false = self.lower_cond(expr.left)
        if expr.op == "&&":
            self.cursor = left_true
            if left_true is None:
                return None, left_false
            right_true, right_false = self.lower_cond(expr.right)
            false_point = self._merge_points(left_false, right_false)
            return right_true, false_point
        # "||"
        self.cursor = left_false
        if left_false is None:
            return left_true, None
        right_true, right_false = self.lower_cond(expr.right)
        true_point = self._merge_points(left_true, right_true)
        return true_point, right_false

    def _merge_points(self, first: Optional[int],
                      second: Optional[int]) -> Optional[int]:
        if first is None:
            return second
        if second is None:
            return first
        join = self.fresh_nop("join")
        self.icfg.add_edge(first, join.id, EdgeKind.NORMAL)
        self.icfg.add_edge(second, join.id, EdgeKind.NORMAL)
        return join.id

    # -- statements ------------------------------------------------------------

    def lower_body(self) -> None:
        self.cursor = self.entry_id
        self.lower_stmts(self.proc.body)
        if self.cursor is not None:
            ret = AssignNode(self.icfg.new_id(), self.proc.name,
                             self.info.ret_var, ir.Const(0))
            self.emit(ret)
            self.icfg.add_edge(ret.id, self.exit_id, EdgeKind.NORMAL)
            self.cursor = None

    def lower_stmts(self, stmts: List[ast.Stmt]) -> None:
        for stmt in stmts:
            if self.cursor is None:
                return  # unreachable tail of the block; skip it
            self.lower_stmt(stmt)

    def lower_stmt(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.VarDecl):
            if stmt.init is not None:
                self.lower_assign_rhs(self.resolve(stmt.name), stmt.init)
            return
        if isinstance(stmt, ast.Assign):
            self.lower_assign_rhs(self.resolve(stmt.name), stmt.value)
            return
        if isinstance(stmt, ast.CallStmt):
            self.emit_call(stmt.call, result=None)
            return
        if isinstance(stmt, ast.If):
            self.lower_if(stmt)
            return
        if isinstance(stmt, ast.While):
            self.lower_while(stmt)
            return
        if isinstance(stmt, ast.Return):
            value = (self.lower_pure(stmt.value)
                     if stmt.value is not None else ir.Const(0))
            ret = AssignNode(self.icfg.new_id(), self.proc.name,
                             self.info.ret_var, value)
            self.emit(ret)
            self.icfg.add_edge(ret.id, self.exit_id, EdgeKind.NORMAL)
            self.cursor = None
            return
        if isinstance(stmt, ast.Print):
            value = self.lower_pure(stmt.value)
            self.emit(PrintNode(self.icfg.new_id(), self.proc.name, value))
            return
        if isinstance(stmt, ast.StoreStmt):
            address = self.lower_pure(stmt.address)
            value = self.lower_pure(stmt.value)
            self.emit(StoreNode(self.icfg.new_id(), self.proc.name,
                                address, value))
            return
        if isinstance(stmt, ast.Break):
            _, break_nop = self.loop_stack[-1]
            self.icfg.add_edge(self.cursor, break_nop, EdgeKind.NORMAL)
            self.cursor = None
            return
        if isinstance(stmt, ast.Continue):
            header, _ = self.loop_stack[-1]
            self.icfg.add_edge(self.cursor, header, EdgeKind.NORMAL)
            self.cursor = None
            return
        raise LoweringError(f"unknown statement {type(stmt).__name__}")

    def lower_if(self, stmt: ast.If) -> None:
        true_point, false_point = self.lower_cond(stmt.cond)

        self.cursor = true_point
        if true_point is not None:
            self.lower_stmts(stmt.then_body)
        then_end = self.cursor

        self.cursor = false_point
        if false_point is not None:
            self.lower_stmts(stmt.else_body)
        else_end = self.cursor

        self.cursor = self._merge_points(then_end, else_end)

    def lower_while(self, stmt: ast.While) -> None:
        header = self.fresh_nop("loop")
        if self.cursor is not None:
            self.icfg.add_edge(self.cursor, header.id, EdgeKind.NORMAL)
        self.cursor = header.id
        true_point, false_point = self.lower_cond(stmt.cond)

        break_nop = self.fresh_nop("break")
        self.loop_stack.append((header.id, break_nop.id))
        self.cursor = true_point
        if true_point is not None:
            self.lower_stmts(stmt.body)
            if self.cursor is not None:
                self.icfg.add_edge(self.cursor, header.id, EdgeKind.NORMAL)
        self.loop_stack.pop()

        exit_point = false_point
        if self.icfg.pred_edges(break_nop.id):
            if exit_point is not None:
                self.icfg.add_edge(exit_point, break_nop.id, EdgeKind.NORMAL)
            self.cursor = break_nop.id
        else:
            self.icfg.remove_node(break_nop.id)
            self.cursor = exit_point


def lower_program(program: ast.Program, check: bool = True) -> ICFG:
    """Lower a checked MiniC program to its ICFG."""
    from repro import obs
    with obs.span("ir.lower") as obs_span:
        icfg = _lower_program(program, check)
        obs_span.set(procs=len(icfg.procs), nodes=icfg.node_count())
    return icfg


def _lower_program(program: ast.Program, check: bool) -> ICFG:
    """The untraced body of :func:`lower_program`."""
    if check:
        check_program(program)

    icfg = ICFG(main="main")
    global_names = frozenset(g.name for g in program.globals)
    for decl in program.globals:
        icfg.set_global(ir.VarId.global_(decl.name), decl.init)

    # Pass 1: scaffold every procedure so call lowering can reference
    # entries/exits of procedures defined later in the file.
    scaffold: Dict[str, Tuple[int, int]] = {}
    for proc in program.procs:
        params = [ir.VarId.local(proc.name, p) for p in proc.params]
        locals_ = list(params)
        locals_.extend(ir.VarId.local(proc.name, v) for v in collect_locals(proc))
        locals_.append(ir.VarId.ret(proc.name))
        info = ProcInfo(proc.name, params=params, locals=locals_)
        icfg.add_proc(info)
        entry = EntryNode(icfg.new_id(), proc.name)
        exit_node = ExitNode(icfg.new_id(), proc.name)
        icfg.add_node(entry)
        icfg.add_node(exit_node)
        info.entries.append(entry.id)
        info.exits.append(exit_node.id)
        scaffold[proc.name] = (entry.id, exit_node.id)

    # Pass 2: lower bodies.
    for proc in program.procs:
        entry_id, exit_id = scaffold[proc.name]
        _ProcLowerer(icfg, proc, global_names, entry_id, exit_id).lower_body()

    return icfg
