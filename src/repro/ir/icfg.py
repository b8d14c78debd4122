"""The interprocedural control flow graph (ICFG).

The ICFG combines every procedure's CFG and connects call sites with
procedure entries and exits (paper Fig. 3).  It is kept in *call-site
normal form*:

- each call node has exactly one procedure-entry successor (CALL edge)
  plus one LOCAL edge per associated call-site exit node;
- each call-site exit node has exactly one call-node predecessor (LOCAL)
  and one procedure-exit predecessor (RETURN).

Procedures may own multiple entry and exit nodes — that is the whole
point of entry/exit splitting — so :class:`ProcInfo` tracks lists.

The graph owns all mutation: nodes never hold edges, and the successor
and predecessor indices are updated together.  Because every write goes
through it, the graph can also log them: :meth:`ICFG.begin` opens an
undo log that :meth:`ICFG.rollback` replays backwards, so a transaction
costs what its edit costs rather than a copy of the graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum, unique
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.errors import LoweringError
from repro.ir.expr import VarId
from repro.ir.nodes import (AssignNode, BranchNode, CallExitNode, CallNode,
                            EntryNode, ExitNode, Node, NopNode)
from repro.utils.ids import IdAllocator


@unique
class EdgeKind(Enum):
    """How control (or analysis information) flows along an edge."""

    NORMAL = "normal"    # ordinary intraprocedural fallthrough
    TRUE = "true"        # branch taken
    FALSE = "false"      # branch not taken
    CALL = "call"        # call node -> procedure entry
    LOCAL = "local"      # call node -> call-site exit (bypass bookkeeping)
    RETURN = "return"    # procedure exit -> call-site exit

    def __str__(self) -> str:
        return self.value


#: Edge kinds a walker follows for *intraprocedural* control flow.
INTRA_KINDS = (EdgeKind.NORMAL, EdgeKind.TRUE, EdgeKind.FALSE)

#: Process-wide source of lineage-epoch tokens (see ICFG.restore_token).
#: Zero is reserved for "never restored".
_restore_tokens = 0


def next_restore_token() -> int:
    """A fresh, process-unique lineage token for a snapshot restore."""
    global _restore_tokens
    _restore_tokens += 1
    return _restore_tokens


@dataclass(frozen=True)
class Edge:
    """A directed edge; identity is the full (src, dst, kind) triple."""

    src: int
    dst: int
    kind: EdgeKind

    def __str__(self) -> str:
        return f"{self.src} -{self.kind}-> {self.dst}"


@dataclass
class ProcInfo:
    """Per-procedure bookkeeping the graph structure does not encode."""

    name: str
    params: List[VarId] = field(default_factory=list)
    locals: List[VarId] = field(default_factory=list)
    entries: List[int] = field(default_factory=list)
    exits: List[int] = field(default_factory=list)

    @property
    def ret_var(self) -> VarId:
        return VarId.ret(self.name)

    def copy(self) -> "ProcInfo":
        return ProcInfo(self.name, list(self.params), list(self.locals),
                        list(self.entries), list(self.exits))


#: Undo-log record tags (see :meth:`ICFG.rollback`).  The two commonest
#: records, an added edge and an added node, are logged as the bare
#: Edge or Node (no tuple to allocate); every other record is a tuple
#: led by its tag.
_NODE_DEL, _EDGE_DEL = "node-", "edge-"
_PROC_ADD, _PROC_DEL, _LIST_APPEND = "proc+", "proc-", "append"
_FIELDS, _PROC_LISTS, _NODE_ENTRY, _GLOBAL = "fields", "lists", "entry", "global"


def _field_image(node: Node) -> Dict[str, object]:
    """A restorable copy of ``node``'s fields.  Containers are copied
    one level deep, which is as deep as any node field nests."""
    return {name: (dict(value) if isinstance(value, dict)
                   else list(value) if isinstance(value, list) else value)
            for name, value in vars(node).items()}


@dataclass
class EditSet:
    """What the undo log says a transaction changed (:meth:`ICFG.
    edits_since`); ids may name nodes removed later in the log."""

    #: Endpoints of every added or removed edge, and every added node.
    nodes: Set[int] = field(default_factory=set)
    #: Nodes whose fields were written in place (logged pre-images).
    rewritten: Set[int] = field(default_factory=set)
    #: Procedures structurally changed, deleted ones included.
    procs: Set[str] = field(default_factory=set)


def _map_refs(mapping: Dict[int, int]) -> Set[int]:
    """Every node id a return map names, as key or value."""
    return set(mapping).union(mapping.values())


@dataclass
class _PruneState:
    """What changed since the last prune (see ICFG.remove_unreachable)."""

    #: Targets of removed edges and added nodes.  None until a full walk
    #: has run, and after anything that voids the seeded walk's premise.
    seeds: Optional[Set[int]] = None
    #: Removed nodes, and the procedures that lost them.
    removed: Set[int] = field(default_factory=set)
    procs: Set[str] = field(default_factory=set)
    #: main's entry at the last prune.
    root: Optional[int] = None
    #: Calls whose return map named a missing node when written.
    rmap_dirty: Set[int] = field(default_factory=set)

    def copy(self) -> "_PruneState":
        return _PruneState(None if self.seeds is None else set(self.seeds),
                           set(self.removed), set(self.procs), self.root,
                           set(self.rmap_dirty))


class Mark:
    """The state an open transaction can roll back to (:meth:`ICFG.begin`).

    Only the scalars and small per-procedure tables are copied; the
    graph itself is restored by replaying the undo log backwards."""

    __slots__ = ("log", "position", "generation", "proc_touched",
                 "next_id", "restore_token", "oob", "node_count", "prune")

    def __init__(self, icfg: "ICFG") -> None:
        assert icfg._log is not None
        self.log = icfg._log
        self.position = len(icfg._log)
        self.generation = icfg.generation
        self.proc_touched = dict(icfg._proc_touched)
        self.next_id = icfg._ids.next_id
        self.restore_token = icfg.restore_token
        self.oob = icfg._oob
        self.node_count = len(icfg.nodes)
        self.prune = icfg._prune.copy()


class ICFG:
    """Whole-program interprocedural CFG in call-site normal form."""

    def __init__(self, main: str = "main") -> None:
        self.main = main
        #: Node and edge-index dicts are kept in ascending id order
        #: (ids are allocated monotonically; rollback re-sorts).
        self.nodes: Dict[int, Node] = {}
        self.procs: Dict[str, ProcInfo] = {}
        self.globals: Dict[VarId, int] = {}
        self._succs: Dict[int, List[Edge]] = {}
        self._preds: Dict[int, List[Edge]] = {}
        self._ids = IdAllocator()
        #: Monotonically-increasing mutation counter.  Every structural
        #: mutation bumps it, so ``generation`` equality between two
        #: points in time proves the graph was not touched in between —
        #: the validity token for every cached analysis.
        self.generation: int = 0
        #: proc name -> generation of its last structural change.  A
        #: name may outlive its procedure (``remove_unreachable`` can
        #: delete procs); staleness queries must tolerate that.
        self._proc_touched: Dict[str, int] = {}
        #: Lineage epoch.  The generation counter identifies a state
        #: *within* one mutation history, but a snapshot restore can
        #: rewind it — after which new mutations re-use generation
        #: numbers an earlier history already spent, and two different
        #: graph states share one generation.  Every restore therefore
        #: stamps a fresh, process-unique token here; equal tokens prove
        #: equal history, so (token, generation) identifies a state
        #: outright.  See :meth:`restored_state_matches`.
        self.restore_token: int = 0
        #: Where the last restore landed: the generation the snapshot
        #: captured, and the token of the history it was taken from.
        #: None until the graph has ever been restored into.
        self.restored_generation: Optional[int] = None
        self.restored_from_token: Optional[int] = None
        #: How many out-of-band writes (:meth:`mark_all_dirty`) this
        #: history contains.  While non-zero the derived indexes below
        #: may disagree with ``nodes``, so every reader falls back to a
        #: full scan, and pruning and splitting use their full-graph
        #: algorithms.
        self._oob = 0
        #: The undo log of the open transaction, None outside one.
        self._log: Optional[List[object]] = None
        # Derived indexes: None until first needed, then kept current
        # by the mutators (and released by drop_derived).
        self._proc_nodes: Optional[Dict[str, Set[int]]] = None
        self._branches: Optional[Set[int]] = None
        #: callee name -> ids of the call nodes that call it.
        self._callers: Optional[Dict[str, Set[int]]] = None
        self._executable = 0
        #: node id -> ids of the calls whose return map names it; built
        #: by a full prune for the seeded prunes that follow.
        self._rmap_refs: Optional[Dict[int, Set[int]]] = None
        self._prune = _PruneState()

    # -- mutation tracking ---------------------------------------------------

    def _touch(self, *procs: str) -> None:
        """Record a structural mutation affecting ``procs``."""
        self.generation += 1
        for proc in procs:
            self._proc_touched[proc] = self.generation

    def mark_all_dirty(self) -> None:
        """Declare out-of-band mutation of unknown extent (e.g. fault
        injection that bypasses the mutator methods): every procedure is
        considered touched and the generation advances.  Until a
        rollback rewinds past this call, the graph's derived indexes
        are not trusted (readers rescan)."""
        self._oob += 1
        self.generation += 1
        for name in self.procs:
            self._proc_touched[name] = self.generation
        for name in self._proc_touched:
            self._proc_touched[name] = self.generation

    @property
    def tainted(self) -> bool:
        """True when an out-of-band write may have broken the derived
        indexes (and any structural invariant) since this history began."""
        return self._oob > 0

    def dirty_procs_since(self, generation: int) -> Set[str]:
        """Names of procedures structurally changed after ``generation``
        (including procedures deleted since then)."""
        return {name for name, gen in self._proc_touched.items()
                if gen > generation}

    def restored_state_matches(self, token: int, generation: int) -> bool:
        """Did the last restore land exactly on state
        ``(token, generation)``?

        True when the restored snapshot was taken from the history whose
        epoch was ``token``, at exactly ``generation`` — i.e. the graph
        right after the restore was byte-for-byte the state a cache
        synced at that (token, generation) pair describes, so the cache
        may adopt the new epoch instead of discarding everything."""
        return (self.restored_from_token == token
                and self.restored_generation == generation)

    # -- transactions ----------------------------------------------------------

    def begin(self) -> Mark:
        """Open (or continue) a transaction and return a mark that
        :meth:`rollback` can return to.  From here every mutation is
        logged until :meth:`commit`."""
        if self._log is None:
            self._log = []
        return Mark(self)

    def holds(self, mark: Mark) -> bool:
        """Can :meth:`rollback` still return to ``mark``?"""
        return self._log is mark.log and mark.position <= len(self._log)

    def commit(self) -> None:
        """Accept everything since :meth:`begin`: drop the undo log
        (every outstanding mark becomes invalid)."""
        if self._log is not None:
            self._log.clear()
        self._log = None

    def rollback(self, mark: Mark) -> None:
        """Restore the graph to ``mark`` by undoing the log backwards.

        The result is the state :class:`~repro.robustness.snapshot.
        ICFGSnapshot` would restore at the same point, down to dict
        and predecessor-list order, the id allocator, the mutation
        clock and the lineage stamps.  ``mark`` stays valid, so one
        mark serves any number of rollbacks."""
        if not self.holds(mark):
            raise ValueError("mark does not belong to the open transaction")
        log = self._log
        while len(log) > mark.position:
            self._undo(log.pop())
        # A snapshot restore rebuilds the dicts in ascending id order
        # and re-derives every predecessor list from the successor
        # lists; do the same so a rolled-back graph is the same graph.
        for table in (self.nodes, self._succs, self._preds):
            items = sorted(table.items())
            table.clear()
            table.update(items)
        for preds in self._preds.values():
            preds.clear()
        for edges in self._succs.values():
            for edge in edges:
                self._preds[edge.dst].append(edge)
        self.generation = mark.generation
        self._proc_touched = dict(mark.proc_touched)
        self._ids = IdAllocator(mark.next_id)
        self._oob = mark.oob
        self._prune = mark.prune.copy()
        self.restored_from_token = mark.restore_token
        self.restored_generation = mark.generation
        self.restore_token = next_restore_token()

    def _undo(self, record) -> None:
        if type(record) is Edge:
            self._succs[record.src].pop()
            self._preds[record.dst].pop()
            return
        if isinstance(record, Node):
            del self.nodes[record.id]
            del self._succs[record.id]
            del self._preds[record.id]
            self._unindex(record)
            return
        tag = record[0]
        if tag is _EDGE_DEL:
            _, edge, succ_at, pred_at = record
            self._succs[edge.src].insert(succ_at, edge)
            self._preds[edge.dst].insert(pred_at, edge)
        elif tag is _NODE_DEL:
            _, node, info, entry_at, exit_at = record
            self.nodes[node.id] = node
            self._succs[node.id] = []
            self._preds[node.id] = []
            self._index(node)
            if entry_at >= 0:
                info.entries.insert(entry_at, node.id)
            if exit_at >= 0:
                info.exits.insert(exit_at, node.id)
        elif tag is _FIELDS:
            _, node, image = record
            if (isinstance(node, CallNode)
                    and self.nodes.get(node.id) is node):
                self._note_return_map(node.id, node.return_map,
                                      image["return_map"])
            vars(node).clear()
            vars(node).update(image)
        elif tag is _LIST_APPEND:
            record[1].pop()
        elif tag is _PROC_ADD:
            del self.procs[record[1]]
        elif tag is _PROC_DEL:
            _, name, info, position = record
            items = list(self.procs.items())
            items.insert(position, (name, info))
            self.procs.clear()
            self.procs.update(items)
        elif tag is _PROC_LISTS:
            _, info, entries, exits = record
            info.entries[:] = entries
            info.exits[:] = exits
        elif tag is _NODE_ENTRY:
            _, node_id, node = record
            self.nodes[node_id] = node
        elif tag is _GLOBAL:
            _, var, present, value = record
            if present:
                self.globals[var] = value
            else:
                del self.globals[var]
        else:  # pragma: no cover - every tag is handled above
            raise AssertionError(f"unknown undo record {tag!r}")

    def _log_append(self, *record) -> None:
        if self._log is not None:
            self._log.append(record)

    def edits_since(self, mark: Mark) -> Optional[EditSet]:
        """Read the undo log back to ``mark``: what changed since.

        None when the log cannot vouch for the extent of the change: the
        graph is tainted (out-of-band writes), ``mark`` is not a point of
        the open transaction, or the log holds a record other than an
        edge or node add/remove, a field pre-image, an entry/exit list
        append or a procedure deletion."""
        if self._oob or not self.holds(mark):
            return None
        edits = EditSet(procs=self.dirty_procs_since(mark.generation))
        touched, rewritten = edits.nodes, edits.rewritten
        for record in self._log[mark.position:]:
            if type(record) is Edge:
                touched.add(record.src)
                touched.add(record.dst)
            elif isinstance(record, Node):
                touched.add(record.id)
            elif record[0] is _EDGE_DEL:
                touched.add(record[1].src)
                touched.add(record[1].dst)
            elif record[0] is _FIELDS:
                rewritten.add(record[1].id)
            elif record[0] not in (_NODE_DEL, _LIST_APPEND, _PROC_DEL):
                return None
        return edits

    # -- derived indexes -------------------------------------------------------

    def _node_index(self) -> Dict[str, Set[int]]:
        """The per-procedure node index, built on first use."""
        if self._proc_nodes is None:
            self._proc_nodes, self._branches, self._executable = {}, set(), 0
            self._callers = {}
            for node in self.nodes.values():
                self._index(node)
        return self._proc_nodes

    def _index(self, node: Node) -> None:
        if self._proc_nodes is not None:
            self._proc_nodes.setdefault(node.proc, set()).add(node.id)
            if node.is_executable:
                self._executable += 1
            if isinstance(node, BranchNode):
                self._branches.add(node.id)
            elif isinstance(node, CallNode):
                self._callers.setdefault(node.callee, set()).add(node.id)
        if isinstance(node, CallNode):
            self._note_return_map(node.id, {}, node.return_map)

    def _unindex(self, node: Node) -> None:
        if self._proc_nodes is not None:
            members = self._proc_nodes.get(node.proc)
            if members is not None:
                members.discard(node.id)
                if not members:
                    del self._proc_nodes[node.proc]
            if node.is_executable:
                self._executable -= 1
            if isinstance(node, BranchNode):
                self._branches.discard(node.id)
            elif isinstance(node, CallNode):
                callers = self._callers.get(node.callee)
                if callers is not None:
                    callers.discard(node.id)
                    if not callers:
                        del self._callers[node.callee]
        if isinstance(node, CallNode):
            self._note_return_map(node.id, node.return_map, {})

    def _note_return_map(self, call_id: int, old: Dict[int, int],
                         new: Dict[int, int]) -> None:
        """Keep ``_rmap_refs`` in step with one call's return map."""
        if self._rmap_refs is None:
            return
        before, after = _map_refs(old), _map_refs(new)
        for ref in before - after:
            callers = self._rmap_refs.get(ref)
            if callers is not None:
                callers.discard(call_id)
                if not callers:
                    del self._rmap_refs[ref]
        for ref in after - before:
            self._rmap_refs.setdefault(ref, set()).add(call_id)
            if ref not in self.nodes:
                self._prune.rmap_dirty.add(call_id)

    def drop_derived(self) -> None:
        """Release the derived indexes and the seeded-pruning state.
        Indexes are rebuilt on demand and the next prune walks the whole
        graph; for a graph that is finished, or whose state was swapped
        wholesale."""
        self._proc_nodes = self._branches = self._rmap_refs = None
        self._callers = None
        self._executable = 0
        self._prune = _PruneState()

    # -- construction -------------------------------------------------------

    def add_proc(self, info: ProcInfo) -> None:
        if info.name in self.procs:
            raise LoweringError(f"duplicate procedure {info.name!r}")
        self.procs[info.name] = info
        # A procedure may start out empty, and only a full walk deletes
        # empty procedures it did not empty itself.
        self._prune.seeds = None
        self._log_append(_PROC_ADD, info.name)

    def set_global(self, var: VarId, value: int) -> None:
        self._log_append(_GLOBAL, var, var in self.globals,
                         self.globals.get(var))
        self.globals[var] = value

    def add_node(self, node: Node) -> Node:
        if node.id in self.nodes:
            raise LoweringError(f"duplicate node id {node.id}")
        self.nodes[node.id] = node
        self._succs[node.id] = []
        self._preds[node.id] = []
        self._ids.reserve_through(node.id)
        if self._proc_nodes is not None or self._rmap_refs is not None:
            self._index(node)
        seeds = self._prune.seeds
        if seeds is not None:
            seeds.add(node.id)
        if self._log is not None:
            self._log.append(node)
        self._touch(node.proc)
        return node

    def new_id(self) -> int:
        return self._ids.allocate()

    def add_edge(self, src: int, dst: int, kind: EdgeKind) -> Edge:
        edge = Edge(src, dst, kind)
        succs = self._succs[src]
        if edge in succs:
            raise LoweringError(f"duplicate edge {edge}")
        preds = self._preds[dst]
        succs.append(edge)
        preds.append(edge)
        if self._log is not None:
            self._log.append(edge)
        self._touch(self.nodes[src].proc, self.nodes[dst].proc)
        return edge

    def remove_edge(self, edge: Edge) -> None:
        succs = self._succs[edge.src]
        if edge not in succs:
            succs.remove(edge)  # raises the usual ValueError
        preds = self._preds[edge.dst]
        if edge not in preds:
            preds.remove(edge)
        succ_at = succs.index(edge)
        pred_at = preds.index(edge)
        del succs[succ_at]
        del preds[pred_at]
        if self._prune.seeds is not None:
            self._prune.seeds.add(edge.dst)
        if self._log is not None:
            self._log.append((_EDGE_DEL, edge, succ_at, pred_at))
        self._touch(self.nodes[edge.src].proc, self.nodes[edge.dst].proc)

    def has_edge(self, src: int, dst: int, kind: EdgeKind) -> bool:
        return Edge(src, dst, kind) in self._succs[src]

    def remove_node(self, node_id: int) -> None:
        """Remove a node and every incident edge."""
        for edge in list(self._succs[node_id]):
            self.remove_edge(edge)
        for edge in list(self._preds[node_id]):
            self.remove_edge(edge)
        node = self.nodes.pop(node_id)
        del self._succs[node_id]  # both empty now
        del self._preds[node_id]
        self._unindex(node)
        info = self.procs.get(node.proc)
        entry_at = exit_at = -1
        if info is not None:
            if node_id in info.entries:
                entry_at = info.entries.index(node_id)
                del info.entries[entry_at]
            if node_id in info.exits:
                exit_at = info.exits.index(node_id)
                del info.exits[exit_at]
        if self._prune.seeds is not None:
            self._prune.removed.add(node_id)
            self._prune.procs.add(node.proc)
        self._log_append(_NODE_DEL, node, info, entry_at, exit_at)
        self._touch(node.proc)

    def duplicate_node(self, node: Node) -> Node:
        """Register a copy of ``node`` under a fresh id (no edges).

        Entry/exit copies are appended to their procedure's entry/exit
        lists — duplication of those nodes *is* entry/exit splitting.
        """
        copy = node.copy_with_id(self.new_id())
        self.add_node(copy)
        info = self.procs[node.proc]
        if isinstance(node, EntryNode):
            info.entries.append(copy.id)
            self._log_append(_LIST_APPEND, info.entries)
        elif isinstance(node, ExitNode):
            info.exits.append(copy.id)
            self._log_append(_LIST_APPEND, info.exits)
        return copy

    # -- in-place field writes -------------------------------------------------
    #
    # Node fields the graph's structure depends on are written through
    # these methods, which log a pre-image for rollback and keep the
    # return-map index current.  Code that must write around them (fault
    # injection) logs its own pre-image first with the record_* methods.

    def record_node_preimage(self, node: Node) -> None:
        """Log ``node``'s fields so a rollback restores them."""
        if self._log is not None:
            self._log.append((_FIELDS, node, _field_image(node)))

    def record_proc_preimage(self, name: str) -> None:
        """Log procedure ``name``'s entry and exit lists."""
        info = self.procs[name]
        self._log_append(_PROC_LISTS, info, list(info.entries),
                         list(info.exits))

    def record_node_entry(self, node_id: int) -> None:
        """Log ``nodes[node_id]`` so a rollback re-registers it."""
        self._log_append(_NODE_ENTRY, node_id, self.nodes[node_id])

    def set_entry_id(self, call: CallNode, entry_id: int) -> None:
        self.record_node_preimage(call)
        call.entry_id = entry_id

    def set_return_map(self, call: CallNode, mapping: Dict[int, int]) -> None:
        """Replace ``call``'s return map (the one writer of return maps)."""
        self.record_node_preimage(call)
        old, call.return_map = call.return_map, mapping
        if self.nodes.get(call.id) is call:
            self._note_return_map(call.id, old, mapping)

    def set_return_target(self, call: CallNode, exit_id: int,
                          call_exit_id: int) -> None:
        """Map callee exit ``exit_id`` to call-site exit ``call_exit_id``."""
        self.set_return_map(call, {**call.return_map, exit_id: call_exit_id})

    def drop_return_target(self, call: CallNode, exit_id: int) -> None:
        """Forget the return address of callee exit ``exit_id``."""
        if exit_id in call.return_map:
            self.set_return_map(call, {ex: ce for ex, ce
                                       in call.return_map.items()
                                       if ex != exit_id})

    # -- queries ---------------------------------------------------------

    def node(self, node_id: int) -> Node:
        return self.nodes[node_id]

    def succ_edges(self, node_id: int) -> Tuple[Edge, ...]:
        return tuple(self._succs[node_id])

    def pred_edges(self, node_id: int) -> Tuple[Edge, ...]:
        return tuple(self._preds[node_id])

    def successors(self, node_id: int) -> Tuple[int, ...]:
        return tuple(e.dst for e in self._succs[node_id])

    def predecessors(self, node_id: int) -> Tuple[int, ...]:
        return tuple(e.src for e in self._preds[node_id])

    def only_succ(self, node_id: int, kind: Optional[EdgeKind] = None) -> int:
        """The unique successor (optionally restricted to one edge kind)."""
        edges = [e for e in self._succs[node_id]
                 if kind is None or e.kind is kind]
        if len(edges) != 1:
            raise LoweringError(
                f"node {node_id} has {len(edges)} successors of kind {kind}")
        return edges[0].dst

    def branch_targets(self, node_id: int) -> Tuple[int, int]:
        """(true_successor, false_successor) of a branch node."""
        true_dst = false_dst = None
        for edge in self._succs[node_id]:
            if edge.kind is EdgeKind.TRUE:
                true_dst = edge.dst
            elif edge.kind is EdgeKind.FALSE:
                false_dst = edge.dst
        if true_dst is None or false_dst is None:
            raise LoweringError(f"branch {node_id} lacks true/false successors")
        return true_dst, false_dst

    def call_exits_of(self, call_id: int) -> Tuple[int, ...]:
        return tuple(e.dst for e in self._succs[call_id]
                     if e.kind is EdgeKind.LOCAL)

    def call_pred_of_call_exit(self, call_exit_id: int) -> int:
        for edge in self._preds[call_exit_id]:
            if edge.kind is EdgeKind.LOCAL:
                return edge.src
        raise LoweringError(f"call-exit {call_exit_id} has no call predecessor")

    def exit_pred_of_call_exit(self, call_exit_id: int) -> int:
        for edge in self._preds[call_exit_id]:
            if edge.kind is EdgeKind.RETURN:
                return edge.src
        raise LoweringError(f"call-exit {call_exit_id} has no exit predecessor")

    def iter_nodes(self) -> Iterator[Node]:
        """All nodes in ascending id order (deterministic)."""
        for node_id in sorted(self.nodes):
            yield self.nodes[node_id]

    def nodes_of(self, procs: Iterable[str]) -> List[Node]:
        """The nodes of the named procedures, in ascending id order."""
        if self._oob:
            scope = set(procs)
            return [node for node in self.iter_nodes() if node.proc in scope]
        index = self._node_index()
        ids: List[int] = []
        for proc in set(procs):
            ids.extend(index.get(proc, ()))
        ids.sort()
        return [self.nodes[node_id] for node_id in ids]

    def proc_nodes(self, proc: str) -> Iterator[Node]:
        return iter(self.nodes_of((proc,)))

    def branch_ids(self) -> List[int]:
        """Every branch node's id, ascending."""
        if self._oob or self._branches is None:
            return [node.id for node in self.iter_nodes()
                    if isinstance(node, BranchNode)]
        return sorted(self._branches)

    def branch_nodes(self) -> List[BranchNode]:
        return [self.nodes[node_id] for node_id in self.branch_ids()]

    def call_nodes(self) -> List[CallNode]:
        """Every call node, in ascending id order."""
        if self._oob or self._callers is None:
            return [n for n in self.iter_nodes() if isinstance(n, CallNode)]
        ids = sorted(call_id for calls in self._callers.values()
                     for call_id in calls)
        return [self.nodes[call_id] for call_id in ids]

    def calls_into(self, proc: str) -> List[CallNode]:
        """The call nodes whose callee is ``proc``, ascending by id."""
        if self._oob:
            return [n for n in self.call_nodes() if n.callee == proc]
        self._node_index()
        ids = sorted(self._callers.get(proc, ()))
        return [self.nodes[call_id] for call_id in ids]

    def main_entry(self) -> int:
        """The original entry of ``main`` (splitting never retargets it:
        the program always starts at entry 0 of main)."""
        return self.procs[self.main].entries[0]

    # -- metrics -------------------------------------------------------------

    def executable_node_count(self) -> int:
        if self._oob or self._proc_nodes is None:
            return sum(1 for n in self.nodes.values() if n.is_executable)
        return self._executable

    def conditional_node_count(self) -> int:
        if self._oob or self._branches is None:
            return sum(1 for n in self.nodes.values()
                       if isinstance(n, BranchNode))
        return len(self._branches)

    def node_count(self) -> int:
        return len(self.nodes)

    # -- maintenance -----------------------------------------------------------

    def remove_unreachable(self) -> int:
        """Drop nodes unreachable from main's entries; return count removed.

        Reachability follows control semantics: intraprocedural edges,
        CALL edges, LOCAL edges (a call's return points are reachable if
        the call is).  RETURN edges are *not* followed — a call-site exit
        is justified by its call, not by the callee's exit — but exits
        reachable inside a callee keep their RETURN edges meaningful.

        After the first prune the walk is *seeded*: every node was
        reachable right after the previous prune, so a node can only
        have died if it lies downstream of a change since — the target
        of a removed edge, or a node added since.  Only that forward
        closure is re-marked, from main's entry and from closure nodes
        with a predecessor outside it (those are reachable).  Out-of-band
        writes, a new procedure, or a moved main entry fall back to the
        full walk; both give the same graph.
        """
        root = self.procs[self.main].entries[:1]
        if (self._oob or self._prune.seeds is None or self._rmap_refs is None
                or root != [self._prune.root]):
            removed = self._prune_full(root)
        else:
            removed = self._prune_seeded(root)
        self._prune = _PruneState(seeds=set(), root=root[0] if root else None)
        return removed

    def _prune_full(self, root: List[int]) -> int:
        reachable = self._mark(root, None)
        doomed = [nid for nid in self.nodes if nid not in reachable]
        for node_id in doomed:
            self.remove_node(node_id)
        # Prune return maps of entries/exits that vanished.
        for node in list(self.nodes.values()):
            if isinstance(node, CallNode):
                self._prune_return_map(node)
        # Procedures whose every node vanished (fully inlined or never
        # called) no longer exist.
        populated = {node.proc for node in self.nodes.values()}
        self._drop_procs([name for name in self.procs
                          if name not in populated])
        self._rmap_refs = {}
        for node in self.nodes.values():
            if isinstance(node, CallNode):
                self._note_return_map(node.id, {}, node.return_map)
        return len(doomed)

    def _prune_seeded(self, root: List[int]) -> int:
        succs, preds = self._succs, self._preds
        closure: Set[int] = set()
        stack = [nid for nid in self._prune.seeds if nid in self.nodes]
        while stack:
            node_id = stack.pop()
            if node_id in closure:
                continue
            closure.add(node_id)
            for edge in succs[node_id]:
                if edge.kind is not EdgeKind.RETURN \
                        and edge.dst not in closure:
                    stack.append(edge.dst)
        roots = [nid for nid in root if nid in closure]
        roots.extend(nid for nid in closure
                     if any(edge.kind is not EdgeKind.RETURN
                            and edge.src not in closure
                            for edge in preds[nid]))
        reachable = self._mark(roots, closure)
        doomed = sorted(closure - reachable)
        for node_id in doomed:
            self.remove_node(node_id)
        callers: Set[int] = set(self._prune.rmap_dirty)
        for node_id in self._prune.removed:
            callers.update(self._rmap_refs.get(node_id, ()))
        for call_id in sorted(callers):
            node = self.nodes.get(call_id)
            if isinstance(node, CallNode):
                self._prune_return_map(node)
        index = self._node_index()
        self._drop_procs([name for name in self.procs
                          if name in self._prune.procs
                          and name not in index])
        return len(doomed)

    def _mark(self, roots: List[int], within: Optional[Set[int]]) -> Set[int]:
        """Nodes reachable from ``roots`` over non-RETURN edges (staying
        inside ``within`` when given)."""
        reachable: Set[int] = set()
        stack = list(roots)
        while stack:
            node_id = stack.pop()
            if node_id in reachable:
                continue
            reachable.add(node_id)
            for edge in self._succs[node_id]:
                if edge.kind is EdgeKind.RETURN:
                    continue
                if edge.dst not in reachable and (within is None
                                                  or edge.dst in within):
                    stack.append(edge.dst)
        return reachable

    def _prune_return_map(self, call: CallNode) -> None:
        kept = {ex: ce for ex, ce in call.return_map.items()
                if ex in self.nodes and ce in self.nodes}
        if len(kept) != len(call.return_map):
            self.set_return_map(call, kept)

    def _drop_procs(self, names: List[str]) -> None:
        for name in names:
            if name == self.main:
                continue
            position = list(self.procs).index(name)
            info = self.procs.pop(name)
            self._log_append(_PROC_DEL, name, info, position)
            self._touch(name)

    def clone(self) -> "ICFG":
        """Deep structural copy preserving every node id."""
        other = ICFG(self.main)
        other.globals = dict(self.globals)
        for name, info in self.procs.items():
            other.procs[name] = info.copy()
        for node_id, node in self.nodes.items():
            copy = node.copy_with_id(node_id)
            other.nodes[node_id] = copy
            other._succs[node_id] = []
            other._preds[node_id] = []
        for edges in self._succs.values():
            for edge in edges:
                other._succs[edge.src].append(edge)
                other._preds[edge.dst].append(edge)
        other._ids = self._ids.clone()
        other.generation = self.generation
        other._proc_touched = dict(self._proc_touched)
        other.restore_token = self.restore_token
        other.restored_generation = self.restored_generation
        other.restored_from_token = self.restored_from_token
        other._oob = self._oob
        return other
