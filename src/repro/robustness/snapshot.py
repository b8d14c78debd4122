"""Cheap structural snapshots of an ICFG, for transactional transforms.

A snapshot captures exactly the mutable structure of a graph — nodes,
edge indices, procedure bookkeeping, globals, and the id allocator —
and can be restored any number of times.  It is *not* a ``deepcopy`` of
the whole world: node objects are duplicated via their own
``copy_with_id`` (sharing the immutable expression trees they point
at), edges are frozen dataclasses and shared outright, and nothing
outside the graph is touched.  Taking a snapshot therefore costs the
same order as :meth:`~repro.ir.icfg.ICFG.clone`.

With the analysis cache off (the ``--no-analysis-cache`` reference
path) the optimizer takes a snapshot before each conditional's
restructuring and rolls back to it when anything goes wrong, so one bad
conditional never poisons the rest of the run.  The cache-on path uses
the graph's own undo log instead (:meth:`~repro.ir.icfg.ICFG.begin` /
:meth:`~repro.ir.icfg.ICFG.rollback`), whose cost scales with the edit
rather than the graph; a snapshot restore is the oracle that undo log
is tested against.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.ir.icfg import Edge, ICFG, ProcInfo, next_restore_token
from repro.ir.nodes import Node


class ICFGSnapshot:
    """A frozen structural copy of an ICFG at one point in time."""

    __slots__ = ("main", "globals", "procs", "nodes", "succs", "ids",
                 "generation", "proc_touched", "restore_token", "oob")

    def __init__(self, main: str, globals_: Dict, procs: Dict[str, ProcInfo],
                 nodes: Dict[int, Node], succs: Dict[int, List[Edge]],
                 ids, generation: int = 0,
                 proc_touched: Optional[Dict[str, int]] = None,
                 restore_token: int = 0, oob: int = 0) -> None:
        self.main = main
        self.globals = globals_
        self.procs = procs
        self.nodes = nodes
        self.succs = succs
        self.ids = ids
        self.generation = generation
        self.proc_touched = proc_touched if proc_touched is not None else {}
        #: Lineage epoch of the graph the snapshot was taken from; a
        #: restore hands it to the target so caches can tell a rewind
        #: within their own history from an arbitrary state swap.
        self.restore_token = restore_token
        #: Out-of-band write count of the captured history (see
        #: ICFG.tainted).
        self.oob = oob

    @classmethod
    def take(cls, icfg: ICFG) -> "ICFGSnapshot":
        """Capture ``icfg``'s current structure (the graph is unharmed)."""
        return cls(
            main=icfg.main,
            globals_=dict(icfg.globals),
            procs={name: info.copy() for name, info in icfg.procs.items()},
            nodes={nid: node.copy_with_id(nid)
                   for nid, node in icfg.nodes.items()},
            succs={nid: list(edges) for nid, edges in icfg._succs.items()},
            ids=icfg._ids.clone(),
            generation=icfg.generation,
            proc_touched=dict(icfg._proc_touched),
            restore_token=icfg.restore_token,
            oob=icfg._oob)

    @property
    def node_count(self) -> int:
        """How many nodes the snapshotted graph had."""
        return len(self.nodes)

    def restore(self, into: Optional[ICFG] = None) -> ICFG:
        """Materialize the snapshotted state and return the graph.

        With ``into`` the target graph is overwritten in place (its
        object identity survives); otherwise a fresh :class:`ICFG` is
        built.  The snapshot itself stays valid — node objects are
        re-copied on every restore, so later mutation of a restored
        graph cannot corrupt the snapshot.
        """
        target = into if into is not None else ICFG(self.main)
        target.main = self.main
        target.globals = dict(self.globals)
        target.procs = {name: info.copy() for name, info in self.procs.items()}
        target.nodes = {nid: node.copy_with_id(nid)
                        for nid, node in self.nodes.items()}
        succs: Dict[int, List[Edge]] = {nid: list(edges)
                                        for nid, edges in self.succs.items()}
        preds: Dict[int, List[Edge]] = {nid: [] for nid in self.nodes}
        for edges in succs.values():
            for edge in edges:
                preds[edge.dst].append(edge)
        target._succs = succs
        target._preds = preds
        target._ids = self.ids.clone()
        # Restore the mutation clock too: a rolled-back graph is the
        # graph the snapshot saw, so analyses cached against that
        # generation are valid again.  But rewinding the clock lets new
        # mutations re-spend generation numbers the abandoned history
        # already used, so the restored graph also enters a fresh
        # lineage epoch and records exactly where it came from — caches
        # keyed on (epoch, generation) can then distinguish "back to the
        # state I know" from "different state, same number".
        target.generation = self.generation
        target._proc_touched = dict(self.proc_touched)
        target.restored_from_token = self.restore_token
        target.restored_generation = self.generation
        target.restore_token = next_restore_token()
        target._oob = self.oob
        target._log = None
        target.drop_derived()
        return target
