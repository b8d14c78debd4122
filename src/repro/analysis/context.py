"""Shared, incrementally-invalidated analysis state across branches.

The demand-driven analysis is cheap *per branch*, but the optimizer
used to throw every derived fact away between branches: each
conditional rebuilt mod/ref summaries, re-interned nothing, and
re-raised summary queries earlier branches had already answered.  The
:class:`AnalysisContext` makes those facts first-class cached
artifacts, keyed to the graph's mutation *generation*
(:attr:`~repro.ir.icfg.ICFG.generation`), and invalidates them with
procedure-level precision using the graph's dirty sets.

Cached artifacts and their invalidation rules:

``summaries``
    Answer sets of completed summary-node queries, keyed
    ``(callee, exit node, plain query)``.  A summary's answers depend
    only on its callee's body and the bodies of that callee's
    transitive callees (summary queries stop at procedure entries with
    TRANS), so an entry is invalidated exactly when a committed
    transform dirties a procedure in that closure.  Only analyses that
    ran to completion (no budget exhaustion) may populate the cache —
    truncated answer sets are not exact and would poison reuse.

``modref``
    The transitive MOD sets and the call graph.  Any dirty procedure
    drops them (MOD is a whole-program fixpoint; recomputing it is
    cheaper than incrementalising it).

``indices``
    The sorted branch-id list the optimizer's pending scan uses, read
    from the graph's own branch index.  Any dirty procedure drops it.

Lifecycle: the pass manager calls :meth:`commit` after a transaction's
result is adopted — only then do dirty procedures invalidate entries —
and :meth:`rollback` after a restore, which invalidates *nothing*
because restoring a snapshot also restores the generation the caches
are keyed to.  A context whose generation disagrees with the graph's
simply stands aside (:meth:`in_sync` is False and every lookup misses),
so a desynchronised cache can cause a slow path but never a wrong one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.analysis.answers import Answer
from repro.analysis.facts import ValueSet
from repro.analysis.modref import call_graph, transitive_mod_sets
from repro.analysis.query import Query
from repro.ir.expr import VarId
from repro.ir.icfg import ICFG

#: Cache key of one summary-node entry: (callee, exit node, plain query).
SummaryKey = Tuple[str, int, Query]


@dataclass
class CacheStats:
    """Hit/miss/invalidation accounting for one optimizer run."""

    summary_hits: int = 0
    summary_misses: int = 0
    summary_stored: int = 0
    summary_invalidated: int = 0
    modref_reuses: int = 0
    modref_invalidated: int = 0
    index_reuses: int = 0
    index_invalidated: int = 0
    snapshot_reuses: int = 0
    restores_elided: int = 0
    analyses_reused: int = 0
    commits: int = 0
    rollbacks: int = 0
    queries_interned: int = 0
    value_sets_interned: int = 0

    @property
    def summary_lookups(self) -> int:
        return self.summary_hits + self.summary_misses

    def publish(self, prefix: str = "cache.") -> None:
        """Feed every counter into the active observability session's
        metrics registry (no-op when observability is off)."""
        from repro import obs
        if not obs.enabled():
            return
        for name, value in vars(self).items():
            obs.add(prefix + name, value)

    def describe(self) -> str:
        return (f"summary cache: {self.summary_hits} hits / "
                f"{self.summary_misses} misses / "
                f"{self.summary_invalidated} invalidated "
                f"({self.summary_stored} stored); "
                f"{self.analyses_reused} analyses reused, "
                f"{self.snapshot_reuses} snapshots reused, "
                f"{self.restores_elided} restores elided")


class AnalysisContext:
    """Cross-branch cache of analysis artifacts for one optimizer run."""

    #: Names passes use to declare which cached analyses they preserve.
    SUMMARIES = "summaries"
    MODREF = "modref"
    INDICES = "indices"
    ALL: FrozenSet[str] = frozenset((SUMMARIES, MODREF, INDICES))

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        #: Generation of the graph every cached artifact describes, or
        #: None before the context is bound to a run.
        self.generation: Optional[int] = None
        #: Lineage epoch of that graph (see ICFG.restore_token): the
        #: generation alone does not identify a state once a snapshot
        #: restore has rewound the mutation clock.
        self._restore_token: int = 0
        self.stats = CacheStats()
        self._queries: Dict[Query, Query] = {}
        self._value_sets: Dict[ValueSet, ValueSet] = {}
        self._summaries: Dict[SummaryKey, FrozenSet[Answer]] = {}
        self._summary_deps: Dict[SummaryKey, FrozenSet[str]] = {}
        self._mod_sets: Optional[Dict[str, Set[VarId]]] = None
        self._call_graph: Optional[Dict[str, Set[str]]] = None
        self._branch_ids: Optional[List[int]] = None
        #: Optional on-disk summary store (see repro.analysis.store);
        #: probed on memory misses, written through on stores.
        self._store = None
        self._closure_texts: Dict[FrozenSet[str], str] = {}

    # -- lifecycle -----------------------------------------------------------

    def bind(self, icfg: ICFG) -> None:
        """Attach to a run's working graph, dropping every cached fact."""
        self.generation = icfg.generation
        self._restore_token = icfg.restore_token
        self._summaries.clear()
        self._summary_deps.clear()
        self._mod_sets = None
        self._call_graph = None
        self._branch_ids = None
        self._closure_texts.clear()

    def _lineage_ok(self, icfg: ICFG) -> bool:
        """Is ``icfg`` the history the cached facts were computed on?

        A snapshot restore stamps the graph into a fresh lineage epoch.
        When the restore landed exactly on the cached state — same epoch
        the cache is synced to, same generation — the cache adopts the
        new epoch and every fact stays valid; any other epoch change
        means generation numbers are no longer comparable and the caller
        must rebind.  Without this check, a restore that rewinds *below*
        the cached generation followed by fresh mutations climbing back
        past it would slip through the ``generation <`` guard and serve
        summaries for procedure bodies that no longer exist.
        """
        if icfg.restore_token == self._restore_token:
            return True
        if (self.generation is not None
                and icfg.restored_state_matches(self._restore_token,
                                                self.generation)):
            self._restore_token = icfg.restore_token
            return True
        return False

    def in_sync(self, icfg: ICFG) -> bool:
        """True when cached facts describe exactly this graph state."""
        return (self.enabled and self.generation == icfg.generation
                and self._lineage_ok(icfg))

    def commit(self, icfg: ICFG,
               preserves: FrozenSet[str] = frozenset()) -> None:
        """A transform on ``icfg``'s lineage was adopted: invalidate
        cached facts reaching the dirty procedures, except the analyses
        the committing pass declared it preserves."""
        if not self.enabled:
            return
        self.stats.commits += 1
        if (self.generation is None or not self._lineage_ok(icfg)
                or icfg.generation < self.generation):
            # Unknown lineage: be safe and start over.
            self.bind(icfg)
            return
        dirty = icfg.dirty_procs_since(self.generation)
        self.generation = icfg.generation
        if not dirty:
            return
        if self.SUMMARIES not in preserves:
            doomed = [key for key, deps in self._summary_deps.items()
                      if deps & dirty]
            for key in doomed:
                del self._summaries[key]
                del self._summary_deps[key]
            self.stats.summary_invalidated += len(doomed)
        for closure in [c for c in self._closure_texts if c & dirty]:
            del self._closure_texts[closure]
        if self.MODREF not in preserves:
            if self._mod_sets is not None or self._call_graph is not None:
                self.stats.modref_invalidated += 1
            self._mod_sets = None
            self._call_graph = None
        if self.INDICES not in preserves:
            if self._branch_ids is not None:
                self.stats.index_invalidated += 1
            self._branch_ids = None

    def rollback(self, icfg: ICFG) -> None:
        """A transaction was rolled back.  Restoring a snapshot also
        restores the generation, so cached facts are valid again and
        nothing is invalidated."""
        if not self.enabled:
            return
        self.stats.rollbacks += 1
        if self.generation is not None and not self._lineage_ok(icfg):
            self.bind(icfg)
            return
        if self.generation is not None and icfg.generation != self.generation:
            # The restore did not land on the cached generation (an
            # out-of-lineage graph was swapped in): resynchronise.
            self.bind(icfg)

    # -- interning -----------------------------------------------------------

    def intern_query(self, query: Query) -> Query:
        """The canonical instance of ``query`` (identity-stable across
        branches, which turns dict probes into pointer comparisons)."""
        cached = self._queries.get(query)
        if cached is not None:
            return cached
        self._queries[query] = query
        self.stats.queries_interned += 1
        return query

    def intern_value_set(self, values: ValueSet) -> ValueSet:
        cached = self._value_sets.get(values)
        if cached is not None:
            return cached
        self._value_sets[values] = values
        self.stats.value_sets_interned += 1
        return values

    # -- memoized whole-program analyses -------------------------------------

    def mod_sets(self, icfg: ICFG) -> Dict[str, Set[VarId]]:
        """Memoized :func:`~repro.analysis.modref.transitive_mod_sets`."""
        if not self.in_sync(icfg):
            return transitive_mod_sets(icfg)
        if self._mod_sets is None:
            self._mod_sets = transitive_mod_sets(icfg)
        else:
            self.stats.modref_reuses += 1
        return self._mod_sets

    def callees_of(self, icfg: ICFG) -> Dict[str, Set[str]]:
        """Memoized call graph (caller -> callees)."""
        if not self.in_sync(icfg):
            return call_graph(icfg)
        if self._call_graph is None:
            self._call_graph = call_graph(icfg)
        else:
            self.stats.modref_reuses += 1
        return self._call_graph

    def branch_ids(self, icfg: ICFG) -> List[int]:
        """All branch-node ids, ascending (memoized until a commit)."""
        if not self.in_sync(icfg):
            return icfg.branch_ids()
        if self._branch_ids is None:
            self._branch_ids = icfg.branch_ids()
        else:
            self.stats.index_reuses += 1
        return self._branch_ids

    def _callee_closure(self, icfg: ICFG, proc: str) -> FrozenSet[str]:
        """``proc`` plus its transitive callees — everything a summary
        computed inside ``proc`` can structurally depend on."""
        graph = self.callees_of(icfg)
        seen = {proc}
        stack = [proc]
        while stack:
            for callee in graph.get(stack.pop(), ()):
                if callee not in seen:
                    seen.add(callee)
                    stack.append(callee)
        return frozenset(seen)

    # -- the cross-branch summary cache --------------------------------------

    def lookup_summary(self, icfg: ICFG, callee: str, exit_id: int,
                       plain_query: Query) -> Optional[FrozenSet[Answer]]:
        """The cached answer set of a summary-node query, or None.

        Misses in memory fall through to the attached on-disk store (if
        any); a store hit is decoded, installed in memory with its
        closure deps, and served like a native entry.
        """
        if not self.in_sync(icfg):
            return None
        found = self._summaries.get((callee, exit_id, plain_query))
        if found is None and self._store is not None:
            found = self._probe_store(icfg, callee, exit_id, plain_query)
        if found is None:
            self.stats.summary_misses += 1
        else:
            self.stats.summary_hits += 1
        return found

    def store_summary(self, icfg: ICFG, callee: str, exit_id: int,
                      plain_query: Query, answers: FrozenSet[Answer]) -> None:
        """Record a *completed* summary-node entry for later branches."""
        if not self.in_sync(icfg):
            return
        key = (callee, exit_id, self.intern_query(plain_query))
        if key in self._summaries:
            return
        closure = self._callee_closure(icfg, callee)
        self._summaries[key] = answers
        self._summary_deps[key] = closure
        self.stats.summary_stored += 1
        if self._store is not None:
            self._persist_summary(icfg, callee, exit_id, plain_query,
                                  answers, closure)

    def summary_count(self) -> int:
        return len(self._summaries)

    # -- the on-disk summary store ---------------------------------------

    def attach_store(self, store) -> None:
        """Back the summary cache with a persistent
        :class:`~repro.analysis.store.SummaryStore`."""
        self._store = store

    @property
    def store(self):
        return self._store

    def _closure_text(self, icfg: ICFG, closure: FrozenSet[str]) -> str:
        """Memoized canonical text of one callee closure (the store's
        content address component; invalidated with the closure)."""
        from repro.analysis.store import canonical_closure_text
        text = self._closure_texts.get(closure)
        if text is None:
            text = canonical_closure_text(icfg, closure)
            self._closure_texts[closure] = text
        return text

    def _probe_store(self, icfg: ICFG, callee: str, exit_id: int,
                     plain_query: Query) -> Optional[FrozenSet[Answer]]:
        from repro.analysis.store import closure_locals, decode_answers
        if callee not in icfg.procs:
            return None
        closure = self._callee_closure(icfg, callee)
        local_of = closure_locals(icfg, closure)
        exit_ref = local_of.get(exit_id)
        if exit_ref is None:
            return None
        key = self._store.entry_key(self._closure_text(icfg, closure),
                                    callee, exit_ref[1], plain_query)
        encoded = self._store.load(key)
        if encoded is None:
            return None
        node_of = {ref: nid for nid, ref in local_of.items()}
        try:
            answers = decode_answers(encoded, node_of)
        except (KeyError, ValueError, TypeError):
            # Unresolvable reference or malformed payload: a miss, and
            # counted as a reject so a poisoned store stays visible.
            self._store.stats.hits -= 1
            self._store.stats.rejects += 1
            return None
        cache_key = (callee, exit_id, self.intern_query(plain_query))
        self._summaries[cache_key] = answers
        self._summary_deps[cache_key] = closure
        return answers

    def _persist_summary(self, icfg: ICFG, callee: str, exit_id: int,
                         plain_query: Query, answers: FrozenSet[Answer],
                         closure: FrozenSet[str]) -> None:
        from repro.analysis.store import closure_locals, encode_answers
        local_of = closure_locals(icfg, closure)
        exit_ref = local_of.get(exit_id)
        if exit_ref is None:
            return
        try:
            encoded = encode_answers(answers, local_of)
        except KeyError:
            # An answer references a node outside the closure (should
            # not happen; never worth failing the analysis over).
            return
        key = self._store.entry_key(self._closure_text(icfg, closure),
                                    callee, exit_ref[1], plain_query)
        self._store.save(key, encoded)

    # -- shipping summaries between processes ----------------------------

    def export_summaries(self, icfg: ICFG) -> List[dict]:
        """Every cached summary entry as JSON-able data.

        References are (proc, local index) pairs, so the payload decodes
        on any process holding a structurally identical graph — which is
        exactly what the parallel prewarm workers and the parent share.
        Entries are emitted in deterministic sorted order.
        """
        from repro.analysis.store import (closure_locals, encode_answers,
                                          encode_query)
        local_of = closure_locals(icfg, frozenset(icfg.procs))
        entries = []
        for (callee, exit_id, query), answers in self._summaries.items():
            exit_ref = local_of.get(exit_id)
            if exit_ref is None:
                continue
            try:
                entries.append({
                    "callee": callee,
                    "exit": list(exit_ref),
                    "query": encode_query(query, local_of),
                    "answers": encode_answers(answers, local_of),
                    "deps": sorted(self._summary_deps[(callee, exit_id,
                                                       query)]),
                })
            except KeyError:
                continue
        entries.sort(key=lambda e: (e["callee"], e["exit"],
                                    json.dumps(e["query"], sort_keys=True)))
        return entries

    def import_summaries(self, icfg: ICFG, entries: List[dict]) -> int:
        """Install exported entries against this (identical) graph.

        Returns how many entries were adopted; malformed or unresolvable
        entries are skipped, and existing entries are never overwritten
        (first import wins — imports are sorted, so merge order cannot
        change the result).
        """
        from repro.analysis.store import (closure_locals, decode_answers,
                                          decode_query)
        if not self.in_sync(icfg):
            return 0
        local_of = closure_locals(icfg, frozenset(icfg.procs))
        node_of = {ref: nid for nid, ref in local_of.items()}
        adopted = 0
        for entry in entries:
            try:
                callee = entry["callee"]
                exit_ref = entry["exit"]
                exit_id = node_of[(exit_ref[0], exit_ref[1])]
                query = self.intern_query(
                    decode_query(entry["query"], node_of))
                answers = decode_answers(entry["answers"], node_of)
                deps = frozenset(entry["deps"])
            except (KeyError, TypeError, ValueError, IndexError):
                continue
            key = (callee, exit_id, query)
            if key in self._summaries:
                continue
            self._summaries[key] = answers
            self._summary_deps[key] = deps
            self.stats.summary_stored += 1
            adopted += 1
        return adopted
