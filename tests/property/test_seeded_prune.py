"""Seeded unreachable-code removal against the full walk from main.

After its first prune a graph remembers what changed since — targets of
removed edges, added nodes — and :meth:`~repro.ir.icfg.ICFG.
remove_unreachable` re-marks only the forward closure of those seeds.
A clone forgets that state and walks the whole graph, so every prune the
optimizer makes is replayed on a clone and the two must agree on the
removed count, the dump, every return map and the procedure set.
"""

from contextlib import contextmanager
from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.analysis import AnalysisConfig
from repro.benchgen import GeneratorOptions, generate_program
from repro.ir import ICFG, EdgeKind, dump_icfg, lower_program
from repro.ir.nodes import BranchNode, CallNode, EntryNode, ExitNode, NopNode
from repro.ir.icfg import ProcInfo
from repro.transform import ICBEOptimizer, OptimizerOptions
from repro.transform.passes import PipelineState
from tests.helpers import build

OPTIONS = GeneratorOptions(procedures=3, statements_per_proc=7)
CONFIG = AnalysisConfig(budget=10_000)
#: Always bound duplication: an unbounded limit lets a random program's
#: copies multiply past any memory budget.
LIMITS = (4, 30, 100)


def pruned_state(icfg: ICFG) -> tuple:
    return (dump_icfg(icfg), list(icfg.procs),
            [(n.id, list(n.return_map.items())) for n in icfg.iter_nodes()
             if isinstance(n, CallNode)])


def uses_seeds(icfg: ICFG) -> bool:
    return (icfg._prune.seeds is not None and not icfg.tainted
            and icfg.procs[icfg.main].entries[:1] == [icfg._prune.root])


@contextmanager
def full_walk_oracle():
    """Replay every prune on a clone (which walks the whole graph) and
    check every committed graph is fully pruned; yields, per prune,
    whether it took the seeded path."""
    seeded = []
    real_prune, real_commit = ICFG.remove_unreachable, PipelineState.commit

    def remove_unreachable(self):
        reference = self.clone()
        assert reference._prune.seeds is None
        seeded.append(uses_seeds(self))
        removed = real_prune(self)
        assert removed == real_prune(reference)
        assert pruned_state(self) == pruned_state(reference)
        return removed

    def commit(self, preserves):
        real_commit(self, preserves)
        if seeded:  # pruned once, so every later commit is fully pruned
            assert real_prune(self.current.clone()) == 0

    with mock.patch.object(ICFG, "remove_unreachable", remove_unreachable), \
            mock.patch.object(PipelineState, "commit", commit):
        yield seeded


@given(seed=st.integers(0, 4_000), limit=st.sampled_from(LIMITS))
@settings(max_examples=20, deadline=None)
def test_seeded_prune_equals_full_walk(seed, limit):
    icfg = lower_program(generate_program(seed, OPTIONS))
    with full_walk_oracle():
        ICBEOptimizer(OptimizerOptions(
            config=CONFIG, duplication_limit=limit)).optimize(icfg)


def test_optimizer_prunes_seeded_after_the_first_walk():
    icfg = lower_program(generate_program(3, OPTIONS))
    with full_walk_oracle() as seeded:
        report = ICBEOptimizer(OptimizerOptions(
            config=CONFIG, duplication_limit=LIMITS[-1])).optimize(icfg)
    assert report.optimized_count >= 2
    assert seeded[0] is False and any(seeded[1:])


def _tiny_graph():
    """main: entry -> if -> (true: B <-> C cycle) / (false: exit)."""
    icfg = ICFG()
    info = ProcInfo("main")
    icfg.add_proc(info)
    entry, exit_ = EntryNode(0, "main"), ExitNode(1, "main")
    branch, b, c = BranchNode(2, "main"), NopNode(3, "main"), \
        NopNode(4, "main")
    for node in (entry, exit_, branch, b, c):
        icfg.add_node(node)
    info.entries.append(0)
    info.exits.append(1)
    icfg.add_edge(0, 2, EdgeKind.NORMAL)
    icfg.add_edge(2, 3, EdgeKind.TRUE)
    icfg.add_edge(2, 1, EdgeKind.FALSE)
    icfg.add_edge(3, 4, EdgeKind.NORMAL)
    icfg.add_edge(4, 3, EdgeKind.NORMAL)
    return icfg


def test_dead_cycle_whose_only_entry_edge_was_removed():
    icfg = _tiny_graph()
    assert icfg.remove_unreachable() == 0
    icfg.remove_edge(icfg.succ_edges(2)[0])
    assert uses_seeds(icfg)
    reference = icfg.clone()
    assert icfg.remove_unreachable() == 2
    assert sorted(icfg.nodes) == [0, 1, 2]
    assert reference.remove_unreachable() == 2
    assert pruned_state(icfg) == pruned_state(reference)


def test_procedure_whose_every_node_dies():
    icfg = build("""
        proc f(v) { if (v > 0) { return 1; } return 2; }
        proc main() { var x = f(input()); print x; return 0; }
    """)
    assert icfg.remove_unreachable() == 0
    call = next(n for n in icfg.iter_nodes() if isinstance(n, CallNode))
    exit_id = icfg.procs["f"].exits[0]
    assert exit_id in call.return_map
    (call_edge,) = [e for e in icfg.succ_edges(call.id)
                    if e.kind is EdgeKind.CALL]
    icfg.remove_edge(call_edge)
    assert uses_seeds(icfg)
    reference = icfg.clone()
    removed = icfg.remove_unreachable()
    assert removed == len(reference.nodes) - len(icfg.nodes) > 0
    assert "f" not in icfg.procs
    assert call.return_map == {}
    assert reference.remove_unreachable() == removed
    assert pruned_state(icfg) == pruned_state(reference)
