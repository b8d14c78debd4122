"""The ICFG undo log against the full-copy snapshot oracle.

The cache-on optimizer rolls a failed transaction back by replaying the
graph's undo log backwards (:meth:`~repro.ir.icfg.ICFG.rollback`); the
cache-off reference path restores an
:class:`~repro.robustness.snapshot.ICFGSnapshot` instead.  Here every
mark the optimizer opens is shadowed by a snapshot taken at the same
point, and every rollback is checked against that snapshot's restore:
the structure, the mutation clock, the id allocator, the lineage
stamps, the call-site fields, and the graph's derived indexes must all
agree.  Random programs run under random corruption plans, so rollbacks
heal every kind of out-of-band damage too.
"""

from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import AnalysisConfig
from repro.benchgen import GeneratorOptions, generate_program
from repro.ir import dump_icfg, lower_program, verify_icfg
from repro.ir.expr import VarId
from repro.ir.icfg import ICFG
from repro.ir.nodes import CallNode
from repro.robustness import CORRUPTION_ACTIONS, FaultPlan, FaultSpec
from repro.robustness.snapshot import ICFGSnapshot
from repro.transform import ICBEOptimizer, OptimizerOptions

OPTIONS = GeneratorOptions(procedures=3, statements_per_proc=7)
CONFIG = AnalysisConfig(budget=10_000)
SITES = ("pipeline:branch-start", "transform:split", "transform:verify")


def observable_state(icfg: ICFG) -> dict:
    """Everything a rollback must restore, as comparable data."""
    thresholds = sorted({0, *icfg._proc_touched.values()})
    return {
        "dump": dump_icfg(icfg),
        "node_order": list(icfg.nodes),
        "fields": {nid: vars(node) for nid, node in icfg.nodes.items()},
        "succs": {nid: list(icfg.succ_edges(nid)) for nid in icfg.nodes},
        "preds": {nid: list(icfg.pred_edges(nid)) for nid in icfg.nodes},
        "procs": [(name, info.entries, info.exits, info.params, info.locals)
                  for name, info in icfg.procs.items()],
        "globals": list(icfg.globals.items()),
        "generation": icfg.generation,
        "dirty": {g: icfg.dirty_procs_since(g) for g in thresholds},
        "next_id": icfg._ids.next_id,
        "restored_generation": icfg.restored_generation,
        "restored_from_token": icfg.restored_from_token,
        "calls": [(n.id, list(n.return_map.items()), n.entry_id)
                  for n in icfg.iter_nodes() if isinstance(n, CallNode)],
        "counts": (icfg.node_count(), icfg.executable_node_count(),
                   icfg.conditional_node_count()),
        "branch_ids": icfg.branch_ids(),
        "per_proc": {name: [n.id for n in icfg.proc_nodes(name)]
                     for name in icfg.procs},
        "tainted": icfg.tainted,
    }


def derived_indexes(icfg: ICFG) -> tuple:
    """The graph's node indexes (built if absent), among them the
    calls-into-procedure index, and its return-map index (as kept, or
    rebuilt from the call nodes)."""
    icfg._node_index()
    refs = icfg._rmap_refs
    if refs is None:
        refs = {}
        for node in icfg.nodes.values():
            if isinstance(node, CallNode):
                for ref in {*node.return_map, *node.return_map.values()}:
                    refs.setdefault(ref, set()).add(node.id)
    return (icfg._proc_nodes, icfg._branches, icfg._executable,
            icfg._callers, refs)


@contextmanager
def shadowed_rollbacks():
    """Shadow every ICFG mark with a snapshot and check each rollback
    against it; yields the list of checked rollbacks."""
    checked = []
    oracles = {}
    real_begin, real_rollback = ICFG.begin, ICFG.rollback

    def begin(self):
        mark = real_begin(self)
        oracles[id(mark)] = (mark, ICFGSnapshot.take(self))
        return mark

    def rollback(self, mark):
        token_before = self.restore_token
        real_rollback(self, mark)
        expected = oracles[id(mark)][1].restore()
        assert observable_state(self) == observable_state(expected)
        assert self.restore_token not in (0, token_before,
                                          expected.restore_token)
        if not self.tainted:
            assert derived_indexes(self) == derived_indexes(expected)
        checked.append(mark.generation)

    with mock.patch.object(ICFG, "begin", begin), \
            mock.patch.object(ICFG, "rollback", rollback):
        yield checked


def optimize(icfg: ICFG, specs, analysis_cache: bool = True):
    return ICBEOptimizer(OptimizerOptions(
        config=CONFIG, diff_check=True, duplication_limit=100,
        analysis_cache=analysis_cache,
        fault_plan=FaultPlan(list(specs)))).optimize(icfg)


corruptions = st.builds(
    FaultSpec,
    site=st.sampled_from(SITES),
    hit=st.integers(1, 4),
    action=st.sampled_from(CORRUPTION_ACTIONS),
    seed=st.integers(0, 99))


@given(seed=st.integers(0, 4_000),
       specs=st.lists(corruptions, min_size=1, max_size=3))
@settings(max_examples=15, deadline=None)
def test_rollback_equals_snapshot_restore_under_fault_plans(seed, specs):
    icfg = lower_program(generate_program(seed, OPTIONS))
    with shadowed_rollbacks():
        report = optimize(icfg, specs)
    verify_icfg(report.optimized)


@pytest.mark.parametrize("site", SITES)
@pytest.mark.parametrize("action", CORRUPTION_ACTIONS)
def test_every_corruption_is_healed_like_a_snapshot_restore(site, action):
    icfg = lower_program(generate_program(7, OPTIONS))
    plan = [FaultSpec(site, hit, action, seed=hit) for hit in (1, 2, 3)]
    with shadowed_rollbacks() as checked:
        report = optimize(icfg, plan)
    assert checked, "the plan never forced a rollback"
    if site == "pipeline:branch-start":
        return  # the modes heal branch-start corruption differently
    cache_off = optimize(icfg, plan, analysis_cache=False)
    assert dump_icfg(report.optimized) == dump_icfg(cache_off.optimized)
    # Outcomes, not failure texts: scoped and full verification may
    # name different broken edges of one corruption.
    assert ([(r.branch_id, r.outcome) for r in report.records]
            == [(r.branch_id, r.outcome) for r in cache_off.records])


def test_rollback_rewinds_every_mutator_and_out_of_band_write():
    icfg = lower_program(generate_program(11, OPTIONS))
    icfg.remove_unreachable()
    mark = icfg.begin()
    expected = ICFGSnapshot.take(icfg).restore()
    call = next(n for n in icfg.iter_nodes() if isinstance(n, CallNode))
    exit_id = next(iter(call.return_map))
    icfg.drop_return_target(call, exit_id)
    icfg.set_entry_id(call, -7)
    copy = icfg.duplicate_node(icfg.nodes[icfg.procs["main"].exits[0]])
    icfg.remove_node(icfg.main_entry())
    icfg.set_global(VarId.global_("probe"), 99)
    icfg.mark_all_dirty()
    victim = max(icfg.nodes)
    icfg.record_node_entry(victim)
    del icfg.nodes[victim]
    icfg.record_proc_preimage("main")
    icfg.procs["main"].exits.clear()
    icfg.remove_unreachable()
    assert copy.id not in icfg.nodes
    icfg.rollback(mark)
    assert observable_state(icfg) == observable_state(expected)
    assert derived_indexes(icfg) == derived_indexes(expected)
    # The mark survives its rollback, and commit closes the log.
    icfg.add_node(copy.copy_with_id(icfg.new_id()))
    icfg.rollback(mark)
    assert observable_state(icfg) == observable_state(expected)
    icfg.commit()
    assert not icfg.holds(mark)
    with pytest.raises(ValueError):
        icfg.rollback(mark)
