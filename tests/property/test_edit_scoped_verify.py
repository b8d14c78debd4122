"""Edit-scoped verification against the full verifier.

After each transaction the optimizer re-verifies only the nodes its
edits touched, read from the graph's undo log
(``verify_icfg(icfg, since=mark)``).  That is sound only if, from a
graph that verified when the mark was taken, the scoped check raises
exactly when the full check raises.  Here random programs — as lowered
and as optimized — are edited through the ``ICFG`` mutators at random,
with edits that keep the invariants and edits that break them, and the
two checks must agree: both pass, or both raise the same message.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.benchgen import GeneratorOptions, generate_program
from repro.errors import ReproError, VerificationError
from repro.ir import lower_program, verify_icfg
from repro.ir.icfg import EdgeKind, ICFG
from repro.ir.nodes import BranchNode, CallNode, EntryNode, ExitNode
from repro.ir.simplify import simplify_nops
from repro.transform import ICBEOptimizer, OptimizerOptions

OPTIONS = GeneratorOptions(procedures=3, statements_per_proc=7)


def _pick(rng: random.Random, items):
    items = sorted(items)
    return items[rng.randrange(len(items))] if items else None


def _calls(icfg: ICFG):
    return [n for n in icfg.iter_nodes() if isinstance(n, CallNode)]


def drop_branch_edge(icfg: ICFG, rng: random.Random) -> None:
    branch = _pick(rng, [n.id for n in icfg.iter_nodes()
                         if isinstance(n, BranchNode)
                         and icfg.succ_edges(n.id)])
    if branch is not None:
        edges = icfg.succ_edges(branch)
        icfg.remove_edge(edges[rng.randrange(len(edges))])


def stray_edge(icfg: ICFG, rng: random.Random) -> None:
    src, dst = _pick(rng, icfg.nodes), _pick(rng, icfg.nodes)
    if not icfg.has_edge(src, dst, EdgeKind.NORMAL):
        icfg.add_edge(src, dst, EdgeKind.NORMAL)


def wrong_return_map(icfg: ICFG, rng: random.Random) -> None:
    calls = _calls(icfg)
    if not calls:
        return
    call = calls[rng.randrange(len(calls))]
    mapping = dict(call.return_map)
    choice = rng.randrange(3)
    if choice == 0 and mapping:
        del mapping[_pick(rng, mapping)]
    elif choice == 1 and mapping:
        mapping[_pick(rng, mapping)] = _pick(rng, icfg.nodes)
    else:
        mapping[_pick(rng, icfg.nodes)] = _pick(rng, call.return_map.values()
                                                or icfg.nodes)
    icfg.set_return_map(call, mapping)


def drop_mapped_exit(icfg: ICFG, rng: random.Random) -> None:
    mapped = {exit_id for call in _calls(icfg) for exit_id in call.return_map
              if exit_id in icfg.nodes}
    victim = _pick(rng, mapped)
    if victim is not None:
        icfg.remove_node(victim)


def drop_entry(icfg: ICFG, rng: random.Random) -> None:
    victim = _pick(rng, [n.id for n in icfg.iter_nodes()
                         if isinstance(n, EntryNode)])
    if victim is not None:
        icfg.remove_node(victim)


def drop_node(icfg: ICFG, rng: random.Random) -> None:
    icfg.remove_node(_pick(rng, icfg.nodes))


def duplicate_node(icfg: ICFG, rng: random.Random) -> None:
    """A copy without edges; an entry or exit copy joins its lists."""
    icfg.duplicate_node(icfg.nodes[_pick(rng, icfg.nodes)])


def split_exit(icfg: ICFG, rng: random.Random) -> None:
    """Route one in-edge of an exit to a fresh copy of it: the copy is
    reachable, so every call into the procedure needs a return address
    for it, though no edge at those calls changed."""
    exit_id = _pick(rng, [n.id for n in icfg.iter_nodes()
                          if isinstance(n, ExitNode) and icfg.pred_edges(n.id)])
    if exit_id is None:
        return
    copy = icfg.duplicate_node(icfg.nodes[exit_id])
    edges = icfg.pred_edges(exit_id)
    edge = edges[rng.randrange(len(edges))]
    icfg.remove_edge(edge)
    icfg.add_edge(edge.src, copy.id, edge.kind)


def retarget_call(icfg: ICFG, rng: random.Random) -> None:
    calls = _calls(icfg)
    entries = [n.id for n in icfg.iter_nodes() if isinstance(n, EntryNode)]
    if calls and entries:
        icfg.set_entry_id(calls[rng.randrange(len(calls))],
                          _pick(rng, entries))


def orphan_proc(icfg: ICFG, rng: random.Random) -> None:
    """Remove every call into one procedure, then prune: the procedure
    dies and is deleted."""
    callee = _pick(rng, {call.callee for call in _calls(icfg)})
    for call in _calls(icfg):
        if call.callee == callee:
            icfg.remove_node(call.id)
    icfg.remove_unreachable()


def reroute_edge(icfg: ICFG, rng: random.Random) -> None:
    """Remove an edge and add it back: logged, but harmless."""
    src = _pick(rng, [nid for nid in icfg.nodes if icfg.succ_edges(nid)])
    if src is not None:
        edge = icfg.succ_edges(src)[0]
        icfg.remove_edge(edge)
        icfg.add_edge(edge.src, edge.dst, edge.kind)


def prune(icfg: ICFG, rng: random.Random) -> None:
    icfg.remove_unreachable()


def simplify(icfg: ICFG, rng: random.Random) -> None:
    simplify_nops(icfg)


EDITS = (drop_branch_edge, stray_edge, wrong_return_map, drop_mapped_exit,
         drop_entry, drop_node, duplicate_node, split_exit, retarget_call,
         orphan_proc, reroute_edge, prune, simplify)


def verdict(check):
    try:
        check()
    except VerificationError as failure:
        return str(failure)
    return None


@given(seed=st.integers(0, 4_000), optimized=st.booleans(),
       edits=st.lists(st.tuples(st.sampled_from(EDITS),
                                st.integers(0, 10_000)),
                      min_size=1, max_size=4))
@settings(max_examples=150, deadline=None)
def test_edit_scoped_verify_raises_exactly_when_full_does(seed, optimized,
                                                          edits):
    icfg = lower_program(generate_program(seed, OPTIONS))
    if optimized:
        icfg = ICBEOptimizer(OptimizerOptions(
            duplication_limit=100)).optimize(icfg).optimized
    verify_icfg(icfg)
    mark = icfg.begin()
    for edit, edit_seed in edits:
        try:
            edit(icfg, random.Random(edit_seed))
        except ReproError:
            pass  # a mutator refused (e.g. a duplicate edge)
    assert not icfg.tainted
    assert icfg.edits_since(mark) is not None
    full = verdict(lambda: verify_icfg(icfg))
    scoped = verdict(lambda: verify_icfg(icfg, since=mark))
    assert scoped == full


def test_every_edit_kind_runs_and_most_break_the_graph():
    """The edits above really exercise both verdicts."""
    broken = set()
    for edit in EDITS:
        for edit_seed in range(6):
            icfg = lower_program(generate_program(edit_seed, OPTIONS))
            mark = icfg.begin()
            try:
                edit(icfg, random.Random(edit_seed))
            except ReproError:
                continue
            full = verdict(lambda: verify_icfg(icfg))
            assert verdict(lambda: verify_icfg(icfg, since=mark)) == full
            if full is not None:
                broken.add(edit.__name__)
    assert {"drop_branch_edge", "wrong_return_map", "drop_mapped_exit",
            "drop_entry", "split_exit", "retarget_call"} <= broken
