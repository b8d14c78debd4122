import re

import pytest

from tests.helpers import build

from repro.errors import VerificationError
from repro.ir import verify_icfg
from repro.ir.icfg import EdgeKind
from repro.ir.nodes import BranchNode, CallExitNode, CallNode, NopNode


SOURCE = """
proc f(a) { if (a == 0) { return 1; } return 2; }
proc main() { var x = f(3); print x; }
"""


def test_lowered_program_verifies(fgetc_icfg):
    verify_icfg(fgetc_icfg)


def branch_of(icfg):
    return [n for n in icfg.iter_nodes() if isinstance(n, BranchNode)][0]


def test_detects_branch_missing_false_edge():
    icfg = build(SOURCE)
    branch = branch_of(icfg)
    for edge in icfg.succ_edges(branch.id):
        if edge.kind is EdgeKind.FALSE:
            icfg.remove_edge(edge)
    with pytest.raises(VerificationError, match="branch"):
        verify_icfg(icfg)


def test_detects_flowthrough_with_two_successors():
    icfg = build(SOURCE)
    nop = [n for n in icfg.iter_nodes() if isinstance(n, NopNode)][0]
    other = icfg.procs[nop.proc].exits[0]
    icfg.add_edge(nop.id, other, EdgeKind.NORMAL)
    with pytest.raises(VerificationError):
        verify_icfg(icfg)


def test_detects_cross_procedure_normal_edge():
    icfg = build(SOURCE)
    main_nodes = [n for n in icfg.iter_nodes()
                  if n.proc == "main" and isinstance(n, NopNode)]
    f_exit = icfg.procs["f"].exits[0]
    source = main_nodes[0] if main_nodes else icfg.nodes[icfg.main_entry()]
    icfg.add_edge(source.id, f_exit, EdgeKind.NORMAL)
    with pytest.raises(VerificationError):
        verify_icfg(icfg)


def test_detects_call_exit_without_return_edge():
    icfg = build(SOURCE)
    call_exit = [n for n in icfg.iter_nodes()
                 if isinstance(n, CallExitNode)][0]
    return_edge = [e for e in icfg.pred_edges(call_exit.id)
                   if e.kind is EdgeKind.RETURN][0]
    icfg.remove_edge(return_edge)
    with pytest.raises(VerificationError, match="call-exit"):
        verify_icfg(icfg)


def test_detects_return_map_value_mismatch():
    icfg = build(SOURCE)
    call = [n for n in icfg.iter_nodes() if isinstance(n, CallNode)][0]
    exit_id = icfg.procs["f"].exits[0]
    call.return_map[exit_id] = 999999
    with pytest.raises(VerificationError, match="return_map"):
        verify_icfg(icfg)


def test_detects_missing_return_address_for_reachable_exit():
    icfg = build(SOURCE)
    call = [n for n in icfg.iter_nodes() if isinstance(n, CallNode)][0]
    # Pretend the exit is unmapped by removing both the map entry and
    # the LOCAL/RETURN edges so value consistency still holds.
    exit_id = icfg.procs["f"].exits[0]
    call_exit_id = call.return_map.pop(exit_id)
    for edge in list(icfg.succ_edges(call.id)):
        if edge.kind is EdgeKind.LOCAL and edge.dst == call_exit_id:
            icfg.remove_edge(edge)
    with pytest.raises(VerificationError):
        verify_icfg(icfg)


def test_detects_call_to_wrong_entry():
    icfg = build(SOURCE + "proc g() { return 0; }")
    call = [n for n in icfg.iter_nodes() if isinstance(n, CallNode)][0]
    call.entry_id = icfg.procs["g"].entries[0]
    with pytest.raises(VerificationError):
        verify_icfg(icfg)


def test_detects_unregistered_entry_node():
    icfg = build(SOURCE)
    icfg.procs["f"].entries.remove(icfg.procs["f"].entries[0])
    with pytest.raises(VerificationError):
        verify_icfg(icfg)


def test_detects_missing_exit_list():
    icfg = build(SOURCE)
    icfg.procs["f"].exits.clear()
    with pytest.raises(VerificationError, match="no exit"):
        verify_icfg(icfg)


def test_detects_asymmetric_edge_indices():
    icfg = build(SOURCE)
    node_id = icfg.main_entry()
    edge = icfg.succ_edges(node_id)[0]
    # Corrupt the internal index directly (white-box).
    icfg._preds[edge.dst].remove(edge)
    with pytest.raises(VerificationError, match="disagree"):
        verify_icfg(icfg)


# ---------------------------------------------------------------------------
# One deliberately corrupted graph per checked invariant class (the six
# classes in the module docstring of repro/ir/verify.py), asserting the
# specific VerificationError message so a future refactor cannot
# silently weaken a check.
# ---------------------------------------------------------------------------


def test_invariant1_duplicate_out_edges_named():
    icfg = build(SOURCE)
    node_id = icfg.main_entry()
    # Bypass add_edge's own duplicate rejection (white-box).
    icfg._succs[node_id].append(icfg.succ_edges(node_id)[0])
    with pytest.raises(VerificationError, match="duplicate out-edges"):
        verify_icfg(icfg)


def test_invariant1_dangling_edge_target_named():
    icfg = build(SOURCE)
    victim = [n.id for n in icfg.iter_nodes() if isinstance(n, NopNode)][0]
    del icfg.nodes[victim]  # leave every incident edge dangling
    with pytest.raises(VerificationError, match="targets unknown node"):
        verify_icfg(icfg)


def test_invariant2_unknown_procedure_named():
    icfg = build(SOURCE)
    del icfg.procs["f"]  # every node of f now floats proc-less
    with pytest.raises(VerificationError,
                       match="unknown procedure 'f'"):
        verify_icfg(icfg)


def test_invariant3_branch_out_edge_arity_named():
    icfg = build(SOURCE)
    branch = branch_of(icfg)
    for edge in list(icfg.succ_edges(branch.id)):
        if edge.kind is EdgeKind.TRUE:
            icfg.remove_edge(edge)
    with pytest.raises(VerificationError,
                       match=rf"branch {branch.id} has out-edges"):
        verify_icfg(icfg)


def test_invariant3_flowthrough_out_edge_arity_named():
    icfg = build(SOURCE)
    nop = [n for n in icfg.iter_nodes() if isinstance(n, NopNode)][0]
    for edge in list(icfg.succ_edges(nop.id)):
        icfg.remove_edge(edge)
    with pytest.raises(VerificationError,
                       match="expected exactly one NORMAL"):
        verify_icfg(icfg)


def test_invariant4_call_without_call_site_exit_named():
    icfg = build(SOURCE)
    call = [n for n in icfg.iter_nodes() if isinstance(n, CallNode)][0]
    for edge in list(icfg.succ_edges(call.id)):
        if edge.kind is EdgeKind.LOCAL:
            icfg.remove_edge(edge)
    with pytest.raises(VerificationError, match="no call-site exit"):
        verify_icfg(icfg)


def test_invariant5_return_map_key_not_an_exit_named():
    icfg = build(SOURCE)
    call = [n for n in icfg.iter_nodes() if isinstance(n, CallNode)][0]
    exit_id = icfg.procs["f"].exits[0]
    call_exit = call.return_map.pop(exit_id)
    call.return_map[icfg.main_entry()] = call_exit
    with pytest.raises(VerificationError,
                       match="return_map key .* is not an exit"):
        verify_icfg(icfg)


def test_invariant6_entry_with_non_call_in_edge_named():
    icfg = build(SOURCE)
    entry = icfg.procs["f"].entries[0]
    nop = [n for n in icfg.iter_nodes()
           if isinstance(n, NopNode) and n.proc == "f"][0]
    for edge in list(icfg.succ_edges(nop.id)):
        icfg.remove_edge(edge)
    icfg.add_edge(nop.id, entry, EdgeKind.NORMAL)
    with pytest.raises(VerificationError, match="non-CALL in-edges"):
        verify_icfg(icfg)


def test_invariant6_exit_with_non_return_out_edge_named():
    icfg = build(SOURCE)
    exit_id = icfg.procs["f"].exits[0]
    nop = [n for n in icfg.iter_nodes()
           if isinstance(n, NopNode) and n.proc == "f"][0]
    icfg.add_edge(exit_id, nop.id, EdgeKind.NORMAL)
    with pytest.raises(VerificationError, match="non-RETURN out-edges"):
        verify_icfg(icfg)


# ---------------------------------------------------------------------------
# Edit-scoped verification (``verify_icfg(icfg, since=mark)``): one edit
# per invariant class, made through the ICFG mutators inside an open
# transaction, must fail the scoped check exactly as it fails the full
# one.  tests/property/test_edit_scoped_verify.py does the same over
# random programs and random edits.
# ---------------------------------------------------------------------------


def scoped_and_full(icfg, mark):
    """The (edit-scoped, full) failure messages."""
    messages = []
    for since in (mark, None):
        with pytest.raises(VerificationError) as failure:
            verify_icfg(icfg, since=since)
        messages.append(str(failure.value))
    return messages


def assert_scoped_matches_full(icfg, mark, match):
    scoped, full = scoped_and_full(icfg, mark)
    assert scoped == full
    assert re.search(match, scoped), scoped


def test_scoped_verify_of_a_clean_edit_passes():
    icfg = build(SOURCE)
    mark = icfg.begin()
    edge = icfg.succ_edges(icfg.main_entry())[0]
    icfg.remove_edge(edge)
    icfg.add_edge(edge.src, edge.dst, edge.kind)
    verify_icfg(icfg, since=mark)
    assert icfg.edits_since(mark).nodes == {edge.src, edge.dst}


def test_scoped_invariant1_logged_edge_missing_from_pred_index():
    icfg = build(SOURCE)
    mark = icfg.begin()
    edge = icfg.succ_edges(icfg.main_entry())[0]
    icfg.remove_edge(edge)
    icfg.add_edge(edge.src, edge.dst, edge.kind)
    icfg._preds[edge.dst].remove(edge)  # white-box, after the logged edit
    scoped, full = scoped_and_full(icfg, mark)
    assert "missing from predecessor index" in scoped
    assert "disagree" in full


def test_scoped_invariant2_cross_procedure_edge():
    icfg = build(SOURCE)
    mark = icfg.begin()
    branch = branch_of(icfg)
    true_edge = [e for e in icfg.succ_edges(branch.id)
                 if e.kind is EdgeKind.TRUE][0]
    icfg.remove_edge(true_edge)
    main_exit = icfg.procs["main"].exits[0]
    icfg.add_edge(branch.id, main_exit, EdgeKind.TRUE)
    assert_scoped_matches_full(icfg, mark, "crosses procedures")


def test_scoped_invariant3_branch_out_edge_arity():
    icfg = build(SOURCE)
    mark = icfg.begin()
    branch = branch_of(icfg)
    icfg.remove_edge([e for e in icfg.succ_edges(branch.id)
                      if e.kind is EdgeKind.FALSE][0])
    assert_scoped_matches_full(icfg, mark, rf"branch {branch.id} has out-edges")


def test_scoped_invariant4_field_write_retargets_call():
    icfg = build(SOURCE + "proc g() { return 0; }")
    mark = icfg.begin()
    call = [n for n in icfg.iter_nodes() if isinstance(n, CallNode)][0]
    icfg.set_entry_id(call, icfg.procs["g"].entries[0])
    assert_scoped_matches_full(icfg, mark, "is not an entry of 'f'")


def test_scoped_invariant5_callee_edit_reaches_an_unmapped_exit():
    """Only the callee's body changes; the call in main is untouched,
    yet it now lacks a return address for a reachable exit."""
    icfg = build(SOURCE)
    mark = icfg.begin()
    f_exit = icfg.nodes[icfg.procs["f"].exits[0]]
    copy = icfg.duplicate_node(f_exit)
    edge = icfg.pred_edges(f_exit.id)[0]
    icfg.remove_edge(edge)
    icfg.add_edge(edge.src, copy.id, edge.kind)
    assert icfg.edits_since(mark).procs == {"f"}
    assert_scoped_matches_full(icfg, mark, "lacks return addresses")


def test_scoped_invariant6_entry_with_non_call_in_edge():
    icfg = build(SOURCE)
    mark = icfg.begin()
    entry = icfg.procs["f"].entries[0]
    nop = [n for n in icfg.iter_nodes()
           if isinstance(n, NopNode) and n.proc == "f"][0]
    for edge in list(icfg.succ_edges(nop.id)):
        icfg.remove_edge(edge)
    icfg.add_edge(nop.id, entry, EdgeKind.NORMAL)
    assert_scoped_matches_full(icfg, mark, "non-CALL in-edges")


def test_scoped_verify_checks_entry_lists_of_edited_procedures():
    icfg = build(SOURCE)
    mark = icfg.begin()
    icfg.remove_node(icfg.procs["f"].entries[0])
    assert_scoped_matches_full(icfg, mark, "'f' has no entry")


def test_scoped_verify_falls_back_to_full_when_tainted():
    icfg = build(SOURCE)
    mark = icfg.begin()
    icfg.mark_all_dirty()
    icfg.procs["f"].exits.clear()  # unlogged: only the full check sees it
    assert icfg.edits_since(mark) is None
    assert_scoped_matches_full(icfg, mark, "has no exit")
