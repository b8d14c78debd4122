"""The benchmark's layer hooks still find the entry points they wrap.

``perfbench/icbebench/layers.py`` times the span-less layers (split,
elimination, pruning, snapshot take/restore, nop simplification) by
replacing those functions where their callers look them up, and
``install()`` raises ``KeyError`` when one of them is renamed or moved.
This test installs the hooks, compiles one benchmark core, and checks
the hooked layers report spans — so a refactor that silently blinds the
benchmark's per-layer attribution fails here first.  The benchmark
itself is only imported, never modified.
"""

import sys
from pathlib import Path

import pytest

from repro import obs
from repro.ir import lower_program
from repro.ir.icfg import ICFG
from repro.lang.parser import parse_program
from repro.transform import ICBEOptimizer, OptimizerOptions

PERFBENCH = Path(__file__).resolve().parents[2] / "perfbench"


@pytest.fixture
def layers():
    sys.path.insert(0, str(PERFBENCH))
    try:
        from icbebench import layers as module
        yield module
    finally:
        sys.path.remove(str(PERFBENCH))


def test_bench_layer_hooks_install_and_report_spans(layers):
    source = (PERFBENCH / "data" / "cores" / "li_like.mc").read_text()
    original_prune = ICFG.__dict__["remove_unreachable"]
    layers.install()
    try:
        with obs.session() as active:
            graph = lower_program(parse_program(source))
            report = ICBEOptimizer(OptimizerOptions(
                duplication_limit=100)).optimize(graph)
    finally:
        layers.uninstall()
    assert report.optimized_count > 0
    names = {span["name"] for span in active.export_spans()}
    assert {"bench.transform.split", "bench.ir.prune",
            "bench.transform.eliminate"} <= names
    assert ICFG.__dict__["remove_unreachable"] is original_prune
