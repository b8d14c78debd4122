"""The benchmark's own tests: frozen inputs, repeatable counts, smoke runs.

Run from the repository root (they take a few minutes):

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

from icbebench import (batch, common, compile, frozen, layers,  # noqa: E402
                       serve)
from icbebench.oracle import check_program  # noqa: E402

COUNT_METRICS = ("dyn_cond_ratio", "code_size_ratio", "optimized_frac",
                 "cond_ok_frac")


def declared(section: str) -> set:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r",
              encoding="utf-8") as handle:
        return {entry["name"] for entry in json.load(handle)[section]}


def test_frozen_inputs_match_their_recorded_hashes_and_counts():
    manifest = frozen.load_manifest()
    for tier in ("cores", "suite4", "suite8"):
        assert [p.name for p in frozen.read_tier(tier, manifest)] == list(
            frozen.CORE_NAMES)
    # Two seeds rename differently; both must rebuild the recorded graphs.
    for seed in (0, 7):
        assert len(frozen.dense_programs(seed, manifest)) == 6


@pytest.mark.parametrize("field, value", [("sha256", "0" * 64),
                                          ("nodes", -1)])
def test_a_drifted_input_is_refused(field, value):
    manifest = frozen.load_manifest()
    manifest["programs"]["suite8/li_like"][field] = value
    with pytest.raises(frozen.InputDrift):
        frozen.read_tier("suite8", manifest)


def test_rollup_charges_self_time_to_layers_and_the_rest_to_the_root():
    spans = [
        {"id": 1, "parent": 0, "name": "bench.program", "dur_s": 10.0},
        {"id": 2, "parent": 1, "name": "transform.branch", "dur_s": 4.0},
        {"id": 3, "parent": 2, "name": "ir.verify", "dur_s": 1.0},
        {"id": 4, "parent": 1, "name": "optimize", "dur_s": 2.0},
        {"id": 5, "parent": 0, "name": "ir.verify", "dur_s": 0.5},
    ]
    rolled = layers.rollup(spans, ["bench.program"])
    assert rolled["transform.restructure_self_s"] == 3.0
    assert rolled["ir.verify_s"] == 1.5
    assert rolled["ir.verify_calls"] == 2
    assert rolled["unattributed_s"] == 4.0 + 2.0


def test_the_oracle_fails_a_wrong_optimized_graph_once_per_program():
    programs = {p.name: p for p in frozen.read_tier(
        "cores", frozen.load_manifest())}
    battery = frozen.battery_inputs(5)
    good = compile.compile_text(programs["li_like"])
    assert check_program("li_like", good.original, good.report.optimized,
                         good.program.record, battery)[0] == []
    # Another program's graph stands in for li_like's optimized one.
    wrong = compile.compile_text(programs["go_like"]).report.optimized
    mismatches, _ = check_program("li_like", good.original, wrong,
                                  good.program.record, battery)
    assert len(mismatches) == 1 + len(battery)
    good.report.optimized = wrong
    result = common.Result()
    compile.score(result, [good], battery)
    assert result.failed == 1
    assert result.problems == mismatches


def test_the_reference_clocks_scale_by_the_kernel_time(monkeypatch):
    kernel_s = iter([0.1, 0.3])
    monkeypatch.setattr(common, "kernel_seconds", lambda: next(kernel_s))
    clock = common.ReferenceClock()
    clock.start()
    common.time.sleep(0.2)
    # Twice as slow as the reference on average: half the time.
    assert clock.stop() == pytest.approx(
        0.2 * 2 * common.REFERENCE_KERNEL_S / 0.4, rel=0.2)
    assert clock.slowdown() == 0.2 / common.REFERENCE_KERNEL_S
    # The sampled clock runs the kernel in a process beside the work.
    with common.SampledClock() as sampled:
        common.time.sleep(0.05)
    assert sampled.samples and all(s > 0 for s in sampled.samples)
    assert sampled.factor() == common.REFERENCE_KERNEL_S / common.median(
        sampled.samples)


@pytest.mark.parametrize("kind", ["dense", "suite8"])
def test_count_metrics_repeat_exactly_across_runs(kind):
    first = compile.run(kind, seed=1, seconds=0, trace=False)
    second = compile.run(kind, seed=2, seconds=0, trace=False)
    assert first.problems == [] and second.problems == []
    assert set(first.metrics) == declared("end_to_end")
    for name in COUNT_METRICS:
        assert first.metrics[name] == second.metrics[name], name


def test_serve_smoke_run_with_layers(tmp_path, monkeypatch):
    monkeypatch.setattr(serve, "MIN_REQUESTS", len(serve.ROUND))
    result = serve.run(seed=3, seconds=0, trace=True, work_dir=str(tmp_path))
    assert result.problems == [] and result.failed == 0
    # One round untraced, one traced.
    assert result.attempted == 2 * len(serve.ROUND)
    assert set(result.metrics) == declared("end_to_end")
    assert declared("per_layer") <= set(result.layers)
    # The wrappers reached the daemon's workers through the hook.
    assert result.layers["transform.split_s"] > 0
    assert result.layers["serve.cache_hit_frac"] == 2 / len(serve.ROUND)


def test_batch_smoke_run_with_layers(tmp_path):
    result = batch.run(seed=3, seconds=0, trace=True, work_dir=str(tmp_path))
    assert result.problems == [] and result.failed == 0
    assert result.attempted == 12
    assert set(result.metrics) == declared("end_to_end")
    assert declared("per_layer") <= set(result.layers)
    # Forked workers inherited the wrappers.
    assert result.layers["ir.prune_calls"] > 0
    assert result.layers["robustness.batch_attempts"] == 6


def test_command_prints_every_per_layer_metric_last():
    process = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload",
         "suite8", "--seed", "4", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert process.returncode == 0, process.stderr
    line = json.loads(process.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert set(line["metrics"]) == declared("per_layer")
    # The compile never interprets; the untimed output check is not traced.
    assert line["metrics"]["interp.runs"]["value"] == 0


def test_without_the_program_source_the_command_fails(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    process = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dense",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert process.returncode != 0
    assert process.stdout == ""
