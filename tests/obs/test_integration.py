"""End-to-end observability: CLI --trace, supervisor adoption, sidecar."""

import json
import os

import pytest

from repro import obs
from repro.cli import build_parser, main as cli_main
from repro.obs.export import read_jsonl


def test_cli_trace_covers_the_whole_optimizer_span_tree(tmp_path):
    """The acceptance criterion: ``icbe ... --trace out.jsonl`` on
    li_like yields valid JSONL whose span tree covers
    parse -> lower -> analysis -> restructure -> verify."""
    trace = str(tmp_path / "out.jsonl")
    assert cli_main(["optimize", "suite:li_like@1", "--trace", trace]) == 0
    data = read_jsonl(trace)
    names = {record["name"] for record in data["spans"]}
    assert {"cli.optimize", "frontend.parse", "ir.lower",
            "analysis.correlation", "pass.restructure",
            "ir.verify"} <= names
    # Well-formed tree: every parent id exists, the root is cli.optimize.
    ids = {record["id"] for record in data["spans"]}
    roots = [r for r in data["spans"] if r["parent"] == 0]
    assert [r["name"] for r in roots] == ["cli.optimize"]
    assert all(r["parent"] in ids for r in data["spans"]
               if r["parent"] != 0)
    assert data["metrics"]["counters"]["optimize.runs"] == 1


def test_cli_run_traces_and_uses_suite_reference_workload(tmp_path):
    trace = str(tmp_path / "run.jsonl")
    assert cli_main(["run", "suite:li_like@1", "--trace", trace]) == 0
    names = {record["name"] for record in read_jsonl(trace)["spans"]}
    assert {"cli.run", "frontend.parse", "ir.lower", "ir.verify",
            "interp.run"} <= names


def test_trace_file_written_even_when_the_command_fails(tmp_path):
    trace = str(tmp_path / "fail.jsonl")
    missing = str(tmp_path / "nope.mc")
    assert cli_main(["optimize", missing, "--trace", trace]) == 2
    data = read_jsonl(trace)
    assert data["meta"]["command"] == "optimize"


@pytest.mark.parametrize("command", [["optimize", "x.mc"], ["serve"]])
@pytest.mark.parametrize("before", [True, False])
def test_obs_flags_parse_on_either_side_of_the_subcommand(command, before):
    """``--trace``/``--profile`` reach the command whether they come
    before or after the subcommand (the subcommand's own copies must
    not overwrite the top-level values with their defaults)."""
    flags = ["--trace", "t.jsonl", "--profile"]
    argv = flags + command if before else command + flags
    args = build_parser().parse_args(argv)
    assert args.trace == "t.jsonl"
    assert args.profile is True
    plain = build_parser().parse_args(command)
    assert plain.trace is None and plain.profile is False


def test_cli_trace_before_the_subcommand_writes_the_trace(tmp_path, capsys):
    trace = str(tmp_path / "early.jsonl")
    assert cli_main(["--trace", trace, "--profile",
                     "optimize", "suite:li_like@1"]) == 0
    data = read_jsonl(trace)
    assert data["metrics"]["counters"]["optimize.runs"] == 1
    assert "cli.optimize" in capsys.readouterr().err


def _batch(run_dir, trace=False):
    from repro.robustness.supervisor import run_batch, SupervisorOptions

    options = SupervisorOptions(jobs=2, timeout_s=60, seed=3)
    if not trace:
        return run_batch(["suite:compress_like@1"], run_dir,
                         options=options), None
    with obs.session() as active:
        report = run_batch(["suite:compress_like@1"], run_dir,
                           options=options)
    return report, active


def test_supervisor_adopts_worker_spans_and_keeps_journal_bytes(tmp_path):
    plain_dir = str(tmp_path / "plain")
    traced_dir = str(tmp_path / "traced")
    _batch(plain_dir)
    report, active = _batch(traced_dir, trace=True)

    # Tracing must not perturb the journal or report bytes.
    for name in ("journal.jsonl", "report.txt"):
        plain = open(os.path.join(plain_dir, name), "rb").read()
        traced = open(os.path.join(traced_dir, name), "rb").read()
        assert plain == traced, name

    # Worker spans crossed the subprocess boundary and re-parented.
    spans = active.export_spans()
    by_id = {record["id"]: record for record in spans}
    adopted = [record for record in spans
               if (record.get("attrs") or {}).get("origin")]
    assert adopted, "expected spans adopted from the worker"
    for record in adopted:
        parent = record["parent"]
        assert parent in by_id
        chain = set()
        while parent:
            chain.add(by_id[parent]["name"])
            parent = by_id[parent]["parent"]
        assert "batch.attempt" in chain
    assert {"batch.run", "batch.attempt", "worker.attempt",
            "optimize"} <= {record["name"] for record in spans}
    # Worker metrics merged into the supervisor's registry.
    counters = active.metrics.snapshot()["counters"]
    assert counters.get("optimize.runs", 0) >= 1
    assert counters.get("batch.attempts") == 1


def test_telemetry_sidecar_and_rollup(tmp_path):
    run_dir = str(tmp_path / "run")
    report, _ = _batch(run_dir)
    sidecar = os.path.join(run_dir, "telemetry.jsonl")
    records = [json.loads(line) for line in open(sidecar, encoding="utf-8")]
    assert len(records) == 1
    record = records[0]
    assert record["job"] == "compress_like"
    assert record["result"] == "ok"
    assert record["wall_s"] > 0
    assert record["peak_rss_kb"] > 0
    rollup = report.job_telemetry()
    assert rollup["compress_like"]["attempts"] == 1
    assert rollup["compress_like"]["peak_rss_kb"] == record["peak_rss_kb"]
    # Attempts carry the telemetry in memory but never journal it.
    attempt = report.outcomes[0].attempts[0]
    assert attempt.wall_s > 0 and attempt.peak_rss_kb > 0
    assert "wall_s" not in attempt.to_json()
