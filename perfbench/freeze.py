"""Rewrite the benchmark's frozen inputs from the current code.

Writes ``perfbench/data/{cores,suite4,suite8}/<name>.mc`` and
``perfbench/data/manifest.json``: per program its sha256, node and
conditional counts, ref input, and the output the *unoptimized*
program produces on it; the node/conditional counts and ref output of
each ``dense`` program; and the result counts ``icbe serve`` and
``icbe batch`` must return for their programs.

Run it only on purpose, from the repository root, and review the diff:

    python3 perfbench/freeze.py

A change here changes what every workload measures, so it is its own
change and the benchmark's baseline is measured again after it.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

from icbebench import frozen  # noqa: E402
from icbebench.oracle import observable  # noqa: E402

#: Scratch space for the files the serve and batch counts are taken
#: from (the worker loads jobs from paths).
WORK_DIR = os.path.join(ROOT, ".perfbench-work", "freeze")


class _CountingWorkload:
    """A workload that counts every ``input()``, including the default
    values read past the end of the stream."""

    def __init__(self, values):
        from repro.interp import Workload
        self.inner = Workload(values)
        self.reads = 0

    def next_value(self) -> int:
        self.reads += 1
        return self.inner.next_value()


def _run_record(text: str, ref_input) -> dict:
    from repro.interp import Machine
    from repro.ir import lower_program
    from repro.lang.parser import parse_program
    icfg = lower_program(parse_program(text))
    stream = _CountingWorkload(ref_input)
    result = Machine(icfg, stream).run()
    return {"sha256": frozen.sha256_text(text),
            "nodes": icfg.node_count(),
            "conditionals": icfg.conditional_node_count(),
            "ref_input": list(ref_input),
            "ref_reads": stream.reads,
            "ref_output": observable(result),
            "ref_conditionals": result.profile.executed_conditionals}


def _attempt_counts(path: str) -> dict:
    """The counts a tier-0 batch or serve attempt reports for ``path``
    (same options as ``icbe batch`` and ``icbe serve`` defaults)."""
    from repro.robustness.worker import run_attempt
    payload = run_attempt({"job": path, "tier": 0, "budget": 1000,
                           "duplication_limit": 100, "diff_check": True,
                           "diff_seed": 0})
    if not payload.get("ok"):
        raise SystemExit(f"freeze: attempt on {path} failed: {payload}")
    return payload["counts"]


def _render(manifest: dict) -> str:
    """JSON with one record per line, so a re-freeze diffs per program."""
    lines = ["{", f' "format": {manifest["format"]},']
    sections = sorted(key for key in manifest if key != "format")
    for index, section in enumerate(sections):
        lines.append(f" {json.dumps(section)}: {{")
        items = sorted(manifest[section].items())
        for position, (key, record) in enumerate(items):
            comma = "," if position < len(items) - 1 else ""
            lines.append(f"  {json.dumps(key)}: "
                         f"{json.dumps(record, sort_keys=True)}{comma}")
        lines.append(" }" + ("," if index < len(sections) - 1 else ""))
    lines.append("}")
    return "\n".join(lines) + "\n"


def main() -> int:
    from repro.benchgen.suite import _SOURCES, load_benchmark
    from repro.lang.pretty import pretty_print

    manifest = {"format": frozen.MANIFEST_FORMAT, "programs": {},
                "dense": {}, "serve": {}, "batch": {}}
    shutil.rmtree(WORK_DIR, ignore_errors=True)
    os.makedirs(WORK_DIR)
    for tier in ("cores", "suite4", "suite8"):
        os.makedirs(os.path.join(frozen.DATA_DIR, tier), exist_ok=True)
    for name in frozen.CORE_NAMES:
        tiers = {"cores": (_SOURCES[name].lstrip("\n"),
                           load_benchmark(name, 1).workload.values)}
        for scale in (4, 8):
            bench = load_benchmark(name, scale)
            tiers[f"suite{scale}"] = (pretty_print(bench.program),
                                      bench.workload.values)
        for tier, (text, ref_input) in tiers.items():
            path = os.path.join(frozen.DATA_DIR, tier, f"{name}.mc")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
            manifest["programs"][f"{tier}/{name}"] = _run_record(
                text, ref_input)

        core = manifest["programs"][f"cores/{name}"]
        dense = _run_record(
            frozen.dense_source(tiers["cores"][0], frozen.dense_tag(0)),
            frozen.dense_ref_input(core))
        manifest["dense"][name] = {
            key: dense[key] for key in ("nodes", "conditionals",
                                        "ref_output", "ref_conditionals")}

        serve_path = os.path.join(WORK_DIR, f"{name}.mc")
        with open(serve_path, "w", encoding="utf-8") as handle:
            handle.write(frozen.serve_source(tiers["cores"][0], 0))
        manifest["serve"][name] = {"counts": _attempt_counts(serve_path)}
        manifest["batch"][name] = {"counts": _attempt_counts(
            os.path.join(frozen.DATA_DIR, "suite4", f"{name}.mc"))}

    with open(frozen.MANIFEST_PATH, "w", encoding="utf-8") as handle:
        handle.write(_render(manifest))
    shutil.rmtree(WORK_DIR, ignore_errors=True)
    print(f"froze {len(manifest['programs'])} programs into "
          f"{frozen.DATA_DIR}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
