"""The repository's benchmark: one command, four workloads.

Run from the repository root:

    python3 perfbench/run.py --workload dense --seed 1 --seconds 10 --trace 0

``--workload`` is one of ``dense``, ``suite8`` (compile in this
process), ``serve`` (a closed loop against an ``icbe serve`` daemon)
and ``batch`` (``run_batch`` over a job set); see
``perfbench/README.md`` for why each exists.  Inputs come from the
frozen files under ``perfbench/data``, varied by ``--seed``.

Every output is checked.  Human-readable report lines come first; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: with ``--trace 0`` every
``end_to_end`` metric of ``BENCHMARK.json``, with ``--trace 1`` every
``per_layer`` metric from a separately traced measurement.  The exit
code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("dense", "suite8", "serve", "batch")


def _declared_metrics(trace: bool) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r",
              encoding="utf-8") as handle:
        spec = json.load(handle)
    section = spec["per_layer" if trace else "end_to_end"]
    return {entry["name"]: entry["unit"] for entry in section}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no program source under {ROOT}/src; run from "
              f"a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    declared = _declared_metrics(bool(args.trace))

    # A terminated run still drains its daemon and removes its files.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    work_dir = os.path.join(ROOT, ".perfbench-work",
                            f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    # Temporary files, here and in every child, stay in the checkout.
    os.environ["TMPDIR"] = work_dir
    try:
        if args.workload in ("dense", "suite8"):
            from icbebench import compile as workload
            result = workload.run(args.workload, args.seed, args.seconds,
                                  bool(args.trace))
        elif args.workload == "serve":
            from icbebench import serve as workload
            result = workload.run(args.seed, args.seconds, bool(args.trace),
                                  work_dir)
        else:
            from icbebench import batch as workload
            result = workload.run(args.seed, args.seconds, bool(args.trace),
                                  work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work_dir))
        except OSError:
            pass            # another run is still using it

    measured = result.layers if args.trace else result.metrics
    for name, value, unit in result.report:
        print(f"{args.workload:7s} {name:34s} {value:14.6f} {unit}")
    if args.trace:
        from icbebench.common import unit_of
        for name in sorted(result.layers):
            print(f"{args.workload:7s} layer {name:28s} "
                  f"{result.layers[name]:14.6f} {unit_of(name)}")
    for problem in result.problems:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    metrics = {}
    correct = not result.problems
    for name, unit in declared.items():
        if name not in measured:
            print(f"perfbench: metric {name} was not measured",
                  file=sys.stderr)
            correct = False
        metrics[name] = {"value": measured.get(name, 0.0), "unit": unit}
    print(json.dumps({"correct": correct, "attempted": result.attempted,
                      "failed": result.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
