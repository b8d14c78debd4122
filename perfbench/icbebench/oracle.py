"""Output oracle: optimized programs must behave like the originals.

The reference is never the optimizer: the ref-input output was recorded
from the *unoptimized* program when the inputs were frozen, and every
battery input is run on the unoptimized graph next to the optimized
one.  Each disagreement is returned as one line naming the program and
the input; the caller counts a program with any of them as one failed
operation.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.interp import Workload, run_icfg


def observable(result) -> dict:
    """The semantics-defining part of a run, as stored in the manifest."""
    return {"status": result.status, "exit": result.exit_value,
            "output": list(result.output), "fault": result.fault_message}


def check_program(name: str, original, optimized, record: dict,
                  battery: List[List[int]]) -> Tuple[List[str], int]:
    """Compare ``optimized`` with the recorded ref output and with
    ``original`` on every battery input.

    Returns the mismatches and the conditionals the optimized program
    executed on its ref input (the numerator of ``dyn_cond_ratio``).
    """
    mismatches = []
    after = run_icfg(optimized, Workload(record["ref_input"]))
    if observable(after) != record["ref_output"]:
        mismatches.append(f"{name}: ref output {observable(after)} != "
                          f"recorded {record['ref_output']}")
    for index, values in enumerate(battery):
        want = run_icfg(original, Workload(values))
        got = run_icfg(optimized, Workload(values))
        if observable(got) != observable(want):
            mismatches.append(f"{name}: battery input {index} {values}: "
                              f"{observable(got)} != {observable(want)}")
    return mismatches, after.profile.executed_conditionals
