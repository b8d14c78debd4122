"""The benchmark's frozen inputs and the programs derived from them.

Everything a workload compiles comes from ``perfbench/data``: the six
handwritten suite cores, the scale-4 and scale-8 suites pretty-printed
to MiniC, and ``manifest.json`` with each program's content hash, node
and conditional counts, ref input and recorded output.  Loading checks
all three facts, so a change to ``repro.benchgen`` (or to the parser or
lowering) cannot silently change what a workload measures: it fails
the self-check instead.  ``perfbench/freeze.py`` rewrites the data.

The seed only renames and reorders; it never changes a program's shape,
so every count a workload reports is the same for every seed.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
from dataclasses import dataclass
from typing import Dict, List

DATA_DIR = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "data")
MANIFEST_PATH = os.path.join(DATA_DIR, "manifest.json")
MANIFEST_FORMAT = 1

#: The suite's six programs, in the suite's canonical order.
CORE_NAMES = ("go_like", "m88ksim_like", "compress_like", "li_like",
              "perl_like", "icc_like")
#: How many renamed copies of a core one ``dense`` program holds.
DENSE_COPIES = 8
#: Name of the unreachable procedure that makes each served program
#: distinct.  Its shape is fixed (no conditionals, three nodes); only
#: its constant varies, which changes the result-cache key but neither
#: the node counts nor a single optimization decision.
PAD_PROC = "bench_pad"


class InputDrift(Exception):
    """A frozen input no longer matches its manifest record."""


@dataclass
class Program:
    """One program a workload feeds to the system under test."""

    name: str
    text: str
    #: The manifest record: counts, ref input, recorded output.
    record: dict


def load_manifest() -> dict:
    with open(MANIFEST_PATH, "r", encoding="utf-8") as handle:
        manifest = json.load(handle)
    if manifest.get("format") != MANIFEST_FORMAT:
        raise InputDrift(f"manifest format {manifest.get('format')!r} "
                         f"!= {MANIFEST_FORMAT}")
    return manifest


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def graph_counts(text: str) -> Dict[str, int]:
    """Node and conditional counts of ``text`` after parse and lower."""
    from repro.ir import lower_program
    from repro.lang.parser import parse_program
    icfg = lower_program(parse_program(text))
    return {"nodes": icfg.node_count(),
            "conditionals": icfg.conditional_node_count()}


def check_counts(label: str, text: str, record: dict) -> None:
    counts = graph_counts(text)
    for key, value in counts.items():
        if record[key] != value:
            raise InputDrift(f"{label}: {key} = {value}, manifest records "
                             f"{record[key]}")


def read_tier(tier: str, manifest: dict) -> List[Program]:
    """The frozen programs of one tier (``cores``, ``suite4``,
    ``suite8``), with content hash and counts checked."""
    programs = []
    for name in CORE_NAMES:
        key = f"{tier}/{name}"
        record = manifest["programs"][key]
        with open(os.path.join(DATA_DIR, tier, f"{name}.mc"), "r",
                  encoding="utf-8") as handle:
            text = handle.read()
        digest = sha256_text(text)
        if digest != record["sha256"]:
            raise InputDrift(f"{key}: sha256 {digest[:12]}… differs from "
                             f"the manifest's {record['sha256'][:12]}…")
        check_counts(key, text, record)
        programs.append(Program(name=name, text=text, record=record))
    return programs


# -- dense: cores replicated behind a dispatcher ------------------------------


def dense_tag(seed: int) -> str:
    """The per-seed renaming tag.  Digits only, so renamed identifiers
    sort exactly like the originals whatever the seed."""
    return f"{random.Random(seed).randrange(1000):03d}"


def dense_source(core_text: str, tag: str,
                 copies: int = DENSE_COPIES) -> str:
    """``copies`` renamed copies of one core plus a ``main`` that runs
    each copy's ``main`` in turn, so every node stays reachable.

    Procedures and globals are renamed per copy (``name_<tag><k>``), so
    the copies share no state and the analysis sees ``copies`` times the
    correlations.  Each copy reads exactly the inputs the core reads on
    its ref run (see :func:`dense_ref_input`).
    """
    from repro.lang.parser import parse_program
    program = parse_program(core_text)
    names = [p.name for p in program.procs] + [g.name for g in
                                               program.globals]
    pattern = re.compile(r"\b(" + "|".join(
        sorted(names, key=len, reverse=True)) + r")\b")
    parts = []
    for k in range(copies):
        parts.append(pattern.sub(
            lambda match: f"{match.group(1)}_{tag}{k}", core_text))
    calls = "\n".join(f"    var r{k} = main_{tag}{k}();"
                      for k in range(copies))
    total = " + ".join(f"r{k}" for k in range(copies))
    parts.append(f"proc main() {{\n{calls}\n    return {total};\n}}\n")
    return "\n".join(parts)


def dense_ref_input(core_record: dict,
                    copies: int = DENSE_COPIES) -> List[int]:
    """The core's ref segment once per copy.  A segment is exactly the
    values the core reads on its ref run, including the zeros it reads
    past the end of the stream, so each copy consumes its own."""
    reads = core_record["ref_reads"]
    values = list(core_record["ref_input"])
    segment = (values + [0] * max(0, reads - len(values)))[:reads]
    return segment * copies


def dense_programs(seed: int, manifest: dict) -> List[Program]:
    tag = dense_tag(seed)
    programs = []
    for core in read_tier("cores", manifest):
        record = dict(manifest["dense"][core.name])
        record["ref_input"] = dense_ref_input(core.record)
        text = dense_source(core.text, tag)
        check_counts(f"dense/{core.name}", text, record)
        programs.append(Program(name=core.name, text=text, record=record))
    return programs


# -- serve: cores made distinct by an unreachable procedure -------------------


def serve_source(core_text: str, pad_value: int) -> str:
    return (core_text.rstrip("\n")
            + f"\n\nproc {PAD_PROC}() {{\n    return {pad_value};\n}}\n")


# -- seeded input batteries ---------------------------------------------------


def battery_inputs(seed: int, runs: int = 3, length: int = 16,
                   high: int = 8) -> List[List[int]]:
    """The oracle's extra inputs: the empty stream plus ``runs`` seeded
    non-negative streams (programs read 0 as end of input, so every
    stream ends)."""
    rng = random.Random(f"battery:{seed}")
    streams: List[List[int]] = [[]]
    for _ in range(runs):
        streams.append([rng.randint(0, high) for _ in range(length)])
    return streams
