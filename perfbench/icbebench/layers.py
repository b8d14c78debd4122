"""Per-layer attribution from outside the program.

The program already opens spans around parsing, lowering, correlation
analysis, verification, interpretation and each conditional's
transaction.  :func:`install` adds spans around the public entry points
that have none — splitting, elimination, nop simplification, pruning,
snapshot take/restore and durable I/O — by replacing each function
where its callers look it up.  The spans go into the program's own
observability session, so they travel with it: into forked batch
workers, and through the daemon's ``--trace`` file for ``serve``
(where ``perfbench/hook/sitecustomize.py`` installs the same wrappers
in the daemon and its workers).

:func:`rollup` turns a span list into per-layer self times: a span's
self time is its duration minus that of its children, and a layer's
time is the sum of its spans' self times.  Self time inside a root
span (one compiled program, one batch attempt, one serve attempt) that
no layer claims is reported as ``unattributed``.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from typing import Dict, Iterable, List

from repro import obs

#: Span name -> layer.  Names without the ``bench.`` prefix are spans
#: the program opens itself.
LAYER_OF_SPAN = {
    "frontend.parse": "lang.parse",
    "frontend.sema": "lang.parse",
    "ir.lower": "ir.lower",
    "analysis.correlation": "analysis.correlation",
    "analysis.prewarm": "analysis.correlation",
    "transform.branch": "transform.restructure_self",
    "bench.transform.split": "transform.split",
    "bench.transform.eliminate": "transform.eliminate",
    "bench.transform.simplify": "transform.simplify",
    "ir.verify": "ir.verify",
    "bench.ir.prune": "ir.prune",
    "bench.robustness.snapshot": "robustness.snapshot",
    "bench.robustness.restore": "robustness.restore",
    "interp.run": "interp.run",
    "bench.durafs.append": "durafs.append",
    "bench.durafs.atomic_write": "durafs.atomic_write",
}

_installed: List[tuple] = []


def _spanned(name: str, function):
    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        with obs.span(name):
            return function(*args, **kwargs)
    return wrapper


def _recorded(name: str, function):
    """A leaf span recorded after the fact instead of pushed on the
    tracer's stack: the daemon writes durably from executor threads,
    and the tracer's stack is not thread-safe."""
    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        session = obs.current()
        if session is None:
            return function(*args, **kwargs)
        started = session.tracer.now()
        try:
            return function(*args, **kwargs)
        finally:
            session.tracer.record(name, started, session.tracer.now())
    return wrapper


def _patch(owner, attribute: str, replacement) -> None:
    _installed.append((owner, attribute, owner.__dict__[attribute]))
    setattr(owner, attribute, replacement)


def install() -> None:
    """Wrap the span-less layer entry points (idempotent)."""
    if _installed:
        return
    from repro.ir.icfg import ICFG
    from repro.robustness.snapshot import ICFGSnapshot
    from repro.transform import passes, restructure
    from repro.transform.split import Splitter
    from repro.utils import durafs

    _patch(Splitter, "split", _spanned("bench.transform.split",
                                       Splitter.split))
    _patch(restructure, "eliminate_known_copies", _spanned(
        "bench.transform.eliminate", restructure.eliminate_known_copies))
    _patch(passes, "simplify_nops", _spanned("bench.transform.simplify",
                                             passes.simplify_nops))
    _patch(ICFG, "remove_unreachable", _spanned("bench.ir.prune",
                                                ICFG.remove_unreachable))
    _patch(ICFGSnapshot, "take", classmethod(_spanned(
        "bench.robustness.snapshot", ICFGSnapshot.take.__func__)))
    _patch(ICFGSnapshot, "restore", _spanned("bench.robustness.restore",
                                             ICFGSnapshot.restore))
    _patch(durafs.AppendFile, "append", _recorded(
        "bench.durafs.append", durafs.AppendFile.append))
    _patch(durafs, "atomic_write_bytes", _recorded(
        "bench.durafs.atomic_write", durafs.atomic_write_bytes))


def uninstall() -> None:
    while _installed:
        owner, attribute, original = _installed.pop()
        setattr(owner, attribute, original)


def rollup(spans: Iterable[dict], roots: Iterable[str]) -> Dict[str, float]:
    """Per-layer ``<layer>_s`` self seconds and ``<layer>_calls`` span
    counts, plus ``unattributed_s`` inside spans named in ``roots``."""
    spans = list(spans)
    by_id = {span["id"]: span for span in spans}
    child_time: Dict[int, float] = defaultdict(float)
    for span in spans:
        child_time[span["parent"]] += span["dur_s"]
    root_names = set(roots)
    in_root: Dict[int, bool] = {}

    def inside_root(span_id: int) -> bool:
        chain = []
        while span_id in by_id and span_id not in in_root:
            chain.append(span_id)
            if by_id[span_id]["name"] in root_names:
                in_root[span_id] = True
                break
            span_id = by_id[span_id]["parent"]
        answer = in_root.get(span_id, False)
        for seen in chain:
            in_root[seen] = answer
        return answer

    times: Dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    unattributed = 0.0
    for span in spans:
        self_s = span["dur_s"] - child_time[span["id"]]
        layer = LAYER_OF_SPAN.get(span["name"])
        if layer is not None:
            times[layer] += self_s
            calls[layer] += 1
        elif inside_root(span["id"]):
            unattributed += self_s
    result = {"unattributed_s": unattributed}
    for layer in sorted(set(LAYER_OF_SPAN.values())):
        result[f"{layer}_s"] = times[layer]
        result[f"{layer}_calls"] = calls[layer]
    return result


def outcome_count(spans: Iterable[dict], outcome: str) -> int:
    """Conditional transactions (``transform.branch``) that ended with
    ``outcome``."""
    return sum(1 for span in spans if span["name"] == "transform.branch"
               and (span.get("attrs") or {}).get("outcome") == outcome)


def layer_metrics(spans: List[dict], counters: Dict[str, int],
                  roots: Iterable[str], units: int) -> Dict[str, float]:
    """The per-layer metrics of one traced measurement, per unit of
    work (one pass, or one round of requests)."""
    rolled = rollup(spans, roots)
    attempts = rolled["transform.restructure_self_calls"]
    hits = counters.get("cache.summary_hits", 0)
    lookups = hits + counters.get("cache.summary_misses", 0)
    per = 1.0 / max(1, units)
    return {
        "lang.parse_s": rolled["lang.parse_s"] * per,
        "ir.lower_s": rolled["ir.lower_s"] * per,
        "analysis.correlation_s": rolled["analysis.correlation_s"] * per,
        "analysis.calls": rolled["analysis.correlation_calls"] * per,
        "analysis.pairs_examined":
            counters.get("analysis.pairs_examined", 0) * per,
        "analysis.summary_hit_frac": hits / lookups if lookups else 0.0,
        "transform.restructure_self_s":
            rolled["transform.restructure_self_s"] * per,
        "transform.split_s": rolled["transform.split_s"] * per,
        "transform.eliminate_s": rolled["transform.eliminate_s"] * per,
        "transform.simplify_s": rolled["transform.simplify_s"] * per,
        "transform.attempts": attempts * per,
        "transform.optimized_per_attempt":
            outcome_count(spans, "optimized") / attempts if attempts
            else 0.0,
        "ir.verify_s": rolled["ir.verify_s"] * per,
        "ir.verify_calls": rolled["ir.verify_calls"] * per,
        "ir.prune_s": rolled["ir.prune_s"] * per,
        "ir.prune_calls": rolled["ir.prune_calls"] * per,
        "robustness.snapshot_s": rolled["robustness.snapshot_s"] * per,
        "robustness.snapshot_calls":
            rolled["robustness.snapshot_calls"] * per,
        "robustness.restore_s": rolled["robustness.restore_s"] * per,
        "robustness.rollbacks": rolled["robustness.restore_calls"] * per,
        "interp.run_s": rolled["interp.run_s"] * per,
        "interp.runs": rolled["interp.run_calls"] * per,
        "durafs.append_s": rolled["durafs.append_s"] * per,
        "durafs.append_calls": rolled["durafs.append_calls"] * per,
        "durafs.atomic_write_s": rolled["durafs.atomic_write_s"] * per,
        "unattributed_s": rolled["unattributed_s"] * per,
        # Layers of the serve and batch workloads; those set them.
        "serve.cache_hit_frac": 0.0,
        "serve.queue_depth_max": 0,
        "robustness.batch_attempts": 0,
    }
