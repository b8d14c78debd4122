"""The ``serve`` workload: a closed loop against an ``icbe serve`` daemon.

The daemon runs with two workers and its defaults (differential check
on, duplication limit 100).  Two client threads each send one request
and wait for its result before sending the next, the way callers that
need the optimized program behave.  Requests come in rounds
(:data:`ROUND`): each of the six suite cores twice, each a miss made
distinct by a seeded constant in an unreachable procedure (a comment
would not do: the result cache keys on the lowered program), and two
exact repeats of programs whose result is already back, so result-cache
reads run beside misses.  Every core is equally likely, as in traffic
that favours no program; the repeats have the weight of one core, so
the sorted latencies fall into seven bands of equal size (the fast
repeats, then one band per core) and the median lies in the middle of
the fourth band, the 90th percentile inside the slowest core's band,
whatever order the cores' latencies take.  Rounds repeat until the
run's seconds are spent and at least ``MIN_REQUESTS`` were sent, so at
least ten latencies lie beyond the 90th percentile and every run holds
the same mix.  Times are scaled to the reference host by a
:class:`~icbebench.common.SampledClock` running beside the loop.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from statistics import median
from typing import Dict, List, Optional

from icbebench import frozen, layers
from icbebench.common import (SETUP_REPEATS, Result, SampledClock,
                              percentile)
from icbebench.compile import rescore
from repro.obs.export import read_jsonl
from repro.serve.app import read_discovery
from repro.serve.client import ServeClient

CLIENTS = 2
WORKERS = 2
MIN_REQUESTS = 100
#: One round of requests: a core's name is a miss, None a repeat.
ROUND = frozen.CORE_NAMES + (None,) + frozen.CORE_NAMES + (None,)
REQUEST_TIMEOUT_S = 120.0
START_TIMEOUT_S = 60.0
HOOK_DIR = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "hook")


@dataclass
class Request:
    core: str
    text: str
    #: The earlier request this one repeats exactly (None for a miss).
    repeat_of: Optional["Request"] = None
    done: threading.Event = field(default_factory=threading.Event)
    latency_s: float = 0.0
    job_id: str = ""


class Plan:
    """Hands the clients requests, a whole round at a time."""

    def __init__(self, cores: List[frozen.Program], seed: int,
                 seconds: float) -> None:
        self.cores = {core.name: core for core in cores}
        self.rng = random.Random(f"serve:{seed}")
        self.deadline = time.perf_counter() + seconds
        self.rounds = 0
        self.pending: List[Request] = []
        self.previous: List[Request] = []
        self.sent: List[Request] = []
        self.lock = threading.Lock()

    def _new_round(self) -> None:
        requests: List[Request] = []
        for name in ROUND:
            if name is None:
                # Not the previous round's last requests: those may
                # still be in flight.
                pool = [r for r in (self.previous[:-CLIENTS] or requests)
                        if r.repeat_of is None]
                target = self.rng.choice(pool)
                requests.append(Request(target.core, target.text,
                                        repeat_of=target))
            else:
                requests.append(Request(name, frozen.serve_source(
                    self.cores[name].text, self.rng.randrange(1, 10 ** 9))))
        self.previous = requests
        self.pending = list(requests)
        self.rounds += 1

    def next(self) -> Optional[Request]:
        with self.lock:
            if not self.pending:
                if (self.rounds * len(ROUND) >= MIN_REQUESTS
                        and time.perf_counter() >= self.deadline):
                    return None
                self._new_round()
            request = self.pending.pop(0)
            self.sent.append(request)
            return request


def _start_daemon(run_dir: str, seed: int, log_path: str,
                  trace_path: str = ""):
    """Start a daemon and wait until ``/readyz`` answers 200."""
    root = os.path.dirname(os.path.dirname(HOOK_DIR))
    env = dict(os.environ)
    paths = [os.path.join(root, "src")]
    command = [sys.executable, "-m", "repro.cli"]
    if trace_path:
        # Layer wrappers in the daemon and every worker it spawns.
        paths = [HOOK_DIR, os.path.dirname(HOOK_DIR)] + paths
        env["PERFBENCH_LAYERS"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(paths)
    command += ["serve", "--port", "0", "--workers", str(WORKERS),
                "--run-dir", run_dir, "--seed", str(seed)]
    if trace_path:
        command += ["--trace", trace_path]
    with open(log_path, "ab") as log:
        process = subprocess.Popen(command, env=env,
                                   stdout=subprocess.DEVNULL, stderr=log)
    deadline = time.monotonic() + START_TIMEOUT_S
    while time.monotonic() < deadline:
        if process.poll() is not None:
            raise RuntimeError(f"daemon exited {process.returncode} on "
                               f"start; see {log_path}")
        info = read_discovery(run_dir)
        if info is not None and info.get("pid") == process.pid:
            client = ServeClient(info["host"], info["port"],
                                 timeout_s=REQUEST_TIMEOUT_S)
            try:
                if client.readyz()[0] == 200:
                    return process, client
            except OSError:
                pass
        time.sleep(0.01)
    _stop_daemon(process, None)
    raise RuntimeError("daemon not ready after "
                       f"{START_TIMEOUT_S:g}s; see {log_path}")


def _stop_daemon(process, client) -> None:
    """Drain the daemon and wait for it (and so its workers) to exit."""
    if client is not None:
        try:
            client.drain()
        except OSError:
            pass
    try:
        process.wait(timeout=30)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait(timeout=30)


def _client_loop(plan: Plan, client: ServeClient, result: Result,
                 expected: Dict[str, dict], positions: List[int]) -> None:
    while True:
        request = plan.next()
        if request is None:
            return
        if request.repeat_of is not None:
            request.repeat_of.done.wait(REQUEST_TIMEOUT_S)
        started = time.perf_counter()
        try:
            status, payload, _ = client.submit(source=request.text)
            if status == 202:
                request.job_id = payload["id"]
                positions.append(int(payload.get("position", 0)))
                answer = client.wait(payload["id"],
                                     timeout_s=REQUEST_TIMEOUT_S)["result"]
            elif status == 200:
                answer = payload["result"]
            else:
                answer = {"status": f"HTTP {status}", "detail": payload}
        except Exception as failure:  # a lost request, not a lost run
            answer = {"status": f"{type(failure).__name__}: {failure}"}
        request.latency_s = time.perf_counter() - started
        request.done.set()
        if (answer.get("status") != "OK" or answer.get("tier") != 0
                or answer.get("counts") != expected[request.core]):
            with plan.lock:
                result.fail(f"{request.core}: {answer}")


def _measure(result: Result, cores, seed: int, seconds: float, client):
    """One closed-loop measurement; returns its plan, wall time, the
    scale of its times to the reference host (see
    :class:`SampledClock`), the daemon's final stats and the 202 queue
    positions."""
    manifest = frozen.load_manifest()
    expected = {name: entry["counts"]
                for name, entry in manifest["serve"].items()}
    plan = Plan(cores, seed, seconds)
    positions: List[int] = []
    # Daemon threads: a terminated run must not wait for the loop.
    threads = [threading.Thread(target=_client_loop,
                                args=(plan, client, result, expected,
                                      positions), daemon=True)
               for _ in range(CLIENTS)]
    with SampledClock() as clock:
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - started
    result.attempted += len(plan.sent)
    return plan, wall, clock.factor(), client.stats(), positions


def _latencies(plan: Plan, scale: float, core: str = "") -> List[float]:
    """Every latency, or one core's misses' (``"repeat"``: the
    repeats'), times ``scale``."""
    return [request.latency_s * scale for request in plan.sent
            if not core or core == ("repeat" if request.repeat_of
                                    else request.core)]


def run(seed: int, seconds: float, trace: bool, work_dir: str) -> Result:
    result = Result()
    log_path = os.path.join(work_dir, "daemon.log")
    setups = []
    for attempt in range(SETUP_REPEATS):
        started = time.perf_counter()
        cores = frozen.read_tier("cores", frozen.load_manifest())
        process, client = _start_daemon(
            os.path.join(work_dir, f"run-{attempt}"), seed, log_path)
        setups.append(time.perf_counter() - started)
        if attempt < SETUP_REPEATS - 1:
            _stop_daemon(process, client)
    try:
        plan, wall, scale, stats, _ = _measure(result, cores, seed,
                                               seconds, client)
    finally:
        _stop_daemon(process, client)
    latencies = _latencies(plan, scale)
    result.metrics.update({
        "wait_s": median(latencies),
        "wait_tail_s": percentile(latencies, 0.9),
        "ops_per_s": len(latencies) / (wall * scale),
        "setup_s": median(setups) * scale,
        "peak_rss_mb": max(w["peak_rss_kb"] for w in stats["workers"])
        / 1024.0,
    })

    manifest = frozen.load_manifest()
    rescore(result, [frozen.Program(core.name,
                                    frozen.serve_source(core.text, 0),
                                    core.record) for core in cores],
            {name: entry["counts"]
             for name, entry in manifest["serve"].items()},
            frozen.battery_inputs(seed))
    result.metrics["ok_frac"] = 1.0 - result.failed / result.attempted

    if trace:
        result.layers, traced_p50 = _traced(result, cores, seed, seconds,
                                            work_dir, log_path)
        result.layers["trace_overhead_frac"] = (
            traced_p50 / result.metrics["wait_s"] - 1.0)
    result.report_as(request_s_p50="wait_s", request_s_p90="wait_tail_s",
                     requests_per_s="ops_per_s", setup_s="setup_s",
                     peak_rss_mb="peak_rss_mb",
                     code_size_ratio="code_size_ratio",
                     optimized_frac="optimized_frac",
                     failed_frac="ok_frac")
    result.report.append(("requests", float(len(latencies)), "count"))
    # Where each core's requests lie: the percentiles above read a band.
    for core in frozen.CORE_NAMES + ("repeat",):
        result.report.append((f"request_s_p50.{core}",
                              median(_latencies(plan, scale, core)), "s"))
    result.report.append(("host_slowdown", 1.0 / scale, "ratio"))
    return result


def _traced(result: Result, cores, seed: int, seconds: float,
            work_dir: str, log_path: str):
    """A second measurement against a daemon started with ``--trace``
    and the layer wrappers; returns its layer metrics, per round of
    requests, and its median latency."""
    trace_path = os.path.join(work_dir, "serve-trace.jsonl")
    process, client = _start_daemon(os.path.join(work_dir, "run-traced"),
                                    seed, log_path, trace_path=trace_path)
    try:
        plan, _, scale, stats, positions = _measure(result, cores, seed,
                                                    seconds, client)
    finally:
        _stop_daemon(process, client)
    trace = read_jsonl(trace_path)
    spans = trace["spans"]
    counters = (trace["metrics"] or {}).get("counters", {})
    metrics = layers.layer_metrics(spans, counters, ["serve.attempt"],
                                   units=plan.rounds)
    attempts = {(span.get("attrs") or {}).get("id"): span["dur_s"]
                for span in spans if span["name"] == "serve.attempt"}
    misses = [r for r in plan.sent if r.job_id in attempts]
    cache = stats["cache"]
    lookups = cache["hits"] + cache["misses"]
    metrics.update({
        "serve.cache_hit_frac": cache["hits"] / lookups if lookups else 0.0,
        "serve.worker_attempt_s_p50": median(
            [attempts[r.job_id] for r in misses]),
        "serve.overhead_s_p50": median(
            [r.latency_s - attempts[r.job_id] for r in misses]),
        "serve.queue_depth_max": max(positions, default=0),
    })
    return metrics, median(_latencies(plan, scale))
