"""The calibration kernel, and a sampler process that runs it.

Run as a script, it runs :func:`kernel` about once a second and prints
each run's CPU seconds on a line of its own, until its standard input
is closed.  It imports nothing of the benchmark or the program, so
starting it costs only an interpreter start, and its own heap never
appears in a process the program forks.
"""

import random
import select
import sys
import time

#: Pause between two kernel runs of the sampler.
SAMPLE_PERIOD_S = 1.0


class _Node:
    __slots__ = ("key", "succ")

    def __init__(self, key: int) -> None:
        self.key = key
        self.succ = []


def kernel() -> None:
    """A fixed pure-Python graph build and walk, the kind of work the
    optimizer does, that shares no code with the program under test.

    The graph's cycles are broken at the end, so it is freed as soon as
    the kernel returns, without the collector: it adds to the resident
    set of the process that runs it only while it runs.
    """
    rng = random.Random(7)
    nodes = [_Node(key) for key in range(20000)]
    for node in nodes:
        node.succ = [nodes[rng.randrange(20000)] for _ in range(3)]
    order = {}
    stack = [nodes[0]]
    while stack:
        node = stack.pop()
        if node.key not in order:
            order[node.key] = len(order)
            stack.extend(node.succ)
    sorted(order, key=order.get)
    for node in nodes:
        node.succ = []


def kernel_seconds(timer=time.perf_counter) -> float:
    """Seconds of one run of :func:`kernel` by ``timer``."""
    started = timer()
    kernel()
    return timer() - started


def main() -> None:
    while True:
        print(repr(kernel_seconds(time.thread_time)), flush=True)
        readable, _, _ = select.select([sys.stdin], [], [], SAMPLE_PERIOD_S)
        if readable and not sys.stdin.read(1):
            return


if __name__ == "__main__":
    main()
