"""Timing scaled to a fixed host speed.

On a shared virtual machine the speed of the same pure-Python code drifts
by a third or more, within seconds and over minutes, and process CPU time
drifts with it.  Best-of and median statistics inside one run cannot
remove a slow phase that lasts the whole run.  So each timed call also
measures the host's speed while it runs: a probe, two fixed pure-Python
loops, is timed just before and just after the call and every
``INTERVAL_S`` seconds during it, from a ``SIGALRM`` handler in the same
thread (no threads or processes are started).  The call's time, less the
time its probes took, is scaled by ``REFERENCE_S`` over the probe
duration (the geometric mean of the two loops' medians): the seconds the
call would take on a host where the probe takes ``REFERENCE_S``.

On a 2-vCPU virtual machine (Python 3.11), over 24 repeats each of five
kinds of call (the suite, a 129-element and a small `validate`, a 32- and
an 80-character `iso`), this cut the spread of the call's time (quartile
distance over median) from 0.13-0.22 to 0.04-0.11.
"""

from __future__ import annotations

import gc
import math
import signal
import statistics
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

# About the fastest the probe ran on a 2-vCPU virtual machine with
# Python 3.11; its median there ranged from 0.1 to 0.15 ms.
REFERENCE_S = 9e-5
INTERVAL_S = 0.02
EDGE_PROBES = 3             # probes before and after each call


class _Box:
    __slots__ = ("x",)

    def __init__(self, x: int) -> None:
        self.x = x


def probe() -> tuple[float, float]:
    """Seconds two fixed loops take now: one of integer arithmetic, one of
    small objects, dict traffic, a sort and bit counts.  The collector is
    off while they run, so a probe inside a call never pays for a
    collection the call's own objects are due."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        s = 0
        for i in range(1500):
            s += i * i % 7
        t1 = perf_counter()
        table = {}
        for i in range(200):
            table[(i * 7919) & 1023] = _Box(i)
        masks = sorted(box.x ^ key for key, box in table.items())
        sum(bin(m).count("1") for m in masks)
        return t1 - t0, perf_counter() - t1
    finally:
        if enabled:
            gc.enable()


@dataclass
class Timing:
    raw: float = 0.0            # seconds, probes excluded
    scaled: float = 0.0         # seconds at the reference speed
    probe: float = 0.0          # probe seconds during the call


@contextmanager
def timed(sample: bool = True):
    """Time the body; with ``sample`` off, only ``raw`` is filled."""
    t = Timing()
    if not sample:
        start = perf_counter()
        try:
            yield t
        finally:
            t.raw = perf_counter() - start
        return
    samples = [probe() for _ in range(EDGE_PROBES)]
    spent = 0.0

    def on_alarm(signum, frame):
        nonlocal spent
        t0 = perf_counter()
        samples.append(probe())
        spent += perf_counter() - t0

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
    start = perf_counter()
    try:
        yield t
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = perf_counter() - start
        signal.signal(signal.SIGALRM, previous)
        samples += [probe() for _ in range(EDGE_PROBES)]
        t.raw = elapsed - spent
        # Each loop alone tracks some calls better than others; the
        # geometric mean of their medians was never far from the better one.
        t.probe = math.sqrt(statistics.median(a for a, _ in samples)
                            * statistics.median(b for _, b in samples))
        t.scaled = t.raw * REFERENCE_S / t.probe
