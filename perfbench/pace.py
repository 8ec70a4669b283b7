"""Timings scaled to a reference host pace.

On a shared host the speed of a core drifts with the load of other tenants.
On the 2-vCPU reference host the same 2 s solve took anywhere from 1.3 s to
2.5 s, switching between fast and slow phases a few seconds long, and process
CPU time drifted with wall time because the core itself ran slower. A fixed
pure-Python probe slows down with the solver, so the solver's time divided by
the probe's time at the same moment stays put.

`Clock` samples the probe from a SIGALRM handler every INTERVAL_S of wall
time, also in the middle of a solve, and once on either side of every timed
block. A block's time is its wall time minus the time the handler took
inside it, and is reported both as is (`wall_s`) and scaled to the reference
pace (`scaled_s`): the wall time times the mean of PROBE_REF_S / probe time
over the block's samples, which is the time the block would have taken had
the probe run at PROBE_REF_S throughout.
"""

from __future__ import annotations

import math
import signal
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

# Probe time on the reference host (2-vCPU Xeon at 2.1 GHz, CPython 3.11) in
# its fast phases, so that scaled seconds read close to wall seconds there.
PROBE_REF_S = 0.00018
# One probe every INTERVAL_S of wall time costs about 3% of it.
INTERVAL_S = 0.01


def _step(a: float, b: float) -> float:
    return a * 0.5 + b


def probe() -> float:
    """Run the probe once and return its time in seconds: interpreter work
    of the kind the solvers do (float arithmetic, calls, dict reads and
    writes) on a small table of its own, so it keeps nothing alive and does
    not touch the solver's objects."""
    start = time.perf_counter()
    table = dict.fromkeys(range(64), 0.0)
    acc = 0.0
    for i in range(600):
        key = i & 63
        table[key] = table[key] + _step(i * 1.000001, math.sqrt(i + 1.0))
        acc += table[key] * 1e-9
    return time.perf_counter() - start


@dataclass
class Timing:
    wall_s: float = 0.0
    scaled_s: float = 0.0


class Clock:
    """Times blocks of code and scales them to the reference pace. With
    `sampling=False` no probe runs and `scaled_s` equals `wall_s`, for runs
    whose own timings must not include probe time (the traced run)."""

    def __init__(self, sampling: bool = True) -> None:
        self.sampling = sampling
        self._samples: list[tuple[float, float]] = []  # (start, probe time)
        self._busy = False
        self._previous = None

    def __enter__(self) -> Clock:
        if self.sampling:
            self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.sampling:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, self._previous)

    def _sample(self) -> None:
        if self._busy:  # an alarm that arrives while the probe runs is skipped
            return
        self._busy = True
        try:
            start = time.perf_counter()
            self._samples.append((start, probe()))
        finally:
            self._busy = False

    def _on_alarm(self, signum, frame) -> None:
        self._sample()

    @contextmanager
    def timed(self) -> Iterator[Timing]:
        """Time the block; the Timing is filled in when the block exits, also
        when it raises."""
        timing = Timing()
        if not self.sampling:
            start = time.perf_counter()
            try:
                yield timing
            finally:
                timing.wall_s = timing.scaled_s = time.perf_counter() - start
            return
        first = len(self._samples)
        self._sample()
        start = time.perf_counter()
        try:
            yield timing
        finally:
            end = time.perf_counter()
            self._sample()
            samples = self._samples[first:]
            inside = sum(p for t, p in samples if start <= t < end)
            timing.wall_s = end - start - inside
            timing.scaled_s = timing.wall_s * statistics.fmean(PROBE_REF_S / p for _, p in samples)
