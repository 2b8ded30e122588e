"""A fixed reference kernel that reads how fast the machine runs right now.

The benchmark's host is a shared VM whose speed drifts by up to 1.7x
between states that last from seconds to minutes; CPU time drifts with
wall time, so neither clock alone tells a slower program from a slower
machine.  The probe below is frozen code that never changes with the
program: pure-Python Dijkstra over dict adjacency on a small and a
larger graph, and a few small numpy calls, the kinds of work the
routing stack does.  The cyclic garbage collector is off while it runs,
so its time does not depend on how large the program's heap is.

Timed between the workload's items, the probe's mean time over a
stretch of a run, divided by :data:`NOMINAL_PROBE_S` and raised to
:data:`ELASTICITY`, is the program's *slowdown* over that stretch;
dividing the stretch's times by it states them at the machine's nominal
speed.  A single call's latency is divided by the slowdown read by the
two probes on either side of it.

Changing the probe, :data:`NOMINAL_PROBE_S` or :data:`ELASTICITY`
changes every reported time, so all three stay as they are.
"""

from __future__ import annotations

import gc
import heapq
import math
import random
import statistics
import time
from typing import Dict, List

import numpy as np

#: Mean probe time on the reference machine (2-vCPU Xeon VM, Python
#: 3.11, numpy 2.4) in its fast state.  Slowdown 1.0 means that speed.
NOMINAL_PROBE_S = 0.003

#: How much of the probe's slowdown the program shows: the probe runs
#: from warm caches and so slows more than the program when the machine
#: does.  Over 60 runs of the five workloads at probe slowdowns of
#: 0.8-1.7, the spread of throughput between seeds was smallest for
#: exponents of 0.8-0.9.
ELASTICITY = 0.85

#: Workload seconds between two probes inside a measured pass.
PROBE_EVERY_S = 0.1

#: Probe pairs run right before and right after each timed set-up.
SETUP_PROBES = 5


def _graph(n: int, degree: int, seed: int) -> Dict[int, Dict[int, float]]:
    rng = random.Random(seed)
    adj: Dict[int, Dict[int, float]] = {i: {} for i in range(n)}
    for i in range(n):
        for _ in range(degree // 2 + 1):
            j = rng.randrange(n)
            if j != i:
                weight = -math.log(rng.uniform(0.2, 0.95))
                adj[i][j] = weight
                adj[j][i] = weight
    return adj


_SMALL = _graph(60, 5, 7)
_LARGE = _graph(600, 5, 8)


def _dijkstra(graph: Dict[int, Dict[int, float]], source: int) -> float:
    dist = {source: 0.0}
    heap = [(0.0, source)]
    done = set()
    while heap:
        d, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        for v, w in graph[u].items():
            nd = d + w
            if nd < dist.get(v, math.inf):
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return sum(dist.values())


def _arrays(rng: np.random.Generator) -> float:
    total = 0.0
    for _ in range(60):
        logs = np.log(rng.random(64))
        total += float(logs.sum()) + int(np.argmin(logs))
    return total


def probe() -> float:
    """Run the reference kernel once; returns its wall time in seconds."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for source in range(0, 60, 6):
            _dijkstra(_SMALL, source)
        _dijkstra(_LARGE, 0)
        _arrays(np.random.default_rng(3))
        return time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()


def _slowdown(probe_s: float) -> float:
    """The program's slowdown implied by a mean probe time."""
    return (probe_s / NOMINAL_PROBE_S) ** ELASTICITY


class SpeedMeter:
    """Probe times taken during one stretch of a run."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        #: Calls the run had finished when each sample was taken.
        self.marks: List[int] = []

    def tick(self, mark: int = 0) -> float:
        """Probe twice, keep the second; returns the time both took.

        The first probe brings the kernel's code and data back into the
        caches the program's last item evicted, so the kept sample reads
        the machine's speed and not the program's memory footprint.
        *mark* is the number of calls the run has finished so far.
        """
        start = time.perf_counter()
        probe()
        self.samples.append(probe())
        self.marks.append(mark)
        return time.perf_counter() - start

    def burst(self, count: int) -> float:
        """Tick *count* times in a row; returns their total time."""
        return sum(self.tick() for _ in range(count))

    @property
    def slowdown(self) -> float:
        """The program's slowdown implied by the stretch's mean probe."""
        if not self.samples:
            return 1.0
        return _slowdown(statistics.fmean(self.samples))

    def per_call(self, calls: int) -> List[float]:
        """The slowdown around each of the first *calls* calls.

        Call ``c`` ran after the last sample whose mark is at most ``c``
        and before the first whose mark is above it; the mean of those
        two (or of the one there is) gives its slowdown.
        """
        if not self.samples:
            return [1.0] * calls
        out: List[float] = []
        after = 0  # the first sample taken after call ``c``
        for call in range(calls):
            while after < len(self.marks) and self.marks[after] <= call:
                after += 1
            around = self.samples[max(after - 1, 0) : after + 1]
            out.append(_slowdown(statistics.fmean(around)))
        return out
