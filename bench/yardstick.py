"""The reference computation that pass times are divided by.

A ``Sampler`` thread runs a small reference load every few milliseconds for
the whole run, on the processor the pass runs on (the benchmark pins itself
to one), and records the thread CPU time of each call.  On a shared virtual
machine the processor's speed can move by 2x within seconds as other
tenants come and go; a reference taken during an operation, on the same
processor, moves with it, where one taken before and after a long operation
does not.

Neither load uses qftkit.  ``churn`` schedules small frozen objects into
layers through a frontier dict, as gate emission and ASAP scheduling do;
``arrays`` runs butterfly and phase updates over a 2^18-amplitude array, as
the dense kernels do; ``mixed`` runs both.
"""

from __future__ import annotations

import bisect
import statistics
import threading
import time
from dataclasses import dataclass

import numpy as np

CHURN_ITEMS = 4000
ARRAY_WIRES = 18
PERIOD_S = 0.02
MIN_CALLS = 5


@dataclass(frozen=True, slots=True)
class _Item:
    a: int
    b: int


class Churn:
    def __init__(self):
        self.items = [_Item(i % 997, (i * 7919) % 1009) for i in range(CHURN_ITEMS)]

    def __call__(self) -> int:
        frontier: dict[tuple[str, int], int] = {}
        layers: list[list[_Item]] = []
        for it in self.items:
            keys = (("q", it.a), ("q", it.b))
            layer = max(frontier.get(k, 0) for k in keys)
            while len(layers) <= layer:
                layers.append([])
            layers[layer].append(_Item(it.b, it.a))
            for k in keys:
                frontier[k] = layer + 1
        return len(layers)


class Arrays:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.state = (rng.normal(size=1 << ARRAY_WIRES) + 0j) / (1 << (ARRAY_WIRES // 2))
        self.phase = np.exp(0.25j * np.pi)

    def __call__(self) -> float:
        psi = self.state.reshape([2] * ARRAY_WIRES)
        for ax in (0, ARRAY_WIRES // 2, ARRAY_WIRES - 1):
            lo = [slice(None)] * ARRAY_WIRES
            hi = list(lo)
            lo[ax], hi[ax] = 0, 1
            a = psi[tuple(lo)].copy()
            b = psi[tuple(hi)].copy()
            psi[tuple(lo)] = (a + b) * np.sqrt(0.5)
            psi[tuple(hi)] = (a - b) * np.sqrt(0.5) * self.phase
        return float(self.state[0].real)


class Mixed:
    """Both loads in one call, for passes that split their time between the two."""

    def __init__(self):
        self.churn, self.arrays = Churn(), Arrays()

    def __call__(self) -> None:
        self.churn()
        self.arrays()


LOADS = {"churn": Churn, "arrays": Arrays, "mixed": Mixed}


class Sampler(threading.Thread):
    """Times the load every ``PERIOD_S`` seconds until stopped."""

    def __init__(self, kind: str):
        super().__init__(name="bench-yardstick", daemon=True)
        self.load = LOADS[kind]()
        self.stamps: list[float] = []  # wall clock at the end of each call
        self.cpu: list[float] = []  # thread CPU seconds of each call
        self._stop_event = threading.Event()

    def run(self) -> None:
        while not self._stop_event.wait(PERIOD_S):
            c0 = time.thread_time()
            self.load()
            self.cpu.append(time.thread_time() - c0)
            self.stamps.append(time.perf_counter())

    def stop(self) -> None:
        self._stop_event.set()
        self.join()

    def reference(self, start: float, end: float) -> float:
        """Median CPU time of the calls made in [start, end], widened to ``MIN_CALLS`` calls."""
        while len(self.stamps) < MIN_CALLS:
            time.sleep(PERIOD_S)
        lo = bisect.bisect_left(self.stamps, start)
        hi = bisect.bisect_right(self.stamps, end)
        while hi - lo < MIN_CALLS:
            lo, hi = max(0, lo - 1), min(len(self.stamps), hi + 1)
        return statistics.median(self.cpu[lo:hi])
