"""A fixed piece of Python work that measures the host's current speed.

The benchmark host shares its cores with other tenants. Its speed on the
package's kind of code swings by up to 2x over seconds to minutes: the
same ``verify`` took from 4.1 s to 7.5 s within four minutes. The
benchmark therefore times this kernel between commands, and every
PERIOD seconds from a background thread while a command runs. It scales
each command's latency by ``NOMINAL_S`` over the harmonic mean of the
kernel times around it. Over 30-second windows this cut the spread of a
pass's time from 29% to 1.5% of its median on ``analysis``, and from
15-30% to 2% on ``gate``.

The kernel imitates the package's mix: a scalar map loop over NamedTuple
states, numpy array packing, float formatting and JSON. It never calls
the package, so a change to the package cannot move it.
"""

from __future__ import annotations

import bisect
import json
import math
import os
import threading
from time import perf_counter
from typing import NamedTuple

import numpy as np

# Median time of one kernel() call on the machine the bounds were set on.
NOMINAL_S = 0.0017
# Seconds between the background thread's readings; each pauses the
# measured command for one kernel() call, about 2% of its time.
PERIOD = 0.1

_DOC = {
    "model": "general",
    "equilibria": [
        {
            "kind": kind,
            "point": [0.1 * i, 0.2 * i],
            "reports": [{"h": 0.1 * j, "eigenvalues": [[0.5, 0.0], [0.25, 0.1]], "agree": True} for j in range(6)],
        }
        for i, kind in enumerate(("trivial", "disease_free", "susceptible_free", "interior"))
    ],
}


class _State(NamedTuple):
    X: float
    Y: float


def _step(p: tuple, h: float, s: _State) -> _State:
    x, y = s
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError(s)
    phi = -math.expm1(-p[6] * h) / p[6]
    num_x = x * (1.0 + phi * p[0]) + phi * p[5] * y
    den_x = 1.0 + phi * (p[0] / p[4] * x + p[0] / p[4] * y + p[2] + p[6] * y)
    num_y = y * (1.0 + h * (p[1] + p[6] * x))
    den_y = 1.0 + h * (p[1] / p[4] * x + p[1] / p[4] * y + p[3])
    return _State(num_x / den_x, num_y / den_y)


def kernel() -> int:
    p = (0.6, 0.4, 0.1, 0.2, 1.0, 0.02, 0.3)
    s = _State(0.3, 0.2)
    states, steps = [s], [0]
    for n in range(1, 150):
        s = _step(p, 0.5, s)
        states.append(s)
        steps.append(n)
    arr = np.asarray(states, dtype=np.float64)
    idx = np.asarray(steps, dtype=np.int64)
    rows = [f"{int(n)},{float(t)!r},{float(x)!r},{float(y)!r}" for n, t, (x, y) in zip(idx, idx * 0.5, arr)]
    return len("\n".join(rows) + json.dumps(_DOC, indent=2))


def measure() -> float:
    """Seconds one kernel() call takes now."""
    start = perf_counter()
    kernel()
    return perf_counter() - start


class HostSpeed:
    """Kernel readings on the process's CPU, between commands and in the background.

    Entering pins the process, and so both threads, to one CPU, so that
    the background readings see the CPU the commands run on.
    """

    def __init__(self) -> None:
        self.readings: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="host-speed", daemon=True)
        self._affinity: set[int] | None = None

    def __enter__(self) -> "HostSpeed":
        self._affinity = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(self._affinity)})
        kernel()  # the first call in a process is slower
        self._thread.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self._stop.set()
        self._thread.join()
        os.sched_setaffinity(0, self._affinity)

    def _loop(self) -> None:
        while not self._stop.wait(PERIOD):
            self.sample()

    def sample(self) -> None:
        start = perf_counter()
        kernel()
        self.readings.append((start, perf_counter() - start))

    def normalize(self, spans: list[tuple[float, float]]) -> list[float]:
        """Each (start, end) duration at the speed where kernel() takes NOMINAL_S.

        The host's mean speed over an interval is the mean of 1/reading, so
        readings are combined by their harmonic mean.
        """
        readings = sorted(self.readings)
        times = [t for t, _ in readings]
        out = []
        for start, end in spans:
            lo = bisect.bisect_left(times, start - PERIOD)
            hi = bisect.bisect_right(times, end + PERIOD)
            near = [seconds for _, seconds in readings[lo:hi]]
            if not near:
                near = [readings[min(lo, len(readings) - 1)][1]]
            out.append((end - start) * NOMINAL_S * sum(1.0 / seconds for seconds in near) / len(near))
        return out
