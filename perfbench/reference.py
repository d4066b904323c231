"""The fixed reference loop that every benchmark time is divided by.

The speed of a shared host swings by up to a factor of two within seconds.
The worker samples this loop every 0.2 s, also in the middle of scenarios,
and the median time R of the samples taken while a scenario ran is taken as
the host's speed for it.  Each time is reported in reference seconds: raw
seconds * R0 / R.  The loop and R0 are part of the benchmark's definition:
changing either makes figures before and after the change incomparable.
"""

from __future__ import annotations

import gc
import time

# the loop's typical time, in seconds, on the 2-core host where the benchmark
# was defined, so that reference seconds read close to raw seconds there
R0 = 0.014

_ROUNDS = 150
_FRONTS = 200


class _Front:
    __slots__ = ("pos", "speed", "ids")

    def __init__(self, pos: float, speed: float, ids: tuple) -> None:
        self.pos = pos
        self.speed = speed
        self.ids = ids


def reference_loop() -> float:
    """Plain-Python work shaped like a front tracker's inner loop: build a list
    of tuples, sort it with a key function, scan adjacent pairs for the
    earliest meeting, and update small objects and a dict with tuple keys.

    Its time follows the host's speed the way triwave's does.  A tight loop
    over a small dict and list slowed twice as much as triwave when the host
    got busy, so dividing by it over-corrected."""
    fronts = [_Front(((i * 7919) % _FRONTS) * 0.01, ((i * 104729) % 97) * 0.01 - 0.5, (i, i + 1))
              for i in range(_FRONTS)]
    meetings: dict[tuple[int, int], float] = {}
    acc = 0.0
    for _ in range(_ROUNDS):
        objs = [(f.pos, f.speed, k, f) for k, f in enumerate(fronts)]
        objs.sort(key=lambda o: (o[0], o[1]))
        best = None
        for a, b in zip(objs, objs[1:]):
            if a[1] > b[1]:
                tau = (b[0] - a[0]) / (a[1] - b[1])
                if best is None or tau < best[0]:
                    best = (tau, a[2], b[2])
        if best is not None:
            tau, i, j = best
            meetings[(i, j)] = meetings.get((i, j), 0.0) + tau
            acc += tau
            old = fronts[i]
            fronts[i] = _Front(old.pos + 1e-3, -0.5 * old.speed, old.ids)
        for f in fronts[::7]:
            f.pos += f.speed * 1e-4
    return acc + len(meetings)


def sample() -> float:
    """Wall time of one reference loop, in seconds, with the collector off so
    that the size of the process's heap does not change it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        reference_loop()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
