"""Host-speed reference loop.

On a shared 2-vCPU host the speed of identical Python work drifts by 20% and
more over minutes, which swamps any regression bound. The benchmark times
this fixed loop about twice a second, between operations and inside long
ones, and multiplies throughput by its median time, so the bounded figure is
"work per reference-loop time" and most of the drift cancels; raw
per-second figures are still reported among the per-layer metrics.

The loop is the geometric mean of an integer loop and an object-allocation
loop (small instances, tuples, sets, dicts). On that host each part alone
tracked linext's own slowdowns only to within about 8%, their geometric mean
to within a few percent over 10 s windows; sampled twice a second, it halved
the spread of repeated identical estimates (6.2% to 2.9%). Nothing in it
calls linext, so a change to linext moves the normalised figures exactly as
much as the raw ones.
"""

from __future__ import annotations

import math
import random
import statistics
import time


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        self.a = a
        self.b = b

    def mix(self, x: int) -> int:
        return (self.a + x) & self.b


def _ints() -> int:
    s = 0
    for i in range(200_000):
        s += i * i & 7
    return s


def _objects() -> int:
    rng = random.Random(3)
    table = {}
    acc = 0
    for i in range(40_000):
        p = _Pair(i, 7)
        t = (i, p.mix(i), i + 1)
        table[t[1]] = t
        acc += len({i, i + 1}) + p.mix(rng.getrandbits(8))
    return acc + len(table)


def loop_s() -> float:
    """Seconds for one reference loop (about 35 ms on a 2-vCPU VM)."""
    t0 = time.perf_counter()
    _ints()
    t1 = time.perf_counter()
    _objects()
    t2 = time.perf_counter()
    return math.sqrt((t1 - t0) * (t2 - t1))


class Reference:
    """Reference-loop samples taken at least every `every` seconds.

    ``maybe()`` is called between operations, and inside long operations at
    draw boundaries; it returns the seconds it spent, which the caller leaves
    out of the operation's time.
    """

    def __init__(self, every: float):
        self.every = every
        self.samples = [loop_s()]
        self.last = time.perf_counter()

    def maybe(self) -> float:
        now = time.perf_counter()
        if now - self.last < self.every:
            return 0.0
        self.samples.append(loop_s())
        self.last = time.perf_counter()
        return self.last - now

    def median(self) -> float:
        return statistics.median(self.samples)
