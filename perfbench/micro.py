"""Microbenchmarks of single calls into the bitrng, chain, cftp and embed layers.

Each figure is the median over REPEATS timed loops of a fixed number of calls
on a fresh stream, in nanoseconds or microseconds per call, loop overhead
included. Inputs (step draws, states) are prepared before the timed loop.
"""

from __future__ import annotations

import statistics
import time

REPEATS = 5


def _per_call(fn, calls: int) -> float:
    """Median seconds per call of fn(calls), which must make `calls` calls."""
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn(calls)
        times.append((time.perf_counter() - t0) / calls)
    return statistics.median(times)


def bitrng_ns(lx, seed: int, m: int) -> dict[str, float]:
    def next_bit(k):
        f = lx.BitStream(seed, "micro/next_bit").next_bit
        for _ in range(k):
            f()

    def uniform_int(k):
        f = lx.BitStream(seed, "micro/uniform_int").uniform_int
        for _ in range(k):
            f(m)

    def bernoulli(k):
        f = lx.BitStream(seed, "micro/bernoulli").bernoulli
        for _ in range(k):
            f(0.3)

    def uniform_real(k):
        f = lx.BitStream(seed, "micro/uniform_real").uniform_real
        for _ in range(k):
            f()

    return {
        "bitrng.next_bit_ns": _per_call(next_bit, 100_000) * 1e9,
        "bitrng.uniform_int_ns": _per_call(uniform_int, 20_000) * 1e9,
        "bitrng.bernoulli_ns": _per_call(bernoulli, 50_000) * 1e9,
        "bitrng.uniform_real_ns": _per_call(uniform_real, 50_000) * 1e9,
    }


def _step_draws(lx, seed: int, n: int, pen: float, k: int, label: str) -> list:
    stream = lx.BitStream(seed, label)
    return [stream.draw_step(n, pen) for _ in range(k)]


def steps(lx, seed: int, poset, bp) -> dict[str, float]:
    """chain_step and bounding_chain_step from the home state, beta as given."""
    n = poset.n
    chain_draws = _step_draws(lx, seed, n, bp.pen, 5_000, "micro/chain")
    bound_draws = _step_draws(lx, seed, n, bp.pen, 1_000, "micro/bound")
    home = tuple(range(1, n + 1))

    def chain(k):
        sigma = home
        for d in chain_draws[:k]:
            sigma = lx.chain_step(sigma, bp, d, poset)

    def bounding(k):
        sigma, b = home, lx.initial_bound(n)
        for d in bound_draws[:k]:
            sigma, b = lx.bounding_chain_step(sigma, b, bp, d, poset)

    return {
        "chain.step_ns": _per_call(chain, len(chain_draws)) * 1e9,
        "cftp.bounding_step_us": _per_call(bounding, len(bound_draws)) * 1e6,
    }


def lift_us(lx, seed: int, n: int) -> float:
    bp = lx.BetaParam(n, n)
    home = tuple(range(1, n + 1))

    def lift(k):
        stream = lx.BitStream(seed, "micro/lift")
        for _ in range(k):
            lx.lift(home, bp, stream)

    return _per_call(lift, 2_000) * 1e6
