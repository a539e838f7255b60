"""A priori budget formulas for random bits and poset comparisons.

These are the analytic upper bounds the samplers are benchmarked against:
per-sample bounds on the expected work of one perfect draw at beta = n, and
two variants of the total budget of a full two-phase estimate (the second is
the as-printed restatement that multiplies where the schedule divides; both
are surfaced for side-by-side comparison). ``antichain_draw_work`` measures
the per-sample work those bounds are checked against.
"""

from __future__ import annotations

import math

from .bitrng import BitStream
from .catalog import antichain_poset
from .cftp import perfect_sample
from .chain import BetaParam


def sample_steps_bound(n: int) -> float:
    """Bound on the expected chain steps of one perfect draw: 4.3 n^3 ln n."""
    if n < 2:
        return 0.0
    return 4.3 * n ** 3 * math.log(n)


def sample_bits_bound(n: int) -> float:
    """Bound on expected random bits per perfect draw:
    4.3 n^3 (ln n) (ceil(log2 n) + 3)."""
    if n < 2:
        return 0.0
    return 4.3 * n ** 3 * math.log(n) * (math.ceil(math.log2(n)) + 3)


def sample_comparisons_bound(n: int) -> float:
    """Bound on expected poset comparisons per perfect draw: 8.6 n^3 ln n."""
    if n < 2:
        return 0.0
    return 8.6 * n ** 3 * math.log(n)


def antichain_draw_work(n: int, samples: int,
                        stream: BitStream) -> tuple[float, float, float]:
    """Mean steps, discrete bits and comparisons of perfect draws on the
    relation-free order at beta = n, the case the per-sample bounds cover.
    Draw k uses the fork "draw/k" of stream."""
    poset = antichain_poset(n)
    bp = BetaParam(float(n), n)
    steps = bits = comps = 0
    for k in range(samples):
        _, stats = perfect_sample(bp, stream.fork(f"draw/{k}"), poset)
        steps += stats.total_steps
        bits += stats.bits_discrete
        comps += stats.comparisons
    return steps / samples, bits / samples, comps / samples


def _phase_samples(a: float, epsilon: float, delta: float) -> tuple[float, float]:
    ep = math.log1p(epsilon)
    pilot = 2.0 * (a + 1.0) * math.log(2.0 / delta)
    main = (a + 1.0) * (a + 3.0 * math.sqrt(2.0 * a) + 2.0) * math.log(4.0 / delta)
    return pilot, main / (ep * ep - ep ** 3)


def total_bits_bound(n: int, a: float, epsilon: float, delta: float) -> float:
    """Schedule-consistent bound on total expected bits of a two-phase
    estimate with true log-count a: per-sample bits times expected samples
    (pilot plus sized main phase, the latter divided by e'^2 - e'^3)."""
    pilot, main = _phase_samples(a, epsilon, delta)
    return sample_bits_bound(n) * (pilot + 2.0 * main)


def total_bits_bound_as_printed(n: int, a: float, epsilon: float, delta: float) -> float:
    """The restated total-budget expression taken literally: no factor 2 on
    the main phase and (e'^2 - e'^3) as a multiplier rather than a divisor."""
    ep = math.log1p(epsilon)
    pilot = 2.0 * (a + 1.0) * math.log(2.0 / delta)
    main = (a + 1.0) * (a + 3.0 * math.sqrt(2.0 * a) + 2.0) \
        * (ep * ep - ep ** 3) * math.log(4.0 / delta)
    return sample_bits_bound(n) * (pilot + main)
