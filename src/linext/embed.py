"""Continuous embedding of linear extensions into (0, n]^n.

A point x whose coordinatewise ceilings form a permutation induces that
permutation; the unit cube of points over each extension has measure 1, so the
measure of all such points equals the extension count. Restricting coordinate
overshoot x(i) - i to at most beta shrinks the space continuously: the measure
of the restricted set equals the weighted-chain normalizer Z(beta), n at the
top gives the full count and 0 leaves measure exactly 1 around the home
permutation. This is the nested family the estimator contracts through.

Lifting composes a weighted extension draw with per-coordinate uniforms: a
coordinate below the cap fills its whole unit cell (value - 1, value], one at
the cap only the first pen of it, which exactly cancels the penalty factor in
the discrete weight and makes the lifted point uniform over the restricted set.

The distance of a point is max_i (x(i) - i), real-valued (no rounding), so the
smallest family member containing x has parameter exactly distance(x).
"""

from __future__ import annotations

from operator import sub
from typing import Sequence

from .bitrng import BitStream
from .chain import BetaParam
from .errors import LinextError


def lift(sigma: Sequence[int], bp: BetaParam, stream: BitStream) -> tuple[float, ...]:
    """Lift an extension with positive weight to a point of the restricted
    continuous set: coordinate i is uniform on (sigma(i)-1, sigma(i)] below the
    cap, and on the first pen of that cell at the cap. The n uniforms are read
    in one batch; a state with a coordinate past the cap, of weight zero, is
    refused once they are read."""
    cap = bp.cap
    pen = bp.pen
    out = []
    for p, v, u in zip(range(1, len(sigma) + 1), sigma, stream.uniform_reals(len(sigma))):
        d = v - p
        if d > cap:
            raise LinextError("cannot lift a state with zero weight")
        out.append(v - 1.0 + (u * pen if d == cap else u))
    return tuple(out)


def distance(x: Sequence[float]) -> float:
    """Largest coordinate overshoot max_i (x(i) - i); in (-1, n-1]."""
    return max(map(sub, x, range(1, len(x) + 1)))
