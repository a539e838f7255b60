"""Displacement-weighted distribution over linear extensions and one Metropolis
step of the adjacent-transposition chain.

States are permutations of 1..n on a canonical poset (identity is a linear
extension, and it is the home state). The element at position p has
displacement value - p. A parameter beta in [0, n] induces a weight on each
extension: every coordinate at displacement ceil(beta) contributes the penalty
factor 1 + beta - ceil(beta), any coordinate beyond that kills the weight, and
everything left of that is free. At beta = n the weights are all 1 and the
chain is the plain uniform adjacent-transposition shuffle.

A proposed swap of positions (i, i+1) is accepted when coin c1 is up, the pair
is not already forced by the order, and the left-moving element's new
displacement clears the gate: below the cap it is free, at the cap it also
needs coin c2, above the cap it is always rejected. Gating the left mover is
the unique convention that is in detailed balance with the weights above; the
explicit-kernel stationarity check in the exact oracle pins it down.
"""

from __future__ import annotations

import math
from typing import Sequence

from .bitrng import StepDraw
from .errors import LinextError
from .poset import Poset


class BetaParam:
    """A chain parameter beta in [0, n] with its derived cap and penalty.

    cap = ceil(beta); pen = 1 + beta - cap, which lies in (0, 1].
    """

    __slots__ = ("beta", "cap", "pen")

    def __init__(self, beta: float, n: int):
        beta = float(beta)
        if not math.isfinite(beta) or beta < 0.0:
            raise LinextError(f"beta must be finite and nonnegative, got {beta}")
        if beta > n:
            raise LinextError(f"beta must be at most n={n}, got {beta}")
        self.beta = beta
        self.cap = math.ceil(beta)
        self.pen = 1.0 + beta - self.cap

    def __repr__(self) -> str:
        return f"BetaParam(beta={self.beta}, cap={self.cap}, pen={self.pen})"


def weight(sigma: Sequence[int], bp: BetaParam) -> float:
    """Product over positions of the displacement factor: 1 below the cap,
    pen at the cap, 0 beyond it. sigma need not be in the support."""
    at_cap = 0
    cap = bp.cap
    for p, v in enumerate(sigma, start=1):
        d = v - p
        if d > cap:
            return 0.0
        if d == cap:
            at_cap += 1
    return bp.pen ** at_cap


def _sigma_step_inplace(sig: list, i: int, c1: int, c2: int, cap: int,
                        above: Sequence[int]) -> int:
    """Apply one chain step to sig in place; returns the number of poset
    comparisons performed (0 or 1). Hot path shared by the public step, the
    coupled bounding step, and transcript replay."""
    if not c1:
        return 0
    a = sig[i - 1]
    b = sig[i]
    if (above[a] >> b) & 1:
        return 1
    e = b - i  # left mover's displacement after the swap
    if e > cap or (e == cap and not c2):
        return 1
    sig[i - 1] = b
    sig[i] = a
    return 1


def chain_step(sigma: Sequence[int], bp: BetaParam, draw: StepDraw,
               poset: Poset) -> tuple[int, ...]:
    """One Metropolis step from sigma driven by the given draw.

    Requires sigma to be in the support (positive weight). Performs at most
    one counted poset comparison.
    """
    n = poset.n
    if not 1 <= draw.i <= n - 1:
        raise LinextError(f"step position {draw.i} out of range 1..{n - 1}")
    if weight(sigma, bp) <= 0.0:
        raise LinextError("chain_step needs a state with positive weight")
    sig = list(sigma)
    comps = _sigma_step_inplace(sig, draw.i, draw.c1, draw.c2, bp.cap, poset.raw_masks)
    if comps:
        poset.add_queries(comps)
    return tuple(sig)
