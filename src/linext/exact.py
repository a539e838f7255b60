"""Exact ground truth: extension counts, full enumeration, the exact weight
normalizer, and an explicit transition kernel of the adjacent-transposition
chain for stationarity checks.

The count and the normalizer are one layered DP over order ideals, whose cost
follows the width of the order, not n: it is guarded by the ideals per layer.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .chain import BetaParam, chain_step, weight
from .errors import GuardError
from .poset import Poset

STATE_LIMIT = 10 ** 6  # most order ideals in one layer of the exact DP
ENUMERATION_GUARD = 10 ** 6
KERNEL_SUPPORT_GUARD = 10 ** 4


def _layered_sum(poset: Poset, cap: int, pen):
    """Sum of the displacement weights at (cap, pen) over all extensions.

    Layer p maps each ideal I with |I| = p to the weight of the prefixes that
    place it. Element v may go at position p + 1 when its predecessors are in
    I, with factor 1 when v < p + 1 + cap, pen when equal, none beyond. The
    weights take pen's type, so an int pen gives exact ints. GuardError fires
    once the layer being built holds more than STATE_LIMIT ideals, and, with
    no band (cap >= n), before any layer when w minimal or w maximal elements
    put C(w, w // 2) ideals into one layer: those subsets of the minimal
    elements, or the other elements plus those subsets of the maximal ones."""
    n = poset.n
    if cap >= n:
        w = max(sum(not poset.below_mask(v) for v in range(1, n + 1)),
                sum(not mask for mask in poset.raw_masks[1:]))
        if math.comb(w, w // 2) > STATE_LIMIT:
            raise GuardError(f"n={n} too large: {w} minimal or maximal elements put "
                             f"C({w}, {w // 2}) ideals in one layer, over the limit "
                             f"{STATE_LIMIT}")
    # ints hash modulo 2^61 - 1: past n = 60 a random tag above bit n parts the keys
    tag = random.Random(n).getrandbits if n > 60 else lambda bits: 0
    moves = [(1 << v, (1 << v) | poset.below_mask(v), (1 << v) + (tag(61) << n + 1))
             for v in range(1, n + 1)]
    layer = {0: 1}
    for p in range(n):
        free, at_cap = moves[:p + cap], moves[p + cap:p + cap + 1]
        nxt = {}
        get = nxt.get
        for ideal, w in layer.items():
            missing = ~ideal
            for low, need, step in free:
                if need & missing == low:  # v is unplaced and its predecessors are placed
                    key = ideal + step
                    nxt[key] = get(key, 0) + w
            for low, need, step in at_cap:
                if need & missing == low:
                    nxt[ideal + step] = get(ideal + step, 0) + w * pen
            if len(nxt) > STATE_LIMIT:
                raise GuardError(f"n={n} too large: {len(nxt)} ideals in layer {p + 1}, "
                                 f"over the limit {STATE_LIMIT}")
        layer = nxt
    return sum(layer.values())


def count_exact(poset: Poset) -> int:
    """Exact number of linear extensions: the layered ideal DP with no band."""
    return _layered_sum(poset, poset.n, 1)


def enumerate_extensions(poset: Poset, guard: int = ENUMERATION_GUARD) -> list[tuple[int, ...]]:
    """All linear extensions in lexicographic order. Raises GuardError as soon
    as more than guard of them are found, so the check costs O(guard * n).
    The search keeps its own stack, so any n works."""
    n = poset.n
    below = [poset.below_mask(e) for e in range(n + 1)]
    out: list[tuple[int, ...]] = []
    prefix: list[int] = []
    remaining = ((1 << (n + 1)) - 1) & ~1
    untried = [remaining]  # per depth: the elements not yet tried next
    while untried:
        if not remaining:
            if len(out) == guard:
                raise GuardError(f"L(P) exceeds enumeration guard {guard}")
            out.append(tuple(prefix))
        rest = untried[-1]
        while rest:
            low = rest & -rest
            rest ^= low
            e = low.bit_length() - 1
            if below[e] & remaining == 0:  # e is minimal among the rest
                untried[-1] = rest
                prefix.append(e)
                remaining ^= low
                untried.append(remaining)
                break
        else:
            untried.pop()
            if prefix:
                remaining |= 1 << prefix.pop()
    return out


def partition_z(poset: Poset, bp: BetaParam) -> float:
    """Exact normalizer: the sum of weights over all linear extensions."""
    return float(_layered_sum(poset, bp.cap, bp.pen if bp.pen < 1.0 else 1))


@dataclass
class KernelMatrix:
    """Explicit one-step transition kernel of the chain restricted to its
    support: row-stochastic, indexed by the support list."""

    support: list[tuple[int, ...]]
    probs: np.ndarray


def chain_kernel(poset: Poset, bp: BetaParam) -> KernelMatrix:
    """Marginalize one chain step over its randomness (position and coins) to
    get exact transition probabilities between support states.

    Built by literally calling the step function on every (i, c1, c2) combo,
    so the kernel is the step's true marginal rather than a re-derivation.
    A support of more than KERNEL_SUPPORT_GUARD states, counted by the ideal
    DP at bp.cap, is refused before any extension is enumerated.
    """
    size = _layered_sum(poset, bp.cap, 1)
    if size > KERNEL_SUPPORT_GUARD:
        raise GuardError(f"support size {size} exceeds {KERNEL_SUPPORT_GUARD}")
    support = [s for s in enumerate_extensions(poset) if weight(s, bp) > 0.0]
    idx = {s: j for j, s in enumerate(support)}
    m = len(support)
    probs = np.zeros((m, m))
    n = poset.n
    if n == 1:
        probs[0, 0] = 1.0
        return KernelMatrix(support, probs)
    coin2 = [(1, bp.pen)] if bp.pen == 1.0 else [(0, 1.0 - bp.pen), (1, bp.pen)]
    from .bitrng import StepDraw

    for s in support:
        row = idx[s]
        for i in range(1, n):
            for c1, p1 in ((0, 0.5), (1, 0.5)):
                for c2, p2 in coin2:
                    nxt = chain_step(s, bp, StepDraw(i, c1, c2), poset)
                    probs[row, idx[nxt]] += p1 * p2 / (n - 1)
    return KernelMatrix(support, probs)


def stationarity_gap(kernel: KernelMatrix, poset: Poset, bp: BetaParam) -> float:
    """Max-norm of pi P - pi where pi is the normalized weight vector over the
    kernel's support. The chain design is correct iff this is ~0 (<= 1e-10)."""
    w = np.array([weight(s, bp) for s in kernel.support])
    pi = w / w.sum()
    return float(np.max(np.abs(pi @ kernel.probs - pi)))
