"""Brute-force ground truth for small instances: exact extension counts,
full enumeration, the exact weight normalizer, and an explicit transition
kernel of the adjacent-transposition chain for stationarity checks.

These are the oracles everything else is tested against, so they are written
for clarity over speed and guarded by explicit size caps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import BetaParam, chain_step, weight
from .errors import GuardError
from .poset import Poset

EXACT_COUNT_MAX_N = 24
ENUMERATION_GUARD = 10 ** 6
KERNEL_SUPPORT_GUARD = 10 ** 4


def count_exact(poset: Poset, max_n: int = EXACT_COUNT_MAX_N) -> int:
    """Exact number of linear extensions by dynamic programming over order
    ideals (downsets): the count for an ideal is the sum over its maximal
    elements of the count with that element removed.

    Memory is one table entry per reachable ideal, which is why n is capped.
    """
    n = poset.n
    if n > max_n:
        raise GuardError(f"n={n} too large for exact count (cap {max_n})")
    above = poset.raw_masks
    full = ((1 << (n + 1)) - 1) & ~1
    memo: dict[int, int] = {0: 1}

    def ideal_count(dset: int) -> int:
        cached = memo.get(dset)
        if cached is not None:
            return cached
        total = 0
        rest = dset
        while rest:
            low = rest & -rest
            rest ^= low
            e = low.bit_length() - 1
            if above[e] & dset == 0:  # e is maximal in the ideal
                total += ideal_count(dset ^ low)
        memo[dset] = total
        return total

    total = ideal_count(full)
    del ideal_count  # it refers to itself; unlinking it frees the memo now, not at the next GC
    return total


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
    return sum(weight(sigma, bp) for sigma in enumerate_extensions(poset))


@dataclass
class KernelMatrix:
    """Explicit one-step transition kernel of the chain restricted to its
    support: row-stochastic, indexed by the support list."""

    support: list[tuple[int, ...]]
    probs: np.ndarray

    def index(self, sigma: tuple[int, ...]) -> int:
        return self.support.index(sigma)


def chain_kernel(poset: Poset, bp: BetaParam,
                 max_support: int = KERNEL_SUPPORT_GUARD) -> KernelMatrix:
    """Marginalize one chain step over its randomness (position and coins) to
    get exact transition probabilities between support states.

    Built by literally calling the step function on every (i, c1, c2) combo,
    so the kernel is the step's true marginal rather than a re-derivation.
    """
    support = [s for s in enumerate_extensions(poset) if weight(s, bp) > 0.0]
    if len(support) > max_support:
        raise GuardError(f"support size {len(support)} exceeds {max_support}")
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
