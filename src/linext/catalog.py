"""Ready-made poset instances for tests, diagnostics, and benchmarks.

All builders return canonical posets (identity is a linear extension).
"""

from __future__ import annotations

import random

from .poset import Poset, canonicalize, close_transitively


def chain_poset(n: int) -> Poset:
    """Total order 1 < 2 < ... < n (exactly one extension)."""
    return close_transitively([(i, i + 1) for i in range(1, n)], n)


def antichain_poset(n: int) -> Poset:
    """No relations at all (all n! permutations are extensions)."""
    return close_transitively([], n)


def two_pairs_poset() -> Poset:
    """The 4-element order {1<3, 2<4}; it has 6 extensions."""
    return close_transitively([(1, 3), (2, 4)], 4)


def vee_poset() -> Poset:
    """One bottom below two tops: {1<2, 1<3}."""
    return close_transitively([(1, 2), (1, 3)], 3)


def wedge_poset() -> Poset:
    """Two bottoms below one top: {1<3, 2<3}."""
    return close_transitively([(1, 3), (2, 3)], 3)


def zigzag_poset() -> Poset:
    """The 4-element fence {1<3, 2<3, 2<4}."""
    return close_transitively([(1, 3), (2, 3), (2, 4)], 4)


def grid_poset(rows: int, cols: int) -> Poset:
    """Product of two chains, rows x cols, canonically relabeled.

    Its extension count is the number of standard Young tableaux of the
    rectangular shape.
    """
    def eid(r: int, c: int) -> int:
        return r * cols + c + 1

    pairs = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                pairs.append((eid(r, c), eid(r, c + 1)))
            if r + 1 < rows:
                pairs.append((eid(r, c), eid(r + 1, c)))
    canon, _ = canonicalize(close_transitively(pairs, rows * cols))
    return canon


def random_poset(rng: random.Random, n: int, density: float = 0.3) -> Poset:
    """Random canonical poset: orient each pair along a random permutation
    with the given probability, then close. Always acyclic by construction."""
    order = list(range(1, n + 1))
    rng.shuffle(order)
    pairs = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                pairs.append((order[i], order[j]))
    canon, _ = canonicalize(close_transitively(pairs, n))
    return canon


def small_test_posets() -> list[Poset]:
    """The fixed battery of small instances used by chain diagnostics."""
    return [chain_poset(2), antichain_poset(2), chain_poset(3), antichain_poset(3),
            chain_poset(4), antichain_poset(4), chain_poset(5),
            vee_poset(), wedge_poset(), two_pairs_poset(), zigzag_poset()]
