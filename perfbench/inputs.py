"""Poset texts for the benchmark workloads, each with its closed-form count.

Every instance is written as edge-list text (``n=<int>`` then ``a<b`` lines),
the format ``linext.load_poset`` reads. Only covering relations are written;
the library closes them. The seed permutes element labels and the order of
the edge lines, so a count-wide input differs from seed to seed while its
shape, and therefore its exact count and its cost class, stays fixed.
"""

from __future__ import annotations

import math
import random


def edge_text(n: int, edges: list[tuple[int, int]], rng: random.Random | None = None) -> str:
    """Edge-list text for elements 1..n; with rng, labels and lines are shuffled."""
    if rng is not None:
        labels = list(range(1, n + 1))
        rng.shuffle(labels)
        edges = [(labels[a - 1], labels[b - 1]) for a, b in edges]
        edges = rng.sample(edges, len(edges))
    return "\n".join([f"n={n}"] + [f"{a}<{b}" for a, b in edges]) + "\n"


def chains_edges(lengths: list[int]) -> tuple[int, list[tuple[int, int]]]:
    """Disjoint union of chains with the given lengths, numbered consecutively."""
    edges = []
    start = 1
    for m in lengths:
        edges += [(start + j, start + j + 1) for j in range(m - 1)]
        start += m
    return start - 1, edges


def chains_count(lengths: list[int]) -> int:
    """Multinomial: n! / prod(m_i!) extensions of a disjoint union of chains."""
    total = math.factorial(sum(lengths))
    for m in lengths:
        total //= math.factorial(m)
    return total


def grid_edges(rows: int, cols: int) -> tuple[int, list[tuple[int, int]]]:
    """Product of two chains, row-major ids; the identity is an extension."""
    edges = []
    for r in range(rows):
        for c in range(cols):
            e = r * cols + c + 1
            if c + 1 < cols:
                edges.append((e, e + 1))
            if r + 1 < rows:
                edges.append((e, e + cols))
    return rows * cols, edges


def grid_count(rows: int, cols: int) -> int:
    """Hook-length formula for the rectangular shape rows x cols."""
    hooks = 1
    for r in range(rows):
        for c in range(cols):
            hooks *= (rows - r - 1) + (cols - c - 1) + 1
    return math.factorial(rows * cols) // hooks


class Instance:
    """A named poset shape with its element count, covering edges and count."""

    def __init__(self, name: str, n: int, edges: list[tuple[int, int]], count: int):
        self.name = name
        self.n = n
        self.edges = edges
        self.count = count

    def text(self, rng: random.Random | None = None) -> str:
        return edge_text(self.n, self.edges, rng)


def chains(lengths: list[int], name: str) -> Instance:
    n, edges = chains_edges(lengths)
    return Instance(name, n, edges, chains_count(lengths))


def grid(rows: int, cols: int) -> Instance:
    n, edges = grid_edges(rows, cols)
    return Instance(f"grid-{rows}x{cols}", n, edges, grid_count(rows, cols))


def antichain(n: int) -> Instance:
    return Instance(f"antichain-{n}", n, [], math.factorial(n))


# count-wide: seven shapes with 18 <= n <= 24 and many order ideals, from
# about 2^18 ideals (antichain) down to a few hundred (grids). One of each per
# cycle, so the median time falls inside the middle shape's cluster instead
# of on the edge between two clusters.
COUNT_WIDE = [
    antichain(18),
    chains([2] * 11, "chains-11x2"),
    chains([3] * 8, "chains-8x3"),
    chains([4] * 6, "chains-6x4"),
    chains([5, 5, 4, 4, 3, 3], "chains-554433"),
    grid(4, 6),
    grid(3, 6),
]
