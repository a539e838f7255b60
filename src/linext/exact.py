"""Exact ground truth: extension counts, every extension within a displacement
band, the exact weight normalizer, and the chain's sparse kernel on a band,
built from its own step, which the stationarity check scores.

The count and the normalizer are one layered DP over order ideals, whose cost
follows the width of the order, not n: it is guarded by the ideals per layer.
A layer is the ideals of one size, each with a weight. Building the next
layer meets every (source ideal, addable element) pair in row-major order,
gives each pair the ideal it makes, new ideals taking ids in order of first
occurrence and the weight 0, and adds the pair's term to that ideal's weight
there and then, so every weight is summed in the same order as a loop over
ideals and elements would sum it. The whole DP is one call of the
``native`` kernel, which holds an ideal as a row of W = n // 64 + 1 uint64
words (bit v set when element v is placed) in an open-addressing table
keyed by the full rows that holds only the pair that made each ideal first;
a pair's hash is its source's plus one term. Without the kernel it is
``_layer_loop``, its reference, a dict per layer keyed by the rows.

A DP has one number type, told by pen. With the int 1 every weight is an
exact int; with a float pen every weight is a float from the start, 1.0.
The guard stops a layer after the source ideal that takes its ideals past
STATE_LIMIT and reports their count.
"""

from __future__ import annotations

import math
import sys
from array import array
from dataclasses import dataclass

from . import native
from .chain import BetaParam, _sigma_step_inplace, weight
from .errors import GuardError, LinextError
from .poset import Poset

STATE_LIMIT = 10 ** 6  # most order ideals in one layer of the exact DP
ENUMERATION_GUARD = 10 ** 6
KERNEL_SUPPORT_GUARD = 10 ** 4
_kernel = native.KERNEL  # the C DP, or None to run _layer_loop


def _layered_sum(poset: Poset, cap: int, pen):
    """Sum of the displacement weights at (cap, pen) over all extensions.

    Layer p holds each ideal I with |I| = p and the weight of the prefixes that
    place it. Element v may go at position p + 1 when its predecessors are in
    I, with factor 1 when v < p + 1 + cap, pen when equal, none beyond, so the
    candidates are the unplaced elements in 1..p + cap + 1. pen is the int 1,
    which scales nothing and gives an exact int, or a float >= 0, which gives
    a float, summed as Python sums floats from 1.0. GuardError fires once the
    layer being built holds more than STATE_LIMIT ideals, and, with no band
    (cap >= n), before any layer when w minimal or w maximal elements put
    C(w, w // 2) ideals into one layer: those subsets of the minimal elements,
    or the other elements plus those subsets of the maximal ones."""
    if not (pen == 1 if isinstance(pen, int) else pen >= 0):
        raise LinextError(f"pen must be the int 1 or a float >= 0, not {pen!r}")
    n = poset.n
    if cap >= n:
        w = max(sum(not poset.below_mask(v) for v in range(1, n + 1)),
                sum(not mask for mask in poset.raw_masks[1:]))
        if math.comb(w, w // 2) > STATE_LIMIT:
            raise GuardError(f"n={n} too large: {w} minimal or maximal elements put "
                             f"C({w}, {w // 2}) ideals in one layer, over the limit "
                             f"{STATE_LIMIT}")
    run = _layer_loop if _kernel is None else _kernel.dp_sum
    layer, value = run(poset, cap, pen, STATE_LIMIT)
    if layer:
        raise GuardError(f"n={n} too large: {value} ideals in layer {layer}, "
                         f"over the limit {STATE_LIMIT}")
    return value


def _layer_loop(poset: Poset, cap: int, pen, limit: int) -> tuple:
    """The DP of _layered_sum, as (0, the sum), or (p, the ideals held) when
    layer p passes limit; one dict per layer, from each ideal to its weight,
    in order of first occurrence. Layer p + 1 meets each source ideal of
    layer p in order and each element v in 1..min(n, p + cap + 1) in
    increasing order that is unplaced with every predecessor placed, and adds
    the source's weight, times pen when pen is a float and v is p + cap + 1,
    to the ideal they make, a new one starting at 0. It stops after the
    source ideal that takes it past limit. Those elements, an ideal's
    addable set, are worked out when the ideal is met as a source: they are
    those of the source of its first pair (t, v), less v, plus the upper
    covers of v whose predecessors are now all placed. So a source meets
    only its addable elements, and a new ideal holds only its first pair
    until then. The ideals are keyed by their rows' bytes less trailing
    zeros: unlike an int's, their hash does not fold bit v + 61 onto bit v,
    and an ideal of low elements takes few bytes (a guard trip at n = 2000
    peaks at about 240 MB)."""
    n = poset.n
    size = 8 * (n // 64 + 1)
    above, below = poset.raw_masks, [poset.below_mask(v) for v in range(n + 1)]
    # per v, (bit, predecessors) of each upper cover: taking the lowest successor
    # left and dropping its successors finds them all, and no other when the
    # labels are a linear extension
    ups = []
    for v in range(n + 1):
        rest, up = above[v], []
        while rest:
            low = rest & -rest
            f = low.bit_length() - 1
            up.append((low, below[f]))
            rest &= ~(above[f] | low)
        ups.append(up)
    scaled = not isinstance(pen, int)  # the int 1 scales nothing: no element is at
    zero = 0.0 if scaled else 0
    layer: dict[bytes, int | float] = {b"": zero + 1}
    # the empty ideal's first pair is (0, 0), from a source that could add 0 and
    # the minimal elements; element 0 has no covers
    adds = [1 | sum(1 << v for v in range(1, n + 1) if not below[v])]
    firsts = array("q", [0])  # t * (n + 1) + v of the pair (t, v) that made each first
    for p in range(n):
        hi, at = min(n, p + cap + 1), p + cap + 1 if scaled else 0
        window = (2 << hi) - 2
        sums: dict[bytes, int | float] = {}  # the ideals in order of first occurrence
        get = sums.get
        made, sources, adds, firsts = firsts, adds, [], array("q")
        for s, (key, x) in enumerate(layer.items()):
            ideal = int.from_bytes(key, "little")
            t, v = divmod(made[s], n + 1)
            add = sources[t] ^ 1 << v
            for bit, pred in ups[v]:
                if pred & ideal == pred:
                    add |= bit
            adds.append(add)
            rest = add & window
            while rest:
                low = rest & -rest
                rest ^= low
                v = low.bit_length() - 1
                key = (ideal | low).to_bytes(size, "little").rstrip(b"\0")
                y = get(key)
                if y is None:
                    sums[key] = x * pen if v == at else x
                    firsts.append(s * (n + 1) + v)
                else:
                    sums[key] = y + (x * pen if v == at else x)
            if len(sums) > limit:
                return p + 1, len(sums)
        layer = sums
    return 0, sum(layer.values(), zero)


def count_exact(poset: Poset) -> int:
    """Exact number of linear extensions: the layered ideal DP with no band."""
    return _layered_sum(poset, poset.n, 1)


def enumerate_extensions(poset: Poset, guard: int = ENUMERATION_GUARD,
                         cap: int | None = None) -> list[tuple[int, ...]]:
    """The linear extensions with every displacement at most cap (all of them
    by default), in lexicographic order. Position q tries only the unplaced
    v <= q + cap; the smallest always qualifies, so no branch is a dead end.
    An element that is not minimal, with p its smallest unplaced predecessor,
    drops from the tries every element above p too, as none of them is
    minimal either. Raises GuardError as soon as more than guard of them are
    found, so the check visits O(guard * n) positions, each testing at most
    n elements; on a chain plus one free element each tests at most three.
    The search keeps its own stack, so any n works."""
    n = poset.n
    band = n if cap is None else cap
    above, below = poset.raw_masks, [poset.below_mask(e) for e in range(n + 1)]
    window = [(2 << min(q + band, n)) - 1 for q in range(n + 2)]  # values <= q + band
    out: list[tuple[int, ...]] = []
    prefix: list[int] = []
    remaining = ((1 << (n + 1)) - 1) & ~1
    untried = [remaining & window[1]]  # per depth: the elements not yet tried next
    while untried:
        if not remaining:
            if len(out) == guard:
                raise GuardError(f"L(P) exceeds enumeration guard {guard}" if cap is None else
                                 f"more than {guard} extensions lie within displacement {cap}")
            out.append(tuple(prefix))
        rest = untried[-1]
        while rest:
            low = rest & -rest
            rest ^= low
            e = low.bit_length() - 1
            pred = below[e] & remaining
            if not pred:  # e is minimal among the rest
                untried[-1] = rest
                prefix.append(e)
                remaining ^= low
                untried.append(remaining & window[len(prefix) + 1])
                break
            rest &= ~above[(pred & -pred).bit_length() - 1]
        else:
            untried.pop()
            if prefix:
                remaining |= 1 << prefix.pop()
    return out


def reach(poset: Poset) -> int:
    """The reach: the largest v - 1 - |below(v)|, which bounds the displacement
    v - p of every element of every extension, as v comes after below(v), at
    p > |below(v)|."""
    return max(v - 1 - poset.below_mask(v).bit_count() for v in range(1, poset.n + 1))


def partition_z(poset: Poset, bp: BetaParam) -> float:
    """Exact normalizer: the sum of weights over all linear extensions. Above
    the reach no extension meets pen, so Z is the count L, rounded once.
    GuardError fires when Z passes the largest double."""
    exact_count = bp.pen >= 1.0 or bp.cap > reach(poset)
    z = _layered_sum(poset, bp.cap, 1 if exact_count else bp.pen)
    if z > sys.float_info.max:
        raise GuardError(f"Z at beta {bp.beta} passes the largest double, {sys.float_info.max}")
    return float(z)


@dataclass
class KernelMatrix:
    """The chain's kernel on its support, sparse: support[src[k]] moves to
    support[dst[k]] with probability prob[k], and stays with the rest."""

    support: list[tuple[int, ...]]
    src: array  # of "q"
    dst: array  # of "q"
    prob: array  # of "d"


def chain_kernel(poset: Poset, bp: BetaParam) -> KernelMatrix:
    """The chain's transitions, from its own step on every state of the band.
    At each slot a descending pair swaps back under either gate bit, since
    the mover ends below the cap; an ascending pair takes
    ``chain._sigma_step_inplace`` with the gate up, then down, and moves if
    the first one does. A move has probability 0.5 / (n - 1), times pen when
    it needs the gate up. Transitions are listed by slot, swap backs first,
    then by the pair's ascending state: the source of a move, the
    destination of a swap back. A support of more than KERNEL_SUPPORT_GUARD
    states, counted by the ideal DP at bp.cap, is refused before any
    extension is enumerated."""
    size = _layered_sum(poset, bp.cap, 1)
    if size > KERNEL_SUPPORT_GUARD:
        raise GuardError(f"support size {size} exceeds {KERNEL_SUPPORT_GUARD}")
    n, cap, above = poset.n, bp.cap, poset.raw_masks
    states = enumerate_extensions(poset, KERNEL_SUPPORT_GUARD, cap)
    index = {s: k for k, s in enumerate(states)}
    moves = []  # (slot, 0 for a swap back, ascending state, src, dst, gated)
    for k, s in enumerate(states):
        sig = list(s)  # each slot puts its pair back
        for i, a, b in zip(range(1, n), s, s[1:]):
            if a > b:
                sig[i - 1:i + 1] = b, a
                j = index[tuple(sig)]
                moves.append((i, 0, j, k, j, False))
            else:
                _sigma_step_inplace(sig, i, 1, 1, cap, above)
                if sig[i] == b:
                    continue
                j = index[tuple(sig)]
                sig[i - 1:i + 1] = a, b
                _sigma_step_inplace(sig, i, 1, 0, cap, above)
                moves.append((i, 1, k, k, j, sig[i] == b))
            sig[i - 1:i + 1] = a, b
    moves.sort()  # no two share (slot, kind, ascending state)
    m = max(n - 1, 1)  # one element has no slot and no moves
    ungated, gated = 0.5 / m, 0.5 * bp.pen / m
    return KernelMatrix(states, array("q", [mv[3] for mv in moves]),
                        array("q", [mv[4] for mv in moves]),
                        array("d", [gated if mv[5] else ungated for mv in moves]))


def stationarity_gap(kernel: KernelMatrix, poset: Poset, bp: BetaParam) -> float:
    """Largest |inflow - outflow| of pi over the kernel's transitions, pi the
    weights over its support divided by their correctly rounded sum: the
    max-norm of pi P - pi. Each state's flows are added in the kernel's
    order. The chain design is correct iff this is ~0 (<= 1e-10)."""
    w = [weight(s, bp) for s in kernel.support]
    total = math.fsum(w)
    pi = [x / total for x in w]
    inflow, outflow = [0.0] * len(pi), [0.0] * len(pi)
    for k, j, p in zip(kernel.src, kernel.dst, kernel.prob):
        flow = pi[k] * p
        inflow[j] += flow
        outflow[k] += flow
    return max(abs(x - y) for x, y in zip(inflow, outflow))
