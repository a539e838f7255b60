"""Exact ground truth: extension counts, every extension within a displacement
band, the exact weight normalizer, and the chain's sparse kernel on a band,
built from its own step, which the stationarity check scores.

The count and the normalizer are one layered DP over order ideals, whose cost
follows the width of the order, not n: it is guarded by the ideals per layer.
A layer is the ideals as rows of W = n // 64 + 1 little-endian uint64 words
(bit v set when element v is placed) and a weight per ideal. One pass meets
every (source ideal, addable element) pair in row-major order, gives each
pair the ideal it makes, new ideals taking ids in order of first occurrence
and the weight 0, and adds the pair's term to that ideal's weight there and
then, so every weight is summed in the same order as a loop over ideals and
elements would sum it. It returns the new ideals' rows and weights in id
order. The pass is one C function of the ``native`` kernel, whose
open-addressing table is keyed by the full rows but holds only the pair that
made each ideal first; a pair's hash is its source's plus one term, and one
DP keeps the pass's buffers from layer to layer. Without the kernel it is
``_layer_loop``, its reference, a dict keyed by the rows.

A weight is what Python would hold: an exact int while every term added to
it is an int, and a float from its first float term on, later int terms
rounded as Python rounds an int added to a float. A layer's weights are rows
of k uint64 words. An int is the k words little-endian, below 2^(64 k - 1);
a float x >= 0 is held as -x in the last word, whose sign bit, which no int
sets, marks it. A weight takes at most hi terms, so k holds hi times the
largest int of the source layer. The guard stops the pass after the source
ideal that takes the new ideals past STATE_LIMIT and reports their count.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import native
from .chain import BetaParam, _sigma_step_inplace, weight
from .errors import GuardError, LinextError
from .poset import Poset

STATE_LIMIT = 10 ** 6  # most order ideals in one layer of the exact DP
ENUMERATION_GUARD = 10 ** 6
KERNEL_SUPPORT_GUARD = 10 ** 4
_WORD = np.dtype("<u8")
_FLOAT = np.dtype("<f8")
_DOUBLE = struct.Struct("<d")
_kernel = native.KERNEL  # the C layer pass, or None to run _layer_loop


def _layered_sum(poset: Poset, cap: int, pen):
    """Sum of the displacement weights at (cap, pen) over all extensions.

    Layer p holds each ideal I with |I| = p and the weight of the prefixes that
    place it. Element v may go at position p + 1 when its predecessors are in
    I, with factor 1 when v < p + 1 + cap, pen when equal, none beyond, so the
    candidates are the unplaced elements in 1..p + cap + 1. pen is the int 1,
    which scales nothing and gives exact ints, or a float >= 0. GuardError
    fires once the layer being built holds more than STATE_LIMIT ideals, and,
    with no band (cap >= n), before any layer when w minimal or w maximal
    elements put C(w, w // 2) ideals into one layer: those subsets of the
    minimal elements, or the other elements plus those subsets of the maximal
    ones."""
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
    width = n // 64 + 1
    below = np.frombuffer(b"".join(poset.below_mask(v).to_bytes(8 * width, "little")
                                   for v in range(n + 1)), dtype=_WORD).reshape(n + 1, width)
    keys = np.zeros((1, width), dtype=_WORD)
    weights = np.ones((1, 1), dtype=_WORD)
    scaled = not isinstance(pen, int)  # the int 1 scales nothing: no element is at
    run = partial(_layer_loop, below) if _kernel is None else _kernel.dp_layers(below)
    for p in range(n):
        held, layer = run(keys, weights, min(n, p + cap + 1), p + cap + 1 if scaled else 0, pen,
                          STATE_LIMIT)
        if layer is None:
            raise GuardError(f"n={n} too large: {held} ideals in layer {p + 1}, "
                             f"over the limit {STATE_LIMIT}")
        keys, weights = layer
    return sum(_numbers(weights))


def _numbers(weights: np.ndarray) -> list:
    """A layer's weights as Python ints and floats; a one-word layer of only
    ints or only floats in one numpy step."""
    if weights.shape[1] == 1:
        col = weights[:, 0]
        signs = col >> 63
        if not signs.any():
            return col.tolist()
        if signs.all():
            return (-col.view(_FLOAT)).tolist()
    size = 8 * weights.shape[1]
    raw = weights.tobytes()
    return [-_DOUBLE.unpack_from(raw, end - 8)[0] if raw[end - 1] & 0x80
            else int.from_bytes(raw[end - size:end], "little")
            for end in range(size, len(raw) + 1, size)]


def _words(numbers: list, k: int) -> np.ndarray:
    """Python ints and floats as a layer's weights of k words; a one-word
    layer of only ints or only floats in one numpy step."""
    if k == 1:
        types = set(map(type, numbers))
        if types == {int}:
            return np.array(numbers, dtype=_WORD).reshape(len(numbers), 1)
        if types == {float}:
            return (-np.array(numbers, dtype=_FLOAT)).view(_WORD).reshape(len(numbers), 1)
    size = 8 * k
    return np.frombuffer(b"".join(x.to_bytes(size, "little") if type(x) is int
                                  else bytes(size - 8) + _DOUBLE.pack(-x) for x in numbers),
                         dtype=_WORD).reshape(len(numbers), k)


def _layer_loop(below, keys, weights, hi, at, pen, limit):
    """The layer after keys, as (held, (rows, weights)): each pair of a source
    ideal (in layer order) and an element v in 1..hi (in increasing order)
    that is unplaced with every predecessor placed adds the source's weight,
    times pen when v is at, to the ideal it makes, a new ideal taking the next
    id and the weight 0; then the held ideals' rows and weights in id order.
    Stops after the source ideal that takes the held ideals past limit, with
    None for the arrays. The ideals are keyed by their rows' bytes less
    trailing zeros: unlike an int's, their hash does not fold bit v + 61 onto
    bit v, and an ideal of low elements takes few bytes (a guard trip at
    n = 2000 peaks at about 260 MB)."""
    size = 8 * keys.shape[1]
    raw, raw_below = keys.tobytes(), below.tobytes()
    need: dict[int, int] = {}  # v's bit and its predecessors', for the v met so far
    window = (2 << hi) - 2
    sums: dict[bytes, int | float] = {}  # the ideals in order of first occurrence
    get = sums.get
    sources = _numbers(weights)
    for s, x in enumerate(sources):
        ideal = int.from_bytes(raw[s * size:(s + 1) * size], "little")
        missing = ~ideal
        rest = missing & window
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            req = need.get(v)
            if req is None:
                req = need[v] = int.from_bytes(raw_below[v * size:(v + 1) * size], "little") | low
            if req & missing == low:
                key = (ideal | low).to_bytes(size, "little").rstrip(b"\0")
                sums[key] = get(key, 0) + (x * pen if v == at else x)
        if len(sums) > limit:
            return len(sums), None
    bits = max((x.bit_length() for x in sources if type(x) is int), default=0)
    rows = np.frombuffer(b"".join(key.ljust(size, b"\0") for key in sums),
                         dtype=_WORD).reshape(len(sums), keys.shape[1])
    return len(sums), (rows, _words(list(sums.values()), (bits + hi.bit_length()) // 64 + 1))


def count_exact(poset: Poset) -> int:
    """Exact number of linear extensions: the layered ideal DP with no band."""
    return _layered_sum(poset, poset.n, 1)


def enumerate_extensions(poset: Poset, guard: int = ENUMERATION_GUARD,
                         cap: int | None = None) -> list[tuple[int, ...]]:
    """The linear extensions with every displacement at most cap (all of them
    by default), in lexicographic order. Position q tries only the unplaced
    v <= q + cap; the smallest always qualifies, so no branch is a dead end.
    Raises GuardError as soon as more than guard of them are found, so the
    check costs O(guard * n). The search keeps its own stack, so any n works."""
    n = poset.n
    band = n if cap is None else cap
    below = [poset.below_mask(e) for e in range(n + 1)]
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
            if below[e] & remaining == 0:  # e is minimal among the rest
                untried[-1] = rest
                prefix.append(e)
                remaining ^= low
                untried.append(remaining & window[len(prefix) + 1])
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
    """The chain's kernel on its support, sparse: support[src[k]] moves to
    support[dst[k]] with probability prob[k], and stays with the rest."""

    support: list[tuple[int, ...]]
    src: np.ndarray
    dst: np.ndarray
    prob: np.ndarray


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
    moves = []  # six per move: slot, 0 for a swap back, ascending state, src, dst, gated
    for k, s in enumerate(states):
        for i, a, b in zip(range(1, n), s, s[1:]):
            sig = list(s)
            if a > b:
                sig[i - 1:i + 1] = b, a
                j = index[tuple(sig)]
                moves += (i, 0, j, k, j, 0)
                continue
            _sigma_step_inplace(sig, i, 1, 1, cap, above)
            if sig[i] != b:
                j = index[tuple(sig)]
                sig = list(s)
                _sigma_step_inplace(sig, i, 1, 0, cap, above)
                moves += (i, 1, k, k, j, sig[i] == b)
    slot, kind, asc, src, dst, gated = np.array(moves, dtype=np.intp).reshape(-1, 6).T
    order = np.lexsort((asc, kind, slot))
    m = max(n - 1, 1)  # one element has no slot and no moves
    prob = np.where(gated, 0.5 * bp.pen / m, 0.5 / m)
    return KernelMatrix(states, src[order], dst[order], prob[order])


def stationarity_gap(kernel: KernelMatrix, poset: Poset, bp: BetaParam) -> float:
    """Largest |inflow - outflow| of pi over the kernel's transitions, pi the
    normalized weights over its support: the max-norm of pi P - pi. The chain
    design is correct iff this is ~0 (<= 1e-10)."""
    w = np.array([weight(s, bp) for s in kernel.support])
    pi = w / w.sum()
    flow = pi[kernel.src] * kernel.prob
    net = np.bincount(kernel.dst, flow, len(pi)) - np.bincount(kernel.src, flow, len(pi))
    return float(np.max(np.abs(net)))
