"""Exact ground truth: extension counts, every extension within a displacement
band, the exact weight normalizer, and a band's chain-step tables, which cftp's
set sampler steps on and whose sparse kernel the stationarity check scores.

The tables key a move by slot i, coin bit c and gate bit g as 4i + 2c + g and
hold the outcome of ``chain._sigma_step_inplace`` for each gate bit, so no
reader of them decides the gate.

The count and the normalizer are one layered DP over order ideals, whose cost
follows the width of the order, not n: it is guarded by the ideals per layer.
Each layer is a set of numpy arrays: the ideals as rows of W = n // 64 + 1
little-endian uint64 words (bit v set when element v is placed), a 64-bit
hash per ideal and a weight per ideal. One pass builds the next layer from
chunks of source ideals taken in layer order. Within a chunk it lists every
(ideal, addable element) pair in row-major order, groups the pairs by the
hash of the ideal they make, and adds their weights with np.add.at, which
adds in pair order. The next layer keeps its ideals in order of first
occurrence, so every weight is summed in the same order as a loop over ideals
and elements would sum it, and float results are bit-identical to that loop.
Weights are int64 while no sum can pass 2^63 and Python ints after that; with
a float penalty they are Python objects from the start, so an int and a float
add exactly as Python adds them. With W = 1 the hash is the ideal's word
itself. With W > 1 it is the sum of one random 64-bit fingerprint per placed
element, every grouped ideal is checked word by word against the first one
of its group, and a layer with two ideals on one hash is redone grouped by
the full rows. The guard counts new ideals chunk by chunk and stops in the
chunk that passes STATE_LIMIT, reporting the count after the source ideal
that passed it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .chain import BetaParam, _sigma_step_inplace, weight
from .errors import GuardError
from .poset import MAX_ELEMENTS, Poset

STATE_LIMIT = 10 ** 6  # most order ideals in one layer of the exact DP
ENUMERATION_GUARD = 10 ** 6
KERNEL_SUPPORT_GUARD = 10 ** 4
CHUNK_WORDS = 1 << 20  # most key words one chunk of source ideals unpacks or gathers

_WORD = np.dtype("<u8")
_ONE = np.uint64(1)
_FINGERPRINTS = np.frombuffer(random.Random(0).randbytes(8 * (MAX_ELEMENTS + 1)),
                              dtype=np.uint64)  # one per element, for W > 1


def _bit(elements: np.ndarray) -> np.ndarray:
    """The single-bit word of each element within its own word."""
    return np.left_shift(_ONE, (elements & 63).astype(np.uint64))


def _layered_sum(poset: Poset, cap: int, pen):
    """Sum of the displacement weights at (cap, pen) over all extensions.

    Layer p holds each ideal I with |I| = p and the weight of the prefixes that
    place it. Element v may go at position p + 1 when its predecessors are in
    I, with factor 1 when v < p + 1 + cap, pen when equal, none beyond, so the
    candidates are the unplaced elements in 1..p + cap + 1. The weights take
    pen's type, so an int pen gives exact ints. GuardError fires once the layer
    being built holds more than STATE_LIMIT ideals, and, with no band
    (cap >= n), before any layer when w minimal or w maximal elements put
    C(w, w // 2) ideals into one layer: those subsets of the minimal elements,
    or the other elements plus those subsets of the maximal ones."""
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
    table = _bit(np.arange(n + 1)) if width == 1 else _FINGERPRINTS[:n + 1]
    keys = np.zeros((1, width), dtype=_WORD)
    hashes = np.zeros(1, dtype=np.uint64)
    weights = np.array([1], dtype=np.int64 if isinstance(pen, int) else object)
    plain = isinstance(pen, int) and pen == 1  # no element needs the factor pen
    for p in range(n):
        if weights.dtype != object:  # a next sum adds at most p + 1 weights times pen
            if (p + 1) * max(pen, 1) * int(weights.max(initial=0)) >= 2 ** 63:
                weights = weights.astype(object)
        at_cap = 0 if plain else p + cap + 1
        args = (keys, hashes, weights, below, table, min(n, p + cap + 1), at_cap, pen, p)
        keys, hashes, weights = (_next_layer(*args, by_rows=False)
                                 or _next_layer(*args, by_rows=True))
    return sum(weights.tolist())


def _next_layer(keys, hashes, weights, below, table, hi, at_cap, pen, p, by_rows):
    """Layer p + 1 as (keys, hashes, weights), with candidates 1..hi and the
    factor pen on element at_cap (0 for none). Ideals are grouped by their
    hash, or, with by_rows, by their full rows; None when W > 1 and two
    different ideals share a hash."""
    m, width = keys.shape
    rows_dtype = np.dtype((np.void, 8 * width)) if by_rows else np.uint64
    seen = np.empty(0, dtype=rows_dtype)  # sorted, one per ideal found so far
    seen_id = np.empty(0, dtype=np.intp)
    first_src = np.empty(0, dtype=np.intp)  # per new ideal: the pair that made it first
    first_elem = np.empty(0, dtype=np.intp)
    total = weights[:0]
    window = np.frombuffer(((1 << hi + 1) - 2).to_bytes(8 * width, "little"), dtype=_WORD)
    step = max(1, CHUNK_WORDS // ((hi - p) * width))  # at most hi - p unplaced per ideal
    for a in range(0, m, step):
        # the unplaced elements of the window: nonzero bytes first, then their bits
        unplaced = (~keys[a:a + step] & window).view(np.uint8)[:, :hi // 8 + 1]
        src, byte = np.nonzero(unplaced)
        octet, bit = np.nonzero(np.unpackbits(unplaced[src, byte], bitorder="little")
                                .reshape(-1, 8))
        src = src[octet] + a
        elem = byte[octet] * 8 + bit
        ok = ~(below[elem] & ~keys[src]).any(axis=1)  # every predecessor placed
        src, elem = src[ok], elem[ok]
        if not len(src):  # every ideal of the chunk is a dead end under the band
            continue
        if by_rows:
            made = keys[src]
            made[np.arange(len(src)), elem >> 6] |= _bit(elem)
            h = made.view(rows_dtype).ravel()
        else:
            h = hashes[src] + table[elem]
        order = np.argsort(h)
        h = h[order]
        opens = np.concatenate(([True], h[1:] != h[:-1]))  # a new group starts here
        starts = np.flatnonzero(opens)
        group_h, group_first = h[starts], np.minimum.reduceat(order, starts)
        pos = np.searchsorted(seen, group_h)
        found = pos < len(seen)
        found[found] = seen[pos[found]] == group_h[found]
        ids = np.empty(len(starts), dtype=np.intp)
        ids[found] = seen_id[pos[found]]
        new = np.flatnonzero(~found)
        by_first = new[np.argsort(group_first[new])]
        ids[by_first] = len(first_src) + np.arange(len(new))
        pair_id = np.empty(len(h), dtype=np.intp)
        pair_id[order] = ids[np.cumsum(opens) - 1]
        made_first = group_first[by_first]
        held = len(first_src)
        first_src = np.concatenate([first_src, src[made_first]])
        first_elem = np.concatenate([first_elem, elem[made_first]])
        if width > 1 and not by_rows:  # each pair's ideal must be its group's first one
            rep_elem = first_elem[pair_id]
            diff = keys[src] ^ keys[first_src[pair_id]]
            pair = np.arange(len(src))
            diff[pair, elem >> 6] ^= _bit(elem)
            diff[pair, rep_elem >> 6] ^= _bit(rep_elem)
            if diff.any():
                return None
        if len(first_src) > STATE_LIMIT:
            trip = src[made_first[STATE_LIMIT - held]]  # the source ideal that passed it
            held += np.searchsorted(src[made_first], trip, side="right")
            raise GuardError(f"n={len(below) - 1} too large: {held} ideals in layer "
                             f"{p + 1}, over the limit {STATE_LIMIT}")
        seen = np.insert(seen, pos[new], group_h[new])
        seen_id = np.insert(seen_id, pos[new], ids[new])
        gained = weights[src]
        at = elem == at_cap
        gained[at] = gained[at] * pen
        total = np.concatenate([total, np.zeros(len(new), dtype=weights.dtype)])
        np.add.at(total, pair_id, gained)
    nxt = keys[first_src]
    nxt[np.arange(len(first_src)), first_elem >> 6] |= _bit(first_elem)
    return nxt, hashes[first_src] + table[first_elem], total


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
    cap = n if cap is None else cap
    below = [poset.below_mask(e) for e in range(n + 1)]
    window = [(2 << min(q + cap, n)) - 1 for q in range(n + 2)]  # values <= q + cap
    out: list[tuple[int, ...]] = []
    prefix: list[int] = []
    remaining = ((1 << (n + 1)) - 1) & ~1
    untried = [remaining & window[1]]  # per depth: the elements not yet tried next
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


class Support(NamedTuple):
    """The extensions with every displacement at most cap, indexed in
    enumeration order, with the keyed step as per-slot tables over those
    indices: bit c = 1 moves an ascending pair, c = 0 a descending one, g is
    the gate bit. Only descents and moves that go through are stored."""

    states: tuple  # the extensions with displacement at most cap
    desc: tuple  # desc[i]: the states whose pair at slots (i, i+1) descends
    moves: tuple  # moves[4i + 2c + g]: {state: landing} for the keyed swaps that go through


def band_support(poset: Poset, cap: int, guard: int) -> Support:
    """The support with displacement at most cap and its step tables; raises
    GuardError past guard states. An ascending pair takes the chain's own step
    with the gate up, then down, until one does not move; its swap back moves
    the smaller value left, never needs the gate, and both gate bits share it."""
    n = poset.n
    states = tuple(enumerate_extensions(poset, guard, cap))
    index = {s: k for k, s in enumerate(states)}
    above = poset.raw_masks
    desc = [set() for _ in range(n)]
    backs = [{} for _ in range(n)]  # the swaps back, shared by both gate bits
    moves = [m for back in backs for m in (back, back, {}, {})]
    slots = range(1, n)
    for k, s in enumerate(states):
        for i, a, b in zip(slots, s, s[1:]):
            if a > b:  # never ordered in a canonical extension
                desc[i].add(k)
                continue
            sig = list(s)
            _sigma_step_inplace(sig, i, 1, 1, cap, above)
            if sig[i] != b:
                j = index[tuple(sig)]
                moves[4 * i + 3][k] = j
                moves[4 * i][j] = k
                sig = list(s)
                _sigma_step_inplace(sig, i, 1, 0, cap, above)
                if sig[i] != b:
                    moves[4 * i + 2][k] = j
    return Support(states, tuple(map(frozenset, desc)), tuple(moves))


@dataclass
class KernelMatrix:
    """The chain's kernel on its support, sparse: support[src[k]] moves to
    support[dst[k]] with probability prob[k], and stays with the rest."""

    support: list[tuple[int, ...]]
    src: np.ndarray
    dst: np.ndarray
    prob: np.ndarray


def chain_kernel(poset: Poset, bp: BetaParam) -> KernelMatrix:
    """The chain's transitions, read off the band's gate-up maps: a swap has
    probability 0.5 / (n - 1), times pen when the gate-down map lacks it. A
    support of more than KERNEL_SUPPORT_GUARD states, counted by the ideal DP
    at bp.cap, is refused before any extension is enumerated."""
    size = _layered_sum(poset, bp.cap, 1)
    if size > KERNEL_SUPPORT_GUARD:
        raise GuardError(f"support size {size} exceeds {KERNEL_SUPPORT_GUARD}")
    tab = band_support(poset, bp.cap, KERNEL_SUPPORT_GUARD)
    n = poset.n
    src, dst, prob = [], [], []
    for i in range(1, n):
        for c in (0, 1):
            gate_down = tab.moves[4 * i + 2 * c]
            for k, j in tab.moves[4 * i + 2 * c + 1].items():
                src.append(k)
                dst.append(j)
                prob.append(0.5 / (n - 1) if k in gate_down else 0.5 * bp.pen / (n - 1))
    return KernelMatrix(list(tab.states), np.array(src, dtype=np.intp),
                        np.array(dst, dtype=np.intp), np.array(prob, dtype=float))


def stationarity_gap(kernel: KernelMatrix, poset: Poset, bp: BetaParam) -> float:
    """Largest |inflow - outflow| of pi over the kernel's transitions, pi the
    normalized weights over its support: the max-norm of pi P - pi. The chain
    design is correct iff this is ~0 (<= 1e-10)."""
    w = np.array([weight(s, bp) for s in kernel.support])
    pi = w / w.sum()
    flow = pi[kernel.src] * kernel.prob
    net = np.bincount(kernel.dst, flow, len(pi)) - np.bincount(kernel.src, flow, len(pi))
    return float(np.max(np.abs(net)))
