"""Perfect sampling of weighted linear extensions by coupling from the past.

Two layers live here.

The first is the coupled state/bound update on a wildcard bound vector: a
length-n vector B over {1..n} plus THETA, where a non-wildcard entry B(j) = v
means "v sits at position j or further left" and THETA entries constrain
nothing. One coupled step drives the state with coins (i, c1, c2) and the
bound with (i, c3, c2), flipping c3 = 1 - c1 exactly when the state's left
element equals the bound's right element; wildcards are incomparable to
everything and exempt from the displacement gate, and a wildcard reaching the
last slot is replaced by the next unused value in home order. This update
provably keeps the state compatible with the bound, and when no wildcards
remain the bound pins the driven trajectory exactly. It is exposed (and
property-tested) as ``bounding_chain_step``.

The second layer is the sampler, coupling from the past (Propp-Wilson): run a
block of steps, and if its update map is not certified constant, recurse with
a doubled horizon and fresh randomness for the deeper past, then replay this
block's recorded randomness on the returned state. ``generate`` certifies a
constant block map in one of two ways, chosen from the input:

- Bounding chain (any order). The block draws the bound's own coins
  (i, c3, c2), which do not depend on any state, and records the bound's
  right entry B(i + 1) before each step. Every state then derives its coin as
  c1 = 1 - c3 when its left element equals that entry and c1 = c3 otherwise,
  so c1 is fair given the state, and every start is driven along the same
  bound trajectory. A block that ends with no wildcard left therefore maps
  every state to the bound: it is constant.
- Explicit support (orders with at most ``SUPPORT_LIMIT`` extensions). The
  support is enumerated and evolved as a set under heat-bath pair updates: a
  step picks adjacent slots and redraws the order of the two values there from
  its exact conditional law, using one shared lazily-realized uniform. States
  that meet at a redrawn pair merge, and a block that leaves one survivor is
  constant. On small supports this collapses far sooner than the bound does.

Either way the returned permutation is an exact draw from the weighted
distribution.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .bitrng import BitStream, StepDraw
from .chain import BetaParam, _sigma_step_inplace, max_displacement, weight
from .errors import CoalescenceError, GuardError, LinextError
from .exact import enumerate_extensions
from .poset import Poset

THETA = 0  # wildcard bound entry: no restriction at all

DEFAULT_MAX_LEVELS = 40
SUPPORT_LIMIT = 10_000  # most extensions tracked as an explicit set


@dataclass
class CftpStats:
    """Work accounting for one (or several merged) perfect-sample calls."""

    total_steps: int = 0  # forward passes plus replays, over all levels
    levels: int = 0  # number of level runs executed
    bits_discrete: int = 0
    bits_continuous: int = 0
    comparisons: int = 0

    def merge(self, other: "CftpStats") -> None:
        self.total_steps += other.total_steps
        self.levels += other.levels
        self.bits_discrete += other.bits_discrete
        self.bits_continuous += other.bits_continuous
        self.comparisons += other.comparisons

    def as_dict(self) -> dict:
        return {
            "total_steps": self.total_steps,
            "levels": self.levels,
            "bits_discrete": self.bits_discrete,
            "bits_continuous": self.bits_continuous,
            "comparisons": self.comparisons,
        }


# ---------------------------------------------------------------------------
# Bounding state and the coupled state/bound update
# ---------------------------------------------------------------------------


def initial_bound(n: int) -> tuple[int, ...]:
    """The all-containing starting bound: wildcards everywhere except the last
    slot, which holds the first home value."""
    return tuple([THETA] * (n - 1) + [1]) if n > 1 else (1,)


def bounds(sigma: Sequence[int], b: Sequence[int]) -> bool:
    """True iff sigma is compatible with bound b: every non-wildcard entry
    b[j] = v has v's position in sigma at or left of j."""
    n = len(sigma)
    if len(b) != n:
        raise LinextError("state and bound must have equal length")
    pos = [0] * (n + 1)
    for p, v in enumerate(sigma, start=1):
        pos[v] = p
    for j, v in enumerate(b, start=1):
        if v != THETA and pos[v] > j:
            return False
    return True


def validate_bounding_state(b: Sequence[int], poset: Poset) -> None:
    """Check the structural invariants of a bound vector: the non-wildcard
    entries are exactly {1..p} for p of them, and comparable values appear in
    order (a predecessor's slot is strictly left of its successor's)."""
    vals = [v for v in b if v != THETA]
    p = len(vals)
    if sorted(vals) != list(range(1, p + 1)):
        raise LinextError(f"bound entries {sorted(vals)} are not exactly 1..{p}")
    slot = {v: j for j, v in enumerate(b, start=1) if v != THETA}
    for c in vals:
        for v in vals:
            if poset.less(c, v) and slot[c] >= slot[v]:
                raise LinextError(
                    f"comparable pair out of order in bound: {c} before {v} expected"
                )


def _bound_step_inplace(bnd: list, i: int, c3: int, c2: int, cap: int,
                        above: Sequence[int]) -> int:
    """Apply the bound half of a coupled step in place; returns comparisons
    used (0 or 1). Wildcards pass both the order test and the gate."""
    if not c3:
        return 0
    u = bnd[i - 1]
    v = bnd[i]
    comps = 0
    if u and v:
        comps = 1
        if (above[u] >> v) & 1:
            return comps
    if v:
        e = v - i
        if e > cap or (e == cap and not c2):
            return comps
    bnd[i - 1] = v
    bnd[i] = u
    return comps


def bounding_chain_step(sigma: Sequence[int], b: Sequence[int], bp: BetaParam,
                        draw: StepDraw, poset: Poset) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """One coupled update of (state, bound). Requires the state to be in the
    support and compatible with the bound; returns the updated pair and keeps
    that compatibility (at most two counted comparisons)."""
    n = poset.n
    if not 1 <= draw.i <= n - 1:
        raise LinextError(f"step position {draw.i} out of range 1..{n - 1}")
    if weight(sigma, bp) <= 0.0:
        raise LinextError("state has zero weight")
    if not bounds(sigma, b):
        raise LinextError("state is not compatible with the bound")
    sig = list(sigma)
    bnd = list(b)
    i, c1, c2 = draw
    c3 = (1 - c1) if sig[i - 1] == bnd[i] else c1
    comps = _sigma_step_inplace(sig, i, c1, c2, bp.cap, poset.raw_masks)
    comps += _bound_step_inplace(bnd, i, c3, c2, bp.cap, poset.raw_masks)
    if bnd[-1] == THETA:
        p = sum(1 for v in bnd if v != THETA)
        bnd[-1] = p + 1
    if comps:
        poset.add_queries(comps)
    return tuple(sig), tuple(bnd)


# ---------------------------------------------------------------------------
# Exact sampler: coupling from the past with a collapse certificate per block
# ---------------------------------------------------------------------------


class _LazyU:
    """A uniform on (0, 1] realized bit by bit, shared within one step.

    Threshold queries resolve as few bits as possible and memoize them, so
    every trajectory and every replay of the step sees the same uniform. Bits
    needed beyond the memo are drawn fresh from the stream, which only refines
    decisions not yet taken and keeps the coupling consistent.
    """

    __slots__ = ("bits",)

    def __init__(self):
        self.bits: list[int] = []

    def le(self, q: float, stream: BitStream) -> bool:
        """Is U <= q? Exact for the float q; consumes expected O(1) bits."""
        if q <= 0.0:
            return False
        if q >= 1.0:
            return True
        bits = self.bits
        x = q
        k = 0
        while True:
            if x >= 0.5:
                b = 1
                x = x + x - 1.0
            else:
                b = 0
                x = x + x
            if k == len(bits):
                bits.append(stream.next_bit())
            u = bits[k]
            if u != b:
                return u < b
            if x == 0.0:  # q dyadic and prefix matched: U > q almost surely
                return False
            k += 1


def _pair_outcome(s: int, l: int, i: int, u: _LazyU, cap: int, pen: float,
                  above: Sequence[int], stream: BitStream) -> bool:
    """Decide the redrawn order of values s < l at slots (i, i+1): True means
    the larger value l comes first. Exactly one poset probe per call.

    The conditional odds follow the displacement weights: a value landing at
    displacement cap carries factor pen, beyond cap is impossible, and the
    in-between factors cancel. Keying the decision to the value pair (not the
    current order) makes states that share a redrawn pair merge.
    """
    if (above[s] >> l) & 1:  # s precedes l: ascending order forced
        return False
    el = l - i
    if el > cap:
        return False
    es = s - i
    if es > cap:
        return True
    fl = pen if el == cap else 1.0
    fs = pen if es == cap else 1.0
    return u.le(fl / (fs + fl), stream)


def _resampled_tuple(state: tuple, i: int, u: _LazyU, cap: int, pen: float,
                     above: Sequence[int], stream: BitStream) -> tuple:
    a = state[i - 1]
    b = state[i]
    if a < b:
        s, l = a, b
    else:
        s, l = b, a
    if _pair_outcome(s, l, i, u, cap, pen, above, stream):
        first, second = l, s
    else:
        first, second = s, l
    if state[i - 1] == first:
        return state
    return state[:i - 1] + (first, second) + state[i + 1:]


@lru_cache(maxsize=128)
def _support_states(poset: Poset, cap: int) -> tuple | None:
    """The extensions with displacement at most cap, or None when the order
    has more than SUPPORT_LIMIT extensions. Cached either way."""
    try:
        extensions = enumerate_extensions(poset, guard=SUPPORT_LIMIT)
    except GuardError:
        return None
    return tuple(s for s in extensions if max_displacement(s) <= cap)


class _Acc:
    __slots__ = ("steps", "levels", "comps", "levels_left")

    def __init__(self, levels_left: int):
        self.steps = 0
        self.levels = 0
        self.comps = 0
        self.levels_left = levels_left

    def enter_level(self) -> None:
        if self.levels_left <= 0:
            raise CoalescenceError(
                f"no collapse after {self.levels} doublings ({self.steps} steps); "
                f"raise max_levels or check the instance"
            )
        self.levels_left -= 1
        self.levels += 1


def _set_rec(t: int, stream: BitStream, poset: Poset, bp: BetaParam,
             support: tuple, acc: _Acc) -> tuple:
    """One block on the explicit support; it is constant when one state is left."""
    acc.enter_level()
    n = poset.n
    cap = bp.cap
    pen = bp.pen
    above = poset.raw_masks
    states = set(support)
    transcript: list[tuple[int, _LazyU]] = []
    append = transcript.append
    uniform_int = stream.uniform_int
    for _ in range(t):
        i = uniform_int(n - 1)
        u = _LazyU()
        acc.comps += len(states)
        states = {_resampled_tuple(s, i, u, cap, pen, above, stream) for s in states}
        append((i, u))
    acc.steps += t
    if len(states) == 1:
        return states.pop()
    sig = _set_rec(2 * t, stream, poset, bp, support, acc)
    for i, u in transcript:
        sig = _resampled_tuple(sig, i, u, cap, pen, above, stream)
    acc.steps += t
    acc.comps += t
    return sig


def _bound_rec(t: int, stream: BitStream, poset: Poset, bp: BetaParam,
               acc: _Acc) -> list:
    """One block of the bounding chain; it is constant when no wildcard is left."""
    acc.enter_level()
    n = poset.n
    cap = bp.cap
    pen = bp.pen
    above = poset.raw_masks
    uniform_int = stream.uniform_int
    next_bit = stream.next_bit
    bernoulli = stream.bernoulli
    pos = [0] * t
    up = [0] * t
    gate = [1] * t
    right = [0] * t
    bnd = list(initial_bound(n))
    placed = 1
    comps = 0
    for k in range(t):
        i = uniform_int(n - 1)
        c3 = next_bit()
        pos[k] = i
        up[k] = c3
        right[k] = bnd[i]
        if pen != 1.0:
            gate[k] = bernoulli(pen)
        if c3:
            comps += _bound_step_inplace(bnd, i, c3, gate[k], cap, above)
            if not bnd[-1]:
                placed += 1
                bnd[-1] = placed
    acc.steps += t
    acc.comps += comps
    if placed == n:
        return bnd
    sig = _bound_rec(2 * t, stream, poset, bp, acc)
    comps = 0
    for k in range(t):
        i = pos[k]
        c3 = up[k]
        c1 = 1 - c3 if sig[i - 1] == right[k] else c3
        if c1:
            comps += _sigma_step_inplace(sig, i, c1, gate[k], cap, above)
    acc.steps += t
    acc.comps += comps
    return sig


def generate(bp: BetaParam, t: int, stream: BitStream, poset: Poset,
             max_levels: int = DEFAULT_MAX_LEVELS) -> tuple[tuple[int, ...], CftpStats]:
    """Draw one exact sample of the weighted extension distribution, starting
    the block-doubling recursion at horizon t.

    Orders with at most SUPPORT_LIMIT extensions track the explicit support;
    all others run the bounding chain. Returns the sample together with its
    work accounting. Termination is probabilistic; after max_levels doublings
    the call aborts with a diagnostic rather than looping forever.
    """
    if t < 1:
        raise LinextError("horizon t must be at least 1")
    if not poset.identity_is_extension:
        raise LinextError("poset must be canonicalized before sampling")
    if poset.n == 1:
        return (1,), CftpStats()
    support = _support_states(poset, bp.cap)
    if support is not None and len(support) == 1:
        return support[0], CftpStats()
    bits0 = stream.bits_consumed
    cont0 = stream.bits_continuous
    acc = _Acc(max_levels)
    if support is None:
        sig = _bound_rec(t, stream, poset, bp, acc)
    else:
        sig = _set_rec(t, stream, poset, bp, support, acc)
    poset.add_queries(acc.comps)
    stats = CftpStats(
        total_steps=acc.steps,
        levels=acc.levels,
        bits_discrete=stream.bits_consumed - bits0,
        bits_continuous=stream.bits_continuous - cont0,
        comparisons=acc.comps,
    )
    return tuple(sig), stats


def perfect_sample(bp: BetaParam, stream: BitStream, poset: Poset,
                   t0: int | None = None,
                   max_levels: int = DEFAULT_MAX_LEVELS) -> tuple[tuple[int, ...], CftpStats]:
    """Draw one exact sample, starting the recursion at t0 (default 2 n^2)."""
    if t0 is None:
        t0 = 2 * poset.n * poset.n
    return generate(bp, t0, stream, poset, max_levels=max_levels)
