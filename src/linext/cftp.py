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

The second layer is the sampler, one function, ``generate``, with two paths
chosen by the order's extension count, the same at every cap:

- Explicit support (orders with at most ``SUPPORT_LIMIT`` extensions). The
  support at the cap is enumerated once and cached, with each state's top
  displacement and the number of its coordinates at it, and a draw is made
  from it directly by rejection: propose a state uniformly and keep it with
  probability pen^k, k its coordinates at displacement exactly cap (read
  from the cache), by one bernoulli(pen) per such coordinate. Every state
  of the support at cap - 1 is kept outright, so a draw takes at most
  |S_c| / |S_{c-1}| proposals in expectation, S_c being the support at cap
  c. It runs no chain and counts only its bits.
- Bounding chain (any order), coupling from the past (Propp-Wilson): draw and
  record a block of steps; until a block's update map is certified constant,
  draw one twice as long further in the past, up to MAX_STEPS steps in all;
  then replay the constant value through the recorded blocks, deepest first.
  The block draws the bound's own coins (i, c3, c2), which do not depend on
  any state, and records the bound's right entry B(i + 1) before each step.
  Every state then takes the same Metropolis step as ``chain_step`` with its
  coin derived as c1 = 1 - c3 when its left element equals that entry and
  c1 = c3 otherwise, a coin that is fair given the state, so every start is
  driven along the same bound trajectory. A block that ends with no wildcard
  left therefore maps every state to the bound: it is constant.

Either way the returned permutation is an exact draw from the weighted
distribution.

A whole bounding-chain draw also runs in one C call (``native``) when the
kernel was built at import: it makes the stream's bits with the stream's own
generator, which ``BitStream.lend`` hands it, and decodes each step with the
bound run through it in one pass. ``_bounding_draw`` over ``_block`` and
``_bound_replay``, one for each of the kernel's draw, block and
bound_replay, are then its reference and, when ``_kernel`` is None, the
loops that run. Both read the same bits and keep a block in the same
layout, two uint32 a step: the step packed as pos | up << 16 | gate << 17
and the bound's right entry before it.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from . import exact, native
from .bitrng import BitStream, StepDraw
from .chain import BetaParam, _sigma_step_inplace, weight
from .errors import CoalescenceError, GuardError, LinextError
from .poset import Poset

THETA = 0  # wildcard bound entry: no restriction at all

MAX_STEPS = 10 ** 8  # most steps a draw's blocks may hold: about 800 MB at 8 B per step
SUPPORT_LIMIT = 500  # most extensions drawn from their enumerated support; another limit changes draws

_kernel = native.KERNEL  # the C draw, or None to run the Python loops


@dataclass
class CftpStats:
    """Work accounting for one (or several merged) perfect-sample calls. A
    draw from an explicit support counts only bits_discrete."""

    total_steps: int = 0  # bounding chain: forward passes plus replays, over all levels
    levels: int = 0  # bounding chain: number of level runs executed
    bits_discrete: int = 0
    bits_continuous: int = 0
    comparisons: int = 0  # bounding chain: order tests

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
# Exact sampler: a draw from the enumerated support, or CFTP on the bound
# ---------------------------------------------------------------------------


class _Support(tuple):
    """An enumerated support: its states in enumeration order, with each
    state's top displacement in ``tops`` and how many of its coordinates sit
    at it in ``counts``, both found in one pass over the states."""

    def __new__(cls, states):
        self = super().__new__(cls, states)
        tops = []
        counts = []
        for s in self:
            d = [v - p for p, v in enumerate(s, start=1)]
            top = max(d)
            tops.append(top)
            counts.append(d.count(top))
        self.tops = tuple(tops)
        self.counts = tuple(counts)
        return self


@lru_cache(maxsize=128)
def _support_tables(poset: Poset, cap: int) -> _Support | None:
    """The extensions with displacement at most cap, in enumeration order, or
    None at every cap when the order has over SUPPORT_LIMIT extensions; cached
    either way. No displacement passes exact.reach, so every cap at or above
    it shares one support: its states' tops tell which coordinates sit at the
    cap."""
    reach = exact.reach(poset)
    if cap > reach:
        return _support_tables(poset, reach)
    if cap < reach and _support_tables(poset, reach) is None:
        return None
    try:
        return _Support(exact.enumerate_extensions(poset, SUPPORT_LIMIT, cap))
    except GuardError:
        return None


def _support_draw(support: _Support, bp: BetaParam, stream: BitStream) -> tuple[int, ...]:
    """An exact draw from the weights on support, the support at bp.cap:
    propose a state uniformly and keep it if bernoulli(pen) comes up 1 for
    each of its k coordinates at displacement exactly cap, stopping at the
    first 0, so it is kept with probability pen^k; else propose again. k is
    read from the support's cached counts: the state's count at its top,
    or 0 when the top is below the cap. Costs no bits when pen = 1 or there
    is one state."""
    cap, pen = bp.cap, bp.pen
    tops, counts = support.tops, support.counts
    uniform_int, bernoulli = stream.uniform_int, stream.bernoulli
    m = len(support)
    while True:
        j = uniform_int(m) - 1
        k = counts[j] if tops[j] == cap else 0
        while k and bernoulli(pen):
            k -= 1
        if not k:
            return support[j]


def _block(t: int, stream: BitStream, poset: Poset,
           bp: BetaParam) -> tuple[array, list | None, int]:
    """A block of t steps, drawn and run forward in one pass, 8 B per step:
    step k packed in block[2k] as i | up << 16 | gate << 17, i =
    uniform_int(n - 1), up one bit and gate bernoulli(pen), 1 if pen = 1, and
    the bound's right entry B(i + 1) before it in block[2k + 1]. The bound
    starts at initial_bound and moves on its own coins. Returns the block,
    the bound if no wildcard is left (the block is then constant), else None,
    and the probes made. i has 16 bits, so an order of over 2^16 elements is
    refused; a draw's first block, of 2 n^2 steps, fits MAX_STEPS only while
    n <= 7071."""
    n = poset.n
    if n - 1 >= 1 << 16:
        raise LinextError(f"block steps hold positions below 2^16; n = {n} is too large")
    uniform_int = stream.uniform_int
    next_bit = stream.next_bit
    bernoulli = stream.bernoulli
    cap, pen = bp.cap, bp.pen
    above = poset.raw_masks
    m = n - 1
    bnd = list(initial_bound(n))
    placed = 1
    probes = 0
    block = array("I", [0]) * (2 * t)
    for k in range(0, 2 * t, 2):
        i = uniform_int(m)
        up = next_bit()
        gate = 1 if pen == 1.0 else bernoulli(pen)
        block[k] = i | up << 16 | gate << 17
        block[k + 1] = bnd[i]
        if up:
            probes += _bound_step_inplace(bnd, i, 1, gate, cap, above)
            if not bnd[-1]:
                placed += 1
                bnd[-1] = placed
    return block, (bnd if placed == n else None), probes


def _bound_replay(poset: Poset, bp: BetaParam, sig: list, block: array) -> tuple[list, int]:
    """Run one state through a recorded bounding block in place, its coin c1
    flipped from the bound's c3 where its left element is the recorded entry.
    Returns the state and the probes made."""
    cap = bp.cap
    above = poset.raw_masks
    probes = 0
    for k in range(0, len(block), 2):
        step = block[k]
        i = step & 0xFFFF
        if step >> 16 & 1 ^ (sig[i - 1] == block[k + 1]):
            probes += _sigma_step_inplace(sig, i, 1, step >> 17, cap, above)
    return sig, probes


def _bounding_draw(t: int, stream: BitStream, poset: Poset, bp: BetaParam,
                   max_steps: int) -> tuple[list | None, int, int, int]:
    """CFTP on the bound: blocks of t, 2 t, 4 t, ... steps further into the
    past until one is constant, then its value replayed through the others,
    deepest first. Returns the draw, the steps, the blocks drawn and the
    probes; the draw is None when the next block would take the steps past
    max_steps, and is then not drawn."""
    steps = comps = 0
    blocks = []
    while True:
        if steps + t > max_steps:
            return None, steps, len(blocks), comps
        block, value, probes = _block(t, stream, poset, bp)
        steps += t
        comps += probes
        if value is not None:
            break
        blocks.append(block)
        t *= 2
    for block in reversed(blocks):
        value, probes = _bound_replay(poset, bp, value, block)
        steps += len(block) // 2
        comps += probes
    return value, steps, len(blocks) + 1, comps


def generate(bp: BetaParam, t: int, stream: BitStream,
             poset: Poset) -> tuple[tuple[int, ...], CftpStats]:
    """Draw one exact sample of the weighted extension distribution, the
    bounding chain starting from a block of t steps.

    Orders with at most SUPPORT_LIMIT extensions are drawn from their
    enumerated support, with only bits counted; all others run the bounding
    chain. Returns the sample together with its work accounting. Termination
    is probabilistic; rather than draw a block past MAX_STEPS steps in all,
    the call raises CoalescenceError.
    """
    if t < 1:
        raise LinextError("horizon t must be at least 1")
    if not poset.identity_is_extension:
        raise LinextError("poset must be canonicalized before sampling")
    bits0 = stream.bits_consumed
    support = _support_tables(poset, bp.cap)
    if support is not None:
        sigma = _support_draw(support, bp, stream)
        return sigma, CftpStats(bits_discrete=stream.bits_consumed - bits0)
    run = _bounding_draw if _kernel is None else _kernel.draw
    value, steps, levels, comps = run(t, stream, poset, bp, MAX_STEPS)
    if value is None:
        raise CoalescenceError(f"no collapse in {steps} steps; "
                               f"{steps + (t << levels)} pass {MAX_STEPS}")
    poset.add_queries(comps)
    stats = CftpStats(total_steps=steps, levels=levels,
                      bits_discrete=stream.bits_consumed - bits0, comparisons=comps)
    return tuple(value), stats


def perfect_sample(bp: BetaParam, stream: BitStream,
                   poset: Poset) -> tuple[tuple[int, ...], CftpStats]:
    """Draw one exact sample, starting from a block of 2 n^2 steps."""
    return generate(bp, 2 * poset.n * poset.n, stream, poset)
