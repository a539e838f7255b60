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

The second layer is the sampler, coupling from the past (Propp-Wilson), one
loop in ``generate``: draw and record a block of steps; until a block's
update map is certified constant, draw one twice as long further in the past,
up to MAX_STEPS steps in all; then replay the constant value through the
recorded blocks, deepest first. A certificate is a forward function, which
runs one block and returns its constant value or None, and a replay function,
which runs one state through a block. Every state on both
paths takes the same Metropolis step as ``chain_step``, with a move coin c1
that is fair given the state; only the way c1 is derived from the block's
recorded bit, and the certificate that the block map is constant, differ.
``generate`` picks the certificate from the input:

- Bounding chain (any order). The block draws the bound's own coins
  (i, c3, c2), which do not depend on any state, and records the bound's
  right entry B(i + 1) before each step. Every state then derives its coin as
  c1 = 1 - c3 when its left element equals that entry and c1 = c3 otherwise,
  so every start is driven along the same bound trajectory. A block that ends
  with no wildcard left therefore maps every state to the bound: it is
  constant.
- Explicit support (orders with at most ``SUPPORT_LIMIT`` extensions). The
  block draws (i, c, c2) and evolves the enumerated support as a set. Each
  state keys its coin to the pair at slots (i, i+1): c1 = c when the pair is
  ascending and 1 - c when it is descending. Twin states that differ only in
  that pair then propose opposite moves and merge whenever the gate lets the
  mover through, and a block that leaves one state is constant. On small
  supports this collapses far sooner than the bound does.

  The path is chosen by the order's extension count, the same at every cap.
  Each cap's support is kept with the keyed step as tables over support
  indices (``exact.Support``, whose kernel ``chain-diag`` checks) that hold
  each gate bit's outcome, keyed by slot, coin and gate. A step on the set is
  a few set operations on ints and the replay walks one index; neither
  decides the gate. The probes counted are exactly the chain's: one per state
  whose coin is up, whether or not its move goes through.

Either way the returned permutation is an exact draw from the weighted
distribution.

Drawing a block and the bounding chain's forward and replay also run in C
(``native``) when the kernel was built at import; ``_draw_block``,
``_bound_forward`` and ``_bound_replay`` are then its reference and, when
``_kernel`` is None, the loops that run. Both read the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Sequence

from . import exact, native
from .bitrng import BitStream, StepDraw
from .chain import BetaParam, _sigma_step_inplace, weight
from .errors import CoalescenceError, GuardError, LinextError
from .poset import Poset

THETA = 0  # wildcard bound entry: no restriction at all

MAX_STEPS = 10 ** 8  # most steps a draw's blocks may hold: 1 GB at the C kernel's 10 B per step
SUPPORT_LIMIT = 500  # most extensions tracked as an explicit set; past it the bound is faster

_kernel = native.build()  # the C block loops, or None to run the Python ones


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


@lru_cache(maxsize=128)
def _support_tables(poset: Poset, cap: int) -> exact.Support | None:
    """The support with displacement at most cap and its step tables, or None
    at every cap when the order has over SUPPORT_LIMIT extensions; cached
    either way. No extension moves v right of v - 1 - |below(v)|, so every cap
    above the reach, the largest of those, shares cap reach + 1's tables."""
    top = max(v - 1 - poset.below_mask(v).bit_count() for v in range(1, poset.n + 1)) + 1
    if cap > top:
        return _support_tables(poset, top)
    if cap < top and _support_tables(poset, top) is None:
        return None
    try:
        return exact.band_support(poset, cap, SUPPORT_LIMIT)
    except GuardError:
        return None


def _draw_block(t: int, stream: BitStream, n: int, pen: float) -> list:
    """A block's randomness as the lists [pos, up, gate]: per step the slot
    i = uniform_int(n - 1), one bit, and the gate bernoulli(pen), 1 if pen = 1."""
    uniform_int = stream.uniform_int
    next_bit = stream.next_bit
    bernoulli = stream.bernoulli
    m = n - 1
    pos = [0] * t
    up = [0] * t
    gate = [1] * t
    for k in range(t):
        pos[k] = uniform_int(m)
        up[k] = next_bit()
        if pen != 1.0:
            gate[k] = bernoulli(pen)
    return [pos, up, gate]


def _walk(tab: exact.Support, s: int, pos: list, up: list, gate: list, start: int = 0) -> tuple[int, int]:
    """Run one support index through steps start.. of a recorded block, as
    _set_forward runs the set; returns the final index and the probes made."""
    _, desc, moves = tab
    probes = 0
    for k in range(start, len(pos)):
        i = pos[k]
        c = up[k]
        if (s in desc[i]) != c:  # the keyed coin is up
            probes += 1
            s = moves[4 * i + 2 * c + gate[k]].get(s, s)
    return s, probes


def _set_forward(tab: exact.Support, block: list) -> tuple[int | None, int]:
    """Run the whole support through a recorded block. Returns the index every
    state ends on if one state is left (the block is then constant), else None,
    and the probes made, one per state whose keyed coin is up."""
    pos, up, gate = block
    support, desc, moves = tab
    states = set(range(len(support)))
    probes = 0
    for k in range(len(pos)):
        i = pos[k]
        c = up[k]
        down = len(states & desc[i])
        probes += len(states) - down if c else down
        step = moves[4 * i + 2 * c + gate[k]]
        hit = step.keys() & states
        if hit:
            states -= hit
            states.update(map(step.__getitem__, hit))
        if len(states) == 1:
            s, rest = _walk(tab, states.pop(), pos, up, gate, k + 1)
            return s, probes + rest
    return None, probes


def _bound_forward(poset: Poset, bp: BetaParam, block: list) -> tuple[list | None, int]:
    """Run the bound from initial_bound through a recorded block on its own
    coins, and append to the block the bound's right entry B(i + 1) before each
    step. Returns the bound if no wildcard is left (the block is then
    constant), else None, and the probes made."""
    pos, up, gate = block
    cap = bp.cap
    above = poset.raw_masks
    right = [0] * len(pos)
    bnd = list(initial_bound(poset.n))
    placed = 1
    probes = 0
    for k in range(len(pos)):
        i = pos[k]
        right[k] = bnd[i]
        if up[k]:
            probes += _bound_step_inplace(bnd, i, 1, gate[k], cap, above)
            if not bnd[-1]:
                placed += 1
                bnd[-1] = placed
    block.append(right)
    return (bnd if placed == poset.n else None), probes


def _bound_replay(poset: Poset, bp: BetaParam, sig: list, pos: list, up: list,
                  gate: list, right: list) -> tuple[list, int]:
    """Run one state through a recorded bounding block in place, its coin c1
    flipped from the bound's c3 where its left element is the recorded entry.
    Returns the state and the probes made."""
    cap = bp.cap
    above = poset.raw_masks
    probes = 0
    for k in range(len(pos)):
        i = pos[k]
        c1 = up[k] ^ (sig[i - 1] == right[k])
        if c1:
            probes += _sigma_step_inplace(sig, i, c1, gate[k], cap, above)
    return sig, probes


def generate(bp: BetaParam, t: int, stream: BitStream,
             poset: Poset) -> tuple[tuple[int, ...], CftpStats]:
    """Draw one exact sample of the weighted extension distribution, starting
    from a block of t steps.

    Orders with at most SUPPORT_LIMIT extensions track the explicit support;
    all others run the bounding chain. Returns the sample together with its
    work accounting. Termination is probabilistic; rather than draw a block
    past MAX_STEPS steps in all, the call raises CoalescenceError.
    """
    if t < 1:
        raise LinextError("horizon t must be at least 1")
    if not poset.identity_is_extension:
        raise LinextError("poset must be canonicalized before sampling")
    tab = _support_tables(poset, bp.cap)
    kernel = _kernel
    draw = _draw_block if kernel is None else kernel.draw_block
    if tab is None:
        forward = partial(_bound_forward if kernel is None else kernel.bound_forward, poset, bp)
        replay = partial(_bound_replay if kernel is None else kernel.bound_replay, poset, bp)
    elif len(tab.states) == 1:
        return tab.states[0], CftpStats()
    else:
        forward = partial(_set_forward, tab)
        replay = partial(_walk, tab)
    bits0 = stream.bits_consumed
    steps = comps = 0
    blocks = []
    while True:
        if steps + t > MAX_STEPS:
            raise CoalescenceError(f"no collapse in {steps} steps; {steps + t} pass {MAX_STEPS}")
        block = draw(t, stream, poset.n, bp.pen)
        value, probes = forward(block)
        steps += t
        comps += probes
        if value is not None:
            break
        blocks.append(block)
        t *= 2
    for block in reversed(blocks):
        value, probes = replay(value, *block)
        steps += len(block[0])
        comps += probes
    poset.add_queries(comps)
    stats = CftpStats(total_steps=steps, levels=len(blocks) + 1,
                      bits_discrete=stream.bits_consumed - bits0, comparisons=comps)
    return (tuple(value) if tab is None else tab.states[value]), stats


def perfect_sample(bp: BetaParam, stream: BitStream,
                   poset: Poset) -> tuple[tuple[int, ...], CftpStats]:
    """Draw one exact sample, starting from a block of 2 n^2 steps."""
    return generate(bp, 2 * poset.n * poset.n, stream, poset)
