"""Bounding-chain update invariants and exactness of the perfect sampler."""

import itertools
import math
import random
from collections import Counter

import numpy as np
import pytest
from scipy.stats import chisquare

import linext.cftp as cftp
from linext import (
    THETA,
    BetaParam,
    BitStream,
    CoalescenceError,
    LinextError,
    StepDraw,
    bounding_chain_step,
    bounds,
    chain_step,
    count_exact,
    enumerate_extensions,
    generate,
    initial_bound,
    partition_z,
    perfect_sample,
    validate_bounding_state,
    weight,
)
from linext.catalog import antichain_poset, chain_poset, random_poset

from conftest import SMALL_POSET_BUILDERS


# -- bounds -----------------------------------------------------------------------

def test_bounds_pictorial_example():
    assert bounds((4, 2, 3, 1), (THETA, 4, 3, THETA))


def test_full_bound_pins_single_state(antichain4):
    b = (4, 3, 1, 2)
    matching = [s for s in itertools.permutations(range(1, 5)) if bounds(s, b)]
    assert matching == [(4, 3, 1, 2)]


def test_initial_bound_contains_everything():
    b = initial_bound(4)
    assert b == (THETA, THETA, THETA, 1)
    for sigma in itertools.permutations(range(1, 5)):
        assert bounds(sigma, b)


def test_validate_bounding_state(pairs4):
    validate_bounding_state((THETA, 2, 1, THETA), pairs4)
    with pytest.raises(LinextError):
        validate_bounding_state((THETA, 4, 1, THETA), pairs4)  # values not 1..p
    with pytest.raises(LinextError):
        # 1 precedes 3 in the order, so 3's slot may not sit left of 1's
        validate_bounding_state((3, 2, 1, THETA), pairs4)


# -- coupled step case analysis ------------------------------------------------------

def test_coupled_case_state_equals_bound_moves_in_lockstep(antichain4):
    # state and bound identical: they swap together or not at all
    bp = BetaParam(4.0, 4)
    sigma = b = (2, 1, 3, 4)
    s1, b1 = bounding_chain_step(sigma, b, bp, StepDraw(2, 1, 1), antichain4)
    assert s1 == b1 == (2, 3, 1, 4)
    s0, b0 = bounding_chain_step(sigma, b, bp, StepDraw(2, 0, 1), antichain4)
    assert s0 == sigma and b0 == b


def test_coupled_case_flip_keeps_bound(antichain4):
    # state's left element equals bound's right element: c1 = 1 flips to
    # c3 = 0, so the bound must not move while the state may
    bp = BetaParam(4.0, 4)
    sigma = (2, 1, 3, 4)
    b = (THETA, 2, 1, 3)
    s1, b1 = bounding_chain_step(sigma, b, bp, StepDraw(1, 1, 1), antichain4)
    assert s1 == (1, 2, 3, 4)
    assert b1[0] == THETA and b1[1] == 2
    assert bounds(s1, b1)


def test_theta_fill_introduces_next_value(antichain4):
    bp = BetaParam(4.0, 4)
    sigma = (1, 2, 3, 4)
    b = (THETA, 2, 1, THETA)  # two values present, wildcard in the last slot
    _, b1 = bounding_chain_step(sigma, b, bp, StepDraw(1, 0, 1), antichain4)
    assert b1[-1] == 3


def test_coupled_sigma_half_matches_chain_step(pairs4):
    # the state component of the coupled step is exactly the plain chain step
    rng = random.Random(31)
    bp = BetaParam(1.3, 4)
    sigma = (1, 2, 3, 4)
    b = initial_bound(4)
    stream = BitStream(31)
    for _ in range(400):
        draw = stream.draw_step(4, bp.pen)
        expected = chain_step(sigma, bp, draw, pairs4)
        sigma, b = bounding_chain_step(sigma, b, bp, draw, pairs4)
        assert sigma == expected


def test_coupled_step_counts_at_most_two_comparisons(antichain4):
    bp = BetaParam(1.3, 4)
    sigma = b = (2, 1, 3, 4)
    before = antichain4.query_count
    bounding_chain_step(sigma, b, bp, StepDraw(1, 1, 1), antichain4)
    assert antichain4.query_count - before <= 2


def test_theta_defuses_order_test_and_gate(antichain2):
    # wildcards are incomparable and exempt from the gate, so a c3 swap with a
    # wildcard always goes through
    bp = BetaParam(0.5, 2)
    sigma = (1, 2)
    b = (THETA, 1)
    s1, b1 = bounding_chain_step(sigma, b, bp, StepDraw(1, 0, 0), antichain2)
    # c1 = 0 flips nothing for the state; c3 = 1 - 0 = 1 because sigma(1) = B(2)
    assert s1 == (1, 2)
    assert b1 == (1, 2)  # bound swapped then filled: coalesced


def test_trajectory_invariants_random(pairs4):
    bp = BetaParam(1.3, 4)
    sigma = (1, 2, 3, 4)
    b = initial_bound(4)
    stream = BitStream(77)
    coalesced_at = None
    for step in range(2000):
        draw = stream.draw_step(4, bp.pen)
        sigma, b = bounding_chain_step(sigma, b, bp, draw, pairs4)
        assert bounds(sigma, b)
        validate_bounding_state(b, pairs4)
        assert weight(sigma, bp) > 0.0
        if coalesced_at is None and all(v != THETA for v in b):
            coalesced_at = step
        if coalesced_at is not None:
            # no wildcards left: the bound pins exactly one state, that state
            # is the driven one, and it is a valid extension
            assert sigma == b
            assert pairs4.is_linear_extension(b)
            matching = [s for s in itertools.permutations(range(1, 5)) if bounds(s, b)]
            assert matching == [b]
            if step > coalesced_at + 50:
                break
    assert coalesced_at is not None


# -- heat-bath pair update: exactness oracle -------------------------------------------

class _FixedU:
    def __init__(self, answer):
        self.answer = answer
        self.q = None

    def le(self, q, stream):
        self.q = q
        return self.answer


def _resample_kernel(poset, bp):
    """Exact one-step kernel of the pair-resampling update, built by driving
    the implementation through both coin outcomes and reading off the odds."""
    support = [s for s in enumerate_extensions(poset) if weight(s, bp) > 0.0]
    idx = {s: k for k, s in enumerate(support)}
    n = poset.n
    probs = np.zeros((len(support), len(support)))
    for s in support:
        row = idx[s]
        for i in range(1, n):
            u_hi = _FixedU(True)
            hi = cftp._resampled_tuple(s, i, u_hi, bp.cap, bp.pen, poset.raw_masks, None)
            u_lo = _FixedU(False)
            lo = cftp._resampled_tuple(s, i, u_lo, bp.cap, bp.pen, poset.raw_masks, None)
            if u_hi.q is None:  # forced outcome, no coin consulted
                probs[row, idx[hi]] += 1.0 / (n - 1)
            else:
                probs[row, idx[hi]] += u_hi.q / (n - 1)
                probs[row, idx[lo]] += (1.0 - u_hi.q) / (n - 1)
    return support, probs


@pytest.mark.parametrize("builder", SMALL_POSET_BUILDERS)
def test_resample_update_is_stationary(builder):
    poset = builder()
    n = poset.n
    if n < 2:
        return
    for beta in (0.25, 0.5, 1.0, 1.3, 2.0, float(n)):
        if beta > n:
            continue
        bp = BetaParam(beta, n)
        support, probs = _resample_kernel(poset, bp)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)
        w = np.array([weight(s, bp) for s in support])
        pi = w / w.sum()
        assert np.max(np.abs(pi @ probs - pi)) <= 1e-12


def test_resample_merges_twin_states(antichain4):
    # states differing only in the redrawn pair map to the same result
    bp = BetaParam(4.0, 4)
    for answer in (True, False):
        a = cftp._resampled_tuple((1, 3, 2, 4), 2, _FixedU(answer), bp.cap, bp.pen,
                                  antichain4.raw_masks, None)
        b = cftp._resampled_tuple((1, 2, 3, 4), 2, _FixedU(answer), bp.cap, bp.pen,
                                  antichain4.raw_masks, None)
        assert a == b


# -- generate / perfect_sample --------------------------------------------------------

def test_generate_chain_returns_identity(chain5):
    sigma, stats = generate(BetaParam(2.0, 5), 4, BitStream(1), chain5)
    assert sigma == (1, 2, 3, 4, 5)
    assert stats.total_steps == 0  # singleton support needs no walk


def test_perfect_sample_n1():
    poset = chain_poset(1)
    sigma, stats = perfect_sample(BetaParam(1.0, 1), BitStream(5), poset)
    assert sigma == (1,)
    assert stats.total_steps == 0


def test_perfect_sample_reproducible(pairs4):
    bp = BetaParam(1.3, 4)
    a = perfect_sample(bp, BitStream(123), pairs4)
    b = perfect_sample(bp, BitStream(123), pairs4)
    assert a[0] == b[0]
    assert a[1].as_dict() == b[1].as_dict()


def test_generate_uniform_small_chi_square():
    poset = antichain_poset(3)
    bp = BetaParam(3.0, 3)
    stream = BitStream(321)
    tally = Counter(perfect_sample(bp, stream.fork(f"d/{k}"), poset)[0]
                    for k in range(3000))
    observed = [tally[s] for s in sorted(tally)]
    assert len(observed) == 6
    _, p = chisquare(observed)
    assert p >= 0.01


def test_generate_weighted_small_chi_square(pairs4):
    bp = BetaParam(0.5, 4)
    z = partition_z(pairs4, bp)
    stream = BitStream(654)
    tally = Counter(perfect_sample(bp, stream.fork(f"d/{k}"), pairs4)[0]
                    for k in range(3000))
    support = [s for s in enumerate_extensions(pairs4) if weight(s, bp) > 0.0]
    observed = [tally.get(s, 0) for s in support]
    expected = [3000 * weight(s, bp) / z for s in support]
    _, p = chisquare(observed, expected)
    assert p >= 0.01


# -- bounding-chain path: orders with more than SUPPORT_LIMIT extensions -----------

def _pooled_chi_square_p(poset, bp, draws, seed):
    """Chi-square p-value of perfect draws against the exact weights, with the
    cells expecting fewer than five draws pooled into one. Also checks that no
    draw falls outside the support."""
    assert count_exact(poset) > cftp.SUPPORT_LIMIT  # so the bounding chain runs
    z = partition_z(poset, bp)
    support = [s for s in enumerate_extensions(poset) if weight(s, bp) > 0.0]
    stream = BitStream(seed)
    tally = Counter(perfect_sample(bp, stream.fork(f"d/{k}"), poset)[0]
                    for k in range(draws))
    assert set(tally) <= set(support)
    observed, expected = [], []
    rest_observed = rest_expected = 0.0
    for s in support:
        e = draws * weight(s, bp) / z
        if e < 5.0:
            rest_observed += tally[s]
            rest_expected += e
        else:
            observed.append(tally[s])
            expected.append(e)
    observed.append(rest_observed)
    expected.append(rest_expected)
    return chisquare(observed, expected)[1]


def test_bounding_path_weighted_antichain_chi_square():
    poset = antichain_poset(8)  # L = 8! = 40320
    assert _pooled_chi_square_p(poset, BetaParam(0.5, 8), 640, 1) >= 0.01


def test_bounding_path_weighted_random_poset_chi_square():
    poset = random_poset(random.Random(2), 10, density=0.2)  # L = 34020
    assert _pooled_chi_square_p(poset, BetaParam(0.5, 10), 432, 1) >= 0.01


def test_bounding_path_stats_accounting():
    poset = antichain_poset(8)
    stream = BitStream(43)
    q0 = poset.query_count
    sigma, stats = perfect_sample(BetaParam(1.5, 8), stream, poset)
    assert poset.is_linear_extension(sigma)
    assert stats.bits_discrete == stream.bits_consumed
    assert stats.comparisons == poset.query_count - q0
    assert stats.total_steps > 0 and stats.levels >= 1


class _Script:
    """Stands in for a BitStream and serves a bounding block its draws
    (i, c3[, c2]) from a fixed list; running out means the block recursed."""

    def __init__(self, steps):
        self.draws = iter([x for step in steps for x in step])

    def uniform_int(self, m):
        return next(self.draws)

    def next_bit(self):
        return next(self.draws)

    def bernoulli(self, p):
        return next(self.draws)


def _bound_block(script, poset, bp):
    """The value of one bounding block driven by script, or None if it left a
    wildcard (the block then asks for the deeper past, which the script lacks)."""
    try:
        return tuple(cftp._bound_rec(len(script), _Script(script), poset, bp, cftp._Acc(40)))
    except StopIteration:
        return None


def test_bounding_block_two_elements_horizon_one(antichain2):
    bp = BetaParam(2.0, 2)
    assert _bound_block([(1, 1)], antichain2, bp) == (1, 2)
    assert _bound_block([(1, 0)], antichain2, bp) is None


@pytest.mark.parametrize("builder", SMALL_POSET_BUILDERS)
def test_coalesced_bounding_block_is_constant(builder):
    # Over every draw script of a short block: when the bound ends with no
    # wildcard, every support state driven by the coupled step with the derived
    # coin c1 (flipped from c3 where its left element is the bound's right
    # entry) ends at the block's value.
    poset = builder()
    n = poset.n
    if not 2 <= n <= 4:
        return
    t = n * (n - 1) // 2  # the fewest steps that can fill every wildcard
    for beta in ((0.5, 1.3, float(n)) if n < 4 else (2.0, float(n))):
        bp = BetaParam(beta, n)
        gates = (0, 1) if bp.pen < 1.0 else (1,)
        draws = [(i, c3, c2) for i in range(1, n) for c3 in (0, 1) for c2 in gates]
        support = [s for s in enumerate_extensions(poset) if weight(s, bp) > 0.0]
        coalesced = 0
        for steps in itertools.product(draws, repeat=t):
            script = [d if bp.pen < 1.0 else d[:2] for d in steps]
            value = _bound_block(script, poset, bp)
            if value is None:
                continue
            coalesced += 1
            for start in support:
                sigma, b = start, initial_bound(n)
                for i, c3, c2 in steps:
                    c1 = 1 - c3 if sigma[i - 1] == b[i] else c3
                    sigma, b = bounding_chain_step(sigma, b, bp, StepDraw(i, c1, c2), poset)
                assert sigma == b == value
        assert coalesced > 0


def test_generate_stats_accounting(antichain4):
    bp = BetaParam(4.0, 4)
    stream = BitStream(42)
    sigma, stats = perfect_sample(bp, stream, antichain4)
    assert antichain4.is_linear_extension(sigma)
    assert stats.bits_discrete == stream.bits_consumed
    assert stats.total_steps > 0
    assert stats.levels >= 1
    assert stats.comparisons > 0


def test_generate_rejects_uncanonical_poset():
    from linext import close_transitively
    poset = close_transitively([(2, 1)], 2)  # not canonicalized
    with pytest.raises(LinextError):
        generate(BetaParam(1.0, 2), 4, BitStream(1), poset)


def test_generate_level_cap():
    poset = antichain_poset(4)
    with pytest.raises(CoalescenceError):
        generate(BetaParam(4.0, 4), 1, BitStream(1), poset, max_levels=1)


def test_coalescence_monotone_in_beta():
    # contracting the support can only speed collapse up, within noise
    poset = antichain_poset(5)
    low = []
    high = []
    for k in range(150):
        _, st = perfect_sample(BetaParam(1.3, 5), BitStream(7000 + k), poset)
        low.append(st.total_steps)
        _, st = perfect_sample(BetaParam(5.0, 5), BitStream(7000 + k, "hi"), poset)
        high.append(st.total_steps)
    low = np.array(low, dtype=float)
    high = np.array(high, dtype=float)
    spread = 3.0 * math.sqrt(low.var(ddof=1) / len(low) + high.var(ddof=1) / len(high))
    assert low.mean() <= high.mean() + spread


def test_step_budget_small():
    n = 8
    poset = antichain_poset(n)
    bp = BetaParam(float(n), n)
    stream = BitStream(4242)
    steps = []
    for k in range(20):
        _, st = perfect_sample(bp, stream.fork(f"d/{k}"), poset)
        steps.append(st.total_steps)
    assert np.mean(steps) <= 4.3 * n ** 3 * math.log(n)
