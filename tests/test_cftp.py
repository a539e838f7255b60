"""Bounding-chain update invariants and exactness of the perfect sampler."""

import ctypes
import itertools
import math
import os
import random
import shutil
from collections import Counter

import numpy as np
import pytest
from scipy.stats import chisquare

import linext.cftp as cftp
import linext.native as native
from linext import (
    THETA,
    BetaParam,
    BitStream,
    CoalescenceError,
    LinextError,
    StepDraw,
    bounding_chain_step,
    bounds,
    canonicalize,
    chain_kernel,
    chain_step,
    close_transitively,
    enumerate_extensions,
    generate,
    initial_bound,
    partition_z,
    perfect_sample,
    validate_bounding_state,
    weight,
)
from linext.catalog import (
    antichain_poset,
    chain_poset,
    grid_poset,
    random_poset,
    two_pairs_poset,
    zigzag_poset,
)
from linext.chain import _sigma_step_inplace

from conftest import SMALL_POSET_BUILDERS, max_displacement


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


# -- explicit-support path: the pair-keyed Metropolis step ----------------------------

def _keyed_coin(sig, i, c):
    """Reference for the set path's move coin: c when the pair at slots
    (i, i+1) ascends, 1 - c when it descends."""
    return c if sig[i - 1] < sig[i] else 1 - c


def _keyed_step(sigma, i, c, c2, bp, poset):
    """Reference for the set path's step: the Metropolis step with its move
    coin keyed to the pair at slots (i, i+1). Returns the state and the probes
    made."""
    sig = list(sigma)
    probes = _sigma_step_inplace(sig, i, _keyed_coin(sig, i, c), c2, bp.cap, poset.raw_masks)
    return tuple(sig), probes


def _table_step(tab, k, i, c, c2):
    """The set path's step on one support index, through the cached tables:
    the one-step replay walk."""
    return cftp._walk(tab, k, [i], [c], [c2])


def _keyed_kernel(poset, bp):
    """Exact one-step kernel of the set path's table step, marginalized over
    its randomness: position i, the bit c the move coin is keyed from, and the
    gate c2."""
    tab = cftp._support_tables(poset, bp.cap)
    n = poset.n
    gates = [(1, 1.0)] if bp.pen == 1.0 else [(0, 1.0 - bp.pen), (1, bp.pen)]
    probs = np.zeros((len(tab.states), len(tab.states)))
    for k in range(len(tab.states)):
        for i in range(1, n):
            for c in (0, 1):
                for c2, p2 in gates:
                    nxt, _ = _table_step(tab, k, i, c, c2)
                    probs[k, nxt] += 0.5 * p2 / (n - 1)
    return list(tab.states), probs


def _literal_kernel(poset, bp):
    """Reference kernel: one chain_step on every (i, c1, c2), each weighted by
    its probability, as a dense matrix over the support."""
    support = enumerate_extensions(poset, cap=bp.cap)
    idx = {s: j for j, s in enumerate(support)}
    n = poset.n
    probs = np.zeros((len(support), len(support)))
    coin2 = [(1, bp.pen)] if bp.pen == 1.0 else [(0, 1.0 - bp.pen), (1, bp.pen)]
    for s in support:
        for i in range(1, n):
            for c1, p1 in ((0, 0.5), (1, 0.5)):
                for c2, p2 in coin2:
                    nxt = chain_step(s, bp, StepDraw(i, c1, c2), poset)
                    probs[idx[s], idx[nxt]] += p1 * p2 / (n - 1)
    return support, probs


@pytest.mark.parametrize("builder", SMALL_POSET_BUILDERS + [
    lambda: chain_poset(2), lambda: chain_poset(4), lambda: grid_poset(2, 3)])
def test_keyed_step_marginal_is_the_chain_kernel(builder):
    # the sparse kernel is the literal step's marginal off the diagonal, its
    # implied diagonal is the rest of the row, and the set step's marginal is
    # the literal one as well
    poset = builder()
    n = poset.n
    for beta in (0.25, 0.5, 1.0, 1.3, 2.0, float(n)):
        if beta > n:
            continue
        bp = BetaParam(beta, n)
        support, probs = _literal_kernel(poset, bp)
        kernel = chain_kernel(poset, bp)
        assert kernel.support == support
        dense = np.zeros_like(probs)
        dense[kernel.src, kernel.dst] = kernel.prob
        off = ~np.eye(len(support), dtype=bool)
        assert np.array_equal(dense[off], probs[off])
        assert np.allclose(probs.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        assert np.allclose(1.0 - dense.sum(axis=1), probs.diagonal(), rtol=0, atol=1e-12)
        keyed_support, keyed = _keyed_kernel(poset, bp)
        assert keyed_support == support
        assert np.array_equal(keyed, probs)


@pytest.mark.parametrize("builder", SMALL_POSET_BUILDERS)
def test_table_step_is_the_keyed_step(builder):
    # every support state x slot x bit x gate: the cached tables give the
    # reference step's state and its probe count
    poset = builder()
    n = poset.n
    for beta in (0.25, 0.5, 1.3, 2.0, float(n)):
        if beta > n:
            continue
        bp = BetaParam(beta, n)
        tab = cftp._support_tables(poset, bp.cap)
        assert list(tab.states) == [s for s in enumerate_extensions(poset) if weight(s, bp) > 0.0]
        for k, s in enumerate(tab.states):
            for i in range(1, n):
                for c in (0, 1):
                    for c2 in (0, 1):
                        nxt, probes = _table_step(tab, k, i, c, c2)
                        assert (tab.states[nxt], probes) == _keyed_step(s, i, c, c2, bp, poset)


def test_tables_store_only_descents_and_moves():
    # a 300-chain plus one free element: 301 extensions, each with at most two
    # incomparable adjacent pairs, so the tables stay near 3 |support| entries
    # (a move with each gate bit and its swap back) rather than (n - 1) |support|
    n = 301
    poset = canonicalize(close_transitively([(k, k + 1) for k in range(1, n - 1)], n))[0]
    tab = cftp._support_tables(poset, n)
    assert len(tab.states) == n
    free = sum(1 for s in tab.states for i in range(1, n)
               if not poset.less(s[i - 1], s[i]) and not poset.less(s[i], s[i - 1]))
    assert free == 2 * (n - 1)
    distinct = {id(m): m for m in tab.moves}.values()
    assert sum(map(len, distinct)) <= 1.5 * free
    assert sum(map(len, tab.desc)) <= free
    for i in range(1, n):
        assert tab.moves[4 * i] is tab.moves[4 * i + 1]  # a swap back needs no gate
        for c in (0, 1):
            up, down = tab.moves[4 * i + 2 * c + 1], tab.moves[4 * i + 2 * c]
            assert down.items() <= up.items()  # closing the gate only removes moves


def test_keyed_step_merges_twin_states(antichain4):
    # states differing only in the pair at slots (2, 3) propose opposite
    # moves, so with the gate open they land on the same state
    bp = BetaParam(4.0, 4)
    for c in (0, 1):
        a = _keyed_step((1, 3, 2, 4), 2, c, 1, bp, antichain4)
        b = _keyed_step((1, 2, 3, 4), 2, c, 1, bp, antichain4)
        assert a[0] == b[0]


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


def _block_paths():
    """The C kernel, when it was built, and the Python loops (None)."""
    return [k for k in (cftp._kernel,) if k is not None] + [None]


def test_perfect_sample_pinned_outputs(pairs4, monkeypatch):
    # Pins the draw and its accounting on each certificate, with the block
    # loops in C and in Python. A change to the kernel, the coupling or the
    # order in which bits are drawn fails here and must say in its change log
    # why the new figures are right.
    for kernel in _block_paths():
        monkeypatch.setattr(cftp, "_kernel", kernel)
        _check_pinned_outputs(pairs4)


def _check_pinned_outputs(pairs4):
    sigma, stats = perfect_sample(BetaParam(1.3, 4), BitStream(123), pairs4)
    assert sigma == (2, 1, 3, 4)
    assert stats.as_dict() == {"total_steps": 32, "levels": 1, "bits_discrete": 198,
                               "bits_continuous": 0, "comparisons": 32}
    poset = antichain_poset(8)
    bp = BetaParam(1.5, 8)
    assert cftp._support_tables(poset, bp.cap) is None  # so the bounding chain runs
    sigma, stats = perfect_sample(bp, BitStream(43), poset)
    assert sigma == (3, 4, 5, 1, 6, 2, 8, 7)
    assert stats.as_dict() == {"total_steps": 2816, "levels": 4, "bits_discrete": 10500,
                               "bits_continuous": 0, "comparisons": 937}
    grid = grid_poset(3, 4)  # 462 extensions, all in the support at beta = n
    sigma, stats = perfect_sample(BetaParam(12.0, 12), BitStream(7), grid)
    assert sigma == (1, 5, 2, 9, 6, 3, 10, 7, 4, 11, 8, 12)
    assert stats.as_dict() == {"total_steps": 1152, "levels": 2, "bits_discrete": 4975,
                               "bits_continuous": 0, "comparisons": 3209}


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
    assert cftp._support_tables(poset, bp.cap) is None  # so the bounding chain runs
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


def test_bounding_path_stats_accounting(monkeypatch):
    poset = antichain_poset(8)
    for kernel in _block_paths():
        monkeypatch.setattr(cftp, "_kernel", kernel)
        stream = BitStream(43)
        q0 = poset.query_count
        sigma, stats = perfect_sample(BetaParam(1.5, 8), stream, poset)
        assert poset.is_linear_extension(sigma)
        assert stats.bits_discrete == stream.bits_consumed
        assert stats.comparisons == poset.query_count - q0
        assert stats.total_steps > 0 and stats.levels >= 1


def _bound_block(script, poset, bp):
    """Run one bounding block whose steps (i, c3, c2) are script. Returns its
    value, or None if it left a wildcard, and the recorded block."""
    block = list(map(list, zip(*script)))
    value, _ = cftp._bound_forward(poset, bp, block)
    return (None if value is None else tuple(value)), block


def test_bounding_block_two_elements_horizon_one(antichain2):
    bp = BetaParam(2.0, 2)
    assert _bound_block([(1, 1, 1)], antichain2, bp)[0] == (1, 2)
    assert _bound_block([(1, 0, 1)], antichain2, bp)[0] is None


@pytest.mark.parametrize("builder", SMALL_POSET_BUILDERS)
def test_coalesced_bounding_block_is_constant(builder):
    # Over every draw script of a short block: when the bound ends with no
    # wildcard, every support state driven by the coupled step with the derived
    # coin c1 (flipped from c3 where its left element is the bound's right
    # entry) ends at the block's value, and so does its replay through the
    # recorded block.
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
            value, block = _bound_block(steps, poset, bp)
            if value is None:
                continue
            coalesced += 1
            for start in support:
                sigma, b = start, initial_bound(n)
                for i, c3, c2 in steps:
                    c1 = 1 - c3 if sigma[i - 1] == b[i] else c3
                    sigma, b = bounding_chain_step(sigma, b, bp, StepDraw(i, c1, c2), poset)
                assert sigma == b == value
                assert tuple(cftp._bound_replay(poset, bp, list(start), *block)[0]) == value
        assert coalesced > 0


@pytest.mark.parametrize("builder", SMALL_POSET_BUILDERS)
def test_coalesced_set_block_is_constant(builder):
    # Over seeded recorded blocks: when the set path reports one state left,
    # every support index walked through the same block ends there, and the
    # probes it counts are one per distinct live state whose coin is up.
    poset = builder()
    n = poset.n
    for beta in (0.5, 1.3, float(n)):
        bp = BetaParam(beta, n)
        tab = cftp._support_tables(poset, bp.cap)
        size = len(tab.states)
        coalesced = 0
        for seed in range(20):
            block = cftp._draw_block(n * n, BitStream(seed, f"set/{beta}"), n, bp.pen)
            value, probes = cftp._set_forward(tab, block)
            if value is None:
                continue
            coalesced += 1
            assert {cftp._walk(tab, k, *block)[0] for k in range(size)} == {value}
            live, total = set(range(size)), 0
            for i, c, g in zip(*block):
                moved = [cftp._walk(tab, k, [i], [c], [g]) for k in live]
                live = {k for k, _ in moved}
                total += sum(p for _, p in moved)
            assert live == {value} and total == probes
        assert coalesced > 0


def test_support_tables_selected_by_extension_count():
    # The set path is chosen by the order's extension count, the same at every
    # cap, not by the support at the draw's cap: chosen per cap, TPA runs on
    # antichain(6) (720 extensions, 2^5 at cap 1) took 5.2-5.8 ms each against
    # 1.5-2.0 ms on the bound alone (medians of 7 batches of 20 runs, 2-core x86)
    grid = grid_poset(3, 4)  # 462 extensions
    full = enumerate_extensions(grid)
    for cap in range(grid.n + 1):
        tab = cftp._support_tables(grid, cap)
        assert list(tab.states) == [s for s in full if max_displacement(s) <= cap]
    for poset in (antichain_poset(6), antichain_poset(8)):  # 720 and 40320 extensions
        assert all(cftp._support_tables(poset, cap) is None for cap in range(poset.n + 1))


def test_caps_above_the_reach_share_one_table():
    # no extension of the 3x4 grid moves an element more than 6 right, so
    # caps 7..12 hold every extension and one set of tables serves them all
    grid = grid_poset(3, 4)
    tab = cftp._support_tables(grid, 7)
    assert all(cftp._support_tables(grid, c) is tab for c in range(7, 13))
    assert list(tab.states) == enumerate_extensions(grid)
    assert cftp._support_tables(grid, 6) is not tab


def test_support_limit_keeps_the_set_path_up_to_the_3x4_grid():
    # Per TPA run the set path beats the bound on the 3x4 grid (462 extensions)
    # and loses to it on antichain(6) (720) and every larger order measured;
    # it also loses on some smaller orders, such as antichain(5) (120), which
    # the extension count still sends to it
    assert cftp._support_tables(grid_poset(3, 4), 12) is not None
    assert cftp._support_tables(antichain_poset(6), 6) is None


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
    poset = close_transitively([(2, 1)], 2)  # not canonicalized
    with pytest.raises(LinextError):
        generate(BetaParam(1.0, 2), 4, BitStream(1), poset)


def test_generate_step_ceiling(monkeypatch):
    # blocks of 2, 4 and 8 steps fit under a ceiling of 14; the fourth, of 16,
    # is refused before it is drawn, on both certificates and both loops
    monkeypatch.setattr(cftp, "MAX_STEPS", 14)
    for poset in (antichain_poset(4), antichain_poset(8)):
        for kernel in _block_paths():
            monkeypatch.setattr(cftp, "_kernel", kernel)
            stream = BitStream(1)
            with pytest.raises(CoalescenceError, match="no collapse in 14 steps"):
                generate(BetaParam(float(poset.n), poset.n), 2, stream, poset)


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


# -- the C kernel against the Python loops ---------------------------------------------

def _kernel_orders():
    return [antichain_poset(2), antichain_poset(3), two_pairs_poset(), grid_poset(2, 3),
            zigzag_poset(), random_poset(random.Random(4), 10, density=0.2), antichain_poset(32)]


def _stream_state(stream):
    return (stream.bits_consumed, stream._word, stream._avail, stream._rng.getstate())


@pytest.mark.skipif(cftp._kernel is None, reason="no C kernel was built")
def test_kernel_blocks_match_the_python_loops():
    # Every order x beta x horizon, from a stream advanced 0..300 bits so the
    # block starts mid-word: the kernel draws the same block from the same
    # bits, leaves the stream where the Python draw does, and its forward and
    # replay give the same values and probes.
    kernel = cftp._kernel
    case = 0
    for poset in _kernel_orders():
        n = poset.n
        # beta = n, an integer cap, dyadic pens 0.5 and 0.75, a non-dyadic pen 0.3
        for beta in sorted({float(n), float(max(1, n // 2)), 1.5, 0.75, 1.3}):
            if beta > n:
                continue
            bp = BetaParam(beta, n)
            for t in (1, 255, 256, 257, 2 * n * n):
                case += 1
                ref, nat = BitStream(case, "kernel"), BitStream(case, "kernel")
                for stream in (ref, nat):
                    for _ in range(case * 37 % 301):
                        stream.next_bit()
                block = cftp._draw_block(t, ref, n, bp.pen)
                arrays = kernel.draw_block(t, nat, n, bp.pen)
                assert [list(a) for a in arrays] == block
                assert _stream_state(nat) == _stream_state(ref)
                value, probes = cftp._bound_forward(poset, bp, block)
                nvalue, nprobes = kernel.bound_forward(poset, bp, arrays)
                assert list(arrays[3]) == block[3]
                assert (None if nvalue is None else list(nvalue), nprobes) == (value, probes)
                for start in [list(range(1, n + 1))] + ([value] if value else []):
                    sig = (ctypes.c_int32 * n)(*start)
                    got, got_probes = kernel.bound_replay(poset, bp, sig, *arrays)
                    want = cftp._bound_replay(poset, bp, list(start), *block)
                    assert (list(got), got_probes) == want
    with pytest.raises(LinextError):  # a state that does not fit the order
        kernel.bound_replay(poset, bp, (ctypes.c_int32 * (n + 1))(), *arrays)


def test_kernel_loads_when_a_compiler_is_present(tmp_path):
    # The fallback must not hide a broken build: with a compiler on the path
    # the package's kernel exists, a build is cached per source and opens.
    if shutil.which("cc") is None:
        pytest.skip("no C compiler on the path")
    assert cftp._kernel is not None
    kernel = native.build(cache=tmp_path)
    assert kernel is not None
    assert native.build(cache=tmp_path, cc=str(tmp_path / "no-cc")).path == kernel.path
    assert kernel._lib.draw_block is not None


def test_kernel_build_failures_fall_back(tmp_path, capfd, monkeypatch):
    # No compiler, a compile error, an unwritable cache and an object that
    # cannot be opened each give None, quietly; the Python loops then draw the
    # pinned figures. A read-only directory stops only users without the
    # right to override it, so a cache under a regular file stands in for it
    # where it does not. The stand-in compiler leaves a truncated object, as
    # a cut-off copy of the cache would.
    broken = tmp_path / "broken.c"
    broken.write_text("int draw_block( {\n")
    (tmp_path / "file").write_text("")
    readonly = tmp_path / "readonly"
    readonly.mkdir()
    readonly.chmod(0o555)
    unwritable = [tmp_path / "file" / "cache"]
    if not os.access(readonly, os.W_OK):
        unwritable.append(readonly)
    builds = [native.build(cache=tmp_path / "a", cc=str(tmp_path / "no-cc")),
              native.build(broken, tmp_path / "b")]
    builds += [native.build(cache=d) for d in unwritable]
    truncating_cc = tmp_path / "truncating-cc"
    truncating_cc.write_text('#!/bin/sh\nprintf "\\177ELF" > "$5"\n')
    truncating_cc.chmod(0o755)
    builds.append(native.build(cache=tmp_path / "c", cc=str(truncating_cc)))
    readonly.chmod(0o755)
    assert builds == [None] * len(builds)
    assert capfd.readouterr().out == ""
    monkeypatch.setattr(cftp, "_kernel", builds[0])
    poset = antichain_poset(8)
    sigma, stats = perfect_sample(BetaParam(1.5, 8), BitStream(43), poset)
    assert sigma == (3, 4, 5, 1, 6, 2, 8, 7) and stats.bits_discrete == 10500
    stream = BitStream(5)
    assert perfect_sample(BetaParam(1.0, 1), stream, chain_poset(1))[0] == (1,)
    assert stream.bits_consumed == 0
