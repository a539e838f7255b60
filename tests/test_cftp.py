"""Bounding-chain update invariants and exactness of the perfect sampler."""

import ctypes
import itertools
import math
import os
import random
import shutil
import subprocess
import sys
import threading
import tracemalloc
from array import array
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.stats import chisquare

import linext.cftp as cftp
import linext.exact as exact
import linext.native as native
from linext import (
    THETA,
    BetaParam,
    BitStream,
    CoalescenceError,
    LinextError,
    Poset,
    StepDraw,
    bounding_chain_step,
    bounds,
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
    # Pins the draw and its accounting on each path, with the block loops in C
    # and in Python. A change to the support draw, the kernel, the coupling or
    # the order in which bits are drawn fails here and must say in its change
    # log why the new figures are right.
    for kernel in _block_paths():
        monkeypatch.setattr(cftp, "_kernel", kernel)
        _check_pinned_outputs(pairs4)


def _check_pinned_outputs(pairs4):
    sigma, stats = perfect_sample(BetaParam(1.3, 4), BitStream(123), pairs4)
    assert sigma == (2, 1, 4, 3)
    assert stats.as_dict() == {"total_steps": 0, "levels": 0, "bits_discrete": 7,
                               "bits_continuous": 0, "comparisons": 0}
    poset = antichain_poset(8)
    bp = BetaParam(1.5, 8)
    assert cftp._support_tables(poset, bp.cap) is None  # so the bounding chain runs
    sigma, stats = perfect_sample(bp, BitStream(43), poset)
    assert sigma == (3, 4, 5, 1, 6, 2, 8, 7)
    assert stats.as_dict() == {"total_steps": 2816, "levels": 4, "bits_discrete": 10500,
                               "bits_continuous": 0, "comparisons": 937}
    grid = grid_poset(3, 4)  # 462 extensions, all in the support at beta = n
    sigma, stats = perfect_sample(BetaParam(12.0, 12), BitStream(7), grid)
    assert sigma == (1, 2, 5, 6, 9, 3, 7, 10, 4, 11, 8, 12)
    assert stats.as_dict() == {"total_steps": 0, "levels": 0, "bits_discrete": 9,
                               "bits_continuous": 0, "comparisons": 0}


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
    assert cftp._support_tables(poset, 1) is None  # so the bounding chain runs
    assert _pooled_chi_square_p(poset, BetaParam(0.5, 8), 640, 1) >= 0.01


def test_bounding_path_weighted_random_poset_chi_square():
    poset = random_poset(random.Random(2), 10, density=0.2)  # L = 34020
    assert cftp._support_tables(poset, 1) is None  # so the bounding chain runs
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
    block = array("I", [0]) * (2 * len(script))
    for k, (i, c3, c2) in enumerate(script):
        block[2 * k] = i | c3 << 16 | c2 << 17
    _, value, _ = cftp._bound_forward(poset, bp, block)
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
                assert tuple(cftp._bound_replay(poset, bp, list(start), block)[0]) == value
        assert coalesced > 0


def test_support_tables_selected_by_extension_count():
    # The support draw is chosen by the order's extension count, the same at
    # every cap, not by the support at the draw's cap
    grid = grid_poset(3, 4)  # 462 extensions
    full = enumerate_extensions(grid)
    for cap in range(grid.n + 1):
        states = cftp._support_tables(grid, cap)
        assert list(states) == [s for s in full if max_displacement(s) <= cap]
    for poset in (antichain_poset(6), antichain_poset(8)):  # 720 and 40320 extensions
        assert all(cftp._support_tables(poset, cap) is None for cap in range(poset.n + 1))


def test_caps_above_the_reach_share_one_table():
    # no extension of the 3x4 grid moves an element more than 6 right, so
    # caps 6..12 hold every extension and one cached support serves them all;
    # its tops tell cap 6, where the states that reach 6 pay pen, from the rest
    grid = grid_poset(3, 4)
    states = cftp._support_tables(grid, 6)
    assert all(cftp._support_tables(grid, c) is states for c in range(6, 13))
    assert list(states) == enumerate_extensions(grid)
    assert cftp._support_tables(grid, 5) is not states
    assert states.tops == tuple(max_displacement(s) for s in states)
    assert states.counts == tuple(sum(v - p == max_displacement(s) for p, v in enumerate(s, 1))
                                  for s in states)


def _support_draw_by_coordinates(states, bp, stream):
    """Reference: the support draw testing each coordinate of a proposal for
    the cap, one bernoulli(pen) per coordinate there until one comes up 0."""
    cap, pen = bp.cap, bp.pen
    while True:
        s = states[stream.uniform_int(len(states)) - 1]
        if all(stream.bernoulli(pen) for p, v in enumerate(s, start=1) if v - p == cap):
            return s


def test_support_draw_reads_the_bits_of_the_per_coordinate_rule():
    grid = grid_poset(3, 4)
    for cap in range(grid.n + 1):
        states = enumerate_extensions(grid, cap=cap)
        for pen in ((1.0,) if cap == 0 else (1.0, 0.5, 0.3, 2.0 ** -20)):
            bp = BetaParam(cap - 1 + pen, grid.n)
            assert bp.cap == cap
            a = BitStream(23, f"support/{cap}/{pen}")
            b = BitStream(23, f"support/{cap}/{pen}")
            for _ in range(40):
                sigma, _ = perfect_sample(bp, a, grid)
                assert sigma == _support_draw_by_coordinates(states, bp, b)
                assert a.bits_consumed == b.bits_consumed
            assert a._rng.getstate() == b._rng.getstate()


def test_support_limit_keeps_the_set_path_up_to_the_3x4_grid():
    # The limit of 500 extensions sends the 3x4 grid (462) to the support draw
    # and antichain(6) (720) to the bound; moving the limit changes their draws
    assert cftp._support_tables(grid_poset(3, 4), 12) is not None
    assert cftp._support_tables(antichain_poset(6), 6) is None


def test_generate_stats_accounting(antichain4):
    # the bounding chain counts its steps, levels and comparisons
    poset = antichain_poset(6)
    stream = BitStream(42)
    sigma, stats = perfect_sample(BetaParam(6.0, 6), stream, poset)
    assert poset.is_linear_extension(sigma)
    assert stats.bits_discrete == stream.bits_consumed
    assert stats.total_steps > 0
    assert stats.levels >= 1
    assert stats.comparisons > 0
    # a support draw counts only its bits
    stream = BitStream(42)
    sigma, stats = perfect_sample(BetaParam(4.0, 4), stream, antichain4)
    assert antichain4.is_linear_extension(sigma)
    assert stats.bits_discrete == stream.bits_consumed > 0
    assert stats.total_steps == stats.levels == stats.comparisons == 0


def test_generate_rejects_uncanonical_poset():
    poset = close_transitively([(2, 1)], 2)  # not canonicalized
    with pytest.raises(LinextError):
        generate(BetaParam(1.0, 2), 4, BitStream(1), poset)


def test_generate_step_ceiling(monkeypatch):
    # blocks of 2, 4 and 8 steps fit under a ceiling of 14; the fourth, of 16,
    # is refused before it is drawn, on both loops
    monkeypatch.setattr(cftp, "MAX_STEPS", 14)
    poset = antichain_poset(8)
    for kernel in _block_paths():
        monkeypatch.setattr(cftp, "_kernel", kernel)
        stream = BitStream(1)
        with pytest.raises(CoalescenceError, match="no collapse in 14 steps"):
            generate(BetaParam(float(poset.n), poset.n), 2, stream, poset)


# -- support draw: orders with at most SUPPORT_LIMIT extensions -----------------------

@pytest.mark.parametrize("poset, beta, draws", [
    (antichain_poset(5), 1.02, 3000),
    (two_pairs_poset(), 0.01, 3000),
    (grid_poset(3, 3), 1.02, 3000),
])
def test_support_draw_rejecting_most_proposals_chi_square(poset, beta, draws):
    # pen is near 0, so most proposals have a coordinate at the cap and are
    # rejected: the kept draws must still follow the exact weights
    bp = BetaParam(beta, poset.n)
    states = cftp._support_tables(poset, bp.cap)
    assert states is not None
    assert partition_z(poset, bp) < 0.5 * len(states)  # the expected share kept
    assert _pooled_chi_square_p(poset, bp, draws, 1) >= 0.01


def test_support_draw_accounting():
    # a support draw counts its bits and nothing else, and makes no order test
    poset = grid_poset(3, 3)
    bp = BetaParam(2.02, poset.n)
    stream = BitStream(5)
    q0 = poset.query_count
    for _ in range(20):
        bits0 = stream.bits_consumed
        sigma, stats = perfect_sample(bp, stream, poset)
        assert poset.is_linear_extension(sigma) and weight(sigma, bp) > 0.0
        assert stats.as_dict() == {"total_steps": 0, "levels": 0,
                                   "bits_discrete": stream.bits_consumed - bits0,
                                   "bits_continuous": 0, "comparisons": 0}
    assert poset.query_count == q0


class _NoKernel:
    """A kernel that fails any use."""

    def __getattr__(self, name):
        raise AssertionError(f"the kernel's {name} was used")


def test_support_draw_is_the_same_with_and_without_the_kernel(monkeypatch):
    grid = grid_poset(3, 4)
    bp = BetaParam(3.05, grid.n)
    runs = []
    for kernel in _block_paths() + [_NoKernel()]:
        monkeypatch.setattr(cftp, "_kernel", kernel)
        stream = BitStream(9)
        runs.append([(s, st.as_dict()) for s, st in (perfect_sample(bp, stream, grid)
                                                     for _ in range(50))])
        runs[-1].append(stream.bits_consumed)
    assert all(run == runs[0] for run in runs)


def test_python_block_is_compact():
    # the Python loops keep a block as one array, 8 B per step (each step and
    # the bound's entry before it), so MAX_STEPS bounds a draw's memory with
    # or without the C kernel; a stream of builtins that allocate nothing
    # keeps the traced loop fast and leaves only the block to measure
    stream = SimpleNamespace(uniform_int=abs, next_bit=int, bernoulli=bool)
    tracemalloc.start()
    try:
        block = cftp._draw_block(10 ** 6, stream, 8, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(block) == 2 * 10 ** 6
    assert peak <= 9 * 10 ** 6


def test_block_refuses_positions_past_16_bits():
    # A step keeps its position in 16 bits. generate's first block has 2 n^2
    # steps, under MAX_STEPS only while n <= 7071, so a block on a wider order
    # is reached only by a call with a short horizon, and both block paths
    # refuse it. Building an order of 2^16 + 1 elements takes gigabytes (its
    # bit matrix), and the refusal reads only n, so a stand-in carries it.
    assert 2 * (1 << 16) ** 2 > cftp.MAX_STEPS
    wide = SimpleNamespace(n=(1 << 16) + 1)
    for kernel in _block_paths():
        run = cftp._bounding_draw if kernel is None else kernel.draw
        with pytest.raises(LinextError, match="2\\^16"):
            run(1, BitStream(1), wide, BetaParam(1.0, 2), cftp.MAX_STEPS)


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


def _advanced(seed, label, skip):
    """A stream that has drawn skip bits, so its next block starts mid-word."""
    stream = BitStream(seed, label)
    for _ in range(skip):
        stream.next_bit()
    return stream


def _one_block(poset, bp, t, seed, label, skip):
    """A draw whose ceiling is t, which admits exactly one block, by the
    Python loops and by the kernel, each from a stream advanced skip bits,
    with the stream's state after it."""
    runs = []
    for run in (cftp._bounding_draw, cftp._kernel.draw):
        stream = _advanced(seed, label, skip)
        runs.append((run(t, stream, poset, bp, t), _stream_state(stream)))
    return runs


@pytest.mark.skipif(cftp._kernel is None, reason="no C kernel was built")
def test_kernel_blocks_match_the_python_loops():
    # Every order x beta x horizon, from a stream advanced 0..300 bits so the
    # block starts mid-word: a one-block draw by the kernel draws the same
    # steps from the same bits as _block, so it gives the same value or
    # refusal, probes and steps and leaves the stream's bits, counter and
    # generator state as the Python loop does. Full draws cover the replay.
    case = constant = 0
    for poset in _kernel_orders():
        n = poset.n
        # beta = n, an integer cap, dyadic pens 0.5 and 0.75, a non-dyadic pen 0.3
        for beta in sorted({float(n), float(max(1, n // 2)), 1.5, 0.75, 1.3}):
            if beta > n:
                continue
            bp = BetaParam(beta, n)
            for t in (1, 255, 256, 257, 2 * n * n):
                case += 1
                ref, nat = _one_block(poset, bp, t, case, "kernel", case * 37 % 301)
                assert ref == nat, (n, beta, t)
                constant += ref[0][0] is not None
    assert 0 < constant < case


@pytest.mark.skipif(cftp._kernel is None, reason="no C kernel was built")
def test_kernel_table_blocks_match_the_python_loop():
    # Blocks of at least a step table's entries decode by table lookup. From
    # a stream advanced 0..300 bits, a one-block draw by the kernel gives
    # what the Python loop gives and leaves the stream as it does, for
    # m = n - 1 with no bits (1), a power of two, rejection after the first
    # chunk, a step of exactly 12 bits (2047 at pen 1) and chunks of 12 and 13
    # bits, and for pens whose expansions run past the table's bits. The
    # orders are relation-free; bp carries the pen exactly, as BetaParam may
    # not.
    case = 0
    for m in (1, 31, 32, 39, 2047, 4095, 4096, 5000):
        poset = Poset(m + 1, [0] * (m + 2))
        for t in (4096, 5003):
            for pen in (1.0, 0.5, 0.75, 0.3, 1 - 2 ** -53, 2 ** -20, 1e-300):
                case += 1
                bp = SimpleNamespace(cap=case % 3 + 1, pen=pen)
                ref, nat = _one_block(poset, bp, t, case, "table", case * 37 % 301)
                assert ref == nat, (t, m, pen)


@pytest.mark.skipif(cftp._kernel is None, reason="no C kernel was built")
def test_kernel_hands_back_the_stream_the_python_draws_leave():
    # The kernel makes words ahead of its reads and, at the end of a draw,
    # puts the generator back where taking each word only on reading from it
    # leaves it. On antichains 2..6, from streams advanced 0..299 bits, two
    # draws in turn by each path match, among them draws that end on a word
    # boundary, read only the buffered bits, take words across an MT19937
    # twist and take more words than one batch (256) holds. At pen 1 a step
    # on antichain(2) reads one bit, so a one-block draw of the bits left in
    # the word plus whole words ends on a boundary. A draw the ceiling refuses
    # before its first block leaves the stream as it was.
    seen = Counter()
    for skip in range(300):
        n = 2 + skip % 5
        poset = antichain_poset(n)
        bp = BetaParam((float(n), 1.3, 0.75, n / 2 + 0.1)[skip // 5 % 4], n)
        draws = [(2 * n * n, cftp.MAX_STEPS, poset, bp)] * 2
        draws += [(t, t, antichain_poset(2), BetaParam(2.0, 2))
                  for t in ([None, 70_000] if skip % 100 == 0 else [None])]
        runs = []
        for run in (cftp._bounding_draw, cftp._kernel.draw):
            stream = _advanced(skip, "hand-back", skip)
            before = _stream_state(stream)
            assert run(2 * n * n, stream, poset, bp, 2 * n * n - 1) == (None, 0, 0, 0)
            assert _stream_state(stream) == before
            out = []
            for t, max_steps, poset, draw_bp in draws:
                if t is None:  # a one-block draw to the end of a word
                    t = max_steps = stream._avail + 256 * (skip % 3) or 256
                avail, index = stream._avail, stream._rng.getstate()[1][-1]
                bits = stream.bits_consumed
                out.append((run(t, stream, poset, draw_bp, max_steps), _stream_state(stream)))
                if run is cftp._bounding_draw:
                    read = stream.bits_consumed - bits
                    words = max(0, -(-(read - avail) // 256))
                    seen["boundary"] += stream._avail == 0
                    seen["buffered"] += 0 < read <= avail
                    seen["twist"] += words > 0 and index + 8 * words > 624
                    seen["batch"] += words > 256
            runs.append(out)
        assert runs[0] == runs[1], skip
    assert all(seen[case] for case in ("boundary", "buffered", "twist", "batch")), seen


def _table_refills(avail, horizon):
    """Where the kernel's table path refills on a draw whose steps read one
    bit each: (the bits read, the bits held) at each refill, the words it
    makes starting at the second. The path loads 64 bits when fewer than 12
    are loaded, after refilling when fewer than 64 are held, and a refill
    makes 1, 2, 4, ... up to 256 words."""
    held, words, have, refills = avail, 1, 0, []
    for read in range(horizon):
        if have < 12:
            if held - read < 64:
                refills.append((read, held))
                held += 256 * words
                words = min(2 * words, 256)
            have = 64 - read % 8
        have -= 1
    return refills


@pytest.mark.skipif(cftp._kernel is None, reason="no C kernel was built")
def test_kernel_hands_back_a_refill_the_draw_did_not_read():
    # The table path refills before its 8-byte load, up to 63 bits before the
    # bits it holds run out. A draw that ends in those bits has read no word
    # of the refill, yet has made them: the generator must still go back to
    # where it was before them. At pen 1 a step on antichain(2) reads one
    # bit, so a one-block draw of t >= 4096 steps ends t bits on; from streams
    # advanced 0..255 bits, the t around each such refill past 4096 are drawn
    # by both paths.
    poset, bp = antichain_poset(2), BetaParam(2.0, 2)
    unread = 0
    for skip in (0, 1, 61, 130, 255):
        avail = _advanced(skip, "refill", skip)._avail
        for read, held in _table_refills(avail, 9000):
            for t in range(max(read - 1, 4096), held + 3):
                ref, nat = _one_block(poset, bp, t, skip, "refill", skip)
                assert ref == nat, (skip, t)
                unread += read < t <= held
    assert unread > 100


@pytest.mark.skipif(cftp._kernel is None, reason="no C kernel was built")
def test_kernel_mt_words_match_getrandbits():
    # The C generator makes what random.Random(s).getrandbits(256 w) makes,
    # from a state taken by getstate after 0..1900 outputs, so that words
    # cross the twist every 624 outputs, and the state it leaves, put back
    # by setstate, goes on as the Python generator does.
    mt_words = ctypes.CDLL(cftp._kernel.path).mt_words
    mt_words.argtypes = (ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p, ctypes.c_int64)
    mt_words.restype = ctypes.c_int64
    for seed in (0, 1, 5, 2 ** 40 + 3, 123456789):
        for skip in (0, 1, 7, 617, 620, 623, 624, 625, 1240, 1900):
            for w in (1, 3, 80, 160):
                rng = random.Random(seed)
                for _ in range(skip):
                    rng.getrandbits(32)
                version, state, gauss = rng.getstate()
                mt = array("I", state)
                buf = array("B", bytes(32 * w + 8))
                end = mt_words(mt.buffer_info()[0], w, buf.buffer_info()[0], 0)
                assert end == 256 * w
                assert int.from_bytes(buf, "little") == rng.getrandbits(256 * w)
                back = random.Random()
                back.setstate((version, tuple(mt), gauss))
                assert back.getstate() == rng.getstate()
                assert back.getrandbits(999) == rng.getrandbits(999)
    # words written from a bit that is not a byte's first
    rng = random.Random(9)
    mt = array("I", rng.getstate()[1])
    buf = array("B", bytes(80))
    assert mt_words(mt.buffer_info()[0], 2, buf.buffer_info()[0], 13) == 13 + 512
    assert int.from_bytes(buf, "little") == rng.getrandbits(512) << 13


def _draws(poset, bp, stream, count, t=None):
    """count draws from stream, with each draw's stats, the comparisons the
    poset counted and the stream's state after it, or the error's message."""
    out = []
    for _ in range(count):
        q0 = poset.query_count
        try:
            sigma, stats = generate(bp, t or 2 * poset.n ** 2, stream, poset)
            out.append((sigma, stats.as_dict(), poset.query_count - q0, _stream_state(stream)))
        except CoalescenceError as exc:
            out.append((str(exc), poset.query_count - q0, _stream_state(stream)))
    return out


def _chain_draws(run, poset, bp, stream, count):
    """count bounding-chain draws by run, cftp._bounding_draw or Kernel.draw,
    each with the stream's state after it."""
    out = []
    for _ in range(count):
        value, *work = run(2 * poset.n ** 2, stream, poset, bp, cftp.MAX_STEPS)
        out.append((value, work, _stream_state(stream)))
    return out


@pytest.mark.skipif(cftp._kernel is None, reason="no C kernel was built")
def test_kernel_draws_match_the_python_loops(monkeypatch):
    # Kernel.draw, one C call per draw on the stream's own generator, gives
    # the Python loops' draws: through generate, each sample, its CftpStats,
    # the comparisons counted and the stream's bits, counter and generator
    # state after it, or the same refusal by the step ceiling, from streams
    # advanced 0..300 bits, on the orders and betas of the block test,
    # antichain(2) and antichain(40). Where the order is drawn from its
    # support, Kernel.draw and _bounding_draw are called directly. The
    # ceiling, lowered to 300000 steps but for antichain(40) at beta 40,
    # refuses the draws at the smaller betas of antichain(32) and (40) after
    # blocks longer than one fetch of words.
    kernel = cftp._kernel
    cases = [(poset, beta) for poset in _kernel_orders()
             for beta in sorted({float(poset.n), float(max(1, poset.n // 2)), 1.5, 0.75, 1.3})
             if beta <= poset.n]
    cases += [(antichain_poset(2), 1.3), (antichain_poset(40), 6.5), (antichain_poset(40), 40.0)]
    drawn = refused = 0
    for case, (poset, beta) in enumerate(cases):
        bp = BetaParam(beta, poset.n)
        monkeypatch.setattr(cftp, "MAX_STEPS", 10 ** 8 if beta == 40 else 300_000)
        skip = case * 37 % 301
        count = 1 if poset.n == 40 else 2 if poset.n == 32 else 3
        if cftp._support_tables(poset, bp.cap) is None:
            runs = []
            for path in (None, kernel):
                monkeypatch.setattr(cftp, "_kernel", path)
                runs.append(_draws(poset, bp, _advanced(case, "draws", skip), count))
            refused += sum(len(draw) == 3 for draw in runs[0])
        else:
            runs = [_chain_draws(run, poset, bp, _advanced(case, "draws", skip), count)
                    for run in (cftp._bounding_draw, kernel.draw)]
        assert runs[0] == runs[1], (poset.n, beta)
        drawn += count
    assert drawn >= 80 and refused >= 4


def test_generate_step_ceiling_leaves_the_same_stream(monkeypatch):
    # A draw refused by the step ceiling has drawn the same blocks on both
    # paths: the error, the stream after it and the comparisons counted (none)
    # are the same, and so is the next draw under a ceiling it fits.
    poset = antichain_poset(8)
    bp = BetaParam(float(poset.n), poset.n)
    runs = []
    for path in _block_paths():
        monkeypatch.setattr(cftp, "_kernel", path)
        stream = _advanced(3, "ceiling", 101)
        monkeypatch.setattr(cftp, "MAX_STEPS", 300)
        refused = _draws(poset, bp, stream, 1, t=7)
        monkeypatch.setattr(cftp, "MAX_STEPS", 10 ** 8)
        runs.append(refused + _draws(poset, bp, stream, 1, t=7))
    assert runs[-1][0][0] == "no collapse in 217 steps; 441 pass 300"
    assert all(run == runs[-1] for run in runs)


def test_kernel_compiles_without_warnings(tmp_path):
    # The kernel's source builds with the package's flags and every common
    # warning made an error.
    if shutil.which("cc") is None:
        pytest.skip("no C compiler on the path")
    run = subprocess.run(["cc", *native.FLAGS, "-Wall", "-Wextra", "-Werror", "-o",
                          str(tmp_path / "kernel.so"), str(native.SOURCE)],
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr


def test_threads_sharing_a_poset_draw_as_they_do_alone():
    # Threads on one order, each on its own stream, on the bounding chain,
    # whose blocks run in the kernel (which releases the interpreter lock) or
    # in Python: each gets the draws and accounting it gets alone, so no
    # call's arrays are another's. Antichain(16)'s later blocks are long
    # enough to decode by table.
    for poset, count in ((antichain_poset(6), 150), (antichain_poset(16), 20)):
        bp = BetaParam(4.7, poset.n)
        assert cftp._support_tables(poset, bp.cap) is None

        def draws(j):
            stream = BitStream(j, "threads")
            return [(s, st.as_dict()) for s, st in (perfect_sample(bp, stream, poset)
                                                     for _ in range(count))]

        alone = [draws(j) for j in range(2)]
        got = [None, None]

        def run(j):
            got[j] = draws(j)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=run, args=(j,)) for j in range(2)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=120)
                assert not th.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert got == alone


def test_kernel_loads_when_a_compiler_is_present(tmp_path, pytestconfig):
    # The fallback must not hide a broken build: with a compiler on the path
    # the package's kernel exists, is shared by the sampler and the exact DP,
    # and a build is cached per source and opens.
    if shutil.which("cc") is None:
        pytest.skip("no C compiler on the path")
    if pytestconfig.getoption("--no-kernel"):
        pytest.skip("--no-kernel runs the Python loops")
    assert cftp._kernel is not None and exact._kernel is cftp._kernel
    kernel = native.build(cache=tmp_path)
    assert kernel is not None
    assert native.build(cache=tmp_path, cc=str(tmp_path / "no-cc")).path == kernel.path
    assert kernel._lib.draw is not None and kernel._lib.dp_layer is not None


def test_kernel_cache_is_keyed_on_the_flags(tmp_path, monkeypatch):
    # A cached object built with other compiler flags is not reused: other
    # flags name another object, which a missing compiler cannot build.
    if shutil.which("cc") is None:
        pytest.skip("no C compiler on the path")
    kernel = native.build(cache=tmp_path)
    monkeypatch.setattr(native, "FLAGS", native.FLAGS + ("-g",))
    assert native.build(cache=tmp_path, cc=str(tmp_path / "no-cc")) is None
    other = native.build(cache=tmp_path)
    assert kernel is not None and other is not None and other.path != kernel.path


def test_kernel_build_failures_fall_back(tmp_path, capfd, monkeypatch):
    # No compiler, a compile error, an unwritable cache and an object that
    # cannot be opened each give None, quietly; the Python loops then draw the
    # pinned figures. A read-only directory stops only users without the
    # right to override it, so a cache under a regular file stands in for it
    # where it does not. The stand-in compiler leaves a truncated object, as
    # a cut-off copy of the cache would.
    broken = tmp_path / "broken.c"
    broken.write_text("int block( {\n")
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
    truncating_cc.write_text('#!/bin/sh\nwhile [ "$1" != -o ]; do shift; done\n'
                             'printf "\\177ELF" > "$2"\n')
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
