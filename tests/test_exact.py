"""Exact oracles: counting, enumeration, the normalizer, and the kernel."""

import gc
import random

import numpy as np
import pytest

from linext import (
    BetaParam,
    GuardError,
    chain_kernel,
    count_exact,
    enumerate_extensions,
    partition_z,
    stationarity_gap,
    weight,
)
from linext.catalog import antichain_poset, chain_poset, random_poset

from conftest import SMALL_POSET_BUILDERS, brute_force_extensions


# -- count_exact --------------------------------------------------------------

def test_count_chain_is_one(chain5):
    assert count_exact(chain5) == 1


def test_count_antichain_is_factorial(antichain4):
    assert count_exact(antichain4) == 24


def test_count_two_pairs(pairs4):
    # C(4,2) interleavings of two independent 2-chains
    assert count_exact(pairs4) == 6
    assert count_exact(pairs4) == len(brute_force_extensions(pairs4))


def test_count_grid(grid23):
    # equals the standard Young tableaux count of the 2x3 rectangle
    assert count_exact(grid23) == 5
    assert count_exact(grid23) == len(brute_force_extensions(grid23))


def test_count_respects_cap():
    with pytest.raises(GuardError):
        count_exact(antichain_poset(5), max_n=4)


def test_count_leaves_no_reference_cycle():
    # the memo is freed when the call returns, not at the next cyclic GC
    poset = antichain_poset(6)
    gc.collect()
    gc.disable()
    try:
        count_exact(poset)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_count_matches_enumeration_on_random_posets():
    rng = random.Random(2024)
    for _ in range(30):
        poset = random_poset(rng, rng.randint(1, 8), rng.uniform(0.2, 0.8))
        assert count_exact(poset) == len(enumerate_extensions(poset))


# -- enumerate_extensions -----------------------------------------------------

def test_enumerate_single_pair():
    from linext import load_poset
    poset, _ = load_poset("n=2; 1<2")
    assert enumerate_extensions(poset) == [(1, 2)]


def test_enumerate_antichain_lexicographic():
    out = enumerate_extensions(antichain_poset(3))
    assert out == sorted(out)
    assert len(out) == 6


def test_enumerate_two_pairs_matches_brute_force(pairs4):
    assert enumerate_extensions(pairs4) == sorted(brute_force_extensions(pairs4))


def test_enumeration_guard():
    with pytest.raises(GuardError):
        enumerate_extensions(antichain_poset(8), guard=1000)


def test_enumeration_guard_stops_the_search_early():
    # 30! extensions: the guard trips after 100 of them are listed
    with pytest.raises(GuardError):
        enumerate_extensions(antichain_poset(30), guard=100)


def test_enumerate_beyond_exact_count_cap():
    # n above count_exact's cap, and deeper than Python's recursion limit, is
    # fine when the extensions are few
    assert enumerate_extensions(chain_poset(1200)) == [tuple(range(1, 1201))]


# -- partition_z --------------------------------------------------------------

def test_z_at_extremes(pairs4):
    n = pairs4.n
    assert partition_z(pairs4, BetaParam(float(n), n)) == pytest.approx(6.0)
    assert partition_z(pairs4, BetaParam(0.0, n)) == pytest.approx(1.0)


def test_z_antichain2_half(antichain2):
    # w((1,2)) = 1 and w((2,1)) = pen = 0.5, evaluated by hand
    assert partition_z(antichain2, BetaParam(0.5, 2)) == pytest.approx(1.5)


@pytest.mark.parametrize("builder", SMALL_POSET_BUILDERS)
def test_z_monotone_and_continuous_at_integers(builder):
    poset = builder()
    n = poset.n
    grid = sorted({0.0, 0.25, 0.5, 1.0, 1.3, 2.0, float(n)} | set(map(float, range(n + 1))))
    grid = [b for b in grid if b <= n]
    values = [partition_z(poset, BetaParam(b, n)) for b in grid]
    for lo, hi in zip(values, values[1:]):
        assert lo <= hi + 1e-12
    for k in range(n + 1):
        zk = partition_z(poset, BetaParam(float(k), n))
        for eps in (-1e-9, 1e-9):
            if 0.0 <= k + eps <= n:
                z_near = partition_z(poset, BetaParam(k + eps, n))
                assert abs(z_near - zk) <= 1e-6 * zk


# -- chain kernel and stationarity ---------------------------------------------

def test_kernel_antichain2_transition(antichain2):
    bp = BetaParam(0.5, 2)
    kernel = chain_kernel(antichain2, bp)
    i12 = kernel.index((1, 2))
    i21 = kernel.index((2, 1))
    assert kernel.probs[i12, i21] == pytest.approx(0.25)
    assert kernel.probs[i21, i12] == pytest.approx(0.5)


def test_kernel_chain_is_identity():
    kernel = chain_kernel(chain_poset(3), BetaParam(1.3, 3))
    assert kernel.probs.shape == (1, 1)
    assert kernel.probs[0, 0] == pytest.approx(1.0)


@pytest.mark.parametrize("builder", SMALL_POSET_BUILDERS)
def test_kernel_rows_sum_to_one(builder):
    poset = builder()
    bp = BetaParam(min(1.3, poset.n), poset.n)
    kernel = chain_kernel(poset, bp)
    assert np.allclose(kernel.probs.sum(axis=1), 1.0, atol=1e-12)
    assert (kernel.probs >= 0).all()


def test_stationarity_antichain2_by_hand(antichain2):
    # balance solved by hand: pi = (2/3, 1/3) at beta = 0.5
    bp = BetaParam(0.5, 2)
    kernel = chain_kernel(antichain2, bp)
    w = np.array([weight(s, bp) for s in kernel.support])
    pi = w / w.sum()
    assert pi == pytest.approx([2 / 3, 1 / 3])
    assert stationarity_gap(kernel, antichain2, bp) <= 1e-12


def test_stationarity_uniform_case(antichain4):
    bp = BetaParam(4.0, 4)
    kernel = chain_kernel(antichain4, bp)
    assert stationarity_gap(kernel, antichain4, bp) <= 1e-12


def test_stationarity_chain_is_exact():
    bp = BetaParam(2.0, 5)
    poset = chain_poset(5)
    assert stationarity_gap(chain_kernel(poset, bp), poset, bp) == 0.0


def test_kernel_guard():
    with pytest.raises(GuardError):
        chain_kernel(antichain_poset(7), BetaParam(7.0, 7), max_support=100)
