"""Displacement weights and the Metropolis adjacent-transposition step."""

import random

import pytest

from linext import (
    BetaParam,
    BitStream,
    LinextError,
    StepDraw,
    chain_step,
    weight,
)
from linext.catalog import antichain_poset, chain_poset, random_poset

from conftest import SMALL_POSET_BUILDERS


# -- BetaParam -------------------------------------------------------------------

def test_beta_param_fields():
    bp = BetaParam(1.3, 4)
    assert bp.cap == 2
    assert bp.pen == pytest.approx(0.3)
    whole = BetaParam(2.0, 4)
    assert whole.cap == 2 and whole.pen == 1.0
    zero = BetaParam(0.0, 4)
    assert zero.cap == 0 and zero.pen == 1.0


@pytest.mark.parametrize("beta, cap, pen", [(1e-17, 1, 1e-17),
                                            (1.0000000000000002, 2, 2.0 ** -52)])
def test_beta_param_pen_just_above_an_integer(beta, cap, pen):
    # 1 + beta - cap rounds to 0.0 here; the pen is beta's exact excess over cap - 1
    bp = BetaParam(beta, 3)
    assert bp.cap == cap and bp.pen == pen
    first = cap + 1  # at displacement cap in position 1
    assert weight((first,) + tuple(v for v in (1, 2, 3) if v != first), bp) == pen


def test_beta_param_range_checks():
    with pytest.raises(LinextError):
        BetaParam(-0.1, 4)
    with pytest.raises(LinextError):
        BetaParam(4.5, 4)


@pytest.mark.parametrize("beta", [float("nan"), float("inf"), float("-inf")])
def test_beta_param_rejects_non_finite(beta):
    with pytest.raises(LinextError):
        BetaParam(beta, 4)


# -- weight and displacement --------------------------------------------------------

def test_weight_single_cap_coordinate():
    bp = BetaParam(1.3, 4)
    assert weight((3, 2, 4, 1), bp) == pytest.approx(0.3)


def test_weight_two_cap_coordinates():
    bp = BetaParam(1.3, 4)
    assert weight((3, 4, 1, 2), bp) == pytest.approx(0.09)


def test_weight_at_beta_n_is_one():
    bp = BetaParam(4.0, 4)
    for sigma in ((1, 2, 3, 4), (4, 3, 2, 1), (2, 4, 1, 3)):
        assert weight(sigma, bp) == 1.0


def test_weight_beyond_cap_is_zero():
    assert weight((3, 1, 2), BetaParam(1.0, 3)) == 0.0  # displacement 2 > cap 1


# -- chain_step -------------------------------------------------------------------

def test_step_gate_needs_c2_at_cap(antichain2):
    bp = BetaParam(0.5, 2)
    # moving 2 left reaches displacement 1 = cap, so the swap needs c2
    assert chain_step((1, 2), bp, StepDraw(1, 1, 1), antichain2) == (2, 1)
    assert chain_step((1, 2), bp, StepDraw(1, 1, 0), antichain2) == (1, 2)


def test_step_blocked_by_order():
    poset = chain_poset(2)
    bp = BetaParam(1.0, 2)
    assert chain_step((1, 2), bp, StepDraw(1, 1, 1), poset) == (1, 2)


def test_step_holds_without_c1(antichain4):
    bp = BetaParam(1.3, 4)
    assert chain_step((1, 2, 3, 4), bp, StepDraw(2, 0, 1), antichain4) == (1, 2, 3, 4)


def test_step_requires_support(antichain4):
    with pytest.raises(LinextError):
        chain_step((4, 1, 2, 3), BetaParam(1.0, 4), StepDraw(1, 1, 1), antichain4)


def test_step_counts_at_most_one_comparison(antichain4):
    bp = BetaParam(1.3, 4)
    before = antichain4.query_count
    chain_step((1, 2, 3, 4), bp, StepDraw(1, 0, 1), antichain4)
    assert antichain4.query_count == before  # no c1, no comparison
    chain_step((1, 2, 3, 4), bp, StepDraw(1, 1, 1), antichain4)
    assert antichain4.query_count == before + 1


def test_beta_n_gate_never_blocks():
    rng = random.Random(5)
    poset = antichain_poset(5)
    bp = BetaParam(5.0, 5)
    sigma = (1, 2, 3, 4, 5)
    for _ in range(500):
        i = rng.randint(1, 4)
        nxt = chain_step(sigma, bp, StepDraw(i, 1, 1), poset)
        assert nxt != sigma  # every c1=1 proposal on an antichain swaps
        sigma = nxt


@pytest.mark.parametrize("builder", SMALL_POSET_BUILDERS)
def test_support_closure_under_steps(builder):
    poset = builder()
    n = poset.n
    rng = random.Random(n * 7 + 1)
    for beta in (0.5, 1.3, float(n)):
        if beta > n:
            continue
        bp = BetaParam(beta, n)
        sigma = tuple(range(1, n + 1))
        stream = BitStream(n, label=f"sc/{beta}")
        for _ in range(300 if n > 1 else 1):
            if n == 1:
                break
            draw = stream.draw_step(n, bp.pen)
            sigma = chain_step(sigma, bp, draw, poset)
            assert weight(sigma, bp) > 0.0
            assert poset.is_linear_extension(sigma)


def test_step_on_random_posets_stays_in_support():
    rng = random.Random(77)
    for _ in range(20):
        n = rng.randint(2, 8)
        poset = random_poset(rng, n, rng.uniform(0.2, 0.7))
        bp = BetaParam(rng.uniform(0.1, n), n)
        sigma = tuple(range(1, n + 1))
        stream = BitStream(rng.getrandbits(32), label="rx")
        for _ in range(200):
            sigma = chain_step(sigma, bp, stream.draw_step(n, bp.pen), poset)
        assert weight(sigma, bp) > 0.0
