"""Continuous embedding: lifts, distance, ceilings, and the family measure."""

import math
import random

import pytest

from linext import (
    BetaParam,
    BitStream,
    LinextError,
    count_exact,
    distance,
    lift,
    partition_z,
    weight,
)
from linext.catalog import antichain_poset

from conftest import SMALL_POSET_BUILDERS


def ceil_perm(x):
    """The permutation induced by coordinatewise ceilings; raises if the
    ceilings do not form a permutation of 1..n."""
    perm = tuple(math.ceil(v) for v in x)
    if sorted(perm) != list(range(1, len(x) + 1)):
        raise LinextError(f"ceilings {perm} are not a permutation of 1..{len(x)}")
    return perm


def in_family(x, beta, poset):
    """Oracle for membership in the nested family at parameter beta:
    coordinates in (0, n], ceilings form a linear extension, and distance at
    most beta."""
    n = poset.n
    if len(x) != n or any(not 0.0 < v <= n for v in x):
        return False
    try:
        perm = ceil_perm(x)
    except LinextError:
        return False
    return poset.is_linear_extension(perm) and distance(x) <= beta


def test_lift_intervals_by_hand(antichain2):
    # position 1 holds value 2 at displacement 1 = cap: only the first pen of
    # the cell; position 2 holds value 1, a full cell
    bp = BetaParam(0.5, 2)
    stream = BitStream(1)
    for _ in range(500):
        x = lift((2, 1), bp, stream)
        assert 1.0 < x[0] <= 1.5
        assert 0.0 < x[1] <= 1.0


def test_lift_full_cells_at_beta_n(antichain2):
    bp = BetaParam(2.0, 2)
    stream = BitStream(2)
    for _ in range(500):
        x = lift((2, 1), bp, stream)
        assert 1.0 < x[0] <= 2.0
        assert 0.0 < x[1] <= 1.0


def test_lift_ceiling_round_trip(pairs4):
    bp = BetaParam(1.3, 4)
    stream = BitStream(3)
    for sigma in ((1, 2, 3, 4), (2, 1, 4, 3), (1, 3, 2, 4)):
        for _ in range(100):
            assert ceil_perm(lift(sigma, bp, stream)) == sigma


def test_lift_rejects_zero_weight(antichain4=None):
    poset = antichain_poset(3)
    bp = BetaParam(1.0, 3)
    with pytest.raises(LinextError):
        lift((3, 1, 2), bp, BitStream(4))  # displacement 2 > cap


def test_lift_distance_bounded_by_beta(pairs4):
    stream = BitStream(5)
    for beta in (0.5, 1.3, 2.7, 4.0):
        bp = BetaParam(beta, 4)
        for sigma in ((1, 2, 3, 4), (2, 1, 3, 4)):
            if weight(sigma, bp) <= 0:
                continue
            for _ in range(200):
                assert distance(lift(sigma, bp, stream)) <= beta + 1e-12


def test_distance_examples():
    assert distance((0.7, 1.2)) == pytest.approx(-0.3)
    assert distance((1.0, 2.0, 3.0)) == 0.0


def test_ceil_perm_examples():
    assert ceil_perm((0.2, 1.7, 2.01)) == (1, 2, 3)
    assert ceil_perm((2.0, 0.5)) == (2, 1)
    with pytest.raises(LinextError):
        ceil_perm((0.5, 0.6))


def test_family_nesting(pairs4):
    bp = BetaParam(1.3, 4)
    stream = BitStream(6)
    for _ in range(300):
        x = lift((2, 1, 3, 4), bp, stream)
        assert in_family(x, 1.3, pairs4)
        assert in_family(x, 2.5, pairs4)
        assert in_family(x, 4.0, pairs4)


def test_contraction_identity(pairs4):
    # the smallest family parameter containing x is exactly distance(x)
    bp = BetaParam(2.6, 4)
    stream = BitStream(7)
    for _ in range(300):
        x = lift((2, 4, 1, 3), bp, stream)
        d = distance(x)
        assert in_family(x, d, pairs4)
        assert not in_family(x, d - 1e-9, pairs4)


@pytest.mark.parametrize("builder", SMALL_POSET_BUILDERS[:5])
def test_family_measure_matches_partition_function(builder):
    # Monte Carlo volume of the family against the exact normalizer
    poset = builder()
    n = poset.n
    if n > 3:
        return
    beta = 0.5 if n >= 1 else 0.5
    bp = BetaParam(min(beta, n), n)
    z = partition_z(poset, bp)
    rng = random.Random(n * 1000 + 9)
    trials = 200_000
    hits = sum(
        in_family(tuple(rng.uniform(0.0, n) for _ in range(n)), bp.beta, poset)
        for _ in range(trials)
    )
    target = z / (n ** n)
    sigma = math.sqrt(target * (1 - target) / trials)
    assert abs(hits / trials - target) <= 3 * sigma + 1e-9


def test_family_measure_extremes(antichain2):
    # shell measure equals the extension count, center measure equals one
    n = 2
    rng = random.Random(99)
    trials = 100_000
    hits_shell = hits_center = 0
    for _ in range(trials):
        x = (rng.uniform(0, n), rng.uniform(0, n))
        if in_family(x, float(n), antichain2):
            hits_shell += 1
        if in_family(x, 0.0, antichain2):
            hits_center += 1
    l_target = count_exact(antichain2) / n ** n
    c_target = 1.0 / n ** n
    assert abs(hits_shell / trials - l_target) <= 3 * math.sqrt(l_target / trials)
    assert abs(hits_center / trials - c_target) <= 3 * math.sqrt(c_target / trials)
