"""Contraction estimator: run law, two-phase schedule, interval demo, and the
product estimator."""

import math

import numpy as np
import pytest

from linext import (
    BitStream,
    LinextError,
    interval_tpa,
    phase1_runs,
    phase2_runs,
    poisson_diagnostics,
    product_estimator,
    tpa_runs,
    two_phase,
)
from linext import cftp, exact
from linext.catalog import antichain_poset, grid_poset

# -- tpa_runs -------------------------------------------------------------------

@pytest.mark.skipif(cftp._kernel is None, reason="the Python loops take about 90 s for these runs")
def test_runs_to_an_exact_center_tally_its_log_ratio():
    # TPA from beta = n down to the DP's center 5 on antichain(24): a run's
    # tally is Poisson with mean ln(24! / Z(5)), about 15.95
    poset = antichain_poset(24)
    a = math.log(math.factorial(24) / exact._layered_sum(poset, 5, 1))
    res = tpa_runs(poset, 20, BitStream(1, "center"), center=5)
    assert abs(res.k / 20 - a) <= 4 * math.sqrt(a / 20)


def test_chain_runs_give_zero_tallies(chain5):
    res = tpa_runs(chain5, 50, BitStream(1))
    assert res.k == 0
    assert all(k == 0 for k in res.per_run_ks)
    assert res.samples_used == res.r


def test_trace_shape(pairs4):
    res = tpa_runs(pairs4, 200, BitStream(2))
    assert res.samples_used == res.k + res.r
    for trace in res.beta_traces:
        assert trace[0] == 4.0
        assert trace[-1] <= 0.0
        for a, b in zip(trace, trace[1:]):
            assert b < a


def test_run_law_mean(pairs4):
    runs = 3000
    res = tpa_runs(pairs4, runs, BitStream(3))
    target = math.log(6)
    assert abs(res.k / res.r - target) <= 3 * math.sqrt(target / runs)


def test_parallel_equals_serial():
    poset = antichain_poset(6)  # 720 extensions: the bounding chain makes comparisons
    q0 = poset.query_count
    serial = tpa_runs(poset, 40, BitStream(4))
    q1 = poset.query_count
    parallel = tpa_runs(poset, 40, BitStream(4), parallel=3)
    assert serial.k == parallel.k
    assert serial.beta_traces == parallel.beta_traces
    assert serial.stats.as_dict() == parallel.stats.as_dict()
    # comparisons made in the workers reach the parent's counter once
    assert poset.query_count - q1 == q1 - q0 == serial.stats.comparisons > 0


def test_parallel_workers_bounded_by_runs_and_cpus(pairs4, monkeypatch):
    import multiprocessing
    import os
    ctx = multiprocessing.get_context("fork")
    sizes = []
    real_pool = ctx.Pool

    def counting_pool(processes=None, *args, **kwargs):
        sizes.append(processes)
        return real_pool(processes, *args, **kwargs)

    monkeypatch.setattr(ctx, "Pool", counting_pool)
    serial = tpa_runs(pairs4, 2, BitStream(4))
    huge = tpa_runs(pairs4, 2, BitStream(4), parallel=10**12)
    assert all(size <= 2 for size in sizes)
    assert (huge.k, huge.beta_traces, huge.samples_used, huge.per_run_ks) == \
        (serial.k, serial.beta_traces, serial.samples_used, serial.per_run_ks)
    assert huge.stats.as_dict() == serial.stats.as_dict()
    # one CPU: four runs asked for four workers run serially, with no pool
    sizes.clear()
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    one_cpu = tpa_runs(pairs4, 4, BitStream(4), parallel=4)
    assert sizes == []
    assert one_cpu.beta_traces == tpa_runs(pairs4, 4, BitStream(4)).beta_traces


def test_tpa_requires_canonical_poset():
    from linext import close_transitively
    poset = close_transitively([(2, 1)], 2)
    with pytest.raises(LinextError):
        tpa_runs(poset, 1, BitStream(5))


@pytest.mark.parametrize("center", [-1, 5])
def test_tpa_refuses_a_center_outside_0_n(pairs4, center):
    # below 0 no run would end, and past n no member of the family lies
    with pytest.raises(LinextError, match="center must be in"):
        tpa_runs(pairs4, 1, BitStream(5), center=center)


# -- two-phase schedule -------------------------------------------------------------

def test_phase1_formula():
    assert phase1_runs(0.25) == 5  # ceil(2 ln 8)
    assert phase1_runs(0.9) == math.ceil(2 * math.log(2 / 0.9))


def test_phase2_formula_arithmetic():
    a = math.log(6)
    eps, delta = 0.3, 0.25
    ep = math.log(1 + eps)
    expected = math.ceil(2 * (a + math.sqrt(a) + 2) / (ep * ep - ep ** 3)
                         * math.log(4 / delta))
    assert phase2_runs(a, eps, delta) == expected


def test_phase2_rejects_bad_args():
    with pytest.raises(LinextError):
        phase2_runs(1.0, 0.0, 0.25)
    with pytest.raises(LinextError):
        phase2_runs(1.0, 1.5, 0.25)
    with pytest.raises(LinextError):
        phase2_runs(1.0, 0.3, 1.0)


def test_two_phase_chain_is_exact(chain5):
    est = two_phase(chain5, 0.5, 0.2, BitStream(6))
    assert est.l_hat2 == 1.0
    assert est.r1 == phase1_runs(0.2)
    assert est.phase1.k == 0 and est.phase2.k == 0


@pytest.mark.parametrize("seed, l_hat2, r2, k1, k2, bits", [
    (1, 475.67966062585583, 607, 31, 3742, (110935, 2788860)),
    (2, 474.871137740075, 552, 27, 3402, (97337, 2535096)),
], ids=["seed1", "seed2"])
def test_two_phase_estimate_is_pinned(seed, l_hat2, r2, k1, k2, bits):
    # Pins the full estimator on the 3x4 grid (L = 462), every draw from its
    # support: a change to the bits a draw, a lift or a run reads moves these
    est = two_phase(grid_poset(3, 4), 0.5, 0.25, BitStream(seed))
    assert (est.l_hat2, est.r1, est.r2, est.phase1.k, est.phase2.k) == (l_hat2, 5, r2, k1, k2)
    assert est.stats.as_dict() == {"total_steps": 0, "levels": 0, "bits_discrete": bits[0],
                                   "bits_continuous": bits[1], "comparisons": 0}


def test_two_phase_runs_override(pairs4):
    est = two_phase(pairs4, 0.9, 0.4, BitStream(7), runs_override=25)
    assert est.r1 == 25 and est.r2 == 25


def test_two_phase_parallel_identical(pairs4):
    a = two_phase(pairs4, 0.9, 0.4, BitStream(8), runs_override=30)
    b = two_phase(pairs4, 0.9, 0.4, BitStream(8), runs_override=30, parallel=2)
    assert a.l_hat2 == b.l_hat2
    assert a.phase2.beta_traces == b.phase2.beta_traces


# -- interval demo -------------------------------------------------------------------

def test_interval_n1_always_zero():
    res = interval_tpa(1, 100, BitStream(9))
    assert res.k == 0
    assert res.samples_used == 0
    assert res.per_run_ks == [0] * 100


def test_interval_poisson_mean_and_variance():
    n, runs = 100, 10_000
    res = interval_tpa(n, runs, BitStream(10))
    ks = np.array(res.per_run_ks, dtype=float)
    target = math.log(n)
    assert abs(ks.mean() - target) <= 3 * math.sqrt(target / runs)
    ratio = ks.mean() / ks.var(ddof=1)
    assert 0.9 <= ratio <= 1.1


def test_interval_traces_decrease():
    res = interval_tpa(10, 50, BitStream(11))
    for trace in res.beta_traces:
        assert trace[0] == 10.0
        assert trace[-1] <= 1.0
        for a, b in zip(trace, trace[1:]):
            assert b < a


# -- product estimator ----------------------------------------------------------------

def test_product_n1_exact():
    assert product_estimator(1, 10, BitStream(12)) == 1.0


def test_product_n4_unbiased():
    stream = BitStream(13)
    reps = 20_000
    total = sum(product_estimator(4, 1, stream) for _ in range(reps))
    sigma = math.sqrt((3.0 / 16.0) / reps)
    assert abs(total / reps - 0.25) <= 3 * sigma


def test_product_large_n_accuracy():
    inv = product_estimator(1024, 10_000, BitStream(14))
    assert inv > 0
    assert abs(1.0 / inv - 1024) <= 0.1 * 1024


# -- diagnostics -------------------------------------------------------------------------

def test_diagnostics_all_zero():
    rep = poisson_diagnostics([0, 0, 0, 0])
    assert rep.mean == 0.0
    assert rep.variance == 0.0
    assert rep.ratio is None


def test_diagnostics_simulated_poisson():
    import random
    rng = random.Random(15)
    lam = 2.0
    def draw():
        # inverse-transform Poisson draw, independent of the package machinery
        u = rng.random()
        k, p, c = 0, math.exp(-lam), math.exp(-lam)
        while u > c:
            k += 1
            p *= lam / k
            c += p
        return k
    ks = [draw() for _ in range(10_000)]
    rep = poisson_diagnostics(ks, reference=lam)
    assert 0.9 <= rep.ratio <= 1.1
    assert not rep.flagged


def test_diagnostics_flags_mismatch():
    # tallies centred far from the claimed reference must be flagged
    ks = [5] * 1000
    rep = poisson_diagnostics(ks, reference=1.0)
    assert rep.flagged


def test_diagnostics_needs_two_runs():
    with pytest.raises(LinextError):
        poisson_diagnostics([1])
