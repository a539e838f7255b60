"""The self-test's chi-square, in the standard library, against scipy's."""

import math
import random

import pytest
from scipy import stats

from linext import selftest


def test_chi2_tail_matches_scipy():
    # both parities of k, from the bulk far into each tail
    for k in range(1, 121):
        for x in [0.0, 1e-9, 0.5, 5.0, 50.0, 300.0, 1000.0] + [f * k for f in
                                                               (0.01, 0.5, 1.0, 2.0, 4.0)]:
            want = stats.chi2.sf(x, k)
            assert selftest.chi2_sf(x, k) == pytest.approx(want, rel=1e-12, abs=0.0), (x, k)


def test_chisquare_matches_scipy():
    rng = random.Random(4)
    for cells in (2, 3, 6, 24, 60):
        weights = [rng.random() + 0.05 for _ in range(cells)]
        draws = 5000
        observed = [0] * cells
        for cell in rng.choices(range(cells), weights, k=draws):
            observed[cell] += 1
        expected = [draws * w / math.fsum(weights) for w in weights]
        stat, p = selftest.chisquare(observed, expected)
        want = stats.chisquare(observed, expected)
        assert stat == pytest.approx(want.statistic, rel=1e-12)
        assert p == pytest.approx(want.pvalue, rel=1e-12)


def test_criterion_4_fails_on_sums_that_differ(monkeypatch):
    # a normalizer off by 1e-6 makes the expected counts sum to 5000 / (1 +
    # 1e-6): scipy raises there, and the criterion fails and says why
    real = selftest.partition_z
    monkeypatch.setattr(selftest, "partition_z", lambda poset, bp: real(poset, bp) * (1 + 1e-6))
    result = selftest.criterion_4_sampler_distribution()
    assert not result.passed
    assert result.detail.startswith("n=4 beta=0.5: observed sum 5000 and expected sum ")
    assert result.detail.endswith("differ by more than 1e-8 relative")
