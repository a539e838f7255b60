"""Acceptance harness binding the exact oracles to the samplers.

Each criterion is a function returning a CriterionResult with a one-line
detail string; the CLI ``selftest`` subcommand and the acceptance test module
both run these. Seeds are pinned so every run is reproducible.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from typing import Callable

from .bitrng import BitStream
from .budgets import (
    antichain_draw_work,
    sample_bits_bound,
    sample_comparisons_bound,
    sample_steps_bound,
)
from .catalog import (
    antichain_poset,
    chain_poset,
    grid_poset,
    random_poset,
    small_test_posets,
    two_pairs_poset,
)
from .cftp import bounding_chain_step, bounds, initial_bound, perfect_sample, validate_bounding_state
from .chain import BetaParam, weight
from .errors import LinextError
from .exact import chain_kernel, count_exact, enumerate_extensions, partition_z, stationarity_gap
from .poset import Poset
from .tpa import interval_tpa, poisson_diagnostics, product_estimator, tpa_runs, two_phase

SEED = 20260809


@dataclass
class CriterionResult:
    cid: int
    name: str
    passed: bool
    detail: str


def _result(cid, name, passed, detail) -> CriterionResult:
    return CriterionResult(cid, name, bool(passed), detail)


def criterion_1_exact_oracle() -> CriterionResult:
    """Known counts plus count/enumeration agreement on random posets."""
    checks = [
        (chain_poset(5), 1),
        (antichain_poset(4), 24),
        (two_pairs_poset(), 6),
        (grid_poset(2, 3), 5),
    ]
    for poset, expected in checks:
        if count_exact(poset) != expected:
            return _result(1, "exact-oracle", False,
                           f"count_exact={count_exact(poset)} expected {expected}")
    rng = random.Random(SEED)
    for trial in range(100):
        n = rng.randint(1, 9)
        poset = random_poset(rng, n, density=rng.uniform(0.2, 0.8))
        total = count_exact(poset)
        listed = len(enumerate_extensions(poset))
        if total != listed:
            return _result(1, "exact-oracle", False,
                           f"trial {trial}: DP {total} != enumeration {listed}")
    return _result(1, "exact-oracle", True,
                   "fixed counts and 100 random posets (n<=9) agree")


def criterion_2_chain_stationarity() -> CriterionResult:
    """Explicit kernel is stationary for the displacement weights."""
    worst = 0.0
    cases = 0
    for poset in small_test_posets():
        for beta in (0.25, 0.5, 1.0, 1.3, 2.0, float(poset.n)):
            if beta > poset.n:
                continue
            bp = BetaParam(beta, poset.n)
            gap = stationarity_gap(chain_kernel(poset, bp), poset, bp)
            worst = max(worst, gap)
            cases += 1
    return _result(2, "chain-stationarity", worst <= 1e-10,
                   f"max gap {worst:.3e} over {cases} (poset, beta) cases")


def criterion_3_bounding_invariants() -> CriterionResult:
    """Coupled state/bound steps never break compatibility or the bound
    vector's structural invariants."""
    rng = random.Random(SEED + 3)
    steps_done = 0
    target = 100_000
    trajectory = 0
    while steps_done < target:
        trajectory += 1
        n = rng.randint(2, 12)
        poset = random_poset(rng, n, density=rng.uniform(0.1, 0.7))
        beta = float(n) if rng.random() < 0.25 else rng.uniform(0.05, n)
        bp = BetaParam(beta, n)
        sigma = _random_support_state(rng, poset, bp)
        b = initial_bound(n)
        stream = BitStream(SEED + trajectory, label="bounding")
        for _ in range(min(500, target - steps_done)):
            draw = stream.draw_step(n, bp.pen)
            sigma, b = bounding_chain_step(sigma, b, bp, draw, poset)
            steps_done += 1
            if not bounds(sigma, b):
                return _result(3, "bounding-invariants", False,
                               f"bound lost the state (n={n}, beta={beta:.3f})")
            try:
                validate_bounding_state(b, poset)
            except LinextError as exc:
                return _result(3, "bounding-invariants", False, str(exc))
            if weight(sigma, bp) <= 0.0:
                return _result(3, "bounding-invariants", False,
                               f"state left the support (n={n}, beta={beta:.3f})")
    return _result(3, "bounding-invariants", True,
                   f"{steps_done} coupled steps over {trajectory} trajectories clean")


def _random_support_state(rng: random.Random, poset: Poset, bp: BetaParam):
    """A random linear extension with positive weight (identity fallback)."""
    n = poset.n
    for _ in range(20):
        remaining = set(range(1, n + 1))
        sigma = []
        while remaining:
            minimal = [e for e in remaining
                       if all(not poset.less(o, e) for o in remaining if o != e)]
            sigma.append(rng.choice(minimal))
            remaining.discard(sigma[-1])
        if weight(tuple(sigma), bp) > 0.0:
            return tuple(sigma)
    return tuple(range(1, n + 1))


def chi2_sf(x: float, k: int) -> float:
    """P(X > x) for X chi-square on k >= 1 degrees of freedom, in closed form:
    with h = x / 2, exp(-h) times the terms h^i / i! for i < k / 2 when k is
    even; erfc(sqrt(h)) plus exp(-h) times the terms h^(i + 1/2) / Gamma(i +
    3/2) for i < (k - 1) / 2 when k is odd."""
    h = x / 2.0
    odd = k % 2
    terms = [math.erfc(math.sqrt(h))] if odd else []
    term = math.exp(-h) * (2.0 * math.sqrt(h / math.pi) if odd else 1.0)
    for i in range(k // 2):
        terms.append(term)
        term *= h / (i + 1.5 if odd else i + 1.0)
    return math.fsum(terms)


def chisquare(observed, expected) -> tuple[float, float]:
    """Pearson's statistic of the tallies against the expected counts and its
    upper tail on one degree of freedom fewer than the cells, as
    scipy.stats.chisquare gives them. Sums that differ by more than 1e-8
    relative raise LinextError, as scipy raises."""
    got, want = sum(observed), math.fsum(expected)
    if abs(got - want) > 1e-8 * min(got, want):
        raise LinextError(f"observed sum {got} and expected sum {want!r} differ by more "
                          f"than 1e-8 relative")
    stat = math.fsum((o - e) ** 2 / e for o, e in zip(observed, expected))
    return stat, chi2_sf(stat, len(observed) - 1)


def criterion_4_sampler_distribution() -> CriterionResult:
    """Chi-square of 5000 perfect draws against exact weights."""
    details = []
    draws = 5000
    for poset in (two_pairs_poset(), grid_poset(2, 3)):
        for beta in (0.5, 1.3, float(poset.n)):
            bp = BetaParam(beta, poset.n)
            stream = BitStream(SEED + 4, label=f"dist/{poset.digest()}/{beta}")
            tally: Counter = Counter()
            for k in range(draws):
                sigma, _ = perfect_sample(bp, stream.fork(f"draw/{k}"), poset)
                tally[sigma] += 1
            z = partition_z(poset, bp)
            support = enumerate_extensions(poset, cap=bp.cap)
            observed = [tally.get(s, 0) for s in support]
            expected = [draws * weight(s, bp) / z for s in support]
            try:
                _, pvalue = chisquare(observed, expected)
            except LinextError as exc:
                details.append(f"n={poset.n} beta={beta}: {exc}")
                return _result(4, "sampler-distribution", False, "; ".join(details))
            details.append(f"n={poset.n} beta={beta}: p={pvalue:.4f}")
            if pvalue < 0.01:
                return _result(4, "sampler-distribution", False, "; ".join(details))
    return _result(4, "sampler-distribution", True, "; ".join(details))


def criterion_5_tpa_poisson() -> CriterionResult:
    """Per-run tallies have the right mean and unit mean/variance ratio."""
    details = []
    runs = 10_000
    for poset, label in ((two_pairs_poset(), "L=6"), (antichain_poset(4), "L=24")):
        log_l = math.log(count_exact(poset))
        res = tpa_runs(poset, runs, BitStream(SEED + 5, label=f"tpa/{label}"))
        diag = poisson_diagnostics(res.per_run_ks)
        mean = diag.mean
        ratio = math.inf if diag.ratio is None else diag.ratio  # None: no variance, a failure
        tol = 3.0 * math.sqrt(log_l / runs)
        details.append(f"{label}: mean={mean:.4f} (lnL={log_l:.4f} +- {tol:.4f}), "
                       f"mean/var={ratio:.3f}")
        if abs(mean - log_l) > tol or not 0.9 <= ratio <= 1.1:
            return _result(5, "tpa-poisson", False, "; ".join(details))
    return _result(5, "tpa-poisson", True, "; ".join(details))


def criterion_6_two_phase_coverage() -> CriterionResult:
    """Final estimates land within the multiplicative band often enough."""
    poset = two_pairs_poset()
    true_l = count_exact(poset)
    epsilon, delta = 0.3, 0.25
    trials = 200
    hits = 0
    root = BitStream(SEED + 6, label="coverage")
    for t in range(trials):
        est = two_phase(poset, epsilon, delta, root.fork(f"trial/{t}"))
        ratio = est.l_hat2 / true_l
        if 1.0 / (1.0 + epsilon) <= ratio <= 1.0 + epsilon:
            hits += 1
    freq = hits / trials
    return _result(6, "two-phase-coverage", freq >= 0.75,
                   f"{hits}/{trials} within factor {1 + epsilon} of L={true_l} "
                   f"(epsilon={epsilon}, delta={delta})")


def criterion_7_interval_demo() -> CriterionResult:
    """Interval contraction tallies and product-estimator unbiasedness."""
    n, runs = 100, 10_000
    res = interval_tpa(n, runs, BitStream(SEED + 7, label="interval"))
    mean = res.k / res.r
    tol = 3.0 * math.sqrt(math.log(n) / runs)
    if abs(mean - math.log(n)) > tol:
        return _result(7, "interval-demo", False,
                       f"k/r={mean:.4f} outside ln {n} +- {tol:.4f}")
    reps = 100_000
    stream = BitStream(SEED + 77, label="product")
    total = 0.0
    for _ in range(reps):
        total += product_estimator(4, 1, stream)
    observed = total / reps
    sigma = math.sqrt((3.0 / 16.0) / reps)
    ok = abs(observed - 0.25) <= 3.0 * sigma
    return _result(7, "interval-demo", ok,
                   f"k/r={mean:.4f} in ln {n} +- {tol:.4f}; "
                   f"product mean={observed:.5f} vs 0.25 +- {3 * sigma:.5f}")


def criterion_8_budgets() -> CriterionResult:
    """Measured work per perfect draw stays under the a priori bounds."""
    details = []
    samples = 20
    for n in (8, 16, 32):
        mean_steps, mean_bits, mean_comps = antichain_draw_work(
            n, samples, BitStream(SEED + 8, label=f"budget/{n}"))
        ok = (mean_bits <= sample_bits_bound(n)
              and mean_comps <= sample_comparisons_bound(n)
              and mean_steps <= sample_steps_bound(n))
        details.append(f"n={n}: bits {mean_bits:.0f}<={sample_bits_bound(n):.0f}, "
                       f"comps {mean_comps:.0f}<={sample_comparisons_bound(n):.0f}, "
                       f"steps {mean_steps:.0f}<={sample_steps_bound(n):.0f}")
        if not ok:
            return _result(8, "budget-bounds", False, "; ".join(details))
    return _result(8, "budget-bounds", True, "; ".join(details))


def criterion_9_determinism() -> CriterionResult:
    """Identical seeds reproduce byte-identical stdout reports."""
    import contextlib
    import io

    from . import cli

    chain5 = "n=5; 1<2; 2<3; 3<4; 4<5"
    pairs = "n=4; 1<3; 2<4"
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        chain_path = f"{tmp}/chain5.posets"
        pairs_path = f"{tmp}/pairs.posets"
        with open(chain_path, "w") as fh:
            fh.write(chain5)
        with open(pairs_path, "w") as fh:
            fh.write(pairs)
        commands = [
            ["sample", "--input", pairs_path, "--beta", "1.3", "--count", "3",
             "--seed", "7", "--lift"],
            ["estimate", "--input", chain_path, "--epsilon", "0.5", "--delta",
             "0.2", "--seed", "7"],
            ["estimate", "--input", pairs_path, "--epsilon", "0.9", "--delta",
             "0.4", "--seed", "11", "--runs-override", "40"],
            ["interval-demo", "--n", "50", "--runs", "200", "--seed", "13"],
            ["bench", "--sizes", "8", "--samples", "3", "--seed", "17"],
        ]
        for argv in commands:
            outputs = []
            for _ in range(2):
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf), \
                        contextlib.redirect_stderr(io.StringIO()):
                    code = cli.main(argv)
                if code != 0:
                    return _result(9, "determinism", False,
                                   f"{argv[0]} exited {code}")
                outputs.append(buf.getvalue())
            if outputs[0] != outputs[1]:
                return _result(9, "determinism", False,
                               f"{argv[0]} output differs across reruns")
    return _result(9, "determinism", True,
                   f"{len(commands)} commands byte-identical across reruns")


CRITERIA: list[tuple[int, str, Callable[[], CriterionResult]]] = [
    (1, "exact-oracle", criterion_1_exact_oracle),
    (2, "chain-stationarity", criterion_2_chain_stationarity),
    (3, "bounding-invariants", criterion_3_bounding_invariants),
    (4, "sampler-distribution", criterion_4_sampler_distribution),
    (5, "tpa-poisson", criterion_5_tpa_poisson),
    (6, "two-phase-coverage", criterion_6_two_phase_coverage),
    (7, "interval-demo", criterion_7_interval_demo),
    (8, "budget-bounds", criterion_8_budgets),
    (9, "determinism", criterion_9_determinism),
]


def run_criteria(ids=None, log=None) -> list[CriterionResult]:
    """Run the selected criteria (all by default), logging one line each.
    Unknown ids are refused before any criterion runs."""
    unknown = sorted(set(ids or ()) - {cid for cid, _, _ in CRITERIA})
    if unknown:
        raise LinextError(f"unknown criterion ids: {unknown}")
    results = []
    for cid, name, fn in CRITERIA:
        if ids is not None and cid not in ids:
            continue
        res = fn()
        if log is not None:
            status = "PASS" if res.passed else "FAIL"
            log(f"criterion {cid} ({name}): {status} - {res.detail}")
        results.append(res)
    return results
