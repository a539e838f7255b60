"""Nested-family contraction estimator for the number of linear extensions,
plus the one-dimensional interval demo and the classical product estimator.

One run starts at the shell parameter beta = n, draws a uniform point of the
current family member, and contracts beta to the smallest parameter still
containing the point, i.e. the point's distance. The run ends once beta is at
or below the family's center. The number of draws before the final one is
Poisson with mean ln of the shell/center measure ratio; summing over r runs
and exponentiating k/r estimates that ratio. For linear extensions a draw is a
weighted perfect sample lifted to the continuum and the center is beta = 0, of
measure 1, so the ratio is L(P); the interval demo draws from [0, beta] with
center [0, 1], so the ratio is n.

The two-phase schedule first spends a few runs on a rough estimate of
A = ln L(P), then sizes the second phase so the final estimate lands within a
factor 1+epsilon of the truth with probability at least 1-delta.

Both families go through one contraction loop, ``_contract``, and one batch
runner, ``_contraction_runs``: run i draws from the bit stream forked with
label run/i, and the per-run tallies, traces and work counts are summed into
one TpaRunResult. The run-index-to-stream map is fixed ahead of execution, so
runs executed serially or over forked workers merge to identical results. A
parallel batch forks at most min(parallel, r, CPU count) workers, and the
comparisons its workers made are added to the parent poset's query counter
once. A batch of more than MAX_RUNS runs is refused before any run starts.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass, field

from .bitrng import BitStream
from .chain import BetaParam
from .cftp import CftpStats, perfect_sample
from .embed import distance, lift
from .errors import GuardError, LinextError
from .exact import _layered_sum, count_exact, reach
from .poset import Poset

DIAGNOSTIC_FLAG_Z = 4.0
MAX_RUNS = 10 ** 6  # most contraction runs in one batch
MAX_PRODUCT_SAMPLES = 10 ** 6  # most product-estimator samples per halving level


@dataclass
class TpaRunResult:
    """Totals and per-run traces for a batch of contraction runs."""

    r: int
    k: int
    beta_traces: list[list[float]]
    samples_used: int
    stats: CftpStats
    per_run_ks: list[int]


@dataclass
class TwoPhaseEstimate:
    """Result of the two-phase schedule: the pilot phase, the sized main
    phase, and aggregate work accounting. The runs stop at the cap center, of
    measure Z = exp(log_z_center); a_hat1 and a_hat2 are ln Z plus k / r of
    the pilot and the main phase, the estimates of ln L; l_hat2 is Z times
    exp(k / r) of the main phase, or inf when that is past the largest
    double."""

    epsilon: float
    delta: float
    r1: int
    r2: int
    a_hat1: float
    a_hat2: float
    l_hat2: float
    phase1: TpaRunResult
    phase2: TpaRunResult
    center: int
    log_z_center: float
    stats: CftpStats = field(default_factory=CftpStats)


def _check_accuracy(delta: float, epsilon: float | None = None) -> None:
    """Reject delta outside (0, 1) and epsilon outside (0, 1]; NaN fails both."""
    if not 0.0 < delta < 1.0:
        raise LinextError(f"delta must be in (0, 1), got {delta}")
    if epsilon is not None and not 0.0 < epsilon <= 1.0:
        raise LinextError(f"epsilon must be in (0, 1], got {epsilon}")


def phase1_runs(delta: float) -> int:
    """Pilot run count: ceil(2 ln(2/delta))."""
    _check_accuracy(delta)
    return max(1, math.ceil(2.0 * math.log(2.0 / delta)))


def phase2_runs(a_hat: float, epsilon: float, delta: float) -> int:
    """Main run count: ceil(2 (A + sqrt(A) + 2) ln(4/delta) / (e'^2 - e'^3))
    with e' = ln(1 + epsilon)."""
    _check_accuracy(delta, epsilon)
    if a_hat < 0.0:
        raise LinextError(f"a_hat must be nonnegative, got {a_hat}")
    ep = math.log1p(epsilon)
    denom = ep * ep - ep * ep * ep
    if not denom > 0.0:
        raise LinextError(f"epsilon {epsilon} is too small: e'^2 - e'^3 underflows to 0")
    r2 = 2.0 * (a_hat + math.sqrt(a_hat) + 2.0) / denom * math.log(4.0 / delta)
    if not math.isfinite(r2):
        raise LinextError(f"epsilon {epsilon} is too small: the run count overflows")
    return max(1, math.ceil(r2))


def _extension_step(poset: Poset, beta: float, stream: BitStream, stats: CftpStats) -> float:
    """One draw of the weighted-extension family: a perfect sample at beta,
    lifted to the continuum; returns the point's distance."""
    bp = BetaParam(beta, poset.n)
    sigma, s = perfect_sample(bp, stream, poset)
    stats.merge(s)
    return distance(lift(sigma, bp, stream))


def _interval_step(n: int, beta: float, stream: BitStream, stats: CftpStats) -> float:
    """One draw of the interval family [0, beta] by the two-step scheme: a
    discrete index (the last cell is shortened to the fractional part of
    beta), then a fractional offset."""
    bp = BetaParam(beta, n)
    x = math.ceil(stream.uniform_real() * beta)
    if x > bp.cap:
        x = bp.cap
    y = stream.uniform_real()
    if x == bp.cap:
        y *= bp.pen
    return x - 1.0 + y


def _contract(step, arg, shell: int, center: float, seed: int, label: str,
              idx: int) -> tuple[int, list[float], CftpStats]:
    """Run idx of a batch, on the stream labeled run/idx: contract beta from
    the shell by step(arg, beta, stream, stats) until it is at or below the
    center. The tally is the number of draws before the last one; when the
    shell is the center none is made."""
    stream = BitStream(seed, f"{label}/run/{idx}")
    beta = float(shell)
    trace = [beta]
    stats = CftpStats()
    while beta > center:
        beta = step(arg, beta, stream, stats)
        trace.append(beta)
    stats.bits_continuous = stream.bits_continuous
    return max(len(trace) - 2, 0), trace, stats


def _contraction_runs(step, arg, shell: int, center: float, r: int, stream: BitStream,
                      parallel: int) -> TpaRunResult:
    """Contract runs i = 1..r of one family, each on the stream labeled run/i
    under ``stream``, and sum the per-run rows (k, trace, stats). More than
    MAX_RUNS runs are refused before any starts."""
    if r < 1:
        raise LinextError("need at least one run")
    if r > MAX_RUNS:
        raise GuardError(f"{r} runs requested, over the limit {MAX_RUNS}")
    job = functools.partial(_contract, step, arg, shell, center, stream.seed, stream.label)
    workers = min(parallel, r, os.cpu_count() or 1)
    if workers > 1:
        import multiprocessing

        with multiprocessing.get_context("fork").Pool(workers) as pool:
            rows = pool.map(job, range(1, r + 1))
    else:
        rows = [job(i) for i in range(1, r + 1)]
    ks, traces, run_stats = map(list, zip(*rows))
    stats = CftpStats()
    for s in run_stats:
        stats.merge(s)
    if workers > 1 and isinstance(arg, Poset):
        arg.add_queries(stats.comparisons)  # the workers' counters died with them
    return TpaRunResult(r=r, k=sum(ks), beta_traces=traces,
                        samples_used=sum(len(t) - 1 for t in traces),
                        stats=stats, per_run_ks=ks)


def tpa_runs(poset: Poset, r: int, stream: BitStream, parallel: int = 1,
             center: int = 0) -> TpaRunResult:
    """Execute r contraction runs on forked streams labeled run/1..run/r, each
    from beta = n down to the cap center, an integer in [0, n]."""
    if not poset.identity_is_extension:
        raise LinextError("poset must be canonicalized before estimating")
    if not 0 <= center <= poset.n:
        raise LinextError(f"center must be in [0, {poset.n}], got {center}")
    return _contraction_runs(_extension_step, poset, poset.n, float(center), r, stream,
                             parallel)


def exact_center(poset: Poset) -> tuple[int, int]:
    """The center of ``linext estimate`` and its exact measure Z: n and L when
    count_exact counts L, so that no draw is made; else the last cap before
    the first of c = 1, 2, ... that the DP refuses at STATE_LIMIT, and its
    Z(c); 0 and 1 when the DP refuses cap 1. A wider band holds every ideal
    of a narrower one, so every cap past a refused one is refused too; from
    the reach up a band holds every ideal, as the count does, so once the
    count is refused only the caps below the reach are left to try."""
    try:
        return poset.n, count_exact(poset)
    except GuardError:
        pass
    center, z = 0, 1
    for c in range(1, reach(poset)):
        try:
            z = _layered_sum(poset, c, 1)
        except GuardError:
            break
        center = c
    return center, z


def two_phase(poset: Poset, epsilon: float, delta: float, stream: BitStream,
              parallel: int = 1, runs_override: int | None = None,
              center: int | None = 0) -> TwoPhaseEstimate:
    """Run the pilot phase, size the main phase from it, and estimate L(P).

    runs_override, when given, replaces both phases' run counts (useful for
    experiments; the coverage guarantee only applies to the derived counts).
    epsilon and delta are checked either way. The runs stop at the cap
    center, whose measure Z the DP counts, 1 at the default 0; None takes
    exact_center's. Phase 2 is sized on the pilot's k / r, the estimate of
    ln(L / Z).
    """
    _check_accuracy(delta, epsilon)
    z = None
    if center is None:
        center, z = exact_center(poset)
    r1 = runs_override if runs_override is not None else phase1_runs(delta)
    phase1 = tpa_runs(poset, r1, stream.fork("phase/1"), parallel, center)
    a1 = phase1.k / phase1.r
    r2 = runs_override if runs_override is not None else phase2_runs(a1, epsilon, delta)
    phase2 = tpa_runs(poset, r2, stream.fork("phase/2"), parallel, center)
    a2 = phase2.k / phase2.r
    if z is None:
        z = _layered_sum(poset, center, 1) if center else 1
    log_z = math.log(z)  # of the int, which may be past the largest double
    try:
        l_hat2 = z * math.exp(a2)
    except OverflowError:  # from exp, or from z as a double
        l_hat2 = math.inf
    stats = CftpStats()
    stats.merge(phase1.stats)
    stats.merge(phase2.stats)
    return TwoPhaseEstimate(
        epsilon=epsilon,
        delta=delta,
        r1=phase1.r,
        r2=phase2.r,
        a_hat1=log_z + a1,
        a_hat2=log_z + a2,
        l_hat2=l_hat2,
        phase1=phase1,
        phase2=phase2,
        center=center,
        log_z_center=log_z,
        stats=stats,
    )


def interval_tpa(n: int, r: int, stream: BitStream) -> TpaRunResult:
    """Contraction runs on the interval family [0, beta] inside [0, n] with
    center [0, 1]: per-run tallies are Poisson with mean ln n. n is at most
    2^53, so that the shell parameter float(n) is exact."""
    if n < 1:
        raise LinextError("n must be at least 1")
    if n > 2 ** 53:
        raise LinextError(f"n must be at most 2^53, got {n}")
    return _contraction_runs(_interval_step, n, n, 1.0, r, stream, 1)


def product_estimator(n: int, samples_per_level: int, stream: BitStream) -> float:
    """Classical ratio-product counter over the halving schedule n,
    ceil(n/2), ceil(n/4), ..., 1; returns an unbiased estimate of 1/n
    (callers report its inverse). More than MAX_PRODUCT_SAMPLES samples per
    level are refused before any draw."""
    if n < 1:
        raise LinextError("n must be at least 1")
    if samples_per_level < 1:
        raise LinextError("need at least one sample per level")
    if samples_per_level > MAX_PRODUCT_SAMPLES:
        raise GuardError(f"{samples_per_level} samples per level requested, over the limit "
                         f"{MAX_PRODUCT_SAMPLES}")
    prod = 1.0
    b_prev = n
    while b_prev > 1:
        b_next = (b_prev + 1) // 2
        hits = 0
        for _ in range(samples_per_level):
            if stream.uniform_int(b_prev) <= b_next:
                hits += 1
        prod *= hits / samples_per_level
        b_prev = b_next
    return prod


@dataclass
class PoissonReport:
    """Moment diagnostics of per-run tallies against the Poisson law."""

    count: int
    mean: float
    variance: float
    ratio: float | None
    reference: float | None
    z: float | None
    flagged: bool

    def as_dict(self) -> dict:
        return {
            "count": self.count,
            "mean": self.mean,
            "variance": self.variance,
            "mean_over_variance": self.ratio,
            "reference": self.reference,
            "z": self.z,
            "flagged": self.flagged,
        }


def poisson_diagnostics(per_run_ks, reference: float | None = None) -> PoissonReport:
    """Mean, sample variance, their ratio, and a z-score of the mean against a
    supplied reference log-count; |z| beyond 4 flags a mismatch."""
    from statistics import fmean, variance

    ks = list(per_run_ks)
    if len(ks) < 2:
        raise LinextError("diagnostics need at least two runs")
    mean = fmean(ks)
    var = float(variance(ks))  # an int when the ks are ints of whole variance
    ratio = mean / var if var > 0.0 else None
    z = None
    flagged = False
    if reference is not None:
        sd = math.sqrt(reference / len(ks)) if reference > 0.0 else 0.0
        z = (mean - reference) / sd if sd > 0.0 else (0.0 if mean == reference else math.inf)
        flagged = abs(z) > DIAGNOSTIC_FLAG_Z
    return PoissonReport(len(ks), mean, var, ratio, reference, z, flagged)
