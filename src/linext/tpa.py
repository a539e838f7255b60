"""Nested-family contraction estimator for the number of linear extensions,
plus the one-dimensional interval demo and the classical product estimator.

One run starts at the shell parameter beta = n, draws a uniform point of the
current family member (a weighted perfect sample lifted to the continuum), and
contracts beta to the smallest parameter still containing the point, i.e. the
point's distance. The run ends once beta reaches the center at 0. The number
of draws before the final one is Poisson with mean ln of the shell/center
measure ratio, which here is ln L(P); summing over r runs and exponentiating
k/r estimates L(P).

The two-phase schedule first spends a few runs on a rough estimate of
A = ln L(P), then sizes the second phase so the final estimate lands within a
factor 1+epsilon of the truth with probability at least 1-delta.

Runs are independent given forked bit streams labeled by run index, so a run
partition executed serially or in parallel merges to identical results.
"""

from __future__ import annotations

import math
import multiprocessing
from dataclasses import dataclass, field

import numpy as np

from .bitrng import BitStream
from .chain import BetaParam
from .cftp import CftpStats, perfect_sample
from .embed import distance, lift
from .errors import LinextError
from .poset import Poset

DIAGNOSTIC_FLAG_Z = 4.0


@dataclass
class TpaRunResult:
    """Totals and per-run traces for a batch of contraction runs."""

    r: int
    k: int
    beta_traces: list[list[float]]
    samples_used: int
    stats: CftpStats

    @property
    def per_run_ks(self) -> list[int]:
        return [len(t) - 2 for t in self.beta_traces]

    @property
    def estimate(self) -> float:
        return math.exp(self.k / self.r)


@dataclass
class TwoPhaseEstimate:
    """Result of the two-phase schedule: the pilot phase, the sized main
    phase, and aggregate work accounting."""

    epsilon: float
    delta: float
    r1: int
    r2: int
    a_hat1: float
    l_hat2: float
    phase1: TpaRunResult
    phase2: TpaRunResult
    stats: CftpStats = field(default_factory=CftpStats)
    wall_s: float = 0.0


def phase1_runs(delta: float) -> int:
    """Pilot run count: ceil(2 ln(2/delta))."""
    if not 0.0 < delta < 1.0:
        raise LinextError(f"delta must be in (0, 1), got {delta}")
    return max(1, math.ceil(2.0 * math.log(2.0 / delta)))


def phase2_runs(a_hat: float, epsilon: float, delta: float) -> int:
    """Main run count: ceil(2 (A + sqrt(A) + 2) ln(4/delta) / (e'^2 - e'^3))
    with e' = ln(1 + epsilon)."""
    if not 0.0 < epsilon <= 1.0:
        raise LinextError(f"epsilon must be in (0, 1], got {epsilon}")
    if not 0.0 < delta < 1.0:
        raise LinextError(f"delta must be in (0, 1), got {delta}")
    if a_hat < 0.0:
        raise LinextError(f"a_hat must be nonnegative, got {a_hat}")
    ep = math.log1p(epsilon)
    denom = ep * ep - ep * ep * ep
    r2 = 2.0 * (a_hat + math.sqrt(a_hat) + 2.0) / denom * math.log(4.0 / delta)
    return max(1, math.ceil(r2))


def _single_run(poset: Poset, run_stream: BitStream) -> tuple[int, list[float], CftpStats]:
    n = poset.n
    beta = float(n)
    trace = [beta]
    stats = CftpStats()
    draws = 0
    while beta > 0.0:
        bp = BetaParam(beta, n)
        sigma, s = perfect_sample(bp, run_stream, poset)
        stats.merge(s)
        x = lift(sigma, bp, run_stream)
        beta = distance(x)
        trace.append(beta)
        draws += 1
    stats.bits_continuous = run_stream.bits_continuous
    return draws - 1, trace, stats


def _run_for_index(poset: Poset, seed: int, parent_label: str, idx: int):
    run_stream = BitStream(seed, f"{parent_label}/run/{idx}")
    return _single_run(poset, run_stream)


def _worker(args) -> list:
    poset, seed, parent_label, indices = args
    return [(i, *_run_for_index(poset, seed, parent_label, i)) for i in indices]


def tpa_runs(poset: Poset, r: int, stream: BitStream, parallel: int = 1) -> TpaRunResult:
    """Execute r contraction runs on forked streams labeled run/1..run/r.

    The run-index-to-stream map is fixed ahead of execution, so any partition
    of the indices over workers merges to the same totals and traces.
    """
    if r < 1:
        raise LinextError("need at least one run")
    if not poset.identity_is_extension:
        raise LinextError("poset must be canonicalized before estimating")
    indices = list(range(1, r + 1))
    if parallel > 1 and r > 1:
        chunks = [indices[w::parallel] for w in range(parallel)]
        chunks = [c for c in chunks if c]
        with multiprocessing.get_context("fork").Pool(len(chunks)) as pool:
            parts = pool.map(_worker, [(poset, stream.seed, stream.label, c) for c in chunks])
        rows = sorted((row for part in parts for row in part), key=lambda row: row[0])
    else:
        rows = [(i, *_run_for_index(poset, stream.seed, stream.label, i)) for i in indices]
    k = 0
    traces = []
    stats = CftpStats()
    samples = 0
    for _, k_run, trace, s in rows:
        k += k_run
        traces.append(trace)
        stats.merge(s)
        samples += k_run + 1
    return TpaRunResult(r=r, k=k, beta_traces=traces, samples_used=samples, stats=stats)


def two_phase(poset: Poset, epsilon: float, delta: float, stream: BitStream,
              parallel: int = 1, runs_override: int | None = None) -> TwoPhaseEstimate:
    """Run the pilot phase, size the main phase from it, and estimate L(P).

    runs_override, when given, replaces both phases' run counts (useful for
    experiments; the coverage guarantee only applies to the derived counts).
    """
    import time

    t_start = time.perf_counter()
    r1 = runs_override if runs_override is not None else phase1_runs(delta)
    if runs_override is None:
        phase2_runs(0.0, epsilon, delta)  # validate epsilon/delta up front
    phase1 = tpa_runs(poset, r1, stream.fork("phase/1"), parallel)
    a_hat1 = phase1.k / phase1.r
    r2 = runs_override if runs_override is not None else phase2_runs(a_hat1, epsilon, delta)
    phase2 = tpa_runs(poset, r2, stream.fork("phase/2"), parallel)
    l_hat2 = math.exp(phase2.k / phase2.r)
    stats = CftpStats()
    stats.merge(phase1.stats)
    stats.merge(phase2.stats)
    return TwoPhaseEstimate(
        epsilon=epsilon,
        delta=delta,
        r1=phase1.r,
        r2=phase2.r,
        a_hat1=a_hat1,
        l_hat2=l_hat2,
        phase1=phase1,
        phase2=phase2,
        stats=stats,
        wall_s=time.perf_counter() - t_start,
    )


def interval_tpa(n: int, r: int, stream: BitStream) -> TpaRunResult:
    """Contraction runs on the interval family [0, beta] inside [0, n] with
    center [0, 1]: per-run tallies are Poisson with mean ln n.

    Each draw uses the two-step scheme: a discrete index (the last cell is
    shortened to the fractional part of beta), then a fractional offset.
    """
    if n < 1:
        raise LinextError("n must be at least 1")
    if r < 1:
        raise LinextError("need at least one run")
    k = 0
    traces = []
    samples = 0
    stats = CftpStats()
    for idx in range(1, r + 1):
        s = BitStream(stream.seed, f"{stream.label}/run/{idx}")
        beta = float(n)
        trace = [beta]
        draws = 0
        while beta > 1.0:
            cap = math.ceil(beta)
            pen = 1.0 + beta - cap
            x = math.ceil(s.uniform_real() * beta)
            if x > cap:
                x = cap
            y = s.uniform_real()
            if x == cap:
                y *= pen
            beta = x - 1.0 + y
            trace.append(beta)
            draws += 1
        k += draws - 1 if draws else 0
        samples += draws
        traces.append(trace)
        stats.bits_continuous += s.bits_continuous
    return TpaRunResult(r=r, k=k, beta_traces=traces, samples_used=samples, stats=stats)


def product_estimator(n: int, samples_per_level: int, stream: BitStream) -> float:
    """Classical ratio-product counter over the halving schedule n,
    ceil(n/2), ceil(n/4), ..., 1; returns an unbiased estimate of 1/n
    (callers report its inverse)."""
    if n < 1:
        raise LinextError("n must be at least 1")
    if samples_per_level < 1:
        raise LinextError("need at least one sample per level")
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
    ks = np.asarray(list(per_run_ks), dtype=float)
    if ks.size < 2:
        raise LinextError("diagnostics need at least two runs")
    mean = float(ks.mean())
    var = float(ks.var(ddof=1))
    ratio = mean / var if var > 0.0 else None
    z = None
    flagged = False
    if reference is not None:
        sd = math.sqrt(reference / ks.size) if reference > 0.0 else 0.0
        z = (mean - reference) / sd if sd > 0.0 else (0.0 if mean == reference else math.inf)
        flagged = abs(z) > DIAGNOSTIC_FLAG_Z
    return PoissonReport(int(ks.size), mean, var, ratio, reference, z, flagged)
