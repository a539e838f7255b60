"""The three workloads: what one operation is, how its inputs are made from
the seed, how its result is checked, and which work counts it reports.

Every operation i of a run with seed s uses inputs derived from (s, i) only,
so the untraced and traced halves of a traced run repeat the same work and
must report identical counts. Library errors (GuardError, CoalescenceError
and the other LinextError subclasses) make an operation failed, not a crash.

Only names from ``linext.__all__`` are called; nothing ``_``-prefixed is
touched.
"""

from __future__ import annotations

import random
import time

import inputs


def draw_ok(lx, poset, bp, sigma, stats, bits_used: int, queries_used: int) -> bool:
    """A draw is a linear extension of positive weight whose reported bits
    and comparisons equal what its stream and poset counters saw."""
    try:
        extension = poset.is_linear_extension(sigma)
    except lx.LinextError:
        return False
    return (extension and lx.weight(sigma, bp) > 0.0
            and stats.bits_discrete == bits_used
            and stats.comparisons == queries_used)


class DrawChecker:
    """Stands in for ``linext.tpa.perfect_sample`` and checks every draw a
    contraction run makes. It costs a few microseconds per draw, well under
    one percent of the draw itself, and runs in both untraced and traced
    runs so the two do the same work."""

    def __init__(self, lx, module):
        self.lx = lx
        self.module = module
        self.orig = module.perfect_sample
        self.draws = 0
        self.bad = 0
        self.reference = None  # a calib.Reference to sample between draws
        self.paused = 0.0  # seconds spent in it, left out of operation time

    def __call__(self, bp, stream, poset, *args, **kwargs):
        if self.reference is not None:
            self.paused += self.reference.maybe()
        bits0 = stream.bits_consumed
        q0 = poset.query_count
        sigma, stats = self.orig(bp, stream, poset, *args, **kwargs)
        self.draws += 1
        if not draw_ok(self.lx, poset, bp, sigma, stats,
                       stream.bits_consumed - bits0, poset.query_count - q0):
            self.bad += 1
        return sigma, stats

    def install(self) -> None:
        self.module.perfect_sample = self

    def uninstall(self) -> None:
        self.module.perfect_sample = self.orig


class Workload:
    """Base: ``prepare`` builds inputs and fills first-call caches (this is
    what setup_s times), ``op(i)`` runs and checks operation i."""

    name = ""
    micro_shape = inputs.antichain(32)  # the poset the microbenchmarks step on

    def __init__(self, lx, seed: int):
        self.lx = lx
        self.seed = seed
        self.load_s = 0.0  # load_poset time of the prepared input, if any
        self.reference = None  # set by run_ops; long operations sample it inside

    def prepare(self) -> None:
        raise NotImplementedError

    def op(self, i: int) -> dict:
        raise NotImplementedError

    def more(self, i: int, elapsed: float, seconds: float, mean_op: float) -> bool:
        """Closed loop: start operation i if, at the mean operation time so
        far, at least half of it falls within the run."""
        return elapsed + mean_op / 2 <= seconds

    def close(self) -> None:
        pass

    def _load(self, text: str):
        t0 = time.perf_counter()
        poset, _ = self.lx.load_poset(text)
        self.load_s = time.perf_counter() - t0
        return poset


class DrawFree(Workload):
    """perfect_sample on the relation-free order, n = 32, beta = n."""

    name = "draw-free"
    N = 32

    def prepare(self) -> None:
        self.poset = self._load(inputs.antichain(self.N).text())
        self.bp = self.lx.BetaParam(self.N, self.N)

    def op(self, i: int) -> dict:
        lx = self.lx
        stream = lx.BitStream(self.seed, f"{self.name}/{i}")
        q0 = self.poset.query_count
        t0 = time.perf_counter()
        sigma, st = lx.perfect_sample(self.bp, stream, self.poset)
        dt = time.perf_counter() - t0
        queries = self.poset.query_count - q0
        ok = draw_ok(lx, self.poset, self.bp, sigma, st, stream.bits_consumed, queries)
        return {"time": dt, "ok": ok, "units": 1, "draws": 1,
                "steps": st.total_steps, "levels": st.levels,
                "bits": st.bits_discrete, "comps": st.comparisons, "queries": queries,
                "counts": (st.levels, st.total_steps, st.bits_discrete, st.comparisons)}


class EstimateGrid(Workload):
    """two_phase on the 3x4 grid (L = 462) at epsilon 0.5, delta 0.25."""

    name = "estimate-grid"
    ROWS, COLS = 3, 4
    EPSILON, DELTA = 0.5, 0.25
    micro_shape = inputs.grid(ROWS, COLS)

    def __init__(self, lx, seed: int):
        super().__init__(lx, seed)
        import linext.tpa

        # Installed before any tracer, so a tracer wraps the checked draw.
        self.checker = DrawChecker(lx, linext.tpa)
        self.checker.install()

    def prepare(self) -> None:
        lx = self.lx
        shape = inputs.grid(self.ROWS, self.COLS)
        self.poset = self._load(shape.text())
        self.truth = lx.count_exact(self.poset)
        self.truth_ok = self.truth == shape.count
        # One draw per cap fills the per-cap support cache inside cftp, which
        # every later draw at that cap reuses.
        n = self.poset.n
        for cap in range(n + 1):
            lx.perfect_sample(lx.BetaParam(cap, n), lx.BitStream(self.seed, f"warm/{cap}"),
                              self.poset)

    def op(self, i: int) -> dict:
        lx = self.lx
        stream = lx.BitStream(self.seed, f"{self.name}/{i}")
        q0 = self.poset.query_count
        bad0 = self.checker.bad
        draws0 = self.checker.draws
        self.checker.reference = self.reference
        self.checker.paused = 0.0
        t0 = time.perf_counter()
        est = lx.two_phase(self.poset, self.EPSILON, self.DELTA, stream, parallel=1)
        dt = time.perf_counter() - t0 - self.checker.paused
        self.checker.reference = None
        st = est.stats
        queries = self.poset.query_count - q0
        draws = est.phase1.samples_used + est.phase2.samples_used
        traces = est.phase1.beta_traces + est.phase2.beta_traces
        ok = (self.truth_ok and self.checker.bad == bad0
              and self.checker.draws - draws0 == draws
              and self.truth / (1 + self.EPSILON) <= est.l_hat2 <= self.truth * (1 + self.EPSILON)
              and est.r1 == lx.phase1_runs(self.DELTA)
              and est.r2 == lx.phase2_runs(est.a_hat1, self.EPSILON, self.DELTA)
              and st.comparisons == queries
              and all(_contracts(t) for t in traces))
        return {"time": dt, "ok": ok, "units": est.r1 + est.r2, "estimates": 1,
                "runs": est.r1 + est.r2, "r1": est.r1, "r2": est.r2, "draws": draws,
                "steps": st.total_steps, "levels": st.levels, "bits": st.bits_discrete,
                "bits_cont": st.bits_continuous, "comps": st.comparisons, "queries": queries,
                "counts": (est.r1, est.r2, est.phase1.k, est.phase2.k, draws, st.total_steps,
                           st.levels, st.bits_discrete, st.bits_continuous, st.comparisons)}

    def close(self) -> None:
        self.checker.uninstall()


def _contracts(trace: list[float]) -> bool:
    """A run's beta trace never grows and ends at or below 0, and only there."""
    return (trace[-1] <= 0.0 < min(trace[:-1])
            and all(a >= b for a, b in zip(trace, trace[1:])))


class CountWide(Workload):
    """load_poset + count_exact over the shapes in inputs.COUNT_WIDE."""

    name = "count-wide"
    SHAPES = inputs.COUNT_WIDE

    def prepare(self) -> None:
        self._order: dict[int, list] = {}

    def _instance(self, i: int):
        """The i-th operation's shape and text; each cycle of len(SHAPES)
        operations visits every shape once, in a seed-dependent order."""
        cycle, slot = divmod(i, len(self.SHAPES))
        if cycle not in self._order:
            self._order = {cycle: random.Random(f"{self.seed}/{cycle}").sample(
                self.SHAPES, len(self.SHAPES))}
        shape = self._order[cycle][slot]
        return shape, shape.text(random.Random(f"{self.seed}/{i}"))

    def op(self, i: int) -> dict:
        lx = self.lx
        shape, text = self._instance(i)
        t0 = time.perf_counter()
        poset, _ = lx.load_poset(text)
        t1 = time.perf_counter()
        count = lx.count_exact(poset)
        t2 = time.perf_counter()
        queries = poset.query_count
        return {"time": t2 - t0, "ok": count == shape.count, "units": 1, "counted": 1,
                "load_s": t1 - t0, "count_s": t2 - t1, "queries": queries,
                "counts": (shape.name, count, queries)}

    def more(self, i: int, elapsed: float, seconds: float, mean_op: float) -> bool:
        # Finish the cycle, so every shape is timed equally often.
        return i % len(self.SHAPES) != 0 or super().more(i, elapsed, seconds, mean_op)


WORKLOADS = {w.name: w for w in (DrawFree, EstimateGrid, CountWide)}

