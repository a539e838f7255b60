"""Command-line interface: exact counts, estimates, perfect samples, chain
diagnostics, the interval demo, budget benchmarks, and the acceptance
self-test.

Every invocation writes one machine-readable JSON report to stdout and a short
human summary (including wall time) to stderr. Reports are byte-identical for
identical inputs, seed, and version: anything nondeterministic, timing
included, stays out of stdout. Randomized subcommands require a seed or
generate one and print it. Exit codes: 0 success, 2 input error, 3 guard or
abort, 1 self-test failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

from . import __version__
from .bitrng import BitStream
from .budgets import (
    sample_bits_bound,
    sample_comparisons_bound,
    sample_steps_bound,
    total_bits_bound,
    total_bits_bound_as_printed,
)
from .catalog import antichain_poset
from .cftp import CftpStats, perfect_sample
from .chain import BetaParam
from .embed import lift
from .errors import CoalescenceError, GuardError, LinextError, ParseError
from .exact import chain_kernel, count_exact, partition_z, stationarity_gap
from .poset import Poset, Relabeling, load_poset
from .tpa import interval_tpa, poisson_diagnostics, product_estimator, two_phase

_DIAG_BETAS = (0.25, 0.5, 1.0, 1.3, 2.0)


def _emit(report: dict, summary: str, t_start: float) -> None:
    sys.stdout.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
    wall = time.perf_counter() - t_start
    sys.stderr.write(f"{summary} [wall {wall:.2f}s]\n")


def _load_input(path: str, fmt: str) -> tuple[Poset, Relabeling, dict]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read input file {path!r}: {exc}") from exc
    poset, relab = load_poset(text, fmt)
    meta = {"path": path, "n": poset.n, "digest": poset.digest()}
    return poset, relab, meta


def _positive_int(text: str) -> int:
    """argparse type of counts: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _resolve_seed(args, report: dict, warnings: list) -> int:
    if args.seed is not None:
        report["seed"] = args.seed
        return args.seed
    seed = int.from_bytes(os.urandom(8), "big")
    report["seed"] = seed
    warnings.append(f"no --seed given; generated seed {seed}")
    sys.stderr.write(f"note: generated seed {seed}\n")
    return seed


def _accounting(stats: CftpStats) -> dict:
    return {
        "bits_discrete": stats.bits_discrete,
        "bits_continuous": stats.bits_continuous,
        "comparisons": stats.comparisons,
        "total_steps": stats.total_steps,
    }


def _per_sample_bounds(n: int) -> dict:
    return {
        "bits_per_sample": sample_bits_bound(n),
        "comparisons_per_sample": sample_comparisons_bound(n),
        "steps_per_sample": sample_steps_bound(n),
    }


def _cmd_count_exact(args) -> int:
    t0 = time.perf_counter()
    poset, _, meta = _load_input(args.input, args.format)
    value = count_exact(poset, max_n=args.max_n)
    report = {
        "command": "count-exact",
        "input": meta,
        "results": {"L": value},
        "seed": None,
        "version": __version__,
        "warnings": [],
    }
    _emit(report, f"count-exact: L = {value} (n={poset.n})", t0)
    return 0


def _cmd_estimate(args) -> int:
    t0 = time.perf_counter()
    poset, _, meta = _load_input(args.input, args.format)
    warnings: list[str] = []
    report: dict = {"command": "estimate", "input": meta, "version": __version__}
    seed = _resolve_seed(args, report, warnings)
    est = two_phase(poset, args.epsilon, args.delta, BitStream(seed),
                    parallel=args.parallel, runs_override=args.runs_override)
    a_hat2 = math.log(est.l_hat2) if est.l_hat2 > 0 else 0.0
    report.update({
        "results": {
            "estimate": est.l_hat2,
            "log_estimate": a_hat2,
            "epsilon": est.epsilon,
            "delta": est.delta,
            "phases": {
                "phase1": {"r": est.r1, "k": est.phase1.k, "a_hat": est.a_hat1},
                "phase2": {"r": est.r2, "k": est.phase2.k},
            },
            "samples_used": est.phase1.samples_used + est.phase2.samples_used,
        },
        "accounting": _accounting(est.stats),
        "bounds": {
            **_per_sample_bounds(poset.n),
            "total_bits": total_bits_bound(poset.n, a_hat2, args.epsilon, args.delta),
            "total_bits_as_printed": total_bits_bound_as_printed(
                poset.n, a_hat2, args.epsilon, args.delta),
        },
        "warnings": warnings,
    })
    _emit(report, f"estimate: L ~ {est.l_hat2:.6g} "
                  f"(r1={est.r1}, r2={est.r2}, seed={seed})", t0)
    return 0


def _cmd_sample(args) -> int:
    t0 = time.perf_counter()
    poset, relab, meta = _load_input(args.input, args.format)
    warnings: list[str] = []
    report: dict = {"command": "sample", "input": meta, "version": __version__}
    seed = _resolve_seed(args, report, warnings)
    bp = BetaParam(args.beta, poset.n)
    stream = BitStream(seed)
    draws = []
    totals = CftpStats()
    for k in range(args.count):
        child = stream.fork(f"draw/{k}")
        sigma, stats = perfect_sample(bp, child, poset)
        entry = {
            "extension": list(relab.to_original(sigma)),
            "stats": stats.as_dict(),
        }
        if args.lift:
            entry["point"] = list(lift(sigma, bp, child))
            stats.bits_continuous = child.bits_continuous
        totals.merge(stats)
        draws.append(entry)
    report.update({
        "results": {"beta": bp.beta, "count": args.count, "draws": draws},
        "accounting": _accounting(totals),
        "bounds": _per_sample_bounds(poset.n),
        "warnings": warnings,
    })
    _emit(report, f"sample: {args.count} draw(s) at beta={bp.beta} (seed={seed})", t0)
    return 0


def _cmd_chain_diag(args) -> int:
    t0 = time.perf_counter()
    poset, _, meta = _load_input(args.input, args.format)
    if args.betas:
        betas = [float(b) for b in args.betas.split(",")]
    else:
        betas = [b for b in _DIAG_BETAS if b < poset.n] + [float(poset.n)]
    rows = []
    worst = 0.0
    for beta in betas:
        bp = BetaParam(beta, poset.n)
        kernel = chain_kernel(poset, bp)
        gap = stationarity_gap(kernel, poset, bp)
        worst = max(worst, gap)
        rows.append({
            "beta": beta,
            "support": len(kernel.support),
            "z": partition_z(poset, bp),
            "stationarity_gap": gap,
        })
    report = {
        "command": "chain-diag",
        "input": meta,
        "results": {"kernels": rows, "max_gap": worst, "pass": worst <= 1e-10},
        "seed": None,
        "version": __version__,
        "warnings": [],
    }
    _emit(report, f"chain-diag: max stationarity gap {worst:.3e} over {len(rows)} betas", t0)
    return 0


def _cmd_interval_demo(args) -> int:
    t0 = time.perf_counter()
    warnings: list[str] = []
    report: dict = {"command": "interval-demo", "version": __version__}
    seed = _resolve_seed(args, report, warnings)
    stream = BitStream(seed)
    res = interval_tpa(args.n, args.runs, stream.fork("interval"))
    diag = poisson_diagnostics(res.per_run_ks, reference=math.log(args.n)) \
        if args.runs >= 2 else None
    inv = product_estimator(args.n, args.product_samples, stream.fork("product"))
    report.update({
        "results": {
            "n": args.n,
            "runs": args.runs,
            "k": res.k,
            "k_over_r": res.k / res.r,
            "ln_n": math.log(args.n),
            "diagnostics": diag.as_dict() if diag else None,
            "product_estimator": {
                "samples_per_level": args.product_samples,
                "estimate_inverse_n": inv,
                "estimate_n": (1.0 / inv) if inv > 0 else None,
            },
        },
        "accounting": {
            "bits_discrete": stream.bits_consumed,
            "bits_continuous": res.stats.bits_continuous,
            "comparisons": 0,
            "total_steps": 0,
        },
        "warnings": warnings,
    })
    _emit(report, f"interval-demo: k/r = {res.k / res.r:.4f} vs ln {args.n} = "
                  f"{math.log(args.n):.4f} (seed={seed})", t0)
    return 0


def _cmd_bench(args) -> int:
    t0 = time.perf_counter()
    sizes = [int(s) for s in args.sizes.split(",")]
    warnings: list[str] = []
    if args.seed is None:
        seed = int.from_bytes(os.urandom(8), "big")
        sys.stderr.write(f"note: generated seed {seed}\n")
    else:
        seed = args.seed
    lines = ["n,beta,mean_steps,mean_bits,bound_bits,mean_comparisons,bound_comparisons"]
    for n in sizes:
        poset = antichain_poset(n)
        bp = BetaParam(float(n), n)
        stream = BitStream(seed, label=f"bench/{n}")
        steps = bits = comps = 0
        for k in range(args.samples):
            _, stats = perfect_sample(bp, stream.fork(f"draw/{k}"), poset)
            steps += stats.total_steps
            bits += stats.bits_discrete
            comps += stats.comparisons
        m = args.samples
        lines.append(
            f"{n},{float(n)},{steps / m},{bits / m},{sample_bits_bound(n)},"
            f"{comps / m},{sample_comparisons_bound(n)}"
        )
    sys.stdout.write("\n".join(lines) + "\n")
    wall = time.perf_counter() - t0
    sys.stderr.write(
        f"bench: relation-free order, {args.samples} samples per size, "
        f"seed={seed} [wall {wall:.2f}s]\n"
    )
    return 0


def _cmd_selftest(args) -> int:
    from . import selftest

    t0 = time.perf_counter()
    ids = [int(c) for c in args.criteria.split(",")] if args.criteria else None
    results = selftest.run_criteria(ids, log=lambda msg: sys.stderr.write(msg + "\n"))
    report = {
        "command": "selftest",
        "version": __version__,
        "results": {
            "criteria": [
                {"id": r.cid, "name": r.name, "passed": r.passed, "detail": r.detail}
                for r in results
            ],
            "all_passed": all(r.passed for r in results),
        },
        "seed": None,
        "warnings": [],
    }
    passed = sum(1 for r in results if r.passed)
    _emit(report, f"selftest: {passed}/{len(results)} criteria passed", t0)
    return 0 if all(r.passed for r in results) else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linext",
        description="Count and approximately count linear extensions of a "
                    "finite partial order by perfect sampling.",
    )
    parser.add_argument("--version", action="version", version=f"linext {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input(p):
        p.add_argument("--input", required=True, help="poset file (edge-list or JSON)")
        p.add_argument("--format", default="auto",
                       choices=["auto", "edge-list", "structured"],
                       help="input format (default: auto-detect)")

    p = sub.add_parser("count-exact", help="exact extension count by downset dynamic programming")
    add_input(p)
    p.add_argument("--max-n", type=int, default=24, help="size cap for the exact count")
    p.set_defaults(func=_cmd_count_exact)

    p = sub.add_parser("estimate", help="two-phase approximate count with (epsilon, delta) guarantee")
    add_input(p)
    p.add_argument("--epsilon", type=float, required=True, help="relative accuracy, in (0, 1]")
    p.add_argument("--delta", type=float, required=True, help="failure probability, in (0, 1)")
    p.add_argument("--seed", type=int, default=None, help="64-bit seed")
    p.add_argument("--runs-override", type=int, default=None,
                   help="replace both phases' run counts (voids the guarantee)")
    p.add_argument("--parallel", type=_positive_int, default=1,
                   help="worker processes; results are identical to serial")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("sample", help="perfect samples from the weighted extension distribution")
    add_input(p)
    p.add_argument("--beta", type=float, required=True, help="chain parameter in [0, n]")
    p.add_argument("--count", type=_positive_int, default=1, help="number of draws")
    p.add_argument("--seed", type=int, default=None, help="64-bit seed")
    p.add_argument("--lift", action="store_true",
                   help="also emit the continuous lift of each draw")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("chain-diag", help="explicit-kernel stationarity check")
    add_input(p)
    p.add_argument("--betas", default=None, help="comma-separated beta values")
    p.set_defaults(func=_cmd_chain_diag)

    p = sub.add_parser("interval-demo", help="interval contraction demo and product estimator")
    p.add_argument("--n", type=int, required=True, help="interval length")
    p.add_argument("--runs", type=int, required=True, help="number of runs")
    p.add_argument("--product-samples", type=int, default=1000,
                   help="samples per halving level for the product estimator")
    p.add_argument("--seed", type=int, default=None, help="64-bit seed")
    p.set_defaults(func=_cmd_interval_demo)

    p = sub.add_parser("bench", help="per-sample work versus a priori bounds (CSV)")
    p.add_argument("--sizes", default="8,16,32", help="comma-separated sizes")
    p.add_argument("--samples", type=_positive_int, default=20, help="samples per size")
    p.add_argument("--seed", type=int, default=None, help="64-bit seed")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("selftest", help="run the acceptance criteria")
    p.add_argument("--criteria", default=None, help="comma-separated criterion ids (default: all)")
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GuardError, CoalescenceError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except LinextError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
