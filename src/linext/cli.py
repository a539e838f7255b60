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
    antichain_draw_work,
    sample_bits_bound,
    sample_comparisons_bound,
    sample_steps_bound,
    total_bits_bound,
    total_bits_bound_as_printed,
)
from .cftp import CftpStats, perfect_sample
from .chain import BetaParam
from .embed import lift
from .errors import CoalescenceError, GuardError, LinextError, ParseError
from .exact import chain_kernel, count_exact, partition_z, stationarity_gap
from .poset import Poset, Relabeling, load_poset
from .tpa import MAX_RUNS, interval_tpa, poisson_diagnostics, product_estimator, two_phase

_DIAG_BETAS = (0.25, 0.5, 1.0, 1.3, 2.0)


def _load_input(args, report: dict) -> tuple[Poset, Relabeling]:
    """Load the --input order, recording its path, size and digest in the report."""
    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read input file {args.input!r}: {exc}") from exc
    poset, relab = load_poset(text, args.format)
    report["input"] = {"path": args.input, "n": poset.n, "digest": poset.digest()}
    return poset, relab


def _positive_int(text: str) -> int:
    """argparse type of counts: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _worker_count(text: str) -> int:
    """argparse type of --parallel: a positive integer, clamped to the CPU
    count, since each worker is a forked process."""
    value = _positive_int(text)
    cpus = os.cpu_count() or 1
    if value > cpus:
        sys.stderr.write(f"note: --parallel {value} clamped to the CPU count {cpus}\n")
        return cpus
    return value


def _comma_list(item):
    """argparse type of a comma-separated list whose entries parse with item."""
    def parse(text: str) -> list:
        try:
            return [item(part) for part in text.split(",")]
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected a comma-separated list, got {text!r}") from None
    return parse


def _resolve_seed(args, report: dict) -> int:
    """The --seed value, or a fresh seed noted on stderr and in the report's
    warnings; either way it is recorded in report["seed"]."""
    seed = args.seed
    if seed is None:
        seed = int.from_bytes(os.urandom(8), "big")
        report["warnings"].append(f"no --seed given; generated seed {seed}")
        sys.stderr.write(f"note: generated seed {seed}\n")
    report["seed"] = seed
    return seed


def _check_draw_count(count: int) -> None:
    """Refuse more than MAX_RUNS draws before the first one starts."""
    if count > MAX_RUNS:
        raise GuardError(f"{count} draws requested, over the limit {MAX_RUNS}")


def _per_sample_bounds(n: int) -> dict:
    return {
        "bits_per_sample": sample_bits_bound(n),
        "comparisons_per_sample": sample_comparisons_bound(n),
        "steps_per_sample": sample_steps_bound(n),
    }


# Each _cmd_* fills its own fields of the report that main writes, and returns
# the one-line stderr summary.

def _cmd_count_exact(args, report: dict) -> str:
    poset, _ = _load_input(args, report)
    value = count_exact(poset)
    report["results"] = {"L": value}
    return f"count-exact: L = {value} (n={poset.n})"


def _cmd_estimate(args, report: dict) -> str:
    poset, _ = _load_input(args, report)
    seed = _resolve_seed(args, report)
    est = two_phase(poset, args.epsilon, args.delta, BitStream(seed),
                    parallel=args.parallel, runs_override=args.runs_override)
    finite = est.l_hat2 < math.inf  # else L is past the largest double: its log alone
    report["results"] = {
        "estimate": est.l_hat2 if finite else None,
        "log_estimate": est.a_hat2,
        "epsilon": est.epsilon,
        "delta": est.delta,
        "phases": {
            "phase1": {"r": est.r1, "k": est.phase1.k, "a_hat": est.a_hat1},
            "phase2": {"r": est.r2, "k": est.phase2.k},
        },
        "samples_used": est.phase1.samples_used + est.phase2.samples_used,
    }
    report["accounting"] = est.stats.as_dict()
    report["bounds"] = {
        **_per_sample_bounds(poset.n),
        "total_bits": total_bits_bound(poset.n, est.a_hat2, args.epsilon, args.delta),
        "total_bits_as_printed": total_bits_bound_as_printed(
            poset.n, est.a_hat2, args.epsilon, args.delta),
    }
    shown = f"L ~ {est.l_hat2:.6g}" if finite else f"ln L ~ {est.a_hat2:.6g}"
    return f"estimate: {shown} (r1={est.r1}, r2={est.r2}, seed={seed})"


def _cmd_sample(args, report: dict) -> str:
    poset, relab = _load_input(args, report)
    _check_draw_count(args.count)
    seed = _resolve_seed(args, report)
    bp = BetaParam(args.beta, poset.n)
    stream = BitStream(seed)
    draws = []
    totals = CftpStats()
    for k in range(args.count):
        child = stream.fork(f"draw/{k}")
        sigma, stats = perfect_sample(bp, child, poset)
        entry = {"extension": list(relab.to_original(sigma))}
        if args.lift:
            entry["point"] = list(lift(sigma, bp, child))
            stats.bits_continuous = child.bits_continuous
        entry["stats"] = stats.as_dict()
        totals.merge(stats)
        draws.append(entry)
    report["results"] = {"beta": bp.beta, "count": args.count, "draws": draws}
    report["accounting"] = totals.as_dict()
    report["bounds"] = _per_sample_bounds(poset.n)
    return f"sample: {args.count} draw(s) at beta={bp.beta} (seed={seed})"


def _cmd_chain_diag(args, report: dict) -> str:
    poset, _ = _load_input(args, report)
    if args.betas:
        betas = args.betas
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
    report["results"] = {"kernels": rows, "max_gap": worst, "pass": worst <= 1e-10}
    return f"chain-diag: max stationarity gap {worst:.3e} over {len(rows)} betas"


def _cmd_interval_demo(args, report: dict) -> str:
    seed = _resolve_seed(args, report)
    stream = BitStream(seed)
    res = interval_tpa(args.n, args.runs, stream.fork("interval"))
    diag = poisson_diagnostics(res.per_run_ks, reference=math.log(args.n)) \
        if args.runs >= 2 else None
    product_stream = stream.fork("product")
    inv = product_estimator(args.n, args.product_samples, product_stream)
    report["results"] = {
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
    }
    report["accounting"] = CftpStats(bits_discrete=product_stream.bits_consumed,
                                     bits_continuous=res.stats.bits_continuous).as_dict()
    return (f"interval-demo: k/r = {res.k / res.r:.4f} vs ln {args.n} = "
            f"{math.log(args.n):.4f} (seed={seed})")


def _cmd_bench(args, report: dict) -> str:
    """Writes CSV rows to stdout itself; the report only carries the seed."""
    _check_draw_count(args.samples)
    seed = _resolve_seed(args, report)
    lines = ["n,beta,mean_steps,mean_bits,bound_bits,mean_comparisons,bound_comparisons"]
    support = []  # sizes whose draws took no chain step: drawn from the enumerated support
    for n in args.sizes:
        steps, bits, comps = antichain_draw_work(n, args.samples,
                                                 BitStream(seed, label=f"bench/{n}"))
        lines.append(
            f"{n},{float(n)},{steps},{bits},{sample_bits_bound(n)},"
            f"{comps},{sample_comparisons_bound(n)}"
        )
        if not steps:
            support.append(str(n))
    sys.stdout.write("\n".join(lines) + "\n")
    summary = f"bench: relation-free order, {args.samples} samples per size, seed={seed}"
    if support:
        summary += (f"; n={','.join(support)} drawn from the enumerated support, not by the "
                    f"bounding chain that the bounds cover")
    return summary


def _cmd_selftest(args, report: dict) -> str:
    from . import selftest

    results = selftest.run_criteria(args.criteria, log=lambda msg: sys.stderr.write(msg + "\n"))
    report["results"] = {
        "criteria": [
            {"id": r.cid, "name": r.name, "passed": r.passed, "detail": r.detail}
            for r in results
        ],
        "all_passed": all(r.passed for r in results),
    }
    passed = sum(1 for r in results if r.passed)
    return f"selftest: {passed}/{len(results)} criteria passed"


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
    p.set_defaults(func=_cmd_count_exact)

    p = sub.add_parser("estimate", help="two-phase approximate count with (epsilon, delta) guarantee")
    add_input(p)
    p.add_argument("--epsilon", type=float, required=True, help="relative accuracy, in (0, 1]")
    p.add_argument("--delta", type=float, required=True, help="failure probability, in (0, 1)")
    p.add_argument("--seed", type=int, default=None, help="64-bit seed")
    p.add_argument("--runs-override", type=int, default=None,
                   help="replace both phases' run counts (voids the guarantee)")
    p.add_argument("--parallel", type=_worker_count, default=1,
                   help="worker processes, at most the CPU count; results are identical to serial")
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
    p.add_argument("--betas", type=_comma_list(float), default=None,
                   help="comma-separated beta values")
    p.set_defaults(func=_cmd_chain_diag)

    p = sub.add_parser("interval-demo", help="interval contraction demo and product estimator")
    p.add_argument("--n", type=int, required=True, help="interval length")
    p.add_argument("--runs", type=int, required=True, help="number of runs")
    p.add_argument("--product-samples", type=int, default=1000,
                   help="samples per halving level for the product estimator")
    p.add_argument("--seed", type=int, default=None, help="64-bit seed")
    p.set_defaults(func=_cmd_interval_demo)

    p = sub.add_parser("bench", help="per-sample work versus a priori bounds (CSV)")
    p.add_argument("--sizes", type=_comma_list(_positive_int), default="8,16,32",
                   help="comma-separated sizes")
    p.add_argument("--samples", type=_positive_int, default=20, help="samples per size")
    p.add_argument("--seed", type=int, default=None, help="64-bit seed")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("selftest", help="run the acceptance criteria")
    p.add_argument("--criteria", type=_comma_list(int), default=None,
                   help="comma-separated criterion ids (default: all)")
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    """Run one subcommand: write its JSON report to stdout and its summary
    with the wall time to stderr, and map errors to exit codes."""
    args = _build_parser().parse_args(argv)
    t0 = time.perf_counter()
    report = {"command": args.command, "seed": None, "version": __version__, "warnings": []}
    try:
        summary = args.func(args, report)
    except (GuardError, CoalescenceError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except LinextError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    if args.command != "bench":
        sys.stdout.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
    sys.stderr.write(f"{summary} [wall {time.perf_counter() - t0:.2f}s]\n")
    return 1 if args.command == "selftest" and not report["results"]["all_passed"] else 0


if __name__ == "__main__":
    sys.exit(main())
