"""Layered benchmark for linext.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload draw-free --seed 1 --seconds 30 --trace 0

It imports linext from ./src (never from an installed copy), runs one
workload in a closed loop with one client, one thread and serial runs, checks
every result, and prints one JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json; with
--trace 1 they are the per-layer ones, from an untraced half and a traced
half of the same operations. A human summary goes to stderr. Exits 2 without
a result when ./src/linext is missing. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time

import calib

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

SETUP_PROBES = 7  # fresh processes timed for setup_s, after one untimed one
TRACE_SETUP_PROBES = 3  # per side, for the tracing overhead on setup_s
CAL_EVERY = 0.5  # seconds between reference-loop timings
PROBE_LIMIT_S = 60  # a setup probe is killed by SIGALRM after this long


def import_linext():
    init = os.path.join(SRC, "linext", "__init__.py")
    if not os.path.isfile(init):
        print(f"perfbench: no linext sources at {init}; run from a checkout root",
              file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, SRC)
    import linext

    if os.path.realpath(linext.__file__) != os.path.realpath(init):
        print(f"perfbench: imported linext from {linext.__file__}, not {init}",
              file=sys.stderr)
        raise SystemExit(2)
    return linext


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tail(times: list[float]) -> tuple[float, int]:
    """The highest whole percentile with at least ten samples above it, and
    its value; (0, 0) when there are fewer than eleven samples."""
    n = len(times)
    if n < 11:
        return 0.0, 0
    pct = (100 * (n - 10)) // n
    return statistics.quantiles(times, n=100)[pct - 1], pct


def setup_times(args, traced: bool, probes: int) -> list[float]:
    """Wall time of fresh processes that import linext and prepare the workload.

    The wait has no timeout: with one, CPython polls the child with sleeps of
    up to 50 ms, which rounds these ~0.3 s times to 50 ms steps. The probe
    arms SIGALRM instead, so it cannot outlive PROBE_LIMIT_S.
    """
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--trace", str(int(traced))]
    times = []
    for _ in range(probes):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def run_ops(wl, lx, seconds: float, tracer=None) -> tuple[list[dict], int, calib.Reference]:
    """Closed loop from operation 0 until the workload says stop. Returns the
    records, the number of failed operations, and the reference-loop samples.
    Untraced, long operations also sample the reference loop inside; traced,
    only between operations, so no reference loop lands inside a span."""
    from contextlib import nullcontext

    records: list[dict] = []
    failed = 0
    ref = calib.Reference(CAL_EVERY)
    wl.reference = None if tracer else ref
    start = time.perf_counter()
    busy = 0.0
    i = 0
    while not records or wl.more(i, time.perf_counter() - start, seconds, busy / len(records)):
        ref.maybe()
        t0 = time.perf_counter()
        with tracer.span("bench.op") if tracer else nullcontext():
            try:
                rec = wl.op(i)
            except lx.LinextError as exc:
                print(f"perfbench: op {i} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
                rec = {"time": time.perf_counter() - t0, "ok": False, "units": 0,
                       "counts": (type(exc).__name__,)}
        if not rec["ok"]:
            failed += 1
        busy += rec["time"]
        records.append(rec)
        i += 1
    ref.samples.append(calib.loop_s())
    wl.reference = None
    return records, failed, ref


def total(records: list[dict], key: str) -> float:
    return sum(r.get(key, 0) for r in records)


def units_per_s(records: list[dict]) -> float:
    return total(records, "units") / total(records, "time")


def units_per_cal(records: list[dict], ref: calib.Reference) -> float:
    """Units completed per reference-loop time: raw throughput times the
    run's median reference-loop seconds."""
    return units_per_s(records) * ref.median()


def end_to_end(args, lx, wl) -> dict:
    setup_times(args, False, 1)  # untimed: writes bytecode caches once
    setup = statistics.median(setup_times(args, False, SETUP_PROBES))
    wl.prepare()
    records, failed, cal = run_ops(wl, lx, args.seconds)
    metrics = {
        "setup_s": (setup, "s"),
        "units_per_cal": (units_per_cal(records, cal), "1/cal"),
    }
    times = [r["time"] for r in records]
    print(f"perfbench: {wl.name} seed {args.seed}: {len(records)} ops, {failed} failed, "
          f"op median {statistics.median(times):.4f} s, {units_per_s(records):.4g} units/s, "
          f"reference loop {cal.median() * 1e3:.2f} ms", file=sys.stderr)
    return {"attempted": len(records), "failed": failed, "correct": failed == 0,
            "metrics": metrics}


def budget_ratios(n: int, steps: float, bits: float, comps: float) -> dict:
    """Per-draw work as a share of the a priori bounds in linext.budgets."""
    import linext.budgets as budgets

    if steps == 0 or n < 2:
        ratios = (0.0, 0.0, 0.0)
    else:
        ratios = (steps / budgets.sample_steps_bound(n), bits / budgets.sample_bits_bound(n),
                  comps / budgets.sample_comparisons_bound(n))
    names = ("cftp.steps_over_bound", "cftp.bits_over_bound", "cftp.comparisons_over_bound")
    return {name: (r, "ratio") for name, r in zip(names, ratios)}


def per_layer(args, lx, wl) -> dict:
    import micro
    import tracer as tr

    setup_times(args, False, 1)
    setup_u = statistics.median(setup_times(args, False, TRACE_SETUP_PROBES))
    setup_t = statistics.median(setup_times(args, True, TRACE_SETUP_PROBES))

    tracer = tr.Tracer()
    points = tr.wrap_points(lx)
    tracer.install(points)
    wl.prepare()
    tracer.uninstall()
    support_s = sum((s[2] - s[1]) * 1e-9 for s in tracer.spans
                    if tr.layer_of(s[0]) == "exact" and s[3] >= 0
                    and tr.layer_of(tracer.spans[s[3]][0]) == "cftp")

    poset, _ = lx.load_poset(wl.micro_shape.text())  # own copy: its queries stay apart
    bp = lx.BetaParam(poset.n, poset.n)
    mb = micro.bitrng_ns(lx, args.seed, poset.n - 1)
    mb.update(micro.steps(lx, args.seed, poset, bp))
    mb["embed.lift_us"] = micro.lift_us(lx, args.seed, poset.n)

    half = args.seconds / 2
    plain, failed_u, cal_u = run_ops(wl, lx, half)
    rss_u = peak_rss_mb()
    tracer.install(points)
    first = len(tracer.spans)
    traced, failed_t, cal_t = run_ops(wl, lx, half, tracer)
    tracer.uninstall()
    rss_t = peak_rss_mb()

    compared = min(len(plain), len(traced))
    agree = all(plain[i]["counts"] == traced[i]["counts"] for i in range(compared))
    if not agree:
        print("perfbench: traced and untraced runs disagree on work counts", file=sys.stderr)

    self_s, incl_s = tr.layer_times(tracer.spans, first)
    op_traced = total(traced, "time")
    ops_traced = len(traced)
    times = [r["time"] for r in plain]
    tail_s, tail_pct = tail(times)
    draws = total(plain, "draws")
    estimates = total(plain, "estimates")
    counted = total(plain, "counted")
    runs = total(plain, "runs")
    steps = total(plain, "steps")
    bits = total(plain, "bits")
    bits_cont = total(plain, "bits_cont")
    comps = total(plain, "comps")
    op_plain = total(plain, "time")
    per_draw = (lambda x: x / draws) if draws else (lambda x: 0.0)
    per_est = (lambda x: x / estimates) if estimates else (lambda x: 0.0)
    phases = tr.spans_named(tracer.spans, "tpa.tpa_runs", first)
    n = wl.poset.n if hasattr(wl, "poset") else 0

    m = {
        "op_s.p50": (statistics.median(times), "s"),
        "op_s.tail": (tail_s, "s"),
        "op_s.tail_pct": (tail_pct, "pct"),
        "op.count": (len(plain), "count"),
        "peak_rss_mb": (rss_u, "MB"),
        "units_per_s": (units_per_s(plain), "1/s"),
        "cal_s": (cal_u.median(), "s"),
        "fail_frac": ((failed_u + failed_t) / (len(plain) + len(traced)), "frac"),
        "trace_overhead.setup_s": (setup_t - setup_u, "s"),
        "trace_overhead.units_per_cal": (units_per_cal(traced, cal_t)
                                         - units_per_cal(plain, cal_u), "1/cal"),
        "trace_overhead.peak_rss_mb": (rss_t - rss_u, "MB"),
        "trace.ops_compared": (compared, "count"),
        "bitrng.bits_per_draw": (per_draw(bits), "count"),
        "bitrng.bits_per_estimate": (per_est(bits), "count"),
        "bitrng.bits_continuous_per_estimate": (per_est(bits_cont), "count"),
        "bitrng.share": ((bits * mb["bitrng.next_bit_ns"]
                          + bits_cont / 53 * mb["bitrng.uniform_real_ns"]) * 1e-9 / op_plain,
                         "frac-computed"),
        "cftp.steps_per_draw": (per_draw(steps), "count"),
        "cftp.levels_per_draw": (per_draw(total(plain, "levels")), "count"),
        "cftp.draws_per_estimate": (per_est(draws), "count"),
        "cftp.steps_per_s": (total(traced, "steps") / incl_s["cftp"] if "cftp" in incl_s
                             else 0.0, "1/s"),
        "cftp.share": (incl_s.get("cftp", 0.0) / op_traced, "frac"),
        "cftp.self_s": (self_s.get("cftp", 0.0) / ops_traced, "s"),
        "embed.share": (incl_s.get("embed", 0.0) / op_traced, "frac"),
        "embed.self_s": (self_s.get("embed", 0.0) / ops_traced, "s"),
        "tpa.r1": (per_est(total(plain, "r1")), "count"),
        "tpa.r2": (per_est(total(plain, "r2")), "count"),
        "tpa.draws_per_run": (draws / runs if runs else 0.0, "count"),
        "tpa.phase1_s": (statistics.fmean(phases[0::2]) if phases else 0.0, "s"),
        "tpa.phase2_s": (statistics.fmean(phases[1::2]) if phases else 0.0, "s"),
        "tpa.self_share": (self_s.get("tpa", 0.0) / op_traced, "frac"),
        "tpa.self_s": (self_s.get("tpa", 0.0) / ops_traced, "s"),
        "exact.count_s": (statistics.median(r["count_s"] for r in plain) if counted
                          else 0.0, "s"),
        "exact.support_s": (support_s, "s"),
        "exact.self_s": (self_s.get("exact", 0.0) / ops_traced, "s"),
        "poset.load_s": (statistics.median(r["load_s"] for r in plain) if counted
                         else wl.load_s, "s"),
        "poset.queries_per_op": (total(plain, "queries") / len(plain), "count"),
        "poset.self_s": (self_s.get("poset", 0.0) / ops_traced, "s"),
    }
    m.update(budget_ratios(n, per_draw(steps), per_draw(bits), per_draw(comps)))
    for name, value in mb.items():
        m[name] = (value, name.rsplit("_", 1)[1])

    path = os.path.join(OUT, f"spans-{wl.name}-seed{args.seed}.jsonl")
    tracer.write(path)
    failed = failed_u + failed_t
    print(f"perfbench: {wl.name} seed {args.seed}: {len(plain)} + {len(traced)} ops, "
          f"{failed} failed, {compared} compared, spans in {path}", file=sys.stderr)
    return {"attempted": len(plain) + len(traced), "failed": failed,
            "correct": failed == 0 and agree, "metrics": m}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    lx = import_linext()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload](lx, args.seed)
    if args.setup_probe:
        signal.alarm(PROBE_LIMIT_S)
        if args.trace:
            import tracer as tr

            tr.Tracer().install(tr.wrap_points(lx))
        wl.prepare()
        return 0
    try:
        result = per_layer(args, lx, wl) if args.trace else end_to_end(args, lx, wl)
    finally:
        wl.close()
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()}
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
