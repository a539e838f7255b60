"""Command-line surface: reports, formats, exit codes, determinism."""

import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linext import cftp, cli, tpa
from linext.cftp import CftpStats
from linext.budgets import (
    sample_bits_bound,
    sample_comparisons_bound,
    total_bits_bound,
    total_bits_bound_as_printed,
)
from linext.catalog import antichain_poset, grid_poset

from conftest import grid_hook_count

GRID23 = "n=6; 1<2; 2<3; 4<5; 5<6; 1<4; 2<5; 3<6"
CHAIN5 = "n=5; 1<2; 2<3; 3<4; 4<5"
PAIRS = '{"n": 4, "relations": [[1, 3], [2, 4]]}'
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_cli(argv):
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def strict_json(text):
    """json.loads that rejects NaN and Infinity, which are not JSON."""
    def reject(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=reject)


@pytest.fixture
def grid_file(tmp_path):
    path = tmp_path / "grid23.posets"
    path.write_text(GRID23)
    return str(path)


@pytest.fixture
def chain_file(tmp_path):
    path = tmp_path / "chain5.posets"
    path.write_text(CHAIN5)
    return str(path)


@pytest.fixture
def pairs_file(tmp_path):
    path = tmp_path / "pairs.json"
    path.write_text(PAIRS)
    return str(path)


def _grid_text(rows, cols):
    edges = []
    for r in range(rows):
        for c in range(cols):
            e = r * cols + c + 1
            if c + 1 < cols:
                edges.append(f"{e}<{e + 1}")
            if r + 1 < rows:
                edges.append(f"{e}<{e + cols}")
    return "; ".join([f"n={rows * cols}"] + edges)


def test_count_exact_grid(grid_file):
    code, out, err = run_cli(["count-exact", "--input", grid_file])
    assert code == 0
    report = json.loads(out)
    assert report["results"]["L"] == 5
    assert report["command"] == "count-exact"
    assert "wall" in err  # timing lives on stderr, not in the report
    assert "wall" not in out


@pytest.mark.parametrize("text,count", [
    (_grid_text(3, 20), grid_hook_count(3, 20)),  # n = 60
    ("; ".join(["n=1200"] + [f"{i}<{i + 1}" for i in range(1, 1200)]), 1),
], ids=["grid-3x20", "chain-1200"])
def test_count_exact_narrow_orders(tmp_path, text, count):
    # cost follows width, not n: both count though n is past 24
    path = tmp_path / "order.posets"
    path.write_text(text)
    code, out, _ = run_cli(["count-exact", "--input", str(path)])
    assert code == 0
    assert json.loads(out)["results"]["L"] == count


def test_count_exact_has_no_max_n(grid_file, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["count-exact", "--input", grid_file, "--max-n", "5"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments" in err
    assert "Traceback" not in err


def test_estimate_chain_is_one(chain_file):
    code, out, _ = run_cli(["estimate", "--input", chain_file, "--epsilon", "0.5",
                            "--delta", "0.2", "--seed", "7"])
    assert code == 0
    report = json.loads(out)
    assert report["results"]["estimate"] == 1.0
    assert report["seed"] == 7
    acct = report["accounting"]
    assert {"bits_discrete", "bits_continuous", "comparisons"} <= set(acct)
    bounds = report["bounds"]
    assert bounds["bits_per_sample"] == sample_bits_bound(5)
    assert bounds["comparisons_per_sample"] == sample_comparisons_bound(5)
    assert bounds["total_bits"] == total_bits_bound(5, 0.0, 0.5, 0.2)
    assert bounds["total_bits_as_printed"] == total_bits_bound_as_printed(5, 0.0, 0.5, 0.2)


def test_estimate_past_the_largest_double_reports_its_log(chain_file, monkeypatch):
    # two chains of 600 count C(1200, 600), ln L = 828: runs that tally 828
    # per run put exp(k / r) past the largest double, so the report gives
    # k / r alone and no estimate, as valid JSON
    def tallies(poset, r, stream, parallel=1):
        return tpa.TpaRunResult(r=r, k=828 * r, beta_traces=[[0.0]] * r, samples_used=0,
                                stats=CftpStats(), per_run_ks=[828] * r)

    monkeypatch.setattr(tpa, "tpa_runs", tallies)
    code, out, err = run_cli(["estimate", "--input", chain_file, "--epsilon", "0.5",
                              "--delta", "0.2", "--seed", "7"])
    assert code == 0 and "Traceback" not in err
    results = strict_json(out)["results"]
    assert results["estimate"] is None and results["log_estimate"] == 828.0
    assert results["phases"]["phase2"]["k"] == 828 * results["phases"]["phase2"]["r"]


def test_estimate_structured_input(pairs_file):
    code, out, _ = run_cli(["estimate", "--input", pairs_file, "--epsilon", "0.9",
                            "--delta", "0.4", "--seed", "3", "--runs-override", "30"])
    assert code == 0
    report = json.loads(out)
    assert report["results"]["phases"]["phase1"]["r"] == 30
    assert report["results"]["phases"]["phase2"]["r"] == 30


def test_estimate_parallel_matches_serial(pairs_file):
    argv = ["estimate", "--input", pairs_file, "--epsilon", "0.9", "--delta", "0.4",
            "--seed", "5", "--runs-override", "24"]
    _, serial, _ = run_cli(argv)
    _, parallel, _ = run_cli(argv + ["--parallel", "2"])
    assert serial == parallel


def test_estimate_parallel_clamped_to_cpu_count(pairs_file):
    # one run takes the serial path, so no worker process is started
    argv = ["estimate", "--input", pairs_file, "--epsilon", "0.9", "--delta", "0.4",
            "--seed", "5", "--runs-override", "1"]
    _, serial, _ = run_cli(argv)
    code, clamped, err = run_cli(argv + ["--parallel", "1000000000000"])
    assert code == 0
    assert clamped == serial
    assert "clamped to the CPU count" in err


@pytest.mark.parametrize("epsilon,delta", [
    ("0.5", "-1"), ("0", "0.25"), ("nan", "0.25"), ("5", "2"),
])
def test_exit_code_2_on_bad_accuracy_with_runs_override(pairs_file, epsilon, delta):
    code, out, err = run_cli(["estimate", "--input", pairs_file, f"--epsilon={epsilon}",
                              f"--delta={delta}", "--seed", "1", "--runs-override", "3"])
    assert code == 2
    assert out == ""
    assert "must be in" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("epsilon", ["1e-200", "1e-160"])
def test_exit_code_2_on_epsilon_too_small_for_the_run_count(pairs_file, epsilon):
    # e'^2 - e'^3 underflows to 0 at 1e-200; at 1e-160 the run count overflows
    code, out, err = run_cli(["estimate", "--input", pairs_file, "--epsilon", epsilon,
                              "--delta", "0.25", "--seed", "1"])
    assert code == 2
    assert out == ""
    assert "too small" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["estimate", "--input", "PAIRS", "--epsilon", "1e-10", "--delta", "0.25", "--seed", "1"],
    ["estimate", "--input", "PAIRS", "--epsilon", "0.5", "--delta", "0.25", "--seed", "1",
     "--runs-override", "1000000000000"],
    ["interval-demo", "--n", "10", "--runs", "1000000000000", "--seed", "1"],
    ["interval-demo", "--n", "10", "--runs", "2", "--product-samples", "1000000000000",
     "--seed", "1"],
], ids=["epsilon-1e-10", "runs-override-10^12", "interval-10^12", "product-samples-10^12"])
def test_exit_code_3_on_too_many_runs(pairs_file, argv):
    # epsilon 1e-10 plans about 2e21 phase-2 runs; each batch is refused
    # before any of its runs starts, and the product estimator's samples per
    # level before any of its draws
    argv = [pairs_file if a == "PAIRS" else a for a in argv]
    start = time.perf_counter()
    code, out, err = run_cli(argv)
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert out == ""
    assert "over the limit" in err


def test_sample_emits_original_labels(tmp_path):
    # elements labeled backwards: 3 precedes 1; reports must use input labels
    path = tmp_path / "rev.posets"
    path.write_text("n=3; 3<1")
    code, out, _ = run_cli(["sample", "--input", str(path), "--beta", "3",
                            "--count", "5", "--seed", "2"])
    assert code == 0
    report = json.loads(out)
    draws = report["results"]["draws"]
    assert len(draws) == 5
    for entry in draws:
        ext = entry["extension"]
        assert sorted(ext) == [1, 2, 3]
        assert ext.index(3) < ext.index(1)
        assert entry["stats"]["total_steps"] >= 0


def test_sample_lift_points(pairs_file):
    code, out, _ = run_cli(["sample", "--input", pairs_file, "--beta", "1.3",
                            "--count", "2", "--seed", "4", "--lift"])
    assert code == 0
    report = json.loads(out)
    for entry in report["results"]["draws"]:
        assert len(entry["point"]) == 4
        assert all(0.0 < v <= 4.0 for v in entry["point"])


def test_sample_lift_stats_sum_to_accounting(pairs_file):
    # each draw's stats are taken after its lift, so they include its
    # continuous bits, and the per-draw stats add up to the report's totals
    code, out, _ = run_cli(["sample", "--input", pairs_file, "--beta", "1.3",
                            "--count", "2", "--seed", "4", "--lift"])
    assert code == 0
    report = json.loads(out)
    draws = report["results"]["draws"]
    for field, total in report["accounting"].items():
        assert sum(entry["stats"][field] for entry in draws) == total
    assert all(entry["stats"]["bits_continuous"] > 0 for entry in draws)


def test_chain_diag(pairs_file):
    code, out, _ = run_cli(["chain-diag", "--input", pairs_file])
    assert code == 0
    report = json.loads(out)
    assert report["results"]["pass"] is True
    assert report["results"]["max_gap"] <= 1e-10
    betas = [row["beta"] for row in report["results"]["kernels"]]
    assert betas[-1] == 4.0


def test_chain_diag_follows_its_support(tmp_path):
    # antichain(10) has 10! extensions but 2^9 within displacement 1; the
    # kernel lists only the band, so these betas take well under a second
    wide = tmp_path / "wide.posets"
    wide.write_text("n=10")
    start = time.perf_counter()
    code, out, _ = run_cli(["chain-diag", "--input", str(wide), "--betas", "0.25,0.5,1"])
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert [row["support"] for row in json.loads(out)["results"]["kernels"]] == [512] * 3


def test_chain_diag_pinned_gaps(tmp_path):
    # Each gap sums float flows over the kernel's transitions, so listing them
    # in another order moves it in the last bits (unordered rows give 2.7e-20
    # on the grid at 0.25 and 3.5e-18 on antichain(6) at 0.25); these are the
    # figures of the order chain_kernel keeps: by slot, swap backs first,
    # then the pair's ascending state. The normalizers z are the ideal DP's.
    cases = [(grid_poset(3, 4), "0.25,2.3", [0.0, 5.421010862427522e-20],
              [1.763916015625, 116.54999999999998]),
             (antichain_poset(6), "0.25,0.5,2.5", [0.0, 0.0, 0.0], [3.0517578125, 7.59375, 257.25]),
             (antichain_poset(5), "1.3,1.7", [1.734723475976807e-18, 8.673617379884035e-19],
              [24.333999999999993, 39.366000000000014])]
    for poset, betas, gaps, zs in cases:
        path = tmp_path / f"order{poset.n}.posets"
        path.write_text(f"n={poset.n}" + "".join(
            f"; {a}<{b}" for a in range(1, poset.n + 1) for b in range(1, poset.n + 1)
            if poset.less(a, b)))
        code, out, _ = run_cli(["chain-diag", "--input", str(path), "--betas", betas])
        assert code == 0
        rows = json.loads(out)["results"]["kernels"]
        assert [row["stationarity_gap"] for row in rows] == gaps
        assert [row["z"] for row in rows] == zs


def _address_space_2gb():
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


@pytest.mark.skipif(cftp._kernel is None, reason="the Python loops step about 30 times "
                    "slower, so the refusal would come far past the 10 s bound")
def test_exit_code_3_on_step_ceiling(tmp_path):
    # beta = 0.1 on antichain(24) needs far more steps than MAX_STEPS; the draw
    # is refused before its blocks would pass it, instead of running out of
    # memory (the refusal comes about 5.5 s in on a 2-core x86 host)
    wide = tmp_path / "wide.posets"
    wide.write_text("n=24")
    argv = ["sample", "--input", str(wide), "--beta", "0.1", "--count", "1", "--seed", "1"]
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "linext.cli", *argv],
                          env=dict(os.environ, PYTHONPATH=SRC), capture_output=True,
                          text=True, timeout=60, preexec_fn=_address_space_2gb)
    assert time.perf_counter() - start < 10.0
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert "no collapse" in proc.stderr


@pytest.mark.parametrize("module", ["linext", "linext.cli"])
def test_import_leaves_scipy_out(module):
    # numpy takes longer to import than all of linext, and scipy.sparse longer
    # still; only chain-diag, interval-demo and the selftest criteria import
    # them, when they run, and only a parallel batch imports multiprocessing
    heavy = ("numpy", "scipy", "multiprocessing")
    code = f"import sys, {module}; print(sorted(m for m in sys.modules if m.split('.')[0] in {heavy}))"
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=SRC),
                         capture_output=True, text=True, timeout=60, check=True).stdout
    assert out == "[]\n"


def test_interval_demo_report():
    code, out, _ = run_cli(["interval-demo", "--n", "50", "--runs", "500",
                            "--seed", "6"])
    assert code == 0
    report = json.loads(out)
    res = report["results"]
    assert res["n"] == 50
    assert res["diagnostics"]["count"] == 500
    assert res["product_estimator"]["estimate_n"] > 0


def test_interval_demo_n1_diagnostics():
    # at n = 1 the shell is the center: every run tallies 0, matching ln 1
    code, out, _ = run_cli(["interval-demo", "--n", "1", "--runs", "3", "--seed", "6"])
    assert code == 0
    diag = strict_json(out)["results"]["diagnostics"]
    assert (diag["mean"], diag["z"], diag["flagged"]) == (0.0, 0.0, False)


@pytest.mark.parametrize("n", [str(2 ** 53 + 1), "1" + "0" * 400], ids=["2^53+1", "10^400"])
def test_exit_code_2_on_interval_n_past_float_precision(n):
    # float(n) is inexact past 2^53 and overflows at 10^400
    code, out, err = run_cli(["interval-demo", "--n", n, "--runs", "2", "--seed", "6"])
    assert code == 2
    assert out == ""
    assert "at most 2^53" in err


def test_interval_demo_counts_product_bits():
    # the product estimator draws its integers on its own fork of the stream
    code, out, _ = run_cli(["interval-demo", "--n", "50", "--runs", "2",
                            "--product-samples", "10", "--seed", "6"])
    assert code == 0
    assert json.loads(out)["accounting"]["bits_discrete"] > 0


def test_bench_csv_columns():
    code, out, _ = run_cli(["bench", "--sizes", "8", "--samples", "2", "--seed", "9"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,beta,mean_steps,mean_bits,bound_bits,mean_comparisons,bound_comparisons"
    fields = lines[1].split(",")
    assert fields[0] == "8"
    assert float(fields[3]) <= float(fields[4])
    assert float(fields[5]) <= float(fields[6])


def test_bench_names_the_sizes_drawn_from_their_support():
    # antichain(4) has 24 extensions, so its draws come from the enumerated
    # support with no chain step or comparison; antichain(8) runs the chain
    code, out, err = run_cli(["bench", "--sizes", "4,8", "--samples", "2", "--seed", "3"])
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert [(r[0], float(r[2]) == float(r[5]) == 0) for r in rows] == [("4", True), ("8", False)]
    assert err.startswith("bench: relation-free order, 2 samples per size, seed=3; n=4 drawn "
                          "from the enumerated support, not by the bounding chain that the "
                          "bounds cover [wall ")


def test_generated_seed_is_reported(chain_file):
    code, out, err = run_cli(["estimate", "--input", chain_file, "--epsilon", "0.5",
                              "--delta", "0.2"])
    assert code == 0
    report = json.loads(out)
    assert isinstance(report["seed"], int)
    assert "generated seed" in err


def test_determinism_byte_identical(pairs_file):
    argv = ["sample", "--input", pairs_file, "--beta", "1.3", "--count", "3",
            "--seed", "11"]
    _, first, _ = run_cli(argv)
    _, second, _ = run_cli(argv)
    assert first == second


def test_exit_code_2_on_bad_input(tmp_path):
    bad = tmp_path / "bad.posets"
    bad.write_text("1<2")
    code, _, err = run_cli(["count-exact", "--input", str(bad)])
    assert code == 2
    assert "error" in err

    cyc = tmp_path / "cycle.posets"
    cyc.write_text("n=2; 1<2; 2<1")
    code, _, _ = run_cli(["count-exact", "--input", str(cyc)])
    assert code == 2

    code, _, _ = run_cli(["count-exact", "--input", str(tmp_path / "missing")])
    assert code == 2

    latin = tmp_path / "latin1.posets"
    latin.write_bytes(b"n=3\n1<2\n\xff\n")
    code, out, err = run_cli(["count-exact", "--input", str(latin)])
    assert code == 2
    assert out == "" and "error:" in err and "Traceback" not in err


def test_exit_code_2_on_deeply_nested_json(tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text('{"n": ' + "[" * 100000 + "]" * 100000 + "}")
    code, _, err = run_cli(["count-exact", "--input", str(deep)])
    assert code == 2
    assert "nested too deeply" in err


@pytest.mark.parametrize("beta", ["nan", "inf", "-inf"])
def test_exit_code_2_on_non_finite_beta(pairs_file, beta):
    code, _, err = run_cli(["sample", "--input", pairs_file, f"--beta={beta}",
                            "--seed", "1"])
    assert code == 2
    assert "finite" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["sample", "--beta", "1", "--seed", "1", "--count", "0"],
    ["sample", "--beta", "1", "--seed", "1", "--count", "-2"],
    ["estimate", "--epsilon", "0.5", "--delta", "0.2", "--seed", "1", "--parallel", "-3"],
    ["estimate", "--epsilon", "0.5", "--delta", "0.2", "--seed", "1", "--parallel", "0"],
])
def test_exit_code_2_on_count_below_one(pairs_file, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--input", pairs_file])
    assert exc.value.code == 2
    assert "must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("samples,message", [
    ("0", "must be at least 1"), ("-1", "must be at least 1"), ("two", "expected an integer"),
])
def test_exit_code_2_on_bench_samples_below_one(samples, message, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["bench", "--sizes", "4", "--samples", samples, "--seed", "1"])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["sample", "--input", "PAIRS", "--beta", "1", "--count", "1000000000000", "--seed", "1"],
    ["bench", "--sizes", "4", "--samples", "1000000000000", "--seed", "1"],
], ids=["sample-count-10^12", "bench-samples-10^12"])
def test_exit_code_3_on_too_many_draws(pairs_file, argv):
    # more than tpa.MAX_RUNS draws are refused before the first one, instead
    # of keeping every draw's report entry or looping for ever
    argv = [pairs_file if a == "PAIRS" else a for a in argv]
    start = time.perf_counter()
    code, out, err = run_cli(argv)
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert out == ""
    assert "over the limit" in err


@pytest.mark.parametrize("argv", [
    ["bench", "--sizes", "abc", "--samples", "1", "--seed", "1"],
    ["bench", "--sizes", "8,,16", "--samples", "1", "--seed", "1"],
    ["bench", "--sizes", "0", "--samples", "1", "--seed", "1"],
    ["chain-diag", "--betas", "x"],
    ["chain-diag", "--betas", "0.5,"],
    ["selftest", "--criteria", "one"],
])
def test_exit_code_2_on_bad_comma_list(pairs_file, argv, capsys):
    if argv[0] == "chain-diag":
        argv = argv + ["--input", pairs_file]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "expected" in err or "must be at least 1" in err


def test_exit_code_3_on_huge_n_before_closure(tmp_path):
    huge = tmp_path / "huge.posets"
    huge.write_text("n=200000000")
    start = time.perf_counter()
    code, _, err = run_cli(["sample", "--input", str(huge), "--beta", "1", "--seed", "1"])
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert "too large" in err


def test_exit_code_3_on_guard(tmp_path):
    # antichain(30) and antichain(2000) have C(n, n // 2) ideals of one size,
    # so they are refused before any layer of the DP is built; loading the
    # 2000 elements takes about 0.45 s of the second bound
    for text, seconds in (("n=30", 1.0), ("n=2000", 1.5)):
        big = tmp_path / "big.posets"
        big.write_text(text)
        start = time.perf_counter()
        code, out, err = run_cli(["count-exact", "--input", str(big)])
        assert time.perf_counter() - start < seconds
        assert code == 3
        assert out == ""
        assert "too large" in err


def test_exit_code_3_on_guard_past_61_elements(tmp_path):
    # one bottom below 1998 elements below one top passes the width check and
    # trips the state limit inside layer 3, whose C(1998, 2) ideals are keyed
    # by 32 words each; the trip comes in the chunk of source ideals that
    # passes the limit, about 2 s into the run on a shared 2-core x86 host
    middle = range(2, 2000)
    big = tmp_path / "big.posets"
    big.write_text("; ".join(["n=2000"] + [f"1<{v}; {v}<2000" for v in middle]))
    start = time.perf_counter()
    code, _, err = run_cli(["count-exact", "--input", str(big)])
    assert time.perf_counter() - start < 15.0
    assert code == 3
    assert "ideals in layer 3" in err


def test_exit_code_3_on_kernel_support_before_enumerating(tmp_path):
    # antichain(10) has 10! = 3628800 extensions at beta = 10; the DP counts
    # them and the kernel is refused before the enumeration guard trips. The
    # default betas list the bands up to beta = 1 and are refused at 1.3,
    # whose cap of 2 admits 2 * 3^8 states.
    wide = tmp_path / "wide.posets"
    wide.write_text("n=10")
    for betas, seconds, size in ((["--betas", "10"], 0.5, 3628800), ([], 1.0, 13122)):
        start = time.perf_counter()
        code, out, err = run_cli(["chain-diag", "--input", str(wide), *betas])
        assert time.perf_counter() - start < seconds
        assert code == 3
        assert out == ""
        assert f"support size {size}" in err


def test_selftest_subset():
    code, out, err = run_cli(["selftest", "--criteria", "1,2"])
    assert code == 0
    report = json.loads(out)
    assert report["results"]["all_passed"] is True
    ids = [c["id"] for c in report["results"]["criteria"]]
    assert ids == [1, 2]
    assert "criterion 1" in err and "PASS" in err


def test_exit_code_2_on_unknown_criteria():
    code, out, err = run_cli(["selftest", "--criteria", "1,42,0"])
    assert code == 2
    assert out == ""
    assert "unknown criterion ids: [0, 42]" in err


# -- argument fuzz ---------------------------------------------------------------

def _mix(valid, invalid):
    """Two draws in three from valid values, one from invalid ones."""
    return st.one_of(st.sampled_from(valid), st.sampled_from(valid), st.sampled_from(invalid))


_ORDERS = {
    "one.posets": "n=1",
    "antichain3.posets": "n=3",
    "pairs.json": PAIRS,
    "chain4.posets": "n=4; 1<2; 2<3; 3<4",
    "reversed.posets": "n=3; 3<1; 2<1",
    "cycle.posets": "n=2; 1<2; 2<1",
    "out-of-range.posets": "n=2; 1<5",
    "empty.posets": "",
    "latin1.posets": b"n=3\n1<2\n\xff\n",  # not UTF-8
}
_ORDER_FILES = _mix(list(_ORDERS)[:5], list(_ORDERS)[5:])
_FORMATS = _mix(["auto"], ["edge-list", "structured"])
_EPSILONS = _mix(["0.5", "1", "0.1"], ["0", "-1", "nan", "inf", "1.5"])
_DELTAS = _mix(["0.25", "0.9"], ["0", "-1", "nan", "inf", "1", "2"])
_BETAS = _mix(["0", "0.5", "1.3", "3"], ["-1", "nan", "inf", "5"])
_COUNTS = _mix(["1", "2", "3"], ["-1", "0"])
_SEEDS = st.integers(-2, 2**64).map(str)


@pytest.fixture(scope="module")
def order_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("orders")
    for name, text in _ORDERS.items():
        if isinstance(text, bytes):
            (path / name).write_bytes(text)
        else:
            (path / name).write_text(text)
    return path


def _cli_argv(data, orders):
    command = data.draw(st.sampled_from(
        ["count-exact", "estimate", "sample", "chain-diag", "interval-demo", "bench"]))
    argv = [command]
    if command not in ("interval-demo", "bench"):
        argv += ["--input", str(orders / data.draw(_ORDER_FILES)),
                 "--format", data.draw(_FORMATS)]
    if command == "estimate":
        argv += [f"--epsilon={data.draw(_EPSILONS)}", f"--delta={data.draw(_DELTAS)}",
                 "--runs-override", str(data.draw(st.integers(1, 5))), "--parallel", "1"]
    elif command == "sample":
        argv += [f"--beta={data.draw(_BETAS)}", f"--count={data.draw(_COUNTS)}"]
        if data.draw(st.booleans()):
            argv.append("--lift")
    elif command == "chain-diag" and data.draw(st.booleans()):
        argv.append("--betas=" + ",".join(data.draw(st.lists(_BETAS, min_size=1, max_size=3))))
    elif command == "interval-demo":
        argv += [f"--n={data.draw(_mix(['1', '2', '4'], ['-1', '0']))}",
                 f"--runs={data.draw(_COUNTS)}", f"--product-samples={data.draw(_COUNTS)}"]
    elif command == "bench":
        sizes = data.draw(st.lists(_mix(["1", "2", "5", "8"], ["0"]), min_size=1, max_size=2))
        argv += ["--sizes=" + ",".join(sizes), f"--samples={data.draw(_COUNTS)}"]
    if command not in ("count-exact", "chain-diag"):
        argv.append(f"--seed={data.draw(_SEEDS)}")
    return argv


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_cli_argument_fuzz(order_dir, data):
    # every argument combination ends in a report, an input error or a guard,
    # never in a traceback, a hang or a non-JSON report
    argv = _cli_argv(data, order_dir)
    start = time.perf_counter()
    try:
        code, out, err = run_cli(argv)
    except SystemExit as exc:  # argparse rejected an argument
        assert exc.code == 2, argv
        return
    assert time.perf_counter() - start < 5.0, argv
    assert code in (0, 2, 3), argv
    if code != 0:
        assert out == "" and "error:" in err, argv
    elif argv[0] != "bench":
        strict_json(out)
