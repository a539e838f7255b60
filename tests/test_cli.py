"""Command-line surface: reports, formats, exit codes, determinism."""

import contextlib
import io
import json

import pytest

from linext import cli
from linext.budgets import (
    sample_bits_bound,
    sample_comparisons_bound,
    total_bits_bound,
    total_bits_bound_as_printed,
)

GRID23 = "n=6; 1<2; 2<3; 4<5; 5<6; 1<4; 2<5; 3<6"
CHAIN5 = "n=5; 1<2; 2<3; 3<4; 4<5"
PAIRS = '{"n": 4, "relations": [[1, 3], [2, 4]]}'


def run_cli(argv):
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


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


def test_count_exact_grid(grid_file):
    code, out, err = run_cli(["count-exact", "--input", grid_file])
    assert code == 0
    report = json.loads(out)
    assert report["results"]["L"] == 5
    assert report["command"] == "count-exact"
    assert "wall" in err  # timing lives on stderr, not in the report
    assert "wall" not in out


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


def test_chain_diag(pairs_file):
    code, out, _ = run_cli(["chain-diag", "--input", pairs_file])
    assert code == 0
    report = json.loads(out)
    assert report["results"]["pass"] is True
    assert report["results"]["max_gap"] <= 1e-10
    betas = [row["beta"] for row in report["results"]["kernels"]]
    assert betas[-1] == 4.0


def test_interval_demo_report():
    code, out, _ = run_cli(["interval-demo", "--n", "50", "--runs", "500",
                            "--seed", "6"])
    assert code == 0
    report = json.loads(out)
    res = report["results"]
    assert res["n"] == 50
    assert res["diagnostics"]["count"] == 500
    assert res["product_estimator"]["estimate_n"] > 0


def test_bench_csv_columns():
    code, out, _ = run_cli(["bench", "--sizes", "8", "--samples", "2", "--seed", "9"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,beta,mean_steps,mean_bits,bound_bits,mean_comparisons,bound_comparisons"
    fields = lines[1].split(",")
    assert fields[0] == "8"
    assert float(fields[3]) <= float(fields[4])
    assert float(fields[5]) <= float(fields[6])


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


def test_exit_code_3_on_guard(tmp_path):
    big = tmp_path / "big.posets"
    big.write_text("n=30")
    code, _, err = run_cli(["count-exact", "--input", str(big)])
    assert code == 3
    assert "too large" in err


def test_selftest_subset():
    code, out, err = run_cli(["selftest", "--criteria", "1,2"])
    assert code == 0
    report = json.loads(out)
    assert report["results"]["all_passed"] is True
    ids = [c["id"] for c in report["results"]["criteria"]]
    assert ids == [1, 2]
    assert "criterion 1" in err and "PASS" in err
