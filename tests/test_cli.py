"""Command-line interface: subcommands, file formats, exit codes."""

import numpy as np
import pytest

from multithresh.cli import (
    DataError,
    main,
    parse_config_file,
    read_sample_file,
    rows_to_results,
)
from multithresh.evaluate import MonteCarloConfig, monte_carlo, oracle_report
from multithresh.aggregation import theory_constants


def run(argv):
    return main([str(a) for a in argv])


def test_simulate_density_roundtrip(tmp_path):
    out = tmp_path / "sample.txt"
    assert run(["simulate", "--model", "density", "--target", "triangle",
                "--n", 256, "--seed", 5, "--out", out]) == 0
    sample = read_sample_file(str(out), "density")
    assert sample.n == 256
    assert np.all((sample.x >= 0) & (sample.x <= 1))
    # byte-identical on re-run with the same seed
    first = out.read_bytes()
    assert run(["simulate", "--model", "density", "--target", "triangle",
                "--n", 256, "--seed", 5, "--out", out]) == 0
    assert out.read_bytes() == first


def test_simulate_regression_format(tmp_path):
    out = tmp_path / "pairs.txt"
    assert run(["simulate", "--model", "regression", "--target", "bump",
                "--n", 128, "--seed", 1, "--out", out]) == 0
    sample = read_sample_file(str(out), "regression")
    assert sample.n == 128
    assert np.all((sample.y >= 0) & (sample.y <= 1))


def test_estimate_on_simulated_sample(tmp_path):
    raw = tmp_path / "sample.txt"
    run(["simulate", "--model", "density", "--target", "uniform",
         "--n", 1024, "--seed", 42, "--out", raw])
    out = tmp_path / "est.csv"
    assert run(["estimate", "--model", "density", "--input", raw, "--out", out,
                "--B", 1.0, "--grid-size", 4096]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x,f_tilde"
    values = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert values.shape == (4096, 2)
    assert np.all((values[:, 1] >= 0.0) & (values[:, 1] <= 1.0))
    diag_text = (tmp_path / "est.csv.diag.txt").read_text()
    assert "chosen_u" in diag_text and "weights" in diag_text
    # determinism: byte-identical when re-run
    first = out.read_bytes()
    run(["estimate", "--model", "density", "--input", raw, "--out", out,
         "--B", 1.0, "--grid-size", 4096])
    assert out.read_bytes() == first


def test_estimate_per_candidate_columns(tmp_path):
    raw = tmp_path / "sample.txt"
    run(["simulate", "--model", "regression", "--target", "triangle",
         "--n", 256, "--seed", 3, "--out", raw])
    out = tmp_path / "est.csv"
    assert run(["estimate", "--model", "regression", "--input", raw, "--out", out,
                "--grid-size", 2048, "--per-candidate"]) == 0
    header = out.read_text().splitlines()[0].split(",")
    assert header[:2] == ["x", "f_tilde"]
    assert any(c.startswith("candidate_u") for c in header)


@pytest.mark.parametrize("model,line", [("density", "nan"), ("regression", "0.5,nan"),
                                        ("regression", "nan,1")])
@pytest.mark.parametrize("position", [0, 299])  # first line trains, last line learns
def test_estimate_rejects_nan(tmp_path, capsys, model, line, position):
    raw = tmp_path / "sample.txt"
    run(["simulate", "--model", model, "--target", "triangle", "--n", 300,
         "--seed", 1, "--out", raw])
    lines = raw.read_text().splitlines()
    lines[position] = line
    raw.write_text("\n".join(lines) + "\n")
    out = tmp_path / "est.csv"
    code = run(["estimate", "--model", model, "--input", raw, "--out", out])
    err = capsys.readouterr().err
    assert code == 2
    assert "data error:" in err and "finite and in [0, 1]" in err
    assert not out.exists()


def test_estimate_sample_too_small_for_split(tmp_path, capsys):
    raw = tmp_path / "sample.txt"
    assert run(["simulate", "--n", 40, "--out", raw]) == 0
    capsys.readouterr()
    assert run(["estimate", "--input", raw, "--out", tmp_path / "est.csv"]) == 2
    err = capsys.readouterr().err
    assert "data error:" in err and "n = 40" in err and "at least 62" in err


@pytest.mark.parametrize("argv", [
    ["estimate", "--family", "Foo", "--input", "in.txt", "--out", "est.csv"],
    ["estimate", "--config", "wiggle.cfg", "--input", "in.txt", "--out", "est.csv"],
    ["check", "moment", "--family", "Foo"],
    ["simulate", "--n", 8, "--out", "s.txt"],
    ["simulate", "--n", "64,128", "--out", "s.txt"],
    ["rates", "--n", "20,30,40", "--reps", 1, "--out", "r.csv"],
    ["rates", "--config", "wiggle.cfg", "--n", "64,128,256", "--out", "r.csv"],
], ids=["estimate-family", "estimate-config-rule", "check-moment-family", "simulate-n-8",
        "simulate-n-list", "rates-n-below-split", "rates-config-rule"])
def test_config_errors_exit_1(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "wiggle.cfg").write_text("rule = wiggle\n")
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "Traceback" not in err


def test_estimate_malformed_line_reports_lineno(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("0.5\nabc\n0.25\n")
    out = tmp_path / "est.csv"
    code = run(["estimate", "--model", "density", "--input", bad, "--out", out])
    assert code == 2
    err = capsys.readouterr().err
    assert "bad.txt:2" in err


def test_rates_writes_rows_and_summary(tmp_path):
    out = tmp_path / "rates.csv"
    assert run(["rates", "--model", "density", "--target", "triangle",
                "--n", "64,128,256", "--reps", 2, "--seed", 9, "--rho", "1.0",
                "--grid-size", 2048, "--out", out]) == 0
    rows = out.read_text().splitlines()
    assert rows[0].startswith("model,target,scheme,rule,rho,n,rep")
    summary = (tmp_path / "rates.summary.csv").read_text().splitlines()
    header = summary[0].split(",")
    values = summary[1].split(",")
    expected = dict(zip(header, values))
    assert float(expected["expected_slope"]) == pytest.approx(-2.0 / 3.0, abs=1e-4)
    assert expected["rho_mode"] == "1"


def test_rates_determinism_byte_identical(tmp_path):
    args = ["rates", "--model", "regression", "--target", "triangle",
            "--n", "64,128,256", "--reps", 2, "--seed", 4, "--rho", "1.0",
            "--grid-size", 2048]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(args + ["--out", out1]) == 0
    assert run(args + ["--out", out2]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_rates_config_errors(tmp_path):
    out = tmp_path / "r.csv"
    assert run(["rates", "--n", "64,128,256", "--reps", 0, "--out", out]) == 1
    assert run(["rates", "--n", "64,128", "--reps", 2, "--out", out]) == 1
    assert run(["rates", "--n", "64,128,256", "--reps", 1, "--target", "nope",
                "--out", out]) == 1


def test_rows_csv_roundtrip(tmp_path):
    out = tmp_path / "rates.csv"
    run(["rates", "--model", "density", "--target", "bump", "--n", "128,256,512",
         "--reps", 3, "--seed", 2, "--rho", "2.0", "--grid-size", 2048,
         "--out", out])
    results = rows_to_results(str(out))
    assert all(r.universal_risk is None for r in results)  # empty column
    cfg = MonteCarloConfig(model="density", target="bump", ns=(128, 256, 512),
                           reps=3, root_seed=2, rho=2.0, grid_size=2048)
    direct = monte_carlo(cfg)
    by_key = {(r.n, r.rep): r for r in direct}
    assert len(results) == len(direct)
    for r in results:
        d = by_key[(r.n, r.rep)]
        assert r.aggregate_risk == pytest.approx(d.aggregate_risk, rel=1e-15)
        assert np.allclose(r.candidate_risks, d.candidate_risks, rtol=1e-15)
        assert np.allclose(r.weights, d.weights, rtol=1e-15)
    # a malformed row is reported with its line number
    lines = out.read_text().splitlines()
    for bad in (lines[2].replace(",0,", ",zero,", 1), lines[2].rsplit(",", 2)[0]):
        broken = tmp_path / "broken.csv"
        broken.write_text("\n".join(lines[:2] + [bad] + lines[3:]) + "\n")
        with pytest.raises(DataError, match="broken.csv:3: malformed row"):
            rows_to_results(str(broken))


def test_check_constants(capsys):
    assert run(["check", "constants", "--c", 16, "--K", 1]) == 0
    out = capsys.readouterr().out
    assert "beta1 = 0.000108506944" in out
    assert "beta2 = 5.4253472222" in out


def test_check_ongle_pass_and_fail(capsys):
    assert run(["check", "ongle", "--rule", "soft"]) == 0
    assert "pass" in capsys.readouterr().out
    assert run(["check", "ongle", "--rule", "hard", "--c1", "0.0"]) == 3


def test_check_oracle_from_csv(tmp_path, capsys):
    out = tmp_path / "rates.csv"
    run(["rates", "--model", "regression", "--target", "bump", "--n", "256,512,1024",
         "--reps", 3, "--seed", 8, "--rho", "2.0", "--grid-size", 2048,
         "--out", out])
    assert run(["check", "oracle", "--input", out]) == 0
    captured = capsys.readouterr()
    text = captured.out
    assert "kept n = 1024, dropped n = 256, 512" in captured.err
    assert "LHS (mean aggregate risk)" in text
    assert "bound satisfied" in text
    # replay matches a direct computation on the same rows (largest n kept)
    results = [r for r in rows_to_results(str(out)) if r.n == 1024]
    constants = theory_constants("regression")
    rep = oracle_report(results, constants, 1.0)
    assert f"{rep.lhs:.17g}"[:12] in text


def test_config_file_merging(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# experiment configuration\n"
        "model = density\n"
        "target = triangle\n"
        "n = 256\n"
        "seed = 10\n"
    )
    parsed = parse_config_file(str(cfg))
    assert parsed == {"model": "density", "target": "triangle",
                      "n": "256", "seed": "10"}
    out = tmp_path / "s.txt"
    # flag overrides the file value for n
    assert run(["simulate", "--config", cfg, "--n", 128, "--out", out]) == 0
    assert read_sample_file(str(out), "density").n == 128


def test_config_file_errors(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("model density\n")
    out = tmp_path / "s.txt"
    assert run(["simulate", "--config", bad, "--out", out]) == 1
    assert run(["simulate", "--config", tmp_path / "missing.cfg", "--out", out]) == 1
