"""Command-line interface: subcommands, file formats, exit codes."""

import csv
import shlex
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multithresh import cli, evaluate, simulate
from multithresh.cli import (
    DataError,
    main,
    parse_config_file,
    read_sample_file,
    results_to_rows,
    rows_to_results,
)
from multithresh.evaluate import (ExperimentResult, MonteCarloConfig, mean_risk_by_n, monte_carlo,
                                  oracle_report, rate_slope)
from multithresh.wavelets import build_family


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
    u_grid = dict(line.split(" = ") for line in
                  (tmp_path / "est.csv.diag.txt").read_text().splitlines())["u_grid"]
    assert header[2:] == [f"candidate_u{u}" for u in u_grid.split(",")]
    # an ERM estimate is one of the candidates and writes no columns of them
    assert run(["estimate", "--model", "regression", "--input", raw, "--out", out,
                "--grid-size", 2048, "--per-candidate", "--scheme", "ERM"]) == 0
    assert out.read_text().splitlines()[0] == "x,f_tilde"


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


def _no_work(*args):
    raise AssertionError("the subcommand started work before rejecting its config")


@pytest.mark.parametrize("argv", [
    ["estimate", "--family", "Foo", "--input", "in.txt", "--out", "est.csv"],
    ["estimate", "--config", "wiggle.cfg", "--input", "in.txt", "--out", "est.csv"],
    ["check", "moment", "--family", "Foo"],
    ["simulate", "--n", 8, "--out", "s.txt"],
    ["simulate", "--n", "64,128", "--out", "s.txt"],
    ["rates", "--n", "20,30,40", "--reps", 1, "--out", "r.csv"],
    ["rates", "--config", "wiggle.cfg", "--n", "64,128,256", "--out", "r.csv"],
    ["check", "constants", "--c", 0],
    ["check", "constants", "--c", "nan"],
    ["check", "constants", "--K", 0.5],
    ["check", "oracle", "--epsilon", 0, "--input", "rows.csv"],
    ["check", "oracle", "--epsilon", "nan", "--input", "rows.csv"],
    ["check", "deviation", "--a", "1,x"],
    ["check", "deviation", "--a", -1],
    ["simulate", "--seed", -1, "--out", "s.txt"],
    ["rates", "--seed", -3, "--n", "64,128,256", "--reps", 1, "--out", "r.csv"],
    ["check", "moment", "--reps", 0],
    ["check", "deviation", "--reps", 0, "--n", 128],
    ["check", "ongle", "--c1", "nan"],
    ["check", "ongle", "--c2", "nan"],
    ["rates", "--universal", "--universal-c", "nan", "--n", "64,128,256", "--out", "r.csv"],
    ["rates", "--universal", "--universal-c", -1, "--n", "64,128,256", "--out", "r.csv"],
    ["estimate", "--model", "regression", "--B", 7, "--input", "in.txt", "--out", "est.csv"],
    ["estimate", "--config", "regression-B.cfg", "--input", "in.txt", "--out", "est.csv"],
    # usage errors: a flag the subcommand does not read, an unknown flag, no --out
    ["rates", "--B", 2, "--out", "r.csv"],
    ["check", "constants", "--rule", "soft"],
    ["estimate", "--seed", 1, "--input", "in.txt", "--out", "est.csv"],
    ["simulate", "--family", "Haar", "--out", "s.txt"],
    ["simulate", "--wiggle", 1, "--out", "s.txt"],
    ["simulate"],
    ["check", "oracle"],
    # a slope needs three distinct sample sizes; these failed after all replications
    ["rates", "--n", "512,512,512", "--out", "r.csv"],
    ["rates", "--n", "512,1024,512", "--out", "r.csv"],
    ["check", "moment", "--n", "256,1024"],
    ["check", "moment", "--n", "256,256,256"],
    # a repeated size would rerun the same streams and duplicate its rows
    ["rates", "--n", "64,64,128,256", "--out", "r.csv"],
    ["check", "moment", "--n", "256,512,1024,512"],
    # a target qualified with the other model: the first wrote y = 1 everywhere, the rest
    # ended in a traceback
    ["simulate", "--model", "regression", "--target", "uniform_density", "--out", "s.txt"],
    ["simulate", "--model", "density", "--target", "bump_regression", "--out", "s.txt"],
    ["rates", "--model", "density", "--target", "triangle_regression", "--n", "64,128,256",
     "--out", "r.csv"],
    ["check", "moment", "--target", "bump_regression"],
    ["check", "deviation", "--target", "bump_regression"],
    # a flag is a config key spelled in full, as on a config line: these ran as
    # --grid-size 1024 and --input f
    ["rates", "--gri", 1024, "--out", "r.csv"],
    ["estimate", "--in", "f", "--out", "est.csv"],
], ids=["estimate-family", "estimate-config-rule", "check-moment-family", "simulate-n-8",
        "simulate-n-list", "rates-n-below-split", "rates-config-rule", "check-constants-c-0",
        "check-constants-c-nan", "check-constants-K", "check-oracle-epsilon-0",
        "check-oracle-epsilon-nan", "check-deviation-a-text", "check-deviation-a-negative",
        "simulate-seed-negative", "rates-seed-negative", "check-moment-reps-0",
        "check-deviation-reps-0", "check-ongle-c1-nan", "check-ongle-c2-nan",
        "rates-universal-c-nan", "rates-universal-c-negative", "estimate-regression-B",
        "estimate-regression-B-config", "rates-B-not-read",
        "check-constants-rule-not-read", "estimate-seed-not-read", "simulate-family-not-read",
        "unknown-flag", "missing-out", "check-oracle-missing-input", "rates-n-repeated",
        "rates-n-two-distinct", "check-moment-n-two", "check-moment-n-repeated",
        "rates-n-one-repeat", "check-moment-n-one-repeat", "simulate-regression-density-target",
        "simulate-density-regression-target", "rates-density-regression-target",
        "check-moment-regression-target", "check-deviation-regression-target",
        "rates-flag-abbreviation", "estimate-flag-abbreviation"])
def test_config_errors_exit_1(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "wiggle.cfg").write_text("rule = wiggle\n")
    (tmp_path / "regression-B.cfg").write_text("model = regression\nB = 7\n")
    for work in ("monte_carlo", "check_moment", "check_deviation"):
        monkeypatch.setattr(cli, work, _no_work)
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["regression-B.cfg", "wiggle.cfg"]


@pytest.mark.parametrize("check,family,tau", [
    ("moment", "Daubechies6", 3), ("moment", "Daubechies8", 3), ("moment", "Daubechies10", 4),
    ("deviation", "Daubechies10", 4),
])
def test_check_levels_below_tau_are_config_errors(monkeypatch, capsys, check, family, tau):
    for work in ("check_moment", "check_deviation"):
        monkeypatch.setattr(cli, work, _no_work)
    assert run(["check", check, "--family", family]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: wavelet index (j, k) = (")
    assert f"needs tau <= j and 0 <= k < 2^j; tau = {tau} for {family}" in err
    assert "Traceback" not in err


_ESTIMATE_256 = ["estimate", "--input", "s.txt", "--grid-size", 256]
_RATES_SMALL = ["rates", "--n", "64,128,256", "--reps", 1, "--grid-size", 256]


@pytest.mark.parametrize("argv,path", [
    (["simulate", "--n", 100, "--out", "missing/s.txt"], "missing/s.txt"),
    ([*_ESTIMATE_256, "--out", "missing/est.csv"], "missing/est.csv"),
    ([*_ESTIMATE_256, "--out", "est.csv"], "est.csv.diag.txt"),
    ([*_RATES_SMALL, "--out", "missing/r.csv"], "missing/r.csv"),
    ([*_RATES_SMALL, "--out", "r.csv"], "r.summary.csv"),
], ids=["simulate-sample", "estimate-csv", "estimate-sidecar", "rates-rows", "rates-summary"])
def test_unwritable_output_is_config_error(tmp_path, monkeypatch, capsys, argv, path):
    # "missing/" is a directory that does not exist; the sidecar and summary paths are directories
    monkeypatch.chdir(tmp_path)
    assert run(["simulate", "--n", 100, "--out", "s.txt"]) == 0
    (tmp_path / "est.csv.diag.txt").mkdir()
    (tmp_path / "r.summary.csv").mkdir()
    capsys.readouterr()

    def no_work(*args):
        raise AssertionError(f"{argv[0]} started its work before checking its output paths")

    # estimate and rates probe both of their paths before they read a sample or replicate
    monkeypatch.setattr(cli, "monte_carlo", no_work)
    monkeypatch.setattr(cli, "read_sample_file", no_work)
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot write {path}: ")
    assert "Traceback" not in err
    # no partial output: only the sample and the two blocking directories remain
    assert sorted(p.name for p in tmp_path.iterdir()) == ["est.csv.diag.txt", "r.summary.csv",
                                                          "s.txt"]


def test_rates_builds_its_family_and_audits_its_target_once(tmp_path, monkeypatch):
    builds, audits = [], []
    shape, bound, smoothness = simulate._SHAPES["triangle"]

    def counted_shape(x):
        audits.extend([x.shape] if x.shape == (simulate.AUDIT_GRID_SIZE,) else [])
        return shape(x)

    def counted_build(*args):
        builds.append(args)
        return build_family(*args)

    monkeypatch.setitem(simulate._SHAPES, "triangle", (counted_shape, bound, smoothness))
    for module in (cli, evaluate):
        monkeypatch.setattr(module, "build_family", counted_build)
    assert run(["rates", "--model", "regression", "--target", "triangle", "--n", "64,128,256",
                "--reps", 1, "--grid-size", 256, "--out", tmp_path / "r.csv"]) == 0
    assert (len(builds), len(audits)) == (1, 1)


def test_estimate_regression_takes_only_B_1(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run(["simulate", "--model", "regression", "--n", 100, "--out", "s.txt"]) == 0
    estimate = ["estimate", "--model", "regression", "--input", "s.txt", "--out", "est.csv"]
    assert run([*estimate, "--B", 1]) == 0
    capsys.readouterr()
    assert run([*estimate, "--B", 7]) == 1
    assert "the regression model fixes B = 1" in capsys.readouterr().err


def test_uniform_noise_out_of_range_is_config_error(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    noise = ["--model", "regression", "--target", "triangle", "--noise", "uniform"]
    for argv in (["simulate", *noise, "--n", 100, "--out", "s.txt"],
                 ["rates", *noise, "--n", "64,128,256", "--reps", 1, "--out", "r.csv"]):
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "[0.1, 0.9]" in err
    # estimate does not sample, so it takes no noise setting
    assert run(["simulate", "--model", "regression", "--target", "triangle", "--n", 100,
                "--out", "s.txt"]) == 0
    estimate = ["estimate", "--model", "regression", "--input", "s.txt", "--out", "est.csv"]
    assert run(estimate) == 0
    assert run([*estimate, "--noise", "uniform"]) == 1


@pytest.mark.parametrize("argv,key,value", [
    (["estimate", "--input", "in.txt", "--out", "est.csv"], "rule", "wiggle"),
    (["rates", "--n", "64,128,256", "--out", "r.csv"], "reps", "abc"),
    (["simulate", "--out", "s.txt"], "model", "foo"),
    (["simulate", "--out", "s.txt"], "seed", "-1"),
])
def test_flag_and_config_line_give_one_error(tmp_path, monkeypatch, capsys, argv, key, value):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.cfg").write_text(f"{key} = {value}\n")
    errors = []
    for given_as in (["--" + key, value], ["--config", "bad.cfg"]):
        assert run([*argv, *given_as]) == 1
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    assert errors[0].startswith(f"config error: {key}: ") and repr(value) in errors[0]


def test_config_file_keys_of_other_subcommands(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    # one file serves simulate and estimate; each ignores the other's keys
    Path("run.cfg").write_text("model = regression\nn = 128\nseed = 3\nscheme = ERM\n")
    assert run(["simulate", "--config", "run.cfg", "--out", "s.txt"]) == 0
    assert read_sample_file("s.txt", "regression").n == 128
    assert run(["estimate", "--config", "run.cfg", "--input", "s.txt", "--out", "e.csv"]) == 0
    assert "scheme = ERM" in Path("e.csv.diag.txt").read_text()
    # a key that no subcommand reads is named
    Path("typo.cfg").write_text("rulee = soft\n")
    capsys.readouterr()
    assert run(["simulate", "--config", "typo.cfg", "--out", "s.txt"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "'rulee'" in err


def test_readme_usage_lines_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command-line usage", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [line.strip() for line in block.replace("\\\n", " ").splitlines()]
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("multithresh ")]
    assert len(commands) == 8
    for argv in commands:
        args = cli.build_parser().parse_args(argv)
        assert args.command == " ".join(argv[:2 if argv[0] == "check" else 1])


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


@pytest.mark.parametrize("argv,target,other", [
    (["simulate", "--model", "regression", "--target", "uniform_density", "--out", "s.txt"],
     "uniform_density", "regression"),
    (["check", "deviation", "--target", "bump_regression"], "bump_regression", "density"),
])
def test_target_of_other_model_names_both_models(tmp_path, monkeypatch, capsys, argv, target,
                                                  other):
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 1
    model = target.rsplit("_", 1)[1]
    assert capsys.readouterr().err == (f"config error: target {target!r} belongs to the "
                                       f"{model} model, not the {other} model\n")
    assert list(tmp_path.iterdir()) == []


def test_rates_scheme_erm_fits_erm_risk(tmp_path):
    out = tmp_path / "rates.csv"
    assert run(["rates", "--scheme", "ERM", "--n", "64,128,256", "--reps", 2, "--seed", 3,
                "--rho", "1.0", "--grid-size", 1024, "--out", out]) == 0
    with open(out, newline="") as fh:
        assert {row["scheme"] for row in csv.DictReader(fh)} == {"ERM"}
    summary = dict(zip(*(line.split(",") for line in
                         (tmp_path / "rates.summary.csv").read_text().splitlines())))
    assert summary["scheme"] == "ERM"
    results = rows_to_results(str(out))
    erm_slope, erm_stderr = rate_slope(*mean_risk_by_n(results, "erm_risk"))
    assert (float(summary["slope"]), float(summary["slope_stderr"])) == (erm_slope, erm_stderr)
    assert erm_slope != rate_slope(*mean_risk_by_n(results, "aggregate_risk"))[0]


def test_check_oracle_rows_of_other_model_target_are_data_error(tmp_path, capsys):
    rows = tmp_path / "rows.csv"
    results = [ExperimentResult(
        model="density", target="triangle_regression", n=256, rep=rep, root_seed=1,
        candidate_risks=(0.1, 0.2), aggregate_risk=0.12, erm_risk=0.1, weights=(0.6, 0.4),
        chosen_u=0, universal_risk=None, m=128, l=128, j1=5, rho=1.0) for rep in range(3)]
    cli._write_csv(rows, list(cli._ROW_COLUMNS), results_to_rows(results, "AEW", "hard"))
    assert run(["check", "oracle", "--input", rows]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {rows}: target 'triangle_regression' belongs to the "
                          "regression model, not the density model")


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


_finite = st.floats(allow_nan=False)


@st.composite
def _experiment_results(draw):
    keys = draw(st.lists(st.tuples(st.sampled_from(["density", "regression"]),
                                   st.sampled_from(["bump", "triangle"]),
                                   st.integers(62, 10 ** 6), st.integers(0, 99)),
                         min_size=1, max_size=6, unique=True))
    results = []
    for model, target, n, rep in keys:
        M = draw(st.integers(1, 5))
        results.append(ExperimentResult(
            model=model, target=target, n=n, rep=rep, root_seed=draw(st.integers(0, 2 ** 32)),
            candidate_risks=tuple(draw(st.lists(_finite, min_size=M, max_size=M))),
            aggregate_risk=draw(_finite), erm_risk=draw(_finite),
            weights=tuple(draw(st.lists(_finite, min_size=M, max_size=M))),
            chosen_u=draw(st.integers(0, M - 1)), universal_risk=draw(st.none() | _finite),
            m=draw(st.integers(16, n)), l=draw(st.integers(16, n)),
            j1=draw(st.integers(0, 20)), rho=draw(_finite)))
    return results


@settings(max_examples=50, deadline=None)
@given(results=_experiment_results())
def test_rows_csv_roundtrip_property(results):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rows.csv"
        cli._write_csv(path, list(cli._ROW_COLUMNS), results_to_rows(results, "AEW", "hard"))
        back = rows_to_results(str(path))
    assert back == sorted(results, key=lambda r: (r.model, r.target, r.n, r.rep))


# finite floats plus named edge cases: signed zeros, subnormals, integral values, |v| >= 1e16
_csv_floats = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 0.0, 5e-324, -2.2250738585072014e-308, 1e16, -123456789012345678.0, 2.0 ** 60, 3.0])


@settings(max_examples=100, deadline=None)
@given(rows=st.integers(1, 4).flatmap(lambda width: st.lists(
    st.lists(_csv_floats, min_size=width, max_size=width), min_size=1, max_size=30)),
    header=st.booleans())
def test_float_array_csv_matches_per_value_format(rows, header):
    names = [f"c{i}" for i in range(len(rows[0]))] if header else None
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "floats.csv"
        cli._write_csv(path, names, np.array(rows))
        got = path.read_bytes()
    lines = ([",".join(names)] if header else []) + [
        ",".join(format(v, ".17g") for v in row) for row in rows]
    assert got == ("\n".join(lines) + "\n").encode()


def test_rows_with_empty_universal_risk_round_trip(tmp_path):
    base = dict(model="density", target="triangle", n=512, root_seed=9, candidate_risks=(0.5, -0.0),
                aggregate_risk=0.25, erm_risk=0.5, weights=(1.0, 0.0), chosen_u=0, m=400, l=112,
                j1=7, rho=1.0)
    results = [ExperimentResult(rep=0, universal_risk=None, **base),
               ExperimentResult(rep=1, universal_risk=1e-300, **base)]
    path = tmp_path / "rows.csv"
    cli._write_csv(path, list(cli._ROW_COLUMNS), results_to_rows(results, "AEW", "hard"))
    assert path.read_text().splitlines()[1].endswith(",")
    assert rows_to_results(str(path)) == results


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
    rep = oracle_report(results, 1.0)
    assert f"{rep.lhs:.17g}"[:12] in text


def test_check_oracle_bad_rows_are_data_errors(tmp_path, capsys):
    common = ["--target", "triangle", "--n", "64,128,256", "--reps", 2, "--seed", 3,
              "--rho", "2.0", "--grid-size", 1024]
    density, regression = tmp_path / "d.csv", tmp_path / "r.csv"
    assert run(["rates", "--model", "density", *common, "--out", density]) == 0
    assert run(["rates", "--model", "regression", *common, "--out", regression]) == 0
    # both models at one n: the rows of the second file without its header
    mixed = tmp_path / "mixed.csv"
    mixed.write_text(density.read_text() + "".join(regression.read_text().splitlines(True)[1:]))
    unknown = tmp_path / "unknown.csv"
    unknown.write_text(density.read_text().replace(",triangle,", ",nope,"))
    capsys.readouterr()
    for path, message in ((mixed, "mixed-configuration"), (unknown, "unknown target")):
        assert run(["check", "oracle", "--input", path]) == 2
        err = capsys.readouterr().err
        assert "data error:" in err and message in err and "Traceback" not in err

    # rows that contradict each other: a NaN, a replication column that differs
    # between the rows of one replication, a candidate offset given twice
    lines = density.read_text().splitlines()
    columns = lines[0].split(",")
    last = len(lines)  # file line of the last row, a candidate of the kept n = 256

    def edited(name, line, column, text):
        fields = lines[line - 1].split(",")
        fields[columns.index(column)] = text
        path = tmp_path / name
        path.write_text("\n".join([*lines[:line - 1], ",".join(fields), *lines[line:]]) + "\n")
        return path, line, column

    cases = [edited(f"nan_{c}.csv", last, c, "nan") for c in
             ("candidate_risk", "weight", "rho", "aggregate_risk", "erm_risk", "universal_risk")]
    cases += [edited(f"differs_{c}.csv", last, c, text) for c, text in
              (("chosen_u", "99"), ("erm_risk", "0.125"), ("aggregate_risk", "inf"),
               ("universal_risk", "0.5"), ("rho", "3.0"), ("M", "9"))]
    repeated, line, _ = edited("repeated_u.csv", last, "candidate_risk", "0.0")
    repeated.write_text(density.read_text() + repeated.read_text().splitlines()[-1] + "\n")
    cases.append((repeated, last + 1, "u"))
    for path, line, column in cases:
        assert run(["check", "oracle", "--input", path]) == 2, path.name
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {path}:{line}: {column} ") and "Traceback" not in err

    # every replication at the kept n = 256 without one of its offsets, with one
    # offset too many, or with a chosen_u that is none of its offsets
    rows = [line.split(",") for line in lines[1:]]
    u, n, chosen = (columns.index(c) for c in ("u", "n", "chosen_u"))
    M = int(rows[-1][columns.index("M")])

    def rewritten(name, new_rows):
        path = tmp_path / name
        path.write_text("\n".join([lines[0], *map(",".join, new_rows)]) + "\n")
        return path

    for path, rep, problem in (
            (rewritten("no_u1.csv", [r for r in rows if (r[n], r[u]) != ("256", "1")]),
             0, "u = [1] missing"),
            (rewritten("no_last_u.csv", [r for r in rows if (r[n], r[u]) != ("256", str(M - 1))]),
             0, f"u = [{M - 1}] missing"),
            (rewritten("extra_u.csv", [*rows, [*rows[-1][:u], str(M), *rows[-1][u + 1:]]]),
             1, f"u = [{M}] outside 0..M-1"),
            (rewritten("chosen_u.csv", [[*r[:chosen], "99", *r[chosen + 1:]] if r[n] == "256"
                                        else r for r in rows]),
             0, "chosen_u = 99 is none of its u")):
        assert run(["check", "oracle", "--input", path]) == 2, path.name
        assert capsys.readouterr().err == (
            f"data error: {path}: replication (model, target, n, rep) = "
            f"('density', 'triangle', 256, {rep}), M = {M}: {problem}\n")


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
