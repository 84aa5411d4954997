"""Risk measurement, Monte Carlo engine, and verification reports."""

import math
import re

import numpy as np
import pytest

from multithresh import evaluate, simulate
from multithresh.aggregation import LossSpec, beta_constants
from multithresh.evaluate import (
    DeviationReport,
    ExperimentResult,
    MomentReport,
    MonteCarloConfig,
    check_deviation,
    check_moment,
    mean_risk_by_n,
    monte_carlo,
    oracle_report,
    rate_slope,
)
from multithresh.coefficients import min_rho
from multithresh.simulate import get_target
from multithresh.wavelets import analyze, build_family


@pytest.fixture(scope="module")
def haar():
    return build_family("Haar", 12)


# ---------------------------------------------------------------------------
# rate_slope
# ---------------------------------------------------------------------------

def test_rate_slope_exact_power_laws():
    ns = np.array([256, 512, 1024, 2048])
    slope, stderr = rate_slope(ns, ns ** (-2.0 / 3.0))
    assert slope == pytest.approx(-2.0 / 3.0, abs=1e-12)
    assert stderr == pytest.approx(0.0, abs=1e-12)
    slope, _ = rate_slope(ns, 7.3 * ns ** (-1.0))
    assert slope == pytest.approx(-1.0, abs=1e-12)


def test_rate_slope_scale_invariance():
    ns = [256, 1024, 4096]
    risks = np.array([0.31, 0.11, 0.05])
    s1, _ = rate_slope(ns, risks)
    s2, _ = rate_slope(ns, 17.0 * risks)
    assert s1 == pytest.approx(s2, abs=1e-12)


def test_rate_slope_validation():
    with pytest.raises(ValueError):
        rate_slope([256, 512], [0.1, 0.2])
    with pytest.raises(ValueError):
        rate_slope([256, 512, 1024], [0.1, -0.2, 0.1])
    with pytest.raises(ValueError):
        rate_slope([256, 256, 256], [0.1, 0.2, 0.3])


# ---------------------------------------------------------------------------
# Monte Carlo engine
# ---------------------------------------------------------------------------

def test_monte_carlo_deterministic():
    cfg = MonteCarloConfig(model="density", target="triangle", ns=(256,), reps=2,
                           rho=2.0, grid_size=2 ** 12)
    a = monte_carlo(cfg)
    b = monte_carlo(cfg)
    assert len(a) == 2
    for ra, rb in zip(a, b):
        assert ra.candidate_risks == rb.candidate_risks
        assert ra.aggregate_risk == rb.aggregate_risk
        assert ra.weights == rb.weights


def test_monte_carlo_rows_populated():
    cfg = MonteCarloConfig(model="regression", target="bump", ns=(128, 256), reps=3,
                           rho=1.0, grid_size=2 ** 12, include_universal=True)
    rows = monte_carlo(cfg)
    assert len(rows) == 6
    for r in rows:
        assert r.aggregate_risk >= 0.0
        assert r.erm_risk >= 0.0
        assert all(c >= 0.0 for c in r.candidate_risks)
        assert r.universal_risk is not None and r.universal_risk >= 0.0
        assert abs(sum(r.weights) - 1.0) < 1e-12
        assert r.m + r.l == r.n


def test_monte_carlo_aggregate_beats_worst_candidate():
    cfg = MonteCarloConfig(model="density", target="uniform", ns=(1024,), reps=20,
                           grid_size=2 ** 12)
    rows = monte_carlo(cfg)
    mean_agg = float(np.mean([r.aggregate_risk for r in rows]))
    mean_worst = float(np.mean([max(r.candidate_risks) for r in rows]))
    assert mean_agg < mean_worst


def test_monte_carlo_config_validation():
    with pytest.raises(ValueError):
        MonteCarloConfig(model="poisson", target="uniform", ns=(256,), reps=1)
    with pytest.raises(ValueError):
        MonteCarloConfig(model="density", target="uniform", ns=(256,), reps=0)
    with pytest.raises(ValueError):
        MonteCarloConfig(model="density", target="uniform", ns=(8,), reps=1)
    # the train/learn split needs n >= 62
    with pytest.raises(ValueError, match="at least 62"):
        MonteCarloConfig(model="density", target="uniform", ns=(61, 128), reps=1)
    MonteCarloConfig(model="density", target="uniform", ns=(62,), reps=1)
    # a repeated size would rerun the same streams and duplicate its rows
    with pytest.raises(ValueError, match="distinct"):
        MonteCarloConfig(model="density", target="uniform", ns=(64, 64, 128), reps=1)
    with pytest.raises(ValueError, match="root_seed must be a non-negative integer, got -1"):
        MonteCarloConfig(model="density", target="uniform", ns=(62,), reps=1, root_seed=-1)
    for c in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="universal_c"):
            MonteCarloConfig(model="density", target="uniform", ns=(62,), reps=1,
                             universal_c=c)
    # the target is looked up at construction, in the config's model
    with pytest.raises(ValueError, match="unknown target 'sawtooth_density'"):
        MonteCarloConfig(model="density", target="sawtooth", ns=(62,), reps=1)
    with pytest.raises(ValueError, match="belongs to the regression model, not the density"):
        MonteCarloConfig(model="density", target="bump_regression", ns=(62,), reps=1)
    with pytest.raises(ValueError, match="belongs to the density model, not the regression"):
        MonteCarloConfig(model="regression", target="uniform_density", ns=(62,), reps=1)
    MonteCarloConfig(model="regression", target="uniform_regression", ns=(62,), reps=1)
    with pytest.raises(TypeError):  # both schemes' risks are recorded, so there is no scheme
        MonteCarloConfig(model="density", target="uniform", ns=(62,), reps=1, scheme="AEW")
    # what monte_carlo would reject only after its first sample, the config rejects at once
    for kwargs, match in [
        (dict(rule="bogus"), "unknown rule 'bogus'"),
        (dict(rho=0.0), "rho must be positive and finite"),
        (dict(rho=math.nan), "rho must be positive and finite"),
        (dict(rho=-1.0), "rho must be positive and finite"),
        (dict(rho=math.inf), "rho must be positive and finite"),
        (dict(grid_size=1), "grid_size must be at least 2"),
        (dict(family="Daubechies12"), "unsupported family 'Daubechies12'"),
        (dict(cascade_depth=99), "cascade_depth 99 out of range"),
    ]:
        for model in ("density", "regression"):
            with pytest.raises(ValueError, match=match):
                MonteCarloConfig(model=model, target="triangle", ns=(62,), reps=1, **kwargs)
    with pytest.raises(ValueError, match="unknown noise kind 'gaussian'"):
        MonteCarloConfig(model="regression", target="triangle", ns=(62,), reps=1,
                         noise="gaussian")
    with pytest.raises(ValueError, match="uniform noise requires target values"):
        MonteCarloConfig(model="regression", target="triangle", ns=(62,), reps=1, noise="uniform")
    # the density model draws no noise, and rho None means the theory constant
    MonteCarloConfig(model="density", target="triangle", ns=(62,), reps=1, noise="uniform")
    MonteCarloConfig(model="regression", target="twostep", ns=(62,), reps=1, noise="uniform",
                     rho=None, rule="garrote", grid_size=2)


def test_noise_audit_runs_once_per_target(monkeypatch):
    # the audit grid is evaluated once per target object, not once per replication
    audits = []
    shape, bound, smoothness = simulate._SHAPES["triangle"]

    def counted(x):
        audits.extend([x.shape] if x.shape == (simulate.AUDIT_GRID_SIZE,) else [])
        return shape(x)

    monkeypatch.setitem(simulate._SHAPES, "triangle", (counted, bound, smoothness))
    config = MonteCarloConfig(model="regression", target="triangle", ns=(64, 128, 256), reps=3,
                              rho=1.0, grid_size=2 ** 10)
    assert len(audits) == 1  # the config's own target
    assert len(monte_carlo(config)) == 9
    assert len(audits) == 1  # which the run uses


@pytest.mark.parametrize("model,target,B", [
    ("density", "uniform", 1.0), ("density", "bump", 1.9), ("density", "triangle", 2.0),
    ("density", "twostep", 4.0 / 3.0), ("regression", "triangle", 1.0), ("regression", "bump", 1.0),
])
def test_monte_carlo_loss_clips_at_max_of_one_and_bound(model, target, B):
    cfg = MonteCarloConfig(model=model, target=target, ns=(62,), reps=1, grid_size=256)
    assert cfg.pipeline[3] == LossSpec(model, B, 256)


def test_mean_risk_by_n():
    cfg = MonteCarloConfig(model="density", target="uniform", ns=(128, 256), reps=4,
                           rho=2.0, grid_size=2 ** 12)
    rows = monte_carlo(cfg)
    ns, means = mean_risk_by_n(rows, "aggregate_risk")
    assert ns == [128, 256]
    assert all(m >= 0 for m in means)
    for n, mean in zip(ns, means):
        assert mean == np.mean([r.aggregate_risk for r in rows if r.n == n])


# ---------------------------------------------------------------------------
# Hypothesis checks (reduced-size versions; full scale in acceptance)
# ---------------------------------------------------------------------------

def test_check_moment_uniform_haar(haar):
    report = check_moment(
        haar, get_target("uniform", "density"), [(2, 0), (3, 1)],
        ns=(256, 1024, 4096), reps=1500, root_seed=7,
    )
    # E|beta_hat|^4 ~ 3/n^2 for the flat density
    assert -2.5 < report.slope < -1.5
    for n, m4 in zip(report.ns, report.fourth_moments):
        assert m4 == pytest.approx(3.0 / n ** 2, rel=0.35)


def test_check_moment_slope_noise_scales_with_reps(haar):
    # CLT: quadrupling the replications halves the slope's sampling spread.
    # The across-seed standard deviation of the fitted slope is the honest
    # measure of that spread (the 1-dof residual stderr is too noisy).
    uniform = get_target("uniform", "density")
    small, big = [], []
    for seed in range(10):
        small.append(check_moment(haar, uniform, [(2, 0), (3, 1)],
                                  (256, 1024, 4096), 400, seed).slope)
        big.append(check_moment(haar, uniform, [(2, 0), (3, 1)],
                                (256, 1024, 4096), 1600, seed).slope)
    ratio = np.std(small, ddof=1) / np.std(big, ddof=1)
    assert 1.4 <= ratio <= 2.9


def test_check_moment_rejects_regression_target(haar):
    with pytest.raises(ValueError):
        check_moment(haar, get_target("uniform", "regression"), [(2, 0)],
                     (256,), 10)


def test_checks_reject_zero_reps_and_bad_rho(haar):
    uniform = get_target("uniform", "density")
    with pytest.raises(ValueError, match="reps"):
        check_moment(haar, uniform, [(2, 0)], (256,), 0)
    with pytest.raises(ValueError, match="distinct"):
        check_moment(haar, uniform, [(2, 0)], (256, 512, 256), 10)
    with pytest.raises(ValueError, match="reps"):
        check_deviation(haar, uniform, 2.0, (1.0,), 128, 0)
    for rho in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="rho"):
            check_deviation(haar, uniform, rho, (1.0,), 128, 10)


def test_library_entry_points_reject_what_the_cli_rejects(monkeypatch, haar):
    # the CLI parses n, reps, seed, grid_size and cascade_depth as integers in range; each
    # library entry point behind them rejects the same values with a ValueError that names
    # the value, before any truth analysis, stream derivation or sampling
    def no_work(*args, **kwargs):
        raise AssertionError("an entry point worked before checking its input")

    for module in (evaluate, simulate):
        monkeypatch.setattr(module, "derive_rng", no_work)
        monkeypatch.setattr(module, "sample_density_rows", no_work)
    monkeypatch.setattr(evaluate, "analyze", no_work)
    density, regression = get_target("uniform", "density"), get_target("uniform", "regression")

    def config(**kwargs):
        return MonteCarloConfig(**{"model": "density", "target": "uniform", "ns": (256,),
                                   "reps": 1, **kwargs})

    cases = [
        ("grid_size", "nan", lambda: LossSpec("density", 2.0, math.nan)),
        ("grid_size", "2.5", lambda: LossSpec("density", 2.0, 2.5)),
        ("grid_size", "inf", lambda: LossSpec("density", 2.0, math.inf)),
        ("grid_size", "1", lambda: LossSpec("regression", 1.0, 1)),
        ("reps", "nan", lambda: config(reps=math.nan)),
        ("reps", "2.5", lambda: config(reps=2.5)),
        ("root_seed", "1.5", lambda: config(root_seed=1.5)),
        ("n", "100.5", lambda: config(ns=(100.5,))),
        ("grid_size", "nan", lambda: config(grid_size=math.nan)),
        ("cascade_depth", "12.5", lambda: config(family="Daubechies4", cascade_depth=12.5)),
        ("reps", "nan", lambda: check_moment(haar, density, [(2, 0)], (256, 512, 1024), math.nan)),
        ("reps", "0", lambda: check_moment(haar, density, [(2, 0)], (256, 512, 1024), 0)),
        ("n", "64.5", lambda: check_moment(haar, density, [(2, 0)], (64.5, 128, 256), 10)),
        ("n", "15", lambda: check_moment(haar, density, [(2, 0)], (64, 128, 15), 10)),
        ("root_seed", "nan", lambda: check_moment(haar, density, [(2, 0)], (64, 128, 256), 10,
                                                  root_seed=math.nan)),
        ("n", "nan", lambda: check_deviation(haar, density, 2.0, (1.0,), math.nan, 10)),
        ("reps", "1.5", lambda: check_deviation(haar, density, 2.0, (1.0,), 128, 1.5)),
        ("root_seed", "-1", lambda: check_deviation(haar, density, 2.0, (1.0,), 128, 10,
                                                    root_seed=-1)),
        ("cascade_depth", "12.5", lambda: build_family("Daubechies4", 12.5)),
        ("cascade_depth", "5", lambda: build_family("Daubechies4", 5)),
        ("n", "20.5", lambda: simulate.sample_density(density, 20.5, 1)),
        ("n", "15", lambda: simulate.sample_density(density, 15, 1)),
        ("seed", "1.5", lambda: simulate.sample_density(density, 64, 1.5)),
        ("seed", "-1", lambda: simulate.sample_density(density, 64, -1)),
        ("n", "20.5", lambda: simulate.sample_regression(regression, 20.5, "bernoulli", 1)),
        ("seed", "nan", lambda: simulate.sample_regression(regression, 64, "bernoulli", math.nan)),
    ]
    for name, value, call in cases:
        with pytest.raises(ValueError, match=rf"^{name}\b.* {re.escape(value)}\b"):
            call()


@pytest.mark.parametrize("levels,bad", [
    ([(2, 0), (3, 1)], (2, 0)), ([(3, 1), (2, 0)], (2, 0)),
    ([(3, 8)], (3, 8)), ([(3, -1)], (3, -1)),
], ids=["below-tau", "below-tau-second", "k-too-large", "k-negative"])
def test_checks_validate_levels_before_sampling(monkeypatch, levels, bad):
    def no_sampling(*args):
        raise AssertionError("a check sampled before validating its levels")

    monkeypatch.setattr(evaluate, "sample_density", no_sampling)
    monkeypatch.setattr(evaluate, "sample_density_rows", no_sampling)
    monkeypatch.setattr(evaluate, "analyze", no_sampling)
    db6, uniform = build_family("Daubechies6", 8), get_target("uniform", "density")  # tau = 3
    match = (rf"\(j, k\) = \({bad[0]}, {bad[1]}\) needs tau <= j and 0 <= k < 2\^j; "
             r"tau = 3 for Daubechies6")
    with pytest.raises(ValueError, match=match):
        check_moment(db6, uniform, levels, (256, 1024, 4096), 10)
    if len(levels) == 1:
        with pytest.raises(ValueError, match=match):
            check_deviation(db6, uniform, 2.0, (1.0,), 128, 10, level=levels[0])
    # the default level (3, 0) lies below tau = 4 of Daubechies10
    with pytest.raises(ValueError, match=r"\(3, 0\) needs .* tau = 4 for Daubechies10"):
        check_deviation(build_family("Daubechies10", 8), uniform, 2.0, (1.0,), 128, 10)


@pytest.mark.parametrize("check,match", [
    (lambda f, t: check_deviation(f, t, 2.0, (), 128, 10), r"a: .* got \(\)"),
    (lambda f, t: check_deviation(f, t, 2.0, (1.0, -0.5), 128, 10), r"a: .* got \(1.0, -0.5\)"),
    (lambda f, t: check_deviation(f, t, 2.0, (math.nan,), 128, 10), r"a: .* got \(nan,\)"),
    (lambda f, t: check_deviation(f, t, 2.0, (math.inf,), 128, 10), r"a: .* got \(inf,\)"),
    (lambda f, t: check_deviation(f, t, 2.0, (1.0,), 15, 10), "n must be at least 16, got 15"),
    (lambda f, t: check_moment(f, t, [], (256, 1024, 4096), 10), "levels: need at least one"),
    (lambda f, t: evaluate.check_levels(f, ()), r"levels: need at least one wavelet index \(j, k\)"),
    (lambda f, t: check_moment(f, t, [(2, 0)], (256, 8, 4096), 10),
     "n must be at least 16, got 8"),
    (lambda f, t: check_moment(f, t, [(2, 0), (3, 1)], (1024, 4096), 2000),
     r"need at least three sample sizes, all distinct, got \(1024, 4096\)"),
    (lambda f, t: check_moment(f, t, [(2, 0)], (256, 1024, 4096), 10, root_seed=-1),
     "root_seed must be a non-negative integer, got -1"),
    (lambda f, t: check_deviation(f, t, 2.0, (1.0,), 128, 10, root_seed=-1),
     "root_seed must be a non-negative integer, got -1"),
], ids=["no-a", "negative-a", "nan-a", "inf-a", "deviation-small-n", "no-levels",
        "check-levels-empty", "moment-small-n", "moment-two-sizes", "moment-negative-seed",
        "deviation-negative-seed"])
def test_checks_reject_bad_inputs_before_the_truth_analysis(monkeypatch, haar, check, match):
    def no_work(*args):
        raise AssertionError("a check ran before validating its inputs")

    for name in ("analyze", "sample_density_rows", "derive_rng"):
        monkeypatch.setattr(evaluate, name, no_work)
    with pytest.raises(ValueError, match=match):
        check(haar, get_target("uniform", "density"))


def test_check_deviation_zero_exceedances_at_theory_rho(haar):
    rho = min_rho(1.0, 1.0, "density")
    report = check_deviation(
        haar, get_target("uniform", "density"), rho, (1.0, 2.0, 3.0, 4.0),
        n=1024, reps=20000, root_seed=3,
    )
    assert report.passed
    assert all(f == 0.0 for f in report.frequencies)


def test_check_deviation_rho_none_is_the_theory_constant():
    family, target = build_family("Daubechies4", 10), get_target("bump", "density")
    theory = min_rho(target.clip_bound, family.psi_sup, "density")
    assert check_deviation(family, target, None, (0.5, 1.0), 128, 40, 9, (3, 1), 2 ** 12) \
        == check_deviation(family, target, theory, (0.5, 1.0), 128, 40, 9, (3, 1), 2 ** 12)


def test_check_deviation_monotone_and_a_zero(haar):
    # a small rho produces real exceedances; frequencies must be
    # nonincreasing in a, and a = 0 is the trivial bound 1
    report = check_deviation(
        haar, get_target("uniform", "density"), 2.0, (0.0, 1.0, 2.0, 3.0),
        n=256, reps=4000, root_seed=5,
    )
    freqs = report.frequencies
    assert all(freqs[i] >= freqs[i + 1] for i in range(len(freqs) - 1))
    assert report.bounds[0] == 1.0 and freqs[0] <= 1.0
    # z-threshold sqrt(a) keeps plenty of mass, so the 2^(-4a) bound breaks
    assert not report.passed


def _looped_check_moment(family, target, levels, ns, reps, root_seed, truth_grid):
    """check_moment with one sample and one eval_periodized call per replication."""
    truth = analyze(family, target, max(j for j, _ in levels), truth_grid)
    moments = []
    for n in ns:
        acc = 0.0
        for rep in range(reps):
            x = evaluate.sample_density(target, n, evaluate.derive_rng(root_seed, n, rep)).x
            for (j, k) in levels:
                beta_hat = float(np.mean(evaluate.eval_periodized(family, "wavelet", j, k, x)))
                acc += (beta_hat - truth.beta[j - family.tau][k]) ** 4
        moments.append(acc / (reps * len(levels)))
    slope, stderr = rate_slope(ns, moments)
    return MomentReport(ns=tuple(ns), fourth_moments=tuple(moments), slope=slope, stderr=stderr,
                        band=(-2.3, -1.7), passed=-2.3 <= slope <= -1.7)


def _looped_check_deviation(family, target, rho, a_values, n, reps, root_seed, level, truth_grid):
    """check_deviation with one sample and one eval_periodized call per replication."""
    j, k = level
    beta_true = analyze(family, target, j, truth_grid).beta[j - family.tau][k]
    deviations = np.empty(reps)
    for rep in range(reps):
        x = evaluate.sample_density(target, n, evaluate.derive_rng(root_seed, rep)).x
        beta_hat = float(np.mean(evaluate.eval_periodized(family, "wavelet", j, k, x)))
        deviations[rep] = 2.0 * math.sqrt(n) * abs(beta_hat - beta_true)
    freqs = [float(np.mean(deviations >= rho * math.sqrt(a))) for a in a_values]
    bounds = [2.0 ** (-4.0 * a) for a in np.asarray(a_values, dtype=float)]
    tols = [3.0 * math.sqrt(b * (1.0 - b) / reps) for b in bounds]
    return DeviationReport(
        a_values=tuple(a_values), frequencies=tuple(freqs), bounds=tuple(bounds),
        tolerances=tuple(tols), rho=rho, n=n, reps=reps,
        passed=all(f <= b + t for f, b, t in zip(freqs, bounds, tols)))


@pytest.mark.parametrize("family_name", ["Haar", "Daubechies4"])
@pytest.mark.parametrize("reps", [1, 15, 16, 17, 63, 64, 65, 130])
def test_chunked_replications_match_the_per_replication_loop(monkeypatch, family_name, reps):
    family = build_family(family_name, 10)
    target = get_target("bump", "density")
    calls = []

    def recorded(name, record):
        inner = getattr(evaluate, name)

        def wrapper(*args):
            calls.append((name, record(*args)))
            return inner(*args)
        return wrapper

    # a derive_rng call is recorded with its indices, a sampler call with the draws it
    # returns: n for sample_density (looped), rows * n for sample_density_rows (chunked)
    for name, record in (("derive_rng", lambda *indices: indices),
                         ("sample_density", lambda target, n, rng: n),
                         ("sample_density_rows", lambda target, n, rngs: len(rngs) * n)):
        monkeypatch.setattr(evaluate, name, recorded(name, record))
    runs = {}
    for label, moment, deviation in (
            ("chunked", check_moment, check_deviation),
            ("looped", _looped_check_moment, _looped_check_deviation)):
        calls.clear()
        reports = (
            moment(family, target, [(2, 0), (3, 1)], (64, 128, 256), reps, 11, 2 ** 12),
            deviation(family, target, 2.0, (0.5, 1.0, 2.0), 128, reps, 11, (3, 1), 2 ** 12),
        )
        streams = sorted(indices for name, indices in calls if name == "derive_rng")
        draws = sum(n for name, n in calls if name != "derive_rng")
        runs[label] = reports, streams, draws
    assert runs["chunked"] == runs["looped"]
    assert runs["chunked"][2] == reps * (64 + 128 + 256 + 128)


# ---------------------------------------------------------------------------
# Oracle report
# ---------------------------------------------------------------------------

def synthetic_results(agg_risks, cand_matrix, model="regression", n=1024,
                      M=None, l=148, target="bump"):
    rows = []
    cand_matrix = np.asarray(cand_matrix, dtype=float)
    M = M or cand_matrix.shape[1]
    for rep, (agg, cands) in enumerate(zip(agg_risks, cand_matrix)):
        w = np.full(M, 1.0 / M)
        rows.append(ExperimentResult(
            model=model, target=target, n=n, rep=rep, root_seed=0,
            candidate_risks=tuple(cands), aggregate_risk=float(agg),
            erm_risk=float(min(cands)), weights=tuple(w), chosen_u=0,
            universal_risk=None, m=n - l, l=l, j1=8, rho=1.0,
        ))
    return rows


def test_oracle_report_formula():
    cand = [[0.05, 0.02, 0.08], [0.07, 0.04, 0.06]]
    rows = synthetic_results([0.05, 0.03], cand)
    rep = oracle_report(rows, epsilon=1.0)
    min_mean = 0.03  # mean of the second column
    assert rep.min_candidate_mean == pytest.approx(min_mean)
    assert rep.lhs == pytest.approx(0.04)
    expected_residual = 4 * math.log(3) / (1.0 * beta_constants(16.0, 1.0)[1] * 148)
    assert rep.residual == pytest.approx(expected_residual, rel=1e-12)
    assert rep.rhs == pytest.approx(2 * min_mean + expected_residual, rel=1e-12)
    assert rep.passed_formal
    assert rep.ratio == pytest.approx(0.04 / 0.03)
    # closed-form minimizer of the bound over epsilon
    eps_star = math.sqrt(expected_residual / min_mean)
    assert rep.best_epsilon == pytest.approx(eps_star, rel=0.05)


def test_oracle_report_epsilon_scan_is_convex_minimum():
    rows = synthetic_results([0.05], [[0.05, 0.02]])
    rep = oracle_report(rows)
    for eps in (rep.best_epsilon / 2, rep.best_epsilon * 2):
        other = (1 + eps) * rep.min_candidate_mean + \
            4 * math.log(rep.M) / (eps * beta_constants(16.0, 1.0)[1] * rep.l)
        assert rep.best_rhs <= other + 1e-12


def test_oracle_report_takes_beta2_from_the_rows_model_and_bound():
    # the density triangle clips at B = 2: c = 16 B^2 = 64 and K = B^2 + 2B = 8
    rows = synthetic_results([0.05, 0.03], [[0.05, 0.02, 0.08], [0.07, 0.04, 0.06]],
                             model="density", target="triangle")
    rep = oracle_report(rows, epsilon=0.5)
    assert rep.residual == 4 * math.log(3) / (0.5 * beta_constants(64.0, 8.0)[1] * 148)


def test_oracle_report_rejects_bad_input():
    with pytest.raises(ValueError):
        oracle_report([])
    rows = synthetic_results([0.05], [[0.05]])
    with pytest.raises(ValueError):
        oracle_report(rows)  # M = 1
    mixed = synthetic_results([0.05], [[0.05, 0.02]]) + \
        synthetic_results([0.05], [[0.05, 0.02]], n=2048)
    with pytest.raises(ValueError):
        oracle_report(mixed)
    with pytest.raises(ValueError, match="unknown target 'sawtooth_regression'"):
        oracle_report(synthetic_results([0.05], [[0.05, 0.02]], target="sawtooth"))
    good = synthetic_results([0.05], [[0.05, 0.02]])
    for epsilon in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="epsilon"):
            oracle_report(good, epsilon)
