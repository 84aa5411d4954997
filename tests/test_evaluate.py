"""Risk measurement, Monte Carlo engine, and verification reports."""

import math

import numpy as np
import pytest

from multithresh.aggregation import theory_constants
from multithresh.evaluate import (
    ExperimentResult,
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
from multithresh.wavelets import build_family


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


def test_mean_risk_by_n():
    cfg = MonteCarloConfig(model="density", target="uniform", ns=(128, 256), reps=4,
                           rho=2.0, grid_size=2 ** 12)
    rows = monte_carlo(cfg)
    ns, means, ses = mean_risk_by_n(rows, "aggregate_risk")
    assert ns == [128, 256]
    assert all(m >= 0 for m in means)
    assert all(s >= 0 for s in ses)


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


def test_check_deviation_zero_exceedances_at_theory_rho(haar):
    rho = min_rho(1.0, 1.0, "density")
    report = check_deviation(
        haar, get_target("uniform", "density"), rho, (1.0, 2.0, 3.0, 4.0),
        n=1024, reps=20000, root_seed=3,
    )
    assert report.passed
    assert all(f == 0.0 for f in report.frequencies)


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


# ---------------------------------------------------------------------------
# Oracle report
# ---------------------------------------------------------------------------

def synthetic_results(agg_risks, cand_matrix, model="regression", n=1024,
                      M=None, l=148):
    rows = []
    cand_matrix = np.asarray(cand_matrix, dtype=float)
    M = M or cand_matrix.shape[1]
    for rep, (agg, cands) in enumerate(zip(agg_risks, cand_matrix)):
        w = np.full(M, 1.0 / M)
        rows.append(ExperimentResult(
            model=model, target="bump", n=n, rep=rep, root_seed=0,
            candidate_risks=tuple(cands), aggregate_risk=float(agg),
            erm_risk=float(min(cands)), weights=tuple(w), chosen_u=0,
            universal_risk=None, m=n - l, l=l, j1=8, rho=1.0,
        ))
    return rows


def test_oracle_report_formula():
    cand = [[0.05, 0.02, 0.08], [0.07, 0.04, 0.06]]
    rows = synthetic_results([0.05, 0.03], cand)
    constants = theory_constants("regression")
    rep = oracle_report(rows, constants, epsilon=1.0)
    min_mean = 0.03  # mean of the second column
    assert rep.min_candidate_mean == pytest.approx(min_mean)
    assert rep.lhs == pytest.approx(0.04)
    expected_residual = 4 * math.log(3) / (1.0 * constants.beta2 * 148)
    assert rep.residual == pytest.approx(expected_residual, rel=1e-12)
    assert rep.rhs == pytest.approx(2 * min_mean + expected_residual, rel=1e-12)
    assert rep.passed_formal
    assert rep.ratio == pytest.approx(0.04 / 0.03)
    # closed-form minimizer of the bound over epsilon
    eps_star = math.sqrt(expected_residual / min_mean)
    assert rep.best_epsilon == pytest.approx(eps_star, rel=0.05)


def test_oracle_report_epsilon_scan_is_convex_minimum():
    rows = synthetic_results([0.05], [[0.05, 0.02]])
    constants = theory_constants("regression")
    rep = oracle_report(rows, constants)
    for eps in (rep.best_epsilon / 2, rep.best_epsilon * 2):
        other = (1 + eps) * rep.min_candidate_mean + \
            4 * math.log(rep.M) / (eps * constants.beta2 * rep.l)
        assert rep.best_rhs <= other + 1e-12


def test_oracle_report_rejects_bad_input():
    constants = theory_constants("regression")
    with pytest.raises(ValueError):
        oracle_report([], constants)
    rows = synthetic_results([0.05], [[0.05]])
    with pytest.raises(ValueError):
        oracle_report(rows, constants)  # M = 1
    mixed = synthetic_results([0.05], [[0.05, 0.02]]) + \
        synthetic_results([0.05], [[0.05, 0.02]], n=2048)
    with pytest.raises(ValueError):
        oracle_report(mixed, constants)
