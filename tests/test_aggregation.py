"""Losses, weights, candidate construction, and the aggregation pipeline."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multithresh.aggregation import (
    LossSpec,
    aew_weights,
    aggregate_mixture,
    beta_constants,
    candidate_grid,
    empirical_risk,
    erm_select,
    multi_threshold_candidates,
    multi_threshold_estimate,
    split_sample,
    theory_constants,
    universal_threshold_estimate,
)
from multithresh.coefficients import DensitySample, RegressionSample
from multithresh.simulate import get_target, sample_density, sample_regression
from multithresh.thresholding import ThresholdRule
from multithresh.wavelets import build_family, midpoint_grid

LN2 = math.log(2.0)


@pytest.fixture(scope="module")
def haar():
    return build_family("Haar", 12)


def test_split_sample_values():
    assert split_sample(1024) == (876, 148)
    # 62 is the smallest n whose learning part holds 16 observations
    assert split_sample(62) == (46, 16)
    with pytest.raises(ValueError, match="n = 61 .* at least 62"):
        split_sample(61)


@given(n=st.integers(min_value=62, max_value=10 ** 6))
def test_split_sample_partitions(n):
    m, l = split_sample(n)
    assert m + l == n
    assert l == math.ceil(n / math.log(n))
    assert m >= 16 and l >= 16


def test_loss_spec_validation():
    LossSpec.regression()
    LossSpec.density(2.0)
    with pytest.raises(ValueError):
        LossSpec("regression_quadratic", 0.0, 2.0, 1.0)
    with pytest.raises(ValueError):
        LossSpec.density(0.5)
    with pytest.raises(ValueError):
        LossSpec("huber", 0.0, 1.0, 1.0)


def test_empirical_risk_examples():
    reg = LossSpec.regression(2 ** 10)
    data = RegressionSample(np.full(16, 0.5), np.concatenate([[1.0], np.ones(15)]))
    assert empirical_risk(reg, lambda x: np.zeros_like(x), data) == pytest.approx(1.0)

    den = LossSpec.density(1.0, 2 ** 10)
    sample = DensitySample(np.linspace(0.1, 0.9, 16))
    assert empirical_risk(den, lambda x: np.ones_like(x), sample) == pytest.approx(-1.0)

    # noiseless regression at the truth has zero risk
    xs = np.linspace(0.05, 0.95, 16)
    f = lambda x: 0.25 + 0.5 * x
    noiseless = RegressionSample(xs, f(xs))
    assert empirical_risk(reg, f, noiseless) == pytest.approx(0.0, abs=1e-15)


def test_aew_weights_values():
    np.testing.assert_allclose(aew_weights([0.3, 0.3], 10), [0.5, 0.5])
    w = aew_weights([0.0, LN2 / 2.0], 2)
    np.testing.assert_allclose(w, [2 / 3, 1 / 3], rtol=1e-14)


def test_aew_weights_shift_invariance():
    risks = np.array([0.1, 0.7, 0.3, 0.2])
    w1 = aew_weights(risks, 50)
    w2 = aew_weights(risks + 123.456, 50)
    np.testing.assert_allclose(w1, w2, atol=1e-15)


def test_aew_weights_validation():
    with pytest.raises(ValueError):
        aew_weights([0.5], 10)
    with pytest.raises(ValueError):
        aew_weights([0.5, np.inf], 10)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2 ** 16), l=st.integers(1, 500))
def test_aew_weights_simplex(seed, l):
    rng = np.random.default_rng(seed)
    risks = rng.uniform(-5, 5, size=rng.integers(2, 12))
    w = aew_weights(risks, l)
    assert np.all(w >= 0)
    assert abs(w.sum() - 1.0) < 1e-12


def test_erm_select():
    assert erm_select([0.3, 0.1, 0.1]) == 1  # tie toward the lowest index
    assert erm_select([5.0]) == 0
    risks = np.array([0.9, 0.2, 0.5, 0.8])
    perm = np.array([2, 0, 3, 1])
    assert perm[erm_select(risks[perm])] == erm_select(risks)


def test_aew_dominates_when_one_candidate_clearly_wins():
    # a gap of 10/l in empirical risk forces weight >= 0.99 on the winner
    l = 148
    risks = np.array([0.5, 0.5 - 10.0 / l, 0.5, 0.49, 0.5])
    w = aew_weights(risks, l)
    assert erm_select(risks) == 1
    assert w[1] >= 0.99


def test_beta_constants_branch_values():
    beta1, beta2 = beta_constants(16.0, 1.0)
    # evaluate all branch terms independently
    b1_terms = [LN2 / (96 * 16), 3 * math.sqrt(LN2) / (16 * math.sqrt(2)),
                1 / (8 * (64 + 1 / 3)), 1 / (576 * 16)]
    b2_terms = [1 / 8, 3 * LN2 / 32, 1 / (2 * (256 + 1 / 3)), beta1 / 2]
    assert beta1 == pytest.approx(min(b1_terms), rel=1e-15)
    assert beta2 == pytest.approx(min(b2_terms), rel=1e-15)
    assert beta1 == pytest.approx(1 / 9216, rel=1e-12)
    assert beta2 == pytest.approx(1 / 18432, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(c=st.floats(0.1, 1e4), K=st.floats(1.0, 1e3))
def test_beta2_at_most_half_beta1(c, K):
    beta1, beta2 = beta_constants(c, K)
    assert beta2 <= beta1 / 2


def test_beta_constants_monotone_in_c():
    b1a, b2a = beta_constants(4.0, 1.0)
    b1b, b2b = beta_constants(16.0, 1.0)
    assert b1b < b1a and b2b < b2a


def test_theory_constants_models():
    reg = theory_constants("regression")
    assert (reg.kappa, reg.c, reg.K) == (1.0, 16.0, 1.0)
    den = theory_constants("density", 2.0)
    assert (den.c, den.K) == (64.0, 8.0)
    assert den.beta2 <= den.beta1 / 2


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------

def test_candidate_grid():
    assert candidate_grid(1024, 8) == tuple(range(9))
    assert candidate_grid(100, 5) == tuple(range(6))


def test_aggregate_mixture_point_mass(haar):
    sample = sample_density(get_target("triangle", "density"), 256, 1)
    loss = LossSpec.density(2.0, 2 ** 12)
    cands, diag = multi_threshold_candidates(sample, haar, ThresholdRule("hard"), loss)
    point = np.zeros(len(cands))
    point[0] = 1.0
    mix = aggregate_mixture(cands, point)
    np.testing.assert_array_equal(mix.grid_values, cands[0].grid_values)
    x = np.array([0.1, 0.5, 0.9])
    np.testing.assert_allclose(mix(x), cands[0](x))


def test_aggregate_mixture_of_constants(haar):
    from multithresh.aggregation import CandidateEstimator
    from multithresh.thresholding import flat_plan
    from multithresh.wavelets import WaveletExpansion

    plan = flat_plan(0.0, 0, 0, 16)
    grid = midpoint_grid(2 ** 10)

    def const_candidate(c):
        e = WaveletExpansion(0, 0, np.array([c]), [np.zeros(1)])
        return CandidateEstimator(
            u=0, plan=plan, expansion=e, family=haar, clip_lo=0.0, clip_hi=1.0,
            grid_values=np.full(2 ** 10, c), integral_sq=c * c)

    mix = aggregate_mixture([const_candidate(0.0), const_candidate(1.0)], [0.5, 0.5])
    np.testing.assert_allclose(mix.grid_values, 0.5)
    with pytest.raises(ValueError):
        aggregate_mixture([const_candidate(0.0)], [0.7])


def test_mixture_stays_in_clip_range(haar):
    sample = sample_density(get_target("triangle", "density"), 512, 3)
    loss = LossSpec.density(2.0, 2 ** 12)
    est, diag = multi_threshold_estimate(sample, haar, ThresholdRule("hard"), loss, rho=1.0)
    assert np.all(est.grid_values >= 0.0)
    assert np.all(est.grid_values <= 2.0)
    assert np.all(est(np.linspace(0, 1, 101)) <= 2.0 + 1e-12)


def test_pipeline_diagnostics_invariants(haar):
    sample = sample_density(get_target("bump", "density"), 1024, 17)
    loss = LossSpec.density(1.9, 2 ** 12)
    est, diag = multi_threshold_estimate(sample, haar, ThresholdRule("hard"), loss)
    assert diag.m == 876 and diag.l == 148 and diag.j1 == 8
    assert diag.u_grid == tuple(range(9))
    assert np.all(diag.weights >= 0)
    assert abs(diag.weights.sum() - 1.0) < 1e-12
    assert diag.chosen_u == diag.u_grid[diag.erm_index]
    # theory rho by default
    assert diag.rho == pytest.approx(
        __import__("multithresh").min_rho(1.9, haar.psi_sup, "density"))


def test_pipeline_deterministic(haar):
    sample = sample_regression(get_target("triangle", "regression"), 256, "bernoulli", 5)
    loss = LossSpec.regression(2 ** 12)
    est1, d1 = multi_threshold_estimate(sample, haar, ThresholdRule("soft"), loss, rho=1.0)
    est2, d2 = multi_threshold_estimate(sample, haar, ThresholdRule("soft"), loss, rho=1.0)
    np.testing.assert_array_equal(est1.grid_values, est2.grid_values)
    np.testing.assert_array_equal(d1.risks, d2.risks)


def test_pipeline_erm_scheme_returns_candidate(haar):
    sample = sample_density(get_target("triangle", "density"), 256, 9)
    loss = LossSpec.density(2.0, 2 ** 12)
    est, diag = multi_threshold_estimate(
        sample, haar, ThresholdRule("hard"), loss, scheme="ERM")
    assert est.u == diag.chosen_u
    with pytest.raises(ValueError):
        multi_threshold_estimate(sample, haar, ThresholdRule("hard"), loss, scheme="best")


def test_pipeline_shuffle_split(haar):
    sample = sample_density(get_target("triangle", "density"), 256, 21)
    loss = LossSpec.density(2.0, 2 ** 12)
    rng = np.random.default_rng(0)
    est, diag = multi_threshold_estimate(
        sample, haar, ThresholdRule("hard"), loss, shuffle_split=True, shuffle_rng=rng)
    assert abs(diag.weights.sum() - 1.0) < 1e-12
    with pytest.raises(ValueError):
        multi_threshold_estimate(sample, haar, ThresholdRule("hard"), loss,
                                 shuffle_split=True)


def test_pipeline_model_mismatch(haar):
    sample = sample_density(get_target("triangle", "density"), 256, 2)
    with pytest.raises(ValueError):
        multi_threshold_estimate(sample, haar, ThresholdRule("hard"),
                                 LossSpec.regression(2 ** 12))


def test_jensen_convexity_small(haar):
    # true risk of the mixture never exceeds the weighted candidate risks
    target = get_target("triangle", "density")
    loss = LossSpec.density(2.0, 2 ** 12)
    grid = midpoint_grid(2 ** 12)
    tvals = target(grid)
    for seed in range(10):
        sample = sample_density(target, 1024, seed)
        cands, diag = multi_threshold_candidates(
            sample, haar, ThresholdRule("hard"), loss, rho=2.0)
        risks = np.array([np.mean((c.grid_values - tvals) ** 2) for c in cands])
        mix = aggregate_mixture(cands, diag.weights)
        mix_risk = float(np.mean((mix.grid_values - tvals) ** 2))
        assert mix_risk <= float(diag.weights @ risks) + 1e-10


def test_uniform_density_aggregate_mise(haar):
    # flat target: scaling coefficient is exact for Haar, so the aggregate's
    # error comes only from the thresholded noise levels and stays at the
    # parametric scale 3/m, two orders below the worst candidate
    target = get_target("uniform", "density")
    loss = LossSpec.density(1.0, 2 ** 12)
    grid = midpoint_grid(2 ** 12)
    reps = 60
    n = 4096
    mises = np.empty(reps)
    worst = 0.0
    from multithresh.simulate import derive_rng

    for rep in range(reps):
        sample = sample_density(target, n, derive_rng(99, n, rep))
        est, diag = multi_threshold_estimate(sample, haar, ThresholdRule("hard"), loss)
        mises[rep] = float(np.mean((est.grid_values - 1.0) ** 2))
        worst = max(worst, float(np.mean(
            (np.array([c.grid_values for c in
                       multi_threshold_candidates(sample, haar, ThresholdRule("hard"), loss)[0]])
             - 1.0) ** 2, axis=1).max()))
    m = diag.m
    assert mises.mean() <= 3.0 / m + 5e-4
    assert worst > 10 * mises.mean()


def test_universal_threshold_baseline(haar):
    target = get_target("triangle", "density")
    sample = sample_density(target, 1024, 31)
    loss = LossSpec.density(2.0, 2 ** 12)
    base = universal_threshold_estimate(sample, haar, ThresholdRule("hard"), loss)
    assert np.all(base.grid_values >= 0.0) and np.all(base.grid_values <= 2.0)
    # flat threshold c sqrt(log n / n) across all levels
    np.testing.assert_allclose(base.plan.t, math.sqrt(math.log(1024) / 1024))
