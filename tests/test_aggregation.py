"""Losses, weights, candidate construction, and the aggregation pipeline."""

import dataclasses
import functools
import gc
import math
import tracemalloc

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
    empirical_risks,
    erm_select,
    multi_threshold_candidates,
    multi_threshold_estimate,
    split_sample,
    universal_threshold_estimate,
)
from multithresh.coefficients import (DensitySample, RegressionSample, density_coeffs, j1_level,
                                      loss_difference_bound, margin_constant, min_rho,
                                      regression_coeffs)
from multithresh.simulate import get_target, sample_density, sample_regression
from multithresh.thresholding import RULE_KINDS, ThresholdRule, make_plan, threshold_expansion
from multithresh.wavelets import (SUPPORTED_FAMILIES, WaveletExpansion, build_family,
                                  midpoint_grid, synthesize_at)

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
    assert LossSpec("regression") == LossSpec("regression", 1.0, 2 ** 14)
    assert LossSpec("density", 2.0).B == 2.0
    assert [f.name for f in dataclasses.fields(LossSpec)] == ["model", "B", "grid_size"]
    with pytest.raises(ValueError, match="fixes B = 1"):
        LossSpec("regression", 2.0)
    for B in (0.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="density bound"):
            LossSpec("density", B)
    with pytest.raises(ValueError, match="model must be"):
        LossSpec("huber")
    with pytest.raises(ValueError, match="grid_size"):
        LossSpec("regression", 1.0, 1)


def test_empirical_risks_examples():
    reg = LossSpec("regression", 1.0, 2 ** 10)
    grid = midpoint_grid(2 ** 10)
    data = RegressionSample(np.full(16, 0.5), np.concatenate([[1.0], np.ones(15)]))
    assert empirical_risks(reg, [np.zeros_like(grid)], np.zeros((1, 16)), data) \
        == pytest.approx([1.0])

    den = LossSpec("density", 1.0, 2 ** 10)
    sample = DensitySample(np.linspace(0.1, 0.9, 16))
    # the integral term is the mean of the squared grid values
    rows = [np.ones_like(grid), np.full_like(grid, 2.0)]
    assert empirical_risks(den, rows, np.ones((2, 16)), sample) == pytest.approx([-1.0, 2.0])

    # noiseless regression at the truth has zero risk
    xs = np.linspace(0.05, 0.95, 16)
    f = lambda x: 0.25 + 0.5 * x
    noiseless = RegressionSample(xs, f(xs))
    assert empirical_risks(reg, [f(grid)], f(xs)[None], noiseless) \
        == pytest.approx([0.0], abs=1e-15)


@pytest.mark.parametrize("model", ["density", "regression"])
@pytest.mark.parametrize("n", [62, 512, 8192, 65536])
def test_empirical_risks_match_the_per_row_formulas(model, n):
    # the row reduction has the bits of the scalar formula of each row alone
    rng = np.random.default_rng(n)
    l = split_sample(n)[1]
    loss = LossSpec(model, 2.0 if model == "density" else 1.0, 2 ** 12)
    learn = DensitySample(rng.uniform(size=l)) if model == "density" else \
        RegressionSample(rng.uniform(size=l), (rng.uniform(size=l) < 0.5).astype(float))
    for M in range(2, 15):
        values = rng.uniform(0.0, loss.B, size=(M, l))
        grid_rows = [rng.uniform(0.0, loss.B, size=loss.grid_size) for _ in range(M)]
        if model == "regression":
            want = [float(np.mean((learn.y - v) ** 2)) for v in values]
        else:
            want = [float(np.mean(g ** 2) - 2.0 * np.mean(v)) for g, v in zip(grid_rows, values)]
        got = empirical_risks(loss, grid_rows, values, learn)
        assert got.shape == (M,)
        assert np.array_equal(got.view(np.int64), np.array(want).view(np.int64))


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
    assert (margin_constant("regression"), loss_difference_bound("regression")) == (16.0, 1.0)
    assert (margin_constant("density", 2.0), loss_difference_bound("density", 2.0)) == (64.0, 8.0)
    beta1, beta2 = beta_constants(64.0, 8.0)
    assert beta2 <= beta1 / 2


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------

def test_candidate_grid():
    assert candidate_grid(1024, 8) == tuple(range(9))
    assert candidate_grid(100, 5) == tuple(range(6))


def test_aggregate_mixture_point_mass(haar):
    sample = sample_density(get_target("triangle", "density"), 256, 1)
    loss = LossSpec("density", 2.0, 2 ** 12)
    rows, diag = multi_threshold_candidates(sample, haar, ThresholdRule("hard"), loss)
    point = np.zeros(len(rows))
    point[0] = 1.0
    np.testing.assert_array_equal(aggregate_mixture(rows, point, loss), rows[0])


def const_candidate(c):
    return np.full(2 ** 10, c)


def test_aggregate_mixture_of_constants(haar):
    loss = LossSpec("regression", 1.0, 2 ** 10)
    mix = aggregate_mixture([const_candidate(0.0), const_candidate(1.0)], [0.5, 0.5], loss)
    np.testing.assert_allclose(mix, 0.5)
    with pytest.raises(ValueError):
        aggregate_mixture([const_candidate(0.0)], [0.7], loss)


@pytest.mark.parametrize("weights", [[math.nan, math.nan], [math.nan, 1.0], [0.5, math.nan],
                                     [math.inf, 0.0], [-0.5, 1.5], [0.7, 0.7]])
def test_aggregate_mixture_rejects_weights_off_the_simplex(weights):
    # an all-NaN vector once passed the check and gave a mixture that was NaN everywhere
    loss = LossSpec("regression", 1.0, 2 ** 10)
    with pytest.raises(ValueError, match="probability vector"):
        aggregate_mixture([const_candidate(0.25), const_candidate(0.75)], weights, loss)


def candidate_stack(sample, family, rule, diag):
    """The thresholded stack behind the candidates, rebuilt from the training part."""
    coeffs = density_coeffs if isinstance(sample, DensitySample) else regression_coeffs
    raw = coeffs(sample.subset(slice(0, diag.m)), family, diag.j1)
    return threshold_expansion(
        raw, make_plan(diag.rho, diag.u_grid, family.tau, diag.j1, diag.m), rule)


def test_mixture_stays_in_clip_range(haar):
    sample = sample_density(get_target("triangle", "density"), 512, 3)
    loss = LossSpec("density", 2.0, 2 ** 12)
    est, rows, diag = multi_threshold_estimate(sample, haar, ThresholdRule("hard"), loss, rho=1.0)
    assert np.all(est >= 0.0)
    assert np.all(est <= 2.0)
    # clipping before averaging: the raw expansions overshoot, the candidates do not
    stack = candidate_stack(sample, haar, ThresholdRule("hard"), diag)
    raw = synthesize_at(haar, stack, midpoint_grid(2 ** 12))
    assert raw.max() > 2.0 and raw.min() < 0.0
    np.testing.assert_array_equal(rows, np.clip(raw, 0.0, 2.0))


@functools.lru_cache(maxsize=None)
def _family(name):
    return build_family(name)


@settings(max_examples=40, deadline=None)
@given(model=st.sampled_from(["density", "regression"]),
       family=st.sampled_from(SUPPORTED_FAMILIES), rule=st.sampled_from(RULE_KINDS),
       n=st.integers(62, 400), seed=st.integers(0, 2 ** 16),
       concentration=st.floats(0.2, 5.0), B=st.floats(1.0, 4.0), rho=st.floats(0.05, 5.0))
def test_grid_values_in_clip_range(model, family, rule, n, seed, concentration, B, rho):
    # beta-distributed points pile up near the edges or the middle, so the
    # raw expansions overshoot both ends of [0, B]
    rng = np.random.default_rng(seed)
    x = rng.beta(concentration, concentration, size=n)
    if model == "density":
        sample, loss = DensitySample(x), LossSpec("density", B, 2 ** 8)
    else:
        sample, loss = RegressionSample(x, (rng.uniform(size=n) < x).astype(float)), \
            LossSpec("regression", 1.0, 2 ** 8)
    family, rule = _family(family), ThresholdRule(rule)
    cands, diag = multi_threshold_candidates(sample, family, rule, loss, rho=rho)
    mix = aggregate_mixture(cands, diag.weights, loss)
    base = universal_threshold_estimate(sample, family, rule, loss)
    for est in [*cands, mix, base]:
        assert np.all(est >= 0.0) and np.all(est <= loss.B)


def test_pipeline_diagnostics_invariants(haar):
    sample = sample_density(get_target("bump", "density"), 1024, 17)
    loss = LossSpec("density", 1.9, 2 ** 12)
    est, _, diag = multi_threshold_estimate(sample, haar, ThresholdRule("hard"), loss)
    assert diag.m == 876 and diag.l == 148 and diag.j1 == 8
    assert diag.u_grid == tuple(range(9))
    assert np.all(diag.weights >= 0)
    assert abs(diag.weights.sum() - 1.0) < 1e-12
    assert diag.chosen_u == diag.u_grid[diag.erm_index]
    # theory rho by default
    assert diag.rho == pytest.approx(min_rho(1.9, haar.psi_sup, "density"))


def test_pipeline_deterministic(haar):
    sample = sample_regression(get_target("triangle", "regression"), 256, "bernoulli", 5)
    loss = LossSpec("regression", 1.0, 2 ** 12)
    est1, _, d1 = multi_threshold_estimate(sample, haar, ThresholdRule("soft"), loss, rho=1.0)
    est2, _, d2 = multi_threshold_estimate(sample, haar, ThresholdRule("soft"), loss, rho=1.0)
    np.testing.assert_array_equal(est1, est2)
    np.testing.assert_array_equal(d1.risks, d2.risks)


@pytest.mark.parametrize("name,model", [("Haar", "density"), ("Daubechies4", "regression")])
def test_learning_points_share_one_stencil(name, model):
    # the stencil at the learning points, computed once for all candidates,
    # gives every candidate the values and the risk of its own synthesis
    family = build_family(name, 12)
    target = get_target("triangle", model)
    if model == "density":
        sample, loss = sample_density(target, 2048, 4), LossSpec("density", 2.0, 2 ** 12)
    else:
        sample = sample_regression(target, 2048, "bernoulli", 4)
        loss = LossSpec("regression", 1.0, 2 ** 12)
    grid_rows, diag = multi_threshold_candidates(sample, family, ThresholdRule("hard"), loss,
                                                 rho=1.0)
    learn = sample.subset(slice(diag.m, sample.n))
    stack = candidate_stack(sample, family, ThresholdRule("hard"), diag)
    shared = synthesize_at(family, stack, learn.x)
    assert shared.shape == (diag.M, diag.l)
    grid = midpoint_grid(loss.grid_size)
    clipped = []
    for r, (grid_row, values) in enumerate(zip(grid_rows, shared)):
        row = WaveletExpansion(stack.tau, stack.coeffs[r])
        own = synthesize_at(family, row, learn.x)
        assert np.array_equal(values.view(np.int64), own.view(np.int64))
        assert np.array_equal(grid_row, np.clip(synthesize_at(family, row, grid), 0.0, loss.B))
        clipped.append(np.clip(own, 0.0, loss.B))
    risks = empirical_risks(loss, grid_rows, np.array(clipped), learn)
    assert np.array_equal(risks.view(np.int64), diag.risks.view(np.int64))


def family_fields(family):
    """The family's fields, arrays as bytes."""
    return {k: v.tobytes() if isinstance(v, np.ndarray) else v for k, v in vars(family).items()}


def test_candidates_keep_only_the_grid_tables_they_need():
    # the grid tables live only inside the synthesis call: after the call nothing is left
    # but each candidate's grid values, with no learning-point stencil, no thresholded stack
    # and no table, and the family is as it was built
    sample = sample_density(get_target("triangle", "density"), 2 ** 15, 8)
    for name in ("Haar", "Daubechies4"):
        family = build_family(name, 12)
        state = family_fields(family)
        for size in (2 ** 8, 2 ** 12):
            gc.collect()
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                grid_rows, diag = multi_threshold_candidates(
                    sample, family, ThresholdRule("hard"), LossSpec("density", 2.0, size), rho=1.0)
                gc.collect()
                retained = tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()
            # a learning-point stencil kept for all levels (int32 shift bases and
            # float values) would exceed the 64 KiB allowed for Python objects
            levels = diag.j1 - family.tau + 2
            stencil = levels * diag.l * (4 + 8 * family.support_width)
            assert stencil > 2 ** 19
            assert retained < sum(row.nbytes for row in grid_rows) + 2 ** 16
        assert family_fields(family) == state


def test_pipeline_erm_scheme_returns_candidate(haar):
    sample = sample_density(get_target("triangle", "density"), 256, 9)
    loss = LossSpec("density", 2.0, 2 ** 12)
    est, rows, diag = multi_threshold_estimate(
        sample, haar, ThresholdRule("hard"), loss, scheme="ERM")
    assert est is rows[diag.erm_index]
    assert diag.chosen_u == diag.u_grid[diag.erm_index]
    with pytest.raises(ValueError):
        multi_threshold_estimate(sample, haar, ThresholdRule("hard"), loss, scheme="best")


def test_pipeline_model_mismatch(haar):
    sample = sample_density(get_target("triangle", "density"), 256, 2)
    with pytest.raises(ValueError):
        multi_threshold_estimate(sample, haar, ThresholdRule("hard"),
                                 LossSpec("regression", 1.0, 2 ** 12))


def test_jensen_convexity_small(haar):
    # true risk of the mixture never exceeds the weighted candidate risks
    target = get_target("triangle", "density")
    loss = LossSpec("density", 2.0, 2 ** 12)
    grid = midpoint_grid(2 ** 12)
    tvals = target(grid)
    for seed in range(10):
        sample = sample_density(target, 1024, seed)
        rows, diag = multi_threshold_candidates(
            sample, haar, ThresholdRule("hard"), loss, rho=2.0)
        risks = np.array([np.mean((row - tvals) ** 2) for row in rows])
        mix = aggregate_mixture(rows, diag.weights, loss)
        mix_risk = float(np.mean((mix - tvals) ** 2))
        assert mix_risk <= float(diag.weights @ risks) + 1e-10


def test_uniform_density_aggregate_mise(haar):
    # flat target: scaling coefficient is exact for Haar, so the aggregate's
    # error comes only from the thresholded noise levels and stays at the
    # parametric scale 3/m, two orders below the worst candidate
    target = get_target("uniform", "density")
    loss = LossSpec("density", 1.0, 2 ** 12)
    grid = midpoint_grid(2 ** 12)
    reps = 60
    n = 4096
    mises = np.empty(reps)
    worst = 0.0
    from multithresh.simulate import derive_rng

    for rep in range(reps):
        sample = sample_density(target, n, derive_rng(99, n, rep))
        est, rows, diag = multi_threshold_estimate(sample, haar, ThresholdRule("hard"), loss)
        mises[rep] = float(np.mean((est - 1.0) ** 2))
        worst = max(worst, float(np.mean((np.array(rows) - 1.0) ** 2, axis=1).max()))
    m = diag.m
    assert mises.mean() <= 3.0 / m + 5e-4
    assert worst > 10 * mises.mean()


def test_universal_threshold_baseline(haar):
    target = get_target("triangle", "density")
    sample = sample_density(target, 1024, 31)
    loss = LossSpec("density", 2.0, 2 ** 12)
    base = universal_threshold_estimate(sample, haar, ThresholdRule("hard"), loss)
    assert np.all(base >= 0.0) and np.all(base <= 2.0)
    # flat threshold c sqrt(log n / n) across all levels, on the full sample
    j1 = j1_level(1024)
    flat = np.full(j1 - haar.tau + 1, math.sqrt(math.log(1024) / 1024))
    one = threshold_expansion(density_coeffs(sample, haar, j1), flat, ThresholdRule("hard"))
    want = np.clip(synthesize_at(haar, one, midpoint_grid(2 ** 12)), 0.0, 2.0)
    assert np.array_equal(base.view(np.int64), want.view(np.int64))


def test_nan_threshold_constants_are_rejected(haar):
    # a NaN rho once failed deep in ThresholdPlan with an unrelated message, and a
    # NaN c returned the unthresholded estimator
    sample = sample_density(get_target("triangle", "density"), 256, 1)
    loss = LossSpec("density", 2.0, 2 ** 10)
    for rho in (math.nan, math.inf, 0.0):
        with pytest.raises(ValueError, match="rho must be positive and finite"):
            multi_threshold_candidates(sample, haar, ThresholdRule("hard"), loss, rho=rho)
    for c in (math.nan, math.inf):
        with pytest.raises(ValueError, match="threshold must be finite and nonnegative"):
            universal_threshold_estimate(sample, haar, ThresholdRule("hard"), loss, c=c)
