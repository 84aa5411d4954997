"""Empirical coefficients, resolution levels, and the rho constant."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multithresh.coefficients import (
    DensitySample,
    RegressionSample,
    density_coeffs,
    j1_level,
    js_level,
    loss_difference_bound,
    margin_constant,
    min_rho,
    regression_coeffs,
)
from multithresh.wavelets import build_family

LN2 = math.log(2.0)


@pytest.fixture(scope="module")
def haar():
    return build_family("Haar", 12)


# ---------------------------------------------------------------------------
# Samples
# ---------------------------------------------------------------------------

def test_sample_validation():
    with pytest.raises(ValueError):
        DensitySample(np.full(8, 0.5))  # too small
    with pytest.raises(ValueError):
        DensitySample(np.linspace(-0.1, 0.9, 20))
    with pytest.raises(ValueError):
        RegressionSample(np.full(16, 0.5), np.full(16, 1.5))
    with pytest.raises(ValueError):
        RegressionSample(np.full(16, 0.5), np.full(17, 0.5))
    # NaN fails the range check too
    nan_at_end = np.concatenate([np.full(19, 0.5), [np.nan]])
    with pytest.raises(ValueError, match="finite and in"):
        DensitySample(nan_at_end)
    with pytest.raises(ValueError, match="finite and in"):
        RegressionSample(np.full(20, 0.5), nan_at_end)
    with pytest.raises(ValueError, match="finite and in"):
        RegressionSample(nan_at_end, np.full(20, 0.5))


# ---------------------------------------------------------------------------
# Levels
# ---------------------------------------------------------------------------

def test_j1_level_values():
    # 1024/ln 1024 = 147.73 <= 256 < 295.47
    assert j1_level(1024) == 8
    # 100/ln 100 = 21.71 <= 32 < 43.43
    assert j1_level(100) == 5
    with pytest.raises(ValueError):
        j1_level(15)


def test_j1_level_bracketing_unique():
    ns = np.unique(np.concatenate([
        np.arange(16, 5000),
        np.geomspace(5000, 10 ** 6, 4000).astype(int),
    ]))
    for n in ns:
        j = j1_level(int(n))
        target = n / math.log(n)
        assert target <= 2.0 ** j < 2.0 * target
        # neighbors violate the bracket, so the solution is unique
        assert not (target <= 2.0 ** (j - 1) < 2.0 * target)
        assert not (target <= 2.0 ** (j + 1) < 2.0 * target)


def test_js_level_values():
    assert js_level(1024, 1.0) == 4  # 10.079 <= 16 < 20.16
    assert js_level(1024, 0.5) == 5  # 32 <= 32 < 64
    assert js_level(1024, math.inf) == 0  # 1 <= 2^0 < 2
    assert js_level(10 ** 6, 2.0) == 4


# ---------------------------------------------------------------------------
# Coefficients
# ---------------------------------------------------------------------------

def test_density_alpha_is_exactly_one_for_haar(haar):
    rng = np.random.default_rng(0)
    sample = DensitySample(rng.uniform(size=100))
    e = density_coeffs(sample, haar, 3)
    assert e.alpha[0] == pytest.approx(1.0, abs=1e-15)


def test_density_beta_symmetry(haar):
    xs = np.concatenate([np.full(8, 0.1), np.full(8, 0.9)])
    e = density_coeffs(DensitySample(xs), haar, 0)
    assert e.beta[0][0] == pytest.approx(0.0, abs=1e-15)


def test_regression_coeffs_values(haar):
    xs = np.tile([0.25, 0.75], 8)
    ys = np.tile([1.0, 0.0], 8)
    e = regression_coeffs(RegressionSample(xs, ys), haar, 0)
    assert e.beta[0][0] == pytest.approx(0.5)
    zeros = regression_coeffs(RegressionSample(xs, np.zeros(16)), haar, 2)
    assert np.all(zeros.alpha == 0.0)
    assert all(np.all(row == 0.0) for row in zeros.beta)


def test_coeffs_level_range_error(haar):
    db4 = build_family("Daubechies4", 8)
    sample = DensitySample(np.linspace(0.01, 0.99, 32))
    with pytest.raises(ValueError):
        density_coeffs(sample, db4, 1)


def test_coeffs_linearity_in_empirical_measure(haar):
    rng = np.random.default_rng(42)
    x1, x2 = rng.uniform(size=64), rng.uniform(size=32)
    e1 = density_coeffs(DensitySample(x1), haar, 4)
    e2 = density_coeffs(DensitySample(x2), haar, 4)
    e12 = density_coeffs(DensitySample(np.concatenate([x1, x2])), haar, 4)
    np.testing.assert_allclose(
        e12.alpha, (64 * e1.alpha + 32 * e2.alpha) / 96, rtol=1e-12)
    for j in range(5):
        np.testing.assert_allclose(
            e12.beta[j], (64 * e1.beta[j] + 32 * e2.beta[j]) / 96,
            rtol=1e-9, atol=1e-15)


def test_density_coeffs_match_direct_formula(haar):
    # cross-check the gather implementation against the plain definition
    from multithresh.wavelets import eval_periodized

    rng = np.random.default_rng(9)
    xs = rng.uniform(size=64)
    e = density_coeffs(DensitySample(xs), haar, 3)
    for j in range(4):
        for k in range(1 << j):
            direct = float(np.mean(eval_periodized(haar, "wavelet", j, k, xs)))
            assert e.beta[j][k] == pytest.approx(direct, abs=1e-12)


def test_db4_coeffs_match_direct_formula():
    from multithresh.wavelets import eval_periodized

    db4 = build_family("Daubechies4", 10)
    rng = np.random.default_rng(10)
    xs = rng.uniform(size=48)
    ys = rng.uniform(size=48)
    e = regression_coeffs(RegressionSample(xs, ys), db4, 4)
    for j in range(2, 5):
        for k in range(1 << j):
            direct = float(np.mean(ys * eval_periodized(db4, "wavelet", j, k, xs)))
            assert e.beta[j - 2][k] == pytest.approx(direct, abs=1e-12)
    for k in range(4):
        direct = float(np.mean(ys * eval_periodized(db4, "scaling", 2, k, xs)))
        assert e.alpha[k] == pytest.approx(direct, abs=1e-12)


def test_unbiasedness_monte_carlo(haar):
    # uniform density: E beta_hat = 0; check a 3-sigma band
    rng = np.random.default_rng(123)
    reps, n, j, k = 2000, 1024, 3, 2
    vals = np.empty(reps)
    for r in range(reps):
        xs = rng.uniform(size=n)
        e = density_coeffs(DensitySample(xs), haar, j)
        vals[r] = e.beta[j][k]
    se = vals.std(ddof=1) / math.sqrt(reps)
    assert abs(vals.mean()) < 3 * se + 1e-12


def test_regression_constant_target_monte_carlo(haar):
    # f* = c with Bernoulli(c) responses: E alpha_hat = c
    rng = np.random.default_rng(321)
    c, reps, n = 0.3, 2000, 512
    vals = np.empty(reps)
    for r in range(reps):
        xs = rng.uniform(size=n)
        ys = (rng.uniform(size=n) < c).astype(float)
        e = regression_coeffs(RegressionSample(xs, ys), haar, 0)
        vals[r] = e.alpha[0]
    se = vals.std(ddof=1) / math.sqrt(reps)
    assert abs(vals.mean() - c) < 3 * se


# ---------------------------------------------------------------------------
# rho and model constants
# ---------------------------------------------------------------------------

def test_min_rho_haar_regression():
    rho = min_rho(1.0, 1.0, "regression")
    # independent solve of the defining quadratic
    a = 4 * LN2 * (8 / (3 * math.sqrt(2))) * 2.0
    b = 4 * LN2 * 8.0
    expected = (a + math.sqrt(a * a + 4 * b)) / 2.0
    assert rho == pytest.approx(expected, rel=1e-14)
    assert rho == pytest.approx(12.264601390311851, rel=1e-12)
    # the defining display holds at rho and fails just below it
    display = rho ** 2 / (8 + (8 * rho / (3 * math.sqrt(2))) * 2.0)
    assert display == pytest.approx(4 * LN2, rel=1e-12)
    smaller = 0.999 * rho
    assert smaller ** 2 / (8 + (8 * smaller / (3 * math.sqrt(2))) * 2.0) < 4 * LN2


def test_quadratic_root_degenerate_limit():
    # b = 0 collapses the root to a; the public op never reaches this
    # (B >= 1), so this exercises the solver formula alone
    a = 7.0
    assert (a + math.sqrt(a * a + 4 * 0.0)) / 2.0 == pytest.approx(a)


def test_min_rho_monotone():
    base = min_rho(1.0, 1.0, "density")
    assert min_rho(2.0, 1.0, "density") > base
    assert min_rho(1.0, 2.0, "density") > base


def test_min_rho_validation():
    with pytest.raises(ValueError):
        min_rho(0.5, 1.0, "density")
    with pytest.raises(ValueError):
        min_rho(2.0, 1.0, "regression")
    with pytest.raises(ValueError):
        min_rho(1.0, 1.0, "classification")


@settings(max_examples=40, deadline=None)
@given(B=st.floats(min_value=1.0, max_value=50.0),
       psi=st.floats(min_value=1.0, max_value=10.0))
def test_min_rho_solves_display_with_equality(B, psi):
    rho = min_rho(B, psi, "density")
    display = rho ** 2 / (8 * B + (8 * rho / (3 * math.sqrt(2))) * (psi + B))
    assert display == pytest.approx(4 * LN2, rel=1e-10)


def test_model_constants():
    assert loss_difference_bound("regression") == 1.0
    assert loss_difference_bound("density", 2.0) == pytest.approx(8.0)
    assert margin_constant("regression") == 16.0
    assert margin_constant("density", 2.0) == 64.0
