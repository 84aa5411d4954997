"""Empirical wavelet coefficients for the two statistical models.

Covers the density model (observations on [0, 1]) and bounded regression
with uniform design (pairs in the unit square), plus the dyadic resolution
levels and the smallest threshold constant rho satisfying the deviation
condition of each model.

``log n`` means the natural logarithm throughout; any other base would only
shift constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .wavelets import WaveletExpansion, WaveletFamily, analyze_points

MIN_SAMPLE_SIZE = 16
MODELS = ("density", "regression")


@dataclass(frozen=True)
class DensitySample:
    """n i.i.d. observations from an unknown density on [0, 1]."""

    x: np.ndarray

    def __post_init__(self) -> None:
        x = np.asarray(self.x, dtype=float)
        object.__setattr__(self, "x", x)
        if len(x) < MIN_SAMPLE_SIZE:
            raise ValueError(f"need at least {MIN_SAMPLE_SIZE} observations, got {len(x)}")
        # written positively so that NaN fails it too
        if not np.all((x >= 0.0) & (x <= 1.0)):
            raise ValueError("density observations must be finite and in [0, 1]")

    @property
    def n(self) -> int:
        return len(self.x)

    def subset(self, index: slice) -> "DensitySample":
        return DensitySample(self.x[index])


@dataclass(frozen=True)
class RegressionSample:
    """n i.i.d. pairs (x, y) in the unit square, uniform design."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        if len(x) != len(y):
            raise ValueError("x and y must have the same length")
        if len(x) < MIN_SAMPLE_SIZE:
            raise ValueError(f"need at least {MIN_SAMPLE_SIZE} observations, got {len(x)}")
        if not np.all((x >= 0.0) & (x <= 1.0) & (y >= 0.0) & (y <= 1.0)):
            raise ValueError("regression observations must be finite and in [0, 1]")

    @property
    def n(self) -> int:
        return len(self.x)

    def subset(self, index: slice) -> "RegressionSample":
        return RegressionSample(self.x[index], self.y[index])


def _dyadic_level(target: float) -> int:
    """The unique integer j with target <= 2^j < 2 target, for target >= 1."""
    return (math.ceil(target) - 1).bit_length()  # 2^j >= target exactly when 2^j >= ceil(target)


def j1_level(n: int) -> int:
    """The unique integer j1 with n/log n <= 2^j1 < 2 n/log n."""
    if n < MIN_SAMPLE_SIZE:
        raise ValueError(f"n must be at least {MIN_SAMPLE_SIZE}, got {n}")
    return _dyadic_level(n / math.log(n))


def js_level(n: int, s: float) -> int:
    """The unique integer with n^{1/(1+2s)} <= 2^j < 2 n^{1/(1+2s)}."""
    if n < 2:
        raise ValueError("n must be at least 2")
    if s <= 0:
        raise ValueError("smoothness s must be positive")
    return _dyadic_level(n ** (1.0 / (1.0 + 2.0 * s)))


def density_coeffs(
    sample: DensitySample, family: WaveletFamily, j1: int
) -> WaveletExpansion:
    """Empirical coefficients (1/n) sum_i phi/psi_{j,k}(X_i) up to level j1."""
    if j1 < family.tau:
        raise ValueError(f"j1 = {j1} below coarsest level tau = {family.tau}")
    return analyze_points(family, sample.x, None, j1, sample.n)


def regression_coeffs(
    sample: RegressionSample, family: WaveletFamily, j1: int
) -> WaveletExpansion:
    """Empirical coefficients (1/n) sum_i Y_i phi/psi_{j,k}(X_i) up to level j1."""
    if j1 < family.tau:
        raise ValueError(f"j1 = {j1} below coarsest level tau = {family.tau}")
    return analyze_points(family, sample.x, sample.y, j1, sample.n)


def check_model_bound(model: str, B: float) -> None:
    """The density model needs a finite bound B >= 1; the regression model fixes B = 1."""
    if model not in MODELS:
        raise ValueError(f"model must be 'density' or 'regression', got {model!r}")
    if model == "regression" and B != 1.0:
        raise ValueError("the regression model fixes B = 1")
    # written positively so that NaN fails it too
    if not 1.0 <= B < math.inf:
        raise ValueError(f"density bound B must be finite and >= 1, got {B}")


def min_rho(B: float, psi_sup: float, model: str) -> float:
    """Smallest rho with rho^2 / (8B + (8 rho/(3 sqrt 2))(psi_sup + B)) = 4 log 2.

    The regression model fixes B = 1; the density model requires a density
    bound B >= 1. Solved exactly as the positive root of the quadratic
    rho^2 - a rho - b with a = 4 log(2) (8/(3 sqrt 2))(psi_sup + B) and
    b = 32 log(2) B.
    """
    check_model_bound(model, B)
    ln2 = math.log(2.0)
    a = 4.0 * ln2 * (8.0 / (3.0 * math.sqrt(2.0))) * (psi_sup + B)
    b = 4.0 * ln2 * 8.0 * B
    rho = (a + math.sqrt(a * a + 4.0 * b)) / 2.0
    # re-check the defining display at the returned root
    assert rho ** 2 / (8.0 * B + (8.0 * rho / (3.0 * math.sqrt(2.0))) * (psi_sup + B)) \
        >= 4.0 * ln2 * (1.0 - 1e-12)
    return rho


def loss_difference_bound(model: str, B: float = 1.0) -> float:
    """Almost-sure bound K on loss differences over the clipped class.

    Regression: differences of squares of [0, 1] quantities, K = 1. Density
    quadratic loss on functions clipped to [0, B]: K = B^2 + 2B.
    """
    check_model_bound(model, B)
    return 1.0 if model == "regression" else B * B + 2.0 * B


def margin_constant(model: str, B: float = 1.0) -> float:
    """Margin-assumption constant c (margin exponent 1): 16 B^2, with B = 1 in regression."""
    check_model_bound(model, B)
    return 16.0 * B * B
