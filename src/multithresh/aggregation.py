"""Losses, exponential-weights / ERM aggregation, and the full pipeline.

The multi-thresholding estimator splits the sample into a training part
(first m observations, used to build one clipped thresholded estimator per
level offset u) and a learning part (last l observations, used to form
empirical risks). Each estimator is its clipped values on the quadrature
grid: row r of ``grid_rows`` is the candidate of offset ``diag.u_grid[r]``,
combined either by exponential weights proportional to exp(-l * empirical
risk) into a mixture or by empirical risk minimization into one of the rows.

Also houses ``beta_constants``, the oracle inequality's residual constants
(beta1, beta2) for a margin constant c and a loss-difference bound K.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coefficients import (
    MIN_SAMPLE_SIZE,
    DensitySample,
    RegressionSample,
    check_model_bound,
    density_coeffs,
    j1_level,
    min_rho,
    regression_coeffs,
)
from .thresholding import ThresholdRule, check_rho, make_plan, threshold_expansion
from .wavelets import (DEFAULT_GRID_SIZE, WaveletExpansion, WaveletFamily, midpoint_grid,
                       synthesize_at)

SCHEMES = ("AEW", "ERM")

# smallest n whose learning part ceil(n / log n) holds MIN_SAMPLE_SIZE points
MIN_SPLIT_SIZE = 62


def split_sample(n: int) -> tuple[int, int]:
    """Sizes (m, l) of the training / learning subsamples, l = ceil(n/log n)."""
    if n < MIN_SPLIT_SIZE:
        raise ValueError(
            f"n = {n} is too small for the train/learn split: both parts need "
            f"{MIN_SAMPLE_SIZE} observations, so n must be at least {MIN_SPLIT_SIZE}"
        )
    l = math.ceil(n / math.log(n))
    return n - l, l


@dataclass(frozen=True)
class LossSpec:
    """Quadratic loss of one of the two models, with its clip range [0, B].

    The density loss carries the density bound B (= clip ceiling); the
    regression model fixes B = 1. ``grid_size`` is the midpoint quadrature
    grid on which candidates are represented and the density loss's
    integral term is computed.
    """

    model: str
    B: float = 1.0
    grid_size: int = DEFAULT_GRID_SIZE

    def __post_init__(self) -> None:
        check_model_bound(self.model, self.B)
        if self.grid_size < 2:
            raise ValueError("grid_size must be at least 2")


def empirical_risks(loss: LossSpec, grid_rows, learn_values: np.ndarray,
                    learn: DensitySample | RegressionSample) -> np.ndarray:
    """Empirical risk of every candidate from its clipped values on a learning subsample.

    ``grid_rows[r]`` are candidate r's values on the quadrature grid and row r
    of the ``(M, l)`` array ``learn_values`` its values at ``learn.x``.
    Regression: mean squared prediction error. Density: integral of the
    squared candidate (midpoint quadrature) minus twice its sample mean.
    """
    if loss.model == "regression":
        return np.mean((learn.y - learn_values) ** 2, axis=-1)
    return np.array([np.mean(row ** 2) for row in grid_rows]) - 2.0 * np.mean(learn_values, axis=-1)


def aew_weights(risks, sample_size: int) -> np.ndarray:
    """Exponential weights exp(-l * risk), normalized, max-shifted for stability."""
    risks = np.asarray(risks, dtype=float)
    if len(risks) < 2:
        raise ValueError("need at least two candidates to aggregate")
    if not np.isfinite(risks).all():
        raise ValueError("risks must be finite")
    logits = -float(sample_size) * risks
    logits -= logits.max()
    w = np.exp(logits)
    return w / w.sum()


def erm_select(risks) -> int:
    """Index of the smallest risk; ties break toward the lowest index."""
    risks = np.asarray(risks, dtype=float)
    if len(risks) < 1:
        raise ValueError("need at least one candidate")
    return int(np.argmin(risks))


# ---------------------------------------------------------------------------
# Candidates and mixtures
# ---------------------------------------------------------------------------

def _clipped_values(family: WaveletFamily, expansion: WaveletExpansion, x: np.ndarray,
                    loss: LossSpec) -> np.ndarray:
    """The expansion (or each row of a stack) synthesized at the points x and clipped to [0, B]."""
    # in place: a second grid-sized array per candidate costs page faults
    values = synthesize_at(family, expansion, x)
    return np.clip(values, 0.0, loss.B, out=values)


def aggregate_mixture(grid_rows, weights, loss: LossSpec) -> np.ndarray:
    """Pointwise weighted average of clipped candidates, clipped to [0, B] against rounding."""
    weights = np.asarray(weights, dtype=float)
    if len(grid_rows) != len(weights):
        raise ValueError("one weight per candidate required")
    # written positively so that NaN fails it too
    if not (np.all(weights >= 0.0) and abs(weights.sum() - 1.0) <= 1e-12):
        raise ValueError("weights must be a probability vector")
    mixture = np.zeros_like(grid_rows[0])
    for w, row in zip(weights, grid_rows):
        mixture += w * row
    return np.clip(mixture, 0.0, loss.B, out=mixture)


# ---------------------------------------------------------------------------
# The multi-thresholding pipeline
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AggregationDiagnostics:
    """Per-run bookkeeping: grid, risks, weights, split sizes, chosen index."""

    u_grid: tuple[int, ...]
    risks: np.ndarray
    weights: np.ndarray
    erm_index: int
    rho: float
    m: int
    l: int
    j1: int

    @property
    def M(self) -> int:
        return len(self.u_grid)

    @property
    def chosen_u(self) -> int:
        return self.u_grid[self.erm_index]


def candidate_grid(n: int, j1: int) -> tuple[int, ...]:
    """Level offsets u = 0 .. min(ceil(log2 n), j1)."""
    return tuple(range(0, min(math.ceil(math.log2(n)), j1) + 1))


def _model_coeffs(data: DensitySample | RegressionSample, family: WaveletFamily, j1: int,
                  loss: LossSpec) -> WaveletExpansion:
    """Empirical coefficients up to level j1 of a sample of the loss's model."""
    if isinstance(data, DensitySample) != (loss.model == "density"):
        raise ValueError(f"sample type does not match loss model {loss.model!r}")
    if loss.model == "density":
        return density_coeffs(data, family, j1)
    return regression_coeffs(data, family, j1)


def multi_threshold_candidates(
    data: DensitySample | RegressionSample,
    family: WaveletFamily,
    rule: ThresholdRule,
    loss: LossSpec,
    rho: float | None = None,
) -> tuple[list[np.ndarray], AggregationDiagnostics]:
    """Build and score one clipped thresholded candidate per level offset.

    Splits the data, estimates coefficients on the training part, thresholds
    them once per offset in the candidate grid, and scores every candidate
    on the learning part. Returns ``(grid_rows, diag)``; ``diag`` carries both
    the exponential weights and the empirical-risk-minimizing index, so either
    aggregation scheme can be assembled from the same rows.
    """
    n = data.n
    if rho is None:
        rho = min_rho(loss.B, family.psi_sup, loss.model)
    check_rho(rho)

    m, l = split_sample(n)
    train = data.subset(slice(0, m))
    learn = data.subset(slice(m, n))
    j1 = j1_level(n)
    raw = _model_coeffs(train, family, j1, loss)

    u_grid = candidate_grid(n, j1)
    # one row per candidate, synthesized as one stack at the learning points and on the grid
    stack = threshold_expansion(raw, make_plan(rho, u_grid, family.tau, j1, m), rule)
    learn_values = _clipped_values(family, stack, learn.x, loss)
    grid_rows = list(_clipped_values(family, stack, midpoint_grid(loss.grid_size), loss))
    risks = empirical_risks(loss, grid_rows, learn_values, learn)

    weights = aew_weights(risks, l)
    erm_index = erm_select(risks)
    diag = AggregationDiagnostics(
        u_grid=u_grid, risks=risks, weights=weights, erm_index=erm_index,
        rho=float(rho), m=m, l=l, j1=j1,
    )
    return grid_rows, diag


def multi_threshold_estimate(
    data: DensitySample | RegressionSample,
    family: WaveletFamily,
    rule: ThresholdRule,
    loss: LossSpec,
    rho: float | None = None,
    scheme: str = "AEW",
):
    """Build, score and combine one thresholded candidate per level offset.

    Returns ``(estimate, grid_rows, diag)``: the exponential-weights mixture
    (scheme "AEW") or ``grid_rows[diag.erm_index]`` (scheme "ERM"), and
    the output of ``multi_threshold_candidates``. ``rho`` defaults to the
    smallest constant satisfying the model's deviation condition; pass a
    smaller value for less conservative thresholds.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"scheme must be one of {SCHEMES}, got {scheme!r}")
    grid_rows, diag = multi_threshold_candidates(data, family, rule, loss, rho=rho)
    if scheme == "ERM":
        return grid_rows[diag.erm_index], grid_rows, diag
    return aggregate_mixture(grid_rows, diag.weights, loss), grid_rows, diag


def universal_threshold_estimate(
    data: DensitySample | RegressionSample,
    family: WaveletFamily,
    rule: ThresholdRule,
    loss: LossSpec,
    c: float = 1.0,
) -> np.ndarray:
    """Single-candidate baseline: flat threshold c sqrt(log n / n), full sample.

    Returns its clipped grid values. The flat plan thresholds every level.
    """
    n = data.n
    j1 = j1_level(n)
    raw = _model_coeffs(data, family, j1, loss)
    flat = np.full(j1 - family.tau + 1, c * math.sqrt(math.log(n) / n))
    return _clipped_values(family, threshold_expansion(raw, flat, rule),
                           midpoint_grid(loss.grid_size), loss)


# ---------------------------------------------------------------------------
# Theoretical constants
# ---------------------------------------------------------------------------

def beta_constants(c: float, K: float) -> tuple[float, float]:
    """The two residual constants, each the minimum of its four branch terms."""
    # written positively so that NaN fails it too
    if not (0.0 < c < math.inf and 1.0 <= K < math.inf):
        raise ValueError(f"need finite c > 0 and K >= 1, got c={c}, K={K}")
    ln2 = math.log(2.0)
    beta1 = min(
        ln2 / (96.0 * c * K),
        3.0 * math.sqrt(ln2) / (16.0 * K * math.sqrt(2.0)),
        1.0 / (8.0 * (4.0 * c + K / 3.0)),
        1.0 / (576.0 * c),
    )
    beta2 = min(
        1.0 / 8.0,
        3.0 * ln2 / (32.0 * K),
        1.0 / (2.0 * (16.0 * c + K / 3.0)),
        beta1 / 2.0,
    )
    return beta1, beta2

