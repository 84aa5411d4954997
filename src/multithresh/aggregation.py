"""Losses, exponential-weights / ERM aggregation, and the full pipeline.

The multi-thresholding estimator splits the sample into a training part
(first m observations, used to build one clipped thresholded estimator per
level offset u) and a learning part (last l observations, used to form
empirical risks). Candidates are combined either by exponential weights
proportional to exp(-l * empirical risk) or by empirical risk minimization.

Also houses the theoretical constants of the oracle-inequality residual
(beta1, beta2) so that reports can evaluate the formal bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .coefficients import (
    MIN_SAMPLE_SIZE,
    DensitySample,
    RegressionSample,
    density_coeffs,
    j1_level,
    loss_difference_bound,
    margin_constant,
    min_rho,
    regression_coeffs,
)
from .thresholding import ThresholdPlan, ThresholdRule, flat_plan, make_plan, threshold_expansion
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
    """Quadratic loss of one of the two models, with its clip range.

    Regression fixes the range to [0, 1]; the density loss carries the
    density bound B (= clip ceiling) and the quadrature grid size used for
    the integral term.
    """

    kind: str
    clip_lo: float
    clip_hi: float
    B: float
    grid_size: int = DEFAULT_GRID_SIZE

    def __post_init__(self) -> None:
        if self.kind not in ("regression_quadratic", "density_quadratic"):
            raise ValueError(f"unknown loss kind {self.kind!r}")
        if self.clip_lo >= self.clip_hi:
            raise ValueError("clip range must be nonempty")
        if self.kind == "regression_quadratic" and (self.clip_lo, self.clip_hi) != (0.0, 1.0):
            raise ValueError("regression loss fixes the clip range to [0, 1]")
        if self.kind == "density_quadratic":
            if self.B < 1.0:
                raise ValueError("density bound B must be >= 1")
            if (self.clip_lo, self.clip_hi) != (0.0, self.B):
                raise ValueError("density loss fixes the clip range to [0, B]")
        if self.grid_size < 2:
            raise ValueError("grid_size must be at least 2")

    @property
    def model(self) -> str:
        return "regression" if self.kind == "regression_quadratic" else "density"

    @staticmethod
    def regression(grid_size: int = DEFAULT_GRID_SIZE) -> "LossSpec":
        return LossSpec("regression_quadratic", 0.0, 1.0, 1.0, grid_size)

    @staticmethod
    def density(B: float, grid_size: int = DEFAULT_GRID_SIZE) -> "LossSpec":
        return LossSpec("density_quadratic", 0.0, float(B), float(B), grid_size)


def empirical_risk(loss: LossSpec, candidate, data) -> float:
    """Empirical risk of an evaluable candidate on a learning subsample.

    Regression: mean squared prediction error. Density: integral of the
    squared candidate (midpoint quadrature, or the candidate's cached value)
    minus twice the sample mean of the candidate.
    """
    if loss.kind == "regression_quadratic":
        x, y = data.x, data.y
        if len(x) == 0:
            raise ValueError("empty learning subsample")
        return float(np.mean((y - np.asarray(candidate(x), dtype=float)) ** 2))
    x = data.x if hasattr(data, "x") else np.asarray(data, dtype=float)
    if len(x) == 0:
        raise ValueError("empty learning subsample")
    integral = getattr(candidate, "integral_sq", None)
    if integral is None:
        vals = np.asarray(candidate(midpoint_grid(loss.grid_size)), dtype=float)
        integral = float(np.mean(vals ** 2))
    return float(integral - 2.0 * np.mean(np.asarray(candidate(x), dtype=float)))


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

@dataclass
class CandidateEstimator:
    """A clipped thresholded estimator with cached quadrature values."""

    u: int
    plan: ThresholdPlan
    expansion: WaveletExpansion
    family: WaveletFamily
    clip_lo: float
    clip_hi: float
    grid_values: np.ndarray = field(repr=False)
    integral_sq: float = 0.0

    def __call__(self, x) -> np.ndarray:
        raw = synthesize_at(self.family, self.expansion, np.asarray(x, dtype=float))
        return np.minimum(np.maximum(raw, self.clip_lo), self.clip_hi)


def _build_candidate(
    u: int,
    raw: WaveletExpansion,
    plan: ThresholdPlan,
    rule: ThresholdRule,
    family: WaveletFamily,
    loss: LossSpec,
    grid: np.ndarray,
) -> CandidateEstimator:
    thresholded = threshold_expansion(raw, plan, rule)
    vals = synthesize_at(family, thresholded, grid)
    np.clip(vals, loss.clip_lo, loss.clip_hi, out=vals)
    return CandidateEstimator(
        u=u,
        plan=plan,
        expansion=thresholded,
        family=family,
        clip_lo=loss.clip_lo,
        clip_hi=loss.clip_hi,
        grid_values=vals,
        integral_sq=float(np.mean(vals ** 2)),
    )


@dataclass
class MixtureEstimator:
    """Convex combination of clipped candidates (clipping before averaging)."""

    candidates: list[CandidateEstimator]
    weights: np.ndarray
    grid_values: np.ndarray = field(repr=False)

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for w, cand in zip(self.weights, self.candidates):
            if w != 0.0:
                out += w * cand(x)
        return out


def aggregate_mixture(candidates, weights) -> MixtureEstimator:
    """Pointwise weighted average of clipped candidates."""
    weights = np.asarray(weights, dtype=float)
    if len(candidates) != len(weights):
        raise ValueError("one weight per candidate required")
    if np.any(weights < 0.0) or abs(weights.sum() - 1.0) > 1e-12:
        raise ValueError("weights must be a probability vector")
    grid_values = np.zeros_like(candidates[0].grid_values)
    for w, cand in zip(weights, candidates):
        grid_values += w * cand.grid_values
    return MixtureEstimator(list(candidates), weights, grid_values)


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


def multi_threshold_candidates(
    data: DensitySample | RegressionSample,
    family: WaveletFamily,
    rule: ThresholdRule,
    loss: LossSpec,
    rho: float | None = None,
    shuffle_split: bool = False,
    shuffle_rng: np.random.Generator | None = None,
) -> tuple[list[CandidateEstimator], AggregationDiagnostics]:
    """Build and score one clipped thresholded candidate per level offset.

    Splits the data, estimates coefficients on the training part, thresholds
    them once per offset in the candidate grid, and scores every candidate
    on the learning part. The diagnostics carry both the exponential weights
    and the empirical-risk-minimizing index, so either aggregation scheme can
    be assembled from the same candidates.
    """
    is_density = isinstance(data, DensitySample)
    if is_density != (loss.model == "density"):
        raise ValueError(f"sample type does not match loss model {loss.model!r}")
    n = data.n
    if rho is None:
        rho = min_rho(loss.B if is_density else 1.0, family.psi_sup, loss.model)
    if rho <= 0.0:
        raise ValueError("rho must be positive")

    if shuffle_split:
        if shuffle_rng is None:
            raise ValueError("shuffle_split requires a generator")
        data = data.subset(shuffle_rng.permutation(n))

    m, l = split_sample(n)
    train = data.subset(slice(0, m))
    learn = data.subset(slice(m, n))
    j1 = j1_level(n)

    raw = density_coeffs(train, family, j1) if is_density \
        else regression_coeffs(train, family, j1)

    grid = midpoint_grid(loss.grid_size)
    u_grid = candidate_grid(n, j1)
    candidates = []
    for u in u_grid:
        plan = make_plan(rho, u, family.tau, j1, m)
        candidates.append(_build_candidate(u, raw, plan, rule, family, loss, grid))

    risks = np.array([empirical_risk(loss, c, learn) for c in candidates])
    weights = aew_weights(risks, l)
    erm_index = erm_select(risks)
    diag = AggregationDiagnostics(
        u_grid=u_grid, risks=risks, weights=weights, erm_index=erm_index,
        rho=float(rho), m=m, l=l, j1=j1,
    )
    return candidates, diag


def multi_threshold_estimate(
    data: DensitySample | RegressionSample,
    family: WaveletFamily,
    rule: ThresholdRule,
    loss: LossSpec,
    rho: float | None = None,
    scheme: str = "AEW",
    shuffle_split: bool = False,
    shuffle_rng: np.random.Generator | None = None,
):
    """Build, score and combine one thresholded candidate per level offset.

    Returns ``(estimator, diagnostics)`` where the estimator is the
    exponential-weights mixture (scheme "AEW") or the empirical-risk
    minimizer (scheme "ERM"). ``rho`` defaults to the smallest constant
    satisfying the model's deviation condition; pass a smaller value for
    less conservative thresholds. The optional shuffled split permutes the
    sample before the deterministic first-m / last-l split.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"scheme must be one of {SCHEMES}, got {scheme!r}")
    candidates, diag = multi_threshold_candidates(
        data, family, rule, loss, rho=rho,
        shuffle_split=shuffle_split, shuffle_rng=shuffle_rng,
    )
    if scheme == "ERM":
        return candidates[diag.erm_index], diag
    return aggregate_mixture(candidates, diag.weights), diag


def universal_threshold_estimate(
    data: DensitySample | RegressionSample,
    family: WaveletFamily,
    rule: ThresholdRule,
    loss: LossSpec,
    c: float = 1.0,
) -> CandidateEstimator:
    """Single-candidate baseline: flat threshold c sqrt(log n / n), full sample."""
    is_density = isinstance(data, DensitySample)
    if is_density != (loss.model == "density"):
        raise ValueError(f"sample type does not match loss model {loss.model!r}")
    n = data.n
    j1 = j1_level(n)
    raw = density_coeffs(data, family, j1) if is_density \
        else regression_coeffs(data, family, j1)
    threshold = c * math.sqrt(math.log(n) / n)
    plan = flat_plan(threshold, family.tau, j1, n)
    return _build_candidate(family.tau - 1, raw, plan, rule, family, loss,
                            midpoint_grid(loss.grid_size))


# ---------------------------------------------------------------------------
# Theoretical constants
# ---------------------------------------------------------------------------

def beta_constants(c: float, K: float) -> tuple[float, float]:
    """The two residual constants, each the minimum of its four branch terms."""
    if c <= 0.0 or K < 1.0:
        raise ValueError(f"need c > 0 and K >= 1, got c={c}, K={K}")
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


@dataclass(frozen=True)
class TheoryConstants:
    """Margin and residual constants for one model instance."""

    kappa: float
    c: float
    K: float
    beta1: float
    beta2: float

    def __post_init__(self) -> None:
        if self.beta1 <= 0.0 or self.beta2 <= 0.0:
            raise ValueError("beta constants must be positive")
        if self.beta2 > self.beta1 / 2.0 + 1e-15:
            raise ValueError("beta2 must not exceed beta1 / 2")


def theory_constants(model: str, B: float = 1.0) -> TheoryConstants:
    """Constants for the given model: margin exponent 1 and its c, K pair."""
    c = margin_constant(model, B)
    K = loss_difference_bound(model, B)
    beta1, beta2 = beta_constants(c, K)
    return TheoryConstants(kappa=1.0, c=c, K=K, beta1=beta1, beta2=beta2)
