"""Term-by-term thresholding rules and per-level threshold plans.

The three classical rules (hard, soft, non-negative garrote) all vanish
below the threshold, so the generic keep-indicator is already part of the
rule. Each rule carries a constant pair (c1, c2) for the quadratic
stability condition; the defaults are certified by :func:`verify_ongle`
on the grid x, y in [-10, 10] step 0.01, u in {0.1, 0.5, 1, 2}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .wavelets import WaveletExpansion

RULE_KINDS = ("hard", "soft", "garrote")

# certified by verify_ongle on the default grid
_DEFAULT_CONSTANTS = {"hard": (8.0, 2.0), "soft": (8.0, 2.0), "garrote": (8.0, 2.0)}


@dataclass(frozen=True)
class ThresholdRule:
    """A thresholding operator with certified stability constants.

    Omitted constants fall back to the certified defaults for the rule kind;
    explicit values (certified or not) are kept so the checker can exhibit
    failures of uncertified pairs.
    """

    kind: str
    c1: float | None = None
    c2: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in RULE_KINDS:
            raise ValueError(f"unknown rule {self.kind!r}; expected one of {RULE_KINDS}")
        default_c1, default_c2 = _DEFAULT_CONSTANTS[self.kind]
        if self.c1 is None:
            object.__setattr__(self, "c1", default_c1)
        if self.c2 is None:
            object.__setattr__(self, "c2", default_c2)
        if not (0.0 <= self.c1 < math.inf and 0.0 <= self.c2 < math.inf):
            raise ValueError(f"need finite c1, c2 >= 0, got c1={self.c1}, c2={self.c2}")


def apply_rule(rule: ThresholdRule, u: float, x):
    """Apply the thresholding operator at threshold u > 0.

    hard:    x 1{|x| >= u}
    soft:    sign(x)(|x| - u) 1{|x| >= u}
    garrote: (x - u^2/x) 1{|x| >= u}
    """
    if u <= 0.0:
        raise ValueError("threshold u must be positive")
    x_arr = np.asarray(x, dtype=float)
    active = np.abs(x_arr) >= u
    if rule.kind == "hard":
        out = np.where(active, x_arr, 0.0)
    elif rule.kind == "soft":
        out = np.where(active, np.sign(x_arr) * (np.abs(x_arr) - u), 0.0)
    else:
        shrink = np.divide(
            u * u, x_arr, out=np.zeros_like(x_arr, dtype=float), where=active
        )
        out = np.where(active, x_arr - shrink, 0.0)
    if np.isscalar(x) or x_arr.ndim == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class ThresholdPlan:
    """Effective per-level thresholds t_j for levels tau..j1.

    Levels j <= u are passed through untouched (t_j = 0); above the offset
    the threshold grows with the level excess, scaled to the deviation size
    of empirical coefficients built from n observations.
    """

    u: int
    rho: float
    tau: int
    j1: int
    n: int
    t: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        t = np.asarray(self.t, dtype=float)
        object.__setattr__(self, "t", t)
        if len(t) != self.j1 - self.tau + 1:
            raise ValueError("plan must hold one threshold per level tau..j1")
        if np.any(t < 0.0):
            raise ValueError("thresholds must be nonnegative")
        if np.any(np.diff(t) < 0.0):
            raise ValueError("thresholds must be nondecreasing in the level")
        levels = np.arange(self.tau, self.j1 + 1)
        if np.any(t[levels <= self.u] != 0.0):
            raise ValueError("levels at or below the offset u must have t_j = 0")

    def threshold_at(self, j: int) -> float:
        return float(self.t[j - self.tau])


def make_plan(rho: float, u: int, tau: int, j1: int, n: int) -> ThresholdPlan:
    """Threshold plan t_j = rho * (j - u)_+ / (2 sqrt(n)).

    The threshold vector grows linearly in the level excess above the offset
    u, placed on the scale of coefficient deviations (which shrink like
    1/(2 sqrt(n))). The level offset enters through the positive part
    (j - u)_+, so a plan with u >= j1 is all-zero (a pure linear estimator
    up to j1). The linear shape is what makes moderate rho values usable:
    the noise kept at level u + a decays like exp(-rho^2 a^2 / 8) against a
    2^a coefficient count, which converges for every rho > 0, whereas a
    sqrt(a)-shaped vector needs rho > sqrt(8 log 2) to converge.
    """
    if tau > j1:
        raise ValueError(f"invalid level range tau={tau} > j1={j1}")
    if n < 2:
        raise ValueError("n must be at least 2")
    if rho <= 0.0:
        raise ValueError("rho must be positive")
    levels = np.arange(tau, j1 + 1)
    excess = np.maximum(levels - u, 0)
    t = rho * excess / (2.0 * np.sqrt(n))
    return ThresholdPlan(u=u, rho=rho, tau=tau, j1=j1, n=n, t=t)


def flat_plan(threshold: float, tau: int, j1: int, n: int) -> ThresholdPlan:
    """A level-independent plan (the universal-threshold baseline)."""
    if threshold < 0.0:
        raise ValueError("threshold must be nonnegative")
    t = np.full(j1 - tau + 1, float(threshold))
    return ThresholdPlan(u=tau - 1, rho=float(threshold), tau=tau, j1=j1, n=n, t=t)


def threshold_expansion(
    raw: WaveletExpansion, plan: ThresholdPlan, rule: ThresholdRule
) -> WaveletExpansion:
    """Shrink the wavelet rows of an expansion level by level.

    Scaling coefficients are the linear step and stay untouched; a level with
    t_j = 0 keeps its raw row.
    """
    if raw.j_max != plan.j1 or raw.tau != plan.tau:
        raise ValueError(
            f"shape mismatch: expansion levels {raw.tau}..{raw.j_max} "
            f"vs plan {plan.tau}..{plan.j1}"
        )
    beta = []
    for j, row in zip(raw.levels(), raw.beta):
        tj = plan.threshold_at(j)
        beta.append(apply_rule(rule, tj, row) if tj > 0.0 else row.copy())
    return WaveletExpansion(raw.tau, raw.j_max, raw.alpha.copy(), beta)


@dataclass(frozen=True)
class OngleReport:
    """Outcome of the brute-force stability check, with a witness on failure."""

    passed: bool
    rule_kind: str
    c1: float
    c2: float
    points_checked: int
    witness: tuple[float, float, float, float, float] | None = None


def verify_ongle(
    rule: ThresholdRule,
    u_grid,
    xy_grid_step: float,
    search_range: float,
) -> OngleReport:
    """Grid-check |T_u(x) - y|^2 <= c1 (min(|y|, c2 u)^2 + |x-y|^2 1{|x-y| >= u/2}).

    Scans x, y over [-search_range, search_range] with the given step for
    every u in ``u_grid``. Returns a failing witness (x, y, u, lhs, rhs) when
    the inequality breaks anywhere on the grid.
    """
    u_grid = np.asarray(u_grid, dtype=float)
    if xy_grid_step <= 0.0:
        raise ValueError("grid step must be positive")
    if search_range < 5.0 * u_grid.max():
        raise ValueError("search range must cover at least 5x the largest threshold")
    xs = np.arange(-search_range, search_range + xy_grid_step / 2.0, xy_grid_step)
    checked = 0
    block = 512
    # work arrays shared by every block, so that the scan allocates nothing per block
    work = np.empty((4, block, len(xs)))
    mask = np.empty((block, len(xs)), dtype=bool)
    for u in u_grid:
        transformed = apply_rule(rule, float(u), xs)
        min_term = rule.c1 * np.minimum(np.abs(xs), rule.c2 * u) ** 2
        for start in range(0, len(xs), block):
            sl = slice(start, start + block)
            diff, lhs, rhs, tmp = work[:, : len(xs[sl])]
            np.subtract(xs[sl][:, None], xs, out=diff)
            np.subtract(transformed[sl][:, None], xs, out=lhs)
            lhs **= 2
            # rhs = min_term + c1 * diff * diff * 1{|diff| >= u/2}, in that order
            np.multiply(diff, rule.c1, out=rhs)
            rhs *= diff
            rhs *= np.greater_equal(np.abs(diff, out=tmp), u / 2.0, out=mask[: len(diff)])
            rhs += min_term
            checked += lhs.size
            bad = np.greater(lhs, np.multiply(rhs, 1.0 + 1e-12, out=tmp), out=mask[: len(diff)])
            if bad.any():
                i, jj = np.argwhere(bad)[0]
                return OngleReport(
                    passed=False,
                    rule_kind=rule.kind,
                    c1=rule.c1,
                    c2=rule.c2,
                    points_checked=checked,
                    witness=(
                        float(xs[sl][i]), float(xs[jj]), float(u),
                        float(lhs[i, jj]), float(rhs[i, jj]),
                    ),
                )
    return OngleReport(
        passed=True, rule_kind=rule.kind, c1=rule.c1, c2=rule.c2,
        points_checked=checked,
    )
