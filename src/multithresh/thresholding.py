"""Term-by-term thresholding rules and per-level thresholds.

The three classical rules (hard, soft, non-negative garrote) all vanish
below the threshold, so the generic keep-indicator is already part of the
rule. Each rule carries a constant pair (c1, c2) for the quadratic
stability condition; the one default pair is certified for every rule by
:func:`verify_ongle` on the grid x, y in [-10, 10] step 0.01, u in
{0.1, 0.5, 1, 2}.

The candidates of the multi-thresholding estimator differ only in the level
offset u of their thresholds. :func:`make_plan` gives one row of thresholds
per offset, and :func:`threshold_expansion` turns the rows into one stack of
thresholded expansions, with one pass of the rule over the whole block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .wavelets import WaveletExpansion

RULE_KINDS = ("hard", "soft", "garrote")

# (c1, c2), certified for every rule by verify_ongle on the default grid
_DEFAULT_CONSTANTS = (8.0, 2.0)


@dataclass(frozen=True)
class ThresholdRule:
    """A thresholding operator with certified stability constants.

    Omitted constants fall back to the certified default pair;
    explicit values (certified or not) are kept so the checker can exhibit
    failures of uncertified pairs.
    """

    kind: str
    c1: float | None = None
    c2: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in RULE_KINDS:
            raise ValueError(f"unknown rule {self.kind!r}; expected one of {RULE_KINDS}")
        for name, default in zip(("c1", "c2"), _DEFAULT_CONSTANTS):
            if getattr(self, name) is None:
                object.__setattr__(self, name, default)
        if not (0.0 <= self.c1 < math.inf and 0.0 <= self.c2 < math.inf):
            raise ValueError(f"need finite c1, c2 >= 0, got c1={self.c1}, c2={self.c2}")


def apply_rule(rule: ThresholdRule, u, x):
    """Apply the thresholding operator at threshold u > 0.

    hard:    x 1{|x| >= u}
    soft:    sign(x)(|x| - u) 1{|x| >= u}
    garrote: (x - u^2/x) 1{|x| >= u}

    ``u`` is a number or an array that broadcasts against x, such as a column
    of one threshold per row of x.
    """
    if not np.all(u > 0.0):  # NaN fails it too
        raise ValueError(f"threshold u must be positive, got {u}")
    x_arr = np.asarray(x, dtype=float)
    active = np.abs(x_arr) >= u
    if rule.kind == "hard":
        out = np.where(active, x_arr, 0.0)
    elif rule.kind == "soft":
        out = np.where(active, np.sign(x_arr) * (np.abs(x_arr) - u), 0.0)
    else:
        shrink = np.divide(u * u, x_arr, out=np.zeros(active.shape), where=active)
        out = np.where(active, x_arr - shrink, 0.0)
    return float(out) if x_arr.ndim == 0 else out


def check_rho(rho: float) -> None:
    """Require a positive finite threshold constant rho."""
    if not 0.0 < rho < math.inf:
        raise ValueError(f"rho must be positive and finite, got {rho}")


def make_plan(rho: float, u, tau: int, j1: int, n: int) -> np.ndarray:
    """Thresholds t_j = rho * (j - u)_+ / (2 sqrt(n)) for the levels j = tau..j1.

    Returns one row per offset when ``u`` is a sequence, and one vector for
    a single offset. The thresholds grow linearly in the level excess above
    the offset u, placed on the scale of coefficient deviations (which shrink
    like 1/(2 sqrt(n))). The level offset enters through the positive part
    (j - u)_+, so levels j <= u are passed through untouched and a plan with
    u >= j1 is all-zero (a pure linear estimator up to j1). The linear shape
    is what makes moderate rho values usable: the noise kept at level u + a
    decays like exp(-rho^2 a^2 / 8) against a 2^a coefficient count, which
    converges for every rho > 0, whereas a sqrt(a)-shaped vector needs
    rho > sqrt(8 log 2) to converge.
    """
    if tau > j1:
        raise ValueError(f"invalid level range tau={tau} > j1={j1}")
    if n < 2:
        raise ValueError("n must be at least 2")
    check_rho(rho)
    excess = np.maximum(np.arange(tau, j1 + 1) - np.asarray(u)[..., None], 0)
    return rho * excess / (2.0 * np.sqrt(n))


def threshold_expansion(raw: WaveletExpansion, t, rule: ThresholdRule) -> WaveletExpansion:
    """Shrink the wavelet coefficients of one series, once per row of thresholds.

    ``t[..., j - tau]`` is the threshold of level j, as :func:`make_plan`
    returns it; a matrix of thresholds gives an expansion with one candidate
    row per threshold row. Scaling coefficients are the linear step and stay
    untouched. The rule runs once over the wavelet part of the block, on the
    entries with t_j > 0; the others keep their raw value (the garrote would divide 0/0).
    """
    t = np.asarray(t, dtype=float)
    levels = raw.levels()
    if t.shape[-1] != len(levels):
        raise ValueError(f"shape mismatch: expansion levels {raw.tau}..{raw.j_max} "
                         f"vs {t.shape[-1]} thresholds per row")
    if not np.all((t >= 0.0) & (t < math.inf)):
        raise ValueError(f"each threshold must be finite and nonnegative, got {t}")
    coeffs = np.broadcast_to(raw.coeffs, t.shape[:-1] + raw.coeffs.shape).copy()
    wavelet = coeffs[..., 1 << raw.tau:]
    level_t = np.repeat(t, [1 << j for j in levels], axis=-1)  # each coefficient's threshold
    on = level_t > 0.0
    wavelet[on] = apply_rule(rule, level_t[on], wavelet[on])
    return WaveletExpansion(raw.tau, coeffs)


@dataclass(frozen=True)
class OngleReport:
    """Outcome of the brute-force stability check, with a witness on failure."""

    passed: bool
    rule_kind: str
    c1: float
    c2: float
    points_checked: int
    witness: tuple[float, float, float, float, float] | None = None


# x rows per tile. The column bound costs the same per tile at any height, and a taller tile
# leaves more columns to the exact check: the three default scans took 37-54 ms at 16 rows,
# 12-15 ms at 48-96 and 16-21 ms at 128 (median of 5, 2-core x86_64)
_TILE_ROWS = 64
_REPORT_ROWS = 512  # a failure's points_checked counts through the end of its 512-row block


@np.errstate(over="ignore")  # a huge c1 overflows a right side to inf, which passes
def verify_ongle(
    rule: ThresholdRule,
    u_grid,
    xy_grid_step: float,
    search_range: float,
) -> OngleReport:
    """Grid-check |T_u(x) - y|^2 <= c1 (min(|y|, c2 u)^2 + |x-y|^2 1{|x-y| >= u/2}).

    Scans x, y over [-search_range, search_range] with the given step for
    every u in ``u_grid``, one tile of x rows at a time; a rounding-safe bound clears
    the y columns of a tile where no row can fail, and the rest get the exact check.
    Returns a failing witness (x, y, u, lhs, rhs), at the first failing x row and
    its smallest y, when the inequality breaks anywhere on the grid. ``points_checked``
    counts all (x, y) pairs of each u scanned, cleared or checked; at a failing u
    it counts the x rows through the end of the witness's 512-row block.
    """
    u_grid = np.asarray(u_grid, dtype=float)
    if not 0.0 < xy_grid_step < math.inf:
        raise ValueError(f"grid step must be positive and finite, got {xy_grid_step}")
    if u_grid.ndim != 1 or u_grid.size == 0 or not np.all((u_grid > 0.0) & (u_grid < math.inf)):
        raise ValueError(f"need a nonempty 1-D grid of positive finite thresholds u, got {u_grid}")
    if not 5.0 * u_grid.max() <= search_range < math.inf:
        raise ValueError("search range must be finite and cover at least 5x the largest threshold")
    xs = np.arange(-search_range, search_range + xy_grid_step / 2.0, xy_grid_step)
    n = len(xs)
    for iu, u in enumerate(u_grid):
        transformed = apply_rule(rule, float(u), xs)
        min_term = rule.c1 * np.minimum(np.abs(xs), rule.c2 * u) ** 2
        for start in range(0, n, _TILE_ROWS):
            x_tile, t_tile = xs[start:start + _TILE_ROWS], transformed[start:start + _TILE_ROWS]
            # every row: lhs <= reach^2, rhs >= rhs_lo, rounding being monotone; dist < 0 in x range
            reach = np.maximum(np.abs(t_tile.max() - xs), np.abs(t_tile.min() - xs))
            dist = np.maximum(x_tile.min() - xs, xs - x_tile.max())
            rhs_lo = np.where(dist >= u / 2.0, rule.c1 * dist * dist, 0.0) + min_term
            keep = np.flatnonzero(~(reach * reach < rhs_lo))  # in order, so the witness stays
            if not keep.size:
                continue
            diff = x_tile[:, None] - xs[keep]
            lhs = (t_tile[:, None] - xs[keep]) ** 2
            # np.where, not a product with the indicator: c1 diff^2 may overflow, and inf * 0 is NaN
            rhs = np.where(np.abs(diff) >= u / 2.0, diff * rule.c1 * diff, 0.0) + min_term[keep]
            fail = lhs > rhs * (1.0 + 1e-12)
            if fail.any():
                i, k = map(int, np.argwhere(fail)[0])  # Python ints, as the passing count
                row = start + i
                rows_checked = min((row // _REPORT_ROWS + 1) * _REPORT_ROWS, n)
                witness = (float(xs[row]), float(xs[keep[k]]), float(u), float(lhs[i, k]),
                           float(rhs[i, k]))
                return OngleReport(False, rule.kind, rule.c1, rule.c2,
                                   (iu * n + rows_checked) * n, witness)
    return OngleReport(True, rule.kind, rule.c1, rule.c2, len(u_grid) * n * n)
