"""Thresholding rules, threshold rows and stacks, and the quadratic stability condition."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multithresh.thresholding import (
    OngleReport,
    ThresholdRule,
    apply_rule,
    make_plan,
    threshold_expansion,
    verify_ongle,
)
from multithresh.wavelets import WaveletExpansion

RULES = [ThresholdRule(kind) for kind in ("hard", "soft", "garrote")]


def test_apply_rule_values():
    assert apply_rule(ThresholdRule("soft"), 1.0, 2.0) == pytest.approx(1.0)
    assert apply_rule(ThresholdRule("hard"), 1.0, 0.5) == 0.0
    assert apply_rule(ThresholdRule("hard"), 1.0, -2.0) == -2.0
    assert apply_rule(ThresholdRule("garrote"), 2.0, 4.0) == pytest.approx(3.0)


def test_apply_rule_rejects_nonpositive_threshold():
    with pytest.raises(ValueError):
        apply_rule(ThresholdRule("hard"), 0.0, 1.0)


def test_rule_default_constants():
    for rule in RULES:
        assert rule.c1 > 0 and rule.c2 > 0
    assert ThresholdRule("hard", c1=3.0, c2=1.0).c1 == 3.0
    assert ThresholdRule("hard", c1=0.0, c2=0.0).c2 == 0.0
    with pytest.raises(ValueError):
        ThresholdRule("median")


@pytest.mark.parametrize("c1,c2", [(-1.0, None), (None, -1.0), (float("nan"), None),
                                   (None, float("nan")), (float("inf"), None)])
def test_rule_rejects_constants_that_are_not_finite_and_nonnegative(c1, c2):
    # a NaN constant would otherwise pass every stability check
    with pytest.raises(ValueError, match="need finite c1, c2 >= 0"):
        ThresholdRule("hard", c1=c1, c2=c2)


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from(["hard", "soft", "garrote"]),
    u=st.floats(min_value=1e-3, max_value=1e3),
    x=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
)
def test_rule_properties(kind, u, x):
    rule = ThresholdRule(kind)
    out = apply_rule(rule, u, x)
    tol = 1e-12 * max(1.0, abs(x))  # subtraction near |x| loses absolute precision
    # odd symmetry, shrinkage, zero fixed point
    assert apply_rule(rule, u, -x) == -out
    assert abs(out) <= abs(x) + tol
    assert apply_rule(rule, u, 0.0) == 0.0
    if kind in ("soft", "garrote"):
        assert abs(out - x) <= u + tol


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def test_make_plan_values():
    plan = make_plan(2.0, 3, 0, 5, 100)
    np.testing.assert_allclose(plan, [0.0, 0.0, 0.0, 0.0, 0.1, 0.2])
    assert plan[4] == pytest.approx(2.0 * 1 / (2 * 10))  # level 4, as tau = 0
    # a sequence of offsets gives one row per offset, each with the bits of its own call
    offsets = [0, 3, 5, 7]
    rows = make_plan(2.0, offsets, 0, 5, 100)
    assert rows.shape == (4, 6)
    for u, row in zip(offsets, rows):
        assert same_bits(row, make_plan(2.0, u, 0, 5, 100))
    # the old per-offset formula, with u a Python int, is the bit-for-bit reference
    for u, row in zip(offsets, make_plan(0.7, offsets, 1, 9, 876)):
        assert same_bits(row, 0.7 * np.maximum(np.arange(1, 10) - u, 0) / (2.0 * np.sqrt(876)))


def test_make_plan_offsets():
    # raw positive-part sequence (j - u)_+ for j = 0..4, u = 2
    excess = np.maximum(np.arange(5) - 2, 0)
    np.testing.assert_array_equal(excess, [0, 0, 0, 1, 2])
    plan = make_plan(1.0, 2, 0, 4, 64)
    np.testing.assert_allclose(plan, excess / 16.0)
    np.testing.assert_allclose(make_plan(1.0, (0, 2), 0, 4, 64),
                               [np.arange(5) / 16.0, excess / 16.0])


def test_make_plan_all_zero_above_j1():
    plan = make_plan(5.0, 7, 0, 5, 100)
    np.testing.assert_allclose(plan, 0.0)
    np.testing.assert_array_equal(make_plan(5.0, range(5, 9), 0, 5, 100), np.zeros((4, 6)))


def test_make_plan_errors():
    with pytest.raises(ValueError):
        make_plan(1.0, 0, 3, 2, 100)
    with pytest.raises(ValueError):
        make_plan(1.0, 0, 0, 3, 1)
    with pytest.raises(ValueError):
        make_plan(-1.0, 0, 0, 3, 100)


@settings(max_examples=50, deadline=None)
@given(rho=st.floats(1e-3, 1e3), tau=st.integers(0, 3), levels=st.integers(1, 12),
       n=st.integers(2, 10 ** 6))
def test_plan_invariants_enforced(rho, tau, levels, n):
    # valid by construction: finite, nonnegative, nondecreasing in the level,
    # zero at levels j <= u and positive above
    j1 = tau + levels - 1
    offsets = range(tau - 1, j1 + 2)
    plan = make_plan(rho, offsets, tau, j1, n)
    assert plan.shape == (len(offsets), levels)
    assert np.all(np.isfinite(plan)) and np.all(np.diff(plan, axis=1) >= 0.0)
    for u, row in zip(offsets, plan):
        assert np.array_equal(row > 0.0, np.arange(tau, j1 + 1) > u)


def expansion(beta_rows):
    return WaveletExpansion(0, np.concatenate([[1.0], *beta_rows]))


def test_flat_plan():
    # a level-independent row (the universal baseline's) thresholds every level
    e = expansion([[0.3], [0.4, -0.6], [0.1, -0.2, 0.25, 2.0]])
    out = threshold_expansion(e, np.full((1, 3), 0.25), ThresholdRule("hard"))
    assert out.alpha.shape == (1, 1)
    np.testing.assert_array_equal(out.alpha, [[1.0]])
    for got, want in zip(out.beta, [[[0.3]], [[0.4, -0.6]], [[0.0, 0.0, 0.25, 2.0]]]):
        np.testing.assert_array_equal(got, want)


def test_threshold_expansion_identity_on_zero_plan():
    e = expansion([[0.7], [0.4, -0.6]])
    plan = make_plan(1.0, 5, 0, 1, 100)  # u >= j1: all zero
    out = threshold_expansion(e, plan, ThresholdRule("hard"))
    np.testing.assert_array_equal(out.alpha, e.alpha)
    for got, want in zip(out.beta, e.beta):
        np.testing.assert_array_equal(got, want)


def test_threshold_expansion_rules():
    e = expansion([[0.0], [0.4, -0.6]])
    plan = np.array([0.0, 0.5])
    hard = threshold_expansion(e, plan, ThresholdRule("hard"))
    np.testing.assert_allclose(hard.beta[1], [0.0, -0.6])
    soft = threshold_expansion(e, plan, ThresholdRule("soft"))
    np.testing.assert_allclose(soft.beta[1], [0.0, -0.1])


def test_threshold_expansion_shape_mismatch():
    e = expansion([[0.0], [0.4, -0.6]])
    plan = make_plan(1.0, 0, 0, 3, 100)
    with pytest.raises(ValueError):
        threshold_expansion(e, plan, ThresholdRule("hard"))


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2 ** 16),
       kind=st.sampled_from(["hard", "soft", "garrote"]),
       u=st.integers(min_value=0, max_value=6))
def test_threshold_expansion_never_grows(seed, kind, u):
    rng = np.random.default_rng(seed)
    e = WaveletExpansion(0, rng.standard_normal(32))
    plan = make_plan(2.0, u, 0, 4, 64)
    out = threshold_expansion(e, plan, ThresholdRule(kind))
    np.testing.assert_array_equal(out.alpha, e.alpha)
    for got, want in zip(out.beta, e.beta):
        assert np.all(np.abs(got) <= np.abs(want) + 1e-12)


def signed_floats(**kw):
    """Floats with exact zeros of both signs mixed in."""
    return st.one_of(st.sampled_from([0.0, -0.0]), st.floats(allow_nan=False, **kw))


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from(["hard", "soft", "garrote"]),
       t=st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=5),
       x=st.lists(signed_floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=12))
def test_rule_with_a_column_of_thresholds_matches_scalar_calls(kind, t, x):
    rule, x = ThresholdRule(kind), np.array(x)
    column = np.array(t)[:, None]
    stacked = apply_rule(rule, column, x)
    assert stacked.shape == (len(t), len(x))
    for tj, row in zip(t, stacked):
        assert same_bits(row, apply_rule(rule, tj, x))
    # a matrix of rows against their own thresholds, as a level of a stack
    rows = np.tile(x, (len(t), 1))
    assert same_bits(apply_rule(rule, column, rows), stacked)


def test_rule_rejects_any_nonpositive_threshold_in_an_array():
    for bad in (0.0, -1.0, NAN):
        with pytest.raises(ValueError, match="threshold u must be positive"):
            apply_rule(ThresholdRule("soft"), np.array([[0.5], [bad]]), np.ones(3))


@pytest.mark.parametrize("kind", ["hard", "soft", "garrote"])
def test_stack_rows_match_per_row_thresholding(kind):
    rng = np.random.default_rng(5)
    beta = [rng.standard_normal(1 << j) for j in range(6)]
    beta[3][[0, 5]] = [0.0, -0.0]
    e = WaveletExpansion(0, np.concatenate([rng.standard_normal(1), *beta]))
    offsets = list(range(-1, 8))
    stack = threshold_expansion(e, make_plan(1.5, offsets, 0, 5, 64), ThresholdRule(kind))
    assert stack.alpha.shape == (len(offsets), 1)
    for r, u in enumerate(offsets):
        one = threshold_expansion(e, make_plan(1.5, u, 0, 5, 64), ThresholdRule(kind))
        assert same_bits(stack.alpha[r], one.alpha) and same_bits(stack.alpha[r], e.alpha)
        for got, want in zip(stack.beta, one.beta):
            assert same_bits(got[r], want)


def test_garrote_keeps_rows_with_zero_threshold_raw():
    # garrote at t = 0 would divide 0/0 at a zero coefficient; such rows never see the rule
    e = expansion([[0.0], [0.0, -0.6], [0.0, -0.0, 0.3, -2.0]])
    t = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.5], [0.0, 0.5, 0.5]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = threshold_expansion(e, t, ThresholdRule("garrote"))
    assert all(np.isfinite(row).all() for row in out.beta)
    for r in range(3):
        assert same_bits(out.beta[0][r], e.beta[0])
    assert same_bits(out.beta[1][:2], np.tile(e.beta[1], (2, 1)))
    assert same_bits(out.beta[2][0], e.beta[2])
    assert same_bits(out.beta[1][2], [0.0, -0.6 - 0.25 / -0.6])
    assert same_bits(out.beta[2][1:], np.tile([0.0, 0.0, 0.0, -2.0 - 0.25 / -2.0], (2, 1)))


def per_level_threshold(raw, t, rule):
    """Reference: the rule run level by level on the rows with t_j > 0, as separate arrays."""
    t = np.asarray(t, dtype=float)
    rows = t.shape[:-1]
    beta = []
    for tj, row in zip(t.T, raw.beta):
        out = np.broadcast_to(row, rows + row.shape).copy()
        on = tj > 0.0
        out[on] = apply_rule(rule, tj[on, None], row)
        beta.append(out)
    return np.concatenate([np.broadcast_to(raw.alpha, rows + raw.alpha.shape), *beta], axis=-1)


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(["hard", "soft", "garrote"]), tau=st.sampled_from([0, 2]),
       extra=st.integers(min_value=-1, max_value=6), rows=st.sampled_from([(), (1,), (5,)]),
       seed=st.integers(min_value=0, max_value=2 ** 16))
def test_one_pass_thresholding_matches_the_per_level_loop(kind, tau, extra, rows, seed):
    # bit for bit, with zero thresholds scattered, an all-zero row and column, and signed zeros
    rng = np.random.default_rng(seed)
    j_max = tau + extra
    coeffs = rng.standard_normal(1 << (j_max + 1))
    coeffs[rng.random(coeffs.size) < 0.2] = 0.0
    coeffs[rng.random(coeffs.size) < 0.2] = -0.0
    raw = WaveletExpansion(tau, coeffs)
    t = np.abs(rng.standard_normal(rows + (extra + 1,)))
    t[rng.random(t.shape) < 0.3] = 0.0
    if rows and extra >= 0:
        t[rng.integers(rows[0])] = 0.0
        t[..., rng.integers(extra + 1)] = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = threshold_expansion(raw, t, ThresholdRule(kind))
        want = per_level_threshold(raw, t, ThresholdRule(kind))
    assert same_bits(got.coeffs, want)


# ---------------------------------------------------------------------------
# Stability condition
# ---------------------------------------------------------------------------

def test_verify_ongle_certified_constants():
    # medium grid here; the acceptance suite runs the full step-0.01 grid
    for rule in RULES:
        report = verify_ongle(rule, (0.1, 0.5, 1.0, 2.0), 0.05, 10.0)
        assert report.passed, report.witness


def test_verify_ongle_rejects_zero_c1():
    rule = ThresholdRule("hard", c1=0.0, c2=2.0)
    report = verify_ongle(rule, (0.5, 1.0), 0.1, 10.0)
    assert not report.passed
    x, y, u, lhs, rhs = report.witness
    assert lhs > rhs


def test_verify_ongle_validates_range():
    with pytest.raises(ValueError):
        verify_ongle(RULES[0], (0.1, 2.0), 0.1, 5.0)  # range < 5 * max(u)
    with pytest.raises(ValueError):
        verify_ongle(RULES[0], (0.1,), -0.1, 10.0)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("u_grid,step,search_range,match", [
    ((), 0.1, 10.0, "nonempty 1-D grid"),
    (0.5, 0.1, 10.0, "nonempty 1-D grid"),
    ((NAN,), 0.1, 10.0, "positive finite thresholds"),
    ((0.1, NAN), 0.1, 10.0, "positive finite thresholds"),
    ((0.0,), 0.1, 10.0, "positive finite thresholds"),
    ((-1.0,), 0.1, 10.0, "positive finite thresholds"),
    ((INF,), 0.1, 10.0, "positive finite thresholds"),
    ((0.1,), NAN, 10.0, "grid step must be positive and finite"),
    ((0.1,), 0.0, 10.0, "grid step must be positive and finite"),
    ((0.1,), INF, 10.0, "grid step must be positive and finite"),
    ((0.1,), 0.1, NAN, "search range must be finite"),
    ((0.1,), 0.1, INF, "search range must be finite"),
    ((0.1,), 0.1, -10.0, "search range must be finite"),
])
def test_verify_ongle_rejects_grids_that_are_not_finite_and_positive(u_grid, step, search_range,
                                                                      match):
    # a NaN u once passed every point: all comparisons with NaN are False
    with pytest.raises(ValueError, match=match):
        verify_ongle(ThresholdRule("hard", 0.0, 0.0), u_grid, step, search_range)


def test_nan_thresholds_are_rejected_where_they_enter():
    rule = ThresholdRule("hard")
    with pytest.raises(ValueError, match="threshold u must be positive"):
        apply_rule(rule, NAN, np.array([0.5, 2.0]))
    for rho in (NAN, INF, 0.0):
        with pytest.raises(ValueError, match="rho must be positive and finite"):
            make_plan(rho, 1, 0, 3, 100)
    e = expansion([[0.7], [0.4, -0.6], [0.1, 0.2, 0.3, 0.4]])
    for bad in (NAN, INF, -0.1):
        for t in (np.array([0.1, 0.2, bad]), np.array([[0.0, 0.1, 0.2], [0.1, bad, 0.2]])):
            with pytest.raises(ValueError, match="threshold must be finite and nonnegative"):
                threshold_expansion(e, t, rule)


# ---------------------------------------------------------------------------
# Tiled stability scan against the 512-row block scan it replaced
# ---------------------------------------------------------------------------

def _block_verify_ongle(rule, u_grid, xy_grid_step, search_range):
    """The 512-row block scan, kept here as the reference for the tiled scan."""
    u_grid = np.asarray(u_grid, dtype=float)
    xs = np.arange(-search_range, search_range + xy_grid_step / 2.0, xy_grid_step)
    checked = 0
    block = 512
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
            np.multiply(diff, rule.c1, out=rhs)
            rhs *= diff
            rhs *= np.greater_equal(np.abs(diff, out=tmp), u / 2.0, out=mask[: len(diff)])
            rhs += min_term
            checked += lhs.size
            bad = np.greater(lhs, np.multiply(rhs, 1.0 + 1e-12, out=tmp), out=mask[: len(diff)])
            if bad.any():
                i, jj = np.argwhere(bad)[0]
                return OngleReport(
                    passed=False, rule_kind=rule.kind, c1=rule.c1, c2=rule.c2,
                    points_checked=checked,
                    witness=(float(xs[sl][i]), float(xs[jj]), float(u),
                             float(lhs[i, jj]), float(rhs[i, jj])),
                )
    return OngleReport(passed=True, rule_kind=rule.kind, c1=rule.c1, c2=rule.c2,
                       points_checked=checked)


U_GRID = (0.1, 0.5, 1.0, 2.0)


@pytest.mark.parametrize("rule,u_grid,step,failing_row", [
    # the certified defaults pass
    *[(rule, U_GRID, 0.05, None) for rule in RULES],
    # grid sizes 668 and 287: no multiple of the 64-row tile or the 512-row block
    (RULES[0], U_GRID, 0.03, None),
    (RULES[2], U_GRID, 0.07, None),
    # first block (the golden `check ongle --c1 0.5` failure), then a later block
    (ThresholdRule("hard", 0.5, 2.0), U_GRID, 0.01, 0),
    (ThresholdRule("hard", 2.0, 1.0), (1.0,), 0.01, 901),
    (ThresholdRule("hard", 2.0, 1.0), U_GRID, 0.01, 1010),
    (ThresholdRule("hard", 2.0, 1.0), (1.0,), 0.03, 301),
    # a later u; the step-0.5 grid puts |x - y| exactly on the band edge u/2
    (ThresholdRule("soft", 6.0, 0.5), U_GRID, 0.05, 3),
    (ThresholdRule("garrote", 6.0, 0.5), U_GRID, 0.07, 134),
    (ThresholdRule("hard", 1.0, 0.0), (0.1, 1.0), 0.5, 19),
    # c1 = 0
    (ThresholdRule("hard", 0.0, 2.0), (0.5, 1.0), 0.1, 0),
    (ThresholdRule("soft", 0.0, 0.0), (0.1,), 0.03, 0),
])
def test_tiled_scan_reports_as_the_block_scan(rule, u_grid, step, failing_row):
    report = verify_ongle(rule, u_grid, step, 10.0)
    assert report == _block_verify_ongle(rule, u_grid, step, 10.0)
    assert report.passed == (failing_row is None)
    if failing_row is not None:
        assert report.witness[0] == np.arange(-10.0, 10.0 + step / 2.0, step)[failing_row]


def test_points_checked_is_an_int_whatever_the_verdict():
    # the golden `check ongle --rule hard --c1 0.5` failure, and a passing default
    failing = verify_ongle(ThresholdRule("hard", 0.5, 2.0), U_GRID, 0.01, 10.0)
    passing = verify_ongle(ThresholdRule("hard"), U_GRID, 0.05, 10.0)
    assert not failing.passed and failing.points_checked == 1024512
    assert passing.passed
    assert type(failing.points_checked) is int and type(passing.points_checked) is int


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["hard", "soft", "garrote"]),
       c1=st.floats(0.0, 10.0), c2=st.floats(0.0, 3.0),
       step=st.sampled_from([0.05, 0.07, 0.1, 0.13, 0.25, 0.5]))
def test_tiled_scan_reports_as_the_block_scan_property(kind, c1, c2, step):
    rule = ThresholdRule(kind, c1, c2)
    assert verify_ongle(rule, U_GRID, step, 10.0) == _block_verify_ongle(rule, U_GRID, step, 10.0)


# witnesses in the band |x - y| < u/2, where the column bound counts no c1 |x - y|^2 term.
# With 64-row tiles: y outside the witness's tile (rows 518, 727), the first row of a tile with
# y in the tile before (128), the last row of a tile (127), and |x - y| one rounding below the
# band edge u/2 in rows past 900
@pytest.mark.parametrize("rule,u_grid,step,failing_row", [
    (ThresholdRule("soft", 1.5, 1.0), (1.0,), 0.01, 23),
    (ThresholdRule("garrote", 2.0, 0.5), (1.0,), 0.01, 518),
    (ThresholdRule("garrote", 1.5, 0.5), U_GRID, 0.01, 912),
    (ThresholdRule("garrote", 3.0, 0.5), U_GRID, 0.01, 973),
    (ThresholdRule("hard", 6.0, 0.5), U_GRID, 0.01, 991),
    (ThresholdRule("hard", 2.0, 1.0), U_GRID, 0.01, 1010),
    (ThresholdRule("garrote", 3.0, 0.5), (1.0,), 0.01, 727),
    (ThresholdRule("garrote", 2.0, 1.0), (1.0,), 0.07, 128),
    (ThresholdRule("garrote", 3.0, 0.5), (0.5,), 0.07, 127),
])
def test_column_bound_keeps_witnesses_in_the_band(rule, u_grid, step, failing_row):
    report = verify_ongle(rule, u_grid, step, 10.0)
    assert report == _block_verify_ongle(rule, u_grid, step, 10.0)
    x, y, u, _, _ = report.witness
    assert abs(x - y) < u / 2.0
    assert x == np.arange(-10.0, 10.0 + step / 2.0, step)[failing_row]


@settings(max_examples=50, deadline=None)
@given(u_grid=st.lists(st.floats(0.0, 2.0, exclude_min=True), min_size=1, max_size=4),
       kind=st.sampled_from(["hard", "soft", "garrote"]),
       c1=st.floats(0.0, 10.0), c2=st.floats(0.0, 3.0), step=st.floats(0.01, 0.5))
def test_column_bound_clears_no_failing_pair(u_grid, kind, c1, c2, step):
    # random thresholds, failing constants (c1 < 1) included, and grids that end in a part tile
    rule = ThresholdRule(kind, c1, c2)
    assert verify_ongle(rule, u_grid, step, 10.0) == _block_verify_ongle(rule, u_grid, step, 10.0)


@pytest.mark.parametrize("rule", [ThresholdRule("hard", 1e307), ThresholdRule("hard", 1e307, 0.0)],
                         ids=["default-c2", "c2-zero"])
def test_huge_c1_overflows_without_a_warning(rule):
    # c1 |x - y|^2 (and with c2 > 0 its sum with the min term) overflows to inf, which passes
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        report = verify_ongle(rule, U_GRID, 0.01, 10.0)
    with np.errstate(over="ignore"):
        assert report == _block_verify_ongle(rule, U_GRID, 0.01, 10.0)
    assert report.passed == (rule.c2 > 0.0)


def test_verify_ongle_working_set_stays_in_cache():
    # the 512-row block scan held about 33 MB of work arrays on this grid
    tracemalloc.start()
    try:
        report = verify_ongle(RULES[0], U_GRID, 0.01, 10.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak < 2_000_000
