"""Thresholding rules, plans, and the quadratic stability condition."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multithresh.thresholding import (
    ThresholdPlan,
    ThresholdRule,
    apply_rule,
    flat_plan,
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


def test_make_plan_values():
    plan = make_plan(2.0, 3, 0, 5, 100)
    np.testing.assert_allclose(plan.t, [0.0, 0.0, 0.0, 0.0, 0.1, 0.2])
    assert plan.threshold_at(4) == pytest.approx(2.0 * 1 / (2 * 10))


def test_make_plan_offsets():
    # raw positive-part sequence (j - u)_+ for j = 0..4, u = 2
    excess = np.maximum(np.arange(5) - 2, 0)
    np.testing.assert_array_equal(excess, [0, 0, 0, 1, 2])
    plan = make_plan(1.0, 2, 0, 4, 64)
    np.testing.assert_allclose(plan.t, excess / 16.0)


def test_make_plan_all_zero_above_j1():
    plan = make_plan(5.0, 7, 0, 5, 100)
    np.testing.assert_allclose(plan.t, 0.0)


def test_make_plan_errors():
    with pytest.raises(ValueError):
        make_plan(1.0, 0, 3, 2, 100)
    with pytest.raises(ValueError):
        make_plan(1.0, 0, 0, 3, 1)
    with pytest.raises(ValueError):
        make_plan(-1.0, 0, 0, 3, 100)


def test_plan_invariants_enforced():
    with pytest.raises(ValueError):
        ThresholdPlan(u=2, rho=1.0, tau=0, j1=2, n=16, t=np.array([0.0, 0.1, 0.2]))
    with pytest.raises(ValueError):
        ThresholdPlan(u=-1, rho=1.0, tau=0, j1=2, n=16, t=np.array([0.3, 0.2, 0.1]))


def test_flat_plan():
    plan = flat_plan(0.25, 0, 4, 100)
    np.testing.assert_allclose(plan.t, 0.25)
    assert plan.u == -1


def expansion(beta_rows):
    j_max = len(beta_rows) - 1
    return WaveletExpansion(0, j_max, np.array([1.0]),
                            [np.asarray(r, dtype=float) for r in beta_rows])


def test_threshold_expansion_identity_on_zero_plan():
    e = expansion([[0.7], [0.4, -0.6]])
    plan = make_plan(1.0, 5, 0, 1, 100)  # u >= j1: all zero
    out = threshold_expansion(e, plan, ThresholdRule("hard"))
    np.testing.assert_array_equal(out.alpha, e.alpha)
    for got, want in zip(out.beta, e.beta):
        np.testing.assert_array_equal(got, want)


def test_threshold_expansion_rules():
    e = expansion([[0.0], [0.4, -0.6]])
    plan = ThresholdPlan(u=0, rho=1.0, tau=0, j1=1, n=16, t=np.array([0.0, 0.5]))
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
    e = WaveletExpansion(0, 4, rng.standard_normal(1),
                         [rng.standard_normal(1 << j) for j in range(5)])
    plan = make_plan(2.0, u, 0, 4, 64)
    out = threshold_expansion(e, plan, ThresholdRule(kind))
    np.testing.assert_array_equal(out.alpha, e.alpha)
    for got, want in zip(out.beta, e.beta):
        assert np.all(np.abs(got) <= np.abs(want) + 1e-12)


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
