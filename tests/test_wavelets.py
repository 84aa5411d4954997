"""Wavelet family construction, periodized evaluation, norms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multithresh.wavelets import (
    SUPPORTED_FAMILIES,
    WaveletExpansion,
    analyze,
    build_family,
    eval_periodized,
    midpoint_grid,
    synthesize_at,
)

SQRT2 = math.sqrt(2.0)


@pytest.fixture(scope="module")
def haar():
    return build_family("Haar", 12)


@pytest.fixture(scope="module")
def db4():
    return build_family("Daubechies4", 12)


def random_expansion(rng, tau, j_max, scale=1.0):
    return WaveletExpansion(
        tau, j_max,
        scale * rng.standard_normal(1 << tau),
        [scale * rng.standard_normal(1 << j) for j in range(tau, j_max + 1)],
    )


# ---------------------------------------------------------------------------
# Families
# ---------------------------------------------------------------------------

def test_haar_family(haar):
    assert haar.tau == 0
    assert haar.support_width == 1
    assert haar.psi_sup == 1.0
    np.testing.assert_allclose(haar.lowpass, [1 / SQRT2, 1 / SQRT2], atol=1e-15)


def test_daubechies4_family(db4):
    # support of the 4-tap scaling function is [0, 3]; tau is the smallest
    # level whose period covers one support
    assert db4.support_width == 3
    assert db4.tau == 2
    assert db4.regularity == 2
    assert len(db4.phi_table) == 3 * 2 ** 12 + 1
    assert db4.psi_sup >= np.abs(db4.psi_table).max()


@pytest.mark.parametrize("name", SUPPORTED_FAMILIES)
def test_filter_invariants(name):
    fam = build_family(name, 8)
    h = fam.lowpass
    assert abs(h.sum() - SQRT2) < 1e-12
    L = len(h)
    for m in range(L // 2):
        ip = float(np.dot(h[: L - 2 * m], h[2 * m:]))
        assert abs(ip - (1.0 if m == 0 else 0.0)) < 1e-12


def test_build_family_errors():
    with pytest.raises(ValueError):
        build_family("Daubechies3", 12)
    with pytest.raises(ValueError):
        build_family("Coiflet2", 12)
    with pytest.raises(ValueError):
        build_family("Daubechies4", 3)
    with pytest.raises(ValueError):
        build_family("Daubechies4", 21)
    build_family("Daubechies4", 6)  # boundary depth is allowed
    build_family("Daubechies4", 20)


# ---------------------------------------------------------------------------
# Periodized evaluation
# ---------------------------------------------------------------------------

def test_eval_periodized_haar_values(haar):
    assert eval_periodized(haar, "wavelet", 1, 0, 0.2) == pytest.approx(SQRT2, abs=1e-15)
    assert eval_periodized(haar, "wavelet", 1, 1, 0.9) == pytest.approx(-SQRT2, abs=1e-15)
    for x in [0.0, 0.3, 0.77, 1.0]:
        assert eval_periodized(haar, "scaling", 0, 0, x) == pytest.approx(1.0)


def test_eval_periodized_index_errors(haar, db4):
    with pytest.raises(ValueError):
        eval_periodized(haar, "wavelet", 1, 2, 0.5)  # k out of range
    with pytest.raises(ValueError):
        eval_periodized(haar, "wavelet", 1, -1, 0.5)
    with pytest.raises(ValueError):
        eval_periodized(db4, "wavelet", 1, 0, 0.5)  # below tau
    with pytest.raises(ValueError):
        eval_periodized(haar, "scaling", 1, 0, 0.5)  # scaling only at tau
    with pytest.raises(ValueError):
        eval_periodized(haar, "bogus", 1, 0, 0.5)


def test_eval_periodized_is_periodic(haar, db4):
    # the lattice-sum definition gives the same value at x and x + 1
    x = np.linspace(0.0, 1.0, 91)
    for fam, j, k in [(haar, 3, 5), (db4, 3, 2), (db4, 2, 1)]:
        a = eval_periodized(fam, "wavelet", j, k, x)
        b = eval_periodized(fam, "wavelet", j, k, x + 1.0)
        np.testing.assert_allclose(a, b, atol=1e-12)


def test_eval_periodized_wraps(db4):
    # near x = 1 the support wraps around the circle; the direct lattice sum
    # over integer shifts must agree with the modular evaluation
    j, k = 2, 3
    xs = np.linspace(0.9, 1.0, 17)
    direct = np.zeros_like(xs)
    from multithresh.wavelets import _base_eval

    for shift in range(-2, 3):
        direct += _base_eval(db4, "wavelet", (1 << j) * (xs - shift) - k)
    direct *= 2.0 ** (j / 2.0)
    np.testing.assert_allclose(
        eval_periodized(db4, "wavelet", j, k, xs), direct, atol=1e-12
    )


def test_db4_numerical_orthonormality(db4):
    # all periodized pairs up to level 3 on a 2^14 midpoint grid
    grid = midpoint_grid(2 ** 14)
    rows = [eval_periodized(db4, "scaling", 2, k, grid) for k in range(4)]
    for j in range(2, 4):
        rows += [eval_periodized(db4, "wavelet", j, k, grid) for k in range(1 << j)]
    V = np.array(rows)
    gram = V @ V.T / len(grid)
    np.testing.assert_allclose(gram, np.eye(len(rows)), atol=1e-3)


# ---------------------------------------------------------------------------
# Synthesis and analysis
# ---------------------------------------------------------------------------

def test_synthesize_constant(haar):
    e = WaveletExpansion(0, -1, np.array([1.0]), [])
    grid = np.linspace(0, 1, 33)
    np.testing.assert_allclose(synthesize_at(haar, e, grid), 1.0)


def test_synthesize_haar_mother(haar):
    e = WaveletExpansion(0, 0, np.array([0.0]), [np.array([1.0])])
    vals = synthesize_at(haar, e, np.array([0.75, 0.25]))
    np.testing.assert_allclose(vals, [-1.0, 1.0])


def test_haar_round_trip_exact(haar):
    # analysis on a dyadic grid that resolves all levels inverts synthesis
    rng = np.random.default_rng(7)
    for j_max in [0, 3, 6, 10]:
        e = random_expansion(rng, 0, j_max)
        values = synthesize_at(haar, e, midpoint_grid(2 ** 12))
        back = analyze(haar, values, j_max, 2 ** 12)
        np.testing.assert_allclose(back.alpha, e.alpha, atol=1e-12)
        for got, want in zip(back.beta, e.beta):
            np.testing.assert_allclose(got, want, atol=1e-12)


def test_db4_round_trip_quadrature(db4):
    rng = np.random.default_rng(11)
    e = random_expansion(rng, 2, 4)
    values = synthesize_at(db4, e, midpoint_grid(2 ** 14))
    back = analyze(db4, values, 4, 2 ** 14)
    np.testing.assert_allclose(back.alpha, e.alpha, atol=1e-3)
    for got, want in zip(back.beta, e.beta):
        np.testing.assert_allclose(got, want, atol=1e-3)


def test_analyze_accepts_callable(haar):
    e = analyze(haar, lambda x: np.ones_like(x), 2, 2 ** 10)
    np.testing.assert_allclose(e.alpha, [1.0], atol=1e-14)
    for row in e.beta:
        np.testing.assert_allclose(row, 0.0, atol=1e-14)


# ---------------------------------------------------------------------------
# Expansion invariants
# ---------------------------------------------------------------------------

def test_expansion_validation():
    with pytest.raises(ValueError):
        WaveletExpansion(0, 1, np.array([1.0]), [np.array([1.0])])  # missing row
    with pytest.raises(ValueError):
        WaveletExpansion(0, 0, np.array([1.0, 2.0]), [np.array([1.0])])  # alpha size
    with pytest.raises(ValueError):
        WaveletExpansion(0, 1, np.array([1.0]), [np.array([1.0]), np.array([1.0])])
    with pytest.raises(ValueError):
        WaveletExpansion(0, 0, np.array([np.nan]), [np.array([1.0])])


# ---------------------------------------------------------------------------
# Parseval identity and adjointness
# ---------------------------------------------------------------------------

def coefficient_norm(e):
    """l2 norm of all coefficients of an expansion."""
    return math.sqrt(float(np.sum(e.alpha ** 2)) + sum(float(np.sum(r ** 2)) for r in e.beta))


def test_parseval_pythagoras(haar):
    # 3 phi + 4 psi is 7 on [0, 1/2) and -1 on [1/2, 1): L2 norm 5
    e = WaveletExpansion(0, 0, np.array([3.0]), [np.array([4.0])])
    vals = synthesize_at(haar, e, midpoint_grid(2 ** 4))
    assert coefficient_norm(e) == pytest.approx(5.0)
    assert math.sqrt(float(np.mean(vals ** 2))) == pytest.approx(5.0, rel=1e-15)


def test_parseval_matches_quadrature(haar):
    rng = np.random.default_rng(3)
    e = random_expansion(rng, 0, 6)
    vals = synthesize_at(haar, e, midpoint_grid(2 ** 14))
    quad = math.sqrt(float(np.mean(vals ** 2)))
    assert abs(coefficient_norm(e) - quad) < 1e-6


def test_parseval_level_additivity(haar):
    # levels are orthogonal: the energy of the series is the sum of the
    # energies of its scaling part and of each wavelet level
    rng = np.random.default_rng(5)
    e = random_expansion(rng, 0, 5)
    grid = midpoint_grid(2 ** 14)
    rows = [e.alpha] + e.beta
    energies = []
    for i in range(len(rows)):
        only = [row if k == i else np.zeros_like(row) for k, row in enumerate(rows)]
        part = synthesize_at(haar, WaveletExpansion(0, 5, only[0], only[1:]), grid)
        energies.append(float(np.mean(part ** 2)))
    total = float(np.mean(synthesize_at(haar, e, grid) ** 2))
    assert total == pytest.approx(sum(energies), rel=1e-12)
    assert total == pytest.approx(coefficient_norm(e) ** 2, rel=1e-12)


FAMILIES = {name: build_family(name, 12) for name in SUPPORTED_FAMILIES}


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(SUPPORTED_FAMILIES),
    extra=st.integers(min_value=-1, max_value=4),
    seed=st.integers(min_value=0, max_value=2 ** 16),
)
def test_synthesis_analysis_adjoint(name, extra, seed):
    # mean(synthesize(c) * g) = <c, analyze(g)> on the midpoint grid, up to
    # rounding, because both directions gather through the same stencil
    family = FAMILIES[name]
    rng = np.random.default_rng(seed)
    e = random_expansion(rng, family.tau, family.tau + extra)
    grid = midpoint_grid(2 ** 10)
    g = rng.standard_normal(len(grid))
    lhs = float(np.mean(synthesize_at(family, e, grid) * g))
    a = analyze(family, g, e.j_max, 2 ** 10)
    rhs = float(e.alpha @ a.alpha) + sum(float(c @ b) for c, b in zip(e.beta, a.beta))
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)
