"""Wavelet family construction, periodized evaluation, norms."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multithresh.coefficients import j1_level
from multithresh.wavelets import (
    SUPPORTED_FAMILIES,
    WaveletExpansion,
    _lerp,
    analyze,
    analyze_points,
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
    return WaveletExpansion(tau, scale * rng.standard_normal(1 << (j_max + 1)))


# ---------------------------------------------------------------------------
# Reference stencil: mod and floor at each level, the generator masked to its
# support. The package's stencil (integer positions, unmasked interpolation)
# must give bit for bit the same synthesis, analysis and grid tables.
# ---------------------------------------------------------------------------

def ref_base_eval(family, kind, z):
    """The unscaled generator at z; zero outside [0, support_width]."""
    if family.is_haar:
        if kind == "scaling":
            return np.where((z >= 0.0) & (z < 1.0), 1.0, 0.0)
        return np.where(
            (z >= 0.0) & (z < 0.5), 1.0,
            np.where((z >= 0.5) & (z < 1.0), -1.0, 0.0),
        )
    out = np.zeros_like(z, dtype=float)
    ok = (z >= 0.0) & (z <= family.support_width)
    out[ok] = _lerp(family, kind, z[ok])
    return out


def ref_stencil(family, kind, j, x):
    """Yield (shift indices, generator values) of the level-j translates meeting x."""
    two_j = 1 << j
    t = two_j * np.mod(x, 1.0)
    kb = np.floor(t).astype(np.int64)
    frac = t - kb
    for m in range(family.support_width):
        yield np.mod(kb - m, two_j), ref_base_eval(family, kind, frac + m)


def ref_level_synth(family, kind, j, coeffs, x):
    out = np.zeros(coeffs.shape[:-1] + np.shape(x))
    for idx, vals in ref_stencil(family, kind, j, x):
        out += coeffs[..., idx] * vals
    out *= 2.0 ** (j / 2.0)
    return out


def stack_of(expansions):
    """One expansion whose rows are the given expansions, which share their levels."""
    first = expansions[0]
    return WaveletExpansion(first.tau, np.array([e.coeffs for e in expansions]))


def ref_synth(family, expansions, x):
    """Row r is the series of ``expansions[r]`` at x, every level through ``ref_stencil``."""
    first = expansions[0]
    out = ref_level_synth(family, "scaling", first.tau, np.array([e.alpha for e in expansions]), x)
    for i, j in enumerate(first.levels()):
        out += ref_level_synth(family, "wavelet", j, np.array([e.beta[i] for e in expansions]), x)
    return out


def ref_analysis(family, x, weights, j_max, n):
    """Per-level rows of (1/n) sum_i w_i basis_{j,k}(x_i), one bincount per reference shift."""
    rows = []
    levels = [("scaling", family.tau)] + [("wavelet", j) for j in range(family.tau, j_max + 1)]
    for kind, j in levels:
        sums = np.zeros(1 << j)
        for idx, vals in ref_stencil(family, kind, j, x):
            if weights is not None:
                vals = vals * weights
            sums += np.bincount(idx, weights=vals, minlength=1 << j)
        rows.append(2.0 ** (j / 2.0) * sums / n)
    return rows


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


# ---------------------------------------------------------------------------
# Families
# ---------------------------------------------------------------------------

def test_haar_family(haar):
    assert haar.tau == 0
    assert haar.support_width == 1
    assert haar.psi_sup == 1.0
    assert haar.phi_table is None and haar.psi_table is None
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


def test_haar_solves_no_eigenproblem(monkeypatch):
    # Haar is evaluated in closed form and reads no cascade table, so it
    # needs no LAPACK call; its depth is still range-checked and ignored
    def no_eig(*args, **kwargs):
        raise AssertionError("np.linalg.eig called")

    monkeypatch.setattr(np.linalg, "eig", no_eig)
    for name in ("Haar", "Daubechies2"):
        for depth in (6, 20):
            family = build_family(name, depth)
            assert family.phi_table is None and family.psi_table is None
            assert family.psi_sup == 1.0
        with pytest.raises(ValueError, match="cascade_depth"):
            build_family(name, 21)
    with pytest.raises(AssertionError, match="eig"):
        build_family("Daubechies4", 12)


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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_eval_periodized_rejects_non_finite_points(haar, db4, bad):
    for family in (haar, db4):
        for kind in ("scaling", "wavelet"):
            for x in (bad, np.array([0.3, bad])):
                with pytest.raises(ValueError, match="points must be finite"):
                    eval_periodized(family, kind, family.tau, 0, x)


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
    for shift in range(-2, 3):
        direct += ref_base_eval(db4, "wavelet", (1 << j) * (xs - shift) - k)
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
    e = WaveletExpansion(0, np.array([1.0]))
    grid = np.linspace(0, 1, 33)
    np.testing.assert_allclose(synthesize_at(haar, e, grid), 1.0)


def test_synthesize_haar_mother(haar):
    e = WaveletExpansion(0, np.array([0.0, 1.0]))
    vals = synthesize_at(haar, e, np.array([0.75, 0.25]))
    np.testing.assert_allclose(vals, [-1.0, 1.0])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_synthesis_rejects_non_finite_points(haar, db4, bad):
    rng = np.random.default_rng(3)
    for family in (haar, db4):
        e = random_expansion(rng, family.tau, 4)
        with pytest.raises(ValueError, match="finite"):
            synthesize_at(family, e, np.array([0.3, bad]))
        with pytest.raises(ValueError, match="finite"):
            synthesize_at(family, stack_of([e, e]), np.array([bad]))
        # finite points outside [0, 1] stay valid: the series is 1-periodic
        np.testing.assert_array_equal(synthesize_at(family, e, [1.25, -0.75]),
                                      synthesize_at(family, e, [0.25, 0.25]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_analysis_rejects_non_finite_points_and_weights(haar, db4, bad):
    for family in (haar, db4):
        with pytest.raises(ValueError, match="points must be finite"):
            analyze_points(family, [0.1, 0.5, bad], None, 4, 3)
        with pytest.raises(ValueError, match="weights must be finite"):
            analyze_points(family, np.array([0.1, 0.5, 0.9]), np.array([1.0, bad, 1.0]), 4, 3)


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
    # one pyramid-ordered block: a power of two of at least 2^tau entries
    for coeffs in (np.ones(3), np.ones(6), np.ones((2, 3))):
        with pytest.raises(ValueError, match="power of two"):
            WaveletExpansion(0, coeffs)
    with pytest.raises(ValueError, match="at least 2\\^tau = 4"):
        WaveletExpansion(2, np.ones(2))
    for coeffs in (np.ones((2, 3, 4)), np.float64(1.0), np.ones(0)):  # two row axes, 0-d, empty
        with pytest.raises(ValueError):
            WaveletExpansion(0, coeffs)
    for bad in (np.nan, np.inf, -np.inf):
        stack = np.ones((3, 4))
        stack[2, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            WaveletExpansion(0, stack)
    assert WaveletExpansion(2, np.ones(4)).j_max == 1  # pure scaling: j_max = tau - 1
    e = WaveletExpansion(2, np.arange(24.0).reshape(3, 8))
    assert (e.j_max, e.alpha.shape, [b.shape for b in e.beta]) == (2, (3, 4), [(3, 4)])


@settings(max_examples=60, deadline=None)
@given(data=st.data(), tau=st.integers(min_value=0, max_value=4),
       rows=st.sampled_from([(), (3,)]), seed=st.integers(min_value=0, max_value=2 ** 16))
def test_expansion_views_tile_the_pyramid_block(data, tau, rows, seed):
    j_max = data.draw(st.integers(min_value=tau - 1, max_value=10))
    coeffs = np.random.default_rng(seed).standard_normal(rows + (1 << (j_max + 1),))
    e = WaveletExpansion(tau, coeffs)
    assert e.j_max == j_max and list(e.levels()) == list(range(tau, j_max + 1))
    assert same_bits(np.concatenate([e.alpha, *e.beta], -1), e.coeffs)
    assert all(np.shares_memory(view, e.coeffs) for view in [e.alpha, *e.beta])
    assert [b.shape[-1] for b in e.beta] == [1 << j for j in e.levels()]


@pytest.mark.parametrize("name, j_max", [("Daubechies4", 0), ("Daubechies4", -5), ("Haar", -2)])
def test_analysis_rejects_j_max_below_tau_minus_one(name, j_max):
    family = FAMILIES[name]
    match = f"j_max = {j_max} below tau - 1 = {family.tau - 1}"
    with pytest.raises(ValueError, match=match):
        analyze_points(family, np.array([0.1, 0.5, 0.9]), None, j_max, 3)
    with pytest.raises(ValueError, match=match):
        analyze(family, lambda x: np.ones_like(x), j_max, 2 ** 10)
    # the coarsest level allowed is the pure scaling block
    scaling_only = analyze_points(family, np.array([0.1, 0.5]), None, family.tau - 1, 2)
    assert scaling_only.j_max == family.tau - 1


# ---------------------------------------------------------------------------
# Parseval identity and adjointness
# ---------------------------------------------------------------------------

def coefficient_norm(e):
    """l2 norm of all coefficients of an expansion."""
    return math.sqrt(float(np.sum(e.alpha ** 2)) + sum(float(np.sum(r ** 2)) for r in e.beta))


def test_parseval_pythagoras(haar):
    # 3 phi + 4 psi is 7 on [0, 1/2) and -1 on [1/2, 1): L2 norm 5
    e = WaveletExpansion(0, np.array([3.0, 4.0]))
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
        part = synthesize_at(haar, WaveletExpansion(0, np.concatenate(only)), grid)
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


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(SUPPORTED_FAMILIES),
    extra=st.integers(min_value=-1, max_value=5),
    seed=st.integers(min_value=0, max_value=2 ** 16),
    x=st.lists(st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0])),
               min_size=1, max_size=40),
    repeats=st.integers(min_value=0, max_value=40),
)
def test_synthesis_analysis_adjoint_at_points(name, extra, seed, x, repeats):
    # sum_i w_i (S e)(x_i) = n <e, analyze_points(x, w)> at arbitrary points,
    # repeated ones and the endpoints included
    family = FAMILIES[name]
    rng = np.random.default_rng(seed)
    e = random_expansion(rng, family.tau, family.tau + extra)
    x = np.array(x + x[:repeats])
    w = rng.standard_normal(x.size)
    terms = w * synthesize_at(family, e, x)
    a = analyze_points(family, x, w, e.j_max, x.size)
    rhs = x.size * (float(e.alpha @ a.alpha) + sum(float(c @ b) for c, b in zip(e.beta, a.beta)))
    assert abs(float(terms.sum()) - rhs) <= 1e-12 * float(np.abs(terms).sum())


# ---------------------------------------------------------------------------
# Synthesis, grid tables and analysis against the reference stencil
# ---------------------------------------------------------------------------

def edge_points(rng, j_max):
    """Random points, dyadic points at the finest level and their neighbours, edges, wraps."""
    top = 1 << (j_max + 1)
    dyadic = rng.integers(0, top + 1, 64) / top
    return np.concatenate([rng.uniform(size=500), dyadic, np.nextafter(dyadic, -1.0),
                           np.nextafter(dyadic, 2.0),
                           [0.0, 0.5, 1.0 - 2.0 ** -53, 1.0, -1e-20, -0.75, 1.25]])


def unit(size, k):
    coeffs = np.zeros(size)
    coeffs[k] = 1.0
    return coeffs


@pytest.mark.parametrize("name", SUPPORTED_FAMILIES)
def test_eval_periodized_matches_masked_reference_at_cell_boundaries(name):
    # at every cell edge and midpoint of level j and both neighbours of each: bit for bit the
    # reference synthesis of the unit coefficient e_k, and within 1e-12 of the generator at
    # (2^j x - k) mod 2^j masked to [0, support_width], which misses the wrap point x < 0
    family = FAMILIES[name]
    for j in range(family.tau, family.tau + 4):
        cells = np.arange(1 << j)
        edges = np.concatenate([cells / (1 << j), (cells + 0.5) / (1 << j)])
        x = np.concatenate([edges, np.nextafter(edges, -1.0), np.nextafter(edges, 2.0),
                            [0.0, 1.0, -1e-20, 1.25]])
        kinds = ("scaling", "wavelet") if j == family.tau else ("wavelet",)
        for kind in kinds:
            for k in range(1 << j):
                got = eval_periodized(family, kind, j, k, x)
                assert same_bits(got, ref_level_synth(family, kind, j, unit(1 << j, k), x)), \
                    (kind, j, k)
                z = np.mod((1 << j) * x - k, 1 << j)
                lattice = 2.0 ** (j / 2.0) * ref_base_eval(family, kind, z)
                np.testing.assert_allclose(got[x >= 0], lattice[x >= 0], rtol=0, atol=1e-12)


def test_eval_periodized_at_the_wrap_point():
    # x mod 1 rounds a tiny negative x to 1.0, which lies in the cell of x = 0
    wrap = np.array([-1e-20, np.nextafter(0.0, -1.0)])
    assert eval_periodized(FAMILIES["Haar"], "scaling", 0, 0, wrap).tolist() == [1.0, 1.0]
    for family in FAMILIES.values():
        shifts = range(1 << family.tau)
        at_zero = sum(eval_periodized(family, "scaling", family.tau, k, 0.0) for k in shifts)
        at_wrap = sum(eval_periodized(family, "scaling", family.tau, k, wrap) for k in shifts)
        assert at_wrap.tolist() == [at_zero, at_zero] != [0.0, 0.0], family.name


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(SUPPORTED_FAMILIES),
    extra=st.integers(min_value=0, max_value=3),
    scaling=st.booleans(),
    shift=st.integers(min_value=0, max_value=2 ** 7 - 1),
    seed=st.integers(min_value=0, max_value=2 ** 16),
)
def test_eval_periodized_is_synthesis_of_a_unit_coefficient(name, extra, scaling, shift, seed):
    # the basis function phi/psi_{j,k} is the series whose one coefficient is 1 at (j, k), bit
    # for bit, at edges and wraps, on (rows, n) chunks, on random point sets of one fewer, as
    # many and one more points than the 2^(j+1) cells (Haar takes each point's cell at every
    # size), and on midpoint grids with and without tables
    family = FAMILIES[name]
    kind = "scaling" if scaling else "wavelet"
    j = family.tau if scaling else family.tau + extra
    k = shift % (1 << j)
    block = unit(1 << j, k) if scaling else unit(2 << j, (1 << j) + k)
    expansion = WaveletExpansion(family.tau, block)
    rng = np.random.default_rng(seed)
    edges = edge_points(rng, j)
    cells = 2 << j
    xs = [edges, rng.choice(edges, (3, 40)), midpoint_grid(2 ** 10), midpoint_grid(1000)]
    xs += [rng.choice(edges, size) for size in (cells - 1, cells, cells + 1)]
    for x in xs:
        got = eval_periodized(family, kind, j, k, x)
        assert same_bits(got, synthesize_at(family, expansion, x)), (kind, j, k, x.shape)


@pytest.mark.parametrize("name", SUPPORTED_FAMILIES)
def test_synthesis_at_points_matches_reference_stencil(name):
    family = FAMILIES[name]
    rng = np.random.default_rng(17)
    for j_max in sorted({family.tau - 1, family.tau, family.tau + 3, 10}):
        es = [random_expansion(rng, family.tau, j_max) for _ in range(3)]
        x = edge_points(rng, j_max)
        assert same_bits(synthesize_at(family, es[0], x), ref_synth(family, es[:1], x)[0])
        assert same_bits(synthesize_at(family, stack_of(es), x), ref_synth(family, es, x))
        x2 = x[:600].reshape(20, 30)
        assert same_bits(synthesize_at(family, stack_of(es), x2), ref_synth(family, es, x2))


@pytest.mark.parametrize("name", ["Haar", "Daubechies4", "Daubechies8"])
def test_stack_synthesis_matches_per_row_synthesis(name):
    # rows + x.shape, each row with the bits of its own synthesis: at points, on grids
    # with and without tables, and with -0.0 and zero rows in the stack
    family = FAMILIES[name]
    rng = np.random.default_rng(29)
    for j_max in (family.tau - 1, family.tau + 2, 10):
        es = [random_expansion(rng, family.tau, j_max) for _ in range(4)]
        es[1].alpha[:] = -0.0
        for row in es[2].beta:
            row[:] = 0.0
        stack = stack_of(es)
        for x in (edge_points(rng, j_max), midpoint_grid(2 ** 12), midpoint_grid(2 ** 7),
                  midpoint_grid(1000), edge_points(rng, j_max)[:60].reshape(3, 4, 5)):
            values = synthesize_at(family, stack, x)
            # C order: a Fortran-ordered stack would sum its row means in another order
            assert values.shape == (len(es),) + x.shape and values.flags.c_contiguous
            for e, got in zip(es, values):
                assert same_bits(got, synthesize_at(family, e, x))


def test_daubechies_stack_on_the_grid_peaks_below_one_and_a_half_outputs():
    # the stack goes row by row into its block; as one block it peaked at 3.5x its output
    family = build_family("Daubechies8")
    stack = WaveletExpansion(family.tau, np.random.default_rng(3).standard_normal((14, 2 ** 14)))
    grid = midpoint_grid(2 ** 14)
    synthesize_at(family, stack, grid)  # builds the family's grid tables once
    tracemalloc.start()
    try:
        values = synthesize_at(family, stack, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * values.nbytes


def test_haar_stack_on_a_grid_of_its_cells_peaks_at_one_and_a_half_outputs():
    # with as many grid points as finest cells the cells are the values, with no copy; the
    # rest is the finest level's scaled coefficients, half an output, and Python objects
    haar = build_family("Haar")
    stack = WaveletExpansion(haar.tau, np.random.default_rng(5).standard_normal((14, 2 ** 14)))
    grid = midpoint_grid(2 ** 14)
    tracemalloc.start()
    try:
        values = synthesize_at(haar, stack, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert values.shape == (14, 2 ** 14)
    assert peak < 1.5 * values.nbytes + 2 ** 16


def test_midpoint_grid_is_one_shared_read_only_array():
    grid = midpoint_grid(2 ** 10)
    assert midpoint_grid(2 ** 10) is grid
    with pytest.raises(ValueError, match="read-only"):
        grid[0] = 0.0


def family_state(family):
    """The family's fields, arrays as bytes."""
    return {k: v.tobytes() if isinstance(v, np.ndarray) else v for k, v in vars(family).items()}


@pytest.mark.parametrize("size", [2 ** 10, 2 ** 14, 1000])
@pytest.mark.parametrize("name", SUPPORTED_FAMILIES)
def test_grid_tables_match_pointwise_stencil(name, size):
    # Daubechies on a midpoint grid of N = 2^p points: j_max = tau + 3 and j_max = p, whose
    # finest level has period 1, take one product per level, within 1e-12; j_max = p + 1
    # leaves a level finer than the grid, so every level takes the stencil, bit for bit, as
    # at N = 1000 and on a grid with one point moved. A Haar-filter family runs the pyramid
    # on its cells, bit for bit. Synthesis leaves the family as it was built.
    family = build_family(name, 12)
    state = family_state(family)
    rng = np.random.default_rng(size)
    grid = midpoint_grid(size)
    p = math.ceil(math.log2(size))
    for j_max in (family.tau + 3, p, p + 1):
        e = random_expansion(rng, family.tau, j_max)
        fast, ref = synthesize_at(family, e, grid), ref_synth(family, [e], grid)[0]
        if family.is_haar or size & (size - 1) or j_max > p:
            assert same_bits(fast, ref), j_max
        else:
            np.testing.assert_allclose(fast, ref, rtol=0, atol=1e-12)
        # a grid with one point moved is not the midpoint grid: the stencil applies
        moved = grid.copy()
        moved[-1] = 1.0 - 0.25 / size
        assert same_bits(synthesize_at(family, e, moved), ref_synth(family, [e], moved)[0])
    assert family_state(family) == state


@pytest.mark.parametrize("size", [2, 16, 2 ** 10, 2 ** 14])
def test_haar_grid_synthesis_repeats_its_cells_bit_for_bit(size):
    # a Haar series is constant on the cells of its finest level: the inverse pyramid builds
    # them, a grid at least as fine repeats them, and a coarser grid takes each point's cell;
    # the family stays as it was built either way
    rng = np.random.default_rng(size)
    grid = midpoint_grid(size)
    for j_max in range(FAMILIES["Haar"].tau - 1, 14):
        haar = build_family("Haar")
        state = family_state(haar)
        es = [random_expansion(rng, haar.tau, j_max) for _ in range(3)]
        es[1].alpha[:] = -0.0
        for row in es[1].beta:
            row[:] = -0.0
        want = ref_synth(haar, es, grid)
        assert same_bits(synthesize_at(haar, stack_of(es), grid), want), (j_max, size)
        first = synthesize_at(haar, es[0], grid)
        assert same_bits(first, want[0]), (j_max, size)
        assert family_state(haar) == state
        # a fresh, writable array: the candidates are clipped in place
        first[:] = np.nan
        assert same_bits(synthesize_at(haar, es[0], grid), want[0])
    # the candidates of a Haar replication at n = 1024 on a grid of 2^10 take the cell path
    assert 2 ** (j1_level(1024) + 1) < 2 ** 10


@pytest.mark.parametrize("depth", [6, 12])
@pytest.mark.parametrize("name", SUPPORTED_FAMILIES)
def test_analyze_points_matches_stencil_reference(name, depth, record_property):
    family = build_family(name, depth)
    rng = np.random.default_rng(depth)
    exact = True
    for j_max in sorted({family.tau - 1, family.tau, 7, 13}):
        top = 1 << (j_max + 1)
        # dyadic points at the finest position, their left neighbours, and the edges
        dyadic = rng.integers(0, top + 1, 64) / top
        x = np.concatenate([rng.uniform(size=2000), dyadic, np.nextafter(dyadic, 0.0)[dyadic > 0],
                            [0.0, 0.5, 1.0 - 2.0 ** -53, 1.0, -1e-20, -0.75, 1.25]])
        for weights in (None, rng.standard_normal(x.size)):
            got = analyze_points(family, x, weights, j_max, n=x.size)
            want = ref_analysis(family, x, weights, j_max, x.size)
            assert len(got.beta) == len(want) - 1
            for g, w in zip([got.alpha, *got.beta], want):
                if family.is_haar:
                    assert np.array_equal(g.view(np.int64), w.view(np.int64))
                else:
                    np.testing.assert_allclose(g, w, rtol=0, atol=1e-12)
                exact = exact and np.array_equal(g.view(np.int64), w.view(np.int64))
    record_property("bit_exact", exact)
    print(f"{name} depth {depth}: bit-exact {exact}")


@pytest.mark.parametrize("name", SUPPORTED_FAMILIES)
def test_synthesis_at_a_scalar_point_is_a_fresh_0d_array(name):
    # rows + x.shape with x.shape = (): a 0-d array for one series, shape (rows,) for a stack
    family = FAMILIES[name]
    rng = np.random.default_rng(31)
    es = [random_expansion(rng, family.tau, family.tau + 3) for _ in range(2)]
    for x in (0.3, np.float64(-1e-20), np.array(1.0)):
        got = synthesize_at(family, es[0], x)
        assert isinstance(got, np.ndarray) and got.shape == ()
        assert same_bits(got, synthesize_at(family, es[0], [x])[0])
        got[...] = np.nan  # writable, and shared with nothing the next call sees
        assert same_bits(synthesize_at(family, es[0], x), synthesize_at(family, es[0], [x])[0])
        stacked = synthesize_at(family, stack_of(es), x)
        assert same_bits(stacked, synthesize_at(family, stack_of(es), [x])[:, 0])


@pytest.mark.parametrize("x, weights, n, match", [
    (np.full((2, 3), 0.5), None, 6, "1-D array, got shape \\(2, 3\\)"),
    (np.array([0.1, 0.5, 0.9]), np.ones(2), 3, "weights must have the points' shape"),
    (np.array([0.1, 0.5, 0.9]), None, 0, "n must be at least 1, got 0"),
    (np.array([0.1, 0.5, 0.9]), None, -2, "n must be at least 1, got -2"),
])
def test_analyze_points_rejects_malformed_input_at_entry(haar, db4, x, weights, n, match):
    for family in (haar, db4):
        with pytest.raises(ValueError, match=match):
            analyze_points(family, x, weights, 4, n)


# ---------------------------------------------------------------------------
# Mallat's pyramid for Haar against the per-level reference
# ---------------------------------------------------------------------------

def haar_points(rng, j_max, size):
    """Uniform points mixed with cell edges of the finest level, their neighbours and wraps."""
    top = 1 << (j_max + 1)
    dyadic = rng.integers(0, top + 1, size) / top
    pick = rng.integers(0, 6, size)
    return np.choose(pick, [rng.uniform(size=size), dyadic, np.nextafter(dyadic, -1.0),
                            np.nextafter(dyadic, 2.0), np.full(size, -1e-20),
                            rng.uniform(-1.0, 2.0, size)])


@settings(max_examples=80, deadline=None)
@given(
    name=st.sampled_from(["Haar", "Daubechies2"]),
    j_max=st.integers(min_value=-1, max_value=13),
    log_n=st.integers(min_value=4, max_value=14),
    offset=st.integers(min_value=-2, max_value=2),
    weights=st.sampled_from(["unit", "binary", "fraction"]),
    seed=st.integers(min_value=0, max_value=2 ** 16),
)
def test_haar_histogram_analysis_matches_the_per_level_reference(name, j_max, log_n, offset,
                                                                 weights, seed):
    # unit (density) and 0/1 (Bernoulli regression) weights take the histogram pyramid; every
    # partial sum is an exact integer, so each level equals the per-level bincounts bit for bit.
    # Weights in (0, 1), as in uniform-noise regression, must keep the per-level bincounts.
    family = FAMILIES[name]
    rng = np.random.default_rng(seed)
    n = (1 << log_n) + offset
    x = haar_points(rng, j_max, n)
    weights = {"unit": None, "binary": (rng.uniform(size=n) < 0.5).astype(float),
               "fraction": rng.uniform(size=n)}[weights]
    got = analyze_points(family, x, weights, j_max, n)
    want = ref_analysis(family, x, weights, j_max, n)
    assert got.j_max == j_max
    assert all(same_bits(g, w) for g, w in zip([got.alpha, *got.beta], want))


@settings(max_examples=60, deadline=None)
@given(
    j_max=st.integers(min_value=-1, max_value=12),
    rows=st.integers(min_value=1, max_value=4),
    negative_zero=st.integers(min_value=0, max_value=3),
    size=st.sampled_from([2, 3, 16, 100, 1000, 2 ** 10, 2 ** 13]),
    seed=st.integers(min_value=0, max_value=2 ** 16),
)
def test_haar_pyramid_synthesis_matches_the_reference(j_max, rows, negative_zero, size, seed):
    # the inverse pyramid's cells, repeated onto grids finer than the cells or taken at points,
    # on coarser and non-dyadic grids and for stacks with -0.0 rows, equal the reference stencil
    family = FAMILIES["Haar"]
    rng = np.random.default_rng(seed)
    es = [random_expansion(rng, family.tau, j_max) for _ in range(rows)]
    es[negative_zero % rows].coeffs[:] = -0.0
    for x in (midpoint_grid(size), haar_points(rng, j_max, size),
              haar_points(rng, j_max, 2 * size).reshape(2, size)):
        assert same_bits(synthesize_at(family, stack_of(es), x), ref_synth(family, es, x))
        assert same_bits(synthesize_at(family, es[0], x), ref_synth(family, es[:1], x)[0])
