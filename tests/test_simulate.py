"""Target library and seeded sample generators."""

import math

import numpy as np
import pytest

from multithresh.simulate import (
    AUDIT_GRID_SIZE,
    UNIFORM_NOISE_DELTA,
    derive_rng,
    get_target,
    sample_density,
    sample_regression,
    target_library,
)
from multithresh.wavelets import midpoint_grid


def test_library_members_pass_audit():
    targets = target_library()
    assert len(targets) >= 8
    names = {t.name for t in targets}
    for stem in ("uniform", "bump", "triangle", "twostep"):
        assert f"{stem}_density" in names
        assert f"{stem}_regression" in names
    grid = midpoint_grid(AUDIT_GRID_SIZE)
    for t in targets:
        vals = t(grid)
        assert np.all((vals >= 0.0) & (vals <= t.bound + 1e-12)), t.name
        if t.is_density:
            assert abs(float(vals.mean()) - 1.0) <= 1e-3, t.name


def test_triangle_density_mass():
    t = get_target("triangle", "density")
    grid = midpoint_grid(AUDIT_GRID_SIZE)
    assert abs(float(t(grid).mean()) - 1.0) < 1e-3
    assert t.bound == 2.0
    assert t.smoothness[0] == 1.0


def test_get_target_unknown():
    with pytest.raises(ValueError):
        get_target("sawtooth", "density")


def test_uniform_rejection_accepts_every_proposal():
    # with a flat target the envelope is tight, so the output must equal the
    # first n proposals of the generator stream
    n, seed = 64, 2024
    sample = sample_density(get_target("uniform", "density"), n, seed)
    rng = derive_rng(seed)
    proposals = rng.uniform(size=n)
    np.testing.assert_array_equal(sample.x, proposals)


def test_sample_density_deterministic():
    t = get_target("triangle", "density")
    a = sample_density(t, 256, 7)
    b = sample_density(t, 256, 7)
    np.testing.assert_array_equal(a.x, b.x)
    c = sample_density(t, 256, 8)
    assert not np.array_equal(a.x, c.x)


def test_sample_density_rejects_non_density():
    with pytest.raises(ValueError):
        sample_density(get_target("triangle", "regression"), 64, 0)


def test_triangle_sampler_kolmogorov_smirnov():
    # closed-form CDF: 2x^2 on [0, 1/2], 1 - 2(1-x)^2 on [1/2, 1]
    n = 10 ** 5
    sample = sample_density(get_target("triangle", "density"), n, 99)
    xs = np.sort(sample.x)
    cdf = np.where(xs <= 0.5, 2.0 * xs ** 2, 1.0 - 2.0 * (1.0 - xs) ** 2)
    i = np.arange(1, n + 1)
    ks = max(np.max(i / n - cdf), np.max(cdf - (i - 1) / n))
    critical_1pct = 1.628 / math.sqrt(n)
    assert ks < critical_1pct


def test_sample_regression_bernoulli_degenerate():
    # f = 0 -> all responses zero
    from multithresh.simulate import TargetFunction

    flat0 = TargetFunction("zero", lambda x: np.zeros_like(x), 1.0,
                           (math.inf, math.inf, math.inf), False)
    s = sample_regression(flat0, 64, "bernoulli", 5)
    assert np.all(s.y == 0.0)


def test_sample_regression_uniform_noise_range():
    t = get_target("uniform", "regression")  # constant 1/2
    s = sample_regression(t, 256, "uniform", 11)
    delta = UNIFORM_NOISE_DELTA
    assert delta == 0.1
    assert np.all((s.y >= 0.5 - delta) & (s.y <= 0.5 + delta))
    assert s.y.min() < 0.5 - delta / 2 and s.y.max() > 0.5 + delta / 2


def test_sample_regression_noise_validation():
    tri = get_target("triangle", "regression")  # hits 0, uniform noise invalid
    with pytest.raises(ValueError):
        sample_regression(tri, 64, "uniform", 0)
    with pytest.raises(ValueError):
        sample_regression(tri, 64, "sawtooth", 0)


def test_sample_regression_bernoulli_mean():
    n = 10 ** 5
    s = sample_regression(get_target("uniform", "regression"), n, "bernoulli", 13)
    assert abs(s.y.mean() - 0.5) < 3 * 0.5 / math.sqrt(n)


def test_derived_streams_are_independent():
    a = derive_rng(42, 0).uniform(size=8)
    b = derive_rng(42, 1).uniform(size=8)
    a2 = derive_rng(42, 0).uniform(size=8)
    np.testing.assert_array_equal(a, a2)
    assert not np.array_equal(a, b)


def test_all_outputs_in_unit_interval():
    for t in target_library():
        if t.is_density:
            s = sample_density(t, 128, 3)
            assert np.all((s.x >= 0.0) & (s.x <= 1.0))
        else:
            s = sample_regression(t, 128, "bernoulli", 3)
            assert np.all((s.x >= 0.0) & (s.x <= 1.0))
            assert np.all((s.y >= 0.0) & (s.y <= 1.0))
