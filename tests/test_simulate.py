"""Target library and seeded sample generators."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from multithresh import simulate
from multithresh.simulate import (
    AUDIT_GRID_SIZE,
    MIN_SAMPLE_SIZE,
    MODELS,
    UNIFORM_NOISE_DELTA,
    derive_rng,
    get_target,
    sample_density,
    sample_regression,
)
from multithresh.wavelets import midpoint_grid

STEMS = ("uniform", "bump", "triangle", "twostep")
# every built-in target: each shape as a density, then halved as a regression function
TARGETS = [get_target(stem, model) for stem in STEMS for model in MODELS]


def test_library_members_pass_audit():
    targets = TARGETS
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
    with pytest.raises(ValueError, match="unknown target 'triangle'"):
        get_target("triangle")  # a stem needs its model
    with pytest.raises(ValueError, match="unknown target 'triangle_poisson'"):
        get_target("triangle", "poisson")


def test_library_names_and_order():
    assert tuple(simulate._SHAPES) == STEMS
    assert [t.name for t in TARGETS] == [f"{stem}_{model}" for stem in STEMS for model in MODELS]


@pytest.mark.parametrize("stem", STEMS)
@pytest.mark.parametrize("model", MODELS)
def test_get_target_qualified_name_must_match_model(stem, model):
    full = f"{stem}_{model}"
    assert get_target(full).name == get_target(full, model).name == full
    assert get_target(stem, model).name == full
    other = MODELS[1 - MODELS.index(model)]
    with pytest.raises(ValueError) as info:
        get_target(full, other)
    assert str(info.value) == f"target {full!r} belongs to the {model} model, not the {other} model"


# the jump of twostep sits at 0.4
_unit_floats = st.floats(0.0, 1.0) | st.sampled_from(
    [0.4, np.nextafter(0.4, 0.0), np.nextafter(0.4, 1.0), 0.25, 0.5, 0.75, 1.0])


@settings(max_examples=200, deadline=None)
@given(x=st.lists(_unit_floats, min_size=1, max_size=20))
def test_regression_target_is_density_shape_halved(x):
    x = np.array(x)
    for stem in STEMS:
        density, regression = get_target(stem, "density"), get_target(stem, "regression")
        np.testing.assert_array_equal(regression(x).view(np.int64),
                                      (0.5 * density(x)).view(np.int64))
        assert regression.bound == 0.5 * density.bound
        assert regression.smoothness == density.smoothness
        assert (regression.is_density, density.is_density) == (False, True)
        assert regression.clip_bound == 1.0
        assert density.clip_bound == max(1.0, density.bound)


def test_regression_targets_keep_their_closed_forms():
    # the hand-written regression functions the halved shapes replaced, bit for bit
    x = np.concatenate([midpoint_grid(AUDIT_GRID_SIZE), np.arange(9) / 8.0,
                        [np.nextafter(0.4, 0.0), 0.4, np.nextafter(0.4, 1.0)]])
    closed = {
        "uniform": (np.full_like(x, 0.5), 0.5),
        "bump": (0.5 + 0.45 * np.cos(2.0 * np.pi * x), 0.95),
        "triangle": (0.5 * (2.0 - np.abs(4.0 * x - 2.0)), 1.0),
        "twostep": (np.where(x < 0.4, 0.25, 2.0 / 3.0), 2.0 / 3.0),
    }
    for stem, (values, bound) in closed.items():
        target = get_target(stem, "regression")
        np.testing.assert_array_equal(target(x).view(np.int64), values.view(np.int64))
        assert target.bound == bound


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


def _one_stream_sample(target, n, rng):
    """Reference: the rejection loop on one generator, with two uniform draws per chunk."""
    out = np.empty(n)
    filled = 0
    while filled < n:
        chunk = max(n - filled, 64)
        proposals = rng.uniform(size=chunk)
        companions = rng.uniform(size=chunk)
        accepted = proposals[companions * target.bound <= target(proposals)]
        take = min(len(accepted), n - filled)
        out[filled:filled + take] = accepted[:take]
        filled += take
    return out


# below, at and above the 64-proposal first chunk, for the flat and the rejecting targets
@settings(max_examples=150, deadline=None)
@given(stem=st.sampled_from(STEMS),
       n=st.integers(MIN_SAMPLE_SIZE, 80) | st.integers(81, 4096),
       rows=st.integers(1, 17), seed=st.integers(0, 2 ** 32 - 1))
@example(stem="uniform", n=MIN_SAMPLE_SIZE, rows=1, seed=0)
@example(stem="uniform", n=63, rows=3, seed=1)
@example(stem="bump", n=64, rows=17, seed=2)
@example(stem="twostep", n=4096, rows=2, seed=3)
def test_row_sampler_has_the_bits_of_one_stream_per_row(stem, n, rows, seed):
    target = get_target(stem, "density")
    blocked = [derive_rng(seed, row) for row in range(rows)]
    looped = [derive_rng(seed, row) for row in range(rows)]
    x = simulate.sample_density_rows(target, n, blocked)
    assert x.shape == (rows, n) and x.flags.c_contiguous
    want = np.stack([_one_stream_sample(target, n, rng) for rng in looped])
    np.testing.assert_array_equal(x.view(np.int64), want.view(np.int64))
    # each generator is left where the one-stream loop leaves it
    assert [rng.random() for rng in blocked] == [rng.random() for rng in looped]


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


@pytest.mark.parametrize("seed, indices, bad", [
    (1.5, (), "1.5"), (np.float64(1.0), (), "1.0"), (1, (2.5,), "2.5"),
    (1, (0, float("nan")), "nan"), ("1", (), "'1'"), (None, (), "None"),
])
def test_derived_streams_take_integers_only(seed, indices, bad):
    # a float seed was truncated: derive_rng(1.5) gave derive_rng(1)'s stream
    with pytest.raises(ValueError, match=f"must be integers.*{bad}"):
        derive_rng(seed, *indices)
    # numpy and Python integers, bools included, name the same stream
    same = derive_rng(np.int64(1), True).random(4)
    assert np.array_equal(same, derive_rng(1, 1).random(4))


def test_all_outputs_in_unit_interval():
    for t in TARGETS:
        if t.is_density:
            s = sample_density(t, 128, 3)
            assert np.all((s.x >= 0.0) & (s.x <= 1.0))
        else:
            s = sample_regression(t, 128, "bernoulli", 3)
            assert np.all((s.x >= 0.0) & (s.x <= 1.0))
            assert np.all((s.y >= 0.0) & (s.y <= 1.0))
