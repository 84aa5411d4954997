"""Seedable data generators and a library of target functions.

The library holds four shapes on [0, 1], each a density (it integrates to
one) with a known sup bound and a documented smoothness label. The shape is
the target ``<shape>_density``; halved, with half the bound, it is the
regression function ``<shape>_regression``, whose values lie in [0, 1].
A name qualified with one model is an error in the other. Density samples
are drawn by exact rejection sampling under the flat envelope at height B;
regression responses use Bernoulli noise (keeps Y in [0, 1] with exact
conditional mean) or bounded uniform noise.

Reproducibility: a replication stream is derived from the root seed by
``np.random.SeedSequence([root_seed, *indices])``, so distinct replications
share no generator state and any single replication can be replayed.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .coefficients import MIN_SAMPLE_SIZE, MODELS, DensitySample, RegressionSample, check_count
from .wavelets import midpoint_grid

AUDIT_GRID_SIZE = 2 ** 16
UNIFORM_NOISE_DELTA = 0.1  # half-width of the uniform regression noise U[-delta, delta]


def derive_rng(root_seed: int, *indices: int) -> np.random.Generator:
    """Independent generator for one replication, replayable from its integer indices."""
    try:  # operator.index, not int: derive_rng(1.5) must not give derive_rng(1)'s stream
        entropy = [operator.index(v) for v in (root_seed, *indices)]
    except TypeError:
        raise ValueError(f"seeds must be integers, got {(root_seed, *indices)!r}") from None
    return np.random.default_rng(np.random.SeedSequence(entropy))


@dataclass(frozen=True)
class TargetFunction:
    """A test function with documented bound and smoothness.

    ``smoothness`` is the (s, p, q) label used to pick expected convergence
    exponents; the labels are documented claims, not numerically certified.
    """

    name: str
    fn: Callable[[np.ndarray], np.ndarray]
    bound: float
    smoothness: tuple[float, float, float]
    is_density: bool

    def __call__(self, x) -> np.ndarray:
        return np.asarray(self.fn(np.asarray(x, dtype=float)), dtype=float)

    @property
    def clip_bound(self) -> float:
        """The loss's clip ceiling B = max(1, bound); 1 for every regression target."""
        return max(1.0, self.bound)

    @functools.cached_property
    def audit_range(self) -> tuple[float, float]:
        """Smallest and largest value on the audit grid, evaluated once per target."""
        fvals = self(midpoint_grid(AUDIT_GRID_SIZE))
        return float(fvals.min()), float(fvals.max())


# the four density shapes: function, sup bound and smoothness label (s, p, q)
_SHAPES = {
    "uniform": (np.ones_like, 1.0, (math.inf, math.inf, math.inf)),
    "bump": (lambda x: 1.0 + 0.9 * np.cos(2.0 * np.pi * x), 1.9, (math.inf, math.inf, math.inf)),
    "triangle": (lambda x: 2.0 - np.abs(4.0 * x - 2.0), 2.0, (1.0, math.inf, math.inf)),
    # jump placed off the dyadic grid so no wavelet family resolves it exactly;
    # boundary smoothness, qualitative use only
    "twostep": (lambda x: np.where(x < 0.4, 0.5, 4.0 / 3.0), 4.0 / 3.0, (0.5, 2.0, math.inf)),
}


def get_target(name: str, model: str | None = None) -> TargetFunction:
    """The target ``stem_model``, named in full or as a stem with its model.

    The regression target is the density shape halved, so Y stays in [0, 1].
    A name qualified with a model other than ``model`` is an error.
    """
    stem, _, suffix = name.rpartition("_")
    if suffix not in MODELS:  # a bare stem, in the given model
        stem, suffix = name, model
    elif model not in (None, suffix):
        raise ValueError(f"target {name!r} belongs to the {suffix} model, "
                         f"not the {model} model")
    full = name if suffix is None else f"{stem}_{suffix}"
    if stem not in _SHAPES or suffix not in MODELS:
        raise ValueError(f"unknown target {full!r}")
    shape, bound, smoothness = _SHAPES[stem]
    if suffix == "regression":
        return TargetFunction(full, lambda x: 0.5 * shape(x), 0.5 * bound, smoothness, False)
    return TargetFunction(full, shape, bound, smoothness, True)


def sample_density(
    target: TargetFunction, n: int, seed: int | np.random.Generator
) -> DensitySample:
    """n i.i.d. draws from the target density: one row of ``sample_density_rows``."""
    check_count("n", n, MIN_SAMPLE_SIZE)  # before the stream is derived
    rng = (seed if isinstance(seed, np.random.Generator)
           else derive_rng(check_count("seed", seed, 0)))
    return DensitySample(sample_density_rows(target, n, [rng])[0])


def sample_density_rows(target: TargetFunction, n: int, rngs) -> np.ndarray:
    """Rejection sampling of n draws from the target density per generator, one row each.

    Row r and the state of ``rngs[r]`` are those of the loop below on ``rngs[r]`` alone;
    the first proposals and companions of all rows are just one block, one target call.
    """
    if not target.is_density:
        raise ValueError(f"target {target.name!r} is not a density")
    check_count("n", n, MIN_SAMPLE_SIZE)
    first = max(n, 64)
    draws = np.empty((len(rngs), 2 * first))
    for rng, row in zip(rngs, draws):
        rng.random(out=row)  # the doubles of uniform(size=first) twice
    proposals = draws[:, :first]
    accept = draws[:, first:] * target.bound <= target(proposals)
    if first == n and accept.all():
        return proposals.copy()
    out = np.empty((len(rngs), n))
    for rng, row, chunk, ok in zip(rngs, out, proposals, accept):
        accepted = chunk[ok]
        filled = min(len(accepted), n)
        row[:filled] = accepted[:filled]
        while filled < n:  # a short row continues with its own generator
            chunk, companions = rng.uniform(size=(2, max(n - filled, 64)))
            accepted = chunk[companions * target.bound <= target(chunk)][:n - filled]
            row[filled:filled + len(accepted)] = accepted
            filled += len(accepted)
    return out


def check_noise(target: TargetFunction, noise: str) -> None:
    """Check that the noise keeps the responses Y of the target in [0, 1].

    ``noise`` is "bernoulli" (Y | X ~ Bernoulli(f(X)), requires f in [0, 1])
    or "uniform" (Y = f(X) + U[-delta, delta] with delta = UNIFORM_NOISE_DELTA,
    requires f in [delta, 1-delta]), each checked on the audit grid.
    """
    if noise == "bernoulli":
        lo, hi = 0.0, 1.0
    elif noise == "uniform":
        lo, hi = UNIFORM_NOISE_DELTA, 1.0 - UNIFORM_NOISE_DELTA
    else:
        raise ValueError(f"unknown noise kind {noise!r}")
    low, high = target.audit_range
    if low < lo or high > hi:
        raise ValueError(f"{noise} noise requires target values in [{lo}, {hi}]; "
                         f"{target.name!r} leaves that range")


def sample_regression(
    target: TargetFunction,
    n: int,
    noise: str,
    seed: int | np.random.Generator,
) -> RegressionSample:
    """n pairs with uniform design and mean-zero bounded noise (see ``check_noise``)."""
    check_count("n", n, MIN_SAMPLE_SIZE)
    check_noise(target, noise)
    rng = (seed if isinstance(seed, np.random.Generator)
           else derive_rng(check_count("seed", seed, 0)))
    x = rng.uniform(size=n)
    mean = target(x)
    if noise == "bernoulli":
        y = (rng.uniform(size=n) < mean).astype(float)
    else:
        y = mean + rng.uniform(-UNIFORM_NOISE_DELTA, UNIFORM_NOISE_DELTA, size=n)
    return RegressionSample(x, y)
