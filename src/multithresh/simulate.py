"""Seedable data generators and a library of target functions.

Every target is a pointwise map on [0, 1] with a known sup bound and a
documented smoothness label; densities integrate to one. Density samples are
drawn by exact rejection sampling under the flat envelope at height B;
regression responses use Bernoulli noise (keeps Y in [0, 1] with exact
conditional mean) or bounded uniform noise.

Reproducibility: a replication stream is derived from the root seed by
``np.random.SeedSequence([root_seed, *indices])``, so distinct replications
share no generator state and any single replication can be replayed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .coefficients import MIN_SAMPLE_SIZE, DensitySample, RegressionSample

AUDIT_GRID_SIZE = 2 ** 16


def derive_rng(root_seed: int, *indices: int) -> np.random.Generator:
    """Independent generator for one replication, replayable from its indices."""
    return np.random.default_rng(np.random.SeedSequence([int(root_seed), *map(int, indices)]))


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

    def audit(self) -> None:
        """Check the range and, for densities, unit mass on a fine grid."""
        grid = (np.arange(AUDIT_GRID_SIZE) + 0.5) / AUDIT_GRID_SIZE
        vals = self(grid)
        if np.any(vals < 0.0) or np.any(vals > self.bound + 1e-12):
            raise ValueError(f"target {self.name!r} leaves [0, {self.bound}]")
        if self.is_density:
            mass = float(vals.mean())
            if abs(mass - 1.0) > 1e-3:
                raise ValueError(f"target {self.name!r} has mass {mass}, expected 1")


def _uniform(x):
    return np.ones_like(x)


def _bump_density(x):
    return 1.0 + 0.9 * np.cos(2.0 * np.pi * x)


def _bump_regression(x):
    return 0.5 + 0.45 * np.cos(2.0 * np.pi * x)


def _triangle_density(x):
    return 2.0 - np.abs(4.0 * x - 2.0)


def _triangle_regression(x):
    return 0.5 * (2.0 - np.abs(4.0 * x - 2.0))


def _twostep_density(x):
    # jump placed off the dyadic grid so no wavelet family resolves it exactly
    return np.where(x < 0.4, 0.5, 4.0 / 3.0)


def _twostep_regression(x):
    return np.where(x < 0.4, 0.25, 2.0 / 3.0)


def target_library() -> list[TargetFunction]:
    """All built-in targets, density-normalized and regression-scaled."""
    inf = math.inf
    targets = [
        TargetFunction("uniform_density", _uniform, 1.0, (inf, inf, inf), True),
        TargetFunction("uniform_regression", lambda x: np.full_like(x, 0.5),
                       0.5, (inf, inf, inf), False),
        TargetFunction("bump_density", _bump_density, 1.9, (inf, inf, inf), True),
        TargetFunction("bump_regression", _bump_regression, 0.95, (inf, inf, inf), False),
        TargetFunction("triangle_density", _triangle_density, 2.0, (1.0, inf, inf), True),
        TargetFunction("triangle_regression", _triangle_regression, 1.0, (1.0, inf, inf), False),
        # boundary smoothness; qualitative use only
        TargetFunction("twostep_density", _twostep_density, 4.0 / 3.0, (0.5, 2.0, inf), True),
        TargetFunction("twostep_regression", _twostep_regression, 2.0 / 3.0, (0.5, 2.0, inf), False),
    ]
    return targets


def get_target(name: str, model: str | None = None) -> TargetFunction:
    """Look up a target by name, optionally qualified by model."""
    full = name if model is None else f"{name}_{model}"
    for t in target_library():
        if t.name in (name, full):
            return t
    raise ValueError(f"unknown target {full!r}")


def sample_density(
    target: TargetFunction, n: int, seed: int | np.random.Generator
) -> DensitySample:
    """n i.i.d. draws from the target density by rejection sampling.

    Proposals are uniform on [0, 1]; a proposal x with companion uniform u is
    accepted when u * B <= f(x), so the flat target accepts every proposal
    and the output equals the raw proposal stream.
    """
    if not target.is_density:
        raise ValueError(f"target {target.name!r} is not a density")
    if n < MIN_SAMPLE_SIZE:
        raise ValueError(f"n must be at least {MIN_SAMPLE_SIZE}, got {n}")
    rng = seed if isinstance(seed, np.random.Generator) else derive_rng(seed)
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
    return DensitySample(out)


def sample_regression(
    target: TargetFunction,
    n: int,
    noise: str,
    seed: int | np.random.Generator,
    delta: float = 0.1,
) -> RegressionSample:
    """n pairs with uniform design and mean-zero bounded noise.

    ``noise`` is "bernoulli" (Y | X ~ Bernoulli(f(X)), requires f in [0, 1])
    or "uniform" (Y = f(X) + U[-delta, delta], requires f in [delta, 1-delta]
    on the audit grid so that Y stays in [0, 1]).
    """
    if n < MIN_SAMPLE_SIZE:
        raise ValueError(f"n must be at least {MIN_SAMPLE_SIZE}, got {n}")
    grid = (np.arange(AUDIT_GRID_SIZE) + 0.5) / AUDIT_GRID_SIZE
    fvals = target(grid)
    if noise == "bernoulli":
        if np.any(fvals < 0.0) or np.any(fvals > 1.0):
            raise ValueError("bernoulli noise requires values in [0, 1]")
    elif noise == "uniform":
        if np.any(fvals < delta) or np.any(fvals > 1.0 - delta):
            raise ValueError(
                f"uniform({delta}) noise requires values in [{delta}, {1.0 - delta}]"
            )
    else:
        raise ValueError(f"unknown noise kind {noise!r}")
    rng = seed if isinstance(seed, np.random.Generator) else derive_rng(seed)
    x = rng.uniform(size=n)
    mean = target(x)
    if noise == "bernoulli":
        y = (rng.uniform(size=n) < mean).astype(float)
    else:
        y = mean + rng.uniform(-delta, delta, size=n)
    return RegressionSample(x, y)
