"""Risk measurement, Monte Carlo experiments, and verification reports.

The Monte Carlo engine replays the full pipeline on synthetic data with
per-replication derived seeds and records true (quadrature) risks of every
candidate, the exponential-weights mixture and the empirical-risk minimizer.
Reports are pure functions of the recorded rows, so a run exported to CSV
can be re-analyzed without re-simulation; the oracle report derives its
residual constant from the model and target that its rows name.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .aggregation import (
    LossSpec,
    aggregate_mixture,
    beta_constants,
    multi_threshold_candidates,
    split_sample,
    universal_threshold_estimate,
)
from .coefficients import (MIN_SAMPLE_SIZE, MODELS, DensitySample, check_count,
                           loss_difference_bound, margin_constant, min_rho)
from .simulate import (TargetFunction, check_noise, derive_rng, get_target, sample_density,
                       sample_density_rows, sample_regression)
from .thresholding import ThresholdRule, check_rho
from .wavelets import (DEFAULT_GRID_SIZE, WaveletFamily, analyze, build_family,
                       eval_periodized, midpoint_grid)


def rate_slope(ns, mean_risks) -> tuple[float, float]:
    """OLS slope of log risk against log n, with its standard error."""
    ns = np.asarray(ns, dtype=float)
    risks = np.asarray(mean_risks, dtype=float)
    if len(ns) < 3:
        raise ValueError("need at least three sample sizes")
    if np.any(risks <= 0.0) or np.any(ns <= 0.0):
        raise ValueError("sample sizes and risks must be positive")
    x = np.log(ns)
    y = np.log(risks)
    sxx = float(np.sum((x - x.mean()) ** 2))
    if sxx == 0.0:
        raise ValueError("degenerate design: all sample sizes equal")
    slope = float(np.sum((x - x.mean()) * (y - y.mean())) / sxx)
    resid = y - (y.mean() + slope * (x - x.mean()))
    stderr = float(np.sqrt(np.sum(resid ** 2) / (len(ns) - 2) / sxx))
    return slope, stderr


# ---------------------------------------------------------------------------
# Monte Carlo engine
# ---------------------------------------------------------------------------

def _check_runs(reps: int, root_seed: int) -> None:
    """Require at least one replication and a seed that ``derive_rng`` takes."""
    check_count("reps", reps, 1)
    if not (isinstance(root_seed, numbers.Integral) and root_seed >= 0):
        raise ValueError(f"root_seed must be a non-negative integer, got {root_seed}")


@dataclass(frozen=True)
class MonteCarloConfig:
    """Everything one experiment needs; fully determines its output."""

    model: str
    target: str
    ns: tuple[int, ...]
    reps: int
    root_seed: int = 42
    family: str = "Haar"
    cascade_depth: int = 12
    rule: str = "hard"
    rho: float | None = None  # None = smallest deviation-valid constant
    grid_size: int = DEFAULT_GRID_SIZE
    noise: str = "bernoulli"
    include_universal: bool = False
    universal_c: float = 1.0

    def __post_init__(self) -> None:
        if self.model not in MODELS:
            raise ValueError(f"unknown model {self.model!r}")
        target = self.pipeline[0]
        if self.model == "regression":
            check_noise(target, self.noise)
        if self.rho is not None:
            check_rho(self.rho)
        _check_runs(self.reps, self.root_seed)
        if not 0.0 < self.universal_c < math.inf:
            raise ValueError(f"universal_c must be positive and finite, got {self.universal_c}")
        if not self.ns or len(set(self.ns)) != len(self.ns):
            raise ValueError(f"n: need at least one sample size, all distinct, got {self.ns}")
        for n in self.ns:
            check_count("n", n, MIN_SAMPLE_SIZE)
            split_sample(n)

    @functools.cached_property
    def pipeline(self) -> tuple[TargetFunction, WaveletFamily, ThresholdRule, LossSpec]:
        """The run's (target, family, rule, loss), built once; the loss clips at the target's B."""
        target = get_target(self.target, self.model)
        return (target, build_family(self.family, self.cascade_depth), ThresholdRule(self.rule),
                LossSpec(self.model, target.clip_bound, self.grid_size))


@dataclass(frozen=True)
class ExperimentResult:
    """True risks of one replication, plus the metadata to replay it."""

    model: str
    target: str
    n: int
    rep: int
    root_seed: int
    candidate_risks: tuple[float, ...]
    aggregate_risk: float
    erm_risk: float
    weights: tuple[float, ...]
    chosen_u: int
    universal_risk: float | None
    m: int
    l: int
    j1: int
    rho: float

    @property
    def M(self) -> int:
        return len(self.candidate_risks)


def monte_carlo(config: MonteCarloConfig) -> list[ExperimentResult]:
    """Run independent replications of the pipeline for every sample size.

    Replication ``rep`` at sample size ``n`` draws its data from the stream
    seeded by (root_seed, n, rep), so rows are reproducible individually.
    """
    target, family, rule, loss = config.pipeline
    tvals = target(midpoint_grid(config.grid_size))

    def risk(values: np.ndarray) -> float:
        return float(np.mean((values - tvals) ** 2))

    results: list[ExperimentResult] = []
    for n in config.ns:
        for rep in range(config.reps):
            rng = derive_rng(config.root_seed, n, rep)
            if config.model == "density":
                sample = sample_density(target, n, rng)
            else:
                sample = sample_regression(target, n, config.noise, rng)
            grid_rows, diag = multi_threshold_candidates(sample, family, rule, loss, rho=config.rho)
            # row by row: one grid row stays in cache, the (M, N) stack does not
            cand_risks = [risk(row) for row in grid_rows]
            universal_risk = risk(universal_threshold_estimate(
                sample, family, rule, loss, c=config.universal_c
            )) if config.include_universal else None
            results.append(ExperimentResult(
                model=config.model,
                target=config.target,
                n=n,
                rep=rep,
                root_seed=config.root_seed,
                candidate_risks=tuple(cand_risks),
                aggregate_risk=risk(aggregate_mixture(grid_rows, diag.weights, loss)),
                erm_risk=cand_risks[diag.erm_index],
                weights=tuple(float(w) for w in diag.weights),
                chosen_u=diag.chosen_u,
                universal_risk=universal_risk,
                m=diag.m,
                l=diag.l,
                j1=diag.j1,
                rho=diag.rho,
            ))
    return results


def mean_risk_by_n(results, column: str = "aggregate_risk"):
    """The sorted sample sizes and the mean of one risk column at each."""
    ns = sorted({r.n for r in results})
    return ns, [float(np.mean([getattr(r, column) for r in results if r.n == n])) for n in ns]


# ---------------------------------------------------------------------------
# Hypothesis checks
# ---------------------------------------------------------------------------

# replications sampled as one (chunk, n) block; larger chunks only raise peak memory
_CHUNK_REPS = 16


def _empirical_coeffs(family, target, levels, n, streams) -> np.ndarray:
    """Coefficients mean_i psi_jk(X_i) of one density sample per ``derive_rng(*stream)``.

    Returns shape (len(streams), len(levels)). Each row's sample and mean have the
    bits of its own stream's, but sampling and eval_periodized run once per chunk:
    at a Haar level that is one synthesis of 2^(j+1) cells, taken at all chunk * n points.
    """
    out = np.empty((len(streams), len(levels)))
    for start in range(0, len(streams), _CHUNK_REPS):
        chunk = streams[start:start + _CHUNK_REPS]
        x = sample_density_rows(target, n, [derive_rng(*s) for s in chunk])
        DensitySample(x.ravel())  # the [0, 1] check, once for the whole chunk
        for col, (j, k) in enumerate(levels):
            out[start:start + len(chunk), col] = np.mean(
                eval_periodized(family, "wavelet", j, k, x), axis=1)
    return out


def check_levels(family: WaveletFamily, levels) -> None:
    """Require one or more wavelet indices (j, k), each with tau <= j and 0 <= k < 2^j."""
    if not levels:
        raise ValueError("levels: need at least one wavelet index (j, k)")
    for j, k in levels:
        if not (family.tau <= j and 0 <= k < (1 << j)):
            raise ValueError(f"wavelet index (j, k) = ({j}, {k}) needs tau <= j and "
                             f"0 <= k < 2^j; tau = {family.tau} for {family.name}")


def _true_coeffs(family: WaveletFamily, target: TargetFunction, levels, ns,
                 truth_grid: int) -> list:
    """True coefficient of the density target at each (j, k) in ``levels``, by quadrature."""
    if not target.is_density:
        raise ValueError("the coefficient checks run in the density model")
    for n in ns:
        check_count("n", n, MIN_SAMPLE_SIZE)
    check_levels(family, levels)
    truth = analyze(family, target, max(j for j, _ in levels), truth_grid)
    return [truth.coeffs[(1 << j) + k] for j, k in levels]


@dataclass(frozen=True)
class MomentReport:
    """Fourth-moment decay of empirical coefficients across sample sizes."""

    ns: tuple[int, ...]
    fourth_moments: tuple[float, ...]
    slope: float
    stderr: float
    band: tuple[float, float]
    passed: bool


def check_moment(
    family: WaveletFamily,
    target: TargetFunction,
    levels,
    ns,
    reps: int,
    root_seed: int = 42,
    truth_grid: int = 2 ** 16,
) -> MomentReport:
    """Monte Carlo estimate of E|beta_hat - beta|^4 and its log-log slope.

    ``levels`` is a list of (j, k) wavelet indices; the per-n estimate pools
    the replication means across them. The true coefficients come from
    quadrature analysis (exact for Haar on a resolving grid). Passes when
    the fitted slope sits in [-2.3, -1.7].
    """
    _check_runs(reps, root_seed)
    if not 3 <= len(set(ns)) == len(ns):
        raise ValueError(f"n: need at least three sample sizes, all distinct, got {tuple(ns)}")
    levels = [(int(j), int(k)) for j, k in levels]
    true_beta = _true_coeffs(family, target, levels, ns, truth_grid)
    moments = []
    for n in ns:
        acc = 0.0
        streams = [(root_seed, n, rep) for rep in range(reps)]
        for row in _empirical_coeffs(family, target, levels, n, streams).tolist():
            for beta_hat, beta in zip(row, true_beta):
                acc += (beta_hat - beta) ** 4
        moments.append(acc / (reps * len(levels)))
    slope, stderr = rate_slope(ns, moments)
    band = (-2.3, -1.7)
    return MomentReport(
        ns=tuple(int(n) for n in ns),
        fourth_moments=tuple(moments),
        slope=slope,
        stderr=stderr,
        band=band,
        passed=band[0] <= slope <= band[1],
    )


@dataclass(frozen=True)
class DeviationReport:
    """Tail frequencies of scaled coefficient deviations against 2^(-4a)."""

    a_values: tuple[float, ...]
    frequencies: tuple[float, ...]
    bounds: tuple[float, ...]
    tolerances: tuple[float, ...]
    rho: float
    n: int
    reps: int
    passed: bool


def check_deviation(
    family: WaveletFamily,
    target: TargetFunction,
    rho: float | None,
    a_values,
    n: int,
    reps: int,
    root_seed: int = 42,
    level: tuple[int, int] = (3, 0),
    truth_grid: int = 2 ** 16,
) -> DeviationReport:
    """Empirical frequency of 2 sqrt(n) |beta_hat - beta| >= rho sqrt(a).

    ``rho`` None means the smallest deviation-valid constant. Frequencies are
    computed from one shared set of replications, so they are exactly
    nonincreasing in a. Passes when every frequency stays below 2^(-4a) plus
    three binomial standard errors.
    """
    if rho is None:
        rho = min_rho(target.clip_bound, family.psi_sup, "density")
    check_rho(rho)
    a_values = np.asarray(a_values, dtype=float)
    if not a_values.size or not np.all((a_values >= 0.0) & (a_values < math.inf)):
        raise ValueError(f"a: need finite deviation sizes >= 0, got {tuple(a_values.tolist())}")
    _check_runs(reps, root_seed)
    beta_true, = _true_coeffs(family, target, [level], [n], truth_grid)
    streams = [(root_seed, rep) for rep in range(reps)]
    beta_hat = _empirical_coeffs(family, target, [level], n, streams)[:, 0]
    deviations = 2.0 * math.sqrt(n) * np.abs(beta_hat - beta_true)
    freqs = [float(np.mean(deviations >= rho * math.sqrt(a))) for a in a_values]
    bounds = [2.0 ** (-4.0 * a) for a in a_values]
    tols = [3.0 * math.sqrt(bound * (1.0 - bound) / reps) for bound in bounds]
    passed = all(f <= b + t for f, b, t in zip(freqs, bounds, tols))
    return DeviationReport(
        a_values=tuple(float(a) for a in a_values),
        frequencies=tuple(freqs),
        bounds=tuple(bounds),
        tolerances=tuple(tols),
        rho=float(rho),
        n=int(n),
        reps=int(reps),
        passed=passed,
    )


# ---------------------------------------------------------------------------
# Oracle report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OracleReport:
    """The formal oracle bound and the sharper desk-scale comparison."""

    model: str
    target: str
    n: int
    n_reps: int
    M: int
    l: int
    epsilon: float
    lhs: float
    min_candidate_mean: float
    residual: float
    rhs: float
    ratio: float
    passed_formal: bool
    sharp_threshold: float
    passed_sharp: bool
    best_epsilon: float
    best_rhs: float


def oracle_report(results, epsilon: float = 1.0) -> OracleReport:
    """Compare the mean aggregate risk with the oracle-inequality bound.

    LHS is the mean true risk of the exponential-weights mixture; the bound
    is (1 + eps) min_u (mean candidate risk) + 4 log(M) / (eps beta2 l),
    evaluated with the learning-sample size l and the beta2 of the rows' model
    and target clip bound. Also reports the sharper empirical comparison
    LHS <= 1.1 min + 2 standard errors, and the bound minimized over eps on a grid.
    """
    results = list(results)
    if not results:
        raise ValueError("no experiment results given")
    keys = {(r.model, r.target, r.n, r.M, r.l) for r in results}
    if len(keys) != 1:
        raise ValueError(f"mixed-configuration input: {sorted(keys)}")
    model, target, n, M, l = keys.pop()
    if M < 2:
        raise ValueError("the oracle inequality requires at least two candidates")
    if not 0.0 < epsilon < math.inf:
        raise ValueError("epsilon must be positive and finite")
    B = get_target(target, model).clip_bound
    beta2 = beta_constants(margin_constant(model, B), loss_difference_bound(model, B))[1]
    cand = np.array([r.candidate_risks for r in results], dtype=float)
    agg = np.array([r.aggregate_risk for r in results], dtype=float)
    min_mean = float(cand.mean(axis=0).min())
    lhs = float(agg.mean())
    residual = 4.0 * math.log(M) / (epsilon * beta2 * l)
    rhs = (1.0 + epsilon) * min_mean + residual
    agg_se = float(agg.std(ddof=1) / math.sqrt(len(agg))) if len(agg) > 1 else 0.0
    sharp = 1.1 * min_mean + 2.0 * agg_se
    eps_grid = np.logspace(-3, 3, 241)
    rhs_grid = (1.0 + eps_grid) * min_mean + 4.0 * math.log(M) / (eps_grid * beta2 * l)
    best = int(np.argmin(rhs_grid))
    return OracleReport(
        model=model,
        target=target,
        n=n,
        n_reps=len(results),
        M=M,
        l=l,
        epsilon=epsilon,
        lhs=lhs,
        min_candidate_mean=min_mean,
        residual=residual,
        rhs=rhs,
        ratio=lhs / min_mean if min_mean > 0 else math.inf,
        passed_formal=lhs <= rhs,
        sharp_threshold=sharp,
        passed_sharp=lhs <= sharp,
        best_epsilon=float(eps_grid[best]),
        best_rhs=float(rhs_grid[best]),
    )
