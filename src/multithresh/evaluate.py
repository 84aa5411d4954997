"""Risk measurement, Monte Carlo experiments, and verification reports.

The Monte Carlo engine replays the full pipeline on synthetic data with
per-replication derived seeds and records true (quadrature) risks of every
candidate, the exponential-weights mixture and the empirical-risk minimizer.
Reports are pure functions of the recorded rows, so a run exported to CSV
can be re-analyzed without re-simulation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .aggregation import (
    LossSpec,
    aggregate_mixture,
    multi_threshold_candidates,
    split_sample,
    universal_threshold_estimate,
)
from .simulate import TargetFunction, derive_rng, get_target, sample_density, sample_regression
from .thresholding import ThresholdRule
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
    dof = len(ns) - 2
    stderr = float(np.sqrt(np.sum(resid ** 2) / dof / sxx)) if dof > 0 else 0.0
    return slope, stderr


# ---------------------------------------------------------------------------
# Monte Carlo engine
# ---------------------------------------------------------------------------

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
    scheme: str = "AEW"
    rho: float | None = None  # None = smallest deviation-valid constant
    grid_size: int = DEFAULT_GRID_SIZE
    noise: str = "bernoulli"
    include_universal: bool = False
    universal_c: float = 1.0

    def __post_init__(self) -> None:
        if self.model not in ("density", "regression"):
            raise ValueError(f"unknown model {self.model!r}")
        if self.reps < 1:
            raise ValueError("reps must be at least 1")
        if not self.ns:
            raise ValueError("need at least one sample size")
        for n in self.ns:
            split_sample(n)

    def loss(self, target: TargetFunction) -> LossSpec:
        if self.model == "regression":
            return LossSpec.regression(self.grid_size)
        return LossSpec.density(max(1.0, target.bound), self.grid_size)


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
    target = get_target(config.target, config.model)
    family = build_family(config.family, config.cascade_depth)
    rule = ThresholdRule(config.rule)
    loss = config.loss(target)
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
            candidates, diag = multi_threshold_candidates(
                sample, family, rule, loss, rho=config.rho
            )
            cand_risks = [risk(c.grid_values) for c in candidates]
            universal_risk = None
            if config.include_universal:
                baseline = universal_threshold_estimate(
                    sample, family, rule, loss, c=config.universal_c
                )
                universal_risk = risk(baseline.grid_values)
            results.append(ExperimentResult(
                model=config.model,
                target=config.target,
                n=n,
                rep=rep,
                root_seed=config.root_seed,
                candidate_risks=tuple(cand_risks),
                aggregate_risk=risk(aggregate_mixture(candidates, diag.weights).grid_values),
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
    """Per-sample-size mean and standard error of one risk column."""
    ns = sorted({r.n for r in results})
    means, stderrs = [], []
    for n in ns:
        vals = np.array([getattr(r, column) for r in results if r.n == n], dtype=float)
        means.append(float(vals.mean()))
        stderrs.append(float(vals.std(ddof=1) / math.sqrt(len(vals))) if len(vals) > 1 else 0.0)
    return ns, means, stderrs


# ---------------------------------------------------------------------------
# Hypothesis checks
# ---------------------------------------------------------------------------

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
    if not target.is_density:
        raise ValueError("the moment check runs in the density model")
    levels = [(int(j), int(k)) for j, k in levels]
    j_top = max(j for j, _ in levels)
    truth = analyze(family, target, j_top, truth_grid)
    true_beta = {(j, k): truth.beta[j - family.tau][k] for j, k in levels}
    moments = []
    for n in ns:
        acc = 0.0
        for rep in range(reps):
            rng = derive_rng(root_seed, n, rep)
            sample = sample_density(target, n, rng)
            for (j, k) in levels:
                vals = eval_periodized(family, "wavelet", j, k, sample.x)
                beta_hat = float(np.mean(vals))
                acc += (beta_hat - true_beta[(j, k)]) ** 4
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
    rho: float,
    a_values,
    n: int,
    reps: int,
    root_seed: int = 42,
    level: tuple[int, int] = (3, 0),
    truth_grid: int = 2 ** 16,
) -> DeviationReport:
    """Empirical frequency of 2 sqrt(n) |beta_hat - beta| >= rho sqrt(a).

    Frequencies are computed from one shared set of replications, so they
    are exactly nonincreasing in a. Passes when every frequency stays below
    2^(-4a) plus three binomial standard errors.
    """
    if rho <= 0.0:
        raise ValueError("rho must be positive")
    if not target.is_density:
        raise ValueError("the deviation check runs in the density model")
    a_values = np.asarray(a_values, dtype=float)
    j, k = level
    truth = analyze(family, target, j, truth_grid)
    beta_true = truth.beta[j - family.tau][k]
    deviations = np.empty(reps)
    for rep in range(reps):
        rng = derive_rng(root_seed, rep)
        sample = sample_density(target, n, rng)
        beta_hat = float(np.mean(eval_periodized(family, "wavelet", j, k, sample.x)))
        deviations[rep] = 2.0 * math.sqrt(n) * abs(beta_hat - beta_true)
    freqs, bounds, tols = [], [], []
    for a in a_values:
        freq = float(np.mean(deviations >= rho * math.sqrt(a)))
        bound = 2.0 ** (-4.0 * a)
        tol = 3.0 * math.sqrt(bound * (1.0 - bound) / reps)
        freqs.append(freq)
        bounds.append(bound)
        tols.append(tol)
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


def oracle_report(results, constants, epsilon: float = 1.0) -> OracleReport:
    """Compare the mean aggregate risk with the oracle-inequality bound.

    LHS is the mean true risk of the exponential-weights mixture; the bound
    is (1 + eps) min_u (mean candidate risk) + 4 log(M) / (eps beta2 l),
    evaluated with the learning-sample size l. Also reports the sharper
    empirical comparison LHS <= 1.1 min + 2 standard errors, and the bound
    minimized over eps on a grid.
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
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    cand = np.array([r.candidate_risks for r in results], dtype=float)
    agg = np.array([r.aggregate_risk for r in results], dtype=float)
    min_mean = float(cand.mean(axis=0).min())
    lhs = float(agg.mean())
    residual = 4.0 * math.log(M) / (epsilon * constants.beta2 * l)
    rhs = (1.0 + epsilon) * min_mean + residual
    agg_se = float(agg.std(ddof=1) / math.sqrt(len(agg))) if len(agg) > 1 else 0.0
    sharp = 1.1 * min_mean + 2.0 * agg_se
    eps_grid = np.logspace(-3, 3, 241)
    rhs_grid = (1.0 + eps_grid) * min_mean + 4.0 * math.log(M) / (eps_grid * constants.beta2 * l)
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
