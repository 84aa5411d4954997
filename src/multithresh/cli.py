"""Batch front door: sample generation, estimation, rate experiments, checks.

Subcommands: ``simulate`` (emit raw samples), ``estimate`` (run the pipeline
on a sample file), ``rates`` (Monte Carlo rate experiment), ``check``
(constants / ongle / moment / deviation / oracle verification).

Sample files hold one observation per line: "x" for the density model,
"x,y" for regression. Config files are flat "key = value" lines with '#'
comments; every key is also a command-line flag and the flag wins.

Exit codes: 0 ok, 1 config error, 2 data error, 3 failed acceptance check.
All CSV output uses a header row, comma separators, '.' decimals and 17
significant digits, and is byte-stable for a fixed config and seed (wall
times are deliberately kept out of the CSV).
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .aggregation import (
    SCHEMES,
    LossSpec,
    beta_constants,
    multi_threshold_estimate,
    theory_constants,
)
from .coefficients import MIN_SAMPLE_SIZE, DensitySample, RegressionSample, min_rho
from .evaluate import (
    ExperimentResult,
    MonteCarloConfig,
    check_deviation,
    check_moment,
    mean_risk_by_n,
    monte_carlo,
    oracle_report,
    rate_slope,
)
from .simulate import TargetFunction, check_noise, get_target, sample_density, sample_regression
from .thresholding import RULE_KINDS, ThresholdRule, verify_ongle
from .wavelets import DEFAULT_GRID_SIZE, WaveletFamily, build_family, midpoint_grid

MODELS = ("density", "regression")


class ConfigError(Exception):
    pass


class DataError(Exception):
    pass


class CheckFailure(Exception):
    pass


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def parse_config_file(path: str) -> dict[str, str]:
    """Flat key = value lines; '#' starts a comment; later keys win."""
    out: dict[str, str] = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, value = stripped.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _merge_config(args: argparse.Namespace, keys: dict[str, type]) -> dict:
    """Config-file values overridden by any explicitly set flags."""
    merged: dict = {}
    file_values = parse_config_file(args.config) if getattr(args, "config", None) else {}
    for key, cast in keys.items():
        if key in file_values:
            try:
                merged[key] = _cast(file_values[key], cast)
            except ValueError as exc:
                raise ValueError(f"config key {key!r}: {exc}") from exc
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = flag
    return merged


def _cast(text: str, cast: type):
    if cast is bool:
        if text.lower() in ("1", "true", "yes", "on"):
            return True
        if text.lower() in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"not a boolean: {text!r}")
    return cast(text)


def _parse_list(text: str, cast: type) -> tuple:
    try:
        return tuple(cast(v) for v in str(text).split(","))
    except ValueError as exc:
        raise ValueError(f"invalid comma list of {cast.__name__} values: {text!r}") from exc


def _parse_rho(text: str) -> float | None:
    if text == "theory":
        return None  # the pipeline substitutes the smallest deviation-valid constant
    try:
        value = float(text)
    except ValueError as exc:
        raise ValueError(f"rho must be 'theory' or a number, got {text!r}") from exc
    if not 0.0 < value < math.inf:
        raise ValueError("rho must be positive and finite")
    return value


def read_sample_file(path: str, model: str):
    """Parse "x" or "x,y" lines into the matching sample type."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise DataError(f"cannot read sample file {path}: {exc}") from exc
    xs, ys = [], []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        parts = stripped.split(",")
        try:
            if model == "density":
                if len(parts) != 1:
                    raise ValueError("expected a single value")
                xs.append(float(parts[0]))
            else:
                if len(parts) != 2:
                    raise ValueError("expected 'x,y'")
                xs.append(float(parts[0]))
                ys.append(float(parts[1]))
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: {exc}: {line!r}") from exc
    try:
        if model == "density":
            return DensitySample(np.asarray(xs))
        return RegressionSample(np.asarray(xs), np.asarray(ys))
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from exc


def write_sample_file(path: Path, sample) -> None:
    if isinstance(sample, DensitySample):
        lines = [_fmt(float(v)) for v in sample.x]
    else:
        lines = [f"{_fmt(float(x))},{_fmt(float(y))}" for x, y in zip(sample.x, sample.y)]
    path.write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Config mapping and subcommands
# ---------------------------------------------------------------------------

_COMMON_KEYS = {
    "model": str, "target": str, "family": str, "cascade_depth": int,
    "rule": str, "scheme": str, "rho": str, "n": str, "reps": int,
    "seed": int, "grid_size": int, "noise": str, "B": float,
}
_RATES_KEYS = {**_COMMON_KEYS, "universal": bool, "universal_c": float}
# the checks always run in the density model and take the rule's constants, the
# margin and loss-difference constants, the deviation sizes and the oracle epsilon
_CHECK_KEYS = {**{k: v for k, v in _COMMON_KEYS.items() if k != "model"},
               "c1": float, "c2": float, "c": float, "K": float, "a": str, "epsilon": float}

_DEFAULTS = {
    "model": "density", "target": "uniform", "family": "Haar", "cascade_depth": 12,
    "rule": "hard", "scheme": "AEW", "rho": "theory", "n": "1024", "reps": 100,
    "seed": 42, "grid_size": DEFAULT_GRID_SIZE, "noise": "bernoulli", "B": 2.0,
    "c1": None, "c2": None, "universal": False, "universal_c": 1.0,
    "c": 16.0, "K": 1.0, "a": "1,2,3,4", "epsilon": 1.0,
}


@dataclass(frozen=True)
class Setup:
    """One subcommand's merged config and the pipeline objects built from it."""

    cfg: dict
    target: TargetFunction
    family: WaveletFamily
    rule: ThresholdRule
    loss: LossSpec
    rho: float | None  # None = the smallest deviation-valid constant
    ns: tuple[int, ...]
    monte_carlo: MonteCarloConfig | None

    @property
    def n(self) -> int:
        """The sample size of a subcommand that takes a single one."""
        if len(self.ns) != 1:
            raise ConfigError(f"expected one sample size, got {self.ns}")
        return self.ns[0]


def _setup(args, keys=_COMMON_KEYS, monte_carlo: bool = False, **defaults) -> Setup:
    """Map one subcommand's config to pipeline objects.

    A flag wins over the config file, which wins over ``defaults`` and then
    ``_DEFAULTS``. ``monte_carlo`` also builds the rates experiment config.
    The subcommands that sample regression data check the noise against
    the target, and the check keys are validated here too.
    This is the only place where a ValueError becomes a ConfigError, so
    every invalid config value exits 1 with a message.
    """
    try:
        cfg = {**_DEFAULTS, **defaults, **_merge_config(args, keys)}
        model, scheme, grid_size = cfg["model"], cfg["scheme"], cfg["grid_size"]
        if model not in MODELS:
            raise ValueError(f"unknown model {model!r}")
        if scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}, got {scheme!r}")
        ns = _parse_list(cfg["n"], int)
        if min(ns) < MIN_SAMPLE_SIZE:
            raise ValueError(f"sample sizes must be at least {MIN_SAMPLE_SIZE}, got {min(ns)}")
        rho = _parse_rho(cfg["rho"])
        target = get_target(cfg["target"], model)
        if args.command in ("simulate", "rates") and model == "regression":
            check_noise(target, cfg["noise"])
        if "epsilon" in keys:
            beta_constants(cfg["c"], cfg["K"])  # rejects c <= 0 and K < 1
            cfg["a"] = _parse_list(cfg["a"], float)
            if not all(0.0 <= a < math.inf for a in cfg["a"]):
                raise ValueError(f"deviation sizes a must be finite and >= 0, got {cfg['a']}")
            if not 0.0 < cfg["epsilon"] < math.inf:
                raise ValueError("epsilon must be positive and finite")
        return Setup(
            cfg=cfg,
            target=target,
            family=build_family(cfg["family"], cfg["cascade_depth"]),
            rule=ThresholdRule(cfg["rule"], cfg["c1"], cfg["c2"]),
            loss=LossSpec.regression(grid_size) if model == "regression"
            else LossSpec.density(cfg["B"], grid_size),
            rho=rho,
            ns=ns,
            monte_carlo=MonteCarloConfig(
                model=model, target=cfg["target"], ns=ns, reps=cfg["reps"],
                root_seed=cfg["seed"], family=cfg["family"],
                cascade_depth=cfg["cascade_depth"], rule=cfg["rule"], scheme=scheme,
                rho=rho, grid_size=grid_size, noise=cfg["noise"],
                include_universal=cfg["universal"], universal_c=cfg["universal_c"],
            ) if monte_carlo else None,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def cmd_simulate(args) -> int:
    setup = _setup(args)
    cfg, n = setup.cfg, setup.n
    if cfg["model"] == "density":
        sample = sample_density(setup.target, n, cfg["seed"])
    else:
        sample = sample_regression(setup.target, n, cfg["noise"], cfg["seed"])
    write_sample_file(Path(args.out), sample)
    print(f"wrote {n} observations ({cfg['model']}, {setup.target.name}) to {args.out}")
    return 0


def cmd_estimate(args) -> int:
    setup = _setup(args)
    model, scheme = setup.cfg["model"], setup.cfg["scheme"]
    sample = read_sample_file(args.input, model)
    try:
        estimator, diag = multi_threshold_estimate(
            sample, setup.family, setup.rule, setup.loss, rho=setup.rho, scheme=scheme
        )
    except ValueError as exc:
        raise DataError(f"{args.input}: {exc}") from exc

    grid_size = setup.loss.grid_size
    header = ["x", "f_tilde"]
    columns = [midpoint_grid(grid_size), estimator.grid_values]
    # an ERM estimate is a single candidate and has no per-candidate columns
    for cand in getattr(estimator, "candidates", []) if args.per_candidate else []:
        header.append(f"candidate_u{cand.u}")
        columns.append(cand.grid_values)
    rows = [[col[i] for col in columns] for i in range(grid_size)]
    out = Path(args.out)
    _write_csv(out, header, rows)

    diag_path = out.with_suffix(out.suffix + ".diag.txt")
    lines = [
        f"model = {model}",
        f"scheme = {scheme}",
        f"rho = {_fmt(diag.rho)}",
        f"j1 = {diag.j1}",
        f"m = {diag.m}",
        f"l = {diag.l}",
        f"M = {diag.M}",
        f"chosen_u = {diag.chosen_u}",
        "u_grid = " + ",".join(str(u) for u in diag.u_grid),
        "empirical_risks = " + ",".join(_fmt(float(r)) for r in diag.risks),
        "weights = " + ",".join(_fmt(float(w)) for w in diag.weights),
    ]
    diag_path.write_text("\n".join(lines) + "\n")
    print(f"wrote estimate to {out} and diagnostics to {diag_path}")
    return 0


# rates CSV columns, each with the parser of its values
_ROW_COLUMNS = {
    "model": str, "target": str, "scheme": str, "rule": str, "rho": float, "n": int,
    "rep": int, "root_seed": int, "m": int, "l": int, "j1": int, "M": int, "u": int,
    "candidate_risk": float, "weight": float, "aggregate_risk": float, "erm_risk": float,
    "chosen_u": int, "universal_risk": lambda text: float(text) if text else None,
}


def results_to_rows(results: list[ExperimentResult], scheme: str, rule: str) -> list[list]:
    rows = []
    for r in results:
        for i, (risk, weight) in enumerate(zip(r.candidate_risks, r.weights)):
            rows.append([
                r.model, r.target, scheme, rule, r.rho, r.n, r.rep, r.root_seed,
                r.m, r.l, r.j1, r.M, i, risk, weight,
                r.aggregate_risk, r.erm_risk, r.chosen_u,
                r.universal_risk if r.universal_risk is not None else "",
            ])
    return rows


def rows_to_results(path: str) -> list[ExperimentResult]:
    """Rebuild experiment results from a rates CSV (inverse of results_to_rows)."""
    grouped: dict[tuple, tuple[dict, dict]] = {}
    try:
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            missing = [c for c in _ROW_COLUMNS if c not in (reader.fieldnames or [])]
            if missing:
                raise DataError(f"{path}: missing columns {missing}")
            for row in reader:
                try:
                    if None in row or None in row.values():
                        raise ValueError(f"expected {len(reader.fieldnames)} fields")
                    values = {c: parse(row[c]) for c, parse in _ROW_COLUMNS.items()}
                except ValueError as exc:
                    raise DataError(f"{path}:{reader.line_num}: malformed row: {exc}") from exc
                key = (values["model"], values["target"], values["n"], values["rep"])
                by_u = grouped.setdefault(key, (values, {}))[1]
                by_u[values["u"]] = (values["candidate_risk"], values["weight"])
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if not grouped:
        raise DataError(f"{path}: no data rows")
    results = []
    for first, by_u in (grouped[key] for key in sorted(grouped)):
        us = sorted(by_u)
        results.append(ExperimentResult(
            **{f.name: first[f.name] for f in fields(ExperimentResult) if f.name in first},
            candidate_risks=tuple(by_u[u][0] for u in us),
            weights=tuple(by_u[u][1] for u in us),
        ))
    return results


def cmd_rates(args) -> int:
    setup = _setup(args, _RATES_KEYS, monte_carlo=True,
                   target="triangle", n="512,1024,2048,4096,8192")
    config = setup.monte_carlo
    if len(config.ns) < 3:
        raise ConfigError("rates needs at least three sample sizes")

    results = monte_carlo(config)
    out = Path(args.out)
    _write_csv(out, list(_ROW_COLUMNS), results_to_rows(results, config.scheme, config.rule))

    risk_column = "aggregate_risk" if config.scheme == "AEW" else "erm_risk"
    ns_sorted, means, _ = mean_risk_by_n(results, risk_column)
    slope, stderr = rate_slope(ns_sorted, means)
    s = setup.target.smoothness[0]
    expected = -1.0 if math.isinf(s) else -2.0 * s / (2.0 * s + 1.0)
    summary_header = ["model", "target", "scheme", "rule", "rho_mode", "reps",
                      "n_values", "slope", "slope_stderr", "expected_slope"]
    summary_row = [
        config.model, config.target, config.scheme, config.rule,
        "theory" if config.rho is None else _fmt(config.rho),
        config.reps, ";".join(str(n) for n in ns_sorted), slope, stderr, expected,
    ]
    if config.include_universal:
        _, u_means, _ = mean_risk_by_n(results, "universal_risk")
        u_slope, u_stderr = rate_slope(ns_sorted, u_means)
        summary_header += ["universal_slope", "universal_slope_stderr"]
        summary_row += [u_slope, u_stderr]
    summary_path = out.with_suffix(".summary.csv")
    _write_csv(summary_path, summary_header, [summary_row])
    print(f"slope = {slope:.4f} +/- {stderr:.4f} (expected {expected:.4f})")
    print(f"wrote rows to {out} and summary to {summary_path}")
    return 0


def _verdict(passed: bool, failure: str, success: str = "pass") -> int:
    """Print ``success`` and return exit code 0, or raise the failure."""
    if not passed:
        raise CheckFailure(failure)
    print(success)
    return 0


def _check_constants(args) -> int:
    cfg = _setup(args, _CHECK_KEYS).cfg
    beta1, beta2 = beta_constants(cfg["c"], cfg["K"])
    print(f"beta1 = {_fmt(beta1)}")
    print(f"beta2 = {_fmt(beta2)}")
    return 0


def _check_ongle(args) -> int:
    report = verify_ongle(_setup(args, _CHECK_KEYS).rule, (0.1, 0.5, 1.0, 2.0), 0.01, 10.0)
    print(f"rule = {report.rule_kind}, c1 = {_fmt(report.c1)}, c2 = {_fmt(report.c2)}")
    print(f"points checked = {report.points_checked}")
    if not report.passed:
        x, y, u, lhs, rhs = report.witness
        print(f"FAIL at x={x} y={y} u={u}: lhs={lhs} > rhs={rhs}")
    return _verdict(report.passed, "stability condition violated")


def _check_moment(args) -> int:
    setup = _setup(args, _CHECK_KEYS, n="256,1024,4096", reps=10000)
    report = check_moment(setup.family, setup.target, [(2, 0), (3, 1)], setup.ns,
                          setup.cfg["reps"], setup.cfg["seed"])
    for n, m4 in zip(report.ns, report.fourth_moments):
        print(f"n = {n}: E|beta_hat - beta|^4 = {_fmt(m4)}")
    print(f"slope = {report.slope:.4f} +/- {report.stderr:.4f}, band {report.band}")
    return _verdict(report.passed, "moment slope outside band")


def _check_deviation(args) -> int:
    setup = _setup(args, _CHECK_KEYS, reps=100000)
    rho = setup.rho if setup.rho is not None \
        else min_rho(max(1.0, setup.target.bound), setup.family.psi_sup, "density")
    report = check_deviation(setup.family, setup.target, rho, setup.cfg["a"], setup.n,
                             setup.cfg["reps"], setup.cfg["seed"])
    for a, f, b, t in zip(report.a_values, report.frequencies,
                          report.bounds, report.tolerances):
        print(f"a = {a}: frequency = {_fmt(f)}, bound = {_fmt(b)} (+3se {_fmt(t)})")
    return _verdict(report.passed, "deviation frequency above bound")


def _check_oracle(args) -> int:
    epsilon = _setup(args, _CHECK_KEYS).cfg["epsilon"]
    if not args.input:
        raise ConfigError("check oracle requires --input rows.csv")
    results = rows_to_results(args.input)
    ns = sorted({r.n for r in results})
    if len(ns) > 1:
        print(f"check oracle: kept n = {ns[-1]}, dropped n = "
              + ", ".join(str(n) for n in ns[:-1]), file=sys.stderr)
        results = [r for r in results if r.n == ns[-1]]
    # epsilon is validated, so any ValueError here comes from the rows
    try:
        model = results[0].model
        target = get_target(results[0].target, model)
        constants = theory_constants(model, max(1.0, target.bound))
        report = oracle_report(results, constants, epsilon)
    except ValueError as exc:
        raise DataError(f"{args.input}: {exc}") from exc
    print(f"model = {report.model}, target = {report.target}, n = {report.n}, "
          f"reps = {report.n_reps}, M = {report.M}, l = {report.l}")
    print(f"LHS (mean aggregate risk)     = {_fmt(report.lhs)}")
    print(f"min candidate mean risk       = {_fmt(report.min_candidate_mean)}")
    print(f"residual 4 log M/(eps b2 l)   = {_fmt(report.residual)}")
    print(f"RHS                           = {_fmt(report.rhs)}")
    print(f"ratio LHS / min-candidate     = {_fmt(report.ratio)}")
    print(f"best epsilon on grid          = {_fmt(report.best_epsilon)} "
          f"(RHS {_fmt(report.best_rhs)})")
    return _verdict(report.passed_formal, "oracle bound violated",
                    "bound satisfied (non-sharp at this scale)")


_CHECKS = {"constants": _check_constants, "ongle": _check_ongle, "moment": _check_moment,
           "deviation": _check_deviation, "oracle": _check_oracle}


def cmd_check(args) -> int:
    return _CHECKS[args.what](args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multithresh",
        description="Adaptive wavelet estimation by aggregation of thresholded estimators",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument("--model", choices=MODELS)
        p.add_argument("--target")
        p.add_argument("--family")
        p.add_argument("--cascade-depth", dest="cascade_depth", type=int)
        p.add_argument("--rule", choices=RULE_KINDS)
        p.add_argument("--scheme", choices=SCHEMES)
        p.add_argument("--rho", help="'theory' or a positive number")
        p.add_argument("--n", help="sample size, or comma list for rates")
        p.add_argument("--reps", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--grid-size", dest="grid_size", type=int)
        p.add_argument("--noise", choices=["bernoulli", "uniform"])
        p.add_argument("--B", type=float, help="density bound (clip ceiling)")

    p_sim = sub.add_parser("simulate", help="emit a raw sample file")
    add_common(p_sim)
    p_sim.add_argument("--out", required=True)
    p_sim.set_defaults(func=cmd_simulate)

    p_est = sub.add_parser("estimate", help="run the estimator on a sample file")
    add_common(p_est)
    p_est.add_argument("--input", required=True)
    p_est.add_argument("--out", required=True)
    p_est.add_argument("--per-candidate", action="store_true",
                       help="also write every candidate's grid values")
    p_est.set_defaults(func=cmd_estimate)

    p_rates = sub.add_parser("rates", help="Monte Carlo rate experiment")
    add_common(p_rates)
    p_rates.add_argument("--out", required=True)
    p_rates.add_argument("--universal", action="store_true", default=None,
                         help="also run the universal-threshold baseline")
    p_rates.add_argument("--universal-c", dest="universal_c", type=float)
    p_rates.set_defaults(func=cmd_rates)

    p_check = sub.add_parser("check", help="verification reports")
    p_check.add_argument("what", choices=_CHECKS)
    add_common(p_check)
    p_check.add_argument("--c", type=float, help="margin constant")
    p_check.add_argument("--K", type=float, help="loss-difference bound")
    p_check.add_argument("--c1", type=float)
    p_check.add_argument("--c2", type=float)
    p_check.add_argument("--a", help="comma list of deviation sizes")
    p_check.add_argument("--input", help="rates rows CSV (check oracle)")
    p_check.add_argument("--epsilon", type=float)
    p_check.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except CheckFailure as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
