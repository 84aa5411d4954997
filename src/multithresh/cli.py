"""Batch front door: sample generation, estimation, rate experiments, checks.

Subcommands: ``simulate`` (emit raw samples), ``estimate`` (run the pipeline
on a sample file), ``rates`` (Monte Carlo rate experiment), ``check``
(constants / ongle / moment / deviation / oracle verification).

Sample files hold one observation per line: "x" for the density model,
"x,y" for regression. Each subcommand takes exactly the config keys it
reads (``_KEYS``), as flags or as "key = value" lines of a config file; a
flag wins over the file, the file over the default. A file key read only
by other subcommands is ignored (one file can serve several); an unknown
key is an error.

A config error is raised before any work: ``_config`` checks each value and
the subcommand's sample sizes, then the subcommand builds the objects it reads
once, under ``_config_errors``. ``estimate`` and ``rates`` claim all their
output paths before they read a sample or run a replication, so an
unwritable path leaves no partial output behind.

Exit codes: 0 ok, 1 config or usage error, 2 data error, 3 failed check.
All CSV output uses a header row, comma separators, '.' decimals and 17
significant digits, and is byte-stable for a fixed config and seed (wall
times are deliberately kept out of the CSV).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import math
import sys
from dataclasses import fields
from pathlib import Path
from typing import Any, Callable, NamedTuple

import numpy as np

from .aggregation import SCHEMES, LossSpec, beta_constants, multi_threshold_estimate
from .coefficients import MIN_SAMPLE_SIZE, MODELS, DensitySample, RegressionSample
from .evaluate import (
    ExperimentResult,
    MonteCarloConfig,
    check_deviation,
    check_levels,
    check_moment,
    mean_risk_by_n,
    monte_carlo,
    oracle_report,
    rate_slope,
)
from .simulate import TargetFunction, check_noise, get_target, sample_density, sample_regression
from .thresholding import RULE_KINDS, ThresholdRule, verify_ongle
from .wavelets import (DEFAULT_GRID_SIZE, MAX_CASCADE_DEPTH, MIN_CASCADE_DEPTH,
                       SUPPORTED_FAMILIES, WaveletFamily, build_family, midpoint_grid)


class ConfigError(Exception):
    exit_code, label = 1, "config error"


class DataError(Exception):
    exit_code, label = 2, "data error"


class CheckFailure(Exception):
    exit_code, label = 3, "check failed"


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _write_text(path: Path, text: str, mode: str = "w") -> None:
    """Write an output file; a path that cannot be written is a config error (exit 1)."""
    try:
        with open(path, mode) as f:
            f.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _write_csv(path: Path, header: list[str] | None, rows: list[list] | np.ndarray) -> None:
    """Write the header line, unless None, and the rows: lists, or a 2-D float array.

    List values go through ``_fmt``. An array goes through one "%.17g" template,
    which formats every float, -0.0 included, exactly as ``format(v, ".17g")``.
    """
    lines = [] if header is None else [",".join(header)]
    if isinstance(rows, np.ndarray):
        template = "\n".join([",".join(["%.17g"] * rows.shape[1])] * len(rows))
        lines.append(template % tuple(rows.ravel().tolist()))
    else:
        lines += [",".join(_fmt(v) for v in row) for row in rows]
    _write_text(path, "\n".join(lines) + "\n")


def _claim_outputs(*paths: Path) -> None:
    """Fail on an output path that cannot be written before any work, leaving no new file."""
    for path in paths:
        existed = path.exists()
        _write_text(path, "", "a")
        if not existed:
            path.unlink()


@contextlib.contextmanager
def _config_errors():
    """Report a ValueError raised while building a subcommand's objects as a config error."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def parse_config_file(path: str) -> dict[str, str]:
    """Flat key = value lines; '#' starts a comment; later keys win; keys are in ``_KEYS``."""
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
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in _KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        out[key] = value
    return out


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
    columns = (sample.x,) if isinstance(sample, DensitySample) else (sample.x, sample.y)
    _write_csv(path, None, np.column_stack(columns))


# ---------------------------------------------------------------------------
# Config keys and subcommands
# ---------------------------------------------------------------------------

def _value(cast, ok, expected: str) -> Callable[[str], Any]:
    """Parser of one config value: ``cast`` the text, then require ``ok`` of it.

    ``ok`` is written positively, so that NaN fails a range check.
    """
    def parse(text: str):
        try:
            value = cast(text)
            if ok(value):
                return value
        except (ValueError, LookupError):
            pass
        raise ValueError(f"expected {expected}, got {text!r}")
    return parse


def _choice(options: tuple[str, ...]) -> Callable[[str], str]:
    return _value(str, options.__contains__, f"one of {options}")


def _number(cast, lo, above: bool = False) -> Callable[[str], Any]:
    """Parser of a finite number >= ``lo``, or > ``lo`` when ``above``."""
    kind = "an integer" if cast is int else "a finite number"
    return _value(cast, lambda v: (lo < v if above else lo <= v) and v < math.inf,
                  f"{kind} {'>' if above else '>='} {lo}")


def _list(parse: Callable[[str], Any]) -> Callable[[str], tuple]:
    return lambda text: tuple(parse(v) for v in text.split(","))


_POSITIVE = _number(float, 0.0, above=True)
_BOOLEAN = _value(lambda t: {"1": True, "true": True, "yes": True, "on": True, "0": False,
                             "false": False, "no": False, "off": False}[t.lower()],
                  lambda v: True, "a boolean")


class _Key(NamedTuple):
    """A config key: its parser, its default and the subcommands that read it."""

    parse: Callable[[str], Any]
    default: str | None  # parsed like a flag; None leaves the key unset
    commands: tuple[str, ...]
    default_for: dict[str, str] = {}  # subcommands whose default differs
    help: str | None = None


_ESTIMATORS = ("estimate", "rates")
_SAMPLING_CHECKS = ("check moment", "check deviation")  # both run in the density model
_CHECK_LEVELS = {"check moment": ((2, 0), (3, 1)), "check deviation": ((3, 0),)}  # (j, k) tested
_ONE_SIZE = (lambda ns: len(ns) == 1, "expected one sample size")
_SLOPE_SIZES = (lambda ns: 3 <= len(set(ns)) == len(ns),
                "need at least three sample sizes, all distinct")
# the rule on the sample sizes of each subcommand that reads n, with its message
_SIZE_RULES = {"simulate": _ONE_SIZE, "check deviation": _ONE_SIZE,
               "rates": _SLOPE_SIZES, "check moment": _SLOPE_SIZES}
_KEYS = {
    "model": _Key(_choice(MODELS), "density", ("simulate", *_ESTIMATORS)),
    "target": _Key(str, "uniform", ("simulate", "rates", *_SAMPLING_CHECKS),
                   {"rates": "triangle"}),
    "family": _Key(_choice(SUPPORTED_FAMILIES), "Haar", (*_ESTIMATORS, *_SAMPLING_CHECKS)),
    "cascade_depth": _Key(_value(int, lambda v: MIN_CASCADE_DEPTH <= v <= MAX_CASCADE_DEPTH,
                                 f"an integer in [{MIN_CASCADE_DEPTH}, {MAX_CASCADE_DEPTH}]"),
                          "12", (*_ESTIMATORS, *_SAMPLING_CHECKS)),
    "rule": _Key(_choice(RULE_KINDS), "hard", (*_ESTIMATORS, "check ongle")),
    "scheme": _Key(_choice(SCHEMES), "AEW", _ESTIMATORS),
    "rho": _Key(_value(lambda t: None if t == "theory" else _POSITIVE(t), lambda v: True,
                       "'theory' or a finite number > 0"),
                "theory", (*_ESTIMATORS, "check deviation"),
                help="'theory' (the smallest deviation-valid constant) or a positive number"),
    "n": _Key(_list(_number(int, MIN_SAMPLE_SIZE)), "1024",
              ("simulate", "rates", *_SAMPLING_CHECKS),
              {"rates": "512,1024,2048,4096,8192", "check moment": "256,1024,4096"},
              help="sample size, or comma list for rates and check moment"),
    "reps": _Key(_number(int, 1), "100", ("rates", *_SAMPLING_CHECKS),
                 {"check moment": "10000", "check deviation": "100000"}),
    "seed": _Key(_number(int, 0), "42", ("simulate", "rates", *_SAMPLING_CHECKS)),
    "grid_size": _Key(_number(int, 2), str(DEFAULT_GRID_SIZE), _ESTIMATORS),
    "noise": _Key(_choice(("bernoulli", "uniform")), "bernoulli", ("simulate", "rates")),
    "B": _Key(_number(float, 1.0), None, ("estimate",),
              help="density bound (clip ceiling), default 2.0; the regression model fixes B = 1"),
    "universal": _Key(_BOOLEAN, "false", ("rates",),
                      help="also run the universal-threshold baseline"),
    "universal_c": _Key(_POSITIVE, "1.0", ("rates",)),
    "c": _Key(_POSITIVE, "16.0", ("check constants",), help="margin constant"),
    "K": _Key(_number(float, 1.0), "1.0", ("check constants",), help="loss-difference bound"),
    "c1": _Key(_number(float, 0.0), None, ("check ongle",)),
    "c2": _Key(_number(float, 0.0), None, ("check ongle",)),
    "a": _Key(_list(_number(float, 0.0)), "1,2,3,4", ("check deviation",),
              help="comma list of deviation sizes"),
    "epsilon": _Key(_POSITIVE, "1.0", ("check oracle",)),
}


def _config(args) -> dict:
    """The subcommand's keys, each from its flag, else the config file, else its default.

    A value that its key's parser or the subcommand's ``_SIZE_RULES`` rejects is a config error.
    """
    file_values = parse_config_file(args.config) if args.config else {}
    cfg = {}
    for key, spec in _KEYS.items():
        if args.command not in spec.commands:
            continue  # another subcommand's key, so that one file can serve several
        text = getattr(args, key)
        if text is None:
            text = file_values.get(key, spec.default_for.get(args.command, spec.default))
        try:
            cfg[key] = None if text is None else spec.parse(text)
        except ValueError as exc:
            raise ConfigError(f"{key}: {exc}") from exc
    if args.command in _SIZE_RULES:
        ok, expected = _SIZE_RULES[args.command]
        if not ok(cfg["n"]):
            raise ConfigError(f"n: {expected}, got {cfg['n']}")
    return cfg


def cmd_simulate(args) -> int:
    cfg = _config(args)
    model, n = cfg["model"], cfg["n"][0]
    with _config_errors():
        target = get_target(cfg["target"], model)
        if model == "regression":
            check_noise(target, cfg["noise"])
    if model == "density":
        sample = sample_density(target, n, cfg["seed"])
    else:
        sample = sample_regression(target, n, cfg["noise"], cfg["seed"])
    write_sample_file(Path(args.out), sample)
    print(f"wrote {n} observations ({model}, {target.name}) to {args.out}")
    return 0


def cmd_estimate(args) -> int:
    cfg = _config(args)
    model, scheme, grid_size = cfg["model"], cfg["scheme"], cfg["grid_size"]
    if cfg["B"] is None:
        cfg["B"] = 2.0 if model == "density" else 1.0
    with _config_errors():
        family = build_family(cfg["family"], cfg["cascade_depth"])
        loss = LossSpec(model, cfg["B"], grid_size)
    out = Path(args.out)
    diag_path = out.with_suffix(out.suffix + ".diag.txt")
    _claim_outputs(out, diag_path)
    sample = read_sample_file(args.input, model)
    try:
        estimate, grid_rows, diag = multi_threshold_estimate(
            sample, family, ThresholdRule(cfg["rule"]), loss, rho=cfg["rho"], scheme=scheme
        )
    except ValueError as exc:
        raise DataError(f"{args.input}: {exc}") from exc

    header = ["x", "f_tilde"]
    columns = [midpoint_grid(grid_size), estimate]
    # an ERM estimate is one of the rows, so only a mixture gets per-candidate columns
    if args.per_candidate and scheme == "AEW":
        header += [f"candidate_u{u}" for u in diag.u_grid]
        columns += grid_rows
    _write_csv(out, header, np.column_stack(columns))
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
    _write_text(diag_path, "\n".join(lines) + "\n")
    print(f"wrote estimate to {out} and diagnostics to {diag_path}")
    return 0


# rates CSV columns, each with the parser of its values
_ROW_COLUMNS = {
    "model": str, "target": str, "scheme": str, "rule": str, "rho": float, "n": int,
    "rep": int, "root_seed": int, "m": int, "l": int, "j1": int, "M": int, "u": int,
    "candidate_risk": float, "weight": float, "aggregate_risk": float, "erm_risk": float,
    "chosen_u": int, "universal_risk": lambda text: float(text) if text else None,
}
_CANDIDATE_COLUMNS = ("u", "candidate_risk", "weight")  # the rest is one replication's


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
    """Rebuild experiment results from a rates CSV (inverse of results_to_rows).

    A NaN, a replication column that differs between the rows of one (model,
    target, n, rep), a ``u`` repeated within one, a replication whose ``u``
    are not exactly 0..M-1, or whose ``chosen_u`` is none of them is a data error.
    """
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
                first, by_u = grouped.setdefault(key, (values, {}))
                for column, value in values.items():
                    problem = (
                        "is NaN" if isinstance(value, float) and math.isnan(value)
                        else "repeats within its replication" if column == "u" and value in by_u
                        else "differs from its replication's first row"
                        if column not in _CANDIDATE_COLUMNS and value != first[column] else "")
                    if problem:
                        raise DataError(f"{path}:{reader.line_num}: {column} = {row[column]!r} "
                                        + problem)
                by_u[values["u"]] = (values["candidate_risk"], values["weight"])
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if not grouped:
        raise DataError(f"{path}: no data rows")
    results = []
    for key in sorted(grouped):
        first, by_u = grouped[key]
        us = range(first["M"])
        missing, extra = sorted(set(us) - by_u.keys()), sorted(by_u.keys() - set(us))
        problem = (f"u = {missing} missing" if missing
                   else f"u = {extra} outside 0..M-1" if extra
                   else f"chosen_u = {first['chosen_u']} is none of its u"
                   if first["chosen_u"] not in by_u else "")
        if problem:
            raise DataError(f"{path}: replication (model, target, n, rep) = {key}, "
                            f"M = {first['M']}: {problem}")
        results.append(ExperimentResult(
            **{f.name: first[f.name] for f in fields(ExperimentResult) if f.name in first},
            candidate_risks=tuple(by_u[u][0] for u in us),
            weights=tuple(by_u[u][1] for u in us),
        ))
    return results


def cmd_rates(args) -> int:
    cfg = _config(args)
    with _config_errors():
        config = MonteCarloConfig(
            model=cfg["model"], target=cfg["target"], ns=cfg["n"], reps=cfg["reps"],
            root_seed=cfg["seed"], family=cfg["family"], cascade_depth=cfg["cascade_depth"],
            rule=cfg["rule"], rho=cfg["rho"], grid_size=cfg["grid_size"], noise=cfg["noise"],
            include_universal=cfg["universal"], universal_c=cfg["universal_c"],
        )
    out = Path(args.out)
    summary_path = out.with_suffix(".summary.csv")
    _claim_outputs(out, summary_path)
    results = monte_carlo(config)
    scheme = cfg["scheme"]
    _write_csv(out, list(_ROW_COLUMNS), results_to_rows(results, scheme, config.rule))

    risk_column = "aggregate_risk" if scheme == "AEW" else "erm_risk"
    ns_sorted, means = mean_risk_by_n(results, risk_column)
    slope, stderr = rate_slope(ns_sorted, means)
    s = config.pipeline[0].smoothness[0]
    expected = -1.0 if math.isinf(s) else -2.0 * s / (2.0 * s + 1.0)
    summary_header = ["model", "target", "scheme", "rule", "rho_mode", "reps",
                      "n_values", "slope", "slope_stderr", "expected_slope"]
    summary_row = [
        config.model, config.target, scheme, config.rule,
        "theory" if config.rho is None else _fmt(config.rho),
        config.reps, ";".join(str(n) for n in ns_sorted), slope, stderr, expected,
    ]
    if config.include_universal:
        _, u_means = mean_risk_by_n(results, "universal_risk")
        u_slope, u_stderr = rate_slope(ns_sorted, u_means)
        summary_header += ["universal_slope", "universal_slope_stderr"]
        summary_row += [u_slope, u_stderr]
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
    cfg = _config(args)
    beta1, beta2 = beta_constants(cfg["c"], cfg["K"])
    print(f"beta1 = {_fmt(beta1)}")
    print(f"beta2 = {_fmt(beta2)}")
    return 0


def _check_ongle(args) -> int:
    cfg = _config(args)
    report = verify_ongle(ThresholdRule(cfg["rule"], cfg["c1"], cfg["c2"]),
                          (0.1, 0.5, 1.0, 2.0), 0.01, 10.0)
    print(f"rule = {report.rule_kind}, c1 = {_fmt(report.c1)}, c2 = {_fmt(report.c2)}")
    print(f"points checked = {report.points_checked}")
    if not report.passed:
        x, y, u, lhs, rhs = report.witness
        print(f"FAIL at x={x} y={y} u={u}: lhs={lhs} > rhs={rhs}")
    return _verdict(report.passed, "stability condition violated")


def _coefficient_check(args) -> tuple[dict, TargetFunction, WaveletFamily, tuple]:
    """A coefficient check's config, density target, family and tested (j, k) levels."""
    cfg = _config(args)
    levels = _CHECK_LEVELS[args.command]
    with _config_errors():
        target = get_target(cfg["target"], "density")
        family = build_family(cfg["family"], cfg["cascade_depth"])
        check_levels(family, levels)
    return cfg, target, family, levels


def _check_moment(args) -> int:
    cfg, target, family, levels = _coefficient_check(args)
    report = check_moment(family, target, levels, cfg["n"], cfg["reps"], cfg["seed"])
    for n, m4 in zip(report.ns, report.fourth_moments):
        print(f"n = {n}: E|beta_hat - beta|^4 = {_fmt(m4)}")
    print(f"slope = {report.slope:.4f} +/- {report.stderr:.4f}, band {report.band}")
    return _verdict(report.passed, "moment slope outside band")


def _check_deviation(args) -> int:
    cfg, target, family, levels = _coefficient_check(args)
    report = check_deviation(family, target, cfg["rho"], cfg["a"], cfg["n"][0], cfg["reps"],
                             cfg["seed"], *levels)
    for a, f, b, t in zip(report.a_values, report.frequencies,
                          report.bounds, report.tolerances):
        print(f"a = {a}: frequency = {_fmt(f)}, bound = {_fmt(b)} (+3se {_fmt(t)})")
    return _verdict(report.passed, "deviation frequency above bound")


def _check_oracle(args) -> int:
    epsilon = _config(args)["epsilon"]
    results = rows_to_results(args.input)
    ns = sorted({r.n for r in results})
    if len(ns) > 1:
        print(f"check oracle: kept n = {ns[-1]}, dropped n = "
              + ", ".join(str(n) for n in ns[:-1]), file=sys.stderr)
        results = [r for r in results if r.n == ns[-1]]
    # epsilon is validated, so any ValueError here comes from the rows
    try:
        report = oracle_report(results, epsilon)
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


# each subcommand with its function, its help and the files it reads and writes
_COMMANDS = {
    "simulate": (cmd_simulate, "emit a raw sample file", ("--out",)),
    "estimate": (cmd_estimate, "run the estimator on a sample file", ("--input", "--out")),
    "rates": (cmd_rates, "Monte Carlo rate experiment", ("--out",)),
    "check constants": (_check_constants, "the oracle inequality's residual constants", ()),
    "check ongle": (_check_ongle, "the rule's quadratic stability condition", ()),
    "check moment": (_check_moment, "the fourth-moment hypothesis on coefficients", ()),
    "check deviation": (_check_deviation, "the large-deviation hypothesis on coefficients", ()),
    "check oracle": (_check_oracle, "the oracle inequality on a rates rows CSV", ("--input",)),
}


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a config error (exit 1), not argparse's exit 2."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    """One parser per subcommand, with a flag for exactly the config keys it reads."""
    parser = _Parser(
        prog="multithresh",
        description="Adaptive wavelet estimation by aggregation of thresholded estimators",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    checks = sub.add_parser("check", help="verification reports",
                            allow_abbrev=False).add_subparsers(dest="check", required=True)
    for name, (func, help_text, files) in _COMMANDS.items():
        p = (checks if name.startswith("check ") else sub).add_parser(
            name.removeprefix("check "), help=help_text, allow_abbrev=False)
        p.set_defaults(func=func, command=name)
        p.add_argument("--config", help="flat key = value config file")
        for key, spec in _KEYS.items():
            if name in spec.commands:
                kw = {"action": "store_const", "const": "true"} if spec.parse is _BOOLEAN else {}
                p.add_argument("--" + key.replace("_", "-"), dest=key, help=spec.help, **kw)
        for flag in files:
            p.add_argument(flag, required=True)
        if name == "estimate":
            p.add_argument("--per-candidate", action="store_true",
                           help="also write every candidate's grid values")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ConfigError, DataError, CheckFailure) as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
