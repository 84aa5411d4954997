#!/usr/bin/env python3
"""Record small-size CLI outputs as golden files, or reproduce them.

Usage: PYTHONPATH=src python tests/golden/record.py

Runs ``simulate``, ``estimate --per-candidate`` (AEW, and ERM once), ``rates``
and every ``check`` subcommand at small sizes and writes each output beside
this script. The golden test calls ``produce`` and compares its outputs with
the files: Haar outputs byte for byte, Daubechies outputs (names containing
"db") number by number within 1e-12 absolute. Re-record only for an intended
change of output.
"""

from __future__ import annotations

import contextlib
import io
import sys
import tempfile
from pathlib import Path

from multithresh.cli import main

HERE = Path(__file__).resolve().parent

CHECKS = {
    "check_constants": ["constants", "--c", "16", "--K", "1"],
    "check_ongle_hard": ["ongle", "--rule", "hard"],
    "check_ongle_soft": ["ongle", "--rule", "soft"],
    "check_ongle_garrote": ["ongle", "--rule", "garrote"],
    "check_ongle_fail": ["ongle", "--rule", "hard", "--c1", "0.5"],
    # fails at x row 1010 of the first u, far past the first 64-row tile
    "check_ongle_late": ["ongle", "--rule", "hard", "--c1", "2", "--c2", "1"],
    "check_moment": ["moment", "--n", "64,128,256", "--reps", "40", "--seed", "3"],
    "check_moment_db4": ["moment", "--family", "Daubechies4", "--n", "64,128,256",
                         "--reps", "40", "--seed", "3"],
    "check_deviation": ["deviation", "--n", "128", "--reps", "400", "--seed", "5"],
}


def _run(argv: list[str]) -> tuple[int, bytes]:
    """Exit code and stdout of one in-process CLI call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([str(a) for a in argv])
    return code, out.getvalue().encode()


def produce(workdir: Path) -> dict[str, bytes]:
    """Every golden output, keyed by file name, made inside ``workdir``."""
    outputs: dict[str, bytes] = {}

    def keep(name: str, path: Path) -> None:
        outputs[name] = path.read_bytes()

    density = workdir / "density.txt"
    regression = workdir / "regression.txt"
    _run(["simulate", "--model", "density", "--target", "triangle", "--n", 512,
          "--seed", 7, "--out", density])
    _run(["simulate", "--model", "regression", "--target", "bump", "--n", 512,
          "--seed", 8, "--out", regression])
    keep("simulate_density.txt", density)
    keep("simulate_regression.txt", regression)

    # the 1000-point grid is not dyadic, so it takes the pointwise synthesis path
    for name, model, sample, family, grid_size in [
        ("estimate_haar", "density", density, "Haar", 1024),
        ("estimate_db4", "regression", regression, "Daubechies4", 1024),
        ("estimate_db8_grid1000", "regression", regression, "Daubechies8", 1000),
    ]:
        est = workdir / f"{name}.csv"
        _run(["estimate", "--model", model, "--family", family, "--rho", "1.0",
              "--grid-size", grid_size, "--per-candidate", "--input", sample, "--out", est])
        keep(f"{name}.csv", est)
        keep(f"{name}.csv.diag.txt", est.with_suffix(".csv.diag.txt"))
    # an ERM estimate is one candidate's row: --per-candidate adds no columns
    erm = workdir / "estimate_haar_erm.csv"
    _run(["estimate", "--model", "density", "--family", "Haar", "--scheme", "ERM", "--rho", "1.0",
          "--grid-size", 1024, "--per-candidate", "--input", density, "--out", erm])
    keep("estimate_haar_erm.csv", erm)
    keep("estimate_haar_erm.csv.diag.txt", erm.with_suffix(".csv.diag.txt"))

    for name, model, family in [("rates_haar", "density", "Haar"),
                                ("rates_db4", "regression", "Daubechies4")]:
        rows = workdir / f"{name}.csv"
        _run(["rates", "--model", model, "--target", "triangle", "--family", family,
              "--n", "64,128,256", "--reps", 2, "--seed", 9, "--rho", "1.0",
              "--grid-size", 1024, "--universal", "--out", rows])
        keep(f"{name}.csv", rows)
        keep(f"{name}.summary.csv", rows.with_suffix(".summary.csv"))

    checks = dict(CHECKS, check_oracle=["oracle", "--input", workdir / "rates_haar.csv"])
    for name, argv in checks.items():
        code, stdout = _run(["check", *argv])
        outputs[f"{name}.txt"] = f"exit {code}\n".encode() + stdout
    return outputs


def record() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in produce(Path(tmp)).items():
            (HERE / name).write_bytes(data)
            print(f"wrote {name} ({len(data)} bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(record())
