"""The scripts under scripts/ run end to end at small sizes."""

import contextlib
import csv
import importlib.util
import io
from pathlib import Path

from multithresh import cli

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_rate_experiment_writes_rows_and_a_summary_per_model(tmp_path):
    with contextlib.redirect_stdout(io.StringIO()):
        code = load_script("run_rate_experiment").run(["--outdir", str(tmp_path), "--reps", "1"])
    assert code == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        f"rates_{model}_triangle{suffix}" for model in ("density", "regression")
        for suffix in (".csv", ".summary.csv")]
    for model in ("density", "regression"):
        rows = tmp_path / f"rates_{model}_triangle.csv"
        assert rows.read_text().splitlines()[0].split(",") == list(cli._ROW_COLUMNS)
        with open(rows.with_suffix(".summary.csv"), newline="") as fh:
            assert next(csv.DictReader(fh))["n_values"] == "512;1024;2048;4096;8192"
