"""CLI outputs against the golden files in tests/golden (see record.py there)."""

import importlib.util
import re
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"
NUMBER = re.compile(r"-?\d+(?:\.\d*)?(?:e[-+]?\d+)?")


def _recorder():
    spec = importlib.util.spec_from_file_location("golden_record", GOLDEN / "record.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _numbers_close(got: str, want: str, atol: float) -> bool:
    """Same text between numbers, and every number within ``atol``."""
    if NUMBER.split(got) != NUMBER.split(want):
        return False
    pairs = zip(NUMBER.findall(got), NUMBER.findall(want))
    return all(abs(float(g) - float(w)) <= atol for g, w in pairs)


def test_cli_outputs_match_golden_files(tmp_path):
    outputs = _recorder().produce(tmp_path)
    recorded = {p.name for p in GOLDEN.iterdir() if p.is_file() and p.suffix != ".py"}
    assert set(outputs) == recorded
    for name, got in sorted(outputs.items()):
        want = (GOLDEN / name).read_bytes()
        if "db4" in name:
            assert _numbers_close(got.decode(), want.decode(), 1e-12), name
        else:
            assert got == want, name
