"""The benchmark's traced run wraps package attributes by name; each must exist."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_probe_resolves_to_a_callable(monkeypatch):
    probes = load_tracer(monkeypatch).probes(2 ** 14)
    assert probes
    missing = [(p.module, p.attr) for p in probes
               if not callable(getattr(importlib.import_module(p.module), p.attr, None))]
    assert missing == []
