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


def test_one_candidate_build_records_its_synthesis_and_thresholding_spans(monkeypatch):
    # the candidates are one thresholded stack: one thresholding call for all of
    # them, and one synthesis of the stack at the learning points and one on the grid
    from multithresh import aggregation
    from multithresh.simulate import get_target, sample_density
    from multithresh.thresholding import ThresholdRule
    from multithresh.wavelets import build_family

    tracer_module = load_tracer(monkeypatch)
    grid_size = 2 ** 10
    sample = sample_density(get_target("triangle", "density"), 1024, 3)
    loss = aggregation.LossSpec("density", 2.0, grid_size)
    tracer = tracer_module.Tracer()
    with tracer_module.installed(tracer, grid_size):
        candidates, diag = aggregation.multi_threshold_candidates(
            sample, build_family("Haar"), ThresholdRule("hard"), loss, rho=1.0)
    names = [span[0] for span in tracer.spans]
    assert diag.M == len(candidates) > 2
    assert names.count("wavelets.grid_synth") == 1
    assert names.count("wavelets.point_synth") == 1
    assert names.count("thresholding") == 1
    assert names.count("aggregation") == 1
    counts = {key: value for (_, key), value in tracer.counts.items()}
    assert counts["wavelets.grid_synth_calls"] == 1
    assert counts["aggregation.candidates"] == diag.M
