#!/usr/bin/env python3
"""Fast smoke test of the benchmark itself, at tiny input sizes.

Usage, from the root of a checkout:

    python3 perfbench/selftest.py

For every workload it records tiny references on the fly, then checks that

  - a traced item returns the same outputs as an untraced one;
  - an untraced run emits every end-to-end metric of BENCHMARK.json with its
    unit and reports no failed item;
  - a traced run emits every per-layer metric with its unit;
  - a deliberately corrupted reference makes items fail.

It exits non-zero at the first broken expectation.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

from tracer import Tracer
from workloads import ROOT, SRC, WORKLOADS, pin_threads, record_refs, temp_workdir

HERE = Path(__file__).resolve().parent


def run_bench(workload: str, refs: Path, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--profile", "tiny", "--refs", str(refs)],
        capture_output=True, text=True, timeout=170, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def expect_metrics(result: dict, declared: list[dict], what: str) -> None:
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    expect(got == want, f"{what}: emitted {sorted(got.items())}, declared {sorted(want.items())}")


def perturb_first_float(values):
    """Return a copy of ``values`` with its first float moved far beyond tolerance."""
    done = False

    def walk(v):
        nonlocal done
        if isinstance(v, dict):
            return {k: walk(x) for k, x in v.items()}
        if isinstance(v, list):
            return [walk(x) for x in v]
        if isinstance(v, float) and not done:
            done = True
            return v * (1.0 + 1e-6) + 1e-9
        return v

    out = walk(values)
    expect(done, "reference holds no float to corrupt")
    return out


def corrupt(refs: Path, bad: Path, name: str) -> None:
    shutil.copytree(refs, bad)
    path = bad / f"{name}.json"
    data = json.loads(path.read_text())
    for item in data["items"].values():
        item["values"] = perturb_first_float(item["values"])
    path.write_text(json.dumps(data))


def main() -> int:
    pin_threads()
    sys.path.insert(0, str(SRC))
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    with temp_workdir() as work:
        refs = work / "refs"
        for name, cls in WORKLOADS.items():
            wl_dir = work / name
            wl_dir.mkdir()
            record_refs(cls, "tiny", wl_dir, refs)

            workload = cls("tiny", 1, wl_dir, refs)
            workload.setup()
            key = workload.key(0)
            _, plain = workload.run(key)
            tracer = Tracer()
            tracer.item = 0
            _, traced = workload.run(key, tracer)
            expect(tracer.spans, f"{name}: the traced item recorded no span")
            expect(traced == plain, f"{name}: tracing changed the outputs")

            result = run_bench(name, refs, 0)
            expect(result["correct"] and result["failed"] == 0,
                   f"{name}: untraced run failed against fresh references")
            expect_metrics(result, declared["end_to_end"], f"{name} end-to-end")

            result = run_bench(name, refs, 1)
            expect(result["correct"], f"{name}: traced run failed against fresh references")
            expect_metrics(result, declared["per_layer"], f"{name} per-layer")

            corrupt(refs, work / f"bad-{name}", name)
            result = run_bench(name, work / f"bad-{name}", 0)
            expect(result["failed"] > 0 and not result["correct"],
                   f"{name}: a corrupted reference was not detected")
            print(f"selftest {name}: ok (failed_ratio with a corrupted reference "
                  f"{result['failed']}/{result['attempted']})")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
