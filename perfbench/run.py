#!/usr/bin/env python3
"""The multithresh benchmark: one workload per run, closed loop, one client.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload rates-haar --seed 1 --seconds 20 --trace 0

Workloads: rates-haar, estimate-db8, checks (see workloads.py). Items run
back to back in this single process, each starting when the previous one
ends. Every item's output is compared with its recorded reference.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced and traced items, prints the per-layer metrics of the traced ones
and their overhead, and writes every span to ``.perfbench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a human-readable summary. The run exits non-zero without a result when
the program is not present under ``src/``.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NamedTuple  # noqa: E402

from tracer import COUNT_METRICS, SELF_TIME_METRICS, Tracer, share_metric  # noqa: E402
from workloads import REFS, ROOT, SRC, WORKLOADS, pin_threads, temp_workdir  # noqa: E402

pin_threads()

SETUP_REPEATS = 5
MAX_PRINTED_MISMATCHES = 5

END_TO_END_UNITS = {
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for metric in dict.fromkeys(SELF_TIME_METRICS.values()):
        units[metric] = "ms"
        units[share_metric(metric)] = "ratio"
    units["evaluate.universal_ms"] = "ms"
    units.update({metric: "count" for metric in COUNT_METRICS})
    units["thresholding.zeroed_ratio"] = "ratio"
    units["trace.item_ms"] = "ms"
    units["trace.unattributed_share"] = "ratio"
    units["trace.overhead_ratio"] = "ratio"
    units["src.lines"] = "count"
    return units


def machine() -> str:
    import numpy

    return (f"nproc {os.cpu_count()}, {platform.machine()}, "
            f"python {platform.python_version()}, numpy {numpy.__version__}")


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


def tail(latencies_ms: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples beyond). With ten samples or fewer no
    such percentile exists, and the maximum is reported instead.
    """
    ordered = sorted(latencies_ms)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def setup_probe(args) -> float:
    """Set-up time of a fresh process doing the same set-up as this run."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--profile", args.profile,
           "--refs", str(args.refs), "--setup-only"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=150, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


class Item(NamedTuple):
    index: int
    seconds: float
    ok: bool
    traced: bool
    identical: bool  # bit-identical to the reference


def run_items(workload, seconds: float, trace: bool, interludes=()):
    """Closed loop until the time is up; in trace mode odd items are traced.

    ``interludes`` are calls made between items at evenly spread points of
    the run; the time they take is not counted against ``seconds``.
    """
    tracer = Tracer() if trace else None
    items: list[Item] = []
    pending = list(interludes)
    slots = len(pending) + 1
    paused = 0.0
    begin = time.perf_counter()
    measured = lambda: time.perf_counter() - begin - paused  # noqa: E731
    i = 0
    while i < (2 if trace else 1) or measured() < seconds:
        traced = trace and i % 2 == 1
        key = workload.key(i)
        if tracer is not None:
            tracer.item = i
        start = time.perf_counter()
        try:
            elapsed, output = workload.run(key, tracer if traced else None)
            problems = workload.check(key, output)
            identical = output["digest"] == workload.refs[str(key)]["digest"]
        except Exception as exc:  # an item that raises counts as failed
            elapsed, problems, identical = time.perf_counter() - start, [repr(exc)], False
        for problem in problems[:MAX_PRINTED_MISMATCHES]:
            print(f"item {i} (key {key}) mismatch: {problem}", file=sys.stderr)
        items.append(Item(i, elapsed, not problems, traced, identical))
        i += 1
        if pending and measured() >= seconds * (slots - len(pending)) / slots:
            start = time.perf_counter()
            pending.pop(0)()
            paused += time.perf_counter() - start
    for call in pending:
        call()
    return items, tracer


def end_to_end(items: list[Item], setups: list[float], peak_rss_mb: float):
    lat_ms = [1e3 * it.seconds for it in items]
    tail_ms, pct, beyond = tail(lat_ms)
    metrics = {
        "items_per_s": sum(it.ok for it in items) / (sum(lat_ms) / 1e3),
        "item_p50_ms": statistics.median(lat_ms),
        "item_tail_ms": tail_ms,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
    }
    notes = {
        "items_per_s": "completed items over the summed item time",
        "item_p50_ms": f"median of {len(lat_ms)} items",
        "item_tail_ms": f"p{pct:.1f} of {len(lat_ms)} items, {beyond} beyond",
        "setup_s": f"median of {len(setups)} set-ups: "
                   + ", ".join(f"{s:.3f}" for s in setups),
    }
    return metrics, notes


def per_layer(items: list[Item], tracer: Tracer):
    """Means over the traced items; shares are of the mean traced item time."""
    traced = [it for it in items if it.traced]
    plain = [it for it in items if not it.traced]
    rows = [tracer.item_metrics(it.index) for it in traced]
    mean = lambda m: statistics.fmean(row.get(m, 0.0) for row in rows)  # noqa: E731
    item_ms = statistics.fmean(1e3 * it.seconds for it in traced)
    self_metrics = list(dict.fromkeys(SELF_TIME_METRICS.values()))
    metrics = {}
    for metric in self_metrics:
        metrics[metric] = mean(metric)
        metrics[share_metric(metric)] = metrics[metric] / item_ms
    metrics["evaluate.universal_ms"] = mean("evaluate.universal_ms")
    metrics.update({metric: mean(metric) for metric in COUNT_METRICS})
    coeffs = mean("thresholding.coeffs")
    metrics["thresholding.zeroed_ratio"] = mean("thresholding.zeroed") / coeffs if coeffs else 0.0
    metrics["trace.item_ms"] = item_ms
    metrics["trace.unattributed_share"] = 1.0 - sum(metrics[m] for m in self_metrics) / item_ms
    metrics["trace.overhead_ratio"] = item_ms / statistics.fmean(1e3 * it.seconds for it in plain)
    metrics["src.lines"] = src_lines()
    notes = {metric: "counted calls" if metric.endswith("_calls")
             else "computed from array, report or file sizes" for metric in COUNT_METRICS}
    notes["evaluate.universal_ms"] = "inclusive time of the universal baseline"
    notes["trace.item_ms"] = f"mean of {len(traced)} traced items"
    notes["trace.overhead_ratio"] = f"over {len(plain)} untraced items"
    notes["src.lines"] = "informational"
    units = per_layer_units()
    return {m: metrics[m] for m in units}, notes


def print_summary(args, items: list[Item], metrics: dict, units: dict, notes: dict) -> None:
    failed = sum(not it.ok for it in items)
    identical = sum(it.identical for it in items)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}  profile {args.profile}")
    print(f"machine: {machine()}; BLAS/OpenMP threads pinned to 1; closed loop, one client")
    print(f"items attempted {len(items)}, failed {failed}, "
          f"failed_ratio {failed / len(items):.6g} (ratio); "
          f"bit-identical to reference {identical}/{len(items)}")
    for metric, value in metrics.items():
        note = f"  ({notes[metric]})" if metric in notes else ""
        print(f"  {metric:32s} {value:16.6g} {units[metric]}{note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", choices=("full", "tiny"), default="full",
                        help="input sizes; 'tiny' is for the self-test")
    parser.add_argument("--refs", type=Path, default=REFS, help="reference directory")
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time and exit")
    args = parser.parse_args(argv)

    if not (SRC / "multithresh" / "__init__.py").is_file():
        print(f"error: the program is not present under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    with temp_workdir() as workdir:
        workload = WORKLOADS[args.workload](args.profile, args.seed, workdir, args.refs)
        workload.setup()
        setup_s = time.perf_counter() - T_START
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.trace:
            items, tracer = run_items(workload, args.seconds, True)
            metrics, notes = per_layer(items, tracer)
            units = per_layer_units()
            out_dir = ROOT / ".perfbench_out"
            out_dir.mkdir(exist_ok=True)
            tracer.dump(out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl")
        else:
            # the other set-ups run between items, spread over the run, so that
            # their median sees the same drift of machine speed as the items
            setups = [setup_s]
            probe = lambda: setups.append(setup_probe(args))  # noqa: E731
            items, _ = run_items(workload, args.seconds, False, [probe] * (SETUP_REPEATS - 1))
            metrics, notes = end_to_end(items, setups, workload.peak_rss_mb())
            units = END_TO_END_UNITS

    print_summary(args, items, metrics, units, notes)
    failed = sum(not it.ok for it in items)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(items),
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
