"""The three benchmark workloads and the comparison of their outputs.

Each workload has a pool of reference keys (root seeds or data seeds) with
outputs recorded from the program in ``refs/<name>.json``. The workload
seed only orders the pool; item ``i`` of a run uses key ``order[i % active]``,
so every input the benchmark can make has a recorded reference.

``run`` times exactly the program call and returns ``(seconds, output)``,
where ``output`` is a JSON-able summary compared with the reference by
``compare``: integers, strings and verdicts must be equal, floats must agree
within the workload's stated tolerance, and ``digest`` (a hash of the full
output) tells whether the item was bit-identical.

Sizes come in two profiles: ``full`` (the measured benchmark) and ``tiny``
(the self-test, whose references are recorded on the fly).
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import random
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracer import Tracer, installed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFS = HERE / "refs"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")

# Derived floats (risks, weights, moments, frequencies) may move in the last
# bits when a later change reorders a sum; 1e-9 relative is far below any
# difference between candidates. Daubechies grid values: 1e-12 absolute.
DERIVED_RTOL = 1e-9
GRID_ATOL = 1e-12


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def compare(got, want, rtol: float, atol: float, path: str = "") -> list[str]:
    """Mismatches between two output summaries (empty when they agree)."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path}: keys differ"]
        return [m for k in want for m in compare(got[k], want[k], rtol, atol, f"{path}.{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: length differs"]
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in compare(g, w, rtol, atol, f"{path}[{i}]")]
    if isinstance(want, float) and not isinstance(want, bool):
        if not isinstance(got, (float, int)) or isinstance(got, bool) \
                or abs(got - want) > rtol * abs(want) + atol:
            return [f"{path}: {got!r} != {want!r}"]
        return []
    if type(got) is not type(want) or got != want:
        return [f"{path}: {got!r} != {want!r}"]
    return []


def load_refs(refs_dir: Path, name: str, config: dict) -> dict:
    data = json.loads((refs_dir / f"{name}.json").read_text())
    if data["config"] != config:
        raise SystemExit(f"{name}: references were recorded for another configuration")
    return data["items"]


def write_refs(refs_dir: Path, name: str, config: dict, items: dict) -> None:
    """One line per reference item, so a re-recording diffs item by item."""
    lines = ['{"config": ' + json.dumps(config, sort_keys=True) + ',', '"items": {']
    body = [json.dumps(str(k)) + ": " + json.dumps(v, sort_keys=True) for k, v in items.items()]
    lines.append(",\n".join(body))
    lines.append("}}")
    refs_dir.mkdir(parents=True, exist_ok=True)
    (refs_dir / f"{name}.json").write_text("\n".join(lines) + "\n")


def pin_threads() -> None:
    """One BLAS/OpenMP thread in this process and every child; call before numpy loads."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


@contextlib.contextmanager
def temp_workdir():
    """A fresh directory under the checkout's .perfbench_work, removed afterwards."""
    root = ROOT / ".perfbench_work"
    root.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=root))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


class Workload:
    """Common pool, ordering and reference handling."""

    name = ""
    profiles: dict[str, dict] = {}
    # set-up runs one untimed warm-up item when the program can keep state
    # (such as a cache) from one item to the next
    keeps_state = True

    def __init__(self, profile: str, seed: int, workdir: Path, refs_dir: Path = REFS):
        self.sizes = self.profiles[profile]
        self.workdir = workdir
        self.refs_dir = refs_dir
        keys = list(self.sizes["keys"])
        self.order = random.Random(seed).sample(keys, len(keys))[: self.sizes["active"]]

    def key(self, item: int):
        return self.order[item % len(self.order)]

    def setup(self) -> None:
        """Import the program, make the inputs, load references, warm up."""
        self.import_program()
        self.prepare(self.order)
        self.refs = load_refs(self.refs_dir, self.name, self.sizes)
        if self.keeps_state:
            self.run(self.order[0])

    def import_program(self) -> None:
        pass

    def prepare(self, keys) -> None:
        pass

    def check(self, key, output) -> list[str]:
        want = self.refs[str(key)]
        return compare(output["values"], want["values"], DERIVED_RTOL, 0.0)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# rates-haar: one replication sweep of the `rates` engine per item
# ---------------------------------------------------------------------------

class RatesHaar(Workload):
    name = "rates-haar"
    profiles = {
        "full": {"keys": list(range(1, 33)), "active": 32,
                 "ns": [512, 1024, 2048, 4096, 8192], "grid_size": 2 ** 14},
        "tiny": {"keys": [1, 2, 3], "active": 3, "ns": [64, 128, 256], "grid_size": 2 ** 10},
    }

    def import_program(self) -> None:
        from multithresh import evaluate

        self.evaluate = evaluate

    def configs(self, root_seed: int):
        return [
            self.evaluate.MonteCarloConfig(
                model=model, target="triangle", ns=tuple(self.sizes["ns"]), reps=1,
                root_seed=root_seed, family="Haar", rule="hard", rho=1.0,
                grid_size=self.sizes["grid_size"], include_universal=True,
            )
            for model in ("density", "regression")
        ]

    def run(self, key, tracer: Tracer | None = None):
        configs = self.configs(key)
        with installed(tracer, self.sizes["grid_size"]) if tracer else contextlib.nullcontext():
            start = time.perf_counter()
            results = [r for cfg in configs for r in self.evaluate.monte_carlo(cfg)]
            elapsed = time.perf_counter() - start
        values = {"replications": [
            {"model": r.model, "n": r.n, "m": r.m, "l": r.l, "j1": r.j1,
             "chosen_u": r.chosen_u, "candidate_risks": list(r.candidate_risks),
             "weights": list(r.weights), "aggregate_risk": r.aggregate_risk,
             "erm_risk": r.erm_risk, "universal_risk": r.universal_risk}
            for r in results
        ]}
        return elapsed, {"values": values, "digest": digest(values)}


# ---------------------------------------------------------------------------
# estimate-db8: one `multithresh estimate` process per item
# ---------------------------------------------------------------------------

def _triangle_regression_file(path: Path, data_seed: int, n: int) -> None:
    """Triangle regression sample with Bernoulli noise, made without the program."""
    import numpy as np

    rng = np.random.default_rng([2006, data_seed])
    x = rng.uniform(size=n)
    mean = 0.5 * (2.0 - np.abs(4.0 * x - 2.0))
    y = (rng.uniform(size=n) < mean).astype(float)
    path.write_text("".join(f"{a:.17g},{b:.17g}\n" for a, b in zip(x.tolist(), y.tolist())))


class EstimateDb8(Workload):
    name = "estimate-db8"
    keeps_state = False  # every item is a fresh process
    profiles = {
        "full": {"keys": list(range(8)), "active": 4, "n": 65536, "grid_size": 2 ** 14,
                 "stride": 256},
        "tiny": {"keys": [0, 1], "active": 2, "n": 2048, "grid_size": 2 ** 10, "stride": 64},
    }

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.peak_kb = 0
        self.input_sha256 = {}

    def input_path(self, key) -> Path:
        return self.workdir / f"sample-{key}.txt"

    def prepare(self, keys) -> None:
        for key in keys:
            path = self.input_path(key)
            _triangle_regression_file(path, key, self.sizes["n"])
            self.input_sha256[key] = hashlib.sha256(path.read_bytes()).hexdigest()

    def setup(self) -> None:
        super().setup()
        for key in self.order:
            if self.input_sha256[key] != self.refs[str(key)]["input_sha256"]:
                raise SystemExit(f"{self.name}: generated input {key} differs from the recorded one")

    def run(self, key, tracer: Tracer | None = None):
        out = self.workdir / "est.csv"
        argv = ["estimate", "--model", "regression", "--family", "Daubechies8",
                "--per-candidate", "--grid-size", str(self.sizes["grid_size"]),
                "--input", str(self.input_path(key)), "--out", str(out)]
        spans = self.workdir / "spans.json"
        if tracer is None:
            cmd = [sys.executable, "-m", "multithresh.cli", *argv]
        else:
            cmd = [sys.executable, str(HERE / "estimate_child.py"), str(spans),
                   str(self.sizes["grid_size"]), *argv]
        err_path = self.workdir / "stderr.txt"
        with open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, env=child_env(), cwd=self.workdir,
                                    stdout=subprocess.DEVNULL, stderr=err)
            try:
                # wait4 gives this child's own peak memory
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            elapsed = time.perf_counter() - start
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        if code != 0:
            raise RuntimeError(f"estimate exited {code}: "
                               f"{err_path.read_text(errors='replace').strip()[-500:]}")
        self.peak_kb = max(self.peak_kb, usage.ru_maxrss)

        diag_path = out.with_suffix(out.suffix + ".diag.txt")
        csv_bytes, diag_bytes = out.read_bytes(), diag_path.read_bytes()
        if tracer is not None:
            record = json.loads(spans.read_text())
            tracer.add_span("cli.startup", start, record["main_entry"])
            tracer.merge(record)
            tracer.count("cli.bytes_written", len(csv_bytes) + len(diag_bytes))
        output = self.summarize(csv_bytes, diag_bytes)
        output["input_sha256"] = self.input_sha256[key]
        return elapsed, output

    def summarize(self, csv_bytes: bytes, diag_bytes: bytes) -> dict:
        lines = csv_bytes.decode().splitlines()
        rows = lines[1:]
        diag = dict(line.split(" = ", 1) for line in diag_bytes.decode().splitlines())
        floats = lambda text: [float(v) for v in text.split(",")]  # noqa: E731
        values = {
            "header": lines[0].split(","),
            "rows": len(rows),
            "strided": [floats(row) for row in rows[:: self.sizes["stride"]]],
            "diag": {
                "model": diag["model"], "scheme": diag["scheme"],
                "j1": int(diag["j1"]), "m": int(diag["m"]), "l": int(diag["l"]),
                "M": int(diag["M"]), "chosen_u": int(diag["chosen_u"]),
                "u_grid": [int(u) for u in diag["u_grid"].split(",")],
                "rho": float(diag["rho"]),
                "empirical_risks": floats(diag["empirical_risks"]),
                "weights": floats(diag["weights"]),
            },
        }
        return {"values": values,
                "digest": hashlib.sha256(csv_bytes + b"\0" + diag_bytes).hexdigest()}

    def check(self, key, output) -> list[str]:
        want = self.refs[str(key)]["values"]
        got = output["values"]
        problems = compare(got["strided"], want["strided"], 0.0, GRID_ATOL, ".strided")
        rest = lambda v: {k: x for k, x in v.items() if k != "strided"}  # noqa: E731
        return problems + compare(rest(got), rest(want), DERIVED_RTOL, 0.0)

    def peak_rss_mb(self) -> float:
        return self.peak_kb / 1024.0


# ---------------------------------------------------------------------------
# checks: the coefficient-hypothesis and stability checks
# ---------------------------------------------------------------------------

class Checks(Workload):
    name = "checks"
    profiles = {
        "full": {"keys": list(range(1, 33)), "active": 32,
                 "moment_ns": [256, 1024, 4096], "moment_reps": 200,
                 "deviation_n": 1024, "deviation_reps": 2000,
                 "ongle_step": 0.01, "grid_size": 2 ** 14},
        "tiny": {"keys": [1, 2, 3], "active": 3,
                 "moment_ns": [64, 128, 256], "moment_reps": 20,
                 "deviation_n": 64, "deviation_reps": 100,
                 "ongle_step": 0.1, "grid_size": 2 ** 10},
    }

    def import_program(self) -> None:
        from multithresh import evaluate, thresholding
        from multithresh.coefficients import min_rho
        from multithresh.simulate import get_target
        from multithresh.wavelets import build_family

        self.evaluate, self.thresholding = evaluate, thresholding
        self.family = build_family("Haar")
        self.target = get_target("uniform", "density")
        self.rho = min_rho(1.0, self.family.psi_sup, "density")

    def run(self, key, tracer: Tracer | None = None):
        s = self.sizes
        rules = [self.thresholding.ThresholdRule(kind) for kind in ("hard", "soft", "garrote")]
        with installed(tracer, s["grid_size"]) if tracer else contextlib.nullcontext():
            start = time.perf_counter()
            moment = self.evaluate.check_moment(
                self.family, self.target, [(2, 0), (3, 1)], s["moment_ns"],
                s["moment_reps"], root_seed=key)
            deviation = self.evaluate.check_deviation(
                self.family, self.target, self.rho, (1.0, 2.0, 3.0, 4.0),
                s["deviation_n"], s["deviation_reps"], root_seed=key)
            ongle = [self.thresholding.verify_ongle(rule, (0.1, 0.5, 1.0, 2.0),
                                                    s["ongle_step"], 10.0)
                     for rule in rules]
            elapsed = time.perf_counter() - start
        values = {
            "moment": {"fourth_moments": list(moment.fourth_moments), "slope": moment.slope,
                       "stderr": moment.stderr, "passed": moment.passed},
            "deviation": {"frequencies": list(deviation.frequencies), "rho": deviation.rho,
                          "passed": deviation.passed},
            "ongle": [{"rule": r.rule_kind, "points_checked": r.points_checked,
                       "passed": r.passed} for r in ongle],
        }
        return elapsed, {"values": values, "digest": digest(values)}


WORKLOADS = {w.name: w for w in (RatesHaar, EstimateDb8, Checks)}


def record_refs(cls, profile: str, workdir: Path, refs_dir: Path) -> None:
    """Run every key of the pool once and store the outputs as references."""
    workload = cls(profile, 0, workdir, refs_dir)
    workload.import_program()
    keys = list(workload.sizes["keys"])
    workload.prepare(keys)
    items = {}
    for key in keys:
        _, items[key] = workload.run(key)
    write_refs(refs_dir, cls.name, workload.sizes, items)
