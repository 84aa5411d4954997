"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``. The Monte Carlo criteria
use fixed root seeds, so every verdict here is deterministic.
"""

import math
import time

import numpy as np

from multithresh.aggregation import (
    LossSpec,
    aggregate_mixture,
    beta_constants,
    multi_threshold_candidates,
)
from multithresh.coefficients import min_rho
from multithresh.evaluate import (
    MonteCarloConfig,
    check_deviation,
    check_moment,
    mean_risk_by_n,
    monte_carlo,
    oracle_report,
    rate_slope,
)
from multithresh.cli import main as cli_main
from multithresh.simulate import derive_rng, get_target, sample_density, sample_regression
from multithresh.thresholding import ThresholdRule, verify_ongle
from multithresh.wavelets import (
    WaveletExpansion,
    analyze,
    build_family,
    eval_periodized,
    midpoint_grid,
    synthesize_at,
)


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}")


def test_criterion_1_wavelet_round_trip():
    """Haar analyze/synthesize identity and Daubechies-4 orthonormality."""
    start = time.perf_counter()
    haar = build_family("Haar", 12)
    rng = np.random.default_rng(2024)
    worst = 0.0
    for j_max in range(0, 11):
        e = WaveletExpansion(0, rng.standard_normal(2 << j_max))
        values = synthesize_at(haar, e, midpoint_grid(2 ** 12))
        back = analyze(haar, values, j_max, 2 ** 12)
        worst = max(worst, float(np.abs(back.alpha - e.alpha).max()))
        for got, want in zip(back.beta, e.beta):
            worst = max(worst, float(np.abs(got - want).max()))

    db4 = build_family("Daubechies4", 12)
    grid = midpoint_grid(2 ** 16)
    rows = [eval_periodized(db4, "scaling", 2, k, grid) for k in range(4)]
    for j in range(2, 6):
        rows += [eval_periodized(db4, "wavelet", j, k, grid) for k in range(1 << j)]
    V = np.array(rows)
    gram_err = float(np.abs(V @ V.T / len(grid) - np.eye(len(rows))).max())
    elapsed = time.perf_counter() - start

    passed = worst <= 1e-12 and gram_err <= 1e-3 and elapsed < 10.0
    report("criterion 1 (round-trip/orthonormality)", passed,
           f"haar max coeff err {worst:.2e} (<=1e-12), db4 gram err "
           f"{gram_err:.2e} (<=1e-3), {elapsed:.1f}s (<10s)")
    assert worst <= 1e-12
    assert gram_err <= 1e-3
    assert elapsed < 10.0


def test_criterion_2_thresholding_stability_condition():
    """All three rules satisfy the quadratic stability condition on the grid."""
    start = time.perf_counter()
    outcomes = {}
    for kind in ("hard", "soft", "garrote"):
        rule = ThresholdRule(kind)
        rep = verify_ongle(rule, (0.1, 0.5, 1.0, 2.0), 0.01, 10.0)
        outcomes[kind] = rep
    elapsed = time.perf_counter() - start
    passed = all(r.passed for r in outcomes.values()) and elapsed < 60.0
    detail = ", ".join(
        f"{k} (c1={r.c1:g}, c2={r.c2:g}): {'ok' if r.passed else r.witness}"
        for k, r in outcomes.items())
    report("criterion 2 (stability condition)", passed, f"{detail}, {elapsed:.1f}s (<60s)")
    for rep in outcomes.values():
        assert rep.passed, rep.witness
    assert elapsed < 60.0


def test_criterion_3_beta_constants():
    """beta_constants(16, 1) equals (1/9216, 1/18432) to 1e-12 relative."""
    ln2 = math.log(2.0)
    beta1, beta2 = beta_constants(16.0, 1.0)
    b1_terms = [ln2 / (96 * 16), 3 * math.sqrt(ln2) / (16 * math.sqrt(2)),
                1 / (8 * (64 + 1 / 3)), 1 / (576 * 16)]
    b2_terms = [1 / 8, 3 * ln2 / 32, 1 / (2 * (256 + 1 / 3)), beta1 / 2]
    stated_branches = (b1_terms[3], b2_terms[3])  # 1/(576c) and beta1/2 minima
    ok = (
        abs(beta1 - 1 / 9216) <= 1e-12 / 9216
        and abs(beta2 - 1 / 18432) <= 1e-12 / 18432
        and beta1 == min(b1_terms) == stated_branches[0]
        and beta2 == min(b2_terms) == stated_branches[1]
    )
    report("criterion 3 (constants)", ok,
           f"beta1 = {beta1:.12e} (1/9216), beta2 = {beta2:.12e} (1/18432), "
           "minima on the stated branches")
    assert ok


def test_criterion_4_coefficient_hypotheses():
    """Fourth-moment decay slope and large-deviation exceedances."""
    start = time.perf_counter()
    haar = build_family("Haar", 12)
    uniform = get_target("uniform", "density")

    moment = check_moment(haar, uniform, [(2, 0), (3, 1)],
                          ns=(256, 1024, 4096), reps=10 ** 4, root_seed=41)
    rho = min_rho(1.0, 1.0, "density")
    deviation = check_deviation(haar, uniform, rho, (1.0, 2.0, 3.0, 4.0),
                                n=1024, reps=10 ** 5, root_seed=43)
    elapsed = time.perf_counter() - start

    zero_exceed = all(f == 0.0 for f in deviation.frequencies)
    passed = moment.passed and deviation.passed and zero_exceed and elapsed < 300.0
    report("criterion 4 (moment/deviation hypotheses)", passed,
           f"moment slope {moment.slope:.3f} in [-2.3, -1.7]; deviation "
           f"frequencies {deviation.frequencies} at rho={rho:.4f} "
           f"(expected all zero); {elapsed:.0f}s (<300s)")
    assert moment.passed, moment
    assert deviation.passed and zero_exceed, deviation
    assert elapsed < 300.0


def test_criterion_5_jensen_convexity():
    """Mixture true risk never exceeds the weighted candidate true risks."""
    rule = ThresholdRule("hard")
    grid_size = 2 ** 14
    grid = midpoint_grid(grid_size)
    failures = 0
    checked = 0
    for model in ("density", "regression"):
        target = get_target("triangle", model)
        loss = LossSpec("regression", 1.0, grid_size) if model == "regression" \
            else LossSpec("density", target.bound, grid_size)
        family = build_family("Haar", 12)
        tvals = target(grid)
        for rep in range(100):
            rng = derive_rng(55, rep)
            if model == "density":
                sample = sample_density(target, 1024, rng)
            else:
                sample = sample_regression(target, 1024, "bernoulli", rng)
            rows, diag = multi_threshold_candidates(sample, family, rule, loss)
            risks = np.array([np.mean((row - tvals) ** 2) for row in rows])
            mix = aggregate_mixture(rows, diag.weights, loss)
            mix_risk = float(np.mean((mix - tvals) ** 2))
            checked += 1
            if mix_risk > float(diag.weights @ risks) + 1e-10:
                failures += 1
    report("criterion 5 (aggregation convexity)", failures == 0,
           f"{checked - failures}/{checked} replications satisfy "
           "risk(mixture) <= weighted candidate risks + 1e-10")
    assert failures == 0


def test_criterion_6_oracle_behavior():
    """Formal oracle bound plus the sharper desk-scale comparison.

    The criterion leaves rho open; this check runs the practical rho = 2
    (the deviation-valid rho also satisfies the formal bound, but its sharp
    ratio for the density model sits near 1.4 -- see the rates experiment
    for the practical-rho regime the estimator is actually run in).
    """
    start = time.perf_counter()
    lines = []
    all_ok = True
    for model in ("density", "regression"):
        for tname in ("bump", "triangle"):
            cfg = MonteCarloConfig(model=model, target=tname, ns=(1024,),
                                   reps=200, rho=2.0, root_seed=61)
            results = monte_carlo(cfg)
            rep = oracle_report(results, epsilon=1.0)
            ok = rep.passed_formal and rep.passed_sharp
            all_ok = all_ok and ok
            lines.append(
                f"{model}/{tname}: LHS={rep.lhs:.4f}, "
                f"RHS={rep.rhs:.1f} (residual {rep.residual:.0f}), "
                f"ratio={rep.ratio:.3f}, sharp<= {rep.sharp_threshold:.4f} "
                f"{'ok' if ok else 'VIOLATED'}")
    elapsed = time.perf_counter() - start
    passed = all_ok and elapsed < 600.0
    report("criterion 6 (oracle behavior)", passed,
           "; ".join(lines) + f"; {elapsed:.0f}s (<600s)")
    assert all_ok
    assert elapsed < 600.0


def test_criterion_7_rate_reproduction():
    """Triangle-target rate slopes for both models at practical rho = 1."""
    start = time.perf_counter()
    ns = (512, 1024, 2048, 4096, 8192)
    lines = []
    all_ok = True
    for model in ("density", "regression"):
        cfg = MonteCarloConfig(model=model, target="triangle", ns=ns, reps=100,
                               rho=1.0, root_seed=71, include_universal=True)
        results = monte_carlo(cfg)
        ns_sorted, means = mean_risk_by_n(results, "aggregate_risk")
        slope, stderr = rate_slope(ns_sorted, means)
        _, u_means = mean_risk_by_n(results, "universal_risk")
        u_slope, u_stderr = rate_slope(ns_sorted, u_means)
        in_band = -0.80 <= slope <= -0.52
        at_least_as_steep = slope <= u_slope + math.hypot(stderr, u_stderr)
        ok = in_band and at_least_as_steep
        all_ok = all_ok and ok
        lines.append(
            f"{model}: slope {slope:.3f}+/-{stderr:.3f} "
            f"(band [-0.80, -0.52], expected -2/3), universal "
            f"{u_slope:.3f}+/-{u_stderr:.3f} {'ok' if ok else 'VIOLATED'}")
    elapsed = time.perf_counter() - start
    passed = all_ok and elapsed < 1200.0
    report("criterion 7 (rate reproduction)", passed,
           "; ".join(lines) + f"; {elapsed:.0f}s (<1200s)")
    assert all_ok
    assert elapsed < 1200.0


def test_criterion_8_rates_determinism(tmp_path):
    """The rates subcommand is byte-identical across identical runs."""
    args = ["rates", "--model", "density", "--target", "triangle",
            "--n", "128,256,512", "--reps", "3", "--seed", "42",
            "--rho", "1.0", "--grid-size", "4096"]
    out1 = tmp_path / "run1.csv"
    out2 = tmp_path / "run2.csv"
    assert cli_main(args + ["--out", str(out1)]) == 0
    assert cli_main(args + ["--out", str(out2)]) == 0
    rows_same = out1.read_bytes() == out2.read_bytes()
    summary_same = (tmp_path / "run1.summary.csv").read_bytes() == \
        (tmp_path / "run2.summary.csv").read_bytes()
    report("criterion 8 (determinism)", rows_same and summary_same,
           "rates rows and summary CSV byte-identical across reruns")
    assert rows_same and summary_same
