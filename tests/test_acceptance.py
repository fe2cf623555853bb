"""Acceptance suite: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.  The calibrated shell-ratio constant below was fixed once
against the brute-force oracle (observed sup ratios 0.65-0.85 for d=3 up to
D=200) and is not tuned per run.
"""

import math
import time

import numpy as np
import pytest

from expsumlab import (
    ExperimentSpec,
    FrequencySpectrum,
    SeedSpec,
    TimeMap,
    even_norm_coeff,
    exact_even_moment,
    exact_even_moment_poisson,
    lp_norm_quadrature,
    mc_even_moment,
    slope_fit,
)
from expsumlab.bounds import divisor_sieve, verification_suite
from expsumlab.lattice import (
    divisor_summatories,
    greenruzsa_generate,
    shell_counts,
    shell_sup_ratio,
    sparsity_count,
)
from expsumlab.majorant import genericity_experiment, majorant_ratio

EULER_GAMMA = 0.5772156649015329
CALIBRATED_SHELL_RATIO = 2.0  # d=3 oracle runs peak near 0.85; fixed with margin


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_c01_shell_fast_matches_brute_exhaustive():
    started = time.time()
    mismatches = 0
    checked = 0
    for d in (2, 3, 4, 5):
        # one call per counter over every window of d; d = 2 makes 17.2 million brute rows
        E, Ds = zip(*[(float(e), float(D)) for D in range(1, 51) for e in range(D, min(D * D, 5000) + 1)])
        checked += len(E)
        brute, fast = (shell_counts(d, E, Ds, method)[0] for method in ("brute", "fast"))
        mismatches += int(np.count_nonzero(brute != fast))
    elapsed = time.time() - started
    ok = mismatches == 0 and elapsed < 120.0
    report(1, "shell fast == brute, exhaustive grid", ok,
           f"({checked} queries, {mismatches} mismatches, {elapsed:.1f}s)")


def test_c02_shell_sup_ratio_scaling():
    points = []
    ratios = []
    for D in (10, 20, 50, 100, 200):
        count, ratio, _ = shell_sup_ratio(3, float(D), 50_000)
        points.append((float(D), float(count)))
        ratios.append(ratio)
    fit = slope_fit(points)
    lo, hi = 2 / 3 - 0.15, 2 / 3 + 0.15
    ok = lo <= fit.slope <= hi and all(r <= CALIBRATED_SHELL_RATIO for r in ratios)
    report(2, "shell sup-count scaling for d=3", ok,
           f"(slope {fit.slope:.3f} in [{lo:.3f},{hi:.3f}], max ratio {max(ratios):.3f})")


def _scaling_slope(process: str, seed_base: int) -> float:
    points = []
    for M in (16, 32, 64, 128, 256):
        spec = ExperimentSpec(
            process, tuple(range(1, M + 1)), TimeMap("identity"), 4.0, 200,
            SeedSpec(seed_base, M),
        )
        est = mc_even_moment(spec)
        points.append((float(M), est.mean))
    return slope_fit(points).slope


def test_c03_poisson_fourth_moment_growth():
    started = time.time()
    slope = _scaling_slope("poisson", 42)
    elapsed = time.time() - started
    ok = 2.8 <= slope <= 3.2 and elapsed < 300.0
    report(3, "poisson fourth-moment growth exponent", ok,
           f"(slope {slope:.3f}, {elapsed:.1f}s)")


def test_c04_walk_fourth_moment_growth():
    slope = _scaling_slope("walk", 43)
    ok = 3.3 <= slope <= 3.7
    report(4, "random-walk fourth-moment growth exponent", ok, f"(slope {slope:.3f})")


def test_c05_square_frequency_average_bound():
    gen = SeedSpec(505).generator(0)
    index_sets = [tuple(range(1, 65))]
    for _ in range(20):
        subset = np.sort(gen.choice(np.arange(1, 257), size=64, replace=False))
        index_sets.append(tuple(int(v) for v in subset))
    upper_scale = 64**2 * math.log(1 + 64) ** 1.5
    fitted = []
    ok = True
    for i, A in enumerate(index_sets):
        spec = ExperimentSpec("poisson", A, TimeMap("power", d=2), 4.0, 200, SeedSpec(505, i + 1))
        est = mc_even_moment(spec)
        if not (64**2 <= est.mean + 5 * est.std_error and est.mean <= 10 * upper_scale):
            ok = False
        fitted.append(est.mean / upper_scale)
    report(5, "square-power fourth moment sandwich over 21 sets", ok,
           f"(fitted constant max {max(fitted):.3f})")


def test_c06_spread_progression_moment_window():
    r = 2.0
    ok = True
    details = []
    for M in (16, 32, 64, 128, 256):
        spec = ExperimentSpec(
            "poisson", tuple(range(1, M + 1)), TimeMap("arith", r=r), 4.0, 200, SeedSpec(12, M)
        )
        est = mc_even_moment(spec)
        lo = 0.5 * M * M
        hi = 10.0 * (M * M * math.log(M) + M ** (3.0 - r))
        good = lo <= est.mean + 5 * est.std_error and est.mean - 5 * est.std_error <= hi
        ok = ok and good
        details.append(f"M={M}:{est.mean:.0f}")
    report(6, "spread-progression fourth moment window", ok, "(" + " ".join(details) + ")")


def test_c07_exact_engine_matches_monte_carlo():
    exact = exact_even_moment_poisson([1.0, 2.0, 3.0], 2, 1e-8)
    spec = ExperimentSpec("poisson", (1, 2, 3), TimeMap("identity"), 4.0, 100_000, SeedSpec(7))
    est = mc_even_moment(spec)
    gap = abs(est.mean - exact)
    ok = gap <= 5 * est.std_error
    report(7, "exact coincidence engine vs Monte Carlo", ok,
           f"(exact {exact:.5f}, mc {est.mean:.5f}, gap/SE {gap / est.std_error:.2f})")


def test_c08_inequality_grids_all_hold():
    started = time.time()
    reports = verification_suite(quick=False)
    elapsed = time.time() - started
    failures = [r.name for r in reports if not r.ok]
    ok = not failures and elapsed < 60.0
    report(8, "inequality grids (concentration, modes, Robbins, transfers)", ok,
           f"({sum(r.checked for r in reports)} checks, {elapsed:.1f}s, failures={failures})")


def test_c09_divisor_oracle_and_error_scan():
    top_eq = 100_000
    top_scan = 1_000_000
    sums = divisor_sieve(top_scan)
    hyperbola = divisor_summatories(np.arange(1, top_eq + 1, dtype=np.int64))
    mismatch = int(np.count_nonzero(hyperbola != sums[1 : top_eq + 1]))
    xs = np.arange(1, top_scan + 1, dtype=np.float64)
    delta = sums[1:].astype(np.float64) - xs * np.log(xs) - (2 * EULER_GAMMA - 1) * xs
    violations = int(np.count_nonzero(np.abs(delta) > 2.0 * np.sqrt(xs)))
    ok = mismatch == 0 and violations == 0
    report(9, "divisor summatory oracle + error-term scan", ok,
           f"(oracle mismatches {mismatch}, scan violations {violations}, "
           f"max |err|/sqrt(x) {np.max(np.abs(delta) / np.sqrt(xs)):.3f})")


def test_c10_quadrature_exactness_random_spectra():
    gen = SeedSpec(808).generator(0)
    worst = 0.0
    for _ in range(200):
        size = int(gen.integers(1, 9))
        freqs = sorted(int(v) for v in gen.integers(0, 51, size=size))
        spectrum = FrequencySpectrum.unit(freqs)
        span = max(freqs) - min(freqs)
        for n in (1, 2, 3):
            nodes = 2 * n * span + 1
            quad = lp_norm_quadrature(spectrum, 2 * n, nodes)
            exact = even_norm_coeff(spectrum, n)
            worst = max(worst, abs(quad - exact) / exact)
    ok = worst < 1e-9
    report(10, "quadrature exactness on 200 random spectra", ok, f"(worst rel err {worst:.2e})")


def test_c11_digit_set_sparsity_bound():
    gen = SeedSpec(909).generator(0)
    violations = 0
    checked = 0
    for base in (5, 7, 10):
        exponent = math.log(3) / math.log(base)
        for digits in range(1, 9):
            values = greenruzsa_generate(base, digits)
            for _ in range(125):
                center = int(gen.integers(-5, values[-1] + 5))
                radius = int(gen.integers(1, max(2, values[-1])))
                checked += 1
                if sparsity_count(values, center, radius) > 24.0 * radius**exponent:
                    violations += 1
    ok = violations == 0
    report(11, "digit-set sparsity bound", ok, f"({checked} windows, {violations} violations)")


def test_c12_majorant_even_p_and_genericity_trend():
    gen = SeedSpec(111).generator(0)
    worst = 0.0
    for i in range(50):
        size = int(gen.integers(2, 9))
        freqs = sorted(int(v) for v in gen.integers(0, 51, size=size))
        p = (2, 4, 6)[i % 3]
        result = majorant_ratio(freqs, p, restarts=3, seed=SeedSpec(111, i + 1))
        worst = max(worst, abs(result.ratio - 1.0))
    ratio_ok = worst <= 1e-6

    points = genericity_experiment(
        "poisson", TimeMap("identity"), [8, 16, 32, 64], 4, 0.2,
        samples=30, restarts=2, seed=SeedSpec(222),
    )
    trend_ok = True
    for a, b in zip(points, points[1:]):
        if b.probability > a.probability + 2 * (a.std_error + b.std_error):
            trend_ok = False
    ok = ratio_ok and trend_ok
    report(12, "even-p majorant ratios and genericity trend", ok,
           f"(worst |ratio-1| {worst:.2e}, probabilities "
           f"{[pt.probability for pt in points]})")


def test_c13_exact_growth_exponents_and_monte_carlo_rung():
    # c03's and c04's exponents from exact means, with no sampling noise,
    # and one Monte Carlo rung per process against its exact mean.
    ladder = (16, 32, 64, 128, 256)
    ok = True
    details = []
    for process, seed, (lo, hi) in (("poisson", 42, (2.8, 3.2)), ("walk", 43, (3.3, 3.7))):
        exact = {}
        for M in ladder:
            spec = ExperimentSpec(process, tuple(range(1, M + 1)), TimeMap("identity"), 4.0, 200,
                                  SeedSpec(seed, M))
            exact[M] = exact_even_moment(spec).mean
        slope = slope_fit([(float(M), v) for M, v in exact.items()]).slope
        mc = mc_even_moment(ExperimentSpec(process, tuple(range(1, 65)), TimeMap("identity"), 4.0,
                                           200, SeedSpec(seed, 64)))
        gap = abs(mc.mean - exact[64]) / mc.std_error
        ok = ok and lo <= slope <= hi and gap <= 5.0
        details.append(f"{process}: slope {slope:.3f} in [{lo}, {hi}], M=64 gap/SE {gap:.2f}")
    report(13, "exact growth exponents and a Monte Carlo rung", ok, "(" + "; ".join(details) + ")")
