"""Executable inequality oracles for the Poisson process.

Each operation computes an exact probabilistic quantity on one side and the
corresponding analytic bound on the other, returning both together with the
verdict.  The concentration tails of one mean m come from one pmf vector on
[0, 2m + 64]: past 2m each term is under half the one before, so the end
term, and the remainder it bounds, is below 1e-18 of every tail reported.

The bounds covered: Gaussian-like concentration of N(m) around m, the mode
bounds sup_t P[N(t)=a] <= 1/sqrt(2 pi a) and sup_a P[N(t)=a] at a = floor(t),
Robbins' two-sided Stirling refinement, mode bounds for positive integer
combinations of independent Poisson variables and for sums of process
increments, and the transfer of |x-y| windows across the sqrt(t log t) scale.
``verification_suite`` runs all of them on grids, together with the exact
oracles of the lattice counters, and is the one place the ``verify``
subcommand gets its checks from.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .lattice import ShellQuery, divisor_summatory, shell_count_brute, shell_count_fast
from .moments import (
    SignedTimeMultiset,
    coincidence_probability_poisson,
    interval_coefficients,
)
from .processes import SeedSpec, poisson_pmf

_E50 = math.exp(50.0)
_SCAN_BLOCK = 1 << 16


@dataclass(frozen=True)
class BoundCheck:
    exact: float
    bound: float
    holds: bool
    slack: float


def _check(exact: float, bound: float) -> BoundCheck:
    holds = exact <= bound + 1e-12 * max(1.0, bound)
    return BoundCheck(exact, bound, holds, bound - exact)


def poisson_concentration_checks(m: int, lams: Sequence[float]) -> list[BoundCheck]:
    """P[|N(m) - m| > lam*sqrt(m)] against the bound 2 e^{-lam^2/4}, per lam.

    Every lam reads one pmf vector p(0..A), A = 2m + 64: lower tails from a
    forward cumulative sum, upper tails from a reverse one, both adding their
    smallest terms first.  Past 2m the term ratio m/a is below 1/2, so p(A) <
    2^-63 p(2m+1) is below 1e-18 of every upper tail (each starts at or below
    2m+1), and so is the dropped remainder, which is at most p(A).
    """
    if m < 1 or m != int(m):
        raise ValueError("m must be a positive integer")
    root = math.sqrt(m)
    if not all(0.0 < lam <= root for lam in lams):
        raise ValueError("lam must lie in (0, sqrt(m)]")
    pmf = poisson_pmf(float(m), np.arange(2 * int(m) + 65))
    lower = np.cumsum(pmf)  # lower[a] = P[N <= a]
    upper = np.cumsum(pmf[::-1])[::-1]  # upper[a] = P[N >= a]
    checks = []
    for lam in lams:
        dev = lam * root
        a0 = math.ceil(m - dev) - 1  # largest a < m - dev
        exact = upper[math.floor(m + dev) + 1] + (lower[a0] if a0 >= 0 else 0.0)
        checks.append(_check(float(exact), 2.0 * math.exp(-lam * lam / 4.0)))
    return checks


def poisson_concentration_check(m: int, lam: float) -> BoundCheck:
    """P[|N(m) - m| > lam*sqrt(m)] against 2 e^{-lam^2/4}; see the grid form."""
    return poisson_concentration_checks(m, [lam])[0]


def pmf_sup_over_t(a: int) -> BoundCheck:
    """sup_t P[N(t) = a] = a^a e^{-a} / a! against 1/sqrt(2 pi a).

    The supremum over the mean sits at t = a.
    """
    if a < 1 or a != int(a):
        raise ValueError("a must be a positive integer")
    exact = poisson_pmf(float(a), a)
    return _check(exact, 1.0 / math.sqrt(2.0 * math.pi * a))


def pmf_sup_over_a(t: float) -> tuple[int, float, float]:
    """(argmax, value, bound) of a -> P[N(t) = a]; the mode floor(t) is scanned."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    k = math.floor(t)
    value = poisson_pmf(t, k)
    bound = 1.0 if k == 0 else min(1.0, 1.0 / math.sqrt(2.0 * math.pi * k))
    _check_mode(t, k)
    return k, value, bound


def _check_mode(t: float, k: int) -> None:
    """Raise if some a in [0, t + 10 sqrt(t) + 10] has P[N(t)=a] > P[N(t)=k].

    log p(a)/p(k) is a running sum of the steps log t - log j outward from k
    (at integer t the pmf ties at t-1 and t).  A step errs by under 3 ulps of
    L = |log t| + log a_max; if k is the mode the sum at a then errs by under
    |a - k| eps (3L + |log p(a)/p(k)|), so it stays below ``noise``.
    """
    if t == 0:
        return  # point mass at 0
    a_max = int(t + 10.0 * math.sqrt(t) + 10.0)
    log_t = math.log(t)
    best = np.cumsum(log_t - np.log(np.arange(k + 1, a_max + 1, dtype=np.float64))).max()  # a > k
    total = 0.0
    for hi in range(k, 0, -_SCAN_BLOCK):  # a < k, in cache-sized blocks
        down = np.log(np.arange(hi, max(hi - _SCAN_BLOCK, 0), -1, dtype=np.float64)) - log_t
        down[0] += total
        total = np.cumsum(down, out=down)[-1]
        best = max(best, down.max())
    noise = 4.0 * sys.float_info.epsilon * a_max * (1.0 + abs(log_t) + math.log(a_max))
    if best > noise:
        raise RuntimeError("pmf mode scan found a larger value than floor(t)")


def robbins_check(n: int) -> tuple[BoundCheck, BoundCheck]:
    """Both sides of Robbins' refinement of Stirling's formula.

    (2 pi n)^{-1/2} e^{-1/(12n)} <= n^n/(n! e^n) <= (2 pi n)^{-1/2} e^{-1/(12n+1)},
    evaluated in log space.
    """
    if n < 1 or n != int(n):
        raise ValueError("n must be a positive integer")
    log_ratio = n * math.log(n) - n - math.lgamma(n + 1)
    base = -0.5 * math.log(2.0 * math.pi * n)
    lower = _check(math.exp(base - 1.0 / (12.0 * n)), math.exp(log_ratio))
    upper = _check(math.exp(log_ratio), math.exp(base - 1.0 / (12.0 * n + 1.0)))
    return lower, upper


def _combo_exact_probability(means: Sequence[float], coeffs: Sequence[int], a: int) -> float:
    # P[sum_i c_i X_i = a] for independent Poisson X_i; exact because any
    # configuration overshooting a can never come back down.
    dist = np.zeros(a + 1, dtype=np.float64)
    dist[0] = 1.0
    for mu, c in zip(means, coeffs):
        kmax = a // c
        v = np.zeros(c * kmax + 1, dtype=np.float64)
        v[::c] = poisson_pmf(mu, np.arange(kmax + 1))
        dist = np.convolve(dist, v)[: a + 1]
    return float(dist[a])


def combo_pmf_bound_check(means: Sequence[float], coeffs: Sequence[int], a: int) -> BoundCheck:
    """P[sum_i c_i N_i = a] against min{1, 1/sqrt(2 pi floor(max mean))}.

    The probability is computed by exact truncated convolution: the target a
    caps every variable, so the truncation discards nothing.
    """
    if len(means) != len(coeffs) or not means:
        raise ValueError("means and coeffs must be equal-length and nonempty")
    if any(mu <= 0 for mu in means):
        raise ValueError("means must be positive")
    if any(c < 1 or c != int(c) for c in coeffs):
        raise ValueError("coefficients must be positive integers")
    if a < 0:
        raise ValueError("a must be nonnegative")
    exact = _combo_exact_probability(means, coeffs, a)
    floor_mu = math.floor(max(means))
    bound = 1.0 if floor_mu == 0 else min(1.0, 1.0 / math.sqrt(2.0 * math.pi * floor_mu))
    return _check(exact, bound)


def interval_sum_bound_check(intervals: Sequence[tuple[float, float]], a: int) -> BoundCheck:
    """P[sum_i (N(k_i) - N(j_i)) = a] against the widest-interval mode bound.

    The intervals are decomposed into elementary pieces with integer
    multiplicities (shared with the coincidence engine), then the exact
    truncated DP of the combination check is run.  The bound uses
    floor((k_m - j_m)/(2n)) for the widest interval m among n intervals.
    """
    if not intervals:
        raise ValueError("need at least one interval")
    for j, k in intervals:
        if not (0 <= j < k):
            raise ValueError("intervals must satisfy 0 <= j < k")
    if a < 0:
        raise ValueError("a must be nonnegative")
    lengths, coeffs = interval_coefficients(
        [k for _, k in intervals], [j for j, _ in intervals]
    )
    if not coeffs:
        exact = 1.0 if a == 0 else 0.0
    else:
        exact = _combo_exact_probability(lengths, coeffs, a)
    n = len(intervals)
    widest = max(k - j for j, k in intervals)
    floor_w = math.floor(widest / (2 * n))
    bound = 1.0 if floor_w == 0 else min(1.0, 1.0 / math.sqrt(2.0 * math.pi * floor_w))
    return _check(exact, bound)


def sqrt_log_transfer_check(x: float, y: float, C: float) -> tuple[bool, bool]:
    """Verify both window-transfer implications on one triple.

    (a) x > e^50 and |x-y| <= C sqrt(x log x)  implies |x-y| <= 2C sqrt(y log y);
    (b) y > e^50 and |x-y| >= 2C sqrt(x log x) implies |x-y| >= C sqrt(y log y).
    Either implication is vacuously true when its hypothesis fails.
    """
    if x < 1 or y < 1:
        raise ValueError("x and y must be at least 1")
    if not (1.0 <= C <= 10.0):
        raise ValueError("C must lie in [1, 10]")
    gap = abs(x - y)
    fx = math.sqrt(x * math.log(x)) if x > 1 else 0.0
    fy = math.sqrt(y * math.log(y)) if y > 1 else 0.0
    ant_a = x > _E50 and gap <= C * fx
    impl_a = (not ant_a) or gap <= 2.0 * C * fy
    ant_b = y > _E50 and gap >= 2.0 * C * fx
    impl_b = (not ant_b) or gap >= C * fy
    return impl_a, impl_b


# ---------------------------------------------------------------------------
# verification grids
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridReport:
    name: str
    ok: bool
    checked: int
    detail: str


def _report(name: str, failures: list[str], checked: int) -> GridReport:
    ok = not failures
    detail = "ok" if ok else failures[0]
    return GridReport(name, ok, checked, detail)


def verification_suite(quick: bool = False, seed: SeedSpec | None = None) -> list[GridReport]:
    """Run every stated inequality grid and oracle grid; one report per grid.

    The seven inequality grids come first, then two exact-count oracles:
    shell_oracle compares the fast and brute shell counters on every integer
    E in [D, D^2] for D <= 10, and divisor_oracle compares the hyperbola-method
    D(x) with a sieve at every integer x.  quick=True shrinks the grids by
    roughly an order of magnitude for smoke tests; the full suite is the
    acceptance configuration.
    """
    seed = seed or SeedSpec(20240)
    reports: list[GridReport] = []

    m_top = 40 if quick else 200
    failures, checked = [], 0
    for m in range(1, m_top + 1):
        root = math.sqrt(m)
        lams = [i / 10.0 for i in range(1, int(10 * root) + 1) if i / 10.0 <= root]
        checks = poisson_concentration_checks(m, lams)
        checked += len(checks)
        failures += [f"concentration m={m} lam={lam}" for lam, c in zip(lams, checks) if not c.holds]
    reports.append(_report("poisson_concentration", failures, checked))

    a_top = 500 if quick else 10_000
    failures = [f"pmf_sup_over_t a={a}" for a in range(1, a_top + 1) if not pmf_sup_over_t(a).holds]
    reports.append(_report("pmf_sup_over_t", failures, a_top))

    n_top = 500 if quick else 10_000
    failures = []
    for n in range(1, n_top + 1):
        lower, upper = robbins_check(n)
        if not (lower.holds and upper.holds):
            failures.append(f"robbins n={n}")
    reports.append(_report("robbins", failures, n_top))

    t_top = 100 if quick else 1000
    failures, checked = [], 0
    for k in range(1, t_top + 1):
        t = k / 10.0
        argmax, value, bound = pmf_sup_over_a(t)
        checked += 1
        if value > bound + 1e-12:
            failures.append(f"pmf_sup_over_a t={t}")
    reports.append(_report("pmf_sup_over_a", failures, checked))

    gen = seed.generator(0)
    trials = 1000 if quick else 10_000
    failures = []
    for i in range(trials):
        x = math.exp(gen.uniform(50.0, 80.0))
        c = gen.uniform(1.0, 10.0)
        mode = gen.integers(0, 3)
        if mode == 0:
            y = math.exp(gen.uniform(50.0, 80.0))
        else:
            # adversarial: y at a random multiple of the window width
            u = gen.uniform(0.0, 3.0)
            sign = 1.0 if gen.random() < 0.5 else -1.0
            y = max(1.0, x + sign * u * c * math.sqrt(x * math.log(x)))
        ia, ib = sqrt_log_transfer_check(x, y, c)
        if not (ia and ib):
            failures.append(f"sqrt_log_transfer x={x:.6g} y={y:.6g} C={c:.3f}")
    reports.append(_report("sqrt_log_transfer", failures, trials))

    gen = seed.generator(1)
    trials = 30 if quick else 100
    failures = []
    for i in range(trials):
        n = int(gen.integers(1, 4))
        means = [float(gen.uniform(0.1, 5.0)) for _ in range(n)]
        coeffs = [int(gen.integers(1, 4)) for _ in range(n)]
        a = int(gen.integers(0, 11))
        if not combo_pmf_bound_check(means, coeffs, a).holds:
            failures.append(f"combo means={means} coeffs={coeffs} a={a}")
    reports.append(_report("combo_pmf_bound", failures, trials))

    gen = seed.generator(2)
    trials = 30 if quick else 100
    failures = []
    for i in range(trials):
        n = int(gen.integers(1, 4))
        intervals = []
        for _ in range(n):
            j = float(gen.uniform(0.0, 10.0))
            k = j + float(gen.uniform(0.1, 10.0))
            intervals.append((j, k))
        a = int(gen.integers(0, 9))
        if not interval_sum_bound_check(intervals, a).holds:
            failures.append(f"interval_sum intervals={intervals} a={a}")
        if a == 0:
            chk = interval_sum_bound_check(intervals, 0)
            other = coincidence_probability_poisson(
                SignedTimeMultiset(
                    tuple(k for _, k in intervals), tuple(j for j, _ in intervals)
                ),
                1e-9,
            )
            if abs(chk.exact - other) > 1e-8:
                failures.append(f"interval_vs_coincidence intervals={intervals}")
    reports.append(_report("interval_sum_bound", failures, trials))

    d_cap = 100 if quick else 400
    failures, checked = [], 0
    for d in (2, 3) if quick else (2, 3, 4, 5):
        for D in range(1, 11):
            for e in range(D, min(D * D, d_cap) + 1):
                q = ShellQuery(d, float(e), float(D))
                checked += 1
                if shell_count_brute(q).count != shell_count_fast(q).count:
                    failures.append(f"shell d={d} E={e} D={D}")
    reports.append(_report("shell_oracle", failures, checked))

    top = 2000 if quick else 20_000
    counts = np.zeros(top + 1, dtype=np.int64)
    for a in range(1, top + 1):
        counts[a::a] += 1
    sums = np.cumsum(counts)
    failures = [
        f"divisor x={x}" for x in range(1, top + 1) if divisor_summatory(float(x)) != int(sums[x])
    ]
    reports.append(_report("divisor_oracle", failures, top))

    return reports
