"""Executable inequality oracles for the Poisson process.

Each core computes an exact probabilistic quantity and the analytic bound it
is checked against.  The bounds covered: Gaussian-like concentration of N(m)
around m, the mode bounds sup_t P[N(t)=a] <= 1/sqrt(2 pi a) and sup_a
P[N(t)=a] at a = floor(t), Robbins' two-sided Stirling refinement, mode
bounds for positive integer combinations of independent Poisson variables
and for sums of process increments, and the transfer of |x-y| windows across
the sqrt(t log t) scale.  ``verification_suite`` runs all of them on grids,
together with the exact oracles of the lattice counters, and is the one
place the ``verify`` subcommand gets its checks from.

Each grid is one array pass over one core per bound: the concentration tails
per m, whose pmf vector on [0, 2m + 64] leaves a remainder below 1e-18 of
every tail reported (past 2m each term is under half the one before); one
mode-pmf vector P[N(n) = n] = n^n e^{-n}/n! shared by the pmf_sup_over_t and
Robbins grids; the pmf_sup_over_a values and their mode scans; the
window-transfer implications; and ``_combo_pmf``, the strided convolution of
the coincidence DP, per combination or interval sum against ``_mode_bound``.
At a = 0 the interval sums are also checked against exp(-|union|).  The
random grids are drawn as arrays.  ``_holds`` is the one verdict rule.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .lattice import divisor_summatories
from .moments import _signed_sum_pmf, interval_coefficients
from .processes import SeedSpec, poisson_pmf

_E50 = math.exp(50.0)
_SCAN_BLOCK = 1 << 16
_STIRLING_FROM = 1 << 14  # _mode_pmf reads the Stirling series from here on


def _holds(exact, bound):
    """exact <= bound up to 1e-12 of max(1, bound); elementwise on arrays."""
    return exact <= bound + 1e-12 * np.maximum(1.0, bound)


def _concentration_tails(m: int, lams: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P[|N(m) - m| > lam*sqrt(m)] and its bound 2 e^{-lam^2/4}, per lam in (0, sqrt(m)].

    Lower tails come from a forward cumulative sum of the pmf on [0, 2m + 64],
    upper tails from a reverse one, both adding their smallest terms first.
    """
    root = math.sqrt(m)
    pmf = poisson_pmf(float(m), np.arange(2 * m + 65))
    lower = np.cumsum(pmf)  # lower[a] = P[N <= a]
    upper = np.cumsum(pmf[::-1])[::-1]  # upper[a] = P[N >= a]
    dev = lams * root
    below = np.ceil(m - dev).astype(np.int64) - 1  # largest a < m - dev
    above = np.floor(m + dev).astype(np.int64) + 1  # smallest a > m + dev
    exact = upper[above] + np.where(below >= 0, lower[np.maximum(below, 0)], 0.0)
    return exact, 2.0 * np.exp(-lams * lams / 4.0)


def _mode_pmf(n: np.ndarray) -> np.ndarray:
    """P[N(n) = n] = n^n e^{-n} / n! for each positive integer n (as floats).

    Below _STIRLING_FROM this is poisson_pmf(n, n).  From there on the log
    space sum n log n - n - log n! would cancel about n log n ulps, which by
    n = 10^6 passes the 1e-12 slack of the checks, so the term is
    e^{-r(n)} / sqrt(2 pi n) with the Stirling remainder r(n) = log n! -
    (n log n - n + log(2 pi n) / 2) summed as its series 1/(12n) -
    1/(360n^3), whose next term is under 1e-24 there.
    """
    direct = np.minimum(n, _STIRLING_FROM - 1.0)  # the table stays below 2^14 entries
    inv = 1.0 / n
    remainder = inv * (1.0 / 12.0 - inv * inv / 360.0)
    series = np.exp(-remainder) / np.sqrt(2.0 * math.pi * n)
    return np.where(n < _STIRLING_FROM, poisson_pmf(direct, direct), series)


def _sup_over_t_bound(a: np.ndarray) -> np.ndarray:
    """1/sqrt(2 pi a), per a; sup_t P[N(t) = a] sits at t = a, where it is _mode_pmf(a)."""
    return 1.0 / np.sqrt(2.0 * math.pi * a)


def _robbins_bounds(n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(2 pi n)^{-1/2} e^{-1/(12n)} and (2 pi n)^{-1/2} e^{-1/(12n+1)}, per n.

    Robbins' refinement of Stirling's formula puts n^n/(n! e^n) = P[N(n) = n]
    between the two.
    """
    base = -0.5 * np.log(2.0 * math.pi * n)
    return np.exp(base - 1.0 / (12.0 * n)), np.exp(base - 1.0 / (12.0 * n + 1.0))


def _mode_bound(k: np.ndarray) -> np.ndarray:
    """min{1, 1/sqrt(2 pi k)} per integer mode k >= 0: 1 at k = 0, below 1 from k = 1 on."""
    return np.where(k == 0, 1.0, 1.0 / np.sqrt(2.0 * math.pi * np.maximum(k, 1.0)))


def _sup_over_a(t: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per t >= 0: the mode k = floor(t), P[N(t) = k] and min{1, 1/sqrt(2 pi k)}.

    Raises if the scan finds a larger pmf value than the one at k.
    """
    k = np.floor(t)
    _check_mode(t, k)
    return k, poisson_pmf(t, k), _mode_bound(k)


def _check_mode(t, k) -> None:
    """Raise if some a in [0, t + 10 sqrt(t) + 10] has P[N(t)=a] > P[N(t)=k].

    t and k are numbers or equal-length arrays, one scan per entry; every
    scan is a row of the same array pass.  log p(a)/p(k) is a running sum of
    the steps log t - log j outward from k (at integer t the pmf ties at t-1
    and t).  A step errs by under 3 ulps of L = |log t| + log a_max; if k is
    the mode the sum at a then errs by under |a - k| eps (3L + |log
    p(a)/p(k)|), so it stays below ``noise``.
    """
    t = np.atleast_1d(np.asarray(t, dtype=np.float64))
    k = np.atleast_1d(np.asarray(k, dtype=np.float64))
    scanned = t > 0  # t = 0 is the point mass at 0
    t, k = t[scanned], k[scanned]
    if not t.size:
        return
    a_max = np.floor(t + 10.0 * np.sqrt(t) + 10.0)
    log_t = np.log(t)[:, None]
    k_col, a_col = k[:, None], a_max[:, None]
    j = np.arange(k.min() + 1.0, a_max.max() + 1.0)  # a > k: each row sums from its k + 1
    steps = log_t - np.log(j)
    steps[(j <= k_col) | (j > a_col)] = 0.0
    best = np.cumsum(steps, axis=1, out=steps).max(axis=1)  # in place: this pass sets verify's peak memory
    total = np.zeros(len(t))
    for hi in range(int(k.max()), 0, -_SCAN_BLOCK):  # a < k, in cache-sized blocks
        j = np.arange(hi, max(hi - _SCAN_BLOCK, 0), -1, dtype=np.float64)
        steps = np.log(j, out=j) - log_t
        if hi > k.min():  # a row whose k is below hi starts at column hi - k
            steps[np.arange(steps.shape[1]) < hi - k_col] = 0.0
        steps[:, 0] += total
        steps = np.cumsum(steps, axis=1)  # in place (out=) is slower on 2-D
        total = steps[:, -1].copy()
        best = np.maximum(best, steps.max(axis=1))
    noise = 4.0 * sys.float_info.epsilon * a_max * (1.0 + np.abs(log_t[:, 0]) + np.log(a_max))
    if np.any(best > noise):
        raise RuntimeError("pmf mode scan found a larger value than floor(t)")


def _combo_pmf(means: Sequence[float], coeffs: Sequence[int], a: int) -> float:
    """P[sum_i c_i X_i = a] for independent X_i ~ Poisson(means[i]) and integers c_i >= 1.

    A count past a // c_i would overshoot a, so each pmf stops there.
    """
    pmfs = [poisson_pmf(mu, np.arange(a // c + 1)) for mu, c in zip(means, coeffs)]
    dist, _ = _signed_sum_pmf(pmfs, coeffs)
    return float(dist[a]) if a < len(dist) else 0.0


def _union_length(intervals: Sequence[tuple[float, float]]) -> float:
    """The length of the union of the intervals [j, k], by one sweep in order of j."""
    total, end = 0.0, -math.inf
    for j, k in sorted(intervals):
        if k > end:
            total += k - max(j, end)
            end = k
    return total


def _transfer_holds(x: np.ndarray, y: np.ndarray, C: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both window-transfer implications per triple (x, y, C), x, y >= 1.

    (a) x > e^50 and |x-y| <= C sqrt(x log x)  implies |x-y| <= 2C sqrt(y log y);
    (b) y > e^50 and |x-y| >= 2C sqrt(x log x) implies |x-y| >= C sqrt(y log y).
    Either implication is vacuously true when its hypothesis fails.
    """
    gap = np.abs(x - y)
    fx = np.sqrt(x * np.log(x))
    fy = np.sqrt(y * np.log(y))
    impl_a = ~((x > _E50) & (gap <= C * fx)) | (gap <= 2.0 * C * fy)
    impl_b = ~((y > _E50) & (gap >= 2.0 * C * fx)) | (gap >= C * fy)
    return impl_a, impl_b


def _transfer_triples(gen: np.random.Generator, trials: int) -> tuple[np.ndarray, ...]:
    """The suite's (x, y, C) draws, as three arrays.

    x = e^U with U uniform on [50, 80] and C uniform on [1, 10].  One time in
    three y is drawn the same way as x; otherwise it sits at a uniform multiple
    in [0, 3] of C sqrt(x log x) on either side of x, with either side equally
    likely.  That offset is under 3e-9 x, so y > 1 either way.
    """
    x = np.exp(50.0 + 30.0 * gen.random(trials))
    c = 1.0 + 9.0 * gen.random(trials)
    far = gen.integers(0, 3, trials) == 0
    offset = 3.0 * gen.random(trials) * c * np.sqrt(x * np.log(x))
    near = x + np.where(gen.random(trials) < 0.5, offset, -offset)
    return x, np.where(far, np.exp(50.0 + 30.0 * gen.random(trials)), near), c


# ---------------------------------------------------------------------------
# verification grids
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridReport:
    name: str
    ok: bool
    checked: int
    detail: str


def _grid_report(name: str, holds: np.ndarray, describe) -> GridReport:
    """Report of a grid checked in one array pass; ``describe`` names its first failing point."""
    bad = np.flatnonzero(~holds)
    return GridReport(name, not bad.size, len(holds), describe(int(bad[0])) if bad.size else "ok")


def divisor_sieve(top: int) -> np.ndarray:
    """D(0..top), D(x) = sum_{n <= x} d(n), by a sieve over divisor pairs.

    Each n = a b with a < b gains 2 and each square a^2 gains 1, so isqrt(top)
    slice updates, one per a <= sqrt(top), give d(n); D is their running sum.
    """
    counts = np.zeros(top + 1, dtype=np.int64)
    for a in range(1, math.isqrt(top) + 1):
        counts[a * a :: a] += 2
        counts[a * a] -= 1
    return np.cumsum(counts)


def verification_suite(quick: bool = False, seed: SeedSpec | None = None) -> list[GridReport]:
    """Run every stated inequality grid and oracle grid; one report per grid.

    The seven inequality grids come first, then two exact-count oracles:
    shell_oracle compares the fast and brute shell counters on every integer
    E in [D, D^2] for D <= 10, and divisor_oracle compares one
    ``divisor_summatories`` pass of the hyperbola method with a sieve at every
    integer x, as arrays, and reports the first x where they differ.
    quick=True shrinks the grids by roughly an order of magnitude for smoke
    tests; the full suite is the acceptance configuration.
    """
    # The shell counts load on first use; here before the grids, whose
    # temporaries set the suite's peak memory, rather than on top of them.
    from .shell import shell_counts

    seed = seed or SeedSpec(20240)
    reports: list[GridReport] = []

    m_top = 40 if quick else 200
    means, lams, holds = [], [], []
    for m in range(1, m_top + 1):
        root = math.sqrt(m)
        grid = np.arange(1, int(10 * root) + 1) / 10.0
        grid = grid[grid <= root]
        means += [m] * len(grid)
        lams += grid.tolist()
        holds.append(_holds(*_concentration_tails(m, grid)))
    holds = np.concatenate(holds)
    reports.append(
        _grid_report("poisson_concentration", holds, lambda i: f"concentration m={means[i]} lam={lams[i]}")
    )

    n_top = 500 if quick else 10_000
    points = np.arange(1.0, n_top + 1.0)
    ratio = _mode_pmf(points)  # a^a e^{-a} / a!, also the middle term of Robbins' bounds
    holds = _holds(ratio, _sup_over_t_bound(points))
    reports.append(_grid_report("pmf_sup_over_t", holds, lambda i: f"pmf_sup_over_t a={i + 1}"))
    lower, upper = _robbins_bounds(points)
    holds = _holds(lower, ratio) & _holds(ratio, upper)
    reports.append(_grid_report("robbins", holds, lambda i: f"robbins n={i + 1}"))

    t_top = 100 if quick else 1000
    ts = (np.arange(1, t_top + 1) / 10.0).tolist()
    _, value, bound = _sup_over_a(np.array(ts))
    holds = _holds(value, bound)
    reports.append(_grid_report("pmf_sup_over_a", holds, lambda i: f"pmf_sup_over_a t={ts[i]}"))

    trials = 1000 if quick else 10_000
    x, y, c = _transfer_triples(seed.generator(0), trials)
    impl_a, impl_b = _transfer_holds(x, y, c)
    reports.append(
        _grid_report(
            "sqrt_log_transfer",
            impl_a & impl_b,
            lambda i: f"sqrt_log_transfer x={x[i]:.6g} y={y[i]:.6g} C={c[i]:.3f}",
        )
    )

    # Each trial uses the first n of three columns drawn per quantity.
    gen = seed.generator(1)
    trials = 30 if quick else 100
    n = gen.integers(1, 4, trials)
    means, coeffs = gen.uniform(0.1, 5.0, (trials, 3)), gen.integers(1, 4, (trials, 3))
    a = gen.integers(0, 11, trials)
    combos = [(means[i, : n[i]].tolist(), coeffs[i, : n[i]].tolist(), int(a[i])) for i in range(trials)]
    exact = np.array([_combo_pmf(*combo) for combo in combos])
    holds = _holds(exact, _mode_bound(np.floor([max(combo[0]) for combo in combos])))
    reports.append(
        _grid_report("combo_pmf_bound", holds, lambda i: "combo means={} coeffs={} a={}".format(*combos[i]))
    )

    gen = seed.generator(2)
    n = gen.integers(1, 4, trials)
    j = gen.uniform(0.0, 10.0, (trials, 3))
    k = j + gen.uniform(0.1, 10.0, (trials, 3))
    a = gen.integers(0, 9, trials)
    intervals = [list(zip(j[i, : n[i]].tolist(), k[i, : n[i]].tolist())) for i in range(trials)]
    pieces = [interval_coefficients([hi for _, hi in iv], [lo for lo, _ in iv]) for iv in intervals]
    exact = np.array([_combo_pmf(*piece, int(a_i)) for piece, a_i in zip(pieces, a)])
    # the widest interval m among n bounds the sum's mode: floor((k_m - j_m)/(2n))
    widest = np.array([max(hi - lo for lo, hi in iv) for iv in intervals])
    below = _holds(exact, _mode_bound(np.floor(widest / (2 * n))))
    # at a = 0 every increment over the union must vanish: exp(-|union|)
    union = np.exp(-np.array([_union_length(iv) for iv in intervals]))
    holds = below & ((a != 0) | (np.abs(exact - union) <= 1e-8))
    reports.append(
        _grid_report(
            "interval_sum_bound",
            holds,
            lambda i: f"interval_sum intervals={intervals[i]} a={a[i]}"
            if not below[i]
            else f"interval_vs_coincidence intervals={intervals[i]}",
        )
    )

    d_cap = 100 if quick else 400
    grid = [(e, D) for D in range(1, 11) for e in range(D, min(D * D, d_cap) + 1)]
    es, ds = [float(e) for e, _ in grid], [float(D) for _, D in grid]
    dims = (2, 3) if quick else (2, 3, 4, 5)
    holds = np.concatenate(
        [shell_counts(d, es, ds, "brute")[0] == shell_counts(d, es, ds, "fast")[0] for d in dims]
    )

    def window(i: int) -> str:  # d-major, named from the index: a list of every window cost 0.14 MB of peak memory
        return "shell d={} E={} D={}".format(dims[i // len(grid)], *grid[i % len(grid)])

    reports.append(_grid_report("shell_oracle", holds, window))

    top = 2000 if quick else 20_000
    sums = divisor_summatories(np.arange(1, top + 1, dtype=np.int64))
    holds = sums == divisor_sieve(top)[1:]
    reports.append(_grid_report("divisor_oracle", holds, lambda i: f"divisor x={i + 1}"))

    return reports
