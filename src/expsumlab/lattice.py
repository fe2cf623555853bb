"""Exact lattice-point counting.

Covers the divisor summatory function (hyperbola method), thin shells around
the power-difference surface k^d - j^d = E, the symmetric two-sided count
R_d(x), representation counts of sums of d-th powers, Green-Ruzsa digit sets,
and the interval-domination comparison for decreasing weights.

Counting conventions are exact and explicit:

* shell counts use the strict window |k^d - j^d - E| < D with j < k over the
  positive integers (so N starts at 1);
* R_d(x) uses the half-open condition 0 < |k|^d - |j|^d <= x over all of Z^2.

Two counters share that window form, pairs j < k with k^d - j^d on an
inclusive integer window [lo, hi], and differ in how many windows they answer:

* the single-window bisection (`_window_count`): two integer binary searches
  per b = k - j, O(hi^{1/d} log hi) steps.  A shell passes the integers
  strictly inside (E - D, E + D); R_d(x) passes [1, floor(x)] and adds the
  sign and axis symmetries.
* the batch sweep (`_sweep_counts`), behind `shell_sup_ratio`: every
  difference up to the largest window top is enumerated once, per b in
  increasing int64 blocks, and all G windows are answered by two
  `searchsorted` calls per block, N + B * G steps for N differences, B
  values of b and G windows.  The bisection is its oracle.

Real-valued E, D are honored exactly: integer quantities are compared with
the real bounds through exact rational thresholds, so boundary lattice points
are never misclassified by float rounding.  All powers are arbitrary
precision; counts above 128 bits raise instead of wrapping.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .errors import GuardError, check_count
from .expsum import FrequencySpectrum, RepresentationTable, representation_table

EULER_GAMMA = 0.5772156649015329


@dataclass(frozen=True)
class ShellQuery:
    """Parameters of one shell count: |k^d - j^d - E| < D, j < k in N."""

    d: int
    E: float
    D: float

    def __post_init__(self):
        if self.d < 2 or self.d != int(self.d):
            raise ValueError("d must be an integer >= 2")
        if self.E < 1 or self.D < 1:
            raise ValueError("E and D must be at least 1")
        if self.E + self.D > 2**63:
            raise GuardError("E + D exceeds the supported range")


@dataclass(frozen=True)
class CountResult:
    count: int
    method: str
    work: int


def _strict_window(E: float, D: float) -> tuple[int, int]:
    """Integers v with E - D < v < E + D, as an inclusive [lo, hi] range.

    Exact for any float inputs: floor and ceil are taken on the exact
    rationals E -+ D by integer division, so v = E +- D itself is always
    excluded.
    """
    e_num, e_den = E.as_integer_ratio()
    d_num, d_den = D.as_integer_ratio()
    den = e_den * d_den
    lo = (e_num * d_den - d_num * e_den) // den + 1
    hi = -(-(e_num * d_den + d_num * e_den) // den) - 1
    return lo, hi


def shell_count_brute(q: ShellQuery) -> CountResult:
    """Count shell pairs by scanning j and bisecting the k-range.

    j runs while d * j^{d-1} stays below E + D (no larger j can admit any k);
    for each j the admissible k form a contiguous block located by integer
    binary search on the strictly increasing map k -> k^d.
    """
    lo, hi = _strict_window(q.E, q.D)
    d = q.d
    lo = max(lo, 1)  # the difference k^d - j^d is at least 1 anyway
    count = 0
    work = 0
    j = 1
    slope = d  # d * j^{d-1}, maintained incrementally for the loop guard
    while slope <= hi:
        jd = j**d
        lo_target = jd + lo
        hi_target = jd + hi
        a = j + 1
        b = j + hi // slope + 1
        while a < b:  # smallest k with k^d >= lo_target
            mid = (a + b) >> 1
            work += 1
            if mid**d >= lo_target:
                b = mid
            else:
                a = mid + 1
        if a**d >= lo_target:
            k_lo = a
            a = k_lo
            b = j + hi // slope + 2
            while a < b:  # smallest k with k^d > hi_target
                mid = (a + b) >> 1
                work += 1
                if mid**d > hi_target:
                    b = mid
                else:
                    a = mid + 1
            count += a - k_lo
        j += 1
        slope = d * j ** (d - 1)
    return CountResult(check_count(count, "shell count"), "brute", work)


def _window_count(d: int, lo: int, hi: int) -> CountResult:
    """Pairs j < k in N with lo <= k^d - j^d <= hi, by scanning b = k - j.

    Writing k = j + b turns the window into bounds on the strictly
    increasing g(j) = (j+b)^d - j^d - b^d, and each b needs only two integer
    binary searches; total work O(hi^{1/d} log hi).
    """
    count = 0
    work = 0
    b = 1
    while b**d <= hi:
        bd = b**d
        g_lo = max(lo - bd, 1)  # g(j) >= 1 automatically for j >= 1
        g_hi = hi - bd
        if g_hi >= g_lo:
            ub = _floor_root(max(g_hi // (d * b), 1), d - 1) + 1
            x = 1
            y = ub
            while x < y:  # smallest j with g(j) >= g_lo
                mid = (x + y) >> 1
                work += 1
                if (mid + b) ** d - mid**d - bd >= g_lo:
                    y = mid
                else:
                    x = mid + 1
            if (x + b) ** d - x**d - bd >= g_lo:
                j_lo = x
                y = ub + 1
                while x < y:  # smallest j with g(j) > g_hi
                    mid = (x + y) >> 1
                    work += 1
                    if (mid + b) ** d - mid**d - bd > g_hi:
                        y = mid
                    else:
                        x = mid + 1
                count += x - j_lo
        b += 1
    return CountResult(check_count(count, "shell count"), "fast", work)


def shell_count_fast(q: ShellQuery) -> CountResult:
    """Count shell pairs on the integer window of |v - E| < D, scanning k - j."""
    return _window_count(q.d, *_strict_window(q.E, q.D))


def _floor_root(v: int, d: int) -> int:
    """Largest integer r with r^d <= v (v >= 0, d >= 1), exactly."""
    if v < 0:
        raise ValueError("v must be nonnegative")
    if d == 1:
        return v
    if d == 2:
        return math.isqrt(v)
    if v == 0:
        return 0
    r = int(round(v ** (1.0 / d)))
    while r > 0 and r**d > v:
        r -= 1
    while (r + 1) ** d <= v:
        r += 1
    return r


_SWEEP_BLOCK = 1 << 20
_SUP_WORK_LIMIT = 1 << 28
_GRID_POINT_STEPS = 48  # building one sup grid point and its window, in sweep steps


def shell_sup_ratio(d: int, D: float, e_samples: int) -> tuple[int, float, float]:
    """Maximize the shell count over D <= E <= D^2 and scale by D^{2/d}.

    The grid is every integer in [D, D^2] when that fits the sample budget;
    otherwise a geometric grid plus the endpoints plus every realized
    difference k^d - j^d with j <= 2 D^{1/d} (counts peak near actual
    differences).  Returns (sup count, sup count / D^{2/d}, argmax E); ties
    resolve toward smaller E.

    Every grid window is counted in one batch sweep (`_sweep_counts`), not by
    one bisection per E.  The work is N + (B + 48) * G steps: the N
    differences k^d - j^d up to the largest window top are enumerated once,
    each of the B values of b = k - j that reach it searches all G windows,
    and building one grid point and its window costs about 48 steps.  A step
    is about 37 ns on a 2-vCPU Xeon; work past 2^28 steps (about 10 s) raises
    GuardError, and so does a d, E, D that `ShellQuery` refuses at the
    largest grid E.  A lower bound on the work (the pairs j < k <= top^{1/d},
    and the grid points known before the grid is built) is checked first,
    so a refusal takes at most about 5 s.
    """
    if e_samples < 1:
        raise ValueError("e_samples must be positive")
    if D < 1:
        raise ValueError("D must be at least 1")
    lo_e = math.ceil(Fraction(D))
    hi_e = math.floor(Fraction(D) * Fraction(D))
    if lo_e > hi_e:
        raise ValueError(f"no integer E lies in [D, D^2] for D = {D}")
    integral = hi_e - lo_e + 1 <= e_samples
    top_e = float(hi_e) if integral else float(D) * float(D)  # the largest grid E
    ShellQuery(d, top_e, D)  # refuses a bad d, or E + D > 2^63 at the largest E
    top = _strict_window(top_e, D)[1]
    n_b = _floor_root(top + 1, d) - 1  # b with (1 + b)^d - 1 <= top
    m = _floor_root(top, d)  # every pair j < k <= m differs by less than top
    # the j = 1 differences in [lo_e, hi_e] are distinct grid points
    known = hi_e - lo_e + 1 if integral else _floor_root(hi_e + 1, d) - _floor_root(lo_e, d)
    _check_sup_work(m * (m - 1) // 2 + (n_b + _GRID_POINT_STEPS) * known)
    if integral:
        grid = [float(e) for e in range(lo_e, hi_e + 1)]
    else:
        es = {float(D), float(D) * float(D)}
        ratio = (hi_e / lo_e) ** (1.0 / max(e_samples - 1, 1))
        x = float(lo_e)
        for _ in range(e_samples):
            es.add(min(max(x, float(D)), float(D) * float(D)))
            x *= ratio
        j_cap = int(2 * D ** (1.0 / d)) + 1
        for j in range(1, j_cap + 1):
            k = j + 1
            while True:
                diff = k**d - j**d
                if diff > hi_e:
                    break
                if diff >= lo_e:
                    es.add(float(diff))
                k += 1
        grid = sorted(es)
    last_js = [_last_j(d, b, top) for b in range(1, n_b + 1)]
    _check_sup_work(sum(last_js) + (n_b + _GRID_POINT_STEPS) * len(grid))
    bounds = itertools.chain.from_iterable(_strict_window(e, D) for e in grid)
    lo, hi = np.fromiter(bounds, np.int64, 2 * len(grid)).reshape(-1, 2).T
    counts = _sweep_counts(d, lo, hi, last_js)
    best = int(np.argmax(counts))  # the first maximum, so ties go to the smaller E
    best_count = int(counts[best])
    return best_count, best_count / D ** (2.0 / d), grid[best]


def _check_sup_work(work: int) -> None:
    if work > _SUP_WORK_LIMIT:
        raise GuardError(
            f"shell sup search needs at least {work} steps, past the 2^28 limit (about 10 s)"
        )


def _last_j(d: int, b: int, top: int) -> int:
    """Largest j >= 0 with (j+b)^d - j^d <= top, for b^d <= top.

    (j+b)^d - j^d >= b^d + d b j^{d-1} bounds the integer binary search.
    """
    x = 0
    y = _floor_root((top - b**d) // (d * b), d - 1)
    while x < y:
        mid = (x + y + 1) >> 1
        if (mid + b) ** d - mid**d <= top:
            x = mid
        else:
            y = mid - 1
    return x


def _sweep_counts(d: int, lo: np.ndarray, hi: np.ndarray, last_js: Sequence[int]) -> np.ndarray:
    """Pairs j < k with lo[i] <= k^d - j^d <= hi[i], for every window i at once.

    last_js[b - 1] is the last j whose difference v_b(j) = (j+b)^d - j^d
    stays within the largest hi.  v_b increases strictly in j, so each b is
    enumerated once, in int64 blocks of at most _SWEEP_BLOCK entries, and
    every window takes two searchsorted calls per block.  v_b(j) is the
    binomial sum sum_{i<d} C(d,i) b^{d-i} j^i by Horner's rule: every term
    and partial value is at most v_b(j) <= max(hi) < 2^63, so nothing wraps.
    """
    counts = np.zeros(len(lo), dtype=np.int64)
    for b, last in enumerate(last_js, start=1):
        coeffs = [math.comb(d, i) * b ** (d - i) for i in range(d)]
        for start in range(1, last + 1, _SWEEP_BLOCK):
            j = np.arange(start, min(start + _SWEEP_BLOCK, last + 1), dtype=np.int64)
            v = np.full(len(j), coeffs[-1], dtype=np.int64)
            for c in reversed(coeffs[:-1]):
                v *= j
                v += c
            counts += np.searchsorted(v, hi, "right") - np.searchsorted(v, lo, "left")
    return counts


def shell_power_law_bound(d: int, D: float, s: float) -> float:
    """Predicted count scale for shells |k^d - j^d - D^s| < D, unit constant.

    Two regimes split at s = d^2/(d^2 - d - 1); the exponents agree there,
    so the bound is continuous in s.
    """
    if d < 3 or d != int(d):
        raise ValueError("d must be an integer >= 3")
    if not (1.0 < s <= 2.0):
        raise ValueError("s must lie in (1, 2]")
    if D < 1:
        raise ValueError("D must be at least 1")
    split = d * d / (d * d - d - 1.0)
    if s <= split:
        return D ** (1.0 + s * (2.0 / d - 1.0))
    return D ** ((s / d) * (1.0 - 1.0 / d))


def hyperbolic_count(d: int, x: float) -> int:
    """R_d(x) = #{(j,k) in Z^2 : 0 < |k|^d - |j|^d <= x}.

    Decomposes by sign symmetry: 4 * (pairs 1 <= j < k with k^d - j^d in
    [1, floor(x)], counted by the shell counter) + 2 * floor(x^{1/d}) for
    the axis pairs (0, +-k).
    """
    if d < 2 or d != int(d):
        raise ValueError("d must be an integer >= 2")
    if x < 1:
        raise ValueError("x must be at least 1")
    fx = math.floor(Fraction(x))
    positive = _window_count(d, 1, fx).count
    return check_count(4 * positive + 2 * _floor_root(fx, d), "hyperbolic count")


# ---------------------------------------------------------------------------
# divisor summatory function
# ---------------------------------------------------------------------------

_DIVISOR_BLOCK = 1 << 20


def divisor_summatory(x: float) -> int:
    """D(x) = sum_{n <= x} d(n) by the hyperbola identity, O(sqrt x) time.

    D(x) = 2 * sum_{a <= sqrt x} floor(x/a) - floor(sqrt x)^2, summed in blocks
    of 2^20 divisors so memory stays flat.  x >= 2^62 raises GuardError: the
    sum would run over 2^31 divisors.
    """
    if x < 1:
        raise ValueError("x must be at least 1")
    n = math.floor(Fraction(x))
    if n >= 2**62:
        raise GuardError("divisor summatory needs x < 2^62 (over 2^31 divisors past it)")
    s = math.isqrt(n)
    total = sum(
        _quotient_sum(n, lo, min(lo + _DIVISOR_BLOCK, s + 1))
        for lo in range(1, s + 1, _DIVISOR_BLOCK)
    )
    return check_count(2 * total - s * s, "divisor summatory")


def _quotient_sum(n: int, lo: int, hi: int) -> int:
    """sum_{lo <= a < hi} n // a for n < 2^62 and hi - lo <= 2^20, exactly.

    One int64 sum where (hi - lo) * (n // lo) < 2^63 bounds it; otherwise
    the quotients split into 31-bit limbs, whose sums stay below 2^51.
    """
    q = n // np.arange(lo, hi, dtype=np.int64)
    if (hi - lo) * (n // lo) < 2**63:
        return int(q.sum())
    return (int((q >> 31).sum()) << 31) + int((q & (2**31 - 1)).sum())


def divisor_error(x: float, summatory: int | None = None) -> float:
    """Error term D(x) - x log x - (2*gamma - 1) x of the divisor sum.

    `summatory` is D(x) when the caller already has it; otherwise it is
    computed here.
    """
    if x < 1:
        raise ValueError("x must be at least 1")
    if summatory is None:
        summatory = divisor_summatory(x)
    return summatory - x * math.log(x) - (2 * EULER_GAMMA - 1) * x


# ---------------------------------------------------------------------------
# representation counts of d-th powers
# ---------------------------------------------------------------------------

def representation_count(n: int, d: int, M: int) -> RepresentationTable:
    """Table of R(m) = #{(j_1..j_n) : 1 <= j_i <= M, sum j_i^d = m}, exact."""
    if n < 1 or d < 1 or M < 1:
        raise ValueError("n, d, M must be positive integers")
    if n * M**d > 2**40:
        raise GuardError("dense representation table exceeds the guard n*M^d <= 2^40")
    spectrum = FrequencySpectrum.unit(j**d for j in range(1, M + 1))
    return representation_table(spectrum, n)


def diophantine_count(n: int, d: int, M: int) -> int:
    """Number of 2n-tuples with equal sums of d-th powers: sum_m R(m)^2."""
    table = representation_count(n, d, M)
    total = sum(c * c for c in table.counts.values())
    return check_count(total, "diophantine count")


# ---------------------------------------------------------------------------
# Green-Ruzsa digit sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GreenRuzsaSpec:
    """Base-D digit set with k digits drawn from {0, 1, 3}; |set| = 3^k."""

    base: int
    digits: int

    def __post_init__(self):
        if self.base < 5:
            raise ValueError("base must be at least 5")
        if self.digits < 1:
            raise ValueError("digits must be at least 1")


def greenruzsa_generate(spec: GreenRuzsaSpec) -> list[int]:
    """All integers whose base-D digits (k of them) lie in {0, 1, 3}, sorted.

    Base >= 5 separates the digit choices, so all 3^k values are distinct.
    """
    if 3**spec.digits > 2**24:
        raise GuardError("3^k exceeds the guard 2^24")
    values = [0]
    power = 1
    for _ in range(spec.digits):
        values = [v + digit * power for v in values for digit in (0, 1, 3)]
        power *= spec.base
    values.sort()
    return values


def sparsity_count(sorted_set: Sequence[int], center: int, radius: int) -> int:
    """|set intersect [center - radius, center + radius]| by binary search."""
    if radius < 1:
        raise ValueError("radius must be at least 1")
    lo = bisect_left(sorted_set, center - radius)
    hi = bisect_right(sorted_set, center + radius)
    return hi - lo


# ---------------------------------------------------------------------------
# interval domination for decreasing weights
# ---------------------------------------------------------------------------

def domination_check(
    phi: Callable[[float], float],
    A: Sequence[int],
    b: int,
    d: int,
) -> tuple[float, float, bool]:
    """Compare sum_{j<k in A} phi(k^d - j^d) against the packed interval.

    The right side replaces A by the interval {b, ..., b + |A| - 1}; for a
    positive decreasing phi with 0 < b <= min(A) the left side never exceeds
    the right.  Returns (lhs, rhs, lhs <= rhs up to 1e-12 relative slack).
    """
    a = sorted(set(int(v) for v in A))
    if len(a) != len(A):
        raise ValueError("A must have distinct elements")
    if not a:
        raise ValueError("A must be nonempty")
    if d < 2 or d != int(d):
        raise ValueError("d must be an integer >= 2")
    if not (0 < b <= a[0]):
        raise ValueError("b must satisfy 0 < b <= min(A)")
    args: list[int] = []
    for i in range(len(a)):
        for j in range(i + 1, len(a)):
            args.append(a[j] ** d - a[i] ** d)
    rhs_args: list[int] = []
    top = b + len(a) - 1
    for j in range(b, top + 1):
        for k in range(j + 1, top + 1):
            rhs_args.append(k**d - j**d)
    queried = sorted(set(args + rhs_args))
    vals = {q: float(phi(q)) for q in queried}
    for q in queried:
        if not vals[q] > 0:
            raise ValueError("phi must be positive on the queried domain")
    for q1, q2 in zip(queried, queried[1:]):
        if vals[q2] > vals[q1] * (1 + 1e-12):
            raise ValueError("phi must be decreasing on the queried domain")
    lhs = math.fsum(vals[q] for q in args)
    rhs = math.fsum(vals[q] for q in rhs_args)
    return lhs, rhs, lhs <= rhs + 1e-12 * rhs
