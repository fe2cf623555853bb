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

Every integer binary search in the module is `_first_above`, on x^d or on
(x+b)^d - x^d: the brute counter, the bisection and the sweep's last j per b
call it.  Every int64 list of differences (x+b)^d - x^d is `_differences`:
the sweep's blocks and the sup grid's realized differences.

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
from .expsum import FrequencySpectrum, RepresentationTable, even_moment, representation_table

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
    for each j the admissible k form a contiguous block located by two
    `_first_above` searches on the strictly increasing map k -> k^d.
    """
    lo, hi = _strict_window(q.E, q.D)
    d = q.d
    below = max(lo, 1) - 1  # k^d - j^d > below; the difference is at least 1 anyway
    count = 0
    work = 0
    j = 1
    slope = d  # d * j^{d-1}, maintained incrementally for the loop guard
    while slope <= hi:
        jd = j**d
        k_top = j + hi // slope + 1
        k_lo, probes = _first_above(d, 0, jd + below, j + 1, k_top)
        work += probes
        if k_lo**d > jd + below:
            k_hi, probes = _first_above(d, 0, jd + hi, k_lo, k_top + 1)
            work += probes
            count += k_hi - k_lo
        j += 1
        slope = d * j ** (d - 1)
    return CountResult(check_count(count, "shell count"), "brute", work)


def _window_count(d: int, lo: int, hi: int) -> CountResult:
    """Pairs j < k in N with lo <= k^d - j^d <= hi, by scanning b = k - j.

    Writing k = j + b turns the window into bounds on the strictly
    increasing v_b(j) = (j+b)^d - j^d, and each b needs only two
    `_first_above` searches; total work O(hi^{1/d} log hi).
    """
    count = 0
    work = 0
    b = 1
    while b**d <= hi:
        t = max(lo - 1, b**d)  # v_b(j) > t means v_b(j) >= lo, as v_b(j) > b^d for j >= 1
        if hi > t:
            ub = _floor_root(max((hi - b**d) // (d * b), 1), d - 1) + 1
            j_lo, probes = _first_above(d, b, t, 1, ub)
            work += probes
            if (j_lo + b) ** d - j_lo**d > t:
                j_hi, probes = _first_above(d, b, hi, j_lo, ub + 1)
                work += probes
                count += j_hi - j_lo
        b += 1
    return CountResult(check_count(count, "shell count"), "fast", work)


def shell_count_fast(q: ShellQuery) -> CountResult:
    """Count shell pairs on the integer window of |v - E| < D, scanning k - j."""
    return _window_count(q.d, *_strict_window(q.E, q.D))


def _first_above(d: int, b: int, t: int, lo: int, hi: int) -> tuple[int, int]:
    """Smallest x in [lo, hi) with f_b(x) > t, or hi if there is none.

    f_0(x) = x^d and f_b(x) = (x+b)^d - x^d for b >= 1; both increase
    strictly on x >= 0.  Returns (x, probes), the probes being the `work`
    the counters report.  One integer binary search serves every counter.
    """
    probes = 0
    while lo < hi:
        mid = (lo + hi) >> 1
        probes += 1
        if ((mid + b) ** d - mid**d if b else mid**d) > t:
            hi = mid
        else:
            lo = mid + 1
    return lo, probes


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
    and the grid points known before the grid is built) is checked first;
    the slowest refusal measured, at d = 3 and D = 1.5e6, takes 0.65 s.
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
    last_js = [_last_j(d, b, top) for b in range(1, n_b + 1)]
    if integral:
        grid = [float(e) for e in range(lo_e, hi_e + 1)]
    else:
        ends = [float(D), float(D) * float(D)]
        geometric = np.clip(_geometric(lo_e, hi_e, e_samples), *ends)
        j_cap = int(2 * D ** (1.0 / d)) + 1
        diffs = np.concatenate(
            [np.zeros(0, np.int64)]  # n_b may be 0
            + [_differences(d, b, 1, min(j_cap, last) + 1) for b, last in enumerate(last_js, start=1)]
        )
        diffs = diffs[(diffs >= lo_e) & (diffs <= hi_e)]
        grid = np.sort(np.concatenate((ends, geometric, diffs.astype(np.float64))))
        grid = grid[np.diff(grid, prepend=0.0) > 0].tolist()  # np.unique would import numpy.ma
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

    (j+b)^d - j^d >= b^d + d b j^{d-1} bounds the search.
    """
    bound = _floor_root((top - b**d) // (d * b), d - 1)
    return _first_above(d, b, top, 1, bound + 1)[0] - 1


def _differences(d: int, b: int, start: int, stop: int) -> np.ndarray:
    """v_b(j) = (j+b)^d - j^d for start <= j < stop, as int64, increasing.

    v_b(j) is the binomial sum sum_{i<d} C(d,i) b^{d-i} j^i by Horner's rule:
    every term and partial value is at most v_b(j), so nothing wraps while
    v_b(stop - 1) < 2^63.
    """
    coeffs = [math.comb(d, i) * b ** (d - i) for i in range(d)]
    j = np.arange(start, stop, dtype=np.int64)
    v = np.full(len(j), coeffs[-1], dtype=np.int64)
    for c in reversed(coeffs[:-1]):
        v *= j
        v += c
    return v


def _geometric(lo: int, hi: int, count: int) -> np.ndarray:
    """x_i = lo * r^i for i < count, r = (hi/lo)^{1/max(count-1, 1)}.

    Each x_i is the running product x_{i-1} * r, so the floats do not depend
    on how the sequence is evaluated.
    """
    ratio = (hi / lo) ** (1.0 / max(count - 1, 1))
    return np.cumprod(np.concatenate(([float(lo)], np.full(count - 1, ratio))))


def _sweep_counts(d: int, lo: np.ndarray, hi: np.ndarray, last_js: Sequence[int]) -> np.ndarray:
    """Pairs j < k with lo[i] <= k^d - j^d <= hi[i], for every window i at once.

    last_js[b - 1] is the last j whose difference v_b(j) = (j+b)^d - j^d
    stays within the largest hi < 2^63.  v_b increases strictly in j, so each
    b is enumerated once, in blocks of at most _SWEEP_BLOCK entries, and
    every window takes two searchsorted calls per block.
    """
    counts = np.zeros(len(lo), dtype=np.int64)
    for b, last in enumerate(last_js, start=1):
        for start in range(1, last + 1, _SWEEP_BLOCK):
            v = _differences(d, b, start, min(start + _SWEEP_BLOCK, last + 1))
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
    fx = math.floor(x)
    positive = _window_count(d, 1, fx).count
    return check_count(4 * positive + 2 * _floor_root(fx, d), "hyperbolic count")


# ---------------------------------------------------------------------------
# divisor summatory function
# ---------------------------------------------------------------------------

_DIVISOR_BLOCK = 1 << 16  # quotients per tile; a tile stays in cache
_LIMB = 31  # bits of the low limb of a quotient sum
_LOW = (1 << _LIMB) - 1


def divisor_summatory(x: float) -> int:
    """D(x) = sum_{n <= x} d(n) by the hyperbola identity, O(sqrt x) time.

    The one-row face of ``divisor_summatories``.  x >= 2^62 raises
    GuardError: the sum would run over 2^31 divisors.
    """
    if x < 1:
        raise ValueError("x must be at least 1")
    n = math.floor(x)
    if n >= 2**62:
        raise GuardError("divisor summatory needs x < 2^62 (over 2^31 divisors past it)")
    return check_count(int(divisor_summatories(np.array([n], dtype=np.int64))[0]), "divisor summatory")


def divisor_summatories(n: np.ndarray) -> np.ndarray:
    """D(n) = 2 * sum_{a <= s} floor(n/a) - s^2, s = isqrt(n), per entry of n.

    ``n`` is a nondecreasing int64 array of values in [1, 2^62).  Entries
    sharing s form one group, summed in tiles of rows x a-block with at most
    2^16 quotients.  Every tile is written into one scratch block allocated
    per call, so memory stays flat and a large n does not wait on a fresh
    allocation (and its page faults) per tile.  A tile sums in int64 where
    (block length) * (largest n // first a) < 2^63 bounds every row;
    otherwise the quotients split into 31-bit limbs, whose sums stay below
    2^47.  The result is int64 where every sum over a stays below 2^61, and
    an object array of Python ints past that.
    """
    n = np.asarray(n)
    if n.dtype != np.int64 or n.ndim != 1:
        raise ValueError("n must be a one-dimensional int64 array")
    if not n.size:
        return np.zeros(0, dtype=np.int64)
    if n[0] < 1 or np.any(n[1:] < n[:-1]):
        raise ValueError("n must be nondecreasing and at least 1")
    if n[-1] >= 2**62:
        raise GuardError("divisor summatory needs x < 2^62 (over 2^31 divisors past it)")
    s = _isqrt(n)
    high = np.zeros(len(n), dtype=np.int64)  # sum over a = high * 2^31 + low
    low = np.zeros(len(n), dtype=np.int64)
    ramp = np.arange(min(int(s[-1]), _DIVISOR_BLOCK), dtype=np.int64)
    tile_max = min(_DIVISOR_BLOCK, len(n) * len(ramp))
    scratch = np.empty((3, tile_max), dtype=np.int64)  # divisors, quotients, low limbs
    cuts = [0, *(np.flatnonzero(s[1:] != s[:-1]) + 1).tolist(), len(n)]
    for start, stop in itertools.pairwise(cuts):
        root = int(s[start])
        width = min(root, _DIVISOR_BLOCK)
        height = _DIVISOR_BLOCK // width  # rows per tile
        for first in range(start, stop, height):
            rows = slice(first, min(first + height, stop))
            for lo in range(1, root + 1, width):
                size = min(width, root + 1 - lo)
                a = np.add(ramp[:size], lo, out=scratch[0, :size])
                tile = (rows.stop - rows.start) * size
                q = scratch[1, :tile].reshape(-1, size)
                spare = scratch[2, :tile].reshape(-1, size)
                tile_high, tile_low = _quotient_sums(n[rows, None], a, q, spare)
                high[rows] += tile_high
                low[rows] += tile_low
    high += low >> _LIMB
    low &= _LOW
    if high.max() < 1 << (61 - _LIMB):
        return 2 * ((high << _LIMB) | low) - s * s
    return 2 * ((high.astype(object) << _LIMB) | low.astype(object)) - (s * s).astype(object)


def _isqrt(n: np.ndarray) -> np.ndarray:
    """floor(sqrt(n)) per entry of an int64 array in [0, 2^62).

    The rounded float root truncates to s = isqrt(n) or s + 1: rounding n
    up can reach (s + 1)^2, but rounding s^2 down moves its root by under
    half a float spacing, so the root never falls below s.  One step down,
    checked on exact int64 squares, makes it exact.
    """
    s = np.sqrt(n.astype(np.float64)).astype(np.int64)
    s -= s * s > n
    return s


def _quotient_sums(
    col: np.ndarray, a: np.ndarray, q: np.ndarray, spare: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per row n of a nondecreasing column below 2^62, the sum of n // a over a.

    ``a`` holds at most 2^16 increasing divisors; ``q`` and ``spare`` are
    scratch of the tile's shape, rows x len(a), so no tile allocates it.
    Returned as limbs (high, low) of the sum high * 2^31 + low.  One int64
    sum per row where len(a) * (largest n // a[0]) < 2^63 bounds it;
    otherwise the quotients split into 31-bit limbs, whose sums stay below
    2^47.
    """
    np.floor_divide(col, a, out=q)
    if len(a) * (int(col[-1, 0]) // int(a[0])) < 2**63:
        total = q.sum(axis=1)
        return total >> _LIMB, total & _LOW
    low = np.bitwise_and(q, _LOW, out=spare).sum(axis=1)
    return np.right_shift(q, _LIMB, out=q).sum(axis=1), low


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

def _power_spectrum(n: int, d: int, M: int) -> FrequencySpectrum:
    """The unit spectrum of 1^d..M^d, past the guard n*M^d <= 2^40."""
    if n < 1 or d < 1 or M < 1:
        raise ValueError("n, d, M must be positive integers")
    if n * M**d > 2**40:
        raise GuardError("dense representation table exceeds the guard n*M^d <= 2^40")
    return FrequencySpectrum.unit(j**d for j in range(1, M + 1))


def representation_count(n: int, d: int, M: int) -> RepresentationTable:
    """Table of R(m) = #{(j_1..j_n) : 1 <= j_i <= M, sum j_i^d = m}, exact."""
    return representation_table(_power_spectrum(n, d, M), n)


def diophantine_count(n: int, d: int, M: int) -> int:
    """Number of 2n-tuples with equal sums of d-th powers: sum_m R(m)^2."""
    return even_moment(_power_spectrum(n, d, M), n)


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
