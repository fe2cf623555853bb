"""Thin-shell lattice counts: pairs j < k in N with k^d - j^d near E.

The shell count is the number of pairs with |k^d - j^d - E| < D, and R_d(x)
is the symmetric two-sided count #{(j, k) in Z^2 : 0 < |k|^d - |j|^d <= x}.
They are the lattice side of the even moments of random exponential sums.
`expsumlab.lattice` also serves the public names, importing this module on
first use, and so do the CLI and `verification_suite`.

Counting conventions are exact and explicit:

* shell counts use the strict window |k^d - j^d - E| < D with j < k over the
  positive integers (so N starts at 1);
* R_d(x) uses the half-open condition 0 < |k|^d - |j|^d <= x over all of Z^2.

Two counters share that window form, pairs j < k with k^d - j^d on an
inclusive integer window [lo, hi], and differ in how many windows they answer:

* the row kernels behind `shell_counts` (`_brute_counts`, `_fast_counts`):
  every window of one call is split into search rows, (window, j) for the
  brute counter and (window, b = k - j) for the fast one, and the rows are
  searched together in blocks of `_ROW_BLOCK` rows.  Each row takes two
  integer binary searches, O(hi^{1/d} log hi) steps a window for the fast
  counter.  A shell passes the integers strictly inside (E - D, E + D);
  R_d(x) passes [1, floor(x)] and adds the sign and axis symmetries.  A call
  past 2^25 rows in all (2^18 where a window passes 2^63 and the rows run on
  Python ints), about 10 s of work, raises GuardError before any search.
* the batch sweep (`_sweep_counts`), behind `shell_sup_ratio`: every
  difference up to the largest window top is enumerated once, per b in
  increasing int64 blocks, and all G windows are answered by two
  `searchsorted` calls per block, N + B * G steps for N differences, B
  values of b and G windows.  The fast kernel is its oracle.

Every integer binary search in the module is `_bisect`, one lockstep loop
over rows that probes the midpoints a scalar search would, so every count
and `work` is that of a scalar search.  The brute rows compare k with the
exact pivot floor((j^d + c)^{1/d}) (`_root_offsets`: a float root and an
exact correction); the fast rows, the sweep's last j per b and R_d(x) test
(x+b)^d - x^d > t by Horner's rule (`_horner_above`).  Every int64 list of
differences (x+b)^d - x^d is `_differences`: the sweep's blocks and the sup
grid's realized differences.

Real-valued E, D are honored exactly: each query becomes the integer window
strictly inside (E - D, E + D), its ends taken from the exact integer ratios
of E and D (`_strict_window`), so boundary lattice points are never
misclassified by float rounding.  A query whose E + D passes 2^63 is
refused by that window's integer top (`_query_window`), so no rational is
built.  Powers are taken in int64 where no Horner value can pass 2^63 and
as Python ints otherwise, so nothing wraps; counts above 128 bits raise
instead of wrapping.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import GuardError, check_count


@dataclass(frozen=True)
class ShellQuery:
    """Parameters of one shell count: |k^d - j^d - E| < D, j < k in N.

    Checked on creation by `_query_window`, as `shell_counts` checks each
    of its queries: d an integer >= 2, E and D at least 1, and E + D at
    most 2^63, exactly.
    """

    d: int
    E: float
    D: float

    def __post_init__(self):
        _query_window(self.d, self.E, self.D)


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


_ROW_BLOCK = 1 << 13  # rows per lockstep pass; a block's temporaries stay near 2 MB
_ROW_LIMIT = 1 << 25  # rows per kernel call, about 10 s at 0.3 us a row
_OBJECT_ROW_LIMIT = 1 << 18  # the same past 2^63, at about 30 us a row on Python ints


def shell_count_brute(q: ShellQuery) -> CountResult:
    """Count shell pairs by scanning j: the one-row face of `shell_counts`."""
    (count,), (work,) = shell_counts(q.d, [q.E], [q.D], "brute")
    return CountResult(check_count(int(count), "shell count"), "brute", int(work))


def shell_count_fast(q: ShellQuery) -> CountResult:
    """Count shell pairs by scanning k - j: the one-row face of `shell_counts`."""
    (count,), (work,) = shell_counts(q.d, [q.E], [q.D], "fast")
    return CountResult(check_count(int(count), "shell count"), "fast", int(work))


def shell_counts(
    d: int, E: Sequence[float], D: Sequence[float], method: str
) -> tuple[np.ndarray, np.ndarray]:
    """(count, work) int64 arrays over the shell queries (d, E[i], D[i]), in one kernel call.

    ``method`` is "brute" (`_brute_counts`, rows (query, j)) or "fast"
    (`_fast_counts`, rows (query, k - j)).  Each query is checked by
    `_query_window`, as a `ShellQuery` is, and counted on its strict window
    E - D < k^d - j^d < E + D; the windows go straight into int64 arrays, so
    a call holds no Python object per query.  A call past 2^25 search rows
    raises GuardError before any search.
    """
    kernel = {"brute": _brute_counts, "fast": _fast_counts}[method]
    if len(E) != len(D):
        raise ValueError("E and D must have the same length")
    windows = itertools.chain.from_iterable(_query_window(d, e, width) for e, width in zip(E, D))
    lo, hi = np.fromiter(windows, np.int64, 2 * len(E)).reshape(-1, 2).T
    return kernel(d, lo, hi)


def _query_window(d: int, E: float, D: float) -> tuple[int, int]:
    """The strict window of the shell query (d, E, D), once the query is checked.

    Refuses, in this order: a d that is not an integer >= 2 (ValueError); E
    or D below 1 (ValueError); a float sum E + D past 2^63, which also
    catches an infinite E or D (GuardError); and a window top at or past
    2^63 (GuardError).  The top is ceil(E + D) - 1, so the last test is
    E + D > 2^63 exactly, where the float sum may round down to 2^63.  A
    NaN E or D is refused with ValueError by its integer ratio.
    """
    if d < 2 or d != int(d):
        raise ValueError("d must be an integer >= 2")
    if E < 1 or D < 1:
        raise ValueError("E and D must be at least 1")
    E, D = _python_number(E), _python_number(D)  # an int64 sum could wrap
    if E + D > 2**63:
        raise GuardError("E + D exceeds the supported range")
    lo, hi = _strict_window(E, D)
    if hi >= 2**63:
        raise GuardError("E + D exceeds the supported range")
    return lo, hi


def _python_number(v):
    """A numpy scalar as the Python int or float it equals, exactly; other values as they are."""
    return v.item() if isinstance(v, np.generic) else v


def _window_arrays(windows: Sequence[tuple[int, int]]) -> tuple[np.ndarray, np.ndarray]:
    """Inclusive integer windows as (lo, hi) arrays: int64, or Python ints past 2^63."""
    fits = all(-(2**63) <= lo and hi < 2**63 for lo, hi in windows)
    lo, hi = np.array(windows, dtype=np.int64 if fits else object).reshape(-1, 2).T
    return lo, hi


def _brute_counts(d: int, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(count, work) per window: pairs j < k in N with lo[i] <= k^d - j^d <= hi[i].

    lo and hi are int64, as `shell_counts` makes them.  A row is one
    (window, j), for j while d * j^{d-1} <= hi (no larger j
    admits any k).  Its admissible k form a block [k_lo, k_hi): k_lo is the
    first k in [j + 1, k_top) above the exact pivot floor((j^d + c)^{1/d}),
    c = max(lo, 1) - 1, with k_top = j + hi // (d j^{d-1}) + 1, and where
    k_lo is above it, k_hi is the first k in [k_lo, k_top + 1) above the
    pivot of c = hi.  The probes of both searches are the row's work.
    """
    below = np.maximum(lo, 1) - 1  # k^d - j^d > below; the difference is at least 1 anyway
    count, work = np.zeros((2, len(hi)), dtype=np.int64)
    for w, j in _row_blocks(_guarded_roots(np.maximum(hi // d, 0), d - 1, "brute shell count")):
        top = hi[w]
        k_top = _power(j, d - 1) * d
        np.floor_divide(top, k_top, out=k_top)
        k_top += j + 1
        pivot = j + _root_offsets(d, j, below[w])
        k_lo, probes = _bisect(j + 1, k_top, np.greater, pivot)
        hit = np.flatnonzero(k_lo > pivot)
        pivot = j[hit] + _root_offsets(d, j[hit], top[hit])
        k_hi, more = _bisect(k_lo[hit], k_top[hit] + 1, np.greater, pivot)
        probes[hit] += more
        _add_by_window(work, w, probes)
        _add_by_window(count, w[hit], k_hi - k_lo[hit])
    return count, work


def _fast_counts(d: int, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(count, work) per window: pairs j < k in N with lo[i] <= k^d - j^d <= hi[i].

    A row is one (window, b), for b = k - j while b^d <= hi.  Writing k = j + b
    turns the window into bounds on the strictly increasing
    v_b(j) = (j+b)^d - j^d, so a row takes two `_first_above` searches: total
    work O(hi^{1/d} log hi) per window.
    """
    count, work = np.zeros((2, len(hi)), dtype=np.int64)
    for w, b in _row_blocks(_guarded_roots(np.maximum(hi, 0), d, "fast shell count")):
        b = b.astype(hi.dtype, copy=False)
        top = hi[w]
        b_d = _power(b, d)
        t = np.maximum(lo[w] - 1, b_d)  # v_b(j) > t means v_b(j) >= lo, as v_b(j) > b^d for j >= 1
        live = np.flatnonzero(top > t)
        w, b, b_d, top, t = w[live], b[live], b_d[live], top[live], t[live]
        ub = _root_offsets(d - 1, 0, np.maximum((top - b_d) // (d * b), 1)) + 1
        terms = _binomial_terms(d, b, 1, d, ub)
        j_lo, probes = _bisect(np.ones_like(ub), ub, _horner_above, t, *terms)
        hit = np.flatnonzero(_horner_above(j_lo, t, *terms))
        j_hi, more = _first_above(d, b[hit], top[hit], j_lo[hit], ub[hit] + 1)
        probes[hit] += more
        _add_by_window(work, w, probes)
        _add_by_window(count, w[hit], j_hi - j_lo[hit])
    return count, work


def _guarded_roots(v: np.ndarray, d: int, what: str) -> np.ndarray:
    """floor(v^{1/d}) per window, the rows of one kernel call.

    Refuses with GuardError, before any search, a call past _ROW_LIMIT rows
    in all, or past _OBJECT_ROW_LIMIT where the windows pass 2^63 and the
    rows run on Python ints.  v is clipped where its root alone would pass
    the limit, so the roots stay exact and cheap for any v.
    """
    limit = _OBJECT_ROW_LIMIT if v.dtype == object else _ROW_LIMIT
    cap = (limit + 1) ** d
    rows = _root_offsets(d, 0, np.minimum(v, cap) if cap < 2**63 or v.dtype == object else v)
    total = int(rows.sum())
    if total > limit:
        bits = limit.bit_length() - 1
        raise GuardError(f"{what} needs at least {total} search rows, past the 2^{bits} limit (about 10 s)")
    return rows.astype(np.int64)


def _row_blocks(rows: np.ndarray):
    """Yield (window, y) int64 arrays over every row, window by window, y = 1..rows[window].

    A block holds at most _ROW_BLOCK rows, so temporaries stay bounded for
    any number of windows.
    """
    ends = np.cumsum(rows)
    starts = ends - rows
    total = int(ends[-1]) if len(ends) else 0
    for start in range(0, total, _ROW_BLOCK):
        stop = min(start + _ROW_BLOCK, total)
        first, last = bisect_right(ends, start), bisect_left(ends, stop) + 1  # the windows it meets
        spans = np.minimum(ends[first:last], stop) - np.maximum(starts[first:last], start)
        w = np.repeat(np.arange(first, last), spans)
        yield w, np.arange(start + 1, stop + 1) - starts[w]


def _add_by_window(out: np.ndarray, w: np.ndarray, values: np.ndarray) -> None:
    """out[w[i]] += values[i], for nondecreasing w."""
    if len(w):
        starts = np.flatnonzero(np.diff(w, prepend=-1))
        out[w[starts]] += np.add.reduceat(values, starts).astype(np.int64)


def _bisect(lo: np.ndarray, hi: np.ndarray, above: Callable[..., np.ndarray], *rows):
    """Per row, the smallest x in [lo, hi) with above(x, *rows) true, or hi if none.

    lo <= hi per row, and lo + hi < 2^63 in int64 (every caller's ranges are
    far below it under the row guard).

    ``above`` is increasing in x per row, and ``rows`` are its per-row
    arrays (or scalars shared by every row).  The module's one search loop:
    every row halves its range in lockstep, probing the midpoints a scalar
    binary search would, until its range is empty.  A finished row keeps
    hi, its answer, and probes mid = hi, which moves neither end's answer;
    once half of more than 64 rows are finished the rest are packed, so a
    pass costs about the rows still searching.  Returns (x, probes), the
    probes being the `work` the counters report.
    """
    x, work = np.empty_like(hi), np.empty(len(hi), dtype=np.int64)
    at = np.arange(len(lo))
    probes = np.zeros(len(lo), dtype=np.int64)
    live = lo < hi
    searching = np.count_nonzero(live)
    while searching:
        if searching <= len(at) // 2 and len(at) > 64:  # packing a few rows costs more than it saves
            x[at], work[at] = hi, probes
            keep = np.flatnonzero(live)
            at, lo, hi, probes, live = at[keep], lo[keep], hi[keep], probes[keep], live[keep]
            rows = [r[keep] if isinstance(r, np.ndarray) else r for r in rows]
        probes += live
        mid = (lo + hi) >> 1
        up = above(mid, *rows)
        hi = np.where(up, mid, hi)
        lo = np.where(up, lo, mid + 1)
        live = lo < hi
        searching = np.count_nonzero(live)
    x[at], work[at] = hi, probes
    return x, work


def _first_above(d: int, b: np.ndarray, t: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """Per row, the smallest x in [lo, hi) with v_b(x) = (x+b)^d - x^d > t, or hi.

    b >= 1 per row; (x, probes) as in `_bisect`.
    """
    return _bisect(lo, hi, _horner_above, t, *_binomial_terms(d, b, 1, d, hi))


def _binomial_terms(d: int, y: np.ndarray, first: int, last: int, x: np.ndarray) -> list:
    """Horner coefficients of sum_{i=first..last} C(d, i) y^i x^{d-i}, highest power of x first.

    That is (x + y)^d less its terms outside first..last, as a polynomial in
    x.  The coefficients are int64 where the polynomial at the largest x with
    every coefficient at its largest stays below 2^63, which bounds every
    partial value of `_horner_above` for x up to max(x), and Python ints
    otherwise, so nothing wraps.
    """
    top_x, top_y = int(x.max(initial=0)), int(y.max(initial=0))
    bound = 0
    for i in range(first, d + 1):
        bound = bound * top_x + (math.comb(d, i) * top_y**i if i <= last else 0)
    y = y.astype(np.int64 if bound < 2**63 else object, copy=False)
    terms: list = [1] if first == 0 else []  # C(d, 0) y^0
    power = y
    for i in range(1, last + 1):
        if i >= first:
            terms.append(math.comb(d, i) * power)
        if i < last:
            power = power * y
    return terms + [0] * (d - last)


def _power(y: np.ndarray, k: int) -> np.ndarray:
    """y^k for k >= 1 by k - 1 products."""
    power = y
    for _ in range(k - 1):
        power = power * y
    return power


def _horner_above(x: np.ndarray, t: np.ndarray, *terms) -> np.ndarray:
    """P(x) > t per row, for P with the coefficients ``terms``, highest first."""
    v = terms[0]
    for c in terms[1:]:
        v = v * x + c
    return v > t


def _root_offsets(d: int, y, c: np.ndarray) -> np.ndarray:
    """The largest m >= 0 with (y+m)^d - y^d <= c, per row, exactly.

    y >= 0 is 0 or an array with y^{d-1} in range, and c >= 0; with y = 0
    this is floor(c^{1/d}).  The float root is within one of the answer below
    2^52, where every kernel's roots lie (larger ones raise ValueError), and
    one exact test each way per row corrects it; a row that moved is tested
    again.
    """
    c = np.asarray(c)
    if d == 1:
        return c.copy()
    y = np.asarray(y, dtype=c.dtype)
    yf = y.astype(np.float64)
    guess = c.astype(np.float64)
    guess += yf**d
    guess **= 1.0 / d
    guess -= yf
    if guess.max(initial=0) >= 2**52:
        raise ValueError("root offsets from 2^52 on are out of range")
    m = np.floor(guess, out=guess).clip(0, out=guess).astype(np.int64).astype(c.dtype, copy=False)
    y = np.broadcast_to(y, c.shape)
    rows = slice(None)
    while True:
        now, bound = m[rows], c[rows]
        terms = _binomial_terms(d, y[rows], 0, d - 1, now + 1)  # (y+m)^d - y^d as a polynomial in m
        up = ~_horner_above(now + 1, bound, *terms)
        down = (now > 0) & _horner_above(now, bound, *terms)
        moved = np.flatnonzero(up | down)
        if not len(moved):
            return m
        m[rows] = now + up - down
        rows = np.arange(len(c))[rows][moved]


def _floor_root(v: int, d: int) -> int:
    """Largest integer r with r^d <= v (v >= 0, d >= 1), exactly."""
    if v < 0:
        raise ValueError("v must be nonnegative")
    return int(_root_offsets(d, 0, _window_arrays([(0, v)])[1])[0])


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
    GuardError, and so does a d, E, D that `_query_window` refuses at the
    largest grid E.  A lower bound on the work (the pairs j < k <= top^{1/d},
    and the grid points known before the grid is built) is checked first;
    the slowest refusal measured, at d = 3 and D = 1.5e6, takes 0.65 s.
    """
    if e_samples < 1:
        raise ValueError("e_samples must be positive")
    lo_e, hi_e = _e_range(D)
    D = _python_number(D)
    integral = hi_e - lo_e + 1 <= e_samples
    top_e = float(hi_e) if integral else float(D) * float(D)  # the largest grid E
    top = _query_window(d, top_e, D)[1]  # refuses a bad d, or E + D > 2^63 at the largest E
    n_b = _floor_root(top + 1, d) - 1  # b with (1 + b)^d - 1 <= top
    m = _floor_root(top, d)  # every pair j < k <= m differs by less than top
    # the j = 1 differences in [lo_e, hi_e] are distinct grid points
    known = hi_e - lo_e + 1 if integral else _floor_root(hi_e + 1, d) - _floor_root(lo_e, d)
    _check_sup_work(m * (m - 1) // 2 + (n_b + _GRID_POINT_STEPS) * known)
    last_js = _last_js(d, top, n_b).tolist()
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


def _e_range(D: float) -> tuple[int, int]:
    """ceil(D) and floor(D^2), exactly: the integer E of a grid over [D, D^2].

    Both are taken from D's integer ratio, so a D whose float square rounds
    across an integer still gets the exact floor.  D below 1, and a D with
    no integer in [D, D^2] (exactly 1 < D < sqrt 2), raise ValueError.
    """
    if D < 1:
        raise ValueError("D must be at least 1")
    num, den = _python_number(D).as_integer_ratio()
    lo_e, hi_e = -(-num // den), num * num // (den * den)
    if lo_e > hi_e:
        raise ValueError(f"no integer E lies in [D, D^2] for D = {D}")
    return lo_e, hi_e


def _check_sup_work(work: int) -> None:
    if work > _SUP_WORK_LIMIT:
        raise GuardError(
            f"shell sup search needs at least {work} steps, past the 2^28 limit (about 10 s)"
        )


def _last_js(d: int, top: int, n_b: int) -> np.ndarray:
    """Per b = 1..n_b, the largest j >= 0 with (j+b)^d - j^d <= top < 2^63.

    (j+b)^d - j^d >= b^d + d b j^{d-1} bounds the search.
    """
    b = np.arange(1, n_b + 1, dtype=np.int64)
    bound = _root_offsets(d - 1, 0, (top - _power(b, d)) // (d * b))
    return _first_above(d, b, np.full(n_b, top), np.ones(n_b, dtype=np.int64), bound + 1)[0] - 1


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
    positive = int(_fast_counts(d, *_window_arrays([(1, fx)]))[0][0])
    return check_count(4 * positive + 2 * _floor_root(fx, d), "hyperbolic count")
