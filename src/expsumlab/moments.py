"""Expected L^p norms of randomized exponential sums.

The quantity of interest is ``E || sum_{j in A} e(y * X(t_j)) ||_p^p`` where
X is one of the processes in :mod:`expsumlab.processes` and the times t_j are
an index set pushed through a time map (identity, d-th power, or the
arithmetic progression j * M^r).

Two routes are implemented and cross-checked against each other:

* Monte Carlo: sample a path, evaluate the realized exponential sum's norm
  exactly (even p) or by quadrature (general p), average.  Per-sample seeding
  makes estimates bitwise reproducible.
* Exact: the Poisson closed form at p = 2, and every even p for all three
  processes by one transfer matrix over y.  The moment E||.||_{2n}^{2n} is
  the integral over y in [0, 1] of E|sum_j e(y X(t_j))|^{2n}.  For fixed y that expectation is a state
  machine on (n+1)^2 states, run over the times, largest first, with the
  increments' characteristic functions; a rectangle rule in y, one numpy
  vector per state, integrates it.  The rule's only error is aliasing, a
  nonnegative term (Abate and Whitt, Oper. Res. Lett. 1992): none for the
  walk and i.i.d. draws, below |A|^{2n} tol for Poisson.  A float64 rounding
  term is stated with the Poisson engine.

The coincidence DP, coincidence_probability_poisson, gives one P[sum of
process values = sum of process values] from the independent Poisson
increments over elementary intervals, whose truncated pmfs _signed_sum_pmf
convolves.  The combination checks of :mod:`expsumlab.bounds` share that
convolution, and the tests check the exact engine against the DP.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import COUNT_BITS, GuardError, check_power
from .expsum import _NODE_LIMIT, FrequencySpectrum, even_moments, lp_norm_quadrature, suggested_nodes
from .processes import (
    Pmf,
    SeedSpec,
    TimeGrid,
    check_walk_length,
    iid_draws,
    poisson_draws,
    poisson_pmf,
    walk_draws,
)

_DP_SUPPORT_LIMIT = 50_000_000
_TRANSFER_WORK_LIMIT = 1 << 30  # nodes x times x (n+1)^2: about 20 s of the exact engine
_Y_BLOCK = 1 << 13  # y nodes per block; a block's states stay in cache
_EXACT_TOL = 1e-15  # Poisson aliasing budget per tuple of exact_even_moment
# Sampled values counted together.  An n = 2 block packs at most 24 pairs a
# value; blocks of 2^12 values raised mc-ladder's peak memory by 0.2 MB.
_BLOCK_VALUES = 1 << 10


@dataclass(frozen=True)
class MomentEstimate:
    """A moment's mean, with its standard error, sample count and descriptor."""

    mean: float
    std_error: float
    n_samples: int
    descriptor: str


@dataclass(frozen=True)
class TimeMap:
    """Maps an index j to an evaluation time: j, j^d, or j*M^r (M = max A)."""

    kind: str
    d: int = 1
    r: float = 1.0

    def __post_init__(self):
        if self.kind not in ("identity", "power", "arith"):
            raise ValueError("kind must be identity, power, or arith")
        if self.kind == "power" and (self.d < 1 or self.d != int(self.d)):
            raise ValueError("power map needs an integer d >= 1")
        if self.kind == "arith" and not self.r > 0:
            raise ValueError("arith map needs r > 0")

    def apply(self, index_set: Sequence[int]) -> tuple[float, ...]:
        if self.kind == "identity":
            return tuple(float(j) for j in index_set)
        if self.kind == "power":
            return tuple(float(j ** self.d) for j in index_set)
        scale = float(max(index_set)) ** self.r
        return tuple(j * scale for j in index_set)

    def label(self) -> str:
        if self.kind == "identity":
            return "identity"
        if self.kind == "power":
            return f"power:{self.d}"
        return f"arith:{self.r:g}"


@dataclass(frozen=True)
class ExperimentSpec:
    """One Monte Carlo experiment: process, index set, time map, p, samples."""

    process: str
    index_set: tuple[int, ...]
    time_map: TimeMap
    p: float
    samples: int
    seed: SeedSpec
    pmf: Pmf | None = None

    def __post_init__(self):
        if self.process not in ("iid", "poisson", "walk"):
            raise ValueError("process must be iid, poisson, or walk")
        if not self.index_set:
            raise ValueError("index set must be nonempty")
        a = self.index_set
        if a[0] < 1 or any(a[i] >= a[i + 1] for i in range(len(a) - 1)):
            raise ValueError("index set must be strictly increasing positive integers")
        check_power(len(a), self.p)
        if self.samples < 1:
            raise ValueError("samples must be positive")
        if self.process == "iid" and self.pmf is None:
            raise ValueError("iid process needs a pmf")

    def times(self) -> tuple[float, ...]:
        return self.time_map.apply(self.index_set)

    def descriptor(self) -> str:
        return f"{self.process}/{self.time_map.label()}/p={self.p:g}/|A|={len(self.index_set)}"


def _sampler(spec: ExperimentSpec) -> Callable[[int], np.ndarray]:
    """The realized values of sample i, as an array, as a function of i.

    The mapped times, the walk's index array and one generator reset for
    each sample (``SeedSpec.reset_generator``) are built once here for every
    sample of the experiment, so sample i draws what ``spec.seed.generator(i)``
    would.  Values are int64, except i.i.d. values past int64.
    """
    draw = spec.seed.reset_generator()
    if spec.process == "iid":
        cum, support, count = np.cumsum(spec.pmf.probs), np.array(spec.pmf.values), len(spec.index_set)
        return lambda i: iid_draws(draw(i), cum, support, count)
    times = spec.times()
    if spec.process == "poisson":
        gaps = np.diff(np.concatenate(([0.0], TimeGrid(times).times)))
        return lambda i: poisson_draws(draw(i), gaps)
    if any(t != int(t) for t in times):
        raise ValueError("random walk is only defined at integer times")
    n_max = int(times[-1])
    check_walk_length(n_max)  # refused here, before the first sample is drawn
    index = np.array(times, dtype=np.int64)
    return lambda i: walk_draws(draw(i), n_max)[index]


def _summarize(values: list[float], spec: ExperimentSpec, descriptor: str) -> MomentEstimate:
    n = len(values)
    mean = math.fsum(values) / n
    if n >= 2:
        var = math.fsum((v - mean) ** 2 for v in values) / (n - 1)
        se = math.sqrt(var / n)
    else:
        se = math.nan
    return MomentEstimate(mean, se, n, descriptor)


def _even_degree(p: float) -> int:
    """n for an even integer p = 2n >= 2, else 0."""
    return int(p) // 2 if p >= 2 and float(p).is_integer() and int(p) % 2 == 0 else 0


def mc_even_moment(spec: ExperimentSpec) -> MomentEstimate:
    """Unbiased Monte Carlo estimate of the even moment E||.||_{2n}^{2n}.

    Each sample realizes the process on the mapped times, and the moment of
    the unit spectrum of its values is counted exactly.  Samples are drawn
    one by one and counted in blocks of about _BLOCK_VALUES values by
    ``even_moments``, which gives each sample's ``even_moment``.  With 2^128
    or more 2n-tuples, OverflowError is raised before any sampling.
    """
    n = _even_degree(spec.p)
    if not n:
        raise ValueError("mc_even_moment needs an even integer p >= 2")
    check_power(len(spec.index_set), spec.p, COUNT_BITS)
    sample = _sampler(spec)
    block = max(1, _BLOCK_VALUES // len(spec.index_set))
    values: list[float] = []
    for start in range(0, spec.samples, block):
        rows = np.array([sample(i) for i in range(start, min(start + block, spec.samples))])
        values.extend(map(float, even_moments(rows, n)))
    return _summarize(values, spec, spec.descriptor() + "/exact-even")


def mc_general_moment(spec: ExperimentSpec) -> MomentEstimate:
    """Monte Carlo estimate for any p >= 1, each sample by quadrature.

    Each sample uses ``suggested_nodes`` for its realized spectrum, which is
    past the exactness threshold for even p.
    """
    sample = _sampler(spec)

    def one(i: int) -> float:
        spectrum = FrequencySpectrum.unit(sample(i))
        return lp_norm_quadrature(spectrum, spec.p, suggested_nodes(spectrum, spec.p))

    values = [one(i) for i in range(spec.samples)]
    return _summarize(values, spec, spec.descriptor() + "/quadrature:auto")


def exact_second_moment_poisson(times: Sequence[float]) -> float:
    """Closed form sum_{j,k} e^{-|t_j - t_k|} for the Poisson process at p=2."""
    t = np.asarray(list(times), dtype=np.float64)
    if t.size == 0:
        return 0.0
    return float(np.sum(np.exp(-np.abs(t[:, None] - t[None, :]))))


# ---------------------------------------------------------------------------
# coincidence probabilities via elementary-interval decomposition
# ---------------------------------------------------------------------------

def interval_coefficients(
    plus: Sequence[float], minus: Sequence[float]
) -> tuple[list[float], list[int]]:
    """Decompose sum_plus N(t) - sum_minus N(t) into independent increments.

    Sorting all distinct positive times splits [0, max t] into elementary
    intervals; the signed sum is an integer combination of the independent
    Poisson(length) increments over them.  Returns the lengths and nonzero
    coefficients.
    """
    boundaries = sorted({t for t in (*plus, *minus) if t > 0})
    sp = sorted(plus)
    sm = sorted(minus)
    lengths: list[float] = []
    coeffs: list[int] = []
    prev = 0.0
    for b in boundaries:
        c = (len(sp) - bisect_left(sp, b)) - (len(sm) - bisect_left(sm, b))
        if c != 0:
            lengths.append(b - prev)
            coeffs.append(c)
        prev = b
    return lengths, coeffs


def _poisson_cutoff(lam: float, tail_budget: float) -> int:
    """The K of truncated_poisson_pmf, found without building the pmf."""
    k = int(lam + max(20.0, math.ceil(12.0 * math.sqrt(lam))))
    while k <= _DP_SUPPORT_LIMIT:
        if poisson_pmf(lam, k + 1) * (k + 2) / (k + 2 - lam) < tail_budget:
            return k
        k *= 2
    raise GuardError("Poisson truncation cutoff exceeds the desk-scale guard")


def truncated_poisson_pmf(lam: float, tail_budget: float) -> np.ndarray:
    """Pmf vector over 0..K with discarded upper-tail mass below the budget.

    The cutoff starts at mean + max(20, 12*sqrt(mean)) and doubles until the
    tail bound P[N > K] <= pmf(K+1) (K+2)/(K+2-mean), a geometric series
    valid for K+2 > mean, falls under the budget.  A cutoff past the DP
    support guard raises GuardError, so an unreachable budget fails fast.
    """
    return poisson_pmf(lam, np.arange(_poisson_cutoff(lam, tail_budget) + 1))


def coincidence_probability_poisson(plus: Sequence[float], minus: Sequence[float], tol: float) -> float:
    """P[sum over plus of N(t) equals sum over minus of N(t)], within tol.

    The signed combination of truncated independent Poisson increments is
    convolved into an explicit distribution; only the probability at 0 is
    read off.  Truncation discards less than tol of total mass, so in exact
    arithmetic the result would underestimate by less than tol.

    float64 adds a rounding term that tol cannot shrink.  An interval of
    length lam with coefficient c, truncated at K, enters as the exp of terms
    up to lam + K |log lam| + log K! in size, and spreads over |c| K DP
    slots.  With R = eps * sum over intervals of (|c| K + lam + K |log lam|
    + log K!), eps = 2^-52, the result lies within tol + R * result of the
    true probability.  A tol below R * result is accepted but buys nothing.
    """
    if any(t < 0 for t in (*plus, *minus)):
        raise ValueError("times must be nonnegative")
    if not (0.0 < tol <= 1e-3):
        raise ValueError("tol must lie in (0, 1e-3]")
    lengths, coeffs = interval_coefficients(plus, minus)
    if not coeffs:
        return 1.0
    if coeffs[0] < 0:
        # canonical orientation: swapping plus and minus changes nothing
        coeffs = [-c for c in coeffs]
    budget = tol / len(coeffs)
    pmfs = [truncated_poisson_pmf(lam, budget) for lam in lengths]
    if sum(abs(c) * (len(p) - 1) for c, p in zip(coeffs, pmfs)) > _DP_SUPPORT_LIMIT:
        raise GuardError("coincidence DP support exceeds the desk-scale guard")
    dist, lo = _signed_sum_pmf(pmfs, coeffs)
    return min(1.0, max(0.0, float(dist[-lo])))  # the value 0: lo <= 0 <= lo + len(dist) - 1


def _signed_sum_pmf(pmfs: Sequence[np.ndarray], coeffs: Sequence[int]) -> tuple[np.ndarray, int]:
    """The pmf of sum_i c_i X_i for independent X_i, and its lowest value lo.

    pmfs[i] is P[X_i = k] for k = 0..K_i; it enters strided by |c_i| != 0,
    reversed when c_i < 0.  Entry j of the result is P[sum = lo + j].
    """
    dist, lo = np.ones(1, dtype=np.float64), 0
    for pmf, c in zip(pmfs, coeffs):
        k = len(pmf) - 1
        v = np.zeros(abs(c) * k + 1, dtype=np.float64)
        v[:: abs(c)] = pmf
        if c < 0:
            v = v[::-1]
            lo += c * k
        dist = np.convolve(dist, v)
    return dist, lo


# ---------------------------------------------------------------------------
# exact even moments by a transfer matrix over y
# ---------------------------------------------------------------------------

def _gaps(times: Sequence[float]) -> list[float]:
    """Each time's gap down to the next smaller time or to 0, largest first; a repeated time's gap is 0."""
    ts = sorted(times, reverse=True)
    return [t - b for t, b in zip(ts, ts[1:] + [0.0])]


def _signed(g: np.ndarray) -> np.ndarray:
    """Rows c = -n..n from rows c = 0..n of a characteristic function, g(-c) = conj g(c)."""
    return np.concatenate((g[:0:-1].conj(), g))


def _transfer_moment(n, nodes, gaps, increment=None, slot=None) -> float:
    """Rectangle rule over y = k/nodes of E|sum_j e(y X_j)|^{2n}, by a state machine.

    State (a, b) holds the partial tuples with a plus and b minus slots
    placed.  Each time places da plus and db minus slots with weight
    C(n-a, da) C(n-b, db), times slot(z)[da - db] when slot is given.  Then
    state (a, b) is multiplied by increment(z, L)[a - b], L the time's gap
    in ``gaps``.  Here z[c] = e(y c) for c = 0..n, and increment and slot
    return their values for c = 0..n.  The rule's value is the mean of state
    (n, n).  Nodes y and 1 - y give conjugate values, so only y <= 1/2 is
    evaluated, in blocks of _Y_BLOCK nodes.
    """
    if nodes > _NODE_LIMIT:
        raise GuardError(f"{nodes} nodes exceed the desk-scale guard of {_NODE_LIMIT}")
    if nodes * len(gaps) * (n + 1) ** 2 > _TRANSFER_WORK_LIMIT:
        raise GuardError("nodes x times x (n+1)^2 exceeds the desk-scale guard")
    # No state exceeds the tuple count, times^(2n); keep it inside float64.
    if 2 * n * math.log2(len(gaps)) > 1000:
        raise OverflowError("the 2n-tuple count exceeds the float64 range")
    w = [np.array([math.comb(n - a, d) for a in range(n + 1 - d)], dtype=np.float64) for d in range(n + 1)]
    weights = {(da, db): np.outer(w[da], w[db])[..., None] for da in range(n + 1) for db in range(n + 1)}
    diff = np.subtract.outer(np.arange(n + 1), np.arange(n + 1)) + n  # a - b, as a row of _signed
    half = nodes // 2 + 1
    values: list[float] = []
    for lo in range(0, half, _Y_BLOCK):
        k = np.arange(lo, min(lo + _Y_BLOCK, half))
        z = np.exp(2j * np.pi * np.outer(np.arange(n + 1), k / nodes))
        slot_c = None if slot is None else _signed(slot(z))
        states = np.zeros((n + 1, n + 1, len(k)), dtype=np.complex128)
        states[0, 0] = 1.0
        last_gap = factor = None
        for length in gaps:
            placed = np.zeros_like(states)
            for (da, db), weight in weights.items():
                term = weight * states[: n + 1 - da, : n + 1 - db]
                if slot_c is not None:
                    term *= slot_c[da - db + n]
                placed[da:, db:] += term
            states = placed
            if increment is not None and length != 0:
                if length != last_gap:
                    factor = _signed(increment(z, length))[diff]
                    last_gap = length
                states *= factor
        edge = (k == 0) | (2 * k == nodes)
        values.extend(np.where(edge, 1.0, 2.0) * states[n, n].real)
    return math.fsum(values) / nodes


def _check_n(n: int) -> None:
    if n < 1:
        raise ValueError("n must be a positive integer")


def exact_even_moment_poisson(times: Sequence[float], n: int, tol: float) -> float:
    """E||.||_{2n}^{2n} for the Poisson process on explicit times.

    The moment is the sum over ordered 2n-tuples of times of P[X = 0], where
    X = N(t_1) + .. + N(t_n) - N(t_{n+1}) - .. - N(t_{2n}); that is the
    integral over y in [0, 1] of E|sum_j e(y N(t_j))|^{2n}.  The rectangle
    rule on K nodes evaluates it by _transfer_moment, scanning the times from
    the largest down.  A gap of length L below a time multiplies state (a, b)
    by exp(L (e(y (a - b)) - 1)), the characteristic function of
    (a - b) Poisson(L); a repeated time is a gap of 0.

    The rule's only error is aliasing: it returns the sum over tuples of
    P[X in K Z], an overestimate.  |X| <= n N(max t), and K = n (k_T + 1) + 1
    where P[N(max t) > k_T] < tol (the cutoff of truncated_poisson_pmf), so
    the excess is below |times|^{2n} tol.

    float64 adds a rounding term that tol cannot shrink.  Each node's value is
    built from |times|^{2n} tuples of modulus at most 1 through D = |times|
    layers, whose phases reach n T radians/(2 pi), T = max t.  With
    R = eps (D ((n+1)^2 + 8) + (pi n + 4) T + 2), eps = 2^-52, the result
    lies within |times|^{2n} (tol + R) of the true moment.

    The cost is about K D (n+1)^2 complex multiply-adds, half of it on the
    nodes y <= 1/2.  K above 2^24, or K D (n+1)^2 above 2^30, raises
    GuardError before any work is done.
    """
    _check_n(n)
    if not (0.0 < tol <= 1e-3):
        raise ValueError("tol must lie in (0, 1e-3]")
    ts = [float(t) for t in times]
    if any(t < 0 for t in ts):
        raise ValueError("times must be nonnegative")
    if not ts:
        return 0.0
    nodes = n * (_poisson_cutoff(max(ts), tol) + 1) + 1
    return _transfer_moment(n, nodes, _gaps(ts), increment=lambda z, length: np.exp(length * (z - 1.0)))


def exact_even_moment_walk(times: Sequence[float], n: int) -> float:
    """E||.||_{2n}^{2n} for the simple random walk R on integer times >= 0.

    The same transfer loop as exact_even_moment_poisson, with the gap factor
    cos(2 pi y (a - b))^L of L fair +/-1 steps.  |X| <= n max t, so
    K = n max t + 1 nodes alias nothing and the result is exact up to the
    rounding term stated there.  The guards are the same.
    """
    _check_n(n)
    ts = [float(t) for t in times]
    if any(t < 0 or t != int(t) for t in ts):
        raise ValueError("random walk is only defined at integer times >= 0")
    if not ts:
        return 0.0
    nodes = n * int(max(ts)) + 1
    return _transfer_moment(n, nodes, _gaps(ts), increment=lambda z, length: z.real ** int(length))


def exact_even_moment_iid(pmf: Pmf, size: int, n: int) -> float:
    """E||.||_{2n}^{2n} for ``size`` i.i.d. draws from ``pmf``.

    The transfer loop with one layer per draw, each a gap of 0: the da plus
    and db minus slots placed on a draw contribute phi(y (da - db)), phi the
    pmf's characteristic function.  Shifting the support to start at 0
    changes no |S(y)|, and then |X| <= n (max - min of the support), so
    n (max - min) + 1 nodes alias nothing.  The rounding term and the guards
    are those of exact_even_moment_poisson, with size for D and max - min
    for T.
    """
    _check_n(n)
    if size < 0:
        raise ValueError("size must be nonnegative")
    if size == 0:
        return 0.0
    lo = pmf.values[0]
    span = pmf.values[-1] - lo

    def phi(z: np.ndarray) -> np.ndarray:
        return sum(p * z ** (v - lo) for v, p in pmf.entries)

    return _transfer_moment(n, n * span + 1, [0.0] * size, slot=phi)


def exact_even_moment(spec: ExperimentSpec) -> MomentEstimate:
    """The exact counterpart of mc_even_moment: the same moment, no sampling.

    Dispatches on the process; Poisson runs at tol = _EXACT_TOL, below its
    rounding term.  The estimate has 0 samples and standard error 0, and
    spec.samples and spec.seed are not used.
    """
    n = _even_degree(spec.p)
    if not n:
        raise ValueError("exact_even_moment needs an even integer p >= 2")
    if spec.process == "iid":
        mean = exact_even_moment_iid(spec.pmf, len(spec.index_set), n)
    elif spec.process == "walk":
        mean = exact_even_moment_walk(spec.times(), n)
    else:
        mean = exact_even_moment_poisson(spec.times(), n, _EXACT_TOL)
    return MomentEstimate(mean, 0.0, 0, spec.descriptor() + "/exact")


# ---------------------------------------------------------------------------
# growth-rate utilities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SlopeFit:
    slope: float
    intercept: float
    residual: float


def slope_fit(points: Sequence[tuple[float, float]]) -> SlopeFit:
    """Least-squares slope of log(estimate) against log(scale).

    Residual is the root-mean-square deviation of the log data from the fit.
    """
    if len(points) < 3:
        raise ValueError("need at least 3 points")
    if any(m <= 0 or v <= 0 for m, v in points):
        raise ValueError("scales and estimates must be positive")
    x = np.log([m for m, _ in points])
    y = np.log([v for _, v in points])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    return SlopeFit(float(slope), float(intercept), float(np.sqrt(np.mean(resid**2))))
