"""Expected L^p norms of randomized exponential sums.

The quantity of interest is ``E || sum_{j in A} e(y * X(t_j)) ||_p^p`` where
X is one of the processes in :mod:`expsumlab.processes` and the times t_j are
an index set pushed through a time map (identity, d-th power, or the
arithmetic progression j * M^r).

Two routes are implemented and cross-checked against each other:

* Monte Carlo: sample a path, evaluate the realized exponential sum's norm
  exactly (even p) or by quadrature (general p), average.  Per-sample seeding
  makes estimates bitwise reproducible.
* Exact: closed forms at p = 2 for the Poisson and i.i.d. processes, and for
  small Poisson instances at any even p via coincidence probabilities
  P[sum of process values = sum of process values], computed by decomposing
  [0, max t] into elementary intervals with independent Poisson increments
  and running a truncated distribution DP.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import GuardError
from .expsum import FrequencySpectrum, even_moment, lp_norm_quadrature, suggested_nodes
from .processes import (
    Pmf,
    ProcessPath,
    SeedSpec,
    TimeGrid,
    poisson_pmf,
    sample_iid,
    sample_poisson_path,
    sample_random_walk,
)

_DP_SUPPORT_LIMIT = 50_000_000
_TUPLE_GUARD = 10_000_000
_WALK_LENGTH_GUARD = 100_000_000


@dataclass(frozen=True)
class MomentEstimate:
    """Monte Carlo mean with its standard error and seed provenance."""

    mean: float
    std_error: float
    n_samples: int
    seed: SeedSpec
    p: float
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
        if self.p < 1:
            raise ValueError("p must be at least 1")
        if self.samples < 1:
            raise ValueError("samples must be positive")
        if self.process == "iid" and self.pmf is None:
            raise ValueError("iid process needs a pmf")

    def times(self) -> tuple[float, ...]:
        return self.time_map.apply(self.index_set)

    def descriptor(self) -> str:
        return f"{self.process}/{self.time_map.label()}/p={self.p:g}/|A|={len(self.index_set)}"


@dataclass(frozen=True)
class SignedTimeMultiset:
    """The evaluation times entering a coincidence event, signed by side."""

    plus: tuple[float, ...]
    minus: tuple[float, ...]

    def __post_init__(self):
        if any(t < 0 for t in (*self.plus, *self.minus)):
            raise ValueError("times must be nonnegative")


def _sample_values(spec: ExperimentSpec, sample_index: int) -> tuple[int, ...]:
    if spec.process == "iid":
        return sample_iid(spec.pmf, len(spec.index_set), spec.seed, sample_index).values
    times = spec.times()
    if spec.process == "poisson":
        path = sample_poisson_path(TimeGrid(times), spec.seed, sample_index)
        return path.values
    if any(t != int(t) for t in times):
        raise ValueError("random walk is only defined at integer times")
    n_max = int(times[-1])
    if n_max > _WALK_LENGTH_GUARD:
        raise GuardError(f"walk horizon {n_max} exceeds the desk-scale guard")
    path = sample_random_walk(n_max, spec.seed, sample_index)
    return tuple(path.values[int(t)] for t in times)


def _summarize(values: list[float], spec: ExperimentSpec, descriptor: str) -> MomentEstimate:
    n = len(values)
    mean = math.fsum(values) / n
    if n >= 2:
        var = math.fsum((v - mean) ** 2 for v in values) / (n - 1)
        se = math.sqrt(var / n)
    else:
        se = math.nan
    return MomentEstimate(mean, se, n, spec.seed, spec.p, descriptor)


def mc_even_moment(spec: ExperimentSpec) -> MomentEstimate:
    """Unbiased Monte Carlo estimate of the even moment E||.||_{2n}^{2n}.

    Each sample realizes the process on the mapped times, forms the unit
    spectrum of the realized values, and evaluates the moment exactly.
    """
    if spec.p < 2 or spec.p != int(spec.p) or int(spec.p) % 2 != 0:
        raise ValueError("mc_even_moment needs an even integer p >= 2")
    n = int(spec.p) // 2

    def one(i: int) -> float:
        values = _sample_values(spec, i)
        return float(even_moment(FrequencySpectrum.unit(values), n))

    values = [one(i) for i in range(spec.samples)]
    return _summarize(values, spec, spec.descriptor() + "/exact-even")


def mc_general_moment(spec: ExperimentSpec, nodes: int | None = None) -> MomentEstimate:
    """Monte Carlo estimate for any p >= 1, each sample by quadrature.

    With ``nodes=None`` each sample uses the default node count for its
    realized spectrum, which is past the exactness threshold for even p.
    """

    def one(i: int) -> float:
        spectrum = FrequencySpectrum.unit(_sample_values(spec, i))
        nd = nodes if nodes is not None else suggested_nodes(spectrum, spec.p)
        return lp_norm_quadrature(spectrum, spec.p, nd)

    values = [one(i) for i in range(spec.samples)]
    tag = "auto" if nodes is None else str(nodes)
    return _summarize(values, spec, spec.descriptor() + f"/quadrature:{tag}")


def exact_second_moment_poisson(times: Sequence[float]) -> float:
    """Closed form sum_{j,k} e^{-|t_j - t_k|} for the Poisson process at p=2."""
    t = np.asarray(list(times), dtype=np.float64)
    if t.size == 0:
        return 0.0
    return float(np.sum(np.exp(-np.abs(t[:, None] - t[None, :]))))


def exact_second_moment_iid(pmf: Pmf, size: int) -> float:
    """Closed form size + (size^2 - size) * sum_k mu_k^2 for i.i.d. draws.

    Valid for the i.i.d. sampler only; a general stationary process obeys the
    matching inequality but not the equality.
    """
    if size < 1:
        raise ValueError("size must be positive")
    return size + (size * size - size) * pmf.collision_mass()


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


def truncated_poisson_pmf(lam: float, tail_budget: float) -> np.ndarray:
    """Pmf vector over 0..K with discarded upper-tail mass below the budget.

    The cutoff starts at mean + max(20, 12*sqrt(mean)) and doubles until the
    tail bound P[N > K] <= pmf(K+1) (K+2)/(K+2-mean), a geometric series
    valid for K+2 > mean, falls under the budget.  A cutoff past the DP
    support guard raises GuardError, so an unreachable budget fails fast.
    """
    k = int(lam + max(20.0, math.ceil(12.0 * math.sqrt(lam))))
    while k <= _DP_SUPPORT_LIMIT:
        if poisson_pmf(lam, k + 1) * (k + 2) / (k + 2 - lam) < tail_budget:
            return poisson_pmf(lam, np.arange(k + 1))
        k *= 2
    raise GuardError("Poisson truncation cutoff exceeds the desk-scale guard")


def coincidence_probability_poisson(s: SignedTimeMultiset, tol: float) -> float:
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
    if not (0.0 < tol <= 1e-3):
        raise ValueError("tol must lie in (0, 1e-3]")
    lengths, coeffs = interval_coefficients(s.plus, s.minus)
    if not coeffs:
        return 1.0
    if coeffs[0] < 0:
        # canonical orientation: swapping plus and minus changes nothing
        coeffs = [-c for c in coeffs]
    budget = tol / len(coeffs)
    pmfs = [truncated_poisson_pmf(lam, budget) for lam in lengths]
    support = sum(abs(c) * (len(p) - 1) for c, p in zip(coeffs, pmfs))
    if support > _DP_SUPPORT_LIMIT:
        raise GuardError("coincidence DP support exceeds the desk-scale guard")
    dist = np.ones(1, dtype=np.float64)
    lo = 0
    for pmf, c in zip(pmfs, coeffs):
        k = len(pmf) - 1
        stride = abs(c)
        v = np.zeros(stride * k + 1, dtype=np.float64)
        v[::stride] = pmf
        if c < 0:
            v = v[::-1]
            lo += c * k
        dist = np.convolve(dist, v)
    idx = -lo
    if 0 <= idx < len(dist):
        return min(1.0, max(0.0, float(dist[idx])))
    return 0.0


def exact_even_moment_poisson(times: Sequence[float], n: int, tol: float) -> float:
    """E||.||_{2n}^{2n} for the Poisson process on explicit times, small n.

    Sums the coincidence probability over all 2n-tuples of times; memoizes on
    the unordered (plus, minus) signature, which collapses the tuple count
    dramatically.  Accurate to |times|^{2n} * tol plus R * result, where R
    is the largest rounding term of coincidence_probability_poisson over the
    signatures.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    ts = tuple(float(t) for t in times)
    if len(ts) ** (2 * n) > _TUPLE_GUARD:
        raise GuardError("tuple count exceeds the desk-scale guard")
    cache: dict[tuple, float] = {}
    terms: list[float] = []
    for combo in itertools.product(range(len(ts)), repeat=2 * n):
        plus = tuple(sorted(ts[i] for i in combo[:n]))
        minus = tuple(sorted(ts[i] for i in combo[n:]))
        key = (plus, minus) if plus <= minus else (minus, plus)
        if key not in cache:
            cache[key] = coincidence_probability_poisson(
                SignedTimeMultiset(plus, minus), tol
            )
        terms.append(cache[key])
    return math.fsum(terms)


# ---------------------------------------------------------------------------
# growth-rate utilities
# ---------------------------------------------------------------------------

def heuristic_exponent(p: float, alpha: float) -> float:
    """Predicted growth exponent p - 1 + alpha for a process with X(j) ~ j^{1-alpha}."""
    if p < 1:
        raise ValueError("p must be at least 1")
    if not (0.0 <= alpha <= 1.0):
        raise ValueError("alpha must lie in [0, 1]")
    return p - 1.0 + alpha


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
