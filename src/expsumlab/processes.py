"""Exact samplers and pmf evaluators for the integer-valued processes.

Three processes drive every experiment in this package:

* i.i.d. draws from an integer-supported pmf (the stationary instance),
* the Poisson counting process of intensity 1,
* the simple random walk with fair +/-1 steps.

All sampling is routed through counter-based Philox streams keyed by
``(master_seed, stream_index, sample_index)``, so each Monte Carlo sample is
bitwise reproducible on its own, whatever samples run before it.  Poisson
increments are drawn exactly in distribution (numpy's Generator uses the
exact multiplication method for small means and an exact
transformed-rejection sampler for large means; no normal approximation is
ever involved).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import GuardError

_U64 = 1 << 64
_WALK_LENGTH_GUARD = 100_000_000  # steps; walk_draws peaks at 16 bytes a step, about 1.6 GB


@dataclass(frozen=True)
class SeedSpec:
    """Addresses one logical random stream.

    Distinct (master_seed, stream_index) pairs give statistically independent
    streams; within a stream, each sample_index addresses a disjoint
    2^128-long counter block of the same Philox keyed sequence.
    """

    master_seed: int
    stream_index: int = 0

    def __post_init__(self):
        for name in ("master_seed", "stream_index"):
            v = getattr(self, name)
            if not isinstance(v, int) or not (0 <= v < _U64):
                raise ValueError(f"{name} must be an integer in [0, 2^64)")

    def generator(self, sample_index: int = 0) -> np.random.Generator:
        if not (0 <= sample_index < _U64):
            raise ValueError("sample_index must be in [0, 2^64)")
        key = np.array([self.master_seed, self.stream_index], dtype=np.uint64)
        counter = np.array([0, 0, sample_index, 0], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(counter=counter, key=key))

    def reset_generator(self) -> Callable[[int], np.random.Generator]:
        """``generator(i)`` for a loop over samples, from one Philox and one Generator.

        Each call resets the Philox to counter block i with its buffer empty,
        so the draws equal those of ``generator(i)`` at about a fifth of its
        cost.  Every call returns the same Generator: a sample's draws must be
        made before the next call.
        """
        gen = self.generator()
        bits = gen.bit_generator
        state = bits.state  # buffer_pos 4 and has_uint32 0: nothing buffered
        counter = state["state"]["counter"]

        def reset(sample_index: int) -> np.random.Generator:
            counter[2] = sample_index
            bits.state = state
            return gen

        return reset

    def child(self, stream_index: int) -> "SeedSpec":
        return SeedSpec(self.master_seed, stream_index)


@dataclass(frozen=True)
class Pmf:
    """Integer-supported probability mass function in canonical form.

    Values strictly increasing, probabilities nonnegative and summing to 1
    within 1e-12.
    """

    entries: tuple[tuple[int, float], ...]

    def __post_init__(self):
        if not self.entries:
            raise ValueError("pmf needs at least one support point")
        values = [v for v, _ in self.entries]
        probs = [p for _, p in self.entries]
        if any(values[i] >= values[i + 1] for i in range(len(values) - 1)):
            raise ValueError("pmf values must be strictly increasing")
        if any(p < 0 for p in probs):
            raise ValueError("pmf probabilities must be nonnegative")
        if abs(math.fsum(probs) - 1.0) > 1e-12:
            raise ValueError("pmf probabilities must sum to 1 within 1e-12")

    @property
    def values(self) -> tuple[int, ...]:
        return tuple(v for v, _ in self.entries)

    @property
    def probs(self) -> tuple[float, ...]:
        return tuple(p for _, p in self.entries)


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing nonnegative evaluation times; may be empty."""

    times: tuple[float, ...]

    def __post_init__(self):
        ts = self.times
        if ts and ts[0] < 0:
            raise ValueError("grid times must be nonnegative")
        if any(ts[i] >= ts[i + 1] for i in range(len(ts) - 1)):
            raise ValueError("grid times must be strictly increasing")

    @classmethod
    def indices(cls, count: int) -> "TimeGrid":
        return cls(tuple(float(i) for i in range(count)))

    def __len__(self) -> int:
        return len(self.times)


@dataclass(frozen=True)
class ProcessPath:
    """One realization of a process restricted to a finite grid."""

    grid: TimeGrid
    values: tuple[int, ...]

    def __post_init__(self):
        if len(self.values) != len(self.grid):
            raise ValueError("one value per grid point required")


_LOG_FACTORIAL_LIMIT = 1 << 16  # entries the log-factorial table may grow to
_log_factorial_table = np.zeros(0)  # lgamma(k + 1.0) for k < len, filled on first use


def _log_factorials(a: np.ndarray) -> np.ndarray:
    """lgamma(a + 1.0) per entry of an array of nonnegative integer values.

    Entries are read from one module-level table, grown to the largest a
    asked for by the same scalar math.lgamma calls, so every value has the
    bits of math.lgamma.  An array reaching _LOG_FACTORIAL_LIMIT is computed
    entry by entry instead, so one huge a does not grow the table.
    """
    global _log_factorial_table
    if a.dtype.kind not in "iu" and not np.all(np.isfinite(a) & (a == np.floor(a))):
        raise ValueError("a must be integer-valued")
    if not a.size:
        return np.zeros(a.shape)
    if a.min() < 0:
        raise ValueError("a must be nonnegative")
    top = int(a.max())
    if top >= _LOG_FACTORIAL_LIMIT:
        values = (math.lgamma(x + 1.0) for x in a.ravel().tolist())
        return np.fromiter(values, np.float64, a.size).reshape(a.shape)
    known = len(_log_factorial_table)
    if top >= known:
        values = (math.lgamma(k + 1.0) for k in range(known, top + 1))
        grown = np.fromiter(values, np.float64, top + 1 - known)
        _log_factorial_table = np.concatenate((_log_factorial_table, grown))
    return _log_factorial_table[a.astype(np.intp)]


def poisson_pmf(mean: float | np.ndarray, a: int | np.ndarray) -> float | np.ndarray:
    """P[N = a] for a Poisson variable of the given mean.

    ``a`` is an int, or an ndarray of nonnegative integer values for the pmf
    at each entry (ValueError otherwise); ``mean`` may also be an ndarray,
    broadcast against ``a``.  Two scalars give the one-entry array call's
    float, or 0.0 for a < 0.  Evaluated in log space so huge means neither
    overflow nor lose the tiny tail values; underflow saturates to 0.
    mean = 0 is the point mass at 0.
    """
    if np.any(np.asarray(mean) < 0):
        raise ValueError("mean must be nonnegative")
    if not isinstance(a, np.ndarray) and not isinstance(mean, np.ndarray):
        return 0.0 if a < 0 else float(poisson_pmf(mean, np.array([a]))[0])
    a = np.asarray(a)
    logfact = _log_factorials(a)
    if not isinstance(mean, np.ndarray) and mean != 0.0:
        return np.exp(-mean + a * math.log(mean) - logfact)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_p = -mean + a * np.log(mean) - logfact
    return np.where(mean == 0.0, np.where(a == 0, 1.0, 0.0), np.exp(log_p))


def iid_draws(gen: np.random.Generator, cum: np.ndarray, support: np.ndarray, count: int) -> np.ndarray:
    """``count`` values of ``support`` by inverse CDF on ``cum``, its cumulative probabilities.

    The support is a Pmf's sorted one, so the map from uniforms to values is
    unambiguous; every i.i.d. value in the package is drawn here.
    """
    idx = np.searchsorted(cum, gen.random(count), side="right")
    np.minimum(idx, len(cum) - 1, out=idx)
    return support[idx]


def sample_poisson_path(grid: TimeGrid, seed: SeedSpec, sample_index: int = 0) -> ProcessPath:
    """Sample N(t) at the grid times, exactly in distribution.

    The path is assembled from independent Poisson(dt) increments over the
    consecutive gaps, starting from N(0) = 0; values are therefore
    nondecreasing along the grid, and a grid starting at 0 starts at value 0.
    """
    if len(grid) == 0:
        return ProcessPath(grid, ())
    gaps = np.diff(np.concatenate(([0.0], grid.times)))
    return ProcessPath(grid, tuple(poisson_draws(seed.generator(sample_index), gaps).tolist()))


def poisson_draws(gen: np.random.Generator, gaps: np.ndarray) -> np.ndarray:
    """N(t) as int64 at the times whose gaps, from 0 on, are ``gaps``: summed Poisson(gap) increments."""
    values = gen.poisson(gaps)
    np.cumsum(values, out=values)
    return values


def walk_draws(gen: np.random.Generator, n_max: int) -> np.ndarray:
    """R(0..n_max) of the simple random walk, R(0) = 0, as int64 from the draws of ``gen``.

    Step i is 2u - 1 for the i-th draw u in {0, 1}; every walk in the package
    is drawn here.  The steps are formed in the draw array and summed straight
    into the result, so a walk peaks at 16 bytes a step, and a walk past
    10^8 steps is refused by ``check_walk_length`` before any draw.
    """
    check_walk_length(n_max)
    steps = gen.integers(0, 2, size=n_max, dtype=np.int64)
    steps <<= 1
    steps -= 1
    positions = np.empty(n_max + 1, dtype=np.int64)
    positions[0] = 0
    np.cumsum(steps, out=positions[1:])
    return positions


def check_walk_length(n_max: int) -> None:
    """Refuse with GuardError a walk past _WALK_LENGTH_GUARD steps, whose draws would pass 1.6 GB."""
    if n_max > _WALK_LENGTH_GUARD:
        raise GuardError(
            f"walk horizon {n_max} exceeds the desk-scale guard of 10^8 steps"
            " (about 1.6 GB at 16 bytes a step)"
        )


def sample_random_walk(n_max: int, seed: SeedSpec, sample_index: int = 0) -> ProcessPath:
    """Simple random walk R(0..n_max), R(0) = 0, i.i.d. fair +/-1 steps from the sample's Philox stream."""
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    values = walk_draws(seed.generator(sample_index), n_max)
    return ProcessPath(TimeGrid.indices(n_max + 1), tuple(values.tolist()))
