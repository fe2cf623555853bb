"""Exact lattice-point counting.

Covers the divisor summatory function (hyperbola method), representation
counts of sums of d-th powers, and Green-Ruzsa digit sets.  The thin shells
around the power-difference surface k^d - j^d = E and the symmetric
two-sided count R_d(x) live in `expsumlab.shell`; their public names are
also reachable here, and load that module on first use, so a run that
counts no shells never compiles it.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left, bisect_right
from typing import Sequence

import numpy as np

from .errors import GuardError, check_count
from .expsum import FrequencySpectrum, even_moment, representation_table

EULER_GAMMA = 0.5772156649015329

_SHELL_NAMES = frozenset(
    ("CountResult", "ShellQuery", "hyperbolic_count", "shell_count_brute", "shell_count_fast",
     "shell_counts", "shell_sup_ratio")
)


def __getattr__(name: str):
    """The public names of `expsumlab.shell`, which is imported on first use."""
    if name in _SHELL_NAMES:
        from . import shell

        return getattr(shell, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
    n = divisor_floor(x)
    return check_count(int(divisor_summatories(np.array([n], dtype=np.int64))[0]), "divisor summatory")


def divisor_floor(x: float) -> int:
    """floor(x) as a ``divisor_summatories`` entry: ValueError below 1, GuardError from 2^62."""
    if x < 1:
        raise ValueError("x must be at least 1")
    n = math.floor(x)
    if n >= 2**62:
        raise GuardError("divisor summatory needs x < 2^62 (over 2^31 divisors past it)")
    return n


def divisor_summatories(n: np.ndarray) -> np.ndarray:
    """D(n) = 2 * sum_{a <= s} floor(n/a) - s^2, s = isqrt(n), per entry of n.

    ``n`` is a nondecreasing int64 array of values in [1, 2^62).  A call whose
    isqrt(n) add up to 2^31 or more, tens of seconds of quotients, raises
    GuardError before any tile; one entry at the 2^62 edge passes.  Entries
    sharing s form one group, summed in tiles of rows x a-block with at most
    2^16 quotients.  Every tile is written into one scratch block allocated
    per call, so memory stays flat and a large n does not wait on a fresh
    allocation (and its page faults) per tile.  A tile whose largest n is
    below 2^53 divides in float64, which gives n // a exactly there, and
    sums its rows in float64, exact while every row total stays below 2^53;
    a tile past either bound divides again by int64 ``floor_divide``
    (`_quotient_sums`).  That tile sums in int64 where (block length) *
    (largest n // first a) < 2^63 bounds every row; otherwise the quotients
    split into 31-bit limbs, whose sums stay below 2^47.  The result is int64
    where every sum over a stays below 2^61, and an object array of Python
    ints past that.
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
    if int(s.sum()) >= 1 << 31:
        raise GuardError("divisor summatories need sum of isqrt(x) < 2^31 over one call")
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
    Returned as limbs (high, low) of the sum high * 2^31 + low.

    Where the largest n is below 2^53 the quotients are taken by float
    division into ``q``'s memory: fl(n/a) lies within n 2^-53 / a < 1/a of
    n/a, so it never rounds up to the next integer and its floor is n // a.
    The rows are then summed in float64; the quotients are nonnegative
    integers, so a row total below 2^53 means no partial sum was rounded.
    A tile whose float total reaches 2^53, or whose n does not fit below
    2^53 (one row, as every group from isqrt(n) = 2^16 on has one row per
    tile), is counted again by integer division: one int64 sum per row where
    len(a) * (largest n // a[0]) < 2^63 bounds it, otherwise 31-bit limbs,
    whose sums stay below 2^47.
    """
    if col[-1, 0] < 2**53:
        floats = np.divide(col, a, out=q.view(np.float64))
        total = np.floor(floats, out=floats).sum(axis=1)
        if total.max() < 2**53:
            total = total.astype(np.int64)
            return total >> _LIMB, total & _LOW
    np.floor_divide(col, a, out=q)
    if len(a) * (int(col[-1, 0]) // int(a[0])) < 2**63:
        total = q.sum(axis=1)
        return total >> _LIMB, total & _LOW
    low = np.bitwise_and(q, _LOW, out=spare).sum(axis=1)
    return np.right_shift(q, _LIMB, out=q).sum(axis=1), low


def divisor_error(x: float, summatory: int) -> float:
    """Error term D(x) - x log x - (2*gamma - 1) x of the divisor sum, given D(x) as ``summatory``."""
    if x < 1:
        raise ValueError("x must be at least 1")
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


def representation_count(n: int, d: int, M: int) -> dict[int, int]:
    """R(m) = #{(j_1..j_n) : 1 <= j_i <= M, sum j_i^d = m}, exact, as ``representation_table``'s dict."""
    return representation_table(_power_spectrum(n, d, M), n)


def diophantine_count(n: int, d: int, M: int) -> int:
    """Number of 2n-tuples with equal sums of d-th powers: sum_m R(m)^2."""
    return even_moment(_power_spectrum(n, d, M), n)


# ---------------------------------------------------------------------------
# Green-Ruzsa digit sets
# ---------------------------------------------------------------------------

def greenruzsa_generate(base: int, digits: int) -> list[int]:
    """All integers whose ``digits`` base-``base`` digits lie in {0, 1, 3}, sorted.

    Base >= 5 separates the digit choices, so all 3^k values are distinct,
    k = digits.  A base below 5 or no digits raises ValueError, and 3^k past
    2^24 raises GuardError.
    """
    if base < 5:
        raise ValueError("base must be at least 5")
    if digits < 1:
        raise ValueError("digits must be at least 1")
    if 3**digits > 2**24:
        raise GuardError("3^k exceeds the guard 2^24")
    values = [0]
    power = 1
    for _ in range(digits):
        values = [v + digit * power for v in values for digit in (0, 1, 3)]
        power *= base
    values.sort()
    return values


def sparsity_count(sorted_set: Sequence[int], center: int, radius: int) -> int:
    """|set intersect [center - radius, center + radius]| by binary search."""
    if radius < 1:
        raise ValueError("radius must be at least 1")
    lo = bisect_left(sorted_set, center - radius)
    hi = bisect_right(sorted_set, center + radius)
    return hi - lo
