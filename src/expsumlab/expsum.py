"""Exact and numerical L^p(T) norms of exponential sums with integer frequencies.

For even exponents p = 2n the norm ``|| sum_j a_j e(f_j y) ||_p^p`` is a
finite algebraic quantity: merge coefficients by frequency, convolve the
profile n times with itself, and sum the squared magnitudes.  With unit
coefficients everything is integer counting and is carried out in exact
arithmetic (overflow-checked at 128 bits, never wrapped).  For arbitrary
p >= 1 a rectangle-rule quadrature is provided, with S evaluated on an FFT
grid; on even integer p it is exact once the node count exceeds the
polynomial bandwidth.

Integer counts and complex coefficients share one convolution.  It is dense
over the frequency span when the profiles fill their spans, and merges
pairwise frequency sums otherwise, since realized frequency sets like
{N(j^d)} have huge span but few entries.  Counts stay in int64 only where no
sum can wrap and in Python integers beyond.  Negative frequencies are allowed
everywhere.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import COUNT_BITS, GuardError, check_count, check_power

_INT64_SAFE = 1 << 62
_NODE_LIMIT = 1 << 24  # 256 MiB per complex128 grid; an ascent holds about ten


@dataclass(frozen=True)
class FrequencySpectrum:
    """A finite list of (frequency, coefficient) terms.

    The raw term list keeps multiplicity: repeated frequencies matter for
    moment counting, where each term is a separate summand.  ``merged()``
    collapses equal frequencies by summing coefficients.
    """

    terms: tuple[tuple[int, complex], ...]

    @classmethod
    def unit(cls, freqs: Iterable[int]) -> "FrequencySpectrum":
        return cls(tuple((int(f), 1 + 0j) for f in freqs))

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, complex]]) -> "FrequencySpectrum":
        return cls(tuple((int(f), complex(c)) for f, c in pairs))

    @property
    def size(self) -> int:
        return len(self.terms)

    @property
    def freqs(self) -> tuple[int, ...]:
        return tuple(f for f, _ in self.terms)

    @property
    def is_unit(self) -> bool:
        return all(c == 1 + 0j for _, c in self.terms)

    def multiplicities(self) -> dict[int, int]:
        """Frequency -> multiplicity map (requires integer-like unit terms)."""
        return dict(sorted(Counter(f for f, _ in self.terms).items()))

    def merged(self) -> dict[int, complex]:
        """Frequency -> summed coefficient, in increasing frequency order."""
        acc: dict[int, complex] = {}
        for f, c in sorted(self.terms, key=lambda t: t[0]):
            acc[f] = acc.get(f, 0j) + c
        return acc

    def with_phases(self, phases: Sequence[float]) -> "FrequencySpectrum":
        """Replace each coefficient with the unimodular e^{i*phase}."""
        if len(phases) != len(self.terms):
            raise ValueError("one phase per term required")
        return FrequencySpectrum(
            tuple((f, complex(math.cos(t), math.sin(t))) for (f, _), t in zip(self.terms, phases))
        )


@dataclass(frozen=True)
class RepresentationTable:
    """Exact counts R(m) of ordered n-tuples of terms summing to m."""

    counts: dict[int, int]
    order: int

    def __getitem__(self, m: int) -> int:
        return self.counts.get(m, 0)

    def total(self) -> int:
        return sum(self.counts.values())


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------

def _convolve(a: dict[int, complex], b: dict[int, complex]) -> dict[int, complex]:
    """{f: sum of a[g] * b[h] over g + h = f}, sorted by f, exact zeros dropped.

    Integer profiles are counts (nonnegative) and stay exact: numpy runs in
    int64 while every frequency sum and the product of the masses are below
    2^62 (no partial sum can then wrap), and on int64 limbs past that.
    Direct convolution of the dense arrays costs the product of their
    lengths, so it runs when that is at most four times the number of entry
    pairs; otherwise the pairwise sums are merged.  A Python pair loop takes
    frequencies past 2^62, and sparse profiles past the mass bound.
    """
    if not a or not b:
        return {}
    lo_a, hi_a, lo_b, hi_b = min(a), max(a), min(b), max(b)
    exact = isinstance(next(iter(a.values())), int)
    big = exact and sum(a.values()) * sum(b.values()) >= _INT64_SAFE
    dense = (hi_a - lo_a + 1) * (hi_b - lo_b + 1) <= 4 * len(a) * len(b)
    if max(-lo_a, hi_a) + max(-lo_b, hi_b) >= _INT64_SAFE or (big and not dense):
        return _convolve_pairs(a, b)
    fa = np.fromiter(a, np.int64, len(a))
    fb = np.fromiter(b, np.int64, len(b))
    if big:
        coeffs = _convolve_limbs(
            fa - lo_a, list(a.values()), hi_a - lo_a + 1, fb - lo_b, list(b.values()), hi_b - lo_b + 1
        )
        freqs = np.arange(lo_a + lo_b, hi_a + hi_b + 1)
    else:
        dtype = np.int64 if exact else np.complex128
        ca = np.fromiter(a.values(), dtype, len(a))
        cb = np.fromiter(b.values(), dtype, len(b))
        if dense:
            va = np.zeros(hi_a - lo_a + 1, dtype)
            va[fa - lo_a] = ca
            vb = np.zeros(hi_b - lo_b + 1, dtype)
            vb[fb - lo_b] = cb
            coeffs = np.convolve(va, vb)
            freqs = np.arange(lo_a + lo_b, hi_a + hi_b + 1)
        else:
            freqs, slot = np.unique(np.add.outer(fa, fb).ravel(), return_inverse=True)
            coeffs = np.zeros(len(freqs), dtype)
            np.add.at(coeffs, slot, np.multiply.outer(ca, cb).ravel())
    keep = coeffs != 0
    return dict(zip(freqs[keep].tolist(), coeffs[keep].tolist()))


def _convolve_pairs(a: dict[int, complex], b: dict[int, complex]) -> dict[int, complex]:
    """_convolve by a Python loop over all entry pairs, in Python numbers."""
    out: dict[int, complex] = {}
    for fa, ca in a.items():
        for fb, cb in b.items():
            out[fa + fb] = out.get(fa + fb, 0) + ca * cb
    return {f: c for f, c in sorted(out.items()) if c}


def _convolve_limbs(ia, ca, na, ib, cb, nb) -> np.ndarray:
    """Dense convolution of nonnegative integers placed at ia (length na) and ib (nb).

    Each count is cut into s-bit limbs, with s chosen so that limb products
    summed over the shorter array stay below 2^62.  Every limb pair is
    convolved in int64, and the results are shifted and summed as Python
    integers.
    """
    s = (62 - min(na, nb).bit_length()) // 2
    mask = (1 << s) - 1

    def limbs(idx, counts, size):
        for shift in range(0, max(counts).bit_length(), s):
            v = np.zeros(size, np.int64)
            v[idx] = [(c >> shift) & mask for c in counts]
            yield shift, v

    total = np.zeros(na + nb - 1, dtype=object)
    b_limbs = list(limbs(ib, cb, nb))
    for sa, va in limbs(ia, ca, na):
        for sb, vb in b_limbs:
            total += np.convolve(va, vb).astype(object) << (sa + sb)
    return total


def representation_table(spectrum: FrequencySpectrum, n: int) -> RepresentationTable:
    """R(m) = number of ordered n-tuples of term indices with frequency sum m.

    Needs a unit spectrum; computed by n-1 exact integer convolutions of the
    multiplicity profile.  Total mass is exactly (number of terms)^n, and a
    mass of 2^128 or more raises OverflowError before any convolution.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    if not spectrum.terms:
        raise ValueError("empty spectrum")
    if not spectrum.is_unit:
        raise ValueError("representation_table requires unit coefficients")
    check_power(spectrum.size, n, COUNT_BITS)
    profile = spectrum.multiplicities()
    table = dict(profile)
    for _ in range(n - 1):
        table = _convolve(table, profile)
    # Every count feeds a count at least as large into the next convolution,
    # so checking the last table's largest count checks them all.
    check_count(max(table.values()), "integer convolution")
    return RepresentationTable(table, n)


def even_moment(spectrum: FrequencySpectrum, n: int) -> int:
    """Exact ``|| sum_j e(f_j y) ||_{2n}^{2n}`` for a unit spectrum.

    Equals the number of ordered 2n-tuples (n-tuple vs n-tuple) whose
    frequency sums agree, i.e. sum_m R(m)^2.  If there are 2^128 or more
    2n-tuples, OverflowError is raised before any convolution.
    """
    check_power(spectrum.size, 2 * n, COUNT_BITS)
    table = representation_table(spectrum, n)
    total = sum(c * c for c in table.counts.values())
    return check_count(total, "even moment")


def even_norm_coeff(spectrum: FrequencySpectrum, n: int) -> float:
    """``|| sum_j a_j e(f_j y) ||_{2n}^{2n}`` for arbitrary coefficients.

    Merges coefficients by frequency into c(m), forms the n-fold convolution
    c^{*n}, and returns sum_m |c^{*n}(m)|^2 (Parseval at n = 1).
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    if not spectrum.terms:
        raise ValueError("empty spectrum")
    profile = spectrum.merged()
    conv = dict(profile)
    for _ in range(n - 1):
        conv = _convolve(conv, profile)
    return math.fsum(abs(c) ** 2 for _, c in sorted(conv.items()))


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

def suggested_nodes(spectrum: FrequencySpectrum, p: float) -> int:
    """Default node count: 4*n*span + 7, past the even-p exactness threshold."""
    freqs = spectrum.freqs
    span = max(freqs) - min(freqs) if freqs else 0
    n = max(1, math.ceil(p / 2))
    return 4 * n * span + 7


def _grid_values(terms: Iterable[tuple[int, complex]], nodes: int) -> np.ndarray:
    """S(i/nodes) for i < nodes, where S(y) = sum of c e(f y) over the terms.

    One inverse FFT of the coefficients binned at their residues f mod nodes;
    the residues are taken in exact integer arithmetic, so huge frequencies
    lose no phase.
    """
    if nodes > _NODE_LIMIT:
        raise GuardError(f"{nodes} quadrature nodes exceed the desk-scale guard 2^24")
    residues, coeffs = zip(*((f % nodes, c) for f, c in terms))
    bins = np.zeros(nodes, np.complex128)
    np.add.at(bins, np.array(residues, np.int64), np.array(coeffs, np.complex128))
    values = np.fft.ifft(bins)
    values *= nodes
    return values


def lp_norm_quadrature(spectrum: FrequencySpectrum, p: float, nodes: int) -> float:
    """Rectangle-rule approximation of ``int_T |S(y)|^p dy`` on y = i/nodes.

    S is evaluated at all nodes at once on an FFT grid (``_grid_values``).
    For even integer p = 2n and nodes > n*(max f - min f) the rule
    integrates |S|^{2n}, a trigonometric polynomial of that degree, exactly.
    A node count past 2^24, or a p that ``check_power`` refuses for this many
    terms, raises before any work; a mean past the float64 range raises
    OverflowError.
    """
    check_power(spectrum.size, p)
    if nodes < 1:
        raise ValueError("nodes must be a positive integer")
    if not spectrum.terms:
        raise ValueError("empty spectrum")
    moduli = np.abs(_grid_values(spectrum.terms, nodes))
    moduli **= p
    mean = float(np.mean(moduli))
    if math.isinf(mean):
        raise OverflowError(f"the p={p:g} quadrature mean exceeds the float64 range")
    return mean


def sup_norm_upper(spectrum: FrequencySpectrum) -> float:
    """sum_j |a_j|, an upper bound for the sup norm.

    For unit coefficients this is the exact sup norm (attained at y = 0).
    """
    return math.fsum(abs(c) for _, c in spectrum.terms)
