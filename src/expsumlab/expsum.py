"""Exact and numerical L^p(T) norms of exponential sums with integer frequencies.

For even exponents p = 2n the norm ``|| sum_j a_j e(f_j y) ||_p^p`` is a
finite algebraic quantity: merge coefficients by frequency, convolve the
profile n times with itself, and sum the squared magnitudes.  With unit
coefficients everything is integer counting and is carried out in exact
arithmetic (overflow-checked at 128 bits, never wrapped).  For arbitrary
p >= 1 a rectangle-rule quadrature is provided, with S evaluated on an FFT
grid; on even integer p it is exact once the node count exceeds the
polynomial bandwidth.

Integer counts and complex coefficients share one convolution, on profiles
held as frequency-sorted (freqs, coeffs) numpy arrays from the first
convolution to the last.  It is dense over the frequency span when the
profiles fill their spans.  Otherwise it sorts the pairwise frequency sums
once and reduces each run of equal sums, since realized frequency sets like
{N(j^d)} have huge span but few entries.  Counts stay in int64 only where no
sum can wrap and in Python integers beyond; the sum of squared counts is one
int64 dot product where it cannot wrap either.  Negative frequencies are
allowed everywhere.
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

_Profile = tuple[np.ndarray, np.ndarray]  # (freqs, coeffs), sorted by frequency


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

def _profile(table: dict[int, complex], dtype) -> _Profile:
    """A frequency-sorted {f: c} map as (freqs, coeffs) arrays.

    Frequencies are int64, or Python integers (dtype object) once one
    reaches 2^62 in magnitude; every convolution of those takes the pair loop.
    """
    freqs = list(table)
    wide = bool(freqs) and max(-freqs[0], freqs[-1]) >= _INT64_SAFE
    return np.array(freqs, object if wide else np.int64), np.array(list(table.values()), dtype)


def _convolve(a: _Profile, b: _Profile) -> _Profile:
    """f -> sum of a[g] * b[h] over g + h = f, exact zeros dropped.

    Profiles in and out are (freqs, coeffs) arrays as ``_profile`` makes
    them.  Integer profiles are counts (nonnegative) and stay exact: numpy
    runs in int64 while every frequency sum and the product of the masses are
    below 2^62 (no partial sum can then wrap), and on int64 limbs past that.
    Direct convolution of the dense arrays costs the product of their
    lengths, so it runs when that is at most four times the number of entry
    pairs.  Otherwise the pairwise sums are sorted once and each run of
    equal sums is reduced: counts by ``np.add.reduceat``, exact in any
    order, and complex coefficients, sorted stably, by one ``np.bincount``
    over the run index for each of the real and imaginary parts.  Each
    complex sum is so accumulated in pair order, bit for bit as a sequential
    ``np.add.at`` would.  A Python pair loop takes frequencies past 2^62,
    and sparse profiles past the mass bound.
    """
    (fa, ca), (fb, cb) = a, b
    if not len(fa) or not len(fb):
        return fa[:0], ca[:0]
    lo_a, hi_a, lo_b, hi_b = int(fa[0]), int(fa[-1]), int(fb[0]), int(fb[-1])
    exact = ca.dtype != np.complex128
    big = exact and int(ca.sum()) * int(cb.sum()) >= _INT64_SAFE
    dense = (hi_a - lo_a + 1) * (hi_b - lo_b + 1) <= 4 * len(fa) * len(fb)
    if max(-lo_a, hi_a) + max(-lo_b, hi_b) >= _INT64_SAFE or (big and not dense):
        table = _convolve_pairs(dict(zip(fa.tolist(), ca.tolist())), dict(zip(fb.tolist(), cb.tolist())))
        return _profile(table, object if exact else np.complex128)
    if big:
        coeffs = _convolve_limbs(
            fa - lo_a, ca.tolist(), hi_a - lo_a + 1, fb - lo_b, cb.tolist(), hi_b - lo_b + 1
        )
        freqs = np.arange(lo_a + lo_b, hi_a + hi_b + 1)
    else:
        dtype = np.int64 if exact else np.complex128
        if dense:
            va = np.zeros(hi_a - lo_a + 1, dtype)
            va[fa - lo_a] = ca
            vb = np.zeros(hi_b - lo_b + 1, dtype)
            vb[fb - lo_b] = cb
            coeffs = np.convolve(va, vb)
            freqs = np.arange(lo_a + lo_b, hi_a + hi_b + 1)
        else:
            sums = np.add.outer(fa, fb).ravel()
            # counts sum exactly in any order; complex sums keep pair order
            order = np.argsort(sums, kind=None if exact else "stable")
            sums = sums[order]
            first = np.empty(len(sums), bool)
            first[0] = True
            np.not_equal(sums[1:], sums[:-1], out=first[1:])
            starts = np.flatnonzero(first)
            freqs = sums[starts]
            products = np.multiply.outer(ca, cb).ravel()[order]
            if exact:
                coeffs = np.add.reduceat(products, starts)
            else:
                run = np.add.accumulate(first, dtype=np.intp)
                run -= 1
                coeffs = np.empty(len(starts), dtype)
                coeffs.real = np.bincount(run, products.real, len(starts))
                coeffs.imag = np.bincount(run, products.imag, len(starts))
    keep = coeffs != 0
    return freqs[keep], coeffs[keep]


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


def _representation(spectrum: FrequencySpectrum, n: int) -> _Profile:
    """(freqs, counts) of ``representation_table``, with its checks."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    if not spectrum.terms:
        raise ValueError("empty spectrum")
    if not spectrum.is_unit:
        raise ValueError("representation_table requires unit coefficients")
    check_power(spectrum.size, n, COUNT_BITS)
    profile = _profile(spectrum.multiplicities(), np.int64)
    table = profile
    for _ in range(n - 1):
        table = _convolve(table, profile)
    # Every count feeds a count at least as large into the next convolution,
    # so checking the last table's largest count checks them all.
    check_count(int(table[1].max()), "integer convolution")
    return table


def representation_table(spectrum: FrequencySpectrum, n: int) -> RepresentationTable:
    """R(m) = number of ordered n-tuples of term indices with frequency sum m.

    Needs a unit spectrum; computed by n-1 exact integer convolutions of the
    multiplicity profile.  Total mass is exactly (number of terms)^n, and a
    mass of 2^128 or more raises OverflowError before any convolution.
    """
    freqs, counts = _representation(spectrum, n)
    return RepresentationTable(dict(zip(freqs.tolist(), counts.tolist())), n)


def even_moment(spectrum: FrequencySpectrum, n: int) -> int:
    """Exact ``|| sum_j e(f_j y) ||_{2n}^{2n}`` for a unit spectrum.

    Equals the number of ordered 2n-tuples (n-tuple vs n-tuple) whose
    frequency sums agree, i.e. sum_m R(m)^2.  If there are 2^128 or more
    2n-tuples, OverflowError is raised before any convolution.
    """
    check_power(spectrum.size, 2 * n, COUNT_BITS)
    _, counts = _representation(spectrum, n)
    # sum R(m)^2 <= max R * sum R = max R * size^n: below 2^63 no int64 sum wraps
    if counts.dtype == np.int64 and int(counts.max()) * spectrum.size**n < 1 << 63:
        total = int(np.dot(counts, counts))
    else:
        total = sum(c * c for c in counts.tolist())
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
    profile = _profile(spectrum.merged(), np.complex128)
    conv = profile
    for _ in range(n - 1):
        conv = _convolve(conv, profile)
    return math.fsum(abs(c) ** 2 for c in conv[1].tolist())


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
