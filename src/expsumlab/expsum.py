"""Exact and numerical L^p(T) norms of exponential sums with integer frequencies.

For even exponents p = 2n the norm ``|| sum_j a_j e(f_j y) ||_p^p`` is a
finite algebraic quantity: merge coefficients by frequency, convolve the
profile n times with itself, and sum the squared magnitudes.  With unit
coefficients everything is integer counting and is carried out in exact
arithmetic (overflow-checked at 128 bits, never wrapped).  For arbitrary
p >= 1 a rectangle-rule quadrature is provided, with S evaluated on an FFT
grid; on even integer p it is exact once the node count exceeds the
polynomial bandwidth.

A spectrum is a pair of numpy arrays, frequencies and coefficients, in
input order.  One merge (``_merge``) sorts keys once and reduces each run of
equal keys.  It makes a spectrum's profile: the multiplicities of a unit
spectrum, or the coefficients summed by frequency.  Integer counts and
complex coefficients then share one convolution of such frequency-sorted
(freqs, coeffs) profiles.  It is dense over the frequency span when the
profiles fill their spans.  Otherwise it merges the pairwise frequency sums,
since realized frequency sets like {N(j^d)} have huge span but few entries.
Int64 counts merge as packed int64 words, key offset above count, where
the words fit in 63 bits: one in-place sort brings equal keys together
with no argsort, and a profile convolved with itself packs only the pairs
i <= j.  Complex sums (in input order, by a stable argsort),
Python integers and words past 63 bits are argsorted.  Frequencies and
counts stay in int64 only where no sum can wrap and in Python integers
beyond; the sum of squared counts is one int64 dot product where it cannot
wrap either.  Negative frequencies are allowed everywhere.

Many small unit spectra, such as the samples of a Monte Carlo rung, are
counted together (``even_moments``): a row field above the packed word
keeps each spectrum's runs apart, so one sort makes every profile and, at
n = 2, one more sort every representation count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import COUNT_BITS, GuardError, check_count, check_power

_INT64_SAFE = 1 << 62
_NODE_LIMIT = 1 << 24  # 256 MiB per complex128 grid; an ascent holds about ten
_BATCH_TERMS = 48  # distinct values from which an n = 2 row is counted faster on its own

_Profile = tuple[np.ndarray, np.ndarray]  # (freqs, coeffs), sorted by frequency


def _frequency_array(freqs: Iterable[int]) -> np.ndarray:
    """Integer frequencies as int64, or as Python integers (dtype object) once one
    reaches 2^62 in magnitude; convolutions of those sum in Python integers."""
    values = freqs.tolist() if isinstance(freqs, np.ndarray) else list(freqs)
    if values and max(-min(values), max(values)) >= _INT64_SAFE:
        return np.array([int(f) for f in values], object)
    return np.array(values, np.int64)


@dataclass(frozen=True, eq=False)
class FrequencySpectrum:
    """A finite list of terms c e(f y), held as two equal-length arrays in input order.

    ``frequencies`` follow ``_frequency_array``; ``coefficients`` are
    complex128.  Repeated frequencies are kept: they matter for moment
    counting, where each term is a separate summand.  ``_merge`` collapses
    them, summing coefficients.
    """

    frequencies: np.ndarray
    coefficients: np.ndarray

    @classmethod
    def unit(cls, freqs: Iterable[int]) -> "FrequencySpectrum":
        frequencies = _frequency_array(freqs)
        return cls(frequencies, np.ones(len(frequencies), np.complex128))

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, complex]]) -> "FrequencySpectrum":
        pairs = list(pairs)
        return cls(_frequency_array(f for f, _ in pairs), np.array([c for _, c in pairs], np.complex128))

    @property
    def size(self) -> int:
        return len(self.frequencies)

    @property
    def freqs(self) -> tuple[int, ...]:
        return tuple(self.frequencies.tolist())

    def with_phases(self, phases: Sequence[float]) -> "FrequencySpectrum":
        """Replace each coefficient with the unimodular e^{i*phase}."""
        if len(phases) != self.size:
            raise ValueError("one phase per term required")
        coeffs = np.array([complex(math.cos(t), math.sin(t)) for t in phases], np.complex128)
        return FrequencySpectrum(self.frequencies, coeffs)


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

def _merge(keys: np.ndarray, values: np.ndarray) -> _Profile:
    """The distinct keys in increasing order, and the sum of the values at each.

    Keys are int64, or Python integers in an object array.  Integer and
    object values are positive counts, exact in any order.  Int64 keys and
    counts whose packed words fit (``_word_shift``) take one sort of the
    words (``_sorted_runs``); other counts are argsorted and each run of
    equal keys summed by ``np.add.reduceat``.  Complex values are sorted
    stably and summed by one ``np.bincount`` from 0.0 over the run index for
    each of the real and imaginary parts, so each sum accumulates in input
    order, bit for bit as a sequential loop would.  Sums that cancel to zero
    are kept.  Needs at least one key.
    """
    if keys.dtype == values.dtype == np.int64:
        lo = int(keys.min())
        shift = _word_shift(int(keys.max()) - lo, int(values.max()))
        if shift is not None:
            words = keys - lo
            if shift:
                words <<= shift
                words |= values
            offsets, counts = _sorted_runs(words, shift)
            offsets += lo
            return offsets, counts
    return _argsort_merge(keys, values)


def _argsort_merge(keys: np.ndarray, values: np.ndarray) -> _Profile:
    """``_merge`` by an argsort of the keys: every case but fitting int64 words."""
    exact = values.dtype != np.complex128
    # counts sum exactly in any order; complex sums keep input order
    order = np.argsort(keys, kind=None if exact else "stable")
    keys = keys[order]
    first = np.empty(len(keys), bool)
    first[0] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    values = values[order]
    if exact:
        return keys[starts], np.add.reduceat(values, starts)
    run = np.add.accumulate(first, dtype=np.intp)
    run -= 1
    sums = np.empty(len(starts), np.complex128)
    sums.real = np.bincount(run, values.real, len(starts))
    sums.imag = np.bincount(run, values.imag, len(starts))
    return keys[starts], sums


def _word_shift(span: int, top: int) -> int | None:
    """The shift that packs key offsets up to span above counts up to top.

    A word is the int64 ``offset << shift | count``: shift is the bit length
    of the largest count, or 0 when every count is 1 (a run's length is then
    its sum).  None when a word would pass 63 bits.
    """
    shift = top.bit_length() if top > 1 else 0
    return shift if span.bit_length() + shift <= 63 else None


def _sorted_runs(words: np.ndarray, shift: int) -> _Profile:
    """Sort packed int64 words in place; (distinct offsets, count sums).

    After the sort equal offsets are adjacent.  A run's sum is a difference
    of the cumulative sum of the low bits at the run ends, so the total of
    all counts must fit in int64; when shift is 0 that cumulative sum is the
    word count, end + 1.  No argsort and no gather through a permutation.
    A row field above the offsets (``even_moments``) keeps rows' runs apart.
    """
    words.sort()
    offsets = words >> shift if shift else words
    last = np.empty(len(words), bool)
    last[-1] = True
    np.not_equal(offsets[1:], offsets[:-1], out=last[:-1])
    ends = np.flatnonzero(last)
    if shift:
        words &= (1 << shift) - 1
        np.cumsum(words, out=words)
        counts = words[ends]
    else:
        counts = ends + 1
    counts[1:] -= counts[:-1]
    return offsets[ends], counts


def _convolve(a: _Profile, b: _Profile) -> _Profile:
    """f -> sum of a[g] * b[h] over g + h = f, exact zeros dropped.

    Profiles in and out are (freqs, coeffs) arrays as ``_merge`` makes them.
    Frequencies are int64 while every sum stays below 2^62 in magnitude and
    Python integers (dtype object) past that.  Integer profiles are counts
    (positive) and stay exact: numpy runs in int64 while the product of the
    masses is below 2^62 (no partial sum can then wrap), and in Python
    integers or on int64 limbs past that.  Direct convolution of the dense
    arrays costs the product of their lengths, so it runs when that is at most
    four times the number of entry pairs and every frequency is int64.
    Otherwise the pairwise sums are merged: int64 counts whose packed words
    fit by one sort of those words (``_convolve_packed``, which packs only
    the pairs i <= j when ``a is b``), everything else by ``_merge``'s
    argsort route, which keeps complex sums in pair order.
    """
    (fa, ca), (fb, cb) = a, b
    if not len(fa) or not len(fb):
        return fa[:0], ca[:0]
    lo_a, hi_a, lo_b, hi_b = int(fa[0]), int(fa[-1]), int(fb[0]), int(fb[-1])
    wide = max(-lo_a, hi_a) + max(-lo_b, hi_b) >= _INT64_SAFE
    ftype = object if wide else np.int64
    fa, fb = fa.astype(ftype, copy=False), fb.astype(ftype, copy=False)
    exact = ca.dtype != np.complex128
    big = exact and int(ca.sum()) * int(cb.sum()) >= _INT64_SAFE
    if wide or (hi_a - lo_a + 1) * (hi_b - lo_b + 1) > 4 * len(fa) * len(fb):
        if not (wide or big) and ca.dtype == cb.dtype == np.int64:
            shift = _word_shift(hi_a + hi_b - lo_a - lo_b, int(ca.max()) * int(cb.max()))
            if shift is not None:
                return _convolve_packed(a, b, shift)
        if big:
            ca, cb = ca.astype(object), cb.astype(object)
        # _merge would find no word shift for these pairs either
        freqs, coeffs = _argsort_merge(np.add.outer(fa, fb).ravel(), np.multiply.outer(ca, cb).ravel())
    elif big:
        coeffs = _convolve_limbs(
            fa - lo_a, ca.tolist(), hi_a - lo_a + 1, fb - lo_b, cb.tolist(), hi_b - lo_b + 1
        )
        freqs = np.arange(lo_a + lo_b, hi_a + hi_b + 1)
    else:
        dtype = np.int64 if exact else np.complex128
        va = np.zeros(hi_a - lo_a + 1, dtype)
        va[fa - lo_a] = ca
        vb = np.zeros(hi_b - lo_b + 1, dtype)
        vb[fb - lo_b] = cb
        coeffs = np.convolve(va, vb)
        freqs = np.arange(lo_a + lo_b, hi_a + hi_b + 1)
    keep = coeffs != 0
    return freqs[keep], coeffs[keep]


def _convolve_packed(a: _Profile, b: _Profile, shift: int) -> _Profile:
    """The sparse convolution of int64 count profiles by one sort of packed words.

    The pair (i, j) becomes the int64 word ``(fa[i] - fa[0] + fb[j] - fb[0])
    << shift | ca[i] * cb[j]``; the caller has checked that ``_word_shift``
    gave shift.  Counts are positive, so no sum is zero.  For a square (``a is
    b``) only the pairs i <= j are packed, which halves the sort: their sums
    T give the full count 2T less the diagonal product ca[i]^2 at 2 fa[i].
    """
    (fa, ca), (fb, cb) = a, b
    words = np.add.outer(fa - fa[0], fb - fb[0])
    if shift:
        words <<= shift
        words |= np.multiply.outer(ca, cb)
    square = a is b
    words = words[np.tri(len(fa), dtype=bool)] if square else words.ravel()
    freqs, counts = _sorted_runs(words, shift)
    freqs += int(fa[0]) + int(fb[0])
    if square:
        counts *= 2
        counts[np.searchsorted(freqs, fa + fa)] -= ca * ca
    return freqs, counts


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
    if not spectrum.size:
        raise ValueError("empty spectrum")
    if not (spectrum.coefficients == 1).all():
        raise ValueError("representation_table requires unit coefficients")
    check_power(spectrum.size, n, COUNT_BITS)
    profile = _merge(spectrum.frequencies, np.ones(spectrum.size, np.int64))
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


def even_moments(rows: np.ndarray, n: int) -> list[int]:
    """``even_moment`` of the unit spectrum of each row of a 2-D frequency array.

    Where no count can wrap (n <= 2, int64 rows, terms^(2n) below 2^63) and
    the words fit, rows are counted together by ``_sorted_runs`` on words
    with a row field above the key offset, so runs never cross rows.  One
    sort makes every row's profile; at n = 1 its squared run lengths are the
    moment.  At n = 2, the rows with fewer than _BATCH_TERMS distinct values
    pack each pair i <= j of their profile, pair sum above the count product
    (doubled off the diagonal), and one more sort gives every R(m).  Squares
    are summed per row by ``np.add.reduceat``.  Every other row is counted by
    ``even_moment``.
    """
    samples, size = rows.shape
    check_power(size, 2 * n, COUNT_BITS)
    shift = None
    if n in (1, 2) and rows.dtype == np.int64 and rows.size and size ** (2 * n) < 1 << 63:
        lo = int(rows.min())
        bits = (n * (int(rows.max()) - lo)).bit_length()  # an n-sum less n lo, below the row field
        shift = _word_shift((samples << bits) - 1, 2 * size * size if n == 2 else 1)
    if shift is None:
        return [even_moment(FrequencySpectrum.unit(row), n) for row in rows]
    words = rows - lo
    words |= np.arange(samples)[:, None] << bits
    keys, counts = _sorted_runs(words.ravel(), 0)
    starts = np.searchsorted(keys, np.arange(samples) << bits)
    if n == 1:
        counts *= counts
        return np.add.reduceat(counts, starts).tolist()
    terms = np.diff(starts, append=len(keys))
    small = terms < _BATCH_TERMS
    totals = np.empty(samples, np.int64)
    if small.any():
        keep = np.repeat(small, terms)
        keys, counts, terms = keys[keep], counts[keep], terms[small]
        # pair (i, j): i repeats once for each j from i to the end of its row
        index = np.arange(len(keys))
        reps = np.repeat(np.cumsum(terms), terms) - index
        i = np.repeat(index, reps)
        j = np.arange(len(i)) - np.repeat(np.cumsum(reps) - reps - index, reps)
        words = keys[i] + (keys[j] & ((1 << bits) - 1))
        words <<= shift
        weights = counts[i] * counts[j]
        weights <<= i != j
        words |= weights
        keys, counts = _sorted_runs(words, shift)
        counts *= counts
        totals[small] = np.add.reduceat(counts, np.searchsorted(keys, np.flatnonzero(small) << bits))
    for row in np.flatnonzero(~small).tolist():
        totals[row] = even_moment(FrequencySpectrum.unit(rows[row]), n)
    return totals.tolist()


def even_norm_coeff(spectrum: FrequencySpectrum, n: int) -> float:
    """``|| sum_j a_j e(f_j y) ||_{2n}^{2n}`` for arbitrary coefficients.

    Merges coefficients by frequency into c(m), forms the n-fold convolution
    c^{*n}, and returns sum_m |c^{*n}(m)|^2 (Parseval at n = 1).
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    if not spectrum.size:
        raise ValueError("empty spectrum")
    profile = _merge(spectrum.frequencies, spectrum.coefficients)
    conv = profile
    for _ in range(n - 1):
        conv = _convolve(conv, profile)
    return math.fsum(abs(c) ** 2 for c in conv[1].tolist())


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

def suggested_nodes(spectrum: FrequencySpectrum, p: float) -> int:
    """Default node count: 4*n*span + 7, past the even-p exactness threshold."""
    freqs = spectrum.frequencies
    span = int(freqs.max()) - int(freqs.min()) if len(freqs) else 0
    n = max(1, math.ceil(p / 2))
    return 4 * n * span + 7


def _grid_values(freqs: np.ndarray, coeffs: np.ndarray, nodes: int) -> np.ndarray:
    """S(i/nodes) for i < nodes, where S(y) = sum of c e(f y) over the terms (f, c).

    One inverse FFT, in place, of the coefficients binned at their residues
    f mod nodes; the residues are taken in exact integer arithmetic, so huge
    frequencies lose no phase.
    """
    if nodes > _NODE_LIMIT:
        raise GuardError(f"{nodes} quadrature nodes exceed the desk-scale guard 2^24")
    bins = np.zeros(nodes, np.complex128)
    np.add.at(bins, (freqs % nodes).astype(np.int64, copy=False), coeffs)
    np.fft.ifft(bins, out=bins)
    bins *= nodes
    return bins


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
    if not spectrum.size:
        raise ValueError("empty spectrum")
    moduli = np.abs(_grid_values(spectrum.frequencies, spectrum.coefficients, nodes))
    moduli **= p
    mean = float(np.mean(moduli))
    if math.isinf(mean):
        raise OverflowError(f"the p={p:g} quadrature mean exceeds the float64 range")
    return mean
