"""Exact norm machinery against brute-force tuple enumeration."""

import itertools
import math
import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expsumlab import (
    FrequencySpectrum,
    GuardError,
    even_moment,
    even_norm_coeff,
    lp_norm_quadrature,
    representation_table,
    suggested_nodes,
)
from expsumlab import expsum
from expsumlab.expsum import _convolve, _merge
from expsumlab.lattice import diophantine_count


def spectrum_of(pairs):
    """The spectrum of (frequency, coefficient) terms, in order."""
    pairs = list(pairs)
    frequencies = FrequencySpectrum.unit(f for f, _ in pairs).frequencies
    return FrequencySpectrum(frequencies, np.array([c for _, c in pairs], complex))


def oracle_even_moment(freqs, n):
    """Literal count of 2n-tuples with matching frequency sums."""
    hits = 0
    for combo in itertools.product(range(len(freqs)), repeat=2 * n):
        left = sum(freqs[i] for i in combo[:n])
        right = sum(freqs[i] for i in combo[n:])
        if left == right:
            hits += 1
    return hits


def direct_quadrature(terms, p, nodes):
    """Direct rectangle rule, no phase reduction tricks."""
    total = 0.0
    for i in range(nodes):
        y = i / nodes
        s = sum(c * np.exp(2j * np.pi * f * y) for f, c in terms)
        total += abs(s) ** p
    return total / nodes


def oracle_quadrature(terms, p, nodes):
    """Rectangle rule from an explicit nodes x terms phase matrix.

    The phase index i*f is reduced mod nodes in exact integer arithmetic, so
    huge frequencies lose nothing.
    """
    profile = {}
    for f, c in terms:
        profile[f] = profile.get(f, 0j) + c
    residues = np.array([f % nodes for f in profile], dtype=np.int64)
    coeffs = np.array(list(profile.values()), dtype=np.complex128)
    total = 0.0
    block = max(1, min(nodes, (1 << 22) // len(residues)))
    for start in range(0, nodes, block):
        i = np.arange(start, min(start + block, nodes), dtype=np.int64)
        z = np.exp((2j * np.pi / nodes) * ((i[:, None] * residues[None, :]) % nodes))
        total += float(np.sum(np.abs(z @ coeffs) ** p))
    return total / nodes


def oracle_convolution(terms, n):
    """Frequency -> sum of coefficient products over ordered n-tuples of terms, pair by pair."""
    table = {0: 1}
    for _ in range(n):
        step = {}
        for s, c in table.items():
            for f, a in terms:
                step[s + f] = step.get(s + f, 0) + c * a
        table = step
    return table


unit_freq_lists = st.lists(st.integers(-20, 50), min_size=1, max_size=6)

# Eighty frequencies in [-50, 50] fill their span, so their convolutions run
# dense; twelve spread over [-1e9, 1e9] run on merged pairwise sums.
_rng = np.random.default_rng(2024)
DENSE_FREQS = _rng.integers(-50, 51, 80).tolist()
SPARSE_FREQS = _rng.integers(-(10**9), 10**9 + 1, 12).tolist()
ROUTES = pytest.mark.parametrize("freqs, dense", [(DENSE_FREQS, True), (SPARSE_FREQS, False)])


def spy_dense_calls(monkeypatch):
    """A list that grows by one on every np.convolve call, i.e. every dense convolution."""
    calls = []
    convolve = np.convolve
    monkeypatch.setattr(np, "convolve", lambda a, b: calls.append(1) or convolve(a, b))
    return calls


def _convolve_pairs(a, b):
    """_convolve by a Python loop over all entry pairs of two {f: c} maps, in Python numbers."""
    out = {}
    for fa, ca in a.items():
        for fb, cb in b.items():
            out[fa + fb] = out.get(fa + fb, 0) + ca * cb
    return {f: c for f, c in sorted(out.items()) if c}


def as_profile(table, dtype):
    """A frequency-sorted {f: c} map as (freqs, coeffs) arrays; frequencies in int64."""
    return np.array(list(table), np.int64), np.array(list(table.values()), dtype)


def as_table(profile):
    """(freqs, coeffs) arrays as an {f: c} map of Python numbers."""
    return dict(zip(profile[0].tolist(), profile[1].tolist()))


def counter_profile(freqs):
    """Frequency -> multiplicity, in increasing frequency order, by a Counter."""
    return dict(sorted(Counter(freqs).items()))


def merged_loop(pairs):
    """Frequency -> summed coefficient, in increasing frequency order, by a dict loop from 0j."""
    acc = {}
    for f, c in sorted(pairs, key=lambda t: t[0]):
        acc[f] = acc.get(f, 0j) + c
    return acc


def unique_add_at(a, b):
    """The sparse convolution by np.unique slots and one sequential np.add.at, as before the sort-merge."""
    (fa, ca), (fb, cb) = a, b
    freqs, slot = np.unique(np.add.outer(fa, fb).ravel(), return_inverse=True)
    coeffs = np.zeros(len(freqs), ca.dtype)
    np.add.at(coeffs, slot, np.multiply.outer(ca, cb).ravel())
    keep = coeffs != 0
    return freqs[keep], coeffs[keep]


def sparse_profile(seed, exact):
    """40 terms at k * 10^5 + r, |k| <= 30 and r < 3: negative and repeated frequencies.

    Their pair sums are far too spread for the dense route and collide in long runs.
    """
    rng = np.random.default_rng(seed)
    freqs = (rng.integers(-30, 31, 40) * 10**5 + rng.integers(0, 3, 40)).tolist()
    if exact:
        return as_profile(counter_profile(freqs), np.int64)
    coeffs = rng.normal(size=40) + 1j * rng.normal(size=40)
    return as_profile(merged_loop(zip(freqs, coeffs.tolist())), np.complex128)


class TestRepresentationTable:
    def test_pair_of_two(self):
        table = representation_table(FrequencySpectrum.unit([1, 2]), 2)
        assert table == {2: 1, 3: 2, 4: 1}

    def test_single_frequency(self):
        table = representation_table(FrequencySpectrum.unit([5]), 3)
        assert table == {15: 1}
        # mass product 2^64 is past int64: the int64-limb route
        table = representation_table(FrequencySpectrum.unit([0] * (1 << 16)), 4)
        assert table == {0: 2**64}

    def test_three_frequencies(self):
        table = representation_table(FrequencySpectrum.unit([1, 2, 3]), 2)
        assert table == {2: 1, 3: 2, 4: 3, 5: 2, 6: 1}

    def test_rejects_non_unit(self):
        spectrum = spectrum_of([(1, 2.0)])
        with pytest.raises(ValueError):
            representation_table(spectrum, 2)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            representation_table(FrequencySpectrum.unit([]), 1)

    @given(unit_freq_lists, st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_mass_is_terms_to_the_n(self, freqs, n):
        table = representation_table(FrequencySpectrum.unit(freqs), n)
        assert sum(table.values()) == len(freqs) ** n

    @ROUTES
    @pytest.mark.parametrize("n", [2, 3])
    def test_matches_pairwise_oracle(self, freqs, dense, n, monkeypatch):
        calls = spy_dense_calls(monkeypatch)
        table = representation_table(FrequencySpectrum.unit(freqs), n)
        assert table == oracle_convolution([(f, 1) for f in freqs], n)
        assert list(table) == sorted(table)  # repcount prints the rows in this order
        assert bool(calls) == dense

    def test_dense_past_int64_matches_pair_loop(self, monkeypatch):
        # The 11-fold table of 1..64 has mass 2^66: its last convolution
        # crosses 2^62 and runs on int64 limbs.
        profile = counter_profile(range(1, 65))
        reference = dict(profile)
        for _ in range(10):
            reference = _convolve_pairs(reference, profile)
        calls = spy_dense_calls(monkeypatch)
        table = representation_table(FrequencySpectrum.unit(range(1, 65)), 11)
        assert table == reference
        assert len(calls) > 10

    def test_limbs_on_both_sides(self):
        gen = np.random.default_rng(7)
        a = {f: (1 << 100) + int(gen.integers(1 << 62)) for f in range(-30, 300)}
        b = {f: int(gen.integers(1, 1 << 62)) << 8 for f in range(5, 90)}
        assert as_table(_convolve(as_profile(a, object), as_profile(b, object))) == _convolve_pairs(a, b)

    def test_dense_past_int64_is_fast(self):
        started = time.perf_counter()
        table = representation_table(FrequencySpectrum.unit(range(1, 2049)), 6)
        elapsed = time.perf_counter() - started
        assert sum(table.values()) == 2048**6
        assert table[6] == 1 and table[6 * 2048] == 1 and table[7] == 6
        assert elapsed < 1.0

    def test_huge_span_uses_sparse_path(self):
        freqs = [0, 10**13, 3 * 10**13]
        table = representation_table(FrequencySpectrum.unit(freqs), 2)
        assert sum(table.values()) == 9
        assert table[10**13] == 2

    @pytest.mark.parametrize("seed", [11, 12, 13])
    @pytest.mark.parametrize("exact", [True, False])
    @pytest.mark.parametrize("n", [2, 3])
    def test_sparse_branch_matches_unique_add_at(self, seed, exact, n, monkeypatch):
        profile = sparse_profile(seed, exact)
        assert profile[0].min() < 0 and len(profile[0]) < 40  # negative and repeated frequencies
        calls = spy_dense_calls(monkeypatch)
        table = reference = profile
        for _ in range(n - 1):
            table = _convolve(table, profile)
            reference = unique_add_at(reference, profile)
            assert table[0].tobytes() == reference[0].tobytes()
            assert table[1].dtype == reference[1].dtype
            assert table[1].tobytes() == reference[1].tobytes()
        assert not calls


class TestEvenMoment:
    def test_two_frequencies(self):
        assert even_moment(FrequencySpectrum.unit([1, 2]), 2) == 6

    def test_repeated_zero(self):
        assert even_moment(FrequencySpectrum.unit([0, 0]), 1) == 4

    def test_three_frequencies(self):
        assert even_moment(FrequencySpectrum.unit([1, 2, 3]), 2) == 19

    @given(unit_freq_lists, st.integers(1, 2))
    @settings(max_examples=60, deadline=None)
    def test_matches_tuple_enumeration(self, freqs, n):
        expected = oracle_even_moment(freqs, n)
        assert even_moment(FrequencySpectrum.unit(freqs), n) == expected
        # frequencies near 2^63 take the Python-integer fallback
        shifted = FrequencySpectrum.unit([f + 2**63 for f in freqs])
        assert even_moment(shifted, n) == expected

    @given(unit_freq_lists, st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_diagonal_lower_bound(self, freqs, n):
        distinct = len(set(freqs))
        falling = 1
        for i in range(n):
            falling *= max(distinct - i, 0)
        assert even_moment(FrequencySpectrum.unit(freqs), n) >= math.factorial(n) * falling

    def test_sum_of_squares_past_int64(self):
        # counts 2^32, 2^31*3 and 9*2^28 fit in int64; their squares sum past 2^63
        a, b = 1 << 16, 3 << 14
        spectrum = FrequencySpectrum.unit([0] * a + [1] * b)
        got = even_moment(spectrum, 2)
        assert type(got) is int
        assert got == a**4 + 4 * a * a * b * b + b**4
        assert got >= 1 << 64

    def test_overflow_is_loud(self):
        spectrum = FrequencySpectrum.unit([0] * (1 << 13))
        with pytest.raises(OverflowError):
            even_moment(spectrum, 5)
        with pytest.raises(OverflowError):
            representation_table(spectrum, 10)  # the count 2^130 itself

    def test_tuple_count_refused_before_convolving(self, monkeypatch):
        def refuse(a, b):
            raise AssertionError("convolved past the count ceiling")

        monkeypatch.setattr("expsumlab.expsum._convolve", refuse)
        pair, single = FrequencySpectrum.unit([0, 1]), FrequencySpectrum.unit([5])
        with pytest.raises(OverflowError, match="2\\^128"):
            even_moment(pair, 64)  # 2^128 2n-tuples
        with pytest.raises(OverflowError):
            representation_table(pair, 128)
        with pytest.raises(OverflowError):
            representation_table(single, 128)  # one term counts as two
        monkeypatch.undo()
        assert even_moment(pair, 63) == math.comb(126, 63)
        assert representation_table(single, 127) == {635: 1}


def spy_even_moment(monkeypatch):
    """Count the rows that ``even_moments`` hands to ``even_moment``."""
    rows = []
    real = expsum.even_moment

    def spy(spectrum, n):
        rows.append(spectrum.freqs)
        return real(spectrum, n)

    monkeypatch.setattr(expsum, "even_moment", spy)
    return rows


def per_row(rows, n):
    return [even_moment(FrequencySpectrum.unit(row.tolist()), n) for row in rows]


class TestEvenMoments:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_even_moment_per_row(self, seed, n, monkeypatch):
        rng = np.random.default_rng(seed)
        for samples, size, span in [(1, 1, 0), (1, 9, 3), (7, 5, 0), (13, 30, 6), (5, 60, 40), (9, 70, 10**6)]:
            rows = rng.integers(-span, span + 1, size=(samples, size))
            expected = per_row(rows, n)
            handed = spy_even_moment(monkeypatch)
            assert expsum.even_moments(rows, n) == expected
            distinct = [len(set(row.tolist())) for row in rows]
            routed = {1: 0, 2: sum(t >= expsum._BATCH_TERMS for t in distinct), 3: samples}[n]
            assert len(handed) == routed
            monkeypatch.undo()

    @pytest.mark.parametrize("n, top", [(1, 2**62 - 1), (2, 2**56 - 1)])
    def test_word_edge_falls_back_to_each_row(self, n, top, monkeypatch):
        # two rows of three terms: a 1-bit row field, at n = 2 a 5-bit weight
        # field (2 * 3^2 = 18), and n (max - min) fills the rest of 63 bits at top
        for high, handed_rows in [(top, 0), (top + 1, 2)]:
            rows = np.array([[0, high, 5], [high, high, 1]], np.int64)
            handed = spy_even_moment(monkeypatch)
            assert expsum.even_moments(rows, n) == per_row(rows, n)
            assert len(handed) == handed_rows
            monkeypatch.undo()

    def test_counts_that_could_wrap_fall_back(self, monkeypatch):
        # 2^16 terms: terms^4 reaches 2^63, so each row goes to even_moment
        rows = np.arange(1 << 16, dtype=np.int64).reshape(1, -1) % 3
        handed = spy_even_moment(monkeypatch)
        assert expsum.even_moments(rows, 2) == per_row(rows, 2)
        assert len(handed) == 1
        wide = np.array([[0, 2**70, 3]], dtype=object)
        assert expsum.even_moments(wide, 1) == [3]
        assert expsum.even_moments(wide, 2) == per_row(wide, 2)

    def test_refuses_past_the_count_ceiling(self, monkeypatch):
        monkeypatch.setattr(expsum, "_sorted_runs", None)
        with pytest.raises(OverflowError, match="2\\^128"):
            expsum.even_moments(np.zeros((2, 4), np.int64), 32)  # 4^64 2n-tuples


class TestEvenNormCoeff:
    def test_matches_even_moment_on_unit(self):
        for freqs in ([1, 2], [3, 3, 7], [0, 5, 9, 9]):
            spectrum = FrequencySpectrum.unit(freqs)
            for n in (1, 2, 3):
                assert even_norm_coeff(spectrum, n) == pytest.approx(
                    even_moment(spectrum, n), rel=1e-12
                )

    def test_mixed_coefficients(self):
        spectrum = spectrum_of([(1, 1), (2, 1j), (3, 1)])
        assert even_norm_coeff(spectrum, 2) == pytest.approx(11.0, rel=1e-12)
        # coefficients that cancel leave nothing to convolve
        cancelled = spectrum_of([(0, 1), (0, -1), (3, 0)])
        assert even_norm_coeff(cancelled, 3) == 0.0

    def test_parseval_at_n_one(self):
        spectrum = spectrum_of([(0, 0.5), (4, -2.0), (4, 1.0)])
        # merged coefficient at 4 is -1
        assert even_norm_coeff(spectrum, 1) == pytest.approx(0.25 + 1.0, rel=1e-12)

    @given(
        st.lists(
            st.tuples(
                st.integers(-10, 30),
                st.complex_numbers(max_magnitude=2, allow_nan=False, allow_infinity=False),
            ),
            min_size=1,
            max_size=5,
        ),
        st.floats(0, 2 * math.pi),
    )
    @settings(max_examples=40, deadline=None)
    def test_global_phase_invariance(self, pairs, theta):
        spectrum = spectrum_of(pairs)
        rotated = spectrum_of(
            [(f, c * complex(math.cos(theta), math.sin(theta))) for f, c in pairs]
        )
        a = even_norm_coeff(spectrum, 2)
        b = even_norm_coeff(rotated, 2)
        assert b == pytest.approx(a, rel=1e-12, abs=1e-12)
        # so is a common frequency shift, here onto the Python fallback
        shifted = spectrum_of([(f + 2**63, c) for f, c in pairs])
        assert even_norm_coeff(shifted, 2) == pytest.approx(a, rel=1e-12, abs=1e-12)

    @ROUTES
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_pairwise_oracle(self, freqs, dense, n, monkeypatch):
        rng = np.random.default_rng(n)
        coeffs = rng.normal(size=len(freqs)) + 1j * rng.normal(size=len(freqs))
        pairs = list(zip(freqs, coeffs.tolist()))
        calls = spy_dense_calls(monkeypatch)
        got = even_norm_coeff(spectrum_of(pairs), n)
        expected = math.fsum(abs(c) ** 2 for c in oracle_convolution(pairs, n).values())
        assert got == pytest.approx(expected, rel=1e-12)
        assert bool(calls) == (dense and n > 1)


class TestQuadrature:
    def test_exact_for_even_p(self):
        spectrum = FrequencySpectrum.unit([1, 2])
        assert lp_norm_quadrature(spectrum, 4, 64) == pytest.approx(6.0, rel=1e-9)

    def test_single_term_constant_modulus(self):
        spectrum = spectrum_of([(7, 0.5)])
        for p in (1.0, 2.5, 4.0):
            assert lp_norm_quadrature(spectrum, p, 11) == pytest.approx(0.5**p, rel=1e-12)

    def test_parseval_distinct_unit(self):
        spectrum = FrequencySpectrum.unit([0, 3, 11])
        nodes = 2 * (11 - 0) + 1
        assert lp_norm_quadrature(spectrum, 2, nodes) == pytest.approx(3.0, rel=1e-12)

    def test_matches_direct_evaluation(self):
        terms = [(2, 1.0 + 0j), (5, 0.3 - 0.4j), (9, -1.0 + 0j)]
        spectrum = spectrum_of(terms)
        got = lp_norm_quadrature(spectrum, 3.0, 41)
        assert got == pytest.approx(direct_quadrature(terms, 3.0, 41), rel=1e-12)

    def test_huge_frequencies_lose_no_phase(self):
        base = FrequencySpectrum.unit([0, 1, 3])
        shifted = FrequencySpectrum.unit([10**14, 10**14 + 1, 10**14 + 3])
        # the quadrature grid is blind to a common frequency shift only if
        # phases are reduced exactly
        n = 2
        nodes = 2 * n * 3 + 1
        a = lp_norm_quadrature(base, 4, nodes)
        b = lp_norm_quadrature(shifted, 4, nodes)
        assert b == pytest.approx(even_moment(shifted, n), rel=1e-9)
        assert a == pytest.approx(b, rel=1e-9)

    @given(st.lists(st.integers(0, 50), min_size=1, max_size=8), st.sampled_from([1, 2, 3]))
    @settings(max_examples=50, deadline=None)
    def test_even_exactness_threshold(self, freqs, n):
        spectrum = FrequencySpectrum.unit(freqs)
        span = max(freqs) - min(freqs)
        nodes = 2 * n * span + 1
        exact = even_moment(spectrum, n)
        assert lp_norm_quadrature(spectrum, 2 * n, nodes) == pytest.approx(exact, rel=1e-9)

    @given(st.lists(st.integers(0, 30), min_size=1, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_norm_monotone_in_p(self, freqs):
        spectrum = FrequencySpectrum.unit(freqs)
        nodes = suggested_nodes(spectrum, 6)
        norms = [
            lp_norm_quadrature(spectrum, p, nodes) ** (1.0 / p) for p in (1.0, 2.0, 3.0, 4.0, 6.0)
        ]
        for lo, hi in zip(norms, norms[1:]):
            assert hi >= lo - 1e-12 * max(1.0, hi)

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            lp_norm_quadrature(FrequencySpectrum.unit([1]), 0.5, 8)

    @pytest.mark.parametrize("p", [math.inf, math.nan])
    def test_rejects_non_finite_p(self, p):
        with pytest.raises(ValueError, match=f"p={p}"):
            lp_norm_quadrature(FrequencySpectrum.unit([1]), p, 8)

    def test_overflow_is_loud(self, monkeypatch):
        with pytest.raises(OverflowError):
            lp_norm_quadrature(spectrum_of([(0, 1e200)]), 2.0, 7)
        monkeypatch.setattr("expsumlab.expsum._grid_values", None)  # refused before the grid
        with pytest.raises(OverflowError, match="2\\^1024"):
            lp_norm_quadrature(FrequencySpectrum.unit([0, 1, 2, 3]), 512.0, 7)

    @pytest.mark.parametrize("width", [50, 10**9, 2**62 - 1])
    @pytest.mark.parametrize("p", [1.0, 2.0, 2.5, 3.0, 4.0])
    def test_matches_phase_matrix_oracle(self, width, p):
        rng = np.random.default_rng(int(p * 10) + width % 97)
        freqs = rng.integers(-width, width, 12, endpoint=True).tolist()
        freqs[0], freqs[1] = -width, width
        freqs[2] = freqs[3]  # a repeated frequency merges into one bin
        coeffs = rng.normal(size=12) + 1j * rng.normal(size=12)
        terms = list(zip(freqs, coeffs.tolist()))
        spectrum = spectrum_of(terms)
        for nodes in (1, 7, 64, 101, 997):
            got = lp_norm_quadrature(spectrum, p, nodes)
            assert got == pytest.approx(oracle_quadrature(terms, p, nodes), rel=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_even_p_exact_at_bandwidth(self, n):
        # |S|^{2n} has frequencies in [-n*span, n*span]; n*span + 1 nodes integrate it exactly
        rng = np.random.default_rng(30 + n)
        for _ in range(20):
            freqs = rng.integers(-40, 41, int(rng.integers(1, 10))).tolist()
            spectrum = FrequencySpectrum.unit(freqs).with_phases(rng.uniform(0, 2 * np.pi, len(freqs)))
            nodes = n * (max(freqs) - min(freqs)) + 1
            got = lp_norm_quadrature(spectrum, 2 * n, nodes)
            assert got == pytest.approx(even_norm_coeff(spectrum, n), rel=1e-12)

    def test_absurd_node_count_is_guarded(self):
        spectrum = FrequencySpectrum.unit([0, 1, 3])
        for nodes in ((1 << 24) + 1, 10**18):
            with pytest.raises(GuardError):
                lp_norm_quadrature(spectrum, 3.0, nodes)


class TestSpectrumArrays:
    @pytest.mark.parametrize(
        "make",
        [
            lambda f: np.array(f, np.int64),
            list,
            lambda f: (v for v in f),
        ],
        ids=["int64-array", "list", "generator"],
    )
    def test_unit_from_any_iterable(self, make):
        freqs = [5, -3, 5, 0, 2**40]
        spectrum = FrequencySpectrum.unit(make(freqs))
        assert spectrum.frequencies.dtype == np.int64
        assert spectrum.frequencies.tolist() == freqs
        assert spectrum.coefficients.dtype == np.complex128
        assert (spectrum.coefficients == 1).all() and spectrum.size == 5
        assert spectrum.freqs == tuple(freqs)

    def test_unit_from_empty_list(self):
        spectrum = FrequencySpectrum.unit([])
        assert spectrum.size == 0 and spectrum.freqs == ()
        assert len(spectrum.coefficients) == 0

    @pytest.mark.parametrize("top", [2**62 - 1, 2**62, 2**63, 2**70])
    def test_wide_frequencies_are_python_ints(self, top):
        for freqs in ([0, top, -7], [-top, 3]):
            spectrum = FrequencySpectrum.unit(freqs)
            assert spectrum.frequencies.dtype == (np.int64 if top < 2**62 else object)
            assert spectrum.freqs == tuple(freqs)
            assert all(type(f) is int for f in spectrum.freqs)
            pairs = spectrum_of((f, 0.5j) for f in freqs)
            assert all(type(f) is int for f in pairs.freqs)
            assert pairs.coefficients.tolist() == [0.5j] * len(freqs)

    def test_freqs_are_python_ints(self):
        for spectrum in (
            FrequencySpectrum.unit(np.arange(-4, 9)),
            spectrum_of([(np.int64(3), 1.0), (-2, 2j)]),
            FrequencySpectrum.unit([1, 2, 3]).with_phases([0.1, 0.2, 0.3]),
        ):
            assert all(type(f) is int for f in spectrum.freqs)

    def test_with_phases_builds_from_math(self):
        phases = np.random.default_rng(5).uniform(0, 2 * np.pi, 50)
        spectrum = FrequencySpectrum.unit(range(50)).with_phases(phases)
        expected = [complex(math.cos(t), math.sin(t)) for t in phases.tolist()]
        assert spectrum.coefficients.tolist() == expected
        with pytest.raises(ValueError):
            FrequencySpectrum.unit([1, 2]).with_phases([0.0])


class TestMerge:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_complex_matches_dict_loop_bit_for_bit(self, seed):
        rng = np.random.default_rng(seed)
        freqs = rng.integers(-6, 7, 300).tolist()  # long runs of repeats, negatives
        coeffs = (rng.normal(size=300) + 1j * rng.normal(size=300)) * 10.0 ** rng.integers(-8, 9, 300)
        pairs = list(zip(freqs, coeffs.tolist()))
        pairs += [(99, 0.1 + 0.3j), (99, -0.1 - 0.3j), (-99, 2.0), (-99, -2.0)]  # sums to zero
        spectrum = spectrum_of(pairs)
        got = _merge(spectrum.frequencies, spectrum.coefficients)
        expected = as_profile(merged_loop(pairs), np.complex128)
        assert got[0].tobytes() == expected[0].tobytes()
        assert got[1].dtype == np.complex128
        assert got[1].tobytes() == expected[1].tobytes()
        assert as_table(got)[99] == 0 and as_table(got)[-99] == 0  # kept, not dropped

    @pytest.mark.parametrize("value_bits, packed", [(1, True), (19, True), (24, False)])
    def test_counts_packed_where_words_fit(self, value_bits, packed, monkeypatch):
        # 40-bit key offsets above unit counts (no count bits) or counts of 19 or 24 bits: 40, 59 and 64-bit words
        rng = np.random.default_rng(value_bits)
        keys = rng.integers(-(2**39), 2**39, 500) // 10**9 * 10**9
        keys[:2] = -(2**39), 2**39 - 1
        values = rng.integers(1, 2**value_bits, 500) if value_bits > 1 else np.ones(500, np.int64)
        argsorts = spy_argsort_calls(monkeypatch)
        got = _merge(keys, values)
        assert argsorts == ([] if packed else [None])
        assert_same_arrays(got, argsort_reduceat(keys, values))

    @pytest.mark.parametrize("top", [50, 2**63])
    def test_counts_match_counter(self, top):
        rng = np.random.default_rng(top % 1000)
        freqs = [int(v) for v in rng.integers(-50, 51, 400)] + [top, top, -top]
        spectrum = FrequencySpectrum.unit(freqs)
        got = _merge(spectrum.frequencies, np.ones(spectrum.size, np.int64))
        assert as_table(got) == counter_profile(freqs)
        assert all(type(f) is int for f in got[0].tolist())


def unit_profile(freqs):
    """The multiplicity profile of a unit spectrum, as ``_representation`` makes it."""
    spectrum = FrequencySpectrum.unit(freqs)
    return _merge(spectrum.frequencies, np.ones(spectrum.size, np.int64))


class TestWideConvolution:
    """Routes past int64 go through the one merge: no dense call, the pair loop's answer."""

    @pytest.mark.parametrize("base", [2**62 - 3, 2**62, 2**63, -(2**63) - 5])
    def test_wide_frequencies(self, base, monkeypatch):
        # a dense run of frequencies: only its width keeps it off np.convolve
        profile = unit_profile([base + k for k in (0, 1, 1, 2, 3, 3, 3, 5)])
        calls = spy_dense_calls(monkeypatch)
        table = profile
        reference = as_table(profile)
        for _ in range(2):
            table = _convolve(table, profile)
            reference = _convolve_pairs(reference, as_table(profile))
            assert as_table(table) == reference
            assert all(type(f) is int for f in table[0].tolist())
        assert not calls

    def test_wide_complex(self, monkeypatch):
        rng = np.random.default_rng(9)
        freqs = [2**63 + int(k) * 10**6 for k in rng.integers(-20, 21, 15)]
        coeffs = rng.normal(size=15) + 1j * rng.normal(size=15)
        spectrum = spectrum_of(zip(freqs, coeffs.tolist()))
        profile = _merge(spectrum.frequencies, spectrum.coefficients)
        calls = spy_dense_calls(monkeypatch)
        got = as_table(_convolve(profile, profile))
        expected = _convolve_pairs(as_table(profile), as_table(profile))
        assert list(got) == list(expected)
        assert list(got.values()) == pytest.approx(list(expected.values()), rel=1e-12, abs=1e-12)
        assert not calls

    def test_big_sparse_counts(self, monkeypatch):
        rng = np.random.default_rng(4)
        a = {int(k) * 10**9 + int(r): (1 << 40) + int(c) for k, r, c in rng.integers(0, 1000, (30, 3))}
        b = {int(k) * 10**9: 1 << int(s) for k, s in rng.integers(0, 90, (12, 2))}
        calls = spy_dense_calls(monkeypatch)
        ab = _convolve(as_profile(a, object), as_profile(b, object))
        assert ab[1].dtype == object
        assert as_table(ab) == _convolve_pairs(a, b)
        # int64 counts below 2^32 whose masses multiply past 2^62
        half = {f: c >> 9 for f, c in a.items()}
        assert sum(half.values()) ** 2 >= 2**62
        got = _convolve(as_profile(half, np.int64), as_profile(half, np.int64))
        assert got[1].dtype == object
        assert as_table(got) == _convolve_pairs(half, half)
        assert not calls


def argsort_reduceat(keys, values):
    """Distinct keys and summed counts by an argsort and np.add.reduceat, as ``_merge`` did before packed words."""
    order = np.argsort(keys)
    keys = keys[order]
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    return keys[starts], np.add.reduceat(values[order], starts)


def argsort_merge(a, b):
    """The sparse convolution of count profiles by ``argsort_reduceat`` of every pair sum."""
    (fa, ca), (fb, cb) = a, b
    return argsort_reduceat(np.add.outer(fa, fb).ravel(), np.multiply.outer(ca, cb).ravel())


def spy_packed_calls(monkeypatch, replace=False):
    """A list of (shift, square) per packed convolution; with replace, each runs ``argsort_merge``."""
    calls = []
    packed = expsum._convolve_packed

    def spy(a, b, shift):
        calls.append((shift, a is b))
        return argsort_merge(a, b) if replace else packed(a, b, shift)

    monkeypatch.setattr(expsum, "_convolve_packed", spy)
    return calls


def spy_argsort_calls(monkeypatch):
    """A list that grows by the ``kind`` of every np.argsort call."""
    calls = []
    argsort = np.argsort
    monkeypatch.setattr(np, "argsort", lambda a, kind=None: calls.append(kind) or argsort(a, kind=kind))
    return calls


def assert_same_arrays(got, expected):
    for g, e in zip(got, expected):
        assert g.dtype == e.dtype == np.int64
        assert g.tobytes() == e.tobytes()


class TestPackedConvolution:
    """Sparse int64 counts sort packed words: the argsort merge's arrays byte for byte, no argsort."""

    @pytest.mark.parametrize("seed", [21, 22, 23, 24])
    @pytest.mark.parametrize("square", [True, False])
    def test_matches_argsort_merge(self, seed, square, monkeypatch):
        rng = np.random.default_rng(seed)
        a = sparse_profile(seed, True)
        assert a[0].min() < 0 and a[1].max() > 1  # negative frequencies, multiplicities above 1
        b = a if square else as_profile(counter_profile(rng.integers(-(10**7), 10**7, 25).tolist() * 3), np.int64)
        expected = argsort_merge(a, b)
        argsorts, packed = spy_argsort_calls(monkeypatch), spy_packed_calls(monkeypatch)
        got = _convolve(a, b)
        shift = (int(a[1].max()) * int(b[1].max())).bit_length()
        assert not argsorts and packed == [(shift, square)]
        assert_same_arrays(got, expected)
        assert as_table(got) == _convolve_pairs(as_table(a), as_table(b))
        # the next step: the table against the profile, both with counts above 1
        monkeypatch.undo()
        assert_same_arrays(_convolve(got, a), argsort_merge(got, a))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_public_counts_match_argsort_route(self, n, monkeypatch):
        rng = np.random.default_rng(n)
        freqs = (rng.integers(-8, 9, 14) * 10**6 + rng.integers(0, 2, 14)).tolist()
        spectrum = FrequencySpectrum.unit(freqs)
        powers = (n, 3, {2: 60, 3: 20, 4: 9}[n])
        packed = spy_packed_calls(monkeypatch)
        table = representation_table(spectrum, n)
        moment, count = even_moment(spectrum, n), diophantine_count(*powers)
        top = max(counter_profile(freqs).values()) ** 2
        assert packed[0] == (top.bit_length(), True) and len(packed) == 3 * (n - 1)
        monkeypatch.undo()
        reference = spy_packed_calls(monkeypatch, replace=True)
        assert table == representation_table(spectrum, n)
        assert table == oracle_convolution([(f, 1) for f in freqs], n)
        assert moment == even_moment(spectrum, n) == sum(c * c for c in table.values())
        assert count == diophantine_count(*powers)
        assert len(reference) == len(packed)

    # (span bits, largest count product, square) -> words of 31, 63 and 64 bits; shift None is the argsort
    @pytest.mark.parametrize(
        "span_bits, top, square, shift",
        [
            (29, 3, False, 2),
            (61, 3, False, 2),
            (61, 4, False, None),
            (28, 4, True, 3),
            (60, 4, True, 3),
            (61, 4, True, None),
        ],
    )
    def test_word_size_boundaries(self, span_bits, top, square, shift, monkeypatch):
        # the largest frequency sum less the smallest, of span_bits bits (even for a square)
        span = (1 << span_bits) - (2 if square else 1)
        if square:
            # counts 1, 2, 1 make the largest product 4
            a = b = (np.array([-5, -2, span // 2 - 5], np.int64), np.array([1, 2, 1], np.int64))
        else:
            a = (np.array([-7, 3, (1 << (span_bits - 1)) - 7], np.int64), np.array([1, top, 1], np.int64))
            b = (np.array([0, 9, (1 << (span_bits - 1)) - 1], np.int64), np.array([1, 1, 1], np.int64))
        assert int(a[0][-1]) + int(b[0][-1]) - int(a[0][0]) - int(b[0][0]) == span
        expected = argsort_merge(a, b)
        argsorts, packed = spy_argsort_calls(monkeypatch), spy_packed_calls(monkeypatch)
        shifts = []
        word_shift = expsum._word_shift
        monkeypatch.setattr(expsum, "_word_shift", lambda *args: shifts.append(args) or word_shift(*args))
        got = _convolve(a, b)
        assert packed == ([] if shift is None else [(shift, square)])
        assert argsorts == ([] if shift is not None else [None])
        assert len(shifts) == 1  # the argsort fallback does not try the words again
        assert_same_arrays(got, expected)
        assert as_table(got) == _convolve_pairs(as_table(a), as_table(b))

    def test_complex_and_object_take_argsort(self, monkeypatch):
        complex_profile = sparse_profile(31, False)
        counts = {int(k) * 10**9: int(c) for k, c in np.random.default_rng(5).integers(1, 50, (20, 2))}
        object_profile = as_profile(counts, object)
        wide = unit_profile([2**62 + 10**9 * k for k in (0, 1, 1, 5)])
        argsorts, packed = spy_argsort_calls(monkeypatch), spy_packed_calls(monkeypatch)
        _convolve(complex_profile, complex_profile)
        assert argsorts == ["stable"]
        for profile in (object_profile, wide):
            got = _convolve(profile, profile)
            assert as_table(got) == _convolve_pairs(as_table(profile), as_table(profile))
        assert argsorts == ["stable", None, None] and not packed


def test_no_numpy_ma():
    """No public path imports numpy.ma, which np.unique pulls in at about 0.6 MB."""
    script = """
import sys
from expsumlab import FrequencySpectrum, even_moment, even_norm_coeff, lp_norm_quadrature
from expsumlab.cli import run
from expsumlab.majorant import majorant_ratio, majorant_ratio_quadrature

for freqs in ([0, 1, 3, 7, 7], [0, 10**9, 3 * 10**9, 2**63]):
    spectrum = FrequencySpectrum.unit(freqs)
    even_moment(spectrum, 2)
    even_norm_coeff(spectrum.with_phases([0.3] * len(freqs)), 3)
    lp_norm_quadrature(spectrum, 3.0, 64)
for p in (2, 4):
    majorant_ratio([0, 1, 3, 7], p, restarts=2)
    majorant_ratio([1, 10**9], p, restarts=2)
majorant_ratio_quadrature([0, 1, 3, 7], 3.0, restarts=2)
assert run(["verify", "--quick"]) == 0
assert "numpy.ma" not in sys.modules, "numpy.ma was imported"
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr[-2000:]
