"""Moment expectations: exact formulas, the coincidence engine, Monte Carlo."""

import dataclasses
import itertools
import math
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expsumlab import (
    ExperimentSpec,
    FrequencySpectrum,
    Pmf,
    SeedSpec,
    TimeMap,
    coincidence_probability_poisson,
    even_moment,
    exact_even_moment,
    exact_even_moment_iid,
    exact_even_moment_poisson,
    exact_even_moment_walk,
    exact_second_moment_poisson,
    lp_norm_quadrature,
    mc_even_moment,
    mc_general_moment,
    poisson_pmf,
    slope_fit,
    suggested_nodes,
)
from expsumlab import expsum, moments
from expsumlab.errors import GuardError
from expsumlab.moments import (
    _even_degree,
    _sampler,
    _summarize,
    interval_coefficients,
    truncated_poisson_pmf,
)
from expsumlab.processes import (
    _WALK_LENGTH_GUARD,
    TimeGrid,
    iid_draws,
    sample_poisson_path,
    sample_random_walk,
)
from test_processes import point, uniform

SEED = SeedSpec(2024, 3)


time_multisets = st.lists(
    st.floats(0.0, 12.0, allow_nan=False), min_size=1, max_size=4
).map(tuple)


def exact_second_moment_iid(pmf: Pmf, size: int) -> float:
    """Closed form size + (size^2 - size) * sum_k mu_k^2 for ``size`` i.i.d. draws: the n = 1 oracle.

    Valid for i.i.d. draws only; a general stationary process obeys the
    matching inequality but not the equality.
    """
    return size + (size * size - size) * collision_mass(pmf)


def collision_mass(pmf: Pmf) -> float:
    """Sum of squared probabilities (the two-draw coincidence mass)."""
    return math.fsum(p * p for p in pmf.probs)


def oracle_equal_poisson_sums(lam: float, cutoff: int = 80) -> float:
    """P[X = Y] for independent Poisson(lam) by direct truncated summation."""
    total = 0.0
    for a in range(cutoff):
        p = math.exp(-lam) * lam**a / math.factorial(a)
        total += p * p
    return total


class TestExactSecondMoments:
    def test_poisson_single_time(self):
        assert exact_second_moment_poisson([3.7]) == pytest.approx(1.0)

    def test_poisson_two_times(self):
        expected = 2 + 2 * math.exp(-1.0)
        assert exact_second_moment_poisson([1.0, 2.0]) == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("m", [1, 5, 30, 200])
    def test_poisson_interval_sandwich(self, m):
        value = exact_second_moment_poisson([float(t) for t in range(1, m + 1)])
        assert m <= value <= 3 * m

    # the i.i.d. closed form is the tests' oracle; the engine at n = 1 gives the same hand values
    def test_iid_point_mass(self):
        assert exact_second_moment_iid(point(3), 6) == pytest.approx(36.0)
        assert exact_even_moment_iid(point(3), 6, 1) == pytest.approx(36.0)

    def test_iid_uniform_pair(self):
        assert exact_second_moment_iid(uniform([0, 1]), 2) == pytest.approx(3.0)
        assert exact_even_moment_iid(uniform([0, 1]), 2, 1) == pytest.approx(3.0)

    def test_iid_size_one(self):
        assert exact_second_moment_iid(uniform([0, 1, 2]), 1) == pytest.approx(1.0)
        assert exact_even_moment_iid(uniform([0, 1, 2]), 1, 1) == pytest.approx(1.0)

    def test_second_moment_sandwich_for_uniform(self):
        # |A|^2 * sum mu_k^2 <= exact <= |A|^2, exactly from the closed form
        for support in ([0, 1], [0, 1, 2, 5], list(range(10))):
            pmf = uniform(support)
            for size in (2, 7, 20):
                value = exact_second_moment_iid(pmf, size)
                assert size**2 * collision_mass(pmf) <= value <= size**2 + 1e-9


class TestCoincidence:
    def test_identical_sides(self):
        assert coincidence_probability_poisson((4.2,), (4.2,), 1e-9) == 1.0

    def test_single_increment_zero(self):
        assert coincidence_probability_poisson((1.0,), (2.0,), 1e-9) == pytest.approx(
            math.exp(-1.0), abs=1e-9
        )

    def test_cancellation_leaves_two_increments(self):
        got = coincidence_probability_poisson((1.0, 2.0), (3.0,), 1e-10)
        assert got == pytest.approx(oracle_equal_poisson_sums(1.0), abs=1e-9)

    @given(time_multisets, time_multisets)
    @settings(max_examples=40, deadline=None)
    def test_swap_symmetry_and_range(self, plus, minus):
        a = coincidence_probability_poisson(plus, minus, 1e-6)
        b = coincidence_probability_poisson(minus, plus, 1e-6)
        assert a == b
        assert 0.0 <= a <= 1.0

    @given(time_multisets, time_multisets)
    @settings(max_examples=20, deadline=None)
    def test_tolerance_refinement_stable(self, plus, minus):
        coarse = coincidence_probability_poisson(plus, minus, 1e-4)
        fine = coincidence_probability_poisson(plus, minus, 5e-5)
        assert abs(fine - coarse) < 1e-4

    def test_rejects_bad_tol(self):
        with pytest.raises(ValueError):
            coincidence_probability_poisson((1.0,), (), 0.5)

    def test_rejects_negative_times(self):
        for plus, minus in (((-1.0,), ()), ((1.0,), (2.0, -0.5))):
            with pytest.raises(ValueError, match="times must be nonnegative"):
                coincidence_probability_poisson(plus, minus, 1e-9)

    def test_tolerance_below_rounding_level_returns(self):
        # 1 - sum(pmf) levels off near 1e-16, far above the per-interval budget
        got = coincidence_probability_poisson((1.0, 2.0), (3.0,), 1e-18)
        assert got == pytest.approx(oracle_equal_poisson_sums(1.0), rel=1e-14)

    def test_result_within_tol_plus_rounding_term(self):
        # The stated bound: within tol + R * result of the truth, R the float64
        # rounding term.  Here the truth is P[X = Y] = e^{-2} I_0(2) for
        # independent Poisson(1) X, Y, and R * result is far above tol.
        plus, minus = (1.0, 2.0), (3.0,)
        tol = 1e-18
        got = coincidence_probability_poisson(plus, minus, tol)
        truth = math.fsum(math.exp(-2.0) / math.factorial(k) ** 2 for k in range(30))
        lengths, coeffs = interval_coefficients(plus, minus)
        rounding = 0.0
        for lam, c in zip(lengths, coeffs):
            k = len(truncated_poisson_pmf(lam, tol / len(coeffs))) - 1
            rounding += abs(c) * k + lam + k * abs(math.log(lam)) + math.lgamma(k + 1)
        rounding *= sys.float_info.epsilon
        assert rounding * got > tol
        assert abs(got - truth) <= tol + rounding * got

    def test_interval_coefficients_cancel(self):
        lengths, coeffs = interval_coefficients((1.0, 2.0), (3.0,))
        assert lengths == [1.0, 1.0]
        assert coeffs == [1, -1]


class TestSignedSumPmf:
    """The strided convolution against a walk over every joint outcome."""

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        count = int(rng.integers(1, 5))
        pmfs = [p / p.sum() for p in (rng.random(int(rng.integers(1, 7))) for _ in range(count))]
        coeffs = [int(c) for c in rng.choice([-3, -2, -1, 1, 2, 3], count)]
        dist, lo = moments._signed_sum_pmf(pmfs, coeffs)
        expected = {}
        for ks in itertools.product(*(range(len(p)) for p in pmfs)):
            value = sum(c * k for c, k in zip(coeffs, ks))
            expected[value] = expected.get(value, 0.0) + math.prod(p[k] for p, k in zip(pmfs, ks))
        assert (lo, lo + len(dist) - 1) == (min(expected), max(expected))
        for j, prob in enumerate(dist.tolist()):
            assert prob == pytest.approx(expected.get(lo + j, 0.0), rel=1e-12, abs=1e-16)

    def test_both_signs(self):
        # X - 2 Y for X uniform on {0, 1, 2} and Y on {0, 1}: values -2..2
        dist, lo = moments._signed_sum_pmf([np.full(3, 1 / 3), np.array([0.25, 0.75])], [1, -2])
        assert lo == -2
        np.testing.assert_allclose(dist, [0.25, 0.25, 1 / 3, 1 / 12, 1 / 12], rtol=1e-15)


class TestTruncatedPmf:
    def test_budget_below_rounding_level(self):
        # At this mean 1 - sum(pmf) levels off at 1.1e-16 as K doubles.
        lam, budget = 2.6, 1e-20
        pmf = truncated_poisson_pmf(lam, budget)
        k = len(pmf) - 1
        bound = poisson_pmf(lam, k + 1) * (k + 2) / (k + 2 - lam)
        assert bound < budget
        assert math.fsum(poisson_pmf(lam, a) for a in range(k + 1, k + 200)) <= bound

    def test_unreachable_budget_fails_fast(self):
        with pytest.raises(GuardError):
            truncated_poisson_pmf(2.6, 0.0)

    @pytest.mark.parametrize("lam", [0.3, 2.6, 17.5, 400.0])
    def test_vector_matches_scalar_pmf(self, lam):
        pmf = truncated_poisson_pmf(lam, 1e-12)
        scalar = np.array([poisson_pmf(lam, a) for a in range(len(pmf))])
        assert pmf.tobytes() == scalar.tobytes()


def tuple_walk_even_moment(times, n, tol):
    """The sum over all ordered 2n-tuples of their coincidence probability.

    The engine before the transfer matrix, kept as its oracle: one
    coincidence DP per distinct unordered (plus, minus) signature.
    """
    ts = tuple(float(t) for t in times)
    cache = {}
    terms = []
    for combo in itertools.product(range(len(ts)), repeat=2 * n):
        plus = tuple(sorted(ts[i] for i in combo[:n]))
        minus = tuple(sorted(ts[i] for i in combo[n:]))
        key = (plus, minus) if plus <= minus else (minus, plus)
        if key not in cache:
            cache[key] = coincidence_probability_poisson(plus, minus, tol)
        terms.append(cache[key])
    return math.fsum(terms)


def walk_paths_even_moment(times, n):
    """Mean of the exact even moment over all 2^T walk paths, T = max time."""
    top = int(max(times))
    total = 0
    for steps in itertools.product((-1, 1), repeat=top):
        path = [0, *itertools.accumulate(steps)]
        total += even_moment(FrequencySpectrum.unit([path[int(t)] for t in times]), n)
    return total / 2**top


def iid_draws_even_moment(pmf, size, n):
    """Probability-weighted exact even moment over all size-tuples of draws."""
    total = 0.0
    for draws in itertools.product(pmf.entries, repeat=size):
        weight = math.prod(p for _, p in draws)
        total += weight * even_moment(FrequencySpectrum.unit([v for v, _ in draws]), n)
    return total


def poisson_coincidence_mp(plus, minus):
    """P[sum N(plus) = sum N(minus)] at 40 digits, by convolving c * Poisson(L) pmfs."""
    mp = pytest.importorskip("mpmath")
    dist = {0: mp.mpf(1)}
    prev = mp.mpf(0)
    for b in sorted({t for t in plus + minus if t > 0}):
        c = sum(t >= b for t in plus) - sum(t >= b for t in minus)
        lam, prev = mp.mpf(b) - prev, mp.mpf(b)
        if c:
            pmf = [mp.exp(-lam) * lam**k / mp.factorial(k) for k in range(80)]
            out = {}
            for x, p in dist.items():
                for k, q in enumerate(pmf):
                    out[x + c * k] = out.get(x + c * k, 0) + p * q
            dist = out
    return dist.get(0, mp.mpf(0))


class TestExactEvenMoment:
    def test_single_time(self):
        assert exact_even_moment_poisson([5.0], 3, 1e-6) == 1.0

    def test_empty_times(self):
        assert exact_even_moment_poisson([], 2, 1e-8) == 0.0

    def test_matches_second_moment(self):
        times = [1.0, 2.0]
        a = exact_even_moment_poisson(times, 1, 1e-9)
        b = exact_second_moment_poisson(times)
        assert a == pytest.approx(b, abs=2 * len(times) ** 2 * 1e-9)

    @pytest.mark.parametrize("times", [[1.0, 2.0, 4.0], [0.5, 1.5, 2.5, 6.0]])
    def test_n1_equals_closed_form(self, times):
        a = exact_even_moment_poisson(times, 1, 1e-8)
        b = exact_second_moment_poisson(times)
        assert a == pytest.approx(b, abs=2 * len(times) ** 2 * 1e-8)

    @pytest.mark.parametrize(
        "times, n",
        [
            ([float(j) for j in range(1, 4)], 2),
            ([float(j) for j in range(1, 6)], 2),
            ([float(j) for j in range(1, 9)], 2),
            ([float(j * j) for j in range(1, 7)], 2),
            ([1.0, 2.0, 3.0, 4.0], 3),
            ([0.5, 1.5, 1.5, 2.5], 2),
            ([0.0, 0.0, 3.0], 2),
        ],
    )
    def test_matches_tuple_walk(self, times, n):
        tol = 1e-9
        got = exact_even_moment_poisson(times, n, tol)
        oracle = tuple_walk_even_moment(times, n, tol)
        # each engine is within N^{2n} tol (plus rounding) of the truth
        assert abs(got - oracle) <= 2 * len(times) ** (2 * n) * tol

    def test_result_within_tol_plus_rounding_term(self):
        # The stated bound N^{2n} (tol + R), against a 40-digit reference.
        times, n, tol = (0.5, 1.5, 1.5, 2.5), 2, 1e-18
        got = exact_even_moment_poisson(times, n, tol)
        truth = 0
        for combo in itertools.product(times, repeat=2 * n):
            truth += poisson_coincidence_mp(combo[:n], combo[n:])
        depth, top = len(set(times)), max(times)
        rounding = sys.float_info.epsilon * (
            depth * ((n + 1) ** 2 + 8) + (math.pi * n + 4) * top + 2
        )
        assert rounding > tol
        assert abs(got - float(truth)) <= len(times) ** (2 * n) * (tol + rounding)

    @pytest.mark.parametrize("n", [0, -1])
    def test_rejects_bad_n(self, n):
        with pytest.raises(ValueError):
            exact_even_moment_poisson([1.0, 2.0], n, 1e-8)

    @pytest.mark.parametrize("tol", [0.0, -1e-9, 2e-3])
    def test_rejects_bad_tol(self, tol):
        with pytest.raises(ValueError):
            exact_even_moment_poisson([1.0, 2.0], 2, tol)

    def test_guard(self):
        # arith:2 at M = 256 needs K ~ n M^3 > 2^24 nodes; the guard fires
        # before any allocation, so this returns at once.
        times = TimeMap("arith", r=2.0).apply(range(1, 257))
        with pytest.raises(GuardError):
            exact_even_moment_poisson(times, 2, 1e-8)

    def test_guard_counts_every_copy_of_a_repeated_time(self, monkeypatch):
        # Each copy of a time is a layer: K = 111 nodes at n = 5 and tol 1e-8,
        # and 111 x 2^19 x 36 > 2^30, so the guard fires before any block.
        def refuse(g):
            raise AssertionError("a block ran past the work guard")

        monkeypatch.setattr("expsumlab.moments._signed", refuse)
        with pytest.raises(GuardError, match="nodes x times"):
            exact_even_moment_poisson([1.0] * 2**19, 5, 1e-8)

    def test_past_the_old_tuple_guard(self):
        # 59^10 tuples stopped the tuple walk; the transfer loop takes ms.
        # The tuples whose plus side equals their minus side give N^n.
        value = exact_even_moment_poisson(list(range(1, 60)), 5, 1e-6)
        assert math.isfinite(value) and value >= 59**5

    @pytest.mark.parametrize("size, expected", [(4, 70.0), (8, 821.5)])
    def test_walk_known_values(self, size, expected):
        times = [float(j) for j in range(1, size + 1)]
        assert exact_even_moment_walk(times, 2) == pytest.approx(expected, rel=1e-13)
        assert walk_paths_even_moment(times, 2) == expected

    @pytest.mark.parametrize("times, n", [([0.0, 2.0, 2.0, 5.0], 2), ([1.0, 3.0, 4.0], 3)])
    def test_walk_matches_path_enumeration(self, times, n):
        got = exact_even_moment_walk(times, n)
        assert got == pytest.approx(walk_paths_even_moment(times, n), rel=1e-13)

    def test_walk_rejects_fractional_times(self):
        with pytest.raises(ValueError):
            exact_even_moment_walk([0.5, 1.0], 2)

    @pytest.mark.parametrize("size, n", [(3, 2), (4, 2), (3, 3)])
    def test_iid_matches_draw_enumeration(self, size, n):
        pmf = Pmf(((-1, 0.2), (1, 0.5), (4, 0.3)))
        got = exact_even_moment_iid(pmf, size, n)
        assert got == pytest.approx(iid_draws_even_moment(pmf, size, n), rel=1e-13)

    def test_iid_n1_equals_closed_form(self):
        pmf = uniform([0, 1, 3])
        assert exact_even_moment_iid(pmf, 9, 1) == pytest.approx(
            exact_second_moment_iid(pmf, 9), rel=1e-13
        )

    def test_spec_dispatch(self):
        spec = ExperimentSpec("walk", (1, 2, 3, 4), TimeMap("identity"), 4.0, 1, SEED)
        est = exact_even_moment(spec)
        assert est.mean == pytest.approx(70.0, rel=1e-13)
        assert (est.std_error, est.n_samples) == (0.0, 0)
        assert est.descriptor == "walk/identity/p=4/|A|=4/exact"
        with pytest.raises(ValueError):
            exact_even_moment(ExperimentSpec("walk", (1, 2), TimeMap("identity"), 3.0, 1, SEED))


class TestMonteCarlo:
    def test_single_term_is_one(self):
        spec = ExperimentSpec("poisson", (1,), TimeMap("identity"), 2.0, 50, SEED)
        est = mc_even_moment(spec)
        assert est.mean == pytest.approx(1.0)
        assert est.std_error == pytest.approx(0.0)

    def test_extreme_p_refused_before_sampling(self, monkeypatch):
        monkeypatch.setattr("expsumlab.moments._sampler", None)
        spec = ExperimentSpec("poisson", (1, 2, 3, 4), TimeMap("identity"), 128.0, 1, SEED)
        with pytest.raises(OverflowError, match="2\\^128"):
            mc_even_moment(spec)  # 4^128 2n-tuples
        with pytest.raises(OverflowError, match="2\\^1024"):
            ExperimentSpec("poisson", (1, 2, 3, 4), TimeMap("identity"), 513.0, 1, SEED)
        for p in (math.inf, math.nan):
            with pytest.raises(ValueError, match=f"p={p}"):
                ExperimentSpec("poisson", (1, 2), TimeMap("identity"), p, 1, SEED)

    def test_point_mass_iid_fourth_moment(self):
        pmf = point(4)
        spec = ExperimentSpec("iid", tuple(range(1, 7)), TimeMap("identity"), 4.0, 40, SEED, pmf)
        est = mc_even_moment(spec)
        assert est.mean == pytest.approx(6.0**4)
        assert est.std_error == pytest.approx(0.0)

    def test_poisson_second_moment_unbiased(self):
        times = tuple(range(1, 9))
        spec = ExperimentSpec("poisson", times, TimeMap("identity"), 2.0, 10_000, SEED)
        est = mc_even_moment(spec)
        exact = exact_second_moment_poisson([float(t) for t in times])
        assert abs(est.mean - exact) <= 5 * est.std_error

    def test_unbiased_small_interval(self):
        times = tuple(range(1, 7))
        spec = ExperimentSpec("poisson", times, TimeMap("identity"), 2.0, 100_000, SeedSpec(31))
        est = mc_even_moment(spec)
        exact = exact_second_moment_poisson([float(t) for t in times])
        assert abs(est.mean - exact) <= 5 * est.std_error

    def test_iid_second_moment_matches_closed_form(self):
        pmf = uniform([0, 1, 3])
        spec = ExperimentSpec("iid", tuple(range(1, 9)), TimeMap("identity"), 2.0, 20_000, SEED, pmf)
        est = mc_even_moment(spec)
        exact = exact_second_moment_iid(pmf, 8)
        assert abs(est.mean - exact) <= 5 * est.std_error

    def test_general_matches_even_per_sample(self):
        spec = ExperimentSpec("poisson", tuple(range(1, 6)), TimeMap("identity"), 2.0, 30, SEED)
        even = mc_even_moment(spec)
        quad = mc_general_moment(spec)
        assert quad.mean == pytest.approx(even.mean, rel=1e-9)

    def test_general_moment_log_convexity_per_sample(self):
        pmf = uniform([0, 1])
        spec = ExperimentSpec("iid", (1, 2, 3, 4), TimeMap("identity"), 3.0, 1, SEED, pmf)
        sample = _sampler(spec)
        for i in range(50):
            spectrum = FrequencySpectrum.unit(sample(i))
            nodes = suggested_nodes(spectrum, 4.0)
            v2 = lp_norm_quadrature(spectrum, 2.0, nodes)
            v3 = lp_norm_quadrature(spectrum, 3.0, nodes)
            v4 = lp_norm_quadrature(spectrum, 4.0, nodes)
            n2, n4 = v2**0.5, v4**0.25
            assert v3 >= n2**3 * (1 - 1e-12)
            assert v3 <= n2 * n4**2 * (1 + 1e-12)

    def test_single_element_any_p(self):
        spec = ExperimentSpec("poisson", (4,), TimeMap("power", d=3), 2.7, 20, SEED)
        est = mc_general_moment(spec)
        assert est.mean == pytest.approx(1.0, rel=1e-12)

    def test_walk_rejects_fractional_times(self):
        spec = ExperimentSpec("walk", (1, 2), TimeMap("arith", r=0.5), 2.0, 4, SEED)
        with pytest.raises(ValueError):
            mc_even_moment(spec)

    @pytest.mark.parametrize(
        "time_map", [TimeMap("identity"), TimeMap("power", d=2), TimeMap("power", d=3), TimeMap("arith", r=1.0)]
    )
    def test_walk_values_match_sample_random_walk(self, time_map):
        for seed in (SeedSpec(0), SEED, SeedSpec(2**64 - 1, 77)):
            spec = ExperimentSpec("walk", (1, 2, 5, 6, 11, 17), time_map, 4.0, 3, seed)
            times = spec.times()
            for i in range(3):
                path = sample_random_walk(int(times[-1]), seed, i).values
                assert _sampler(spec)(i).tolist() == [path[int(t)] for t in times]

    def test_walk_sample_is_fast(self):
        # 128^3 = 2,097,152 steps; a tuple path of them took 1.1 s
        spec = ExperimentSpec("walk", tuple(range(1, 129)), TimeMap("power", d=3), 4.0, 1, SEED)
        start = time.perf_counter()
        values = _sampler(spec)(0)
        assert time.perf_counter() - start < 0.2
        assert values.shape == (128,) and values.dtype == np.int64

    def test_walk_guard_states_its_byte_budget(self):
        # 10^8 steps at 16 bytes a step; the refusal comes before any draw
        assert _WALK_LENGTH_GUARD == 100_000_000
        spec = ExperimentSpec("walk", (1, 100_000_001), TimeMap("identity"), 2.0, 1, SEED)
        with pytest.raises(GuardError, match="10\\^8 steps \\(about 1.6 GB at 16 bytes a step\\)"):
            _sampler(spec)(0)


def public_values(spec, i):
    """Sample i's values from the public samplers, each with its own generator."""
    times = spec.times()
    if spec.process == "poisson":
        return sample_poisson_path(TimeGrid(times), spec.seed, i).values
    if spec.process == "iid":
        pmf = spec.pmf
        return iid_draws(spec.seed.generator(i), np.cumsum(pmf.probs), np.array(pmf.values), len(spec.index_set))
    path = sample_random_walk(int(times[-1]), spec.seed, i).values
    return tuple(path[int(t)] for t in times)


RUNGS = [
    ExperimentSpec("poisson", tuple(range(1, 13)), TimeMap("identity"), 4.0, 23, SEED),
    ExperimentSpec("poisson", tuple(range(1, 81)), TimeMap("identity"), 4.0, 9, SEED),  # both routes
    ExperimentSpec("poisson", tuple(range(1, 21)), TimeMap("power", d=2), 4.0, 23, SEED),
    ExperimentSpec("poisson", (3, 7), TimeMap("arith", r=2.0), 4.0, 23, SEED),
    ExperimentSpec("walk", tuple(range(1, 31)), TimeMap("identity"), 4.0, 23, SeedSpec(5, 30)),
    ExperimentSpec("walk", tuple(range(1, 7)), TimeMap("power", d=2), 4.0, 23, SEED),
    ExperimentSpec("iid", tuple(range(1, 10)), TimeMap("identity"), 4.0, 23, SEED, uniform([-3, 0, 5])),
    ExperimentSpec("iid", tuple(range(1, 6)), TimeMap("identity"), 4.0, 23, SEED, point(-4)),
    ExperimentSpec("poisson", (4,), TimeMap("identity"), 4.0, 1, SEED),
    ExperimentSpec("walk", (2, 5, 9), TimeMap("identity"), 4.0, 1, SEED),
]


class TestBatchedRungs:
    @pytest.mark.parametrize("block", [1, 3, None])
    @pytest.mark.parametrize("p", [2.0, 4.0, 6.0])
    @pytest.mark.parametrize("rung", range(len(RUNGS)))
    def test_values_match_per_sample_even_moment(self, rung, p, block, monkeypatch):
        spec = dataclasses.replace(RUNGS[rung], p=p)
        n = int(p) // 2
        paths = [public_values(spec, i) for i in range(spec.samples)]
        expected = [float(even_moment(FrequencySpectrum.unit(path), n)) for path in paths]
        if block is not None:
            monkeypatch.setattr(moments, "_BLOCK_VALUES", block * len(spec.index_set))
        handed = []
        real = expsum.even_moment
        monkeypatch.setattr(expsum, "even_moment", lambda s, n: handed.append(s.size) or real(s, n))
        monkeypatch.setattr(moments, "_summarize", lambda values, spec, descriptor: values)
        assert mc_even_moment(spec) == expected
        distinct = [len(set(path)) for path in paths]
        assert len(handed) == {1: 0, 2: sum(t >= expsum._BATCH_TERMS for t in distinct), 3: spec.samples}[n]
        monkeypatch.undo()
        summary = _summarize(expected, spec, spec.descriptor() + "/exact-even")
        est = mc_even_moment(spec)
        assert (est.mean.hex(), est.std_error.hex()) == (summary.mean.hex(), summary.std_error.hex())

    @pytest.mark.parametrize("rung", [0, 4, 6])
    def test_sampler_draws_as_public_samplers(self, rung):
        spec = RUNGS[rung]
        sample = _sampler(spec)
        for i in (0, 1, 2**32, 2**64 - 1, 1):
            values = sample(i)
            assert values.dtype == np.int64
            assert values.tolist() == list(public_values(spec, i))


class TestEvenDegree:
    @pytest.mark.parametrize(
        "p,n",
        [
            (2, 1), (4.0, 2), (6.0, 3), (3.0, 0), (2.5, 0), (1.0, 0), (0.0, 0), (-2.0, 0), (-4, 0),
            (math.inf, 0), (math.nan, 0),
        ],
    )
    def test_values(self, p, n):
        assert _even_degree(p) == n

    def test_messages(self):
        spec = ExperimentSpec("poisson", (1, 2), TimeMap("identity"), 3.0, 2, SEED)
        with pytest.raises(ValueError, match="^mc_even_moment needs an even integer p >= 2$"):
            mc_even_moment(spec)
        with pytest.raises(ValueError, match="^exact_even_moment needs an even integer p >= 2$"):
            exact_even_moment(spec)


class TestGrowthUtilities:
    def test_exact_power_slope(self):
        fit = slope_fit([(2, 8.0), (4, 64.0), (8, 512.0)])
        assert fit.slope == pytest.approx(3.0, abs=1e-12)
        assert fit.residual == pytest.approx(0.0, abs=1e-12)

    def test_constant_slope(self):
        fit = slope_fit([(2, 5.0), (4, 5.0), (8, 5.0)])
        assert fit.slope == pytest.approx(0.0, abs=1e-12)

    def test_log_corrected_power(self):
        scales = [16, 32, 64, 128, 256]
        points = [(m, m**3 * math.log(m)) for m in scales]
        fit = slope_fit(points)
        # independent least-squares evaluation of the same fit
        xs = [math.log(m) for m in scales]
        ys = [math.log(v) for _, v in points]
        xbar = sum(xs) / len(xs)
        ybar = sum(ys) / len(ys)
        manual = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys)) / sum(
            (x - xbar) ** 2 for x in xs
        )
        assert fit.slope == pytest.approx(manual, rel=1e-12)
        assert 3.0 < fit.slope < 3.35

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            slope_fit([(2, 1.0), (4, 2.0)])
        with pytest.raises(ValueError):
            slope_fit([(2, 1.0), (4, -2.0), (8, 3.0)])
