"""Inequality oracles: exact quantities vs analytic bounds."""

import math
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expsumlab import SeedSpec, coincidence_probability_poisson, poisson_pmf
from expsumlab import bounds, processes, shell
from expsumlab.moments import interval_coefficients
from expsumlab.bounds import (
    _check_mode,
    _STIRLING_FROM,
    _combo_pmf,
    _concentration_tails,
    _holds,
    _mode_bound,
    _mode_pmf,
    _robbins_bounds,
    _sup_over_a,
    _sup_over_t_bound,
    _transfer_holds,
    _transfer_triples,
    _union_length,
    divisor_sieve,
    verification_suite,
)


def oracle_tail_probability(m: int, dev: float, top: int) -> float:
    """Direct two-tail sum with per-term log pmf, no recurrences."""
    total = 0.0
    for a in range(0, top + 1):
        if abs(a - m) > dev:
            total += poisson_pmf(float(m), a)
    return total


def suite_lams(m: int) -> list[float]:
    """The lam grid ``verification_suite`` checks at m."""
    root = math.sqrt(m)
    return [i / 10.0 for i in range(1, int(10 * root) + 1) if i / 10.0 <= root]


def tail_check(m: int, lam: float) -> tuple[float, float, bool]:
    """(exact, bound, holds) of the concentration core at one lam."""
    exact, bound = _concentration_tails(m, np.array([lam]))
    return float(exact[0]), float(bound[0]), bool(_holds(exact, bound)[0])


def sup_over_a(t: float) -> tuple[int, float, float]:
    """(mode, value, bound) of the pmf_sup_over_a core at one t."""
    k, value, bound = _sup_over_a(np.array([t]))
    return int(k[0]), float(value[0]), float(bound[0])


def robbins_holds(n) -> np.ndarray:
    """Both sides of Robbins' bounds hold, per n."""
    n = np.asarray(n, dtype=np.float64)
    ratio = _mode_pmf(n)
    lower, upper = _robbins_bounds(n)
    return _holds(lower, ratio) & _holds(ratio, upper)


def transfer(x: float, y: float, c: float) -> tuple[bool, bool]:
    """Both window-transfer implications at one triple."""
    impl_a, impl_b = _transfer_holds(*(np.array([v], dtype=np.float64) for v in (x, y, c)))
    return bool(impl_a[0]), bool(impl_b[0])


class TestConcentration:
    def test_m25_lam2(self):
        exact, bound, holds = tail_check(25, 2.0)
        assert bound == pytest.approx(2 * math.exp(-1.0), rel=1e-14)
        assert holds
        assert exact < bound
        oracle = oracle_tail_probability(25, 2.0 * 5.0, 400)
        assert exact == pytest.approx(oracle, rel=1e-10)

    def test_m4_lam1_vacuous(self):
        exact, bound, holds = tail_check(4, 1.0)
        assert bound == pytest.approx(2 * math.exp(-0.25), rel=1e-14)
        assert bound > 1.0 >= exact
        assert holds

    def test_m100_lam10_deep_tail(self):
        exact, bound, holds = tail_check(100, 10.0)
        assert bound == pytest.approx(2 * math.exp(-25.0), rel=1e-14)
        assert holds
        oracle = oracle_tail_probability(100, 100.0, 800)
        assert exact == pytest.approx(oracle, rel=1e-8)

    @pytest.mark.parametrize("m", [1, 2, 3, 25, 99, 100, 200])
    def test_grid_equals_scalar_bit_for_bit(self, m):
        # the suite's whole lam grid in one pass against one lam per pass
        lams = suite_lams(m)
        exact, bound = _concentration_tails(m, np.array(lams))
        for i, lam in enumerate(lams):
            one_exact, one_bound = _concentration_tails(m, np.array([lam]))
            assert (one_exact[0].hex(), one_bound[0].hex()) == (exact[i].hex(), bound[i].hex())

    @pytest.mark.parametrize("m, lam", [(1, 1.0), (25, 2.0), (100, 10.0), (200, math.sqrt(200))])
    def test_matches_40_digit_tail_sum(self, m, lam):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            dev = mp.mpf(lam) * mp.sqrt(m)
            tail = mp.fsum(
                mp.exp(-m) * mp.mpf(m) ** a / mp.factorial(a)
                for a in range(2 * m + 400)  # the rest is below 2^-399 of the upper tail
                if abs(a - m) > dev
            )
        assert tail_check(m, lam)[0] == pytest.approx(float(tail), rel=1e-12)

    @given(st.integers(1, 60), st.floats(0.05, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_always_holds_on_domain(self, m, frac):
        lam = frac * math.sqrt(m)
        assert tail_check(m, lam)[2]


class TestPmfSup:
    def test_over_t_small(self):
        a = np.array([1.0, 2.0])
        exact, bound = _mode_pmf(a), _sup_over_t_bound(a)
        assert exact[0] == pytest.approx(math.exp(-1.0), rel=1e-14)
        assert bound[0] == pytest.approx(1 / math.sqrt(2 * math.pi), rel=1e-14)
        assert exact[1] == pytest.approx(4 * math.exp(-2.0) / 2, rel=1e-14)
        assert bound[1] == pytest.approx(1 / math.sqrt(4 * math.pi), rel=1e-14)
        assert _holds(exact, bound).all()

    def test_over_t_large_ratio(self):
        a = np.array([1e6])
        exact, bound = _mode_pmf(a), _sup_over_t_bound(a)
        assert _holds(exact, bound)[0]
        # the ratio approaches 1 like e^{-1/(12a)}; at this scale the log-space
        # evaluation carries ~1e-8 noise, so only the trend is assertable
        ratio = exact[0] / bound[0]
        assert 1.0 - 1e-6 < ratio <= 1.0 + 1e-12

    def test_over_a_half(self):
        argmax, value, bound = sup_over_a(0.5)
        assert argmax == 0
        assert value == pytest.approx(math.exp(-0.5), rel=1e-14)
        assert bound == 1.0

    def test_over_a_midrange(self):
        argmax, value, bound = sup_over_a(4.7)
        assert argmax == 4
        assert value == pytest.approx(math.exp(-4.7) * 4.7**4 / 24, rel=1e-13)
        assert bound == pytest.approx(1 / math.sqrt(8 * math.pi), rel=1e-14)

    def test_over_a_integer_tie(self):
        argmax, value, bound = sup_over_a(6.0)
        assert argmax == 6
        # pmf ties at a = 5 and a = 6 when t = 6
        assert poisson_pmf(6.0, 5) == pytest.approx(value, rel=1e-13)
        assert value <= bound + 1e-12

    def test_over_a_zero(self):
        assert sup_over_a(0.0) == (0, 1.0, 1.0)

    @pytest.mark.parametrize("t", [45357.0, 1e5, 6294988.990221888])
    def test_over_a_large_t_within_float_noise(self, t):
        # the log-space pmf is noisy at relative 1e-10..1e-8 here, which a
        # fixed 1e-10 slack mistook for a second mode
        argmax, value, bound = sup_over_a(t)
        assert argmax == math.floor(t)
        assert value <= bound

    def test_over_a_scan_catches_larger_value(self):
        # a wrong mode must raise, on both sides of floor(t) and at every scale;
        # at 6.3e6 a shift of 100 moves log p by 8e-4, the noise is 2e-7
        for t, shifts in [
            (0.5, [1, 2]),
            (4.7, [-4, -1, 1, 3]),
            (6.0, [-2, 1]),
            (45357.0, [-3, 3]),
            (6294988.99, [-100, 100]),
        ]:
            _check_mode(t, math.floor(t))
            for shift in shifts:
                with pytest.raises(RuntimeError, match="larger value"):
                    _check_mode(t, math.floor(t) + shift)

    def test_over_a_scan_is_fast_at_large_t(self):
        # the scan evaluated math.lgamma once per entry: 2.3 s at this t
        start = time.perf_counter()
        assert sup_over_a(6294988.99)[0] == 6294988
        assert time.perf_counter() - start < 0.1


class TestRobbins:
    def test_n1_explicit(self):
        one = np.array([1.0])
        lower, upper = _robbins_bounds(one)
        base = 1 / math.sqrt(2 * math.pi)
        assert lower[0] == pytest.approx(base * math.exp(-1 / 12), rel=1e-14)
        assert _mode_pmf(one)[0] == pytest.approx(math.exp(-1.0), rel=1e-14)
        assert upper[0] == pytest.approx(base * math.exp(-1 / 13), rel=1e-14)
        assert robbins_holds(one)[0]

    @pytest.mark.parametrize("n", [10, 170, 1000, 10**4])
    def test_holds_across_scales(self, n):
        assert robbins_holds([n])[0]

    def test_no_false_violations_from_a_million(self):
        # n log n - n - lgamma(n + 1) cancels about n log n ulps: summed that
        # way, 51 of the 2,000 n from 10^6 and 1,477 of those from 10^7 failed
        gen = np.random.default_rng(106)
        n = np.array([10**6, 10**7, *gen.integers(10**6, 10**7, size=2000, endpoint=True).tolist()], float)
        assert robbins_holds(n).all()
        assert _holds(_mode_pmf(n), _sup_over_t_bound(n)).all()

    @pytest.mark.parametrize(
        "n", [1, 2, 170, 10**4, _STIRLING_FROM - 1, _STIRLING_FROM, 10**6, 10**7, 10**12]
    )
    def test_mode_pmf_matches_40_digits(self, n):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            exact = float(mp.exp(n * mp.log(n) - n - mp.loggamma(n + 1)))
        # the log-space sum errs by about n log n ulps; the series by a few
        ulps = 4.0 if n >= _STIRLING_FROM else 4.0 * n * (math.log(n) + 1.0)
        assert _mode_pmf(np.array([float(n)]))[0] == pytest.approx(exact, rel=ulps * sys.float_info.epsilon)


def interval_pmf(intervals, a: int) -> float:
    """P[sum_i (N(k_i) - N(j_i)) = a] by the core the suite checks interval sums with."""
    return _combo_pmf(*interval_coefficients([k for _, k in intervals], [j for j, _ in intervals]), a)


class TestComboBound:
    def test_single_poisson_at_mode(self):
        assert _combo_pmf([5.0], [1], 5) == pytest.approx(poisson_pmf(5.0, 5), rel=1e-12)
        assert _mode_bound(np.array([5.0]))[0] == pytest.approx(1 / math.sqrt(2 * math.pi * 5), rel=1e-14)

    def test_zero_target_forces_zeros(self):
        exact = _combo_pmf([1.0, 1.0], [2, 1], 0)
        assert exact == pytest.approx(math.exp(-2.0), rel=1e-12)
        # floor(max mean) = 1, so the mode bound is 1/sqrt(2 pi), not 1
        bound = _mode_bound(np.array([1.0]))
        assert bound[0] == pytest.approx(1 / math.sqrt(2 * math.pi), rel=1e-14)
        assert _holds(exact, bound)[0]

    def test_sub_unit_means_bound_is_one(self):
        # floor(0.9) = 0: the bound at mode 0 is 1, which every probability meets
        bound = _mode_bound(np.array([math.floor(0.9)]))
        assert bound[0] == 1.0
        assert _holds(_combo_pmf([0.4, 0.9], [1, 3], 1), bound)[0]

    def test_poisson_additivity(self):
        assert _combo_pmf([3.0, 4.0], [1, 1], 7) == pytest.approx(poisson_pmf(7.0, 7), rel=1e-12)
        assert _mode_bound(np.array([4.0]))[0] == pytest.approx(1 / math.sqrt(2 * math.pi * 4), rel=1e-14)

    def test_unreachable_target(self):
        # 3 N takes no value in 7..8
        assert _combo_pmf([1.0], [3], 7) == 0.0
        assert _combo_pmf([1.0, 2.0], [3, 3], 8) == 0.0

    def test_mass_sums_to_one(self):
        means, coeffs = [1.5, 0.7], [2, 1]
        # beyond a = 60 the remaining mass is far below 1e-9
        total = sum(_combo_pmf(means, coeffs, a) for a in range(61))
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_mode_bound_array(self):
        # one call per grid: 1 at mode 0, 1/sqrt(2 pi k) from mode 1 on, which is below 1
        k = np.array([0.0, 1.0, 2.0, 0.0, 40.0])
        expected = [1.0 if v == 0 else 1 / math.sqrt(2 * math.pi * v) for v in k.tolist()]
        assert _mode_bound(k).tolist() == pytest.approx(expected, rel=1e-15)
        assert (_mode_bound(k[1:3]) < 1.0).all()


class TestIntervalSum:
    def test_single_interval(self):
        assert interval_pmf([(0.0, 4.0)], 4) == pytest.approx(poisson_pmf(4.0, 4), rel=1e-12)

    def test_nested_intervals_zero_sum(self):
        # the sum is zero iff every increment over the union [0, 10] vanishes
        assert interval_pmf([(0.0, 10.0), (2.0, 3.0)], 0) == pytest.approx(math.exp(-10.0), rel=1e-10)

    def test_disjoint_additivity(self):
        assert interval_pmf([(0.0, 1.0), (2.0, 3.0)], 1) == pytest.approx(2 * math.exp(-2.0), rel=1e-12)

    @pytest.mark.parametrize(
        "intervals, length",
        [
            ([(0.0, 10.0), (2.0, 3.0)], 10.0),  # nested
            ([(2.0, 3.0), (0.0, 10.0)], 10.0),  # nested, the inner one given first
            ([(3.0, 6.5), (1.0, 4.0)], 5.5),  # overlapping
            ([(1.0, 2.0), (2.0, 5.0)], 4.0),  # touching
            ([(7.0, 7.25), (0.5, 1.0), (3.0, 4.5)], 2.25),  # disjoint
            ([(0.0, 2.0), (1.0, 3.0), (1.5, 2.5), (5.0, 6.0), (6.0, 6.5)], 4.5),  # all four
        ],
    )
    def test_union_length(self, intervals, length):
        assert _union_length(intervals) == length
        assert interval_pmf(intervals, 0) == pytest.approx(math.exp(-length), rel=1e-12)

    def test_union_length_matches_elementary_intervals(self):
        # the pieces with a nonzero coefficient are exactly the union's pieces
        gen = SeedSpec(98).generator(0)
        for _ in range(200):
            intervals = []
            for _ in range(int(gen.integers(1, 6))):
                j = float(gen.uniform(0, 8))
                intervals.append((j, j + float(gen.uniform(0.1, 6))))
            lengths, _ = interval_coefficients([k for _, k in intervals], [j for j, _ in intervals])
            assert _union_length(intervals) == pytest.approx(math.fsum(lengths), rel=1e-13)

    def test_agrees_with_coincidence_engine(self):
        gen = SeedSpec(99).generator(0)
        for _ in range(100):
            n = int(gen.integers(1, 4))
            intervals = []
            for _ in range(n):
                j = float(gen.uniform(0, 8))
                intervals.append((j, j + float(gen.uniform(0.1, 6))))
            other = coincidence_probability_poisson([k for _, k in intervals], [j for j, _ in intervals], 1e-9)
            assert interval_pmf(intervals, 0) == pytest.approx(other, abs=1e-8)


class TestSqrtLogTransfer:
    def test_window_inside(self):
        x = math.exp(60)
        y = x + math.sqrt(x * math.log(x))
        ia, ib = transfer(x, y, 1.0)
        assert ia and ib

    def test_vacuous_below_threshold(self):
        ia, ib = transfer(10.0, 1e6, 2.0)
        assert ia  # antecedent of (a) fails: x is tiny
        # (b): y < e^50, antecedent also fails
        assert ib

    def test_falsified_outside_the_domain(self):
        # at C = 1e14 the window C sqrt(x log x) of x = e^60 reaches y = 1,
        # where 2C sqrt(y log y) is 0; with x and y swapped (b) fails instead
        x = math.exp(60.0)
        assert transfer(x, 1.0, 1e14) == (False, True)
        assert transfer(1.0, x, 1e14) == (True, False)

    def test_grid_never_falsified(self):
        gen = SeedSpec(123).generator(0)
        x = np.exp(gen.uniform(50, 80, 2000))
        y = np.exp(gen.uniform(50, 80, 2000))
        c = gen.uniform(1, 10, 2000)
        impl_a, impl_b = _transfer_holds(x, y, c)
        assert impl_a.all() and impl_b.all()


class TestTransferTriples:
    """The suite's array-drawn (x, y, C) triples follow their stated distribution."""

    @pytest.mark.parametrize("seed", [20240, 501])
    def test_distribution(self, seed):
        trials = 10_000
        x, y, c = _transfer_triples(SeedSpec(seed).generator(0), trials)
        assert ((math.exp(50.0) <= x) & (x <= math.exp(80.0))).all()
        assert ((1.0 <= c) & (c <= 10.0)).all()
        assert (y >= 1.0).all()
        replay = SeedSpec(seed).generator(0)
        replay.random(2 * trials)  # the x and C draws
        far = replay.integers(0, 3, trials) == 0
        assert abs(far.mean() - 1 / 3) < 0.02  # 4 standard errors
        assert ((math.exp(50.0) <= y[far]) & (y[far] <= math.exp(80.0))).all()
        # a near y sits within 3C sqrt(x log x) of x, up to the rounding of x + offset
        gap, window = np.abs(y - x)[~far], (3.0 * c * np.sqrt(x * np.log(x)) + 2.0 * np.spacing(x))[~far]
        assert (gap <= window).all()
        assert abs(np.mean(y[~far] > x[~far]) - 0.5) < 0.025  # either side equally likely

    @pytest.mark.parametrize("seed", [20240, 501, 777, 7])
    def test_quick_suite_ok(self, seed):
        reports = verification_suite(quick=True, seed=SeedSpec(seed))
        assert [r.name for r in reports if not r.ok] == []


class TestVerificationSuite:
    def test_quick_suite_clean(self):
        reports = verification_suite(quick=True)
        names = {r.name for r in reports}
        assert {
            "poisson_concentration",
            "pmf_sup_over_t",
            "robbins",
            "pmf_sup_over_a",
            "sqrt_log_transfer",
            "combo_pmf_bound",
            "interval_sum_bound",
            "shell_oracle",
            "divisor_oracle",
        } <= names
        assert [r.name for r in reports][-2:] == ["shell_oracle", "divisor_oracle"]
        assert all(r.ok for r in reports)

    def test_quick_suite_checked_counts(self):
        counts = {r.name: r.checked for r in verification_suite(quick=True)}
        assert counts == {
            "poisson_concentration": 1697,
            "pmf_sup_over_t": 500,
            "robbins": 500,
            "pmf_sup_over_a": 100,
            "sqrt_log_transfer": 1000,
            "combo_pmf_bound": 30,
            "interval_sum_bound": 30,
            "shell_oracle": 680,
            "divisor_oracle": 2000,
        }

    def test_full_suite_pinned(self):
        reports = verification_suite()
        assert [(r.name, r.ok, r.checked, r.detail) for r in reports] == [
            ("poisson_concentration", True, 18829, "ok"),
            ("pmf_sup_over_t", True, 10000, "ok"),
            ("robbins", True, 10000, "ok"),
            ("pmf_sup_over_a", True, 1000, "ok"),
            ("sqrt_log_transfer", True, 10000, "ok"),
            ("combo_pmf_bound", True, 100, "ok"),
            ("interval_sum_bound", True, 100, "ok"),
            ("shell_oracle", True, 1360, "ok"),
            ("divisor_oracle", True, 20000, "ok"),
        ]


# Grid sizes and first failure texts of the suite at its default seed 20240,
# in the format of the per-point loops the grids replaced.
FULL_GRID = np.arange(1.0, 10_001.0)
FIRST_FAILURES = {
    "poisson_concentration": "concentration m=1 lam=0.1",
    "pmf_sup_over_t": "pmf_sup_over_t a=1",
    "robbins": "robbins n=1",
    "pmf_sup_over_a": "pmf_sup_over_a t=0.1",
}
# The combination and interval trials draw each quantity over (trials, 3), so
# their first trial depends on the trial count.
FIRST_TRIALS = {
    False: {
        "combo_pmf_bound": "combo means=[1.2251215474069426, 4.624596666515395] coeffs=[2, 2] a=8",
        "interval_sum_bound": (
            "interval_sum intervals=[(2.726042276468019, 3.975996624873126), "
            "(0.25910700297259504, 2.4060533081847346)] a=2"
        ),
    },
    True: {
        "combo_pmf_bound": "combo means=[3.7907552963024, 4.67320725396618] coeffs=[1, 3] a=0",
        "interval_sum_bound": (
            "interval_sum intervals=[(6.522764711271921, 15.103632574201395), "
            "(5.937912363756205, 6.535864525569822)] a=7"
        ),
    },
}


def inline_lgamma_pmf(mean, a: np.ndarray) -> np.ndarray:
    """poisson_pmf's array path with math.lgamma called once per entry."""
    logfact = np.array([math.lgamma(x + 1.0) for x in a.ravel().tolist()]).reshape(a.shape)
    if not isinstance(mean, np.ndarray):
        return np.exp(-mean + a * math.log(mean) - logfact)
    return np.exp(-mean + a * np.log(mean) - logfact)


class TestGridsMatchScalarChecks:
    def test_mode_scan_rows_match_single_scans(self):
        # one row shifted off the mode makes the whole pass raise
        ts = np.arange(1, 1001) / 10.0
        ks = np.floor(ts)
        _check_mode(ts, ks)
        for i, shift in [(0, 1), (46, -1), (46, 2), (999, -3), (999, 3)]:
            shifted = ks.copy()
            shifted[i] += shift
            with pytest.raises(RuntimeError, match="larger value"):
                _check_mode(ts, shifted)
            with pytest.raises(RuntimeError, match="larger value"):
                _check_mode(float(ts[i]), float(shifted[i]))


class TestGridsMatchLoopFormulas:
    """The grids against the per-point math-module formulas they replaced.

    numpy's exp and log may differ from the math module's in the last bit, so
    each comparison allows a few ulps of every log-space term summed.
    """

    EPS = sys.float_info.epsilon

    def test_mode_pmf_and_robbins_bounds(self):
        ratio = _mode_pmf(FULL_GRID)
        lower, upper = _robbins_bounds(FULL_GRID)
        for n in range(1, 10_001):
            log_ratio = n * math.log(n) - n - math.lgamma(n + 1)
            terms = n * math.log(n) + n + math.lgamma(n + 1)
            assert ratio[n - 1] == pytest.approx(math.exp(log_ratio), rel=8 * self.EPS * terms)
            base = -0.5 * math.log(2.0 * math.pi * n)
            assert lower[n - 1] == pytest.approx(math.exp(base - 1.0 / (12.0 * n)), rel=8 * self.EPS)
            assert upper[n - 1] == pytest.approx(math.exp(base - 1.0 / (12.0 * n + 1.0)), rel=8 * self.EPS)

    def test_pmf_sup_over_a_values(self):
        ts = np.arange(1, 1001) / 10.0
        ks, values, bounds_ = _sup_over_a(ts)
        for t, k, value, bound in zip(ts.tolist(), ks.tolist(), values.tolist(), bounds_.tolist()):
            k = int(k)
            terms = t + k * abs(math.log(t)) + math.lgamma(k + 1)
            assert value == pytest.approx(poisson_pmf(t, k), rel=8 * self.EPS * (1.0 + terms))
            assert bound == (1.0 if k == 0 else min(1.0, 1.0 / math.sqrt(2.0 * math.pi * k)))

    def test_table_pmf_equals_inline_lgamma(self, monkeypatch):
        monkeypatch.setattr(processes, "_log_factorial_table", np.zeros(0))  # filled and grown here
        for m in range(1, 201):  # the concentration grid's pmf vectors
            a = np.arange(2 * m + 65)
            assert poisson_pmf(float(m), a).tobytes() == inline_lgamma_pmf(float(m), a).tobytes()
        mode = inline_lgamma_pmf(FULL_GRID, FULL_GRID)  # the mode grid, P[N(n) = n]
        assert poisson_pmf(FULL_GRID, FULL_GRID).tobytes() == mode.tobytes()
        assert _mode_pmf(FULL_GRID).tobytes() == mode.tobytes()
        ts = np.arange(1, 1001) / 10.0  # the pmf_sup_over_a grid
        assert _sup_over_a(ts)[1].tobytes() == inline_lgamma_pmf(ts, np.floor(ts)).tobytes()

    @pytest.mark.parametrize("m", [1, 37, 200])
    def test_concentration_bound(self, m):
        lams = suite_lams(m)
        _, bounds_ = _concentration_tails(m, np.array(lams))
        for lam, bound in zip(lams, bounds_.tolist()):
            assert bound == pytest.approx(2.0 * math.exp(-lam * lam / 4.0), rel=4 * self.EPS)


class TestInjectedFailures:
    """A failing point is reported as the loops over the grids reported it."""

    def test_every_holds_grid_reports_its_first_point(self, monkeypatch):
        monkeypatch.setattr(bounds, "_holds", lambda exact, bound: np.zeros(np.shape(exact), bool))
        for quick in (False, True):
            details = {r.name: r.detail for r in verification_suite(quick=quick) if not r.ok}
            assert details == {**FIRST_FAILURES, **FIRST_TRIALS[quick]}

    def test_failures_past_the_first_point(self, monkeypatch):
        tails, sup_t, robbins, sup_a, transfer = (
            bounds._concentration_tails,
            bounds._sup_over_t_bound,
            bounds._robbins_bounds,
            bounds._sup_over_a,
            bounds._transfer_holds,
        )

        def concentration(m, lams):
            exact, bound = tails(m, lams)
            if m == 37:
                exact[3] = 2.0
            return exact, bound

        def poke(values, index, value):
            values = values.copy()
            values[index] = value
            return values

        def robbins_(n):
            lower, upper = robbins(n)
            return lower, poke(upper, 4999, 0.0)

        def sup_a_(t):
            k, value, bound = sup_a(t)
            return k, poke(value, 424, 2.0), bound

        def transfer_(x, y, c):
            impl_a, impl_b = transfer(x, y, c)
            return impl_a, poke(impl_b, 4321, False)

        monkeypatch.setattr(bounds, "_concentration_tails", concentration)
        monkeypatch.setattr(bounds, "_sup_over_t_bound", lambda a: poke(sup_t(a), 776, 0.0))
        monkeypatch.setattr(bounds, "_robbins_bounds", robbins_)
        monkeypatch.setattr(bounds, "_sup_over_a", sup_a_)
        monkeypatch.setattr(bounds, "_transfer_holds", transfer_)
        details = [r.detail for r in verification_suite()[:5]]
        assert details == [
            "concentration m=37 lam=0.4",
            "pmf_sup_over_t a=777",
            "robbins n=5000",
            "pmf_sup_over_a t=42.5",
            "sqrt_log_transfer x=1.49961e+32 y=6.196e+29 C=8.811",
        ]

    def test_transfer_reports_the_first_triple(self, monkeypatch):
        monkeypatch.setattr(
            bounds, "_transfer_holds", lambda x, y, c: (np.ones(len(x), bool), np.zeros(len(x), bool))
        )
        # C and y come from later draws, whose positions depend on the trial count
        for quick, detail in (
            (False, "sqrt_log_transfer x=2.83155e+34 y=2.39094e+24 C=7.159"),
            (True, "sqrt_log_transfer x=2.83155e+34 y=2.83155e+34 C=8.142"),
        ):
            assert verification_suite(quick=quick)[4].detail == detail

    @pytest.mark.parametrize(
        "seed, detail",
        [
            (
                20240,
                "interval_vs_coincidence intervals=[(3.007948672004722, 8.162561921444512), "
                "(0.04917833485084899, 5.8633538919068675), (9.7212692187843, 12.202773182825803)]",
            ),
            (
                501,
                "interval_vs_coincidence intervals=[(8.620173263623336, 17.371627897635403), "
                "(5.393277565364068, 11.636660910596238)]",
            ),
        ],
    )
    def test_interval_cross_check(self, monkeypatch, seed, detail):
        monkeypatch.setattr(bounds, "_union_length", lambda intervals: 0.0)
        report = verification_suite(seed=SeedSpec(seed))[6]
        assert (report.ok, report.detail) == (False, detail)

    def test_divisor_oracle(self, monkeypatch):
        calls = []
        real = bounds.divisor_summatories

        def divisor(n):
            calls.append(n.copy())
            sums = real(n)
            sums[n == 1234] += 1
            return sums

        monkeypatch.setattr(bounds, "divisor_summatories", divisor)
        report = verification_suite(quick=True)[8]
        assert (report.ok, report.checked, report.detail) == (False, 2000, "divisor x=1234")
        assert len(calls) == 1  # one kernel call over every x
        assert np.array_equal(calls[0], np.arange(1, 2001))


    def test_shell_oracle(self, monkeypatch):
        calls = []
        real = shell.shell_counts

        def counts(d, E, D, method):
            calls.append((d, method, len(E)))
            count, work = real(d, E, D, method)
            if d == 3 and method == "fast":
                count[[i for i, q in enumerate(zip(E, D)) if q in ((50.0, 8.0), (9.0, 3.0))]] += 1
            return count, work

        monkeypatch.setattr(shell, "shell_counts", counts)
        report = verification_suite(quick=True)[7]
        # the windows run D-major, so E=9, D=3 is the first of the two
        assert (report.ok, report.checked, report.detail) == (False, 680, "shell d=3 E=9 D=3")
        assert calls == [(d, m, 340) for d in (2, 3) for m in ("brute", "fast")]  # one call per counter and d


class TestDivisorSieve:
    def test_pair_sieve_equals_plain_sieve(self):
        top = 20_000
        counts = np.zeros(top + 1, dtype=np.int64)
        for a in range(1, top + 1):
            counts[a::a] += 1
        for n in (1, 2, 3, 4, 99, 100, 101, 143, 144, 145, top):
            assert np.array_equal(divisor_sieve(n), np.cumsum(counts[: n + 1]))
