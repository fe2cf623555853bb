"""Phase optimization: even-p majorant property and optimizer invariants."""

import math

import numpy as np
import pytest

from expsumlab import FrequencySpectrum, SeedSpec, even_norm_coeff, expsum, lp_norm_quadrature, majorant
from expsumlab.lattice import greenruzsa_generate
from expsumlab.majorant import genericity_experiment, majorant_ratio, majorant_ratio_quadrature
from expsumlab.moments import TimeMap
from expsumlab.processes import Pmf

SEED = SeedSpec(404)


def pair_sum_count(freqs, n):
    """Number of 2n-tuples with equal n-sums, by listing every n-sum."""
    v = np.asarray(freqs, dtype=np.int64)
    sums = v
    for _ in range(n - 1):
        sums = np.add.outer(sums, v).ravel()
    _, counts = np.unique(sums, return_counts=True)
    return int(np.dot(counts, counts))


class TestMajorantRatio:
    def test_even_p_ratio_is_one(self):
        result = majorant_ratio([1, 2, 3], 4, restarts=4, seed=SEED)
        assert result.ratio == pytest.approx(1.0, abs=1e-6)
        assert result.best_moment <= result.base_moment * (1 + 1e-9)

    def test_random_phases_never_beat_unit(self):
        # independent check of the even-exponent majorant property
        spectrum = FrequencySpectrum.unit([1, 2, 3])
        base = even_norm_coeff(spectrum, 2)
        gen = SEED.generator(1)
        for _ in range(10_000):
            phases = gen.uniform(0, 2 * math.pi, 3)
            val = even_norm_coeff(spectrum.with_phases(phases), 2)
            assert val <= base * (1 + 1e-9)

    def test_single_frequency(self):
        for p in (2, 4, 6):
            assert majorant_ratio([9], p, seed=SEED).ratio == pytest.approx(1.0, abs=1e-12)

    def test_two_term_parseval(self):
        assert majorant_ratio([0, 1], 2, restarts=3, seed=SEED).ratio == pytest.approx(
            1.0, abs=1e-9
        )

    def test_ratio_never_below_one(self):
        gen = SEED.generator(2)
        for _ in range(20):
            freqs = sorted(int(v) for v in gen.integers(0, 50, size=5))
            for p in (2, 4):
                result = majorant_ratio(freqs, p, restarts=2, seed=SEED)
                assert result.ratio >= 1.0 - 1e-9

    def test_final_objective_reproducible(self):
        result = majorant_ratio([0, 3, 7, 11], 4, restarts=3, seed=SEED)
        spectrum = FrequencySpectrum.unit([0, 3, 7, 11])
        replay = even_norm_coeff(spectrum.with_phases(result.best_phases), 2)
        assert replay == pytest.approx(result.best_moment, abs=1e-12 * max(1, result.best_moment))

    def test_phase_gauge_invariance(self):
        spectrum = FrequencySpectrum.unit([2, 5, 6])
        gen = SEED.generator(3)
        phases = gen.uniform(0, 2 * math.pi, 3)
        a = even_norm_coeff(spectrum.with_phases(phases), 2)
        b = even_norm_coeff(spectrum.with_phases((phases + 1.234) % (2 * math.pi)), 2)
        assert b == pytest.approx(a, rel=1e-12)

    def test_restart_monotonicity(self):
        freqs = [0, 1, 4, 9, 16]
        values = [
            majorant_ratio(freqs, 4, restarts=r, seed=SEED).best_moment for r in (1, 2, 3, 4)
        ]
        for lo, hi in zip(values, values[1:]):
            assert hi >= lo

    @pytest.mark.parametrize("p", [1, 2.5, 3])
    def test_non_even_p_is_the_search(self, p):
        # one entry point: away from even p the ratio is the quadrature search's, field for field
        gen = SEED.generator(4)
        for _ in range(3):
            freqs = sorted(set(int(v) for v in gen.integers(0, 20, size=4)))
            assert majorant_ratio(freqs, p, 2, SEED) == majorant_ratio_quadrature(freqs, p, 2, SEED)

    @pytest.mark.parametrize("p", [0, -2, 0.5])
    def test_rejects_p_below_one(self, p):
        with pytest.raises(ValueError, match="^p must be at least 1$"):
            majorant_ratio([0, 1], p)

    def test_rejects_zero_restarts(self):
        # validated at even p too, where no restart runs
        for search, p in ((majorant_ratio, 4), (majorant_ratio_quadrature, 3.0)):
            with pytest.raises(ValueError, match="^restarts must be at least 1$"):
                search([1, 2], p, 0)

    def test_repeated_frequencies_ok(self):
        result = majorant_ratio([4, 4, 9], 4, restarts=2, seed=SEED)
        assert result.ratio == pytest.approx(1.0, abs=1e-6)

    def test_even_p_is_one_exact_call(self, monkeypatch):
        # a phase search here would make thousands of calls, O(d^2) work at p=2
        calls = []

        def spy(spectrum, n):
            calls.append(n)
            return even_norm_coeff(spectrum, n)

        monkeypatch.setattr(expsum, "even_norm_coeff", spy)
        monkeypatch.setattr(majorant, "even_norm_coeff", spy)
        result = majorant_ratio([j * j for j in range(1, 1001)], 2, restarts=3, seed=SEED)
        assert calls == [1]
        assert result.best_moment == result.base_moment == 1000.0
        assert result.ratio == 1.0 and result.restarts == 3


class TestRoutes:
    @pytest.mark.parametrize("p", [2, 4, 6])
    def test_routes_reach_the_same_optimum(self, p):
        # from a random start the grid ascent climbs back to the theorem's all-ones moment
        freqs = [0, 2, 3, 7, 11]
        start = SEED.generator(1).uniform(0, 2 * math.pi, len(freqs))
        spectrum = FrequencySpectrum.unit(freqs)
        n = p // 2
        theorem = majorant_ratio(freqs, p).best_moment
        phases = majorant._ascend(majorant._Grid(spectrum.freqs, p, n * 11 + 1), start.copy(), theorem)
        assert even_norm_coeff(spectrum.with_phases(phases), n) == pytest.approx(theorem, rel=1e-9)

    @pytest.mark.parametrize("p", [2, 4, 6])
    def test_search_never_beats_the_theorem(self, p):
        # random sets with a repeated and a negative frequency; two of the three starts are random
        gen = SeedSpec(2027, p).generator(0)
        for i in range(12):
            draw = [int(v) for v in gen.integers(-12, 13, size=int(gen.integers(2, 7)))]
            freqs = sorted([*draw, draw[0], -int(gen.integers(1, 13))])
            theorem = majorant_ratio(freqs, p).best_moment
            search = majorant_ratio_quadrature(freqs, p, 3, SeedSpec(2027, i))
            assert search.best_moment <= theorem * (1 + 1e-12)

    def test_rank_one_move_matches_recompute(self):
        freqs = [-3, 0, 4, 4, 9]
        phases = SEED.generator(4).uniform(0, 2 * math.pi, len(freqs))
        grid = majorant._Grid(freqs, 3.0, 41)
        grid.value(phases)
        for j, theta in ((1, 0.7), (3, 5.1), (1, 2.2)):
            grid.move(phases, j, theta)
            moved = grid.s.copy()
            assert grid.value(phases) == pytest.approx(
                lp_norm_quadrature(FrequencySpectrum.unit(freqs).with_phases(phases), 3.0, 41), rel=1e-12
            )
            np.testing.assert_allclose(moved, grid.s, rtol=0, atol=1e-12)


NON_EVEN = [1.0, 1.5, 2.5, 3.0, 5.0]

# Slices whose 33-sample best sits where Newton's first step leaves the
# bracket (g'/g'' > 2 pi/33), so the polish keeps the coarse best.
POLISH_KEEPS_START = {(2.5, 8), (3.0, 8)}


def random_slice(p, seed):
    """Coordinate slice g of the rectangle-rule objective at a seeded random phase vector."""
    gen = SeedSpec(2026, seed).generator(0)
    freqs = sorted(int(v) for v in gen.integers(-10, 11, size=int(gen.integers(3, 7))))
    phases = gen.uniform(0, 2 * math.pi, len(freqs))
    grid = majorant._Grid(freqs, p, 4 * math.ceil(p / 2) * (freqs[-1] - freqs[0]) + 7)
    grid.value(phases)
    return grid.along(phases, int(gen.integers(0, len(freqs))))


class TestNewtonPolish:
    @pytest.mark.parametrize("p", NON_EVEN)
    def test_slope_matches_central_differences(self, p):
        h = 1e-4
        for seed in range(8):
            g = random_slice(p, seed)
            for theta in SeedSpec(2026, seed).generator(1).uniform(0, 2 * math.pi, 4):
                d1, d2 = g.slope(theta)
                lo, mid, hi = g(np.array([theta - h, theta, theta + h]))
                assert d1 == pytest.approx((hi - lo) / (2 * h), rel=1e-6, abs=1e-6)
                assert d2 == pytest.approx((hi - 2 * mid + lo) / h**2, rel=1e-4, abs=1e-4)

    @pytest.mark.parametrize("p", NON_EVEN)
    def test_polish_reaches_the_bracket_maximum(self, p):
        # the best of 2^16 phases on the circle that lie within one coarse step of the start
        circle = np.linspace(0, 2 * math.pi, 1 << 16, endpoint=False)
        coarse = np.linspace(0, 2 * math.pi, majorant._COARSE, endpoint=False)
        for seed in range(16):
            g = random_slice(p, seed)
            samples = g(coarse)
            start = coarse[int(np.argmax(samples))]
            theta, value = majorant._coarse_argmax(g)
            polished = g(np.array([theta]))[0]
            assert value == polished
            assert polished >= samples.max()
            if (p, seed) in POLISH_KEEPS_START:
                assert polished == samples.max()
                continue
            near = np.abs((circle - start + math.pi) % (2 * math.pi) - math.pi) <= coarse[1]
            assert polished >= g(circle[near]).max() * (1 - 1e-12)

    def test_even_p_results_pinned(self):
        # c12's 50 sets: the theorem's values, against an independent pair-sum count
        gen = SeedSpec(111).generator(0)
        for i in range(50):
            size = int(gen.integers(2, 9))
            freqs = sorted(int(v) for v in gen.integers(0, 51, size=size))
            p = (2, 4, 6)[i % 3]
            r = majorant_ratio(freqs, p, restarts=3, seed=SeedSpec(111, i + 1))
            assert r.ratio == 1.0
            assert r.best_moment == r.base_moment == pair_sum_count(freqs, p // 2)
            assert r.best_phases == (0.0,) * size

    @pytest.mark.parametrize(
        "freqs, p, restarts, ratio",
        [
            ([0, 1, 3], 1.0, 1, 1.0007004336629663),
            ([0, 1, 3], 1.0, 4, 1.0007004336629663),
            ([0, 1, 3], 2.5, 1, 1.0051691880540645),
            ([0, 1, 3], 2.5, 4, 1.0051691880621385),
            ([0, 1, 3], 3.0, 1, 1.0059883822468842),
            ([0, 1, 3], 3.0, 4, 1.005988382247903),
            (greenruzsa_generate(7, 2), 3.0, 4, 1.0154078394566064),
        ],
    )
    def test_non_even_ratios_match_golden_section(self, freqs, p, restarts, ratio):
        # ratios that the golden-section polish gave, with the same starts
        assert majorant_ratio_quadrature(freqs, p, restarts).ratio == pytest.approx(ratio, rel=1e-9)


class TestQuadratureVariant:
    def test_matches_exact_path_for_even_p(self):
        exact = majorant_ratio([0, 2, 5], 4, restarts=2, seed=SEED)
        approx = majorant_ratio_quadrature([0, 2, 5], 4.0, restarts=2, seed=SEED)
        assert approx.base_moment == pytest.approx(exact.base_moment, rel=1e-9)
        assert approx.ratio == pytest.approx(1.0, abs=1e-5)

    def test_odd_p_runs(self):
        result = majorant_ratio_quadrature([0, 1, 3], 3.0, restarts=2, seed=SEED)
        # non-even exponents genuinely admit ratios above 1
        assert result.ratio >= 1.0 - 1e-9


class TestGenericity:
    def test_non_even_p_uses_quadrature_search(self, monkeypatch):
        seen = []
        search = majorant.majorant_ratio_quadrature

        def spy(freqs, p, *args):
            seen.append(p)
            return search(freqs, p, *args)

        monkeypatch.setattr(majorant, "majorant_ratio_quadrature", spy)
        points = genericity_experiment(
            "poisson", TimeMap("identity"), [4, 8], 3, 0.2, samples=3, restarts=1, seed=SEED
        )
        assert [pt.size for pt in points] == [4, 8]
        assert seen == [3] * 6
        assert all(0.0 <= pt.probability <= 1.0 for pt in points)

    def test_even_p_draws_no_path_and_runs_no_search(self, monkeypatch):
        built = []
        real = majorant._sampler

        def sampler(spec):
            built.append(len(spec.index_set))
            real(spec)
            return lambda i: pytest.fail("a path was drawn at even p")

        def search(*args):
            pytest.fail("a majorant search ran at even p")

        monkeypatch.setattr(majorant, "_sampler", sampler)
        monkeypatch.setattr(majorant, "majorant_ratio", search)
        monkeypatch.setattr(majorant, "majorant_ratio_quadrature", search)
        points = genericity_experiment(
            "poisson", TimeMap("identity"), [1, 4, 8], 4, 0.2, samples=5, restarts=1, seed=SEED
        )
        # every even-p ratio is 1, so only size 1 (threshold 1^eps = 1) hits
        assert [(pt.size, pt.probability, pt.std_error, pt.samples) for pt in points] == [
            (1, 1.0, 0.0, 5),
            (4, 0.0, 0.0, 5),
            (8, 0.0, 0.0, 5),
        ]
        assert built == [1, 4, 8]

    @pytest.mark.parametrize("p", [2, 4, 3])
    @pytest.mark.parametrize(
        "process, time_map, sizes, samples, restarts, match",
        [
            ("bogus", TimeMap("identity"), [4], 2, 1, "process must be"),
            ("iid", TimeMap("identity"), [4], 2, 1, "iid process needs a pmf"),
            ("walk", TimeMap("arith", r=0.5), [3], 2, 1, "integer times"),
            ("poisson", TimeMap("identity"), [4], 0, 1, "samples must be positive"),
            ("poisson", TimeMap("identity"), [4, 0], 2, 1, "index set must be nonempty"),
            ("poisson", TimeMap("identity"), [4], 2, 0, "restarts must be at least 1"),
        ],
    )
    def test_bad_input_raises_at_every_p(self, p, process, time_map, sizes, samples, restarts, match):
        with pytest.raises(ValueError, match=match):
            genericity_experiment(
                process, time_map, sizes, p, 0.2, samples=samples, restarts=restarts, seed=SEED
            )

    def test_colliding_streams_rejected(self):
        # sample streams are (stream_index << 16) ^ size; optimizer streams add bit 40
        args = ("poisson", TimeMap("identity"))
        with pytest.raises(ValueError, match="2\\^16"):
            genericity_experiment(*args, [4, 1 << 16], 4, 0.2, samples=1, restarts=1, seed=SEED)
        with pytest.raises(ValueError, match="2\\^24"):
            genericity_experiment(*args, [4], 4, 0.2, samples=1, restarts=1, seed=SeedSpec(404, 1 << 24))
        (point,) = genericity_experiment(
            *args, [4], 2, 0.2, samples=1, restarts=1, seed=SeedSpec(404, (1 << 24) - 1)
        )
        assert point.size == 4

    def test_p2_probability_zero(self):
        points = genericity_experiment(
            "poisson", TimeMap("identity"), [4, 8], 2, 0.3, samples=8, restarts=1, seed=SEED
        )
        assert all(pt.probability == 0.0 for pt in points)

    def test_point_mass_degenerate(self):
        points = genericity_experiment(
            "iid",
            TimeMap("identity"),
            [4, 8],
            4,
            0.2,
            samples=6,
            restarts=1,
            seed=SEED,
            pmf=Pmf.point(3),
        )
        assert all(pt.probability == 0.0 for pt in points)

    def test_threshold_and_se_fields(self):
        points = genericity_experiment(
            "poisson", TimeMap("identity"), [8], 4, 0.2, samples=5, restarts=1, seed=SEED
        )
        pt = points[0]
        assert pt.threshold == pytest.approx(8**0.2)
        assert pt.samples == 5
        assert pt.std_error == pytest.approx(
            math.sqrt(pt.probability * (1 - pt.probability) / 5)
        )
