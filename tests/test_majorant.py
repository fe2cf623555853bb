"""Phase optimization: even-p majorant property and optimizer invariants."""

import hashlib
import math

import numpy as np
import pytest

from expsumlab import FrequencySpectrum, SeedSpec, even_norm_coeff, lp_norm_quadrature, majorant
from expsumlab.lattice import GreenRuzsaSpec, greenruzsa_generate
from expsumlab.majorant import genericity_experiment, majorant_ratio, majorant_ratio_quadrature
from expsumlab.moments import TimeMap
from expsumlab.processes import Pmf

SEED = SeedSpec(404)


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

    def test_rejects_odd_p(self):
        with pytest.raises(ValueError):
            majorant_ratio([1, 2], 3)

    def test_repeated_frequencies_ok(self):
        result = majorant_ratio([4, 4, 9], 4, restarts=2, seed=SEED)
        assert result.ratio == pytest.approx(1.0, abs=1e-6)


def spy_routes(monkeypatch):
    """Count coordinate slices taken on the FFT grid and from exact evaluations."""
    calls = {"grid": 0, "exact": 0}
    for name, cls in (("grid", majorant._Grid), ("exact", majorant._Exact)):
        along = cls.along

        def counted(self, phases, j, _along=along, _name=name):
            calls[_name] += 1
            return _along(self, phases, j)

        monkeypatch.setattr(cls, "along", counted)
    return calls


class TestRoutes:
    def test_huge_span_takes_exact_samples(self, monkeypatch):
        calls = spy_routes(monkeypatch)
        result = majorant_ratio([1, 10**9], 4, restarts=2, seed=SEED)
        assert result.ratio == pytest.approx(1.0, abs=1e-12)
        assert result.base_moment == 6.0
        assert calls["exact"] > 0 and calls["grid"] == 0

    def test_small_span_runs_on_grid(self, monkeypatch):
        calls = spy_routes(monkeypatch)
        freqs = [j * j for j in range(1, 11)]
        result = majorant_ratio(freqs, 4, restarts=2, seed=SEED)
        assert result.ratio == pytest.approx(1.0, abs=1e-6)
        assert calls["grid"] > 0 and calls["exact"] == 0

    @pytest.mark.parametrize("p", [2, 4, 6])
    def test_routes_reach_the_same_optimum(self, p):
        # from a random start both routes climb back to the all-ones moment
        freqs = [0, 2, 3, 7, 11]
        start = SEED.generator(1).uniform(0, 2 * math.pi, len(freqs))
        spectrum = FrequencySpectrum.unit(freqs)
        n = p // 2
        ends = []
        for route in (majorant._Grid(spectrum.freqs, p, n * 11 + 1), majorant._Exact(spectrum, n)):
            phases = majorant._ascend(route, start.copy(), p, even_norm_coeff(spectrum, n))
            ends.append(even_norm_coeff(spectrum.with_phases(phases), n))
        assert ends[0] == pytest.approx(even_norm_coeff(spectrum, n), rel=1e-9)
        assert ends[1] == pytest.approx(ends[0], rel=1e-9)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_even_argmax_is_exact(self, n):
        # a degree-n profile peaked off every grid phase
        for a in (0.123456789, 2.5, 5.999):
            def g(t, a=a):
                return sum(np.cos(m * (t - a)) / m for m in range(1, n + 1))

            assert majorant._even_argmax(g, n) == pytest.approx(a, abs=1e-12)

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
            polished = g(np.array([majorant._coarse_argmax(g)]))[0]
            assert polished >= samples.max()
            if (p, seed) in POLISH_KEEPS_START:
                assert polished == samples.max()
                continue
            near = np.abs((circle - start + math.pi) % (2 * math.pi) - math.pi) <= coarse[1]
            assert polished >= g(circle[near]).max() * (1 - 1e-12)

    def test_even_p_results_pinned(self):
        # c12's 50 sets: base, best, ratio and phases, bit for bit
        gen = SeedSpec(111).generator(0)
        digest = hashlib.sha256()
        for i in range(50):
            size = int(gen.integers(2, 9))
            freqs = sorted(int(v) for v in gen.integers(0, 51, size=size))
            r = majorant_ratio(freqs, (2, 4, 6)[i % 3], restarts=3, seed=SeedSpec(111, i + 1))
            fields = (r.base_moment.hex(), r.best_moment.hex(), r.ratio.hex(), [t.hex() for t in r.best_phases])
            digest.update(repr(fields).encode())
        assert digest.hexdigest() == "f00f8413ad376f889ace9a0d2b72f9fbd4103e6459517e4d81ee89c9e62b9927"

    @pytest.mark.parametrize(
        "freqs, p, restarts, ratio",
        [
            ([0, 1, 3], 1.0, 1, 1.0007004336629663),
            ([0, 1, 3], 1.0, 4, 1.0007004336629663),
            ([0, 1, 3], 2.5, 1, 1.0051691880540645),
            ([0, 1, 3], 2.5, 4, 1.0051691880621385),
            ([0, 1, 3], 3.0, 1, 1.0059883822468842),
            ([0, 1, 3], 3.0, 4, 1.005988382247903),
            (greenruzsa_generate(GreenRuzsaSpec(7, 2)), 3.0, 4, 1.0154078394566064),
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
