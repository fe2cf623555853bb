"""Samplers: exact distributions, determinism, and statistical contracts."""

import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from expsumlab import (
    Pmf,
    SeedSpec,
    TimeGrid,
    poisson_pmf,
    sample_poisson_path,
    sample_random_walk,
)
from expsumlab import GuardError, processes
from expsumlab.processes import _LOG_FACTORIAL_LIMIT, iid_draws, poisson_draws, walk_draws

SEED = SeedSpec(1234, 7)


def point(value):
    """The point mass at ``value``."""
    return Pmf(((value, 1.0),))


def uniform(values):
    """The uniform pmf on the increasing ``values``."""
    return Pmf(tuple((v, 1.0 / len(values)) for v in values))


def draw_iid(pmf, count, seed, sample_index=0):
    """``count`` i.i.d. values of ``pmf`` from sample ``sample_index``'s own generator.

    The draws of `moment --process iid`, which resets one generator per sample.
    """
    return iid_draws(seed.generator(sample_index), np.cumsum(pmf.probs), np.asarray(pmf.values), count).tolist()


class TestPoissonPmf:
    def test_unit_mean_at_zero(self):
        assert poisson_pmf(1.0, 0) == pytest.approx(math.exp(-1.0), rel=1e-15)

    def test_zero_mean_point_mass(self):
        assert poisson_pmf(0.0, 0) == 1.0
        assert poisson_pmf(0.0, 3) == 0.0

    def test_log_space_matches_naive_product(self):
        naive = math.exp(-4.7) * 4.7**4 / math.factorial(4)
        assert poisson_pmf(4.7, 4) == pytest.approx(naive, rel=1e-13)

    def test_huge_mean_no_overflow(self):
        v = poisson_pmf(1e12, 10**12)
        assert 0.0 < v < 1.0

    def test_underflow_saturates(self):
        assert poisson_pmf(1e6, 0) == 0.0

    def test_array_argument(self):
        a = np.arange(6)
        expected = [math.exp(-4.7) * 4.7**k / math.factorial(k) for k in range(6)]
        np.testing.assert_allclose(poisson_pmf(4.7, a), expected, rtol=1e-13)
        assert poisson_pmf(0.0, a).tolist() == [1.0, 0.0, 0.0, 0.0, 0.0, 0.0]

    def test_mean_array_broadcasts(self):
        means = np.array([0.0, 0.5, 4.7, 30.0])
        a = np.arange(6)[:, None]
        got = poisson_pmf(means, a)
        assert got.shape == (6, 4)
        for i in range(6):
            for j, mean in enumerate(means.tolist()):
                assert got[i, j] == pytest.approx(poisson_pmf(mean, i), rel=1e-13, abs=1e-300)
        assert got[:, 0].tolist() == [1.0, 0.0, 0.0, 0.0, 0.0, 0.0]
        with pytest.raises(ValueError):
            poisson_pmf(np.array([1.0, -0.5]), 2)

    @given(st.floats(0.0, 1e4), st.integers(-3, 20_000))
    @settings(max_examples=100, deadline=None)
    def test_scalar_is_the_one_entry_array_call(self, mean, a):
        got = poisson_pmf(mean, a)
        assert type(got) is float
        if a < 0:
            assert got == 0.0
        else:
            assert got.hex() == poisson_pmf(mean, np.array([a]))[0].hex()

    def test_scalar_rejects_negative_mean(self):
        for a in (-1, 0, 3):
            with pytest.raises(ValueError):
                poisson_pmf(-0.5, a)

    @given(st.floats(0.01, 50), st.integers(0, 120))
    @settings(max_examples=50, deadline=None)
    def test_in_unit_interval(self, mean, a):
        assert 0.0 <= poisson_pmf(mean, a) <= 1.0


class TestLogFactorialTable:
    """The array path reads lgamma(a + 1) from one table of math.lgamma values."""

    def test_grows_to_the_largest_a_asked_for(self, monkeypatch):
        monkeypatch.setattr(processes, "_log_factorial_table", np.zeros(0))
        poisson_pmf(3.0, np.array([[4, 9], [0, 2]]))
        assert len(processes._log_factorial_table) == 10
        poisson_pmf(np.array([1.0, 2.0]), np.array([3.0, 7.0]))  # integer-valued floats
        assert len(processes._log_factorial_table) == 10
        poisson_pmf(3.0, np.arange(41))
        table = processes._log_factorial_table
        assert [v.hex() for v in table.tolist()] == [math.lgamma(k + 1.0).hex() for k in range(41)]

    def test_past_the_limit_is_computed_without_the_table(self, monkeypatch):
        monkeypatch.setattr(processes, "_log_factorial_table", np.zeros(0))
        a = np.array([5, _LOG_FACTORIAL_LIMIT, 10**9])
        got = poisson_pmf(np.array([5.0, 7e4, 1e9]), a)
        assert len(processes._log_factorial_table) == 0
        for mean, k, value in zip([5.0, 7e4, 1e9], a.tolist(), got.tolist()):
            assert value == math.exp(-mean + k * math.log(mean) - math.lgamma(k + 1.0))

    @pytest.mark.parametrize("a", [[2.5], [1.0, math.nan], [math.inf], [-1], [3.0, -2.0]])
    def test_rejects_non_integer_or_negative_a(self, a):
        with pytest.raises(ValueError):
            poisson_pmf(2.0, np.array(a))

    def test_empty_and_zero_mean(self):
        assert poisson_pmf(2.0, np.zeros(0, dtype=np.int64)).shape == (0,)
        assert poisson_pmf(0.0, np.array([0, 1])).tolist() == [1.0, 0.0]

    def test_nothing_is_computed_at_import(self):
        code = "import expsumlab, expsumlab.processes as p; print(len(p._log_factorial_table))"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "0"


class TestPmfType:
    def test_requires_canonical_order(self):
        with pytest.raises(ValueError):
            Pmf(((2, 0.5), (1, 0.5)))

    def test_requires_unit_mass(self):
        with pytest.raises(ValueError):
            Pmf(((0, 0.5), (1, 0.6)))

    def test_uniform_helper(self):
        pmf = uniform([0, 1])
        assert pmf.values == (0, 1)
        assert pmf.probs == (0.5, 0.5)


class TestSampleIid:
    def test_point_mass(self):
        assert draw_iid(point(7), 5, SEED) == [7, 7, 7, 7, 7]

    def test_empty(self):
        assert draw_iid(uniform([0, 1]), 0, SEED) == []

    def test_mean_within_five_se(self):
        n = 100_000
        values = draw_iid(uniform([0, 1]), n, SEED)
        mean = sum(values) / n
        se = 0.5 / math.sqrt(n)
        assert abs(mean - 0.5) <= 5 * se

    def test_marginals_within_five_se(self):
        pmf = Pmf(((0, 0.2), (1, 0.3), (5, 0.5)))
        n = 100_000
        values = draw_iid(pmf, n, SEED, sample_index=3)
        counts = {v: 0 for v in pmf.values}
        for v in values:
            counts[v] += 1
        for v, p in pmf.entries:
            se = math.sqrt(p * (1 - p) / n)
            assert abs(counts[v] / n - p) <= 5 * se

    def test_deterministic(self):
        a = draw_iid(uniform([0, 1]), 50, SEED, sample_index=9)
        b = draw_iid(uniform([0, 1]), 50, SEED, sample_index=9)
        c = draw_iid(uniform([0, 1]), 50, SEED, sample_index=10)
        assert a == b
        assert a != c


class TestPoissonPath:
    def test_zero_time_is_zero(self):
        path = sample_poisson_path(TimeGrid((0.0,)), SEED)
        assert path.values == (0,)

    def test_mean_at_ten(self):
        # sample_poisson_path's draws, through one generator reset per sample
        n = 100_000
        draw, gaps = SEED.reset_generator(), np.array([10.0])
        values = np.array([poisson_draws(draw(i), gaps)[0] for i in range(n)])
        first = [sample_poisson_path(TimeGrid((10.0,)), SEED, i).values[0] for i in range(5)]
        assert values[:5].tolist() == first
        se = math.sqrt(10.0 / n)
        assert abs(int(values.sum()) / n - 10.0) <= 5 * se

    def test_paths_nondecreasing(self):
        grid = TimeGrid((0.0, 0.5, 1.0, 2.0, 7.0))
        for i in range(200):
            vals = sample_poisson_path(grid, SEED, i).values
            assert vals[0] == 0
            assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_increment_chi_square_gof(self):
        # pooled increments over disjoint intervals vs Poisson(dt),
        # significance 1e-4
        grid = TimeGrid((1.0, 3.0))
        n = 10_000
        first = np.empty(n, dtype=np.int64)
        second = np.empty(n, dtype=np.int64)
        for i in range(n):
            v = sample_poisson_path(grid, SeedSpec(555), i).values
            first[i] = v[0]
            second[i] = v[1] - v[0]
        for sample, lam in ((first, 1.0), (second, 2.0)):
            top = int(lam + 12 * math.sqrt(lam)) + 2
            observed = np.bincount(sample, minlength=top + 1)[: top + 1].astype(float)
            expected = np.array([n * poisson_pmf(lam, a) for a in range(top + 1)])
            expected[-1] = n - expected[:-1].sum()  # fold the tail into the last bin
            keep = expected >= 5.0
            stat = float(np.sum((observed[keep] - expected[keep]) ** 2 / expected[keep]))
            dof = int(keep.sum()) - 1
            assert stat < stats.chi2.ppf(1 - 1e-4, dof)

    def test_deterministic(self):
        grid = TimeGrid((1.0, 4.0, 9.0))
        a = sample_poisson_path(grid, SEED, 2).values
        b = sample_poisson_path(grid, SEED, 2).values
        assert a == b


class TestRandomWalk:
    def test_starts_at_zero_with_unit_steps(self):
        for i in range(50):
            vals = sample_random_walk(30, SEED, i).values
            assert vals[0] == 0
            assert all(abs(b - a) == 1 for a, b in zip(vals, vals[1:]))

    def test_squared_value_mean(self):
        # sample_random_walk's draws, through one generator reset per sample
        n = 100_000
        draw = SeedSpec(77).reset_generator()
        finals = np.array([walk_draws(draw(i), 100)[100] for i in range(n)])
        first = [sample_random_walk(100, SeedSpec(77), i).values[100] for i in range(5)]
        assert finals[:5].tolist() == first
        sq = finals.astype(np.float64) ** 2
        se = float(np.std(sq, ddof=1)) / math.sqrt(n)
        assert abs(float(np.mean(sq)) - 100.0) <= 5 * se

    def test_rejects_zero_length(self):
        with pytest.raises(ValueError):
            sample_random_walk(0, SEED)

    def test_length_guard_before_any_draw(self):
        # 10^12 steps would need 16 TB; the guard refuses before numpy allocates
        message = "10\\^8 steps \\(about 1.6 GB at 16 bytes a step\\)"
        with pytest.raises(GuardError, match=message):
            walk_draws(SEED.generator(0), 10**12)
        with pytest.raises(GuardError, match=message):
            sample_random_walk(10**12, SEED)

    @pytest.mark.parametrize("seed", [SEED, SeedSpec(0), SeedSpec(501, 3), SeedSpec(2**64 - 1)])
    @pytest.mark.parametrize("n_max", [1, 2, 257, 100_003])
    def test_positions_match_concatenated_steps(self, seed, n_max):
        # the walk is summed in place; the steps * 2 - 1 / concatenate form
        # it replaced is the reference, bit for bit
        for index in (0, 5):
            draws = seed.generator(index).integers(0, 2, size=n_max, dtype=np.int64)
            reference = np.concatenate(([0], np.cumsum(draws * 2 - 1)))
            got = walk_draws(seed.generator(index), n_max)
            assert got.dtype == np.int64
            assert np.array_equal(got, reference)
            assert sample_random_walk(n_max, seed, index).values == tuple(reference.tolist())


class TestSeedSpec:
    def test_distinct_streams_differ(self):
        a = SeedSpec(1, 0).generator(0).random(8)
        b = SeedSpec(1, 1).generator(0).random(8)
        c = SeedSpec(2, 0).generator(0).random(8)
        assert not np.allclose(a, b)
        assert not np.allclose(a, c)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            SeedSpec(-1)
        with pytest.raises(ValueError):
            SeedSpec(1 << 64)

    @staticmethod
    def draws(gen):
        return (
            gen.poisson([0.5, 1.0, 30.0, 2.0]).tolist(),
            gen.integers(0, 2, size=9, dtype=np.int64).tolist(),
            gen.random(3).tolist(),
            gen.poisson(3.0, size=2).tolist(),
            gen.integers(0, 2, size=4, dtype=np.int64).tolist(),
            gen.random(2).tolist(),
        )

    @pytest.mark.parametrize("seed", [SEED, SeedSpec(0), SeedSpec(2**64 - 1, 2**64 - 1)])
    def test_reset_generator_draws_as_a_fresh_one(self, seed):
        reset = seed.reset_generator()
        buffered = []
        for i in [0, 1, 2**32, 2**64 - 1, 1, 0]:  # each call follows draws at another index
            gen = reset(i)
            assert self.draws(gen) == self.draws(seed.generator(i))
            state = gen.bit_generator.state
            buffered.append(state["has_uint32"] == 1 and state["buffer_pos"] < 4)
        assert any(buffered[:-1])  # some reset found half-words and words left over
        assert reset(0) is reset(1)

    def test_generators_share_no_state(self):
        first, second = SEED.generator(5), SEED.generator(5)
        assert first.bit_generator is not second.bit_generator
        first.random(7)
        assert self.draws(second) == self.draws(SEED.generator(5))
        one, other = SEED.reset_generator(), SEED.reset_generator()
        expected = self.draws(SEED.generator(3))
        gen = one(3)
        other(9).random(4)
        assert self.draws(gen) == expected

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            TimeGrid((1.0, 1.0))
        with pytest.raises(ValueError):
            TimeGrid((-1.0, 2.0))
