"""Lattice counting against independent brute-force oracles."""

import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expsumlab import FrequencySpectrum, GuardError, even_moment, lattice, shell
from expsumlab.lattice import (
    EULER_GAMMA,
    _DIVISOR_BLOCK,
    _isqrt,
    _quotient_sums,
    diophantine_count,
    divisor_error,
    divisor_summatories,
    divisor_summatory,
    greenruzsa_generate,
    representation_count,
    sparsity_count,
)
from expsumlab.shell import (
    ShellQuery,
    _bisect,
    _e_range,
    _fast_counts,
    _first_above,
    _last_js,
    _root_offsets,
    _strict_window,
    _sweep_counts,
    _window_arrays,
    hyperbolic_count,
    shell_count_brute,
    shell_count_fast,
    shell_counts,
    shell_sup_ratio,
)


def sieve_divisor_sums(top: int) -> np.ndarray:
    """Naive oracle: cumulative divisor counts via a sieve."""
    counts = np.zeros(top + 1, dtype=np.int64)
    for a in range(1, top + 1):
        counts[a::a] += 1
    return np.cumsum(counts)


def oracle_shell_count(d: int, E: float, D: float) -> int:
    """Literal double loop over (j, k); exact int-vs-float comparisons."""
    hits = 0
    j = 1
    while (j + 1) ** d - j**d <= E + D:  # smallest difference available at this j
        k = j + 1
        while k**d - j**d < E + D:
            if abs(k**d - j**d - E) < D:
                hits += 1
            k += 1
        j += 1
    return hits


def oracle_hyperbolic(d: int, x: int) -> int:
    """Z^2 double loop, chunked with numpy."""
    j_top = x // d + 1  # d*|j|^{d-1} <= x forces |j| <= x/d for d >= 2
    total = 0
    ks = np.arange(-(int(round((j_top**d + x) ** (1.0 / d))) + 2),
                   int(round((j_top**d + x) ** (1.0 / d))) + 3, dtype=np.int64)
    kd = np.abs(ks) ** d
    for j in range(-j_top, j_top + 1):
        diff = kd - abs(j) ** d
        total += int(np.count_nonzero((diff > 0) & (diff <= x)))
    return total


def per_e_sup(d: int, D: float, e_samples: int) -> tuple[list[float], list[int]]:
    """The sup grid built by a literal loop, and one shell_count_fast per E."""
    lo_e = math.ceil(Fraction(D))
    hi_e = math.floor(Fraction(D) * Fraction(D))
    if hi_e - lo_e + 1 <= e_samples:
        grid = [float(e) for e in range(lo_e, hi_e + 1)]
    else:
        es = {float(D), float(D) * float(D)}
        ratio = (hi_e / lo_e) ** (1.0 / max(e_samples - 1, 1))
        x = float(lo_e)
        for _ in range(e_samples):
            es.add(min(max(x, float(D)), float(D) * float(D)))
            x *= ratio
        for j in range(1, int(2 * D ** (1.0 / d)) + 2):
            k = j + 1
            while k**d - j**d <= hi_e:
                if k**d - j**d >= lo_e:
                    es.add(float(k**d - j**d))
                k += 1
        grid = sorted(es)
    return grid, [shell_count_fast(ShellQuery(d, e, D)).count for e in grid]


def per_block_divisor_sum(n: int) -> int:
    """D(n) by the hyperbola identity, one 2^16-divisor block at a time.

    The scalar loop ``divisor_summatory`` ran before the array kernel, with
    its limb split where a block's sum could reach 2^63.
    """
    s = math.isqrt(n)
    total = 0
    for lo in range(1, s + 1, 1 << 16):
        hi = min(lo + (1 << 16), s + 1)
        q = n // np.arange(lo, hi, dtype=np.int64)
        if (hi - lo) * (n // lo) < 2**63:
            total += int(q.sum())
        else:
            total += (int((q >> 31).sum()) << 31) + int((q & (2**31 - 1)).sum())
    return 2 * total - s * s


def quotient_block_divisor_sum(n: int) -> int:
    """D(n) = sum_{k <= n} floor(n/k): k <= isqrt(n) one by one, larger k
    grouped by their quotient q, which takes n//q - n//(q+1) values of k."""
    s = math.isqrt(n)
    small = int(np.sum(n // np.arange(1, s + 1, dtype=np.int64)))
    q = np.arange(1, n // (s + 1) + 1, dtype=np.int64)
    return small + int(np.sum(q * (n // q - n // (q + 1))))


class TestDivisor:
    def test_one(self):
        assert divisor_summatory(1.0) == 1

    def test_ten(self):
        assert divisor_summatory(10.0) == 27

    def test_matches_sieve(self):
        sums = sieve_divisor_sums(3000)
        for x in range(1, 3001):
            assert divisor_summatory(float(x)) == int(sums[x])

    def test_non_integer_argument(self):
        assert divisor_summatory(10.7) == divisor_summatory(10.0)

    @pytest.mark.parametrize("s", [_DIVISOR_BLOCK - 1, _DIVISOR_BLOCK, _DIVISOR_BLOCK + 1])
    def test_block_edges_match_quotient_blocks(self, s):
        # isqrt(x) on either side of the divisor block length
        for n in (s * s, s * s + s, (s + 1) ** 2 - 1):
            assert divisor_summatory(float(n)) == quotient_block_divisor_sum(n)

    def test_block_past_int64_is_exact(self):
        # a full first block sums to about 11.7 * 2^61, past int64; the
        # block-bound check must keep it off the wrapping int64 sum
        n = 2**61
        col = np.array([[n - 1], [n]], dtype=np.int64)
        q, spare = np.empty((2, 2, _DIVISOR_BLOCK), dtype=np.int64)
        high, low = _quotient_sums(col, np.arange(1, _DIVISOR_BLOCK + 1), q, spare)
        got = [(h << 31) + l for h, l in zip(high.tolist(), low.tolist())]
        assert got[1] > 2**63
        assert got == [sum(m // a for a in range(1, _DIVISOR_BLOCK + 1)) for m in (n - 1, n)]

    @staticmethod
    def one_tile(col, a):
        """`_quotient_sums` on one tile, as (sums, route): the route is read off
        what the kernel left in its scratch, float quotients, int64 quotients
        or their high limbs."""
        col = np.array(col, dtype=np.int64)[:, None]
        a = np.array(a, dtype=np.int64)
        q, spare = np.empty((2, len(col), len(a)), dtype=np.int64)
        high, low = _quotient_sums(col, a, q, spare)
        quotients = col // a
        left = {"float": q.view(np.float64), "int": q, "limbs": q << 31 | spare}
        (route,) = [name for name, got in left.items() if np.array_equal(got, quotients)]
        return [(h << 31) + l for h, l in zip(high.tolist(), low.tolist())], route

    @pytest.mark.parametrize("n,route", [(2**53 - 1, "float"), (2**53, "int"), (2**53 + 1, "int")])
    def test_float_quotients_below_2_53(self, n, route):
        # from 2^53 on, fl(n/a) may round up to the next integer
        a = list(range(2**20, 2**20 + 1000))
        assert self.one_tile([n], a) == ([sum(n // v for v in a)], route)

    def test_float_total_reaching_2_53_falls_back(self):
        # n + n // 3 is 2^53 - 2 at n = 3 * 2^51 - 1 and 2^53 at 3 * 2^51
        n = 3 * 2**51
        assert self.one_tile([n - 1], [1, 3]) == ([2**53 - 2], "float")
        assert self.one_tile([n], [1, 3]) == ([2**53], "int")
        # one row's total sends the whole tile to integer division
        assert self.one_tile([1000, n], [1, 3]) == ([1333, 2**53], "int")
        # a full first block at n = 2^52 sums to about 11.7 * 2^52
        a = range(1, _DIVISOR_BLOCK + 1)
        assert self.one_tile([2**52], a) == ([sum(2**52 // v for v in a)], "limbs")

    def test_block_is_two_to_the_sixteen(self):
        # 2^16 quotients stay in cache; x = 10^14 then sums without limbs
        assert _DIVISOR_BLOCK == 2**16
        assert _DIVISOR_BLOCK * 10**14 < 2**63

    @pytest.mark.parametrize("x", [10, 10.5, 10**6 + 0.999, 10**12, 10**12 + 1, float(10**12 + 1)])
    def test_int_and_float_arguments_are_floored_exactly(self, x):
        assert divisor_summatory(x) == quotient_block_divisor_sum(math.floor(Fraction(x)))

    def test_non_finite_argument_raises(self):
        with pytest.raises(ValueError):
            divisor_summatory(math.nan)
        with pytest.raises(OverflowError):
            divisor_summatory(math.inf)
        with pytest.raises(OverflowError):
            hyperbolic_count(3, math.inf)

    def test_guard_past_2_62(self):
        with pytest.raises(GuardError, match="2\\^62"):
            divisor_summatory(2.0**62)

    def test_error_at_one(self):
        expected = 1.0 - (2 * EULER_GAMMA - 1)
        assert divisor_error(1.0, 1) == pytest.approx(expected, rel=1e-12)

    def test_error_at_hundred(self):
        d100 = int(sieve_divisor_sums(100)[100])
        expected = d100 - 100 * math.log(100) - (2 * EULER_GAMMA - 1) * 100
        assert divisor_error(100.0, d100) == pytest.approx(expected, rel=1e-12)
        assert abs(divisor_error(100.0, d100)) <= 2 * math.sqrt(100)


class TestDivisorKernel:
    """divisor_summatories against the sieve and the per-block scalar loop."""

    def test_matches_sieve_in_one_call(self):
        top = 30_000
        got = divisor_summatories(np.arange(1, top + 1, dtype=np.int64))
        assert got.dtype == np.int64
        assert np.array_equal(got, sieve_divisor_sums(top)[1:])

    @pytest.mark.parametrize("s", [_DIVISOR_BLOCK - 1, _DIVISOR_BLOCK, _DIVISOR_BLOCK + 1, 3 * _DIVISOR_BLOCK])
    def test_groups_either_side_of_the_tile_width(self, s):
        # below 2^16 a tile holds 2^16 // s rows of one a-block; from 2^16 on,
        # one row and several a-blocks
        n = np.array([s * s, s * s + 1, s * s + s, (s + 1) ** 2 - 1, (s + 1) ** 2], dtype=np.int64)
        assert divisor_summatories(n).tolist() == [per_block_divisor_sum(int(v)) for v in n]

    @pytest.mark.parametrize("s", [200, 1000])
    def test_group_spanning_several_tiles(self, s):
        # the 2s + 1 rows with isqrt(n) = s fill 2 tiles at s = 200, 31 at 1000
        n = np.arange(s * s - 1, (s + 1) ** 2 + 1, dtype=np.int64)
        assert divisor_summatories(n).tolist() == [per_block_divisor_sum(int(v)) for v in n]

    def test_limb_route_and_mixed_groups(self):
        # 2^16 * (n // 1) >= 2^63 from n = 2^47 on: those tiles sum in limbs
        n = np.array(
            [1, 2, 3, 99, 2**32 - 1, 2**32, 10**14, 2**47 - 1, 2**47, 2**47, 2**47 + 1], dtype=np.int64
        )
        got = divisor_summatories(n)
        assert got.tolist() == [per_block_divisor_sum(int(v)) for v in n]
        assert [divisor_summatory(int(v)) for v in n] == got.tolist()

    def test_large_sums_come_back_as_python_ints(self):
        # past n = 2^57 the sum over a may pass 2^61 and 2 * sum past 2^63,
        # so the result is an object array of exact Python ints
        n = 2**57 + 12345
        got = divisor_summatories(np.array([n], dtype=np.int64))
        assert got.dtype == object
        assert got.tolist() == [per_block_divisor_sum(n)]

    def test_random_values_up_to_1e14(self):
        gen = np.random.default_rng(17)
        n = np.sort(gen.integers(1, 10**14, size=12))
        assert divisor_summatories(n).tolist() == [per_block_divisor_sum(int(v)) for v in n]

    def test_isqrt_is_exact_below_2_62(self):
        # squares and their neighbours, where the float root rounds up to the next root
        roots = [1, 2, 3, 2**26 + 1, 2**27 - 1, 3037000499, 2**31 - 2, 2**31 - 1]
        roots += np.random.default_rng(5).integers(2**20, 2**31, size=200).tolist()
        n = sorted({v for s in roots for v in (s * s - 1, s * s, s * s + 1, (s + 1) ** 2 - 1) if v < 2**62})
        assert _isqrt(np.array(n, dtype=np.int64)).tolist() == [math.isqrt(v) for v in n]

    def test_rejects_bad_arrays(self):
        assert divisor_summatories(np.zeros(0, dtype=np.int64)).tolist() == []
        for bad in ([0, 1], [3, 2], [1.0, 2.0], [[1, 2]]):
            with pytest.raises(ValueError):
                divisor_summatories(np.array(bad))
        with pytest.raises(GuardError, match="2\\^62"):
            divisor_summatories(np.array([1, 2**62], dtype=np.int64))

    def test_refuses_a_call_past_2_31_quotients(self, monkeypatch):
        # 2^31 - 1 roots in all passes; one more is refused before any tile
        edge = [(2**31 - 1) ** 2]
        for n in ([4 * 10**18] * 3, [2**61, 2**61], [1] + edge):
            start = time.perf_counter()
            with pytest.raises(GuardError, match="2\\^31"):
                divisor_summatories(np.array(n, dtype=np.int64))
            assert time.perf_counter() - start < 1.0

        class Tiled(Exception):
            pass

        def tile(*args):
            raise Tiled

        monkeypatch.setattr(lattice, "_quotient_sums", tile)
        for n in (edge, [2**62 - 1]):
            with pytest.raises(Tiled):
                divisor_summatories(np.array(n, dtype=np.int64))


class TestShellCounts:
    @pytest.mark.parametrize(
        "d,E,D,expected",
        [
            (2, 5.0, 2.0, 1),
            (3, 1.0, 1.0, 0),
            (3, 7.0, 1.0, 1),
            (3, 8.0, 1.0, 0),  # boundary difference 7 sits exactly on E - D
            (3, 7.5, 1.0, 1),
            (2, 4.0, 1.0, 0),  # difference 3 sits exactly on E - D
            (2, 4.0, 1.5, 2),
        ],
    )
    def test_known_counts(self, d, E, D, expected):
        assert shell_count_brute(ShellQuery(d, E, D)).count == expected
        assert shell_count_fast(ShellQuery(d, E, D)).count == expected

    def test_exhaustive_small(self):
        for d in (2, 3):
            for D in range(1, 9):
                for e in range(D, min(D * D, 64) + 1):
                    q = ShellQuery(d, float(e), float(D))
                    brute = shell_count_brute(q).count
                    assert brute == shell_count_fast(q).count
                    assert brute == oracle_shell_count(d, float(e), float(D))

    @given(
        st.integers(2, 5),
        st.floats(1.0, 30.0, allow_nan=False),
        st.floats(0.0, 1.0, allow_nan=False),
    )
    @settings(max_examples=80, deadline=None)
    def test_fast_equals_brute_random(self, d, D, frac):
        E = D + frac * (D * D - D)
        E = max(E, 1.0)
        q = ShellQuery(d, E, D)
        assert shell_count_brute(q).count == shell_count_fast(q).count

    def test_large_instance(self):
        q = ShellQuery(4, 1e6, 1e3)
        assert shell_count_fast(q).count == shell_count_brute(q).count

    @pytest.mark.parametrize(
        "d,E,D,brute,fast",
        [
            (3, 1000.0, 100.0, (9, 113), (9, 57)),
            (4, 123456.5, 321.25, (1, 259), (1, 126)),
            (5, 1e12, 1e4, (0, 7372), (0, 3475)),
        ],
    )
    def test_count_and_work_pinned(self, d, E, D, brute, fast):
        # `work` is printed as work_brute / work_fast in shell rows, so the
        # search steps each counter takes are part of its output
        q = ShellQuery(d, E, D)
        got_brute = shell_count_brute(q)
        got_fast = shell_count_fast(q)
        assert (got_brute.count, got_brute.work) == brute
        assert (got_fast.count, got_fast.work) == fast

    def test_fast_work_is_sublinear(self):
        q = ShellQuery(3, 1e6, 1e3)
        fast = shell_count_fast(q)
        brute = shell_count_brute(q)
        assert fast.work < brute.work

    def test_query_validation(self):
        with pytest.raises(ValueError):
            ShellQuery(1, 5.0, 1.0)
        with pytest.raises(ValueError):
            ShellQuery(2, 0.5, 1.0)


def scalar_first_above(d: int, b: int, t: int, lo: int, hi: int) -> tuple[int, int]:
    """Smallest x in [lo, hi) with f_b(x) > t, or hi, and the probes taken.

    f_0(x) = x^d and f_b(x) = (x+b)^d - x^d: the scalar binary search on
    Python ints that the array bisection replaced, kept as its oracle.
    """
    probes = 0
    while lo < hi:
        mid = (lo + hi) >> 1
        probes += 1
        if ((mid + b) ** d - mid**d if b else mid**d) > t:
            hi = mid
        else:
            lo = mid + 1
    return lo, probes


def array_first_above(d, rows):
    """(x, probes) per row (b, t, lo, hi) of one d, by one array search per kind of row.

    Rows with b >= 1 go through `_first_above`; rows with b = 0 through
    `_bisect` on the exact pivot floor(t^{1/d}), as the brute counter does.
    """
    out = [None] * len(rows)
    for zero in (True, False):
        picked = [i for i, row in enumerate(rows) if (row[0] == 0) == zero]
        if not picked:
            continue
        b, t, lo, hi = (np.array(col, dtype=np.int64) for col in zip(*(rows[i] for i in picked)))
        if zero:
            pivot = np.where(t < 0, -1, _root_offsets(d, 0, np.maximum(t, 0)))
            x, probes = _bisect(lo, hi, np.greater, pivot)
        else:
            x, probes = _first_above(d, b, t, lo, hi)
        for i, xi, pi in zip(picked, x.tolist(), probes.tolist()):
            out[i] = (xi, pi)
    return out


class TestFirstAbove:
    @staticmethod
    def f(d, b, x):
        return (x + b) ** d - (x**d if b else 0)

    @given(
        st.integers(2, 7),
        st.lists(
            st.tuples(
                st.integers(0, 6),
                st.integers(0, 80),
                st.integers(0, 80),
                st.integers(0, 170),
                st.integers(-2, 2),
            ),
            min_size=1,
            max_size=30,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_linear_scan(self, d, draws):
        # t near f(pivot): the answer falls before, inside or past [lo, hi);
        # every row of one array search matches the scalar oracle and a scan
        rows = []
        for b, lo, width, pivot, delta in draws:
            rows.append((b, self.f(d, b, pivot) + delta, lo, lo + width))
        got = array_first_above(d, rows)
        for (b, t, lo, hi), (x, probes) in zip(rows, got):
            assert (x, probes) == scalar_first_above(d, b, t, lo, hi)
            assert x == next((v for v in range(lo, hi) if self.f(d, b, v) > t), hi)
            assert (hi - lo).bit_length() - 1 <= probes <= (hi - lo).bit_length()

    @given(st.integers(2, 9), st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_oracle_near_2_63(self, d, data):
        # t up to 2^63 - 1 and midpoints whose v_b passes 2^63 or 2^64: the
        # comparisons stay exact, without int64 wrap-around
        rows = []
        for _ in range(data.draw(st.integers(1, 12))):
            b = data.draw(st.integers(1, shell._floor_root(2**63 - 1, d)))
            t = data.draw(st.integers(2**62, 2**63 - 1))
            lo = data.draw(st.integers(1, 2**20))
            rows.append((b, t, lo, lo + data.draw(st.integers(0, 2**40))))
        got = array_first_above(d, rows)
        assert got == [scalar_first_above(d, *row) for row in rows]

    @pytest.mark.parametrize("b", [0, 1, 4])
    def test_empty_and_full_ranges(self, b):
        assert array_first_above(3, [(b, 10, 7, 7)]) == [(7, 0)]
        assert array_first_above(3, [(b, -1, 5, 21)]) == [(5, 5)]  # every x is above t
        assert array_first_above(3, [(b, 10**9, 5, 21)]) == [(21, 4)]  # none is
        assert scalar_first_above(3, b, 10**9, 5, 21) == (21, 4)


class TestRootOffsets:
    @given(
        st.integers(1, 9),
        st.lists(st.tuples(st.integers(0, 2**20), st.integers(0, 2**63 - 1)), min_size=1, max_size=20),
    )
    @settings(max_examples=200, deadline=None)
    def test_exact(self, d, draws):
        # the largest m with (y+m)^d - y^d <= c, against Python ints
        draws = [(y if d * y ** (d - 1) < 2**63 else 0, c) for y, c in draws]
        y, c = (np.array(col, dtype=np.int64) for col in zip(*draws))
        got = _root_offsets(d, y, c).tolist()
        for (yi, ci), m in zip(draws, got):
            assert (yi + m) ** d - yi**d <= ci < (yi + m + 1) ** d - yi**d

    @pytest.mark.parametrize("v", [0, 1, 2**53 + 1, 2**62, 2**63 - 1, 2**63, 10**20, 3**80])
    @pytest.mark.parametrize("d", [2, 3, 5, 7])
    def test_floor_roots_past_int64(self, v, d):
        if v ** (1 / d) >= 2**52:
            with pytest.raises(ValueError, match="2\\^52"):
                shell._floor_root(v, d)
            return
        r = shell._floor_root(v, d)
        assert r**d <= v < (r + 1) ** d


def counts_of(queries, method):
    """`shell_counts` over ShellQuery objects of one d, as (count, work) lists."""
    count, work = shell_counts(queries[0].d, [q.E for q in queries], [q.D for q in queries], method)
    return count.tolist(), work.tolist()


class TestShellKernels:
    def grid(self, d, D, cap):
        return [ShellQuery(d, float(e), float(D)) for e in range(D, min(D * D, cap) + 1)]

    @pytest.mark.parametrize("block", [1, 3, 64])
    def test_row_block_does_not_matter(self, monkeypatch, block):
        # windows share blocks, and a window's rows span several of them
        queries = {d: self.grid(d, 8, 64) for d in (2, 3, 5)}
        queries[7] = [ShellQuery(7, 2.0**63 - 1024, 1024.0), ShellQuery(7, 1e6, 10.0)]
        expected = {(d, m): counts_of(q, m) for d, q in queries.items() for m in ("brute", "fast")}
        monkeypatch.setattr(shell, "_ROW_BLOCK", block)
        for (d, method), counts in expected.items():
            assert counts_of(queries[d], method) == counts

    @pytest.mark.parametrize("block", [1, 2, 3, 64])
    def test_row_blocks_skip_empty_windows(self, monkeypatch, block):
        monkeypatch.setattr(shell, "_ROW_BLOCK", block)
        rows = np.array([0, 3, 0, 0, 5, 1, 0], dtype=np.int64)
        blocks = list(shell._row_blocks(rows))
        assert all(len(w) <= block for w, _ in blocks)
        got = [(int(w), int(y)) for ws, ys in blocks for w, y in zip(ws, ys)]
        assert got == [(w, y) for w, n in enumerate(rows.tolist()) for y in range(1, n + 1)]
        assert list(shell._row_blocks(np.zeros(3, dtype=np.int64))) == []

    def test_batch_matches_one_row_faces(self):
        queries = self.grid(3, 30, 900) + [ShellQuery(3, 1e12 + 0.5, 1e4), ShellQuery(3, 7.5, 1.0)]
        for method, face in (("brute", shell_count_brute), ("fast", shell_count_fast)):
            count, work = counts_of(queries, method)
            assert list(zip(count, work)) == [
                (r.count, r.work) for r in map(face, queries)
            ]

    @pytest.mark.parametrize(
        "d,brute,fast",
        [(5, (0, 365327), (0, 143555)), (7, (2, 17622), (2, 8269))],
    )
    def test_pinned_at_the_2_63_edge(self, d, brute, fast):
        # E + D = 2^63 exactly: the window's top is 2^63 - 1
        q = ShellQuery(d, 2.0**63 - 1024, 1024.0)
        assert _strict_window(q.E, q.D)[1] == 2**63 - 1
        got_brute, got_fast = shell_count_brute(q), shell_count_fast(q)
        assert ((got_brute.count, got_brute.work), (got_fast.count, got_fast.work)) == (brute, fast)

    def test_empty_call_and_bad_queries(self):
        assert [a.tolist() for a in shell_counts(3, [], [], "brute")] == [[], []]
        with pytest.raises(ValueError, match="same length"):
            shell_counts(3, [5.0, 6.0], [1.0], "fast")
        # every query is checked by the same helper as a ShellQuery, with its errors
        with pytest.raises(ValueError, match="at least 1"):
            shell_counts(3, [5.0, 0.5], [1.0, 1.0], "fast")
        with pytest.raises(GuardError, match="E \\+ D"):
            shell_counts(3, [5.0, 2.0**63], [1.0, 1.0], "brute")
        with pytest.raises(ValueError, match="d must be"):
            shell_counts(1, [5.0], [1.0], "brute")

    @pytest.mark.parametrize(
        "call",
        [
            lambda: shell_count_brute(ShellQuery(2, 1e12, 10.0)),  # about 5e11 rows
            lambda: shell_count_fast(ShellQuery(2, 2.0**62, 2.0**62)),
            lambda: shell_counts(2, [4e7, 4e7], [10.0, 10.0], "brute"),  # 2e7 rows twice
            lambda: hyperbolic_count(3, 2.0**63),  # past 2^63 the rows run on Python ints
            lambda: hyperbolic_count(2, 1e300),
        ],
    )
    def test_row_guard_refuses_at_once(self, call):
        start = time.perf_counter()
        with pytest.raises(GuardError, match="search rows"):
            call()
        assert time.perf_counter() - start < 1.0

    def test_row_limits_stay_near_ten_seconds(self):
        assert shell._ROW_LIMIT == 2**25 and shell._OBJECT_ROW_LIMIT == 2**18
        lo, hi = _window_arrays([(1, 2**64)])
        assert hi.dtype == object


class TestShellSupRatio:
    def test_degenerate_grid(self):
        count, ratio, argmax = shell_sup_ratio(3, 1.0, 5)
        assert argmax == 1.0
        assert ratio == pytest.approx(count / 1.0)

    def test_small_base_includes_shell_center(self):
        count, ratio, argmax = shell_sup_ratio(3, 8.0, 100000)
        # exhaustive integer grid over [8, 64]; difference 7 < 8 is out of
        # range but 19, 26, 37, 56, 63 are reachable
        assert count >= 2
        assert ratio == pytest.approx(count / 8 ** (2 / 3))

    def test_sparse_grid_still_finds_centers(self):
        exhaustive = shell_sup_ratio(3, 30.0, 100000)
        sampled = shell_sup_ratio(3, 30.0, 40)
        assert sampled[0] <= exhaustive[0]
        assert sampled[0] >= exhaustive[0] - 1  # centers are in the sampled grid

    @pytest.mark.parametrize(
        "d,D,e_samples,integral",
        [
            (2, 30.0, 2048, True),
            (2, 100.0, 512, False),
            (3, 10.5, 2048, True),
            (3, 10.5, 20, False),
            (3, 100.0, 2048, False),
            (4, 30.0, 2048, True),
            (4, 100.0, 512, False),
            (5, 6.0, 100, True),
            (5, 50.0, 256, False),
            # realized differences outnumber the geometric points many times
            (4, 300.0, 8, False),
            (3, 400.0, 16, False),
            # realized differences at both ends: 3^3 - 2^3 = ceil(D), 7^3 - 1^3 = floor(D^2)
            (3, 18.5, 8, False),
        ],
    )
    def test_matches_per_e_counts(self, monkeypatch, d, D, e_samples, integral):
        grid, counts = per_e_sup(d, D, e_samples)
        assert (len(grid) == math.floor(D * D) - math.ceil(D) + 1) == integral
        windows = []

        def recorded(d, lo, hi, last_js):
            windows.extend(zip(lo.tolist(), hi.tolist()))
            return _sweep_counts(d, lo, hi, last_js)

        monkeypatch.setattr(shell, "_sweep_counts", recorded)
        best = counts.index(max(counts))
        assert shell_sup_ratio(d, D, e_samples) == (counts[best], counts[best] / D ** (2 / d), grid[best])
        assert windows == [_strict_window(e, D) for e in grid]  # the same grid, point by point

    @pytest.mark.parametrize("d,D,e_samples", [(3, 8.0, 100000), (3, 20.0, 50)])
    def test_ties_go_to_smaller_e(self, d, D, e_samples):
        # the maximum is reached at 8 integer E, and at 4 E of the sampled grid
        grid, counts = per_e_sup(d, D, e_samples)
        ties = [e for e, c in zip(grid, counts) if c == max(counts)]
        assert len(ties) > 1
        assert shell_sup_ratio(d, D, e_samples)[2] == ties[0]

    @pytest.mark.parametrize("block", [1, 3, 64])
    def test_many_blocks(self, monkeypatch, block):
        expected = [shell_sup_ratio(d, D, 300) for d, D in ((2, 40.0), (3, 200.0))]
        monkeypatch.setattr(shell, "_SWEEP_BLOCK", block)
        assert [shell_sup_ratio(d, D, 300) for d, D in ((2, 40.0), (3, 200.0))] == expected

    @given(st.integers(2, 5), st.lists(st.integers(1, 10**6), min_size=2, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_sweep_matches_window_count(self, d, ends):
        lo = np.array(ends[0::2][: len(ends) // 2], dtype=np.int64)
        hi = lo + np.array(ends[1::2], dtype=np.int64) % 5000
        top = int(hi.max())
        n_b = sum(1 for _ in itertools.takewhile(lambda b: (1 + b) ** d - 1 <= top, itertools.count(1)))
        last_js = _last_js(d, top, n_b).tolist()
        for b, j in enumerate(last_js, start=1):  # the last j whose difference stays within top
            assert (j + b) ** d - j**d <= top < (j + 1 + b) ** d - (j + 1) ** d
        assert sum(last_js) == _fast_counts(d, *_window_arrays([(1, top)]))[0][0]
        got = _sweep_counts(d, lo, hi, last_js)
        assert got.tolist() == _fast_counts(d, lo, hi)[0].tolist()

    def test_is_fast(self):
        # 2,749 bisection counts took 0.67 s here; the sweep takes about 0.012 s
        start = time.perf_counter()
        assert shell_sup_ratio(3, 1000.0, 1024)[0] == 96
        assert time.perf_counter() - start < 0.1

    def test_guard_refuses_at_once(self):
        start = time.perf_counter()
        with pytest.raises(GuardError, match="2\\^28"):
            shell_sup_ratio(2, 1e6, 2048)
        assert time.perf_counter() - start < 1.0

    def test_guard_refuses_realized_differences_at_once(self):
        # passes the lower bound; its 3.3 million realized differences are
        # built in numpy and then refused (4.6 s as a Python loop and a set)
        start = time.perf_counter()
        with pytest.raises(GuardError, match="2\\^28"):
            shell_sup_ratio(3, 1.5e6, 2048)
        assert time.perf_counter() - start < 1.0

    def test_guard_counts_grid_points(self):
        # two values of b reach the top, but windowing the 9 million integer
        # E would take about 16 s; refused before the grid is built
        start = time.perf_counter()
        with pytest.raises(GuardError, match="2\\^28"):
            shell_sup_ratio(12, 3000.0, 10**7)
        assert time.perf_counter() - start < 0.1

    def test_guard_after_grid(self):
        # passes the lower bound; the built grid's exact work is refused
        with pytest.raises(GuardError, match="2\\^28"):
            shell_sup_ratio(2, 3000.0, 2048)

    def test_domain(self):
        with pytest.raises(ValueError):
            shell_sup_ratio(3, 10.0, 0)
        with pytest.raises(ValueError):
            shell_sup_ratio(3, 0.5, 10)
        with pytest.raises(ValueError):
            shell_sup_ratio(1, 10.0, 10)
        with pytest.raises(ValueError, match="no integer E"):
            shell_sup_ratio(3, 1.2, 10)  # [1.2, 1.44] holds no integer
        with pytest.raises(GuardError, match="supported range"):
            shell_sup_ratio(3, 4e9, 2048)  # E + D > 2^63 at E = D^2


class TestERange:
    """[ceil D, floor D^2], shared by the sup and the CLI's grids, against Fractions."""

    @given(st.one_of(st.floats(1.0, 3.0e9), st.integers(1, 3 * 10**9).map(float)))
    @settings(max_examples=300, deadline=None)
    def test_matches_fractions(self, D):
        lo, hi = math.ceil(Fraction(D)), math.floor(Fraction(D) ** 2)
        if lo > hi:
            with pytest.raises(ValueError, match=f"no integer E lies in \\[D, D\\^2\\] for D = {D}"):
                _e_range(D)
        else:
            assert _e_range(D) == (lo, hi)

    def test_float_square_rounding_up(self):
        D = 7420.073315001679
        assert math.floor(D * D) == 55057488  # the float square rounds up past the integer
        assert _e_range(D) == (7421, 55057487)

    def test_refusals(self):
        with pytest.raises(ValueError, match="D must be at least 1"):
            _e_range(0.5)
        for D in (1.2, 1.414, np.float32(1.2)):
            with pytest.raises(ValueError, match="no integer E"):
                _e_range(D)
        assert _e_range(1.0) == (1, 1) and _e_range(math.sqrt(2.0)) == (2, 2)


class TestQueryChecks:
    def test_numpy_scalars_count_as_python_numbers(self):
        E, D = list(range(100, 105)), [5.0] * 5
        for method in ("brute", "fast"):
            want = [a.tolist() for a in shell_counts(3, E, D, method)]
            assert [a.tolist() for a in shell_counts(3, np.arange(100, 105), D, method)] == want
            assert [a.tolist() for a in shell_counts(3, np.float32(E), np.int64(D), method)] == want
        q = ShellQuery(np.int64(3), np.float32(100.5), np.int64(5))
        assert shell_count_brute(q) == shell_count_brute(ShellQuery(3, 100.5, 5))
        with pytest.raises(GuardError, match="E \\+ D"):
            ShellQuery(3, np.int64(2**63 - 5), np.int64(10))  # the int64 sum would wrap
        for D in (np.int64(20), np.float32(20)):
            assert shell_sup_ratio(3, D, 64) == shell_sup_ratio(3, 20.0, 64)

    def test_non_finite_queries(self):
        with pytest.raises(ValueError):
            ShellQuery(3, math.nan, 1.0)
        with pytest.raises(ValueError):
            shell_counts(3, [5.0], [math.nan], "fast")
        with pytest.raises(GuardError, match="E \\+ D"):
            ShellQuery(3, math.inf, 1.0)

    def test_exact_sum_past_2_63_where_the_float_sum_is_not(self):
        # 2^63 - 1024 + 1024.5 rounds to 2^63 in floats; the window top is 2^63
        assert (2.0**63 - 1024) + 1024.5 == 2.0**63
        with pytest.raises(GuardError, match="E \\+ D"):
            ShellQuery(3, 2.0**63 - 1024, 1024.5)
        with pytest.raises(GuardError, match="E \\+ D"):
            shell_counts(7, [2.0**63 - 1024], [1024.5], "fast")
        ShellQuery(3, 2.0**63 - 1024, 1024.0)  # top 2^63 - 1, accepted


class TestStrictWindow:
    @given(
        st.one_of(st.integers(1, 2**60).map(float), st.floats(1.0, 2.0**60)),
        st.one_of(st.integers(1, 2**60).map(float), st.floats(1.0, 2.0**60)),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_fractions(self, E, D):
        lo = math.floor(Fraction(E) - Fraction(D)) + 1
        hi = math.ceil(Fraction(E) + Fraction(D)) - 1
        assert _strict_window(E, D) == (lo, hi)

    def test_boundaries_excluded(self):
        assert _strict_window(8.0, 1.0) == (8, 8)
        assert _strict_window(7.5, 1.0) == (7, 8)
        assert _strict_window(4.0, 1.5) == (3, 5)


def power_law_exponent(d: int, s: float) -> float:
    """The exponent of D in the predicted count scale of the shells |k^d - j^d - D^s| < D.

    Two regimes split at s = d^2/(d^2 - d - 1), with unit constant.
    """
    split = d * d / (d * d - d - 1.0)
    return 1.0 + s * (2.0 / d - 1.0) if s <= split else (s / d) * (1.0 - 1.0 / d)


class TestPowerLawBound:
    """The two regimes of the predicted shell-count scale, and where they meet."""

    def test_upper_branch(self):
        assert 100.0 ** power_law_exponent(3, 2.0) == pytest.approx(100 ** (4.0 / 9.0))

    def test_lower_branch(self):
        s = 1.001
        assert 100.0 ** power_law_exponent(3, s) == pytest.approx(100 ** (1 + s * (2 / 3 - 1)))

    @pytest.mark.parametrize("d", [3, 4, 5, 7])
    def test_branches_agree_at_split(self, d):
        split = d * d / (d * d - d - 1)
        lo = 1 + split * (2 / d - 1)
        hi = (split / d) * (1 - 1 / d)
        assert lo == pytest.approx(hi, rel=1e-12)
        assert 50.0 ** power_law_exponent(d, split) == pytest.approx(50.0**lo, rel=1e-12)
        assert power_law_exponent(d, split * (1 + 1e-9)) == pytest.approx(hi, rel=1e-8)  # continuous

    def test_domain(self):
        # both regimes lie in s in (1, 2] from d = 3 on; at d = 2 the split is s = 4
        assert 2 * 2 / (2 * 2 - 2 - 1) == 4
        for d in range(3, 12):
            assert 1 < d * d / (d * d - d - 1) <= 2


class TestHyperbolicCount:
    @pytest.mark.parametrize(
        "d,x,expected",
        [(3, 7.0, 6), (2, 3.0, 6), (2, 1.0, 2), (3, 1.0, 2), (5, 1.0, 2)],
    )
    def test_known_values(self, d, x, expected):
        assert hyperbolic_count(d, x) == expected

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_matches_z2_loop_small(self, d):
        for x in range(1, 120):
            assert hyperbolic_count(d, float(x)) == oracle_hyperbolic(d, x)

    @pytest.mark.parametrize("d,x", [(2, 1234), (3, 5000), (4, 10000)])
    def test_matches_z2_loop_spot(self, d, x):
        assert hyperbolic_count(d, float(x)) == oracle_hyperbolic(d, x)

    @pytest.mark.parametrize(
        "d,x,expected",
        [
            (4, 2**53 + 1, 248339326),
            (5, 2**53 + 1, 5637792),
            (6, 2**63, 4655740),
            (7, 10**20, 1113674),
        ],
    )
    def test_large_x_pinned(self, d, x, expected):
        # x reaches past exact float integers and past the shell query's
        # E + D <= 2^63 guard; the integer window keeps these exact
        assert hyperbolic_count(d, x) == expected

    def test_area_scale(self):
        # leading term is an area ~ x^{2/d}; boundary corrections decay slowly,
        # so test the growth exponent rather than the raw ratio
        from expsumlab import slope_fit

        points = [(float(x), float(hyperbolic_count(3, float(x)))) for x in
                  (10**3, 10**4, 10**5, 10**6)]
        fit = slope_fit(points)
        assert 2 / 3 - 0.05 < fit.slope < 2 / 3 + 0.07


class TestRepresentationCounts:
    def test_two_squares(self):
        table = representation_count(2, 2, 5)
        assert table[25] == 2  # (3,4) and (4,3)

    def test_linear_pairs(self):
        assert representation_count(2, 1, 3)[4] == 3

    @given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_total_mass(self, n, d, M):
        assert sum(representation_count(n, d, M).values()) == M**n

    def test_diophantine_n1(self):
        for d, M in ((1, 5), (3, 7)):
            assert diophantine_count(1, d, M) == M

    def test_diophantine_small_brute(self):
        assert diophantine_count(2, 1, 2) == 6

    @pytest.mark.parametrize("n,d,M", [(2, 1, 4), (2, 2, 5), (2, 3, 6), (2, 2, 12)])
    def test_diophantine_matches_enumeration(self, n, d, M):
        hits = 0
        for tup in itertools.product(range(1, M + 1), repeat=2 * n):
            if sum(v**d for v in tup[:n]) == sum(v**d for v in tup[n:]):
                hits += 1
        assert diophantine_count(n, d, M) == hits
        powers = FrequencySpectrum.unit(j**d for j in range(1, M + 1))
        assert diophantine_count(n, d, M) == even_moment(powers, n)

    def test_guard(self):
        with pytest.raises(GuardError):
            representation_count(2, 8, 40)


class TestGreenRuzsa:
    def test_single_digit(self):
        assert greenruzsa_generate(5, 1) == [0, 1, 3]

    def test_two_digits(self):
        assert greenruzsa_generate(5, 2) == [0, 1, 3, 5, 6, 8, 15, 16, 18]

    @given(st.integers(5, 11), st.integers(1, 6))
    @settings(max_examples=30, deadline=None)
    def test_size_and_digit_closure(self, base, k):
        values = greenruzsa_generate(base, k)
        assert len(values) == 3**k
        assert len(set(values)) == 3**k
        for v in values:
            while v:
                assert v % base in (0, 1, 3)
                v //= base

    def test_guard(self):
        with pytest.raises(GuardError):
            greenruzsa_generate(5, 16)

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="base must be at least 5"):
            greenruzsa_generate(4, 2)
        with pytest.raises(ValueError, match="digits must be at least 1"):
            greenruzsa_generate(5, 0)


class TestSparsity:
    def test_counts_window(self):
        values = greenruzsa_generate(5, 2)
        assert sparsity_count(values, 2, 2) == 3  # {0, 1, 3}
        assert 3 <= 24 * 2 ** (math.log(3) / math.log(5))

    def test_empty_set(self):
        assert sparsity_count([], 5, 3) == 0

    def test_bound_on_sampled_windows(self):
        values = greenruzsa_generate(7, 5)
        exponent = math.log(3) / math.log(7)
        gen = np.random.Generator(np.random.Philox(key=np.array([5, 5], dtype=np.uint64)))
        for _ in range(300):
            center = int(gen.integers(-10, values[-1] + 10))
            radius = int(gen.integers(1, values[-1]))
            assert sparsity_count(values, center, radius) <= 24 * radius**exponent


def pair_sum(phi, A, d: int) -> float:
    """sum over j < k in A of phi(k^d - j^d)."""
    return math.fsum(phi(k**d - j**d) for j, k in itertools.combinations(sorted(A), 2))


class TestDominationCheck:
    """Interval domination: for phi positive and decreasing and 0 < b <= min(A),
    the pair sum over A never exceeds the one over {b, ..., b + |A| - 1}."""

    def test_interval_is_tight(self):
        lhs = pair_sum(lambda x: 1.0 / x, [4, 5, 6, 7], 2)
        assert lhs == pytest.approx(pair_sum(lambda x: 1.0 / x, range(4, 8), 2), rel=1e-12)

    def test_spread_set(self):
        lhs = pair_sum(lambda x: 1.0 / x**2, [10, 20, 35], 2)
        assert lhs <= pair_sum(lambda x: 1.0 / x**2, range(10, 13), 2)
        manual_lhs = sum(
            1.0 / (k**2 - j**2) ** 2 for j, k in [(10, 20), (10, 35), (20, 35)]
        )
        assert lhs == pytest.approx(manual_lhs, rel=1e-12)

    def test_singleton(self):
        assert (pair_sum(lambda x: 1.0 / x, [9], 2), pair_sum(lambda x: 1.0 / x, range(3, 4), 2)) == (0.0, 0.0)

    def test_random_sets(self):
        gen = np.random.Generator(np.random.Philox(key=np.array([5, 6], dtype=np.uint64)))
        phis = (lambda x: 1.0 / x, lambda x: 1.0 / x**2, lambda x: math.exp(-x / 50.0))
        for _ in range(200):
            A = sorted(set(gen.integers(1, 40, int(gen.integers(1, 8))).tolist()))
            b, d = int(gen.integers(1, A[0] + 1)), int(gen.integers(2, 5))
            for phi in phis:
                assert pair_sum(phi, A, d) <= pair_sum(phi, range(b, b + len(A)), d) * (1 + 1e-12)

    def test_needs_b_at_most_min(self):
        # b = 4 > min(A) = 3: the interval {4, 5} differs by 9, A = {3, 4} by 7
        assert pair_sum(lambda x: 1.0 / x, [3, 4], 2) > pair_sum(lambda x: 1.0 / x, range(4, 6), 2)

    def test_needs_decreasing_phi(self):
        # phi(x) = x increases: 144 over A against 24 over {2, 3, 4}
        assert pair_sum(float, [3, 5, 9], 2) == 144.0
        assert pair_sum(float, range(2, 5), 2) == 24.0
