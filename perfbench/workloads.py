"""Job lists of the benchmark workloads and the oracle that checks each job.

A job is one README CLI invocation, run in-process through
``expsumlab.cli.run``, or one library call where the CLI has no subcommand
for it.  Every workload is a closed loop: one client runs its fixed job list
in sequence.  The workload seed sets only input values -- the Monte Carlo
seeds (which also pick the genericity experiment's frequency sets), and the
shell E values; which jobs run never changes.  The lists are scaled-down
copies of acceptance criteria c01, c03-c05, c07-c09 and c12.

Each oracle takes the job's output bytes and returns ``None`` when they are
right, else a one-line reason.  Oracles compute independently of the path
they check: Monte Carlo means are recomputed from the public per-sample
calls, counts are compared with numpy brute force or a sieve.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from expsumlab import expsum, lattice, majorant, moments, processes

EXACT_TOL = 1e-8  # the CLI default --tol, and the value c07 uses
GENERICITY_EPSILON = 0.2  # the CLI default --epsilon


@dataclass(frozen=True)
class Job:
    name: str
    check: Callable[[bytes], str | None]
    argv: tuple[str, ...] = ()  # CLI arguments; empty for a library job
    call: Callable[[], object] | None = None  # the library call otherwise


def canonical(result: object) -> bytes:
    """Output bytes of a library job: its numbers with every digit."""
    if isinstance(result, majorant.MajorantResult):
        result = {
            "base_moment": result.base_moment,
            "best_moment": result.best_moment,
            "ratio": result.ratio,
            "best_phases": list(result.best_phases),
        }
    return json.dumps(result, sort_keys=True).encode()


def _rows(data: bytes) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(data.decode())))


def _seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count, dtype=np.uint32)]


def _sizes(values: list[int]) -> str:
    return ",".join(str(v) for v in values)


def brute_even_moment(values: list[int], n: int) -> int:
    """Number of 2n-tuples with equal n-sums, by enumerating every n-sum."""
    v = np.asarray(values, dtype=np.int64)
    sums = v
    for _ in range(n - 1):
        sums = np.add.outer(sums, v).ravel()
    _, counts = np.unique(sums, return_counts=True)
    return int(np.dot(counts, counts))


# ---------------------------------------------------------------------------
# mc-ladder
# ---------------------------------------------------------------------------

_BRUTE_MAX_SIZE = 64
_HOLDER_SLACK = 1e-9


def _time_map(text: str) -> moments.TimeMap:
    kind, _, arg = text.partition(":")
    if kind == "power":
        return moments.TimeMap("power", d=int(arg))
    if kind == "arith":
        return moments.TimeMap("arith", r=float(arg))
    return moments.TimeMap("identity")


def _sample_values(process: str, times: tuple[float, ...], stream, index: int) -> tuple[int, ...]:
    if process == "poisson":
        return processes.sample_poisson_path(processes.TimeGrid(times), stream, index).values
    path = processes.sample_random_walk(int(times[-1]), stream, index)
    return tuple(path.values[int(t)] for t in times)


def holder_failure(q3: float, m2: float, m4: float) -> str | None:
    """Why Q3 breaks M2^{3/2} <= Q3 <= sqrt(M2 M4), or None.

    Jensen and Hoelder on the quadrature's node measure, where M2 and M4 are
    exact: the suggested node count is past the p=4 exactness threshold.
    """
    lo, hi = m2**1.5, math.sqrt(m2 * m4)
    if lo * (1 - _HOLDER_SLACK) <= q3 <= hi * (1 + _HOLDER_SLACK):
        return None
    return f"Q3 {q3!r} outside [M2^1.5, sqrt(M2 M4)] = [{lo!r}, {hi!r}]"


def _sample_moment(values: tuple[int, ...], p: float, size: int) -> tuple[float, str | None]:
    """One sample's value as the CLI computes it, and any oracle failure."""
    spectrum = expsum.FrequencySpectrum.unit(values)
    if p % 2 == 0:
        n = int(p) // 2
        exact = expsum.even_moment(spectrum, n)
        if size <= _BRUTE_MAX_SIZE and exact != brute_even_moment(list(values), n):
            return math.nan, f"even_moment {exact} differs from the pair-sum count"
        return float(exact), None
    q3 = expsum.lp_norm_quadrature(spectrum, p, expsum.suggested_nodes(spectrum, p))
    return q3, holder_failure(q3, expsum.even_moment(spectrum, 1), expsum.even_moment(spectrum, 2))


def check_moment(data: bytes, process: str, time_map: str, p: float, sizes: list[int], samples: int, seed: int):
    rows = _rows(data)
    if [int(r["size"]) for r in rows] != sizes:
        return f"sizes {[r['size'] for r in rows]} != {sizes}"
    tmap = _time_map(time_map)
    for row in rows:
        size = int(row["size"])
        times = tmap.apply(range(1, size + 1))
        stream = processes.SeedSpec(seed, size)
        values = []
        for i in range(samples):
            value, failure = _sample_moment(_sample_values(process, times, stream, i), p, size)
            if failure:
                return f"size {size} sample {i}: {failure}"
            values.append(value)
        mean = math.fsum(values) / samples
        if float(row["mean"]) != mean:
            return f"size {size}: mean {row['mean']} != recomputed {mean!r}"
    return None


def _moment_job(name, seed, process, time_map, p, sizes, samples) -> Job:
    argv = (
        "moment", "--process", process, "--map", time_map, "--p", str(p),
        "--sizes", _sizes(sizes), "--samples", str(samples), "--seed", str(seed),
    )
    check = partial(
        check_moment, process=process, time_map=time_map, p=float(p), sizes=sizes, samples=samples, seed=seed
    )
    return Job(name, check, argv=argv)


def mc_ladder(seed: int) -> list[Job]:
    s = _seeds(seed, 7)
    ladder = [16, 32, 64, 128, 256]
    return [
        _moment_job("poisson-identity", s[0], "poisson", "identity", 4, ladder, 60),
        _moment_job("poisson-power2", s[1], "poisson", "power:2", 4, ladder[:4], 12),
        _moment_job("poisson-power2-256", s[2], "poisson", "power:2", 4, [256], 2),
        _moment_job("poisson-power3", s[3], "poisson", "power:3", 4, ladder, 12),
        _moment_job("poisson-arith2", s[4], "poisson", "arith:2", 4, ladder, 12),
        _moment_job("walk-identity", s[5], "walk", "identity", 4, ladder, 60),
        _moment_job("poisson-power2-p3", s[6], "poisson", "power:2", 3, ladder[:3], 2),
    ]


# ---------------------------------------------------------------------------
# majorant-search
# ---------------------------------------------------------------------------

# At even p the all-ones vector is the maximizer (|c^{*n}| <= mult^{*n} term
# by term), so the ratio is 1 up to the optimizer's float noise.
_EVEN_RATIO_RANGE = (1 - 1e-9, 1 + 1e-6)


def check_majorant_freqs(data: bytes, freqs: list[int], p: int):
    (row,) = _rows(data)
    lo, hi = _EVEN_RATIO_RANGE
    ratio = float(row["ratio"])
    if not lo <= ratio <= hi:
        return f"even-p ratio {ratio!r} outside [{lo}, {hi}]"
    base = float(row["base_moment"])
    brute = brute_even_moment(freqs, p // 2)
    if base != brute:
        return f"base moment {base!r} != brute count {brute}"
    return None


def check_genericity(data: bytes, sizes: list[int], samples: int):
    rows = _rows(data)
    if [int(r["size"]) for r in rows] != sizes:
        return f"sizes {[r['size'] for r in rows]} != {sizes}"
    for row in rows:
        size = int(row["size"])
        # Even-p ratios are 1, below every threshold size^eps > 1.
        if float(row["probability"]) != 0.0 or int(row["samples"]) != samples:
            return f"size {size}: probability {row['probability']} over {row['samples']} samples, expected 0"
        if float(row["threshold"]) != size**GENERICITY_EPSILON:
            return f"size {size}: threshold {row['threshold']} != size^{GENERICITY_EPSILON}"
    return None


# On {0, 1, 3} the search's rule (8*span+7 = 31 nodes) is off from the
# integral by 6e-7 (relative) at all-ones and 2.3e-6 at the best point.
_QUADRATURE_RTOL = 1e-5
_FINE_NODES = 1 << 14


def fine_lp_moment(freqs: list[int], phases: list[float], p: float) -> float:
    """int_T |sum_k e^{i phase_k} e(f_k y)|^p dy on a fine grid, f_k the sorted distinct freqs."""
    y = np.arange(_FINE_NODES) / _FINE_NODES
    terms = np.exp(1j * (2 * np.pi * np.outer(y, sorted(set(freqs))) + np.asarray(phases)))
    return float(np.mean(np.abs(terms.sum(axis=1)) ** p))


def check_quadrature_majorant(data: bytes, freqs: list[int]):
    """Base and best match a fine-grid integral at their phases, and best >= base.

    Both also obey the p=3 Hoelder window of the all-ones sum: unimodular
    phases keep M2 and cannot raise M4 (the even-p majorant property).
    """
    result = json.loads(data)
    m2, m4 = len(set(freqs)), brute_even_moment(freqs, 2)
    points = {"base_moment": [0.0] * m2, "best_moment": result["best_phases"]}
    for key, phases in points.items():
        fine = fine_lp_moment(freqs, phases, 3.0)
        if abs(result[key] - fine) > _QUADRATURE_RTOL * fine:
            return f"{key} {result[key]!r} vs fine-grid integral {fine!r} beyond {_QUADRATURE_RTOL} relative"
        failure = holder_failure(result[key], m2, m4)
        if failure:
            return f"{key}: {failure}"
    if not result["best_moment"] >= result["base_moment"]:
        return f"best {result['best_moment']!r} below base {result['base_moment']!r}"
    return None


def _majorant_job(name, seed, freqs, p) -> Job:
    argv = ("majorant", "--freqs", _sizes(freqs), "--p", str(p), "--restarts", "2", "--seed", str(seed))
    return Job(name, partial(check_majorant_freqs, freqs=freqs, p=p), argv=argv)


def majorant_search(seed: int) -> list[Job]:
    s = _seeds(seed, 7)
    # From a random start the number of ascent sweeps is heavy-tailed (at
    # size 16, 1.7k to 12k objective calls per sample; a whole genericity job
    # varied 1.6 s to 4.6 s between seeds).  So the genericity job starts
    # from all-ones only, a fixed one sweep per sample, and the random-restart
    # ascents run on fixed sets, where only the start phases vary with the seed.
    sizes, samples = [8, 16, 32], 10
    squares = [j * j for j in range(1, 11)]
    # {0, 1, 3} is the Green-Ruzsa digit set at which the majorant property
    # fails for p = 3; one restart keeps the job's cost independent of the seed.
    digit_set = [0, 1, 3]
    return [
        Job(
            "genericity",
            partial(check_genericity, sizes=sizes, samples=samples),
            argv=(
                "majorant", "--genericity", "--p", "4", "--sizes", _sizes(sizes),
                "--samples", str(samples), "--restarts", "1", "--seed", str(s[0]),
            ),
        ),
        _majorant_job("squares-p2", s[1], squares, 2),
        _majorant_job("squares-p4", s[2], squares, 4),
        _majorant_job("squares6-p6", s[3], squares[:6], 6),
        _majorant_job("digits-p6", s[4], [0, 1, 3, 5, 6, 8], 6),
        _majorant_job("powers2-p6", s[5], [1, 2, 4, 8, 16, 32], 6),
        _majorant_job("powers2-7-p6", s[6], [1, 2, 4, 8, 16, 32, 64], 6),
        Job(
            "digits-p3-quadrature",
            partial(check_quadrature_majorant, freqs=digit_set),
            call=lambda: majorant.majorant_ratio_quadrature(digit_set, 3.0, 1),
        ),
    ]


# ---------------------------------------------------------------------------
# exact-counts
# ---------------------------------------------------------------------------

_SIEVE_TOP = 100_000
_SHELL_D = 10_000
_SHELL_QUERIES = 8
_DIVISOR_X = [10, 1000, 100_000, 10**7, 10**9, 10**11, 10**14]


def check_verify(data: bytes):
    bad = [r["check"] for r in _rows(data) if r["ok"] != "true"]
    return f"failed checks {bad}" if bad else None


def check_shell_both(data: bytes):
    rows = _rows(data)
    for row in rows:
        if row["brute"] != row["fast"] or row["equal"] != "true":
            return f"E={row['E']}: brute {row['brute']} != fast {row['fast']}"
    return None if rows else "no rows"


def check_shell_sup(data: bytes, d: int, D: float):
    (row,) = _rows(data)
    count = int(row["sup_count"])
    brute = lattice.shell_count_brute(lattice.ShellQuery(d, float(row["argmax_E"]), D)).count
    if brute != count:
        return f"sup count {count} != brute count {brute} at E={row['argmax_E']}"
    return None


def _divisor_sieve(top: int) -> np.ndarray:
    counts = np.zeros(top + 1, dtype=np.int64)
    for a in range(1, top + 1):
        counts[a::a] += 1
    return np.cumsum(counts)


def divisor_by_quotients(n: int, chunk: int = 1 << 20) -> int:
    """D(n) = sum_{k <= n} floor(n/k), summing large k by equal quotients.

    k <= s = isqrt(n) is summed term by term; each quotient q < n/s is taken
    floor(n/q) - max(floor(n/(q+1)), s) times.  Independent of the hyperbola
    identity the library uses, and chunked so memory stays small.
    """
    s = math.isqrt(n)
    total = 0
    for lo in range(1, s + 1, chunk):
        k = np.arange(lo, min(lo + chunk, s + 1), dtype=np.int64)
        total += int(np.sum(n // k))
    top_q = n // (s + 1)
    for lo in range(1, top_q + 1, chunk):
        q = np.arange(lo, min(lo + chunk, top_q + 1), dtype=np.int64)
        times = n // q - np.maximum(n // (q + 1), s)
        total += int(np.sum(q * np.maximum(times, 0)))
    return total


def check_divisor(data: bytes):
    sieve = _divisor_sieve(_SIEVE_TOP)
    for row in _rows(data):
        x = int(float(row["x"]))
        if x <= _SIEVE_TOP:
            expected = int(sieve[x])
        else:
            expected = divisor_by_quotients(x)
        if int(row["summatory"]) != expected:
            return f"D({x}) = {row['summatory']} != {expected}"
    return None


def check_diophantine(data: bytes, n: int, d: int, M: int):
    (row,) = _rows(data)
    brute = brute_even_moment([j**d for j in range(1, M + 1)], n)
    if int(row["diophantine"]) != brute:
        return f"diophantine {row['diophantine']} != brute count {brute}"
    return None


_FOURIER_CHUNK = 512  # keys per block of characteristic-function values


def fourier_even_moment(times: list[float], n: int) -> float:
    """Sum over 2n-tuples of P[N(a_1)+..+N(a_n) = N(b_1)+..+N(b_n)], by Fourier inversion.

    On the elementary intervals between the sorted times the signed sum is
    X = sum_c c * Poisson(L_c), with L_c the total length of the intervals
    where its coefficient is c.  P[X = 0] is the mean of X's characteristic
    function over m equally spaced angles, exact up to P[|X| >= m], the
    aliased mass.  |X| <= n Poisson(max t), so m is set past that tail.
    Shares nothing with the library's truncated-pmf convolution.
    """
    grid = np.unique(np.asarray(times, dtype=np.float64))
    lengths = np.diff(grid, prepend=0.0)
    ranks = np.searchsorted(grid, times)
    tuples = np.indices((len(times),) * (2 * n)).reshape(2 * n, -1)
    interval = np.arange(len(grid))
    coeff = np.zeros((tuples.shape[1], len(grid)), dtype=np.int8)
    for i, row in enumerate(tuples):
        coeff += np.where(ranks[row][:, None] >= interval, 1 if i < n else -1, 0).astype(np.int8)
    cs = [c for c in range(-n, n + 1) if c]
    L = np.stack([(coeff == c) @ lengths for c in cs], axis=1)
    keys, counts = np.unique(L, axis=0, return_counts=True)
    top = grid[-1]
    m = 1 << math.ceil(math.log2(n * (top + 20 * math.sqrt(top) + 40)))
    theta = 2 * math.pi * np.arange(m) / m
    c = np.asarray(cs, dtype=np.float64)
    total = 0.0
    for lo in range(0, len(keys), _FOURIER_CHUNK):
        part = keys[lo : lo + _FOURIER_CHUNK]
        log_phi = part @ (np.exp(1j * np.outer(c, theta)) - 1.0)
        p0 = np.exp(log_phi).real.mean(axis=1)
        total += float(np.dot(counts[lo : lo + _FOURIER_CHUNK], p0))
    return total


def check_exact(data: bytes, times: list[float], n: int):
    """Within N^{2n} tol of an independent value: the closed form at n=1, Fourier inversion above."""
    value = json.loads(data)
    N = len(times)
    if n == 1:
        expected = moments.exact_second_moment_poisson(times)
    else:
        expected = fourier_even_moment(times, n)
    if abs(value - expected) > N ** (2 * n) * EXACT_TOL + 1e-9 * expected:
        return f"value {value!r} vs independent {expected!r} beyond N^{2 * n} tol"
    return None


def _exact_job(name, times, n) -> Job:
    return Job(
        name,
        partial(check_exact, times=times, n=n),
        call=lambda: moments.exact_even_moment_poisson(times, n, EXACT_TOL),
    )


def _shell_energies(rng: np.random.Generator) -> list[int]:
    # Stratified log-uniform in [D, D^2], so every seed spans the range.
    u = (np.arange(_SHELL_QUERIES) + rng.random(_SHELL_QUERIES)) / _SHELL_QUERIES
    return [int(round(_SHELL_D ** (1 + t))) for t in u]


def exact_counts(seed: int) -> list[Job]:
    s = _seeds(seed, 3)
    jobs = [Job("verify", check_verify, argv=("verify", "--seed", str(s[0])))]
    for d in (3, 4):
        jobs.append(Job(f"shell-grid-d{d}", check_shell_both, argv=("shell", "--d", str(d), "--D", "100", "--mode", "both")))
    for d, stream in ((3, s[1]), (4, s[2])):
        for i, e in enumerate(_shell_energies(np.random.default_rng(stream))):
            argv = ("shell", "--d", str(d), "--D", str(_SHELL_D), "--E", str(e), "--mode", "both")
            jobs.append(Job(f"shell-d{d}-{i}", check_shell_both, argv=argv))
    jobs.append(
        Job(
            "shell-sup-d3",
            partial(check_shell_sup, d=3, D=1000.0),
            argv=("shell", "--d", "3", "--D", "1000", "--mode", "sup", "--e-samples", "1024"),
        )
    )
    jobs.append(Job("divisor", check_divisor, argv=("divisor", "--x", _sizes(_DIVISOR_X))))
    jobs.append(
        Job(
            "repcount-squares",
            partial(check_diophantine, n=2, d=2, M=150),
            argv=("repcount", "--n", "2", "--d", "2", "--M", "150", "--squares"),
        )
    )
    for N in (8, 12, 16):
        jobs.append(_exact_job(f"exact-identity-{N}", [float(j) for j in range(1, N + 1)], 2))
    jobs.append(_exact_job("exact-squares-8", [float(j * j) for j in range(1, 9)], 2))
    jobs.append(_exact_job("exact-n1-64", [float(j) for j in range(1, 65)], 1))
    return jobs


WORKLOADS: dict[str, Callable[[int], list[Job]]] = {
    "mc-ladder": mc_ladder,
    "majorant-search": majorant_search,
    "exact-counts": exact_counts,
}
