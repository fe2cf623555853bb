"""Majorant ratio estimation by phase-only coordinate ascent.

The worst-case ratio compares ``sup_{|a_j| <= 1} || sum a_j e(f_j y) ||_p``
against the unit-coefficient norm.  The objective is convex in the
coefficient vector, so its maximum over the polydisc sits at unimodular
coefficients a_j = e^{i theta_j}; only phases are optimized.

One cyclic coordinate ascent (``_ascend``) serves every p.  It keeps
S(y) = sum_j e^{i theta_j} e(f_j y) at K equally spaced nodes.  Changing one
phase changes S by a rank-one term: with R = S - e^{i theta_j} e(f_j y), the
objective along coordinate j is g(theta) = mean_k |R_k + e^{i theta} e(f_j y_k)|^p,
so M trial phases cost one M x K array.  For even p = 2n, g is a
trigonometric polynomial of degree n: 2n+1 samples give it exactly through
one FFT, and it is maximized on a dense grid.  On K = n*span + 1 nodes the
rectangle rule integrates |S|^{2n} exactly.  For other p the objective is
the rectangle rule itself, sampled at 33 phases.  Either start is polished by
the same Newton steps (``_newton``) on g's closed-form first and second
derivatives.  A move is kept only if it raises the objective.

When the span is so large that 2n+1 samples of K node values cost more than
2n+1 exact evaluations of ``even_norm_coeff``, the even-p search takes its
samples from ``even_norm_coeff`` instead.  Multi-start from the all-ones
vector plus random phase vectors; the reported maximum is a lower bound on
the true supremum.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import check_power
from .expsum import FrequencySpectrum, _grid_values, _merge, even_norm_coeff, lp_norm_quadrature, suggested_nodes
from .moments import ExperimentSpec, TimeMap, _even_degree, _sampler
from .processes import Pmf, SeedSpec

_SWEEP_LIMIT = 80
_COARSE = 33  # trial phases per coordinate at non-even p
_NEWTON_STEPS = 8
_BLOCK = 1 << 22  # slice entries evaluated at once


@dataclass(frozen=True)
class MajorantResult:
    base_moment: float
    best_moment: float
    ratio: float
    best_phases: tuple[float, ...]
    restarts: int


@dataclass(frozen=True)
class GenericityPoint:
    size: int
    probability: float
    std_error: float
    samples: int
    threshold: float


class _Grid:
    """The rectangle-rule objective on K nodes, with S kept current."""

    def __init__(self, freqs: Sequence[int], p: float, nodes: int):
        self.freqs, self.p, self.nodes = np.asarray(freqs), p, nodes
        self.roots = _grid_values(np.ones(1, int), np.ones(1, complex), nodes)  # e(k/K), guarded like every grid
        self.index = np.arange(nodes, dtype=np.int64)

    def _column(self, j: int) -> np.ndarray:
        return self.roots[(self.freqs[j] % self.nodes * self.index) % self.nodes]

    def value(self, phases: np.ndarray) -> float:
        """Recompute S from the phases; return mean |S|^p."""
        self.s = _grid_values(self.freqs, np.exp(1j * phases), self.nodes)
        return float(np.mean(np.abs(self.s) ** self.p))

    def along(self, phases: np.ndarray, j: int) -> Callable[[np.ndarray], np.ndarray]:
        u = self._column(j)
        rest = self.s - np.exp(1j * phases[j]) * u
        # |rest + e^{i theta} u|^2 = level + Re(e^{i theta} cross), as |u| = 1
        level = rest.real**2 + rest.imag**2 + 1.0
        cross = 2.0 * np.conj(rest) * u
        rows = max(1, _BLOCK // self.nodes)
        q = self.p / 2

        def g(thetas: np.ndarray) -> np.ndarray:
            out = np.empty(len(thetas))
            for lo in range(0, len(thetas), rows):
                t = thetas[lo : lo + rows, None]
                sq = level + np.cos(t) * cross.real - np.sin(t) * cross.imag
                out[lo : lo + rows] = (np.maximum(sq, 0.0) ** q).sum(axis=1)
            return out / self.nodes

        def slope(theta: float) -> tuple[float, float]:
            # h = level + Re z, h' = -Im z, h'' = -Re z; nodes where h = 0 add nothing
            z = np.exp(1j * theta) * cross
            h = level + z.real
            live = h > 0.0
            w = q * h[live] ** (q - 1.0)  # d(h^q)/dh
            curve = (q - 1.0) * w * z.imag[live] ** 2 / h[live] - w * z.real[live]
            return -float(np.dot(w, z.imag[live])) / self.nodes, float(curve.sum()) / self.nodes

        g.slope = slope  # read by _coarse_argmax
        return g

    def move(self, phases: np.ndarray, j: int, theta: float) -> None:
        self.s += (np.exp(1j * theta) - np.exp(1j * phases[j])) * self._column(j)
        phases[j] = theta


class _Exact:
    """The exact even-p objective, one ``even_norm_coeff`` call per phase vector."""

    def __init__(self, spectrum: FrequencySpectrum, n: int):
        self.spectrum, self.n = spectrum, n

    def value(self, phases: np.ndarray) -> float:
        return even_norm_coeff(self.spectrum.with_phases(phases), self.n)

    def along(self, phases: np.ndarray, j: int) -> Callable[[np.ndarray], np.ndarray]:
        def g(thetas: np.ndarray) -> np.ndarray:
            trial = phases.copy()
            out = np.empty(len(thetas))
            for i, theta in enumerate(thetas):
                trial[j] = theta
                out[i] = self.value(trial)
            return out

        return g

    def move(self, phases: np.ndarray, j: int, theta: float) -> None:
        phases[j] = theta


def _exact_is_cheaper(spectrum: FrequencySpectrum, n: int, nodes: int) -> bool:
    """Whether one ``even_norm_coeff`` call costs less than K node values.

    The exact call runs n-1 convolutions of the merged profile (d distinct
    frequencies).  Each costs what ``_convolve`` pays: the product of the
    dense lengths, or four times the number of entry pairs if smaller.
    """
    freqs, _ = _merge(spectrum.frequencies, spectrum.coefficients)
    d = len(freqs)
    span = int(freqs[-1]) - int(freqs[0])
    cost = d
    for i in range(1, n):
        entries = min(math.comb(d + i - 1, i), i * span + 1)
        cost += min((i * span + 1) * (span + 1), 4 * entries * d)
    return cost < nodes


def _newton(start: float, width: float, slope: Callable, value: Callable) -> float:
    """Polish ``start`` by Newton steps on slope(theta) = (g', g'').

    Steps stop where g'' >= 0 or below 1e-15; the end is kept only within
    ``width`` of ``start`` and if ``value``, increasing in g, does not fall.
    """
    theta = start
    for _ in range(_NEWTON_STEPS):
        d1, d2 = slope(theta)
        if d2 >= 0.0:
            break
        step = d1 / d2
        theta -= step
        if abs(step) < 1e-15:
            break
    if abs(theta - start) > width or value(theta) < value(start):
        theta = start
    return theta % (2.0 * math.pi)


def _even_argmax(g: Callable[[np.ndarray], np.ndarray], n: int) -> float:
    """Maximizer of g, a trigonometric polynomial of degree n, from 2n+1 samples.

    The samples' FFT gives g exactly; its maximum on 64(n+1) phases (the same
    FFT, zero-padded) starts ``_newton``, within one grid step of it.
    """
    m = np.arange(1, n + 1)
    fourier = np.fft.rfft(g(2.0 * math.pi * np.arange(2 * n + 1) / (2 * n + 1)))
    c = fourier[1:] / (2 * n + 1)  # g = c_0 + 2 Re sum_m c_m e^{i m theta}

    def wave(theta: float) -> np.ndarray:
        return c * np.exp(1j * m * theta)

    def slope(theta: float) -> tuple[float, float]:
        z = wave(theta)
        return -2.0 * np.dot(m, z.imag), -2.0 * np.dot(m * m, z.real)

    width = 2.0 * math.pi / (64 * n + 64)
    start = width * int(np.argmax(np.fft.irfft(fourier, 64 * n + 64)))
    return _newton(start, width, slope, lambda theta: wave(theta).real.sum())


def _coarse_argmax(g: Callable[[np.ndarray], np.ndarray]) -> float:
    """Best of 33 equally spaced phases, polished by ``_newton`` on g.slope."""
    coarse = np.linspace(0.0, 2.0 * math.pi, _COARSE, endpoint=False)
    start = coarse[int(np.argmax(g(coarse)))]
    return _newton(start, coarse[1], g.slope, lambda theta: g(np.array([theta]))[0])


def _ascend(objective: _Grid | _Exact, phases: np.ndarray, p: float, base: float) -> np.ndarray:
    """Cyclic coordinate ascent from ``phases`` (updated in place and returned)."""
    n = _even_degree(p)
    for _ in range(_SWEEP_LIMIT):
        best = objective.value(phases)
        gain = 0.0
        for j in range(len(phases)):
            g = objective.along(phases, j)
            theta = _even_argmax(g, n) if n else _coarse_argmax(g)
            candidate = float(g(np.array([theta]))[0])
            if candidate > best:
                gain += candidate - best
                best = candidate
                objective.move(phases, j, theta)
        if gain < 1e-10 * max(1.0, base):
            break
    return phases


def _search(
    spectrum: FrequencySpectrum,
    p: float,
    restarts: int,
    seed: SeedSpec,
    objective: _Grid | _Exact,
    final: Callable[[FrequencySpectrum], float],
) -> MajorantResult:
    """Multi-start ascent, scored by ``final``: all-ones phases first, then random ones."""
    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    base = final(spectrum)
    best_val = -math.inf
    best_phases: np.ndarray | None = None
    for r in range(restarts):
        if r == 0:
            phases = np.zeros(spectrum.size)
        else:
            phases = seed.generator(r).uniform(0.0, 2.0 * math.pi, spectrum.size)
        phases = _ascend(objective, phases, p, base)
        val = final(spectrum.with_phases(phases))
        if val > best_val:
            best_val = val
            best_phases = phases.copy()
    ratio = (best_val / base) ** (1.0 / p)
    return MajorantResult(base, best_val, ratio, tuple(float(t) for t in best_phases), restarts)


def majorant_ratio(
    freqs: Sequence[int], p: int, restarts: int = 1, seed: SeedSpec = SeedSpec(0)
) -> MajorantResult:
    """Maximize the L^p norm over unimodular coefficients, exactly for even p.

    Multi-start ascent: the all-ones vector first (so the result never falls
    below the unit-coefficient moment), then ``restarts - 1`` random phase
    vectors.  Ties between restarts resolve toward the earlier one.  The
    ascent runs on K = n*span + 1 nodes, where the rectangle rule is exact,
    unless exact evaluations are cheaper; base and best moments are
    ``even_norm_coeff`` values.  The returned ratio is (best/base)^{1/p}, a
    lower bound on the true constant.
    """
    n = _even_degree(p)
    if not n:
        raise ValueError("exact majorant optimization needs an even integer p >= 2")
    if not freqs:
        raise ValueError("frequency list must be nonempty")
    check_power(len(freqs), p)
    spectrum = FrequencySpectrum.unit(freqs)
    nodes = n * (int(spectrum.frequencies.max()) - int(spectrum.frequencies.min())) + 1
    if _exact_is_cheaper(spectrum, n, nodes):
        objective = _Exact(spectrum, n)
    else:
        objective = _Grid(spectrum.frequencies, p, nodes)
    return _search(spectrum, p, restarts, seed, objective, functools.partial(even_norm_coeff, n=n))


def majorant_ratio_quadrature(
    freqs: Sequence[int],
    p: float,
    restarts: int = 1,
    seed: SeedSpec = SeedSpec(0),
) -> MajorantResult:
    """Approximate majorant search for arbitrary p >= 1 (quadrature objective).

    The same ascent as ``majorant_ratio``, on the rectangle rule with
    ``suggested_nodes`` points; base and best moments are
    ``lp_norm_quadrature`` values.  Nothing here is exact for non-even p:
    the result is only as good as the node count.
    """
    check_power(len(freqs), p)
    spectrum = FrequencySpectrum.unit(freqs)
    nd = suggested_nodes(spectrum, p)
    final = functools.partial(lp_norm_quadrature, p=p, nodes=nd)
    return _search(spectrum, p, restarts, seed, _Grid(spectrum.frequencies, p, nd), final)


def genericity_experiment(
    process: str,
    time_map: TimeMap,
    sizes: Sequence[int],
    p: float,
    epsilon: float,
    samples: int,
    restarts: int,
    seed: SeedSpec,
    pmf: Pmf | None = None,
) -> list[GenericityPoint]:
    """Empirical probability that a realized set violates the majorant bound.

    For each size, `samples` paths are realized on the mapped index set
    {1..size}; each realized spectrum is phase-optimized and the event
    ratio >= size^epsilon recorded: by ``majorant_ratio`` at even p, by
    ``majorant_ratio_quadrature`` otherwise.  Binomial standard errors
    accompany every point.  Because the optimizer lower-bounds the supremum, the reported
    probabilities lower-bound the true event probabilities.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    # Sample streams are (stream_index << 16) ^ size and optimizer streams set
    # bit 40 on top; both stay distinct only below these bounds.
    if seed.stream_index >= 1 << 24:
        raise ValueError("seed stream_index must be below 2^24")
    if any(size >= 1 << 16 for size in sizes):
        raise ValueError("sizes must be below 2^16")
    check_power(max(sizes, default=1), p)
    search = majorant_ratio if _even_degree(p) else majorant_ratio_quadrature
    points: list[GenericityPoint] = []
    for size in sizes:
        spec = ExperimentSpec(
            process=process,
            index_set=tuple(range(1, size + 1)),
            time_map=time_map,
            p=float(p),
            samples=samples,
            seed=seed.child((seed.stream_index << 16) ^ size),
            pmf=pmf,
        )
        threshold = size**epsilon
        opt_seed = SeedSpec(seed.master_seed, (seed.stream_index << 16) ^ size ^ (1 << 40))
        sample = _sampler(spec)
        hits = 0
        for i in range(samples):
            values = sorted(sample(i))
            result = search(values, p, restarts, opt_seed)
            if result.ratio >= threshold:
                hits += 1
        prob = hits / samples
        se = math.sqrt(prob * (1.0 - prob) / samples)
        points.append(GenericityPoint(size, prob, se, samples, threshold))
    return points
