"""Majorant ratios: by the theorem at even p, by phase-only coordinate ascent otherwise.

The worst-case ratio compares ``sup_{|a_j| <= 1} || sum a_j e(f_j y) ||_p``
against the unit-coefficient norm.  At even p = 2n the answer is known: the
coefficients of c^{*n} satisfy |c^{*n}| <= 1^{*n} term by term, so the
all-ones vector attains the supremum and the ratio is exactly 1.
``majorant_ratio`` returns that with one ``even_norm_coeff`` call.  At other p
the property fails (Bachelis 1973; Green and Ruzsa 2004), and
``majorant_ratio_quadrature`` searches.

The objective is convex in the coefficient vector, so its maximum over the
polydisc sits at unimodular coefficients a_j = e^{i theta_j}; only phases are
optimized.  One cyclic coordinate ascent (``_ascend``) keeps
S(y) = sum_j e^{i theta_j} e(f_j y) at K equally spaced nodes.  Changing one
phase changes S by a rank-one term: with R = S - e^{i theta_j} e(f_j y), the
objective along coordinate j is g(theta) = mean_k |R_k + e^{i theta} e(f_j y_k)|^p,
so M trial phases cost one M x K array.  Each coordinate starts from the best
of 33 equally spaced phases, polished by Newton steps (``_newton``) on g's
closed-form first and second derivatives.  A move is kept only if it raises
the objective.  Multi-start from the all-ones vector plus random phase
vectors; the reported maximum is a lower bound on the true supremum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import check_power
from .expsum import FrequencySpectrum, _grid_values, even_norm_coeff, lp_norm_quadrature, suggested_nodes
from .moments import ExperimentSpec, TimeMap, _even_degree, _sampler
from .processes import Pmf, SeedSpec

_SWEEP_LIMIT = 80
_COARSE = 33  # trial phases per coordinate
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

        g.slope = slope  # read by _newton
        return g

    def move(self, phases: np.ndarray, j: int, theta: float) -> None:
        self.s += (np.exp(1j * theta) - np.exp(1j * phases[j])) * self._column(j)
        phases[j] = theta


def _newton(g: Callable, start: float, top: float, width: float) -> tuple[float, float]:
    """Polish ``start``, where g = ``top``, by Newton steps on g.slope = (g', g'').

    Steps stop where g'' >= 0 or below 1e-15.  The end, reduced mod 2 pi, is
    kept only within ``width`` of ``start`` and if g does not fall there.
    Returns the phase and its g value.
    """
    theta = start
    for _ in range(_NEWTON_STEPS):
        d1, d2 = g.slope(theta)
        if d2 >= 0.0:
            break
        step = d1 / d2
        theta -= step
        if abs(step) < 1e-15:
            break
    if abs(theta - start) <= width:
        theta %= 2.0 * math.pi
        value = float(g(np.array([theta]))[0])
        if value >= top:
            return theta, value
    return start, top


def _coarse_argmax(g: Callable[[np.ndarray], np.ndarray]) -> tuple[float, float]:
    """Best of 33 equally spaced phases, polished by ``_newton``; (phase, g value)."""
    coarse = np.linspace(0.0, 2.0 * math.pi, _COARSE, endpoint=False)
    samples = g(coarse)
    best = int(np.argmax(samples))
    return _newton(g, coarse[best], float(samples[best]), coarse[1])


def _ascend(grid: _Grid, phases: np.ndarray, base: float) -> np.ndarray:
    """Cyclic coordinate ascent from ``phases`` (updated in place and returned)."""
    for _ in range(_SWEEP_LIMIT):
        best = grid.value(phases)
        gain = 0.0
        for j in range(len(phases)):
            theta, candidate = _coarse_argmax(grid.along(phases, j))
            if candidate > best:
                gain += candidate - best
                best = candidate
                grid.move(phases, j, theta)
        if gain < 1e-10 * max(1.0, base):
            break
    return phases


def majorant_ratio(
    freqs: Sequence[int], p: float, restarts: int = 1, seed: SeedSpec = SeedSpec(0)
) -> MajorantResult:
    """The majorant ratio at any p >= 1: by the theorem at even p, by search otherwise.

    At p = 2n the coefficients of c^{*n} satisfy |c^{*n}| <= 1^{*n} term by
    term, so no unimodular phase vector beats the all-ones vector.  Returns
    base = best = ``even_norm_coeff`` of the all-ones vector, ratio 1.0 and
    zero phases, with no search; ``restarts`` must be at least 1 and is
    echoed, and ``seed`` is not read.  At other p this is
    ``majorant_ratio_quadrature``.
    """
    n = _even_degree(p)
    if not n:
        return majorant_ratio_quadrature(freqs, p, restarts, seed)
    check_power(len(freqs), p)
    spectrum = FrequencySpectrum.unit(freqs)
    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    base = even_norm_coeff(spectrum, n)
    return MajorantResult(base, base, 1.0, (0.0,) * spectrum.size, restarts)


def majorant_ratio_quadrature(
    freqs: Sequence[int],
    p: float,
    restarts: int = 1,
    seed: SeedSpec = SeedSpec(0),
) -> MajorantResult:
    """Phase search for arbitrary p >= 1 on the rectangle rule.

    Multi-start ascent: the all-ones vector first (so the result never falls
    below the unit-coefficient moment), then ``restarts - 1`` random phase
    vectors.  Ties between restarts resolve toward the earlier one.  The
    ascent runs on ``suggested_nodes`` points, and base and best moments are
    ``lp_norm_quadrature`` values there.  Nothing here is exact for non-even
    p: the result is only as good as the node count.  The returned ratio is
    (best/base)^{1/p}, a lower bound on the true constant.
    """
    check_power(len(freqs), p)
    spectrum = FrequencySpectrum.unit(freqs)
    nodes = suggested_nodes(spectrum, p)
    grid = _Grid(spectrum.frequencies, p, nodes)
    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    base = lp_norm_quadrature(spectrum, p, nodes)
    best_val = -math.inf
    best_phases: np.ndarray | None = None
    for r in range(restarts):
        if r == 0:
            phases = np.zeros(spectrum.size)
        else:
            phases = seed.generator(r).uniform(0.0, 2.0 * math.pi, spectrum.size)
        phases = _ascend(grid, phases, base)
        val = lp_norm_quadrature(spectrum.with_phases(phases), p, nodes)
        if val > best_val:
            best_val = val
            best_phases = phases.copy()
    ratio = (best_val / base) ** (1.0 / p)
    return MajorantResult(base, best_val, ratio, tuple(float(t) for t in best_phases), restarts)


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
    {1..size}, and the event ratio >= size^epsilon is recorded for each
    realized spectrum by the ``majorant_ratio_quadrature`` search.  At even p
    every ratio is exactly 1 (see ``majorant_ratio``), so the probability is
    1 if size^epsilon <= 1 and 0 otherwise, with no path drawn; the
    experiment and its sampler are still built, so bad input fails as at
    other p.  Binomial standard errors accompany every point.  Because the
    search lower-bounds the supremum, the reported non-even probabilities
    lower-bound the true event probabilities.
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
    even = bool(_even_degree(p))
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
        sample = _sampler(spec)  # validates the process and its times at every p
        if even:  # every ratio is exactly 1; restarts is checked as majorant_ratio would
            if restarts < 1:
                raise ValueError("restarts must be at least 1")
            prob = 1.0 if 1.0 >= threshold else 0.0
        else:
            hits = 0
            for i in range(samples):
                result = majorant_ratio_quadrature(sorted(sample(i).tolist()), p, restarts, opt_seed)
                if result.ratio >= threshold:
                    hits += 1
            prob = hits / samples
        se = math.sqrt(prob * (1.0 - prob) / samples)
        points.append(GenericityPoint(size, prob, se, samples, threshold))
    return points
