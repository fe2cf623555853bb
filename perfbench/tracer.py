"""Spans around calls into expsumlab's public functions, recorded from outside.

The program carries no instrumentation of its own, so the tracer replaces each
target function with a wrapper in every ``expsumlab`` namespace that binds it
by name (``from .expsum import even_moment`` in ``moments`` binds a second
name for the same object), and methods on their class.  Calls the package
makes through those names -- ``cli`` into ``moments``, ``moments`` into
``expsum``, ``majorant`` into ``expsum`` -- are then recorded as nested
spans.  Spans are held in memory; the caller writes them out once.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from typing import Callable


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _even_moment_counts(args, kwargs, result) -> dict[str, int]:
    freqs = _arg(args, kwargs, 0, "spectrum").freqs
    return {"terms_total": len(freqs), "span_max": max(freqs) - min(freqs)}


def _quadrature_counts(args, kwargs, result) -> dict[str, int]:
    spectrum = _arg(args, kwargs, 0, "spectrum")
    nodes = _arg(args, kwargs, 2, "nodes")
    # Computed count: the phase matrix is nodes x merged terms.
    return {"nodes_total": nodes, "phase_entries": nodes * len(set(spectrum.freqs))}


def _work_counts(args, kwargs, result) -> dict[str, int]:
    return {"work": result.work}


def _exact_counts(args, kwargs, result) -> dict[str, int]:
    times = _arg(args, kwargs, 0, "times")
    n = _arg(args, kwargs, 1, "n")
    return {"tuples": len(times) ** (2 * n)}


def _suite_counts(args, kwargs, result) -> dict[str, int]:
    return {"checked": sum(report.checked for report in result)}


# Span name ("<module>.<attribute path>" inside expsumlab) -> the function
# that computes counters from (args, kwargs, result) of each call, and the
# names of those counters.
TARGETS: dict[str, tuple[Callable | None, tuple[str, ...]]] = {
    "processes.sample_poisson_path": (None, ()),
    "processes.sample_random_walk": (None, ()),
    "processes.SeedSpec.generator": (None, ()),
    "expsum.even_moment": (_even_moment_counts, ("terms_total", "span_max")),
    "expsum.representation_table": (None, ()),
    "expsum.even_norm_coeff": (None, ()),
    "expsum.FrequencySpectrum.with_phases": (None, ()),
    "expsum.lp_norm_quadrature": (_quadrature_counts, ("nodes_total", "phase_entries")),
    "moments.mc_even_moment": (None, ()),
    "moments.mc_general_moment": (None, ()),
    "moments.exact_even_moment_poisson": (_exact_counts, ("tuples",)),
    "moments.coincidence_probability_poisson": (None, ()),
    "moments.truncated_poisson_pmf": (None, ()),
    "moments.interval_coefficients": (None, ()),
    "majorant.majorant_ratio": (None, ()),
    "majorant.majorant_ratio_quadrature": (None, ()),
    "majorant.genericity_experiment": (None, ()),
    "lattice.shell_count_fast": (_work_counts, ("work",)),
    "lattice.shell_count_brute": (_work_counts, ("work",)),
    "lattice.shell_sup_ratio": (None, ()),
    "lattice.divisor_summatory": (None, ()),
    "lattice.diophantine_count": (None, ()),
    "bounds.verification_suite": (_suite_counts, ("checked",)),
    "cli.run": (None, ()),
}

# Counters that combine by maximum; every other counter is summed.
_MAX_COUNTERS = {"span_max"}


class Tracer:
    """Installs wrappers on enter, removes them on exit, keeps the spans."""

    def __init__(self) -> None:
        self.job = ""
        # (name, job, parent span index or -1, start, end)
        self.spans: list[tuple[str, str, int, float, float] | None] = []
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        for name, (count, _counter_names) in TARGETS.items():
            self._install(name, count)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _install(self, name: str, count: Callable | None) -> None:
        module_name, *path = name.split(".")
        owner = sys.modules["expsumlab." + module_name]
        for part in path[:-1]:
            owner = getattr(owner, part)
        attr = path[-1]
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        wrapper = self._wrap(name, original, count)
        if isinstance(owner, type):
            self._restore.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            return
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "expsumlab" and not mod_name.startswith("expsumlab."):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, key, original))
                    setattr(module, key, wrapper)

    def _wrap(self, name: str, fn: Callable, count: Callable | None) -> Callable:
        spans = self.spans
        stack = self._stack
        counters = self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, self.job, parent, start, end)
            if count is not None:
                for key, value in count(args, kwargs, result).items():
                    full = f"{name}.{key}"
                    if key in _MAX_COUNTERS:
                        counters[full] = max(counters[full], value)
                    else:
                        counters[full] += value
            return result

        return traced

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer numbers of the recorded spans.

        ``self_s`` is a span's duration minus the durations of its child
        spans.  Two ratios are attributed through direct parents: objective
        evaluations per majorant search, and coincidence-DP calls per tuple of
        the exact engine (whose cache answers the rest).
        """
        calls: Counter = Counter()
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        child_time = [0.0] * len(self.spans)
        under: Counter = Counter()
        for name, _job, parent, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
                under[(name, self.spans[parent][0])] += 1
        for index, (name, _job, _parent, start, end) in enumerate(self.spans):
            calls[name] += 1
            total[name] += end - start
            own[name] += end - start - child_time[index]
        metrics: dict[str, float] = {}
        for name, (_count, counter_names) in TARGETS.items():
            metrics[f"{name}.calls"] = calls[name]
            metrics[f"{name}.total_s"] = total[name]
            metrics[f"{name}.self_s"] = own[name]
            for key in counter_names:
                metrics[f"{name}.{key}"] = self.counters.get(f"{name}.{key}", 0)

        tuples = metrics["moments.exact_even_moment_poisson.tuples"]
        dp_calls = under[("moments.coincidence_probability_poisson", "moments.exact_even_moment_poisson")]
        metrics["moments.exact.cache_hit_ratio"] = 1.0 - dp_calls / tuples if tuples else 0.0

        searches = calls["majorant.majorant_ratio"] + calls["majorant.majorant_ratio_quadrature"]
        evals = (
            under[("expsum.even_norm_coeff", "majorant.majorant_ratio")]
            + under[("expsum.lp_norm_quadrature", "majorant.majorant_ratio_quadrature")]
        )
        metrics["majorant.evals_per_call"] = evals / searches if searches else 0.0
        return metrics

    def span_records(self, origin: float) -> list[dict]:
        """The spans as JSON-ready records, times in seconds from ``origin``."""
        return [
            {
                "id": index,
                "name": name,
                "job": job,
                "parent": parent,
                "start": start - origin,
                "end": end - origin,
            }
            for index, (name, job, parent, start, end) in enumerate(self.spans)
        ]
