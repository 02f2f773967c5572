"""Span and count recorder for the traced run, installed from outside the package.

The public functions of each ``twpacorr`` module are wrapped in the module
namespaces where the CLI, ``linewidth`` and ``estimators`` look them up, so
the package itself is unchanged. Each call records a span (name, start, end,
parent); a layer's self time is its spans' durations minus the time their
child spans cover.
"""

from __future__ import annotations

import inspect
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from oracles import comb_bins

#: (module where the name is looked up, attribute, span name). The span name
#: is the layer that defines the function.
WRAPPED = (
    ("cli", "load_config", "config.load_config"),
    ("cli", "run_experiment", "acquisition.run_experiment"),
    ("linewidth", "run_experiment", "acquisition.run_experiment"),
    ("cli", "shot_rng", "acquisition.shot_rng"),
    ("cli", "synthesize_baseband_pair", "acquisition.synthesize_baseband_pair"),
    ("cli", "estimate_covariance", "estimators.estimate_covariance"),
    ("cli", "infer_tmsvs", "estimators.infer_tmsvs"),
    ("cli", "phase_sweep", "estimators.phase_sweep"),
    ("linewidth", "phase_sweep", "estimators.phase_sweep"),
    ("linewidth", "inferred_pearson", "estimators.inferred_pearson"),
    ("cli", "pearson_xx", "gaussian.pearson_xx"),
    ("estimators", "pearson_xx", "gaussian.pearson_xx"),
    ("cli", "rotate_quadrature_array", "gaussian.rotate_quadrature_array"),
    ("estimators", "rotate_quadrature_array", "gaussian.rotate_quadrature_array"),
    ("cli", "physicality_min_eigenvalue", "gaussian.physicality_min_eigenvalue"),
    ("cli", "squeezing_db", "gaussian.squeezing_db"),
    ("cli", "sweep_detuning", "linewidth.sweep_detuning"),
    ("cli", "fit_model", "linewidth.fit_model"),
    ("cli", "compare_windows", "linewidth.compare_windows"),
)


def _normals_per_shot_stage(band, config) -> int:
    """Standard normals one (shot, stage) draws: 4 per bin plus trace noise."""
    n_samples = round(config.sample_rate * config.window.tau)
    noise = 4 * n_samples if config.added_noise_quanta > 0.0 else 0
    return 4 * comb_bins(band.band_halfwidth, band.bin_spacing) + noise


def _count_run_experiment(counts, arguments, result) -> None:
    per_stage = _normals_per_shot_stage(arguments["band"], arguments["config"])
    counts["acquisition.run_experiment_normals"] += 2 * arguments["config"].n_shots * per_stage


def _count_synthesis(counts, arguments, result) -> None:
    band = arguments["band"]
    counts["acquisition.synthesize_normals"] += 4 * comb_bins(band.band_halfwidth, band.bin_spacing)


def _count_phase_sweep(counts, arguments, result) -> None:
    counts["estimators.phase_sweep_angles"] += len(arguments["alphas"])


def _count_fit(counts, arguments, result) -> None:
    counts["linewidth.fit_nfev"] += result.n_iterations


COUNTERS = {
    "acquisition.run_experiment": _count_run_experiment,
    "acquisition.synthesize_baseband_pair": _count_synthesis,
    "estimators.phase_sweep": _count_phase_sweep,
    "linewidth.fit_model": _count_fit,
}


class Tracer:
    """Spans kept in memory as [name, start_ns, end_ns, parent_index]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), 0, self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter_ns()

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None

        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if counter:
                counter(self.counts, signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    @contextmanager
    def installed(self, modules: dict):
        """Wrap every WRAPPED function in ``modules`` (name -> module) for the block."""
        originals = []
        try:
            for module_name, attribute, span_name in WRAPPED:
                module = modules[module_name]
                original = getattr(module, attribute)
                originals.append((module, attribute, original))
                setattr(module, attribute, self.wrap(span_name, original))
            yield self
        finally:
            for module, attribute, original in reversed(originals):
                setattr(module, attribute, original)

    def summary(self) -> tuple[dict, dict, Counter]:
        """Per span name: inclusive seconds, self seconds and calls."""
        child_ns = defaultdict(int)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        inclusive, self_time = defaultdict(float), defaultdict(float)
        calls = Counter()
        for index, (name, start, end, _) in enumerate(self.spans):
            inclusive[name] += (end - start) / 1e9
            self_time[name] += (end - start - child_ns[index]) / 1e9
            calls[name] += 1
        return inclusive, self_time, calls
