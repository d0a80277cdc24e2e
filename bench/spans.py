"""Span tracing for the traced run, from outside the package.

`patched` replaces each traced public function by a wrapper at every name it
is looked up through (a module attribute, or a name another module imported),
so calls between the package's own modules are seen as well: `analytic.ser`
calls the wrapped `outage_probability`, `montecarlo` the wrapped `sndr`.  A
span records a name, start, end, parent span and job id (and, for sampling
functions, the number of samples).  Spans are kept in compact arrays and
written out once the run ends.
"""

from __future__ import annotations

import functools
import inspect
import tracemalloc
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# Traced function -> (module, attribute) pairs it is looked up through, and the
# parameter holding its amount of work in samples (None: no sample count).
TARGETS = {
    "cli.build_parser": ([("cli", "build_parser")], None),
    "cli.parse_config": ([("cli", "parse_config")], None),
    "analytic.outage_probability": ([("analytic", "outage_probability")], None),
    "analytic.ser": ([("analytic", "ser")], None),
    "analytic.ser_floor_quadrature": ([("analytic", "ser_floor_quadrature")], None),
    "analytic.ser_asymptotic": ([("analytic", "ser_asymptotic")], None),
    "specfun.bessel_k1_scaled": ([("specfun", "bessel_k1_scaled")], None),
    "specfun.erfc": ([("specfun", "erfc")], None),
    "model.derived_constants": ([("model", "derived_constants"), ("analytic", "derived_constants")], None),
    "model.sndr": ([("model", "sndr"), ("montecarlo", "sndr")], "rho1"),
    "model.relaying_gain": ([("model", "relaying_gain"), ("montecarlo", "relaying_gain")], "rho1"),
    "montecarlo.chunk_rng": ([("montecarlo", "chunk_rng")], None),
    "montecarlo.sample_channel_gains": ([("montecarlo", "sample_channel_gains")], "size"),
    "montecarlo.mc_outage": ([("montecarlo", "mc_outage")], "mc"),
    "montecarlo.mc_ser_expectation": ([("montecarlo", "mc_ser_expectation")], "mc"),
    "montecarlo.simulate_signal_chain": ([("montecarlo", "simulate_signal_chain")], "count"),
    "montecarlo.mc_ser_signal_level": ([("montecarlo", "mc_ser_signal_level")], "mc"),
}
MAIN = "cli.main"
ESTIMATORS = ("montecarlo.mc_outage", "montecarlo.mc_ser_expectation", "montecarlo.mc_ser_signal_level")


class Tracer:
    """In-memory span store; spans nest through a stack (one thread)."""

    def __init__(self):
        self.names = [MAIN, *TARGETS]
        self.name = array("h")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job = array("i")
        self.work = array("q")
        self.source = array("b")
        self._stack = [-1]
        self.job_id = -1
        self.source_id = 0

    def call(self, name_id: int, work: int, fn, *args, **kwargs):
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.job.append(self.job_id)
        self.work.append(work)
        self.source.append(self.source_id)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            self._stack.pop()
            self.start[idx] = t0
            self.end[idx] = t1

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "names": np.array(self.names),
            "name": np.frombuffer(self.name, dtype=np.int16).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "job": np.frombuffer(self.job, dtype=np.int32).copy(),
            "work": np.frombuffer(self.work, dtype=np.int64).copy(),
            "source": np.frombuffer(self.source, dtype=np.int8).copy(),
        }


def _work_of(value) -> int:
    """Samples in a work argument: an McConfig, a count, or an array of draws."""
    if hasattr(value, "n_samples"):
        return value.n_samples
    return value if isinstance(value, int) else int(np.size(value))


def _wrapper(tracer: Tracer, name: str, fn, work_param: str | None):
    name_id = tracer.names.index(name)
    if work_param is None:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer.call(name_id, 0, fn, *args, **kwargs)
        return traced
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def traced_work(*args, **kwargs):
        work = _work_of(signature.bind(*args, **kwargs).arguments[work_param])
        return tracer.call(name_id, work, fn, *args, **kwargs)
    return traced_work


@contextmanager
def _patch(replacements):
    """Set module attributes for the duration of the block, then restore them."""
    saved = [(module, attr, getattr(module, attr)) for module, attr, _ in replacements]
    try:
        for module, attr, value in replacements:
            setattr(module, attr, value)
        yield
    finally:
        for module, attr, value in saved:
            setattr(module, attr, value)


def patched(tracer: Tracer, modules: dict):
    """Context that routes every traced function of `modules` through `tracer`.

    A traced function or lookup site that the package no longer has raises
    AttributeError, so a renamed layer stops the traced run instead of
    reading as zero calls.
    """
    replacements = []
    for name, (sites, work_param) in TARGETS.items():
        owner, attr = name.split(".")
        wrapped = _wrapper(tracer, name, getattr(modules[owner], attr), work_param)
        replacements += [(modules[mod], site, wrapped) for mod, site in sites]
    return _patch(replacements)


def memory_probe(modules: dict, peaks_mb: list):
    """Context that records the tracemalloc peak of each mc_ser_signal_level call."""
    fn = modules["montecarlo"].mc_ser_signal_level

    @functools.wraps(fn)
    def probed(*args, **kwargs):
        tracemalloc.start()
        try:
            return fn(*args, **kwargs)
        finally:
            peaks_mb.append(tracemalloc.get_traced_memory()[1] / 2**20)
            tracemalloc.stop()
    return _patch([(modules["montecarlo"], "mc_ser_signal_level", probed)])


# Per-layer metrics: (name, unit, kind).  A "count" reads what the workload
# itself did (0 when it never reaches the layer); a time or rate that the
# workload never reaches is read from the companion pass instead.
LAYER_METRICS = (
    ("cli.main.self_ms", "ms", "time"),
    ("cli.build_parser.ms", "ms", "time"),
    ("cli.parse_config.ms", "ms", "time"),
    ("analytic.outage_probability.calls", "count", "count"),
    ("analytic.outage_probability.us", "us", "time"),
    ("analytic.ser.ms", "ms", "time"),
    ("analytic.ser.cdf_evals", "count", "count"),
    ("analytic.ser_floor_quadrature.ms", "ms", "time"),
    ("analytic.ser_asymptotic.us", "us", "time"),
    ("specfun.bessel_k1_scaled.calls", "count", "count"),
    ("specfun.bessel_k1_scaled.us", "us", "time"),
    ("specfun.erfc.calls", "count", "count"),
    ("model.derived_constants.calls", "count", "count"),
    ("model.sndr.msamples_per_s", "Msamples/s", "time"),
    ("model.relaying_gain.msamples_per_s", "Msamples/s", "time"),
    ("montecarlo.sample_channel_gains.msamples_per_s", "Msamples/s", "time"),
    ("montecarlo.mc_outage.msamples_per_s", "Msamples/s", "time"),
    ("montecarlo.mc_outage.self_ms", "ms", "time"),
    ("montecarlo.mc_ser_expectation.msamples_per_s", "Msamples/s", "time"),
    ("montecarlo.simulate_signal_chain.msamples_per_s", "Msamples/s", "time"),
    ("montecarlo.mc_ser_signal_level.msamples_per_s", "Msamples/s", "time"),
    ("montecarlo.chunk_rng.calls", "count", "count"),
)


def layer_metrics(spans: dict, source: int, jobs: set[int], rows: int) -> dict[str, float | None]:
    """Per-layer figures over the spans of `source` that belong to `jobs`.

    Times are medians per call; rates are total samples over total time;
    counts are per completed job, except `derived_constants.calls` (per CSV
    row), `ser.cdf_evals` (outage calls inside one `ser` call) and
    `chunk_rng.calls` (chunks per Monte-Carlo estimate).  A time or rate of a
    layer with no spans is None.
    """
    names = list(spans["names"])
    keep = (spans["source"] == source) & np.isin(spans["job"], np.fromiter(jobs, int, len(jobs)))
    idx = np.flatnonzero(keep)
    name = spans["name"][idx]
    dur = spans["end"][idx] - spans["start"][idx]
    work = spans["work"][idx]
    position = np.full(len(keep) + 1, -1)
    position[idx] = np.arange(len(idx))
    parent = position[spans["parent"][idx]]          # a root's parent -1 maps to -1

    def sel(fn_name):
        return name == names.index(fn_name)

    def count(fn_name):
        return int(sel(fn_name).sum())

    def median_of(fn_name, scale):
        mask = sel(fn_name)
        return float(np.median(dur[mask])) * scale if mask.any() else None

    def rate(fn_name):
        mask = sel(fn_name)
        return float(work[mask].sum() / dur[mask].sum()) / 1e6 if mask.any() else None

    def self_median(fn_name, child_prefixes, scale):
        mask = sel(fn_name)
        if not mask.any():
            return None
        child = np.zeros(len(idx))
        counted = np.array([n.startswith(child_prefixes) for n in names])[name] & (parent >= 0)
        np.add.at(child, parent[counted], dur[counted])
        return float(np.median(dur[mask] - child[mask])) * scale

    n_jobs = max(len(jobs), 1)
    ser_spans = np.flatnonzero(sel("analytic.ser"))
    in_ser = np.isin(parent, ser_spans) & sel("analytic.outage_probability")
    estimates = sum(count(e) for e in ESTIMATORS)
    return {
        "cli.main.self_ms": self_median(MAIN, ("analytic.", "montecarlo."), 1e3),
        "cli.build_parser.ms": median_of("cli.build_parser", 1e3),
        "cli.parse_config.ms": median_of("cli.parse_config", 1e3),
        "analytic.outage_probability.calls": count("analytic.outage_probability") / n_jobs,
        "analytic.outage_probability.us": median_of("analytic.outage_probability", 1e6),
        "analytic.ser.ms": median_of("analytic.ser", 1e3),
        "analytic.ser.cdf_evals": int(in_ser.sum()) / len(ser_spans) if len(ser_spans) else 0.0,
        "analytic.ser_floor_quadrature.ms": median_of("analytic.ser_floor_quadrature", 1e3),
        "analytic.ser_asymptotic.us": median_of("analytic.ser_asymptotic", 1e6),
        "specfun.bessel_k1_scaled.calls": count("specfun.bessel_k1_scaled") / n_jobs,
        "specfun.bessel_k1_scaled.us": median_of("specfun.bessel_k1_scaled", 1e6),
        "specfun.erfc.calls": count("specfun.erfc") / n_jobs,
        "model.derived_constants.calls": count("model.derived_constants") / max(rows, 1),
        "model.sndr.msamples_per_s": rate("model.sndr"),
        "model.relaying_gain.msamples_per_s": rate("model.relaying_gain"),
        "montecarlo.sample_channel_gains.msamples_per_s": rate("montecarlo.sample_channel_gains"),
        "montecarlo.mc_outage.msamples_per_s": rate("montecarlo.mc_outage"),
        "montecarlo.mc_outage.self_ms": self_median(
            "montecarlo.mc_outage", ("montecarlo.sample_channel_gains", "model.sndr"), 1e3),
        "montecarlo.mc_ser_expectation.msamples_per_s": rate("montecarlo.mc_ser_expectation"),
        "montecarlo.simulate_signal_chain.msamples_per_s": rate("montecarlo.simulate_signal_chain"),
        "montecarlo.mc_ser_signal_level.msamples_per_s": rate("montecarlo.mc_ser_signal_level"),
        "montecarlo.chunk_rng.calls": count("montecarlo.chunk_rng") / estimates if estimates else 0.0,
    }
