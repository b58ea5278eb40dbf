"""Spans around the calls into each library layer, recorded from outside.

The traced run replaces public functions of the library modules, in the
namespaces their callers look them up in, with wrappers that record a span
(name, layer, start, end, parent, task id) plus counts taken from the return
value or exception.  Nothing in the library changes; the originals are put
back when the context exits.  Spans stay in memory until the run writes
them out.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from trapnoise import cli, inference, layers, noise, patches

import workloads


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    layer: str
    task: str | None
    start: float
    end: float
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; one stack of open spans per thread."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self.task: str | None = None
        self._task_root: int | None = None

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def span(self, name: str, layer: str, task: str | None = None, info: dict | None = None):
        stack = self._stack()
        parent = stack[-1] if stack else self._task_root
        sid = next(self._ids)
        if task is not None:
            self.task, self._task_root = task, sid
        stack.append(sid)
        record = Span(sid, parent, name, layer, self.task, time.perf_counter(), 0.0,
                      dict(info or {}))
        try:
            yield record
        except BaseException as exc:
            record.info["error"] = type(exc).__name__
            raise
        finally:
            record.end = time.perf_counter()
            stack.pop()
            if task is not None:
                self.task, self._task_root = None, None
            with self._lock:
                self.spans.append(record)

    def count(self, name: str) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + 1

    def wrap(self, fn, name: str, layer: str, describe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, layer) as record:
                before = dict(self.counts)
                try:
                    result = fn(*args, **kwargs)
                except Exception as exc:
                    if describe is not None:
                        record.info.update(describe(args, kwargs, None, exc))
                    raise
                finally:
                    record.info["counts"] = {k: v - before.get(k, 0)
                                             for k, v in self.counts.items()
                                             if v != before.get(k, 0)}
                if describe is not None:
                    record.info.update(describe(args, kwargs, result, None))
                return result
        return traced

    def counter(self, fn, name: str):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)
        return counted


# -- what each wrapper records -----------------------------------------------


def _evals(args, kwargs, result, exc):
    source = result if exc is None else exc
    return {"evaluations": int(getattr(source, "evaluations", 0))}


def _lm(args, kwargs, result, exc):
    source = result if exc is None else exc
    return {"n_iter": int(getattr(source, "n_iter", 0))}


def _spline(args, kwargs, result, exc):
    lam = kwargs.get("lam", args[3] if len(args) > 3 else None)
    return {"n": len(args[0]), "gcv": lam is None}


def _slope(args, kwargs, result, exc):
    return {"n": len(args[0])}


def _region(args, kwargs, result, exc):
    region, scene, patch_size = args[:3]
    exact = kwargs.get("exact", args[3] if len(args) > 3 else False)
    core = kwargs.get("core_halfwidth", 1.0e-3)
    return {"patch_um": round(patch_size * 1e6, 6), "exact": bool(exact),
            "direct_patches": direct_patch_count(region.rect, scene, patch_size, exact, core)}


def direct_patch_count(rect, scene, patch_size, exact, core_halfwidth) -> int:
    """Patches a region integral sums one by one (computed from geometry).

    Hybrid mode sums only the part of the region inside the core window
    around the ion; exact mode sums the whole region.
    """
    x0, x1, y0, y1 = rect
    if not exact:
        ix, iy = scene.ion_xy
        x0, x1 = max(x0, ix - core_halfwidth), min(x1, ix + core_halfwidth)
        y0, y1 = max(y0, iy - core_halfwidth), min(y1, iy + core_halfwidth)
        if x1 <= x0 or y1 <= y0:
            return 0

    def tiles(lo, hi):
        return int(-(-((hi - lo) / patch_size - 1e-12) // 1))

    return tiles(x0, x1) * tiles(y0, y1)


def _temp_fit(args, kwargs, result, exc):
    if result is None:
        return {}
    return {"lm_iters_simple": result.simple.fit.n_iter,
            "lm_iters_piecewise": result.piecewise.fit.n_iter}


# (module, attribute, span name, layer, describe)
def _targets():
    fit_calls = [
        (mod, name, f"inference.{name}", "inference", None)
        for mod in (inference, cli)
        for name in ("fit_freq_power_law", "fit_surface_models", "plateau_width")
    ]
    loaders = [
        (cli, name, f"configio.{name}", "configio", None)
        for name in ("load_materials", "load_stack", "load_circuit", "load_scene",
                     "load_temp_params", "load_surface_params", "read_heating_csv",
                     "write_csv", "write_heating_csv", "write_json_report")
    ]
    return [
        (noise, "fdt_noise", "noise.fdt_noise", "noise", _evals),
        (cli, "fdt_noise", "noise.fdt_noise", "noise", _evals),
        (noise, "greens_parallel", "layers.greens_parallel", "layers", _evals),
        (layers, "stack_reflection", "layers.stack_reflection", "layers", None),
        (layers, "adaptive_gk", "quadrature.adaptive_gk", "quadrature", _evals),
        (inference, "levenberg_marquardt", "leastsq.levenberg_marquardt", "leastsq", _lm),
        (inference, "fit_smoothing_spline", "smoothing.fit_smoothing_spline", "smoothing",
         _spline),
        (inference, "fit_temperature_models", "inference.fit_temperature_models",
         "inference", _temp_fit),
        (cli, "fit_temperature_models", "inference.fit_temperature_models",
         "inference", _temp_fit),
        (inference, "loglog_spline_slope", "inference.loglog_spline_slope", "inference",
         _slope),
        (cli, "loglog_spline_slope", "inference.loglog_spline_slope", "inference", _slope),
        *fit_calls,
        (patches, "zeta", "patches.zeta", "patches", None),
        (patches, "zeta_inverse", "patches.zeta_inverse", "patches", None),
        (cli, "zeta_share", "patches.zeta", "patches", None),
        (patches, "region_noise_integral", "patches.region_noise_integral", "patches",
         _region),
        *loaders,
        (cli, "main", "cli.main", "cli", None),
        (workloads, "run_cli", "cli.subprocess", "cli", None),
    ]


@contextmanager
def installed(tracer: Tracer):
    """Swap the traced wrappers in; restore the originals on exit."""
    saved = []
    try:
        for module, attr, name, layer, describe in _targets():
            if not hasattr(module, attr):   # a refactor moved the name away
                continue
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(original, name, layer, describe))
        saved.append((inference, "model_gamma2", inference.model_gamma2))
        inference.model_gamma2 = tracer.counter(inference.model_gamma2, "model_gamma2")
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


# -- analysis ----------------------------------------------------------------


def _covered(intervals: list[tuple[float, float]]) -> float:
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def self_times(spans: list[Span]) -> dict[str, float]:
    """Seconds per layer: span duration minus the time its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out: dict[str, float] = {}
    for s in spans:
        kids = [(max(a, s.start), min(b, s.end)) for a, b in children.get(s.id, [])]
        own = s.duration - _covered([k for k in kids if k[1] > k[0]])
        out[s.layer] = out.get(s.layer, 0.0) + own
    return out


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """The per-layer numbers named in BENCHMARK.json, from traced spans."""
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def named(name):
        return by_name.get(name, [])

    m: dict[str, float] = {}
    gk = named("quadrature.adaptive_gk")
    total_evals = sum(s.info["evaluations"] for s in gk)
    m["quadrature.evals_per_call"] = total_evals / len(gk) if gk else 0.0

    parent_of = {s.id: s.parent for s in spans}
    failed_fdt = {s.id for s in named("noise.fdt_noise") if "error" in s.info}

    def under_failed(s):
        p = s.parent
        while p is not None:
            if p in failed_fdt:
                return True
            p = parent_of.get(p)
        return False

    wasted = sum(s.info["evaluations"] for s in gk if under_failed(s))
    m["quadrature.wasted_eval_frac"] = wasted / total_evals if total_evals else 0.0
    greens = named("layers.greens_parallel")
    m["layers.greens_ns_per_eval"] = (
        1e9 * sum(s.duration for s in greens) / total_evals if total_evals else 0.0)
    fdt = named("noise.fdt_noise")
    m["noise.fdt_ms.solved"] = 1e3 * _mean(s.duration for s in fdt if "error" not in s.info)
    m["noise.fdt_ms.failed"] = 1e3 * _mean(s.duration for s in fdt if "error" in s.info)

    temp = [s for s in named("inference.fit_temperature_models") if "error" not in s.info]
    m["leastsq.residual_calls.temp"] = _mean(
        s.info["counts"].get("model_gamma2", 0) for s in temp)
    m["leastsq.lm_iters.simple"] = _mean(s.info["lm_iters_simple"] for s in temp)
    m["leastsq.lm_iters.piecewise"] = _mean(s.info["lm_iters_piecewise"] for s in temp)
    for short, name in (("temp", "fit_temperature_models"), ("freq", "fit_freq_power_law"),
                        ("surface", "fit_surface_models")):
        m[f"inference.{short}_fit_ms"] = 1e3 * _mean(
            s.duration for s in named(f"inference.{name}"))
    splines = named("smoothing.fit_smoothing_spline")
    slopes = named("inference.loglog_spline_slope")
    for n in (9, 40, 300):
        m[f"smoothing.gcv_fit_ms.n{n}"] = 1e3 * _mean(
            s.duration for s in splines if s.info["n"] == n and s.info["gcv"])
        m[f"smoothing.refit_ms.n{n}"] = 1e3 * _mean(
            s.duration for s in splines if s.info["n"] == n and not s.info["gcv"])
        m[f"inference.slope_ms.n{n}"] = 1e3 * _mean(
            s.duration for s in slopes if s.info["n"] == n)
    regions = named("patches.region_noise_integral")
    for label, size in (("2um", 2.0), ("1um", 1.0), ("0.5um", 0.5)):
        m[f"patches.region_integral_ms.{label}"] = 1e3 * _mean(
            s.duration for s in regions if not s.info["exact"] and s.info["patch_um"] == size)
    m["patches.region_integral_ms.exact"] = 1e3 * _mean(
        s.duration for s in regions if s.info["exact"])
    return m

