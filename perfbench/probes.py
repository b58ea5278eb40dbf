"""Per-layer probes that need inputs of their own: the reflection kernel,
CLI start-up split by import, and in-process CLI command compute time."""

from __future__ import annotations

import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from trapnoise import cli
from trapnoise.configio import load_materials, load_stack, packaged_config
from trapnoise.constants import omega_from_hz
from trapnoise.layers import fresnel_stack

import tracing
from workloads import STACKS, cli_commands, cli_inputs, cli_suffix, python_env

REFLECTION_NODES = 1000     # per branch: propagating and evanescent
REFLECTION_REPEATS = 40
IMPORT_REPEATS = 3
IMPORT_CODE = ("import sys, time; t = time.perf_counter(); import trapnoise.cli; "
               "print(time.perf_counter() - t, 'scipy.stats' in sys.modules)")
SPLIT_CODE = ("import time; t0 = time.perf_counter(); import numpy; "
              "t1 = time.perf_counter(); import scipy.stats; "
              "print(t1 - t0, time.perf_counter() - t1)")


def reflection_ns_per_node() -> dict[str, float]:
    """fresnel_stack on a fixed batch of propagating and evanescent nodes."""
    materials = load_materials(packaged_config("materials", "default"))
    theta = np.linspace(0.0, math.pi / 2, REFLECTION_NODES, endpoint=False)
    t = np.geomspace(1e-3, 1e4, REFLECTION_NODES)
    u = np.concatenate([np.sin(theta), np.sqrt(1.0 + t * t)])
    omega = omega_from_hz(1e6)
    out = {}
    for name in STACKS:
        stack = load_stack(packaged_config("stacks", name), materials)
        times = []
        for _ in range(REFLECTION_REPEATS):
            t0 = time.perf_counter()
            fresnel_stack(stack, u, omega, 80.0)
            times.append(time.perf_counter() - t0)
        out[f"layers.reflection_ns_per_node.{name}"] = 1e9 * statistics.median(times) / u.size
    return out


def import_split(root: Path) -> dict[str, float]:
    """Seconds to import trapnoise.cli in a fresh interpreter, and what
    numpy and scipy.stats cost on their own in one (scipy.stats counts
    only while importing trapnoise.cli loads it)."""
    env = python_env(root)

    def run(code):
        proc = subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                              capture_output=True, text=True, check=True, timeout=120)
        return proc.stdout.split()

    plain, numpy_s, stats_s = [], [], []
    uses_stats = False
    for _ in range(IMPORT_REPEATS):
        seconds, loaded = run(IMPORT_CODE)
        plain.append(float(seconds))
        uses_stats = loaded == "True"
        t_numpy, t_stats = run(SPLIT_CODE)
        numpy_s.append(float(t_numpy))
        stats_s.append(float(t_stats))
    return {"cli.import_s": statistics.median(plain),
            "cli.import_s.numpy": statistics.median(numpy_s),
            "cli.import_s.scipy_stats": statistics.median(stats_s) if uses_stats else 0.0}


def _main_ms(args: list[str]) -> float:
    t0 = time.perf_counter()
    code = cli.main(args)
    elapsed = 1e3 * (time.perf_counter() - t0)
    if code != 0:
        raise RuntimeError(f"trapnoise {' '.join(args)} exited with {code}")
    return elapsed


def _fdt_args(threads: int | None, out: str) -> list[str]:
    """fdt with ``--threads`` when given and the CLI still has the flag."""
    args = ["fdt", "--out", out]
    if threads is None:
        return args
    try:
        cli.build_parser().parse_args([*args, "--threads", str(threads)])
    except SystemExit:
        return args
    return [*args, "--threads", str(threads)]


def cli_compute(workdir: Path, index: int, tracer: tracing.Tracer) -> dict[str, float]:
    """In-process ``cli.main`` per command after import, untraced; then once
    traced for the configio spans; then fdt at 1 and the default threads."""
    inputs = cli_inputs(workdir, index)
    commands = cli_commands(inputs, index)
    out = {}
    for name, args in commands.items():
        path = workdir / f"probe-{name}{cli_suffix(name)}"
        out[f"cli.{name}_compute_ms"] = _main_ms([*args, "--out", str(path)])
    fdt_out = str(workdir / "probe-threads.csv")
    for label, threads in (("threads1", 1), ("threads_default", None)):
        out[f"cli.fdt_compute_ms.{label}"] = _main_ms(_fdt_args(threads, fdt_out))

    first = len(tracer.spans)
    with tracing.installed(tracer):
        for name, args in commands.items():
            path = workdir / f"probe-{name}{cli_suffix(name)}"
            with tracer.span(f"probe/cli/{name}", "task", task=f"probe/cli/{name}"):
                cli.main([*args, "--out", str(path)])
    spans = tracer.spans[first:]
    out["configio.load_ms"] = 1e3 * sum(
        s.duration for s in spans
        if s.layer == "configio" and s.name.split(".")[1].startswith(("load", "read")))
    out["configio.write_ms"] = 1e3 * sum(
        s.duration for s in spans
        if s.layer == "configio" and s.name.split(".")[1].startswith("write"))
    return out
