"""The four benchmark workloads: seeded inputs and the tasks that run them.

Each workload is a list of :class:`Task` objects run one at a time, in a
closed loop with one client.  A task's ``id`` names its inputs and is the
key of its reference output in ``reference.json``.

Why these workloads (each stresses layers the others leave idle):

* ``fdt-grid`` -- ``fdt_noise`` over the frequency, height and temperature
  range the CLI and README advertise, on both packaged stacks, plus the
  README example point.  Nearly all time is in materials -> layers ->
  quadrature -> noise.  The points that fail at the parent commit stay in
  the grid, so a convergence fix shows up as fewer failures and more solved
  tasks per second.
* ``heating-inference`` -- the analysis chain on synthetic heating-rate
  data: global temperature-model fits, per-temperature frequency fits, and
  surface-model fits with spline slopes at 9, 40 and 300 points.  Only
  ``leastsq`` and ``smoothing`` do real work here; the 300-point tasks show
  how smoothing cost grows with point count, the 9-point tasks are what the
  CLI default produces.  It is not in BENCHMARK.json: its throughput
  spread over ten runs was about 0.2 of its median on a shared 2-core
  machine.  Every traced run still makes one pass of it, so its layers
  are measured, and it can be run by name.
* ``patch-zeta`` -- the patch-noise share on the packaged scene in hybrid
  mode at 2, 1 and 0.5 um, in exact mode at 5 and 2 um, and with the ion at
  50 um; plus ``zeta_inverse``.  Patch-sum cost scales with
  (core window / patch size)^2; the second ion height keeps any core-size
  rule tied to ion height honest.
* ``cli-packaged`` -- every subcommand as a fresh ``python -m trapnoise.cli``
  process with default flags on packaged inputs.  Start-up is most of each
  call; this is the only workload that measures ``cli`` and ``configio``.

Seeding: the fdt grid is a fixed physics input in a fixed order.  The run
seed sets the task order of the other workloads, the patch ratios and zeta
targets, and which surface datasets (with their bootstrap seeds) and which
CLI dataset a run uses.  Synthetic datasets come from pools of generator
seeds with a recorded reference for every pool member, so any run seed is
checked against the parent's output.
"""

from __future__ import annotations

import os
import subprocess
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

from trapnoise import inference, noise, patches
from trapnoise.configio import (
    load_materials,
    load_scene,
    load_stack,
    load_surface_params,
    load_temp_params,
    make_manifest,
    packaged_config,
    write_heating_csv,
)
from trapnoise.constants import heating_rate_from_noise, omega_from_hz

IN_PROCESS = ("fdt-grid", "heating-inference", "patch-zeta")

STACKS = ("sapphire-ybco", "sapphire-ybco-au")
FDT_FREQS_HZ = (1e5, 1e6, 1e7)
FDT_HEIGHTS_UM = (30.0, 225.0, 1000.0)
FDT_TEMPS_K = (20.0, 80.0, 95.0, 200.0)
README_POINT = ("sapphire-ybco-au", 1e6, 225.0, 70.0)

# the CLI's default synth grid; also where spline slopes are compared
DEFAULT_TEMPS_K = (15.0, 40.0, 60.0, 80.0, 90.0, 100.0, 120.0, 160.0, 200.0)
NOISE_FRAC = 0.1
TEMP_KINDS = {"temp-piecewise": "gamma2", "temp-simple": "gamma1"}
# Every run fits the same temperature datasets: their fit cost differs by 5x
# from dataset to dataset, so a seeded pick moved throughput by a fifth.
TEMP_DATASETS = 12      # per temperature model
SURFACE_KINDS = ("power", "arrhenius")
SURFACE_SIZES = {9: 200, 40: 200, 300: 20}   # points -> bootstrap refits
SURFACE_POOL = 4
PLATEAU_TOL = 0.1

SCENE_HEIGHTS_UM = (225.0, 50.0)
ZETA_CASES = (          # (ion height um, patch um, exact)
    (225.0, 2.0, False), (225.0, 1.0, False), (225.0, 0.5, False),
    (225.0, 5.0, True), (225.0, 2.0, True),
    (50.0, 2.0, False), (50.0, 1.0, False),
)
ZINV_PATCH_UM = 1.0     # the CLI default patch size
ZINV_COUNT = 4

CLI_POOL = 4
# Each command runs twice per pass: start-up time on a shared machine swings
# by a fifth within seconds, and eight samples per pass are too few.
CLI_ROUNDS = 2


@dataclass(frozen=True)
class Task:
    """One unit of closed-loop work.

    ``id`` names the inputs and keys the reference; ``kind`` selects the
    summary and the check in :mod:`verify`; ``info`` carries what the check
    needs beyond the output (ratios, targets, scene names).
    """

    id: str
    kind: str
    run: Callable[[], object]
    info: dict = field(default_factory=dict)


def dataset_seed(kind: str, index: int) -> int:
    """Generator seed of pool member ``index`` of a dataset family."""
    base = {"temp-piecewise": 1000, "temp-simple": 2000, "power": 3000,
            "arrhenius": 4000, "cli": 5000}[kind]
    return base + index


def surface_temps(n: int) -> list[float]:
    if n == len(DEFAULT_TEMPS_K):
        return list(DEFAULT_TEMPS_K)
    return [float(t) for t in np.linspace(DEFAULT_TEMPS_K[0], DEFAULT_TEMPS_K[-1], n)]


# ---------------------------------------------------------------------------
# fdt-grid


def fdt_id(stack: str, f_hz: float, height_um: float, temp_k: float) -> str:
    return f"fdt/{stack}/{f_hz:g}Hz/{height_um:g}um/{temp_k:g}K"


def fdt_tasks() -> list[Task]:
    """The grid in a fixed order: a cheap point that follows a failing one
    runs on a cold cache, so shuffling would move the median latency."""
    materials = load_materials(packaged_config("materials", "default"))
    stacks = {name: load_stack(packaged_config("stacks", name), materials)
              for name in STACKS}
    points = [(s, f, d, t) for s in STACKS for f in FDT_FREQS_HZ
              for d in FDT_HEIGHTS_UM for t in FDT_TEMPS_K]
    points.append(README_POINT)
    tasks = []
    for s, f, d, t in points:
        def run(stack=stacks[s], omega=omega_from_hz(f), t=t, d=d * 1e-6):
            return noise.fdt_noise(stack, omega, t, d)
        task_id = fdt_id(s, f, d, t)
        if (s, f, d, t) == README_POINT:
            task_id = "fdt/readme-example"
        tasks.append(Task(task_id, "fdt", run))
    return tasks


# ---------------------------------------------------------------------------
# heating-inference


def temp_dataset(kind: str, index: int):
    params = load_temp_params(packaged_config("synth", kind))
    return inference.synth_dataset(
        TEMP_KINDS[kind], params, DEFAULT_TEMPS_K, sorted(params.gamma0),
        NOISE_FRAC, dataset_seed(kind, index),
    )


def surface_curve(kind: str, n: int, index: int):
    params = load_surface_params(packaged_config("synth", f"surface-{kind}"), kind)
    return inference.synth_surface(
        kind, params, surface_temps(n), NOISE_FRAC, dataset_seed(kind, index)
    )


def _temp_task(kind: str, index: int) -> list[Task]:
    dataset = temp_dataset(kind, index)
    name = f"{kind}/ds{index:02d}"

    def run_temp():
        comparison = inference.fit_temperature_models(dataset)
        width = inference.plateau_width(comparison.piecewise.params, PLATEAU_TOL)
        return comparison, width

    tasks = [Task(f"temp/{name}", "temp", run_temp)]
    by_temp: dict[float, list] = {}
    for r in dataset.records:
        by_temp.setdefault(r.temperature, []).append(
            (omega_from_hz(r.f_secular), r.gamma, r.sigma_gamma))
    for temp_k, points in sorted(by_temp.items()):
        tasks.append(Task(f"freq/{name}/{temp_k:g}K", "freq",
                          lambda points=points: inference.fit_freq_power_law(points)))
    return tasks


def _surface_task(kind: str, n: int, index: int) -> Task:
    curve = surface_curve(kind, n, index)
    n_boot = SURFACE_SIZES[n]

    def run():
        fits = inference.fit_surface_models(curve)
        slope = inference.loglog_spline_slope(
            curve, n_boot=n_boot, seed=dataset_seed(kind, index))
        return fits, slope

    return Task(f"surface/{kind}/n{n}/ds{index:02d}", "surface", run)


def heating_pool_tasks() -> list[Task]:
    """Every dataset any seed can use; the reference covers all of them."""
    tasks = []
    for kind in TEMP_KINDS:
        for i in range(TEMP_DATASETS):
            tasks += _temp_task(kind, i)
    for kind in SURFACE_KINDS:
        for n in SURFACE_SIZES:
            tasks += [_surface_task(kind, n, i) for i in range(SURFACE_POOL)]
    return tasks


def heating_tasks(seed: int) -> list[Task]:
    rng = np.random.default_rng([seed, 1])
    tasks = []
    for kind in TEMP_KINDS:
        for i in range(TEMP_DATASETS):
            tasks += _temp_task(kind, i)
    for kind in SURFACE_KINDS:
        for n in SURFACE_SIZES:
            tasks.append(_surface_task(kind, n, int(rng.integers(SURFACE_POOL))))
    return _shuffled(tasks, seed)


# ---------------------------------------------------------------------------
# patch-zeta


def scenes() -> dict[float, object]:
    base = load_scene(packaged_config("scenes", "ybco-chip"))
    return {h: replace(base, ion_height=h * 1e-6) for h in SCENE_HEIGHTS_UM}


def zeta_id(height_um: float, patch_um: float, exact: bool) -> str:
    return f"zeta/{height_um:g}um/{'exact' if exact else 'hybrid'}/{patch_um:g}um"


def patch_tasks(seed: int | None = None) -> list[Task]:
    """Zeta cases at seeded ratios, plus zeta_inverse at seeded targets.

    With ``seed=None`` every ratio is 1 (the reference set-up).
    """
    rng = np.random.default_rng([0 if seed is None else seed, 2])
    scene_by_height = scenes()
    tasks = []
    for height, patch_um, exact in ZETA_CASES:
        ratio = 1.0 if seed is None else float(rng.uniform(0.2, 5.0))

        def run(scene=scene_by_height[height], ratio=ratio,
                size=patch_um * 1e-6, exact=exact):
            return patches.zeta(scene, ratio, size, exact=exact)

        tasks.append(Task(zeta_id(height, patch_um, exact), "zeta", run,
                          {"f_ratio": ratio, "height_um": height}))
    if seed is not None:
        for target in rng.uniform(0.05, 0.95, ZINV_COUNT):
            def run(target=float(target)):
                return patches.zeta_inverse(
                    scene_by_height[225.0], target, ZINV_PATCH_UM * 1e-6)
            tasks.append(Task(f"zinv/225um/{ZINV_PATCH_UM:g}um/{target:.6f}", "zinv",
                              run, {"target": float(target),
                                    "ref": zeta_id(225.0, ZINV_PATCH_UM, False)}))
    return _shuffled(tasks, seed)


# ---------------------------------------------------------------------------
# cli-packaged


def cli_inputs(workdir: Path, index: int) -> dict[str, Path]:
    """Fit and taf inputs, written as the ``synth`` command would."""
    seed = dataset_seed("cli", index)
    params = load_temp_params(packaged_config("synth", "temp-piecewise"))
    rates = inference.synth_dataset(
        "gamma2", params, DEFAULT_TEMPS_K, sorted(params.gamma0), NOISE_FRAC, seed)
    surface_params = load_surface_params(
        packaged_config("synth", "surface-power"), "power")
    pts = inference.synth_surface(
        "power", surface_params, DEFAULT_TEMPS_K, NOISE_FRAC, seed)
    omega = omega_from_hz(1e6)
    surface = inference.HeatingDataset(tuple(
        inference.HeatingRecord(t, 1e6, heating_rate_from_noise(s, omega),
                                heating_rate_from_noise(sg, omega))
        for t, s, sg in pts))
    paths = {"rates": workdir / "rates.csv", "surface": workdir / "surface.csv"}
    manifest = make_manifest("synth", seed=seed)
    write_heating_csv(paths["rates"], rates, manifest)
    write_heating_csv(paths["surface"], surface, manifest)
    return paths


def cli_commands(inputs: dict[str, Path], index: int) -> dict[str, list[str]]:
    """Subcommand name -> arguments (``--out`` is added per call)."""
    rates, surface = str(inputs["rates"]), str(inputs["surface"])
    return {
        "fdt": ["fdt"],
        "jnn": ["jnn"],
        "zeta": ["zeta"],
        "synth": ["synth", "--model", "gamma2", "--seed",
                  str(dataset_seed("cli", index))],
        "fit_temp": ["fit", "--data", rates, "--model", "temp"],
        "fit_freq": ["fit", "--data", rates, "--model", "freq"],
        "fit_surface": ["fit", "--data", surface, "--model", "surface"],
        "taf": ["taf", "--data", surface],
    }


def cli_suffix(name: str) -> str:
    return ".json" if name.startswith("fit") else ".csv"


def cli_id(name: str, index: int) -> str:
    if name in ("fdt", "jnn", "zeta"):
        return f"cli/{name}"
    return f"cli/{name}/ds{index:02d}"


@dataclass(frozen=True)
class CliOutcome:
    returncode: int
    out_path: Path
    stderr: str


class CliExitError(RuntimeError):
    """A CLI subprocess exited with a nonzero code."""

    def __init__(self, outcome: CliOutcome):
        super().__init__(f"exit {outcome.returncode}: {outcome.stderr[-300:]}")
        self.returncode = outcome.returncode


def python_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_cli(root: Path, args: list[str], out_path: Path, timeout: float = 170.0) -> CliOutcome:
    proc = subprocess.run(
        [sys.executable, "-m", "trapnoise.cli", *args, "--out", str(out_path)],
        cwd=root, env=python_env(root), capture_output=True, text=True,
        timeout=timeout,
    )
    outcome = CliOutcome(proc.returncode, out_path, proc.stderr)
    if proc.returncode != 0:
        raise CliExitError(outcome)
    return outcome


def cli_tasks(root: Path, workdir: Path, index: int, seed: int | None = None) -> list[Task]:
    inputs = cli_inputs(workdir, index)
    tasks = []
    for name, args in cli_commands(inputs, index).items():
        out = workdir / f"{name}{cli_suffix(name)}"
        tasks += [Task(cli_id(name, index), "cli",
                       lambda args=args, out=out: run_cli(root, args, out),
                       {"command": name})] * CLI_ROUNDS
    return _shuffled(tasks, seed)


def cli_pool_index(seed: int) -> int:
    return int(np.random.default_rng([seed, 3]).integers(CLI_POOL))


# ---------------------------------------------------------------------------


def _shuffled(tasks: list[Task], seed: int | None) -> list[Task]:
    if seed is None:
        return tasks
    order = np.random.default_rng([seed, 0]).permutation(len(tasks))
    return [tasks[i] for i in order]


def build(workload: str, seed: int, root: Path, workdir: Path) -> list[Task]:
    """The task list of one workload for one seed (its set-up)."""
    if workload == "fdt-grid":
        return fdt_tasks()
    if workload == "heating-inference":
        return heating_tasks(seed)
    if workload == "patch-zeta":
        return patch_tasks(seed)
    if workload == "cli-packaged":
        return cli_tasks(root, workdir, cli_pool_index(seed), seed)
    raise ValueError(f"unknown workload {workload!r}")

