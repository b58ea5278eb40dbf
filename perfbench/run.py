"""trapnoise benchmark: end-to-end and per-layer metrics for four workloads.

Run from the repository root:

    python3 perfbench/run.py --workload fdt-grid --seed 1 --seconds 15 --trace 0

Workloads: fdt-grid, heating-inference, patch-zeta, cli-packaged (see
``workloads.py`` for why each exists).  Tasks run one at a time in a closed
loop with one client, in whole passes over the workload's task list until
``--seconds`` have passed.  Every task's output is checked against the
parent commit's reference (``verify.py``); a task that raises or fails its
check counts as failed.

``--trace 0`` prints the end-to-end metrics of the result line:

* setup_s       median over fresh interpreters of the time until the
                workload's inputs are ready (cli-packaged: a bare
                ``import trapnoise.cli``)
* solved_per_s  verified results per second of pass wall time
* peak_rss_mb   peak resident memory of this process (cli-packaged: of its
                largest child)

and, in the table above it, task_p50_ms and task_p90_ms (a failed task
counts as unbounded; p90 only where ten tasks lie beyond it) and
failed_frac.  Failures are also the result line's ``failed`` of
``attempted``.  The latency percentiles stay out of the result line: where
the median task takes under a millisecond (fdt-grid, heating-inference) it
moved by a fifth from run to run on a shared 2-core machine.  ``--trace 1`` is a separate run: it alternates
untraced and traced passes (the difference is the tracing overhead), reports
self time per layer, and the per-layer metrics from one traced pass of every
in-process workload plus the probes in ``probes.py``.

Each run writes its full record -- environment, drift markers, per-task
failures and, when traced, the spans -- to ``perfbench/out/``.  The last
line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

# One BLAS thread unless the caller says otherwise: on a small shared machine
# a second BLAS thread doubles CPU time for the matrix sizes used here and
# makes timings follow whatever else runs on the other core.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
WORKLOAD_NAMES = ("fdt-grid", "heating-inference", "patch-zeta", "cli-packaged")
SETUP_REPEATS = 3
LAYERS = ("task", "noise", "layers", "quadrature", "inference", "leastsq", "smoothing",
          "patches", "configio", "cli")
P90_MIN_BEYOND = 10
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="trapnoise benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="build the workload's inputs, print 'ready' and exit "
                        "(the set-up timing runs this in a fresh interpreter)")
    return p.parse_args(argv)


def require_source() -> None:
    if not (ROOT / "src" / "trapnoise" / "__init__.py").is_file():
        sys.exit(f"perfbench: no trapnoise source under {ROOT / 'src'}; "
                 "run from a checkout of the repository")
    sys.path.insert(0, str(ROOT / "src"))


# ---------------------------------------------------------------------------
# running tasks


@dataclass
class Outcome:
    task: str
    latency: float
    solved: bool
    error: str | None = None      # exception type, or "Mismatch"
    wrong: bool = False           # output outside tolerance, or an unexpected failure
    detail: dict = field(default_factory=dict)


def _typed(exc: Exception) -> bool:
    from workloads import CliExitError
    return type(exc).__module__.startswith("trapnoise") or isinstance(exc, CliExitError)


def run_task(task, reference: dict) -> Outcome:
    import verify

    t0 = time.perf_counter()
    try:
        out = task.run()
    except Exception as exc:   # a failed task is recorded and the loop goes on
        latency = time.perf_counter() - t0
        detail = {"message": str(exc)[:300]}
        for attr in ("evaluations", "n_iter", "returncode"):
            if hasattr(exc, attr):
                detail[attr] = getattr(exc, attr)
        expected = task.id in reference or task.info.get("ref") in reference
        return Outcome(task.id, latency, False, type(exc).__name__,
                       wrong=expected or not _typed(exc), detail=detail)
    latency = time.perf_counter() - t0
    try:
        verify.check(task, verify.summarize(task.kind, out), reference)
    except verify.Mismatch as exc:
        return Outcome(task.id, latency, False, "Mismatch", wrong=True,
                       detail={"message": str(exc)[:300]})
    return Outcome(task.id, latency, True)


def run_pass(tasks, reference, tracer=None, label=""):
    """One closed-loop pass; traced when ``tracer`` is given."""
    outcomes = []
    t0 = time.perf_counter()
    for task in tasks:
        if tracer is None:
            outcomes.append(run_task(task, reference))
        else:
            with tracer.span(task.id, "task", task=f"{label}/{task.id}"):
                outcomes.append(run_task(task, reference))
    return outcomes, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# set-up time, environment and drift


def setup_seconds(workload: str, seed: int) -> float:
    """Median time from a fresh interpreter until the inputs are ready."""
    from workloads import python_env

    if workload == "cli-packaged":
        cmd = [sys.executable, "-c", "import trapnoise.cli; print('ready', flush=True)"]
    else:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", "0", "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, env=python_env(ROOT), stdout=subprocess.PIPE,
                              text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up of {workload} failed (exit {code})")
        times.append(elapsed)
    return statistics.median(times)


def calibration_ms() -> float:
    """A fixed numpy + interpreter kernel; its drift is machine drift."""
    import numpy as np

    a = np.random.default_rng(0).standard_normal((160, 160)) + 160.0 * np.eye(160)
    b = np.ones(160)
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(30):
            np.linalg.solve(a, b)
        acc = 0
        for i in range(150_000):
            acc += i * i
        best = min(best, time.perf_counter() - t0)
    return 1e3 * best


def loadavg() -> list[float] | None:
    try:
        return [float(v) for v in Path("/proc/loadavg").read_text().split()[:3]]
    except OSError:
        return None


def environment() -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "platform": platform.platform(),
    }


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# metrics


def percentile(latencies: list[float], q: float) -> float:
    """Nearest-rank percentile; failed tasks enter as +inf."""
    ordered = sorted(latencies)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(outcomes, walls, setup_s, children) -> tuple[dict, dict]:
    """(metrics for the result line, extra figures for the table)."""
    lat = [o.latency if o.solved else math.inf for o in outcomes]
    solved = sum(o.solved for o in outcomes)
    metrics = {
        "setup_s": setup_s,
        "solved_per_s": solved / sum(walls),
        "peak_rss_mb": peak_rss_mb(children),
    }
    extra = {"task_p50_ms": 1e3 * percentile(lat, 0.5),
             "failed_frac": (len(outcomes) - solved) / len(outcomes),
             "task_p90_ms": None, "tasks": len(outcomes), "passes": len(walls)}
    if len(lat) * 0.1 >= P90_MIN_BEYOND:
        extra["task_p90_ms"] = 1e3 * percentile(lat, 0.9)
    return metrics, extra


def traced_run(workload, seed, seconds, tasks, reference, workdir):
    """Per-layer metrics, self time per layer, and the tracing overhead."""
    import probes
    import tracing
    import workloads

    tracer = tracing.Tracer()
    pairs, outcomes = [], []
    start = time.perf_counter()
    while not pairs or time.perf_counter() - start < seconds:
        done, wall_u = run_pass(tasks, reference)
        outcomes += done
        with tracing.installed(tracer):
            done, wall_t = run_pass(tasks, reference, tracer, f"{workload}#{len(pairs)}")
        outcomes += done
        pairs.append((wall_u, wall_t))

    values = {f"self_ms.{layer}": 0.0 for layer in LAYERS}
    mine = [s for s in tracer.spans if s.task and s.task.startswith(f"{workload}#")]
    for layer, secs in tracing.self_times(mine).items():
        values[f"self_ms.{layer}"] = 1e3 * secs / len(pairs)
    values["trace.overhead_ms"] = 1e3 * statistics.median(t - u for u, t in pairs)

    # one traced pass of every other in-process workload feeds the layers
    # this workload leaves idle, so every traced run reports every layer
    for other in workloads.IN_PROCESS:
        if other != workload:
            other_tasks = workloads.build(other, seed, ROOT, workdir)
            with tracing.installed(tracer):
                run_pass(other_tasks, reference, tracer, f"{other}#0")
    first = [s for s in tracer.spans if s.task and s.task.split("/", 1)[0].endswith("#0")]
    values.update(tracing.layer_metrics(first))
    values["patches.direct_patches"] = float(sum(
        s.info["direct_patches"] for s in first if s.name == "patches.region_noise_integral"))
    values.update(probes.reflection_ns_per_node())
    values.update(probes.import_split(ROOT))
    values.update(probes.cli_compute(workdir, workloads.cli_pool_index(seed), tracer))
    return values, tracer, pairs, outcomes


# ---------------------------------------------------------------------------


def declared_metrics(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json lists them."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    args = parse_args(argv)
    require_source()
    sys.path.insert(0, str(HERE))
    import verify
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    try:
        if args.setup_only:
            workloads.build(args.workload, args.seed, ROOT, workdir)
            print("ready", flush=True)
            return 0
        return measure(args, workdir, verify, workloads)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workdir, verify, workloads) -> int:
    units = declared_metrics(bool(args.trace))
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(),
              "start": {"loadavg": loadavg(), "calibration_ms": calibration_ms()}}
    reference = verify.load_reference(HERE / "reference.json")
    children = args.workload == "cli-packaged"
    setup_s = None if args.trace else setup_seconds(args.workload, args.seed)
    tasks = workloads.build(args.workload, args.seed, ROOT, workdir)

    if args.trace:
        values, tracer, pairs, outcomes = traced_run(
            args.workload, args.seed, args.seconds, tasks, reference, workdir)
        record["pairs_s"] = pairs
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps([vars(s) for s in tracer.spans]))
    else:
        outcomes, walls = [], []
        start = time.perf_counter()
        while not walls or time.perf_counter() - start < args.seconds:
            done, wall = run_pass(tasks, reference)
            outcomes += done
            walls.append(wall)
        values, extra = end_to_end(outcomes, walls, setup_s, children)
        record["table"] = extra
        record["pass_wall_s"] = walls
        record["latency_ms"] = [[o.task, 1e3 * o.latency, o.solved] for o in outcomes]

    record["end"] = {"loadavg": loadavg(), "calibration_ms": calibration_ms()}
    failures = [vars(o) for o in outcomes if not o.solved]
    record["failures"] = failures
    missing = sorted(set(units) - set(values))
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    metrics = {name: {"value": float(values[name]), "unit": unit}
               for name, unit in units.items()}
    record["metrics"] = metrics
    (OUT_DIR / f"bench-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str))

    print_table(args, metrics, record)
    result = {"correct": not any(o.wrong for o in outcomes),
              "attempted": len(outcomes), "failed": len(failures), "metrics": metrics}
    print(json.dumps(result))
    return 0


def print_table(args, metrics, record) -> None:
    print(f"# {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"nproc {record['environment']['nproc']}  "
          f"calibration {record['start']['calibration_ms']:.1f} -> "
          f"{record['end']['calibration_ms']:.1f} ms")
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:14.6g} {m['unit']}")
    extra = record.get("table")
    if extra:
        p90 = extra["task_p90_ms"]
        n = extra["tasks"]
        p90_text = (f"{p90:14.6g} ms" if p90 is not None
                    else f"{'n/a':>14s} (fewer than {P90_MIN_BEYOND} of {n} tasks beyond it)")
        print(f"{'task_p50_ms':48s} {extra['task_p50_ms']:14.6g} ms")
        print(f"{'task_p90_ms':48s} {p90_text}")
        print(f"{'failed_frac':48s} {extra['failed_frac']:14.6g} frac "
              f"({len(record['failures'])}/{n} over {extra['passes']} pass(es))")
        kinds: dict[str, int] = {}
        for f in record["failures"]:
            kinds[f["error"]] = kinds.get(f["error"], 0) + 1
        for kind, count in sorted(kinds.items()):
            print(f"#   failed: {count} x {kind}")


if __name__ == "__main__":
    sys.exit(main())
