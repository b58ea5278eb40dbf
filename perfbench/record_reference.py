"""Record the reference outputs the benchmark checks against.

Run from the repository root at the commit whose outputs are the
reference (the parent of a change being measured):

    python3 perfbench/record_reference.py

It runs every task of every pool member once, stores the summary of each
task that succeeds, and overwrites ``perfbench/reference.json``.  Tasks that
fail are listed on stderr and get no reference; the benchmark holds them to
invariants only.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import verify  # noqa: E402
import workloads  # noqa: E402


def all_tasks(workdir: Path):
    yield from workloads.fdt_tasks()
    yield from workloads.heating_pool_tasks()
    yield from workloads.patch_tasks()
    for index in range(workloads.CLI_POOL):
        sub = workdir / f"cli{index}"
        sub.mkdir()
        yield from workloads.cli_tasks(ROOT, sub, index)


def main() -> int:
    reference = {}
    workdir = Path(tempfile.mkdtemp(prefix="reference-", dir=HERE))
    try:
        for task in all_tasks(workdir):
            if task.id in reference:
                continue
            try:
                out = task.run()
            except Exception as exc:   # recorded as "no reference"
                print(f"no reference: {task.id}: {type(exc).__name__}", file=sys.stderr)
                continue
            reference[task.id] = verify.summarize(task.kind, out)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(HERE / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"{len(reference)} reference outputs written")
    return 0


if __name__ == "__main__":
    sys.exit(main())
