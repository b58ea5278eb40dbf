"""Write and check the JSON oracle files that the ``record_*`` scripts make.

A file is ``{"source": ..., <extra keys>, "records": [...]}`` with one record
a line.  ``check_records`` recomputes every record from the inputs the file
holds and wants the same JSON, apart from ``source``.  It also rebuilds the
inputs and wants them within 1e-14 relative of the file's: numpy's log and
power can round the last bit differently with the CPU's vector extensions,
so only the oracle values, which mpmath computes from the inputs, are
compared bit for bit.
"""

from __future__ import annotations

import json
import math
from pathlib import Path


def _text(source: str, records: list, extra: dict) -> str:
    head = "".join(f",\n {json.dumps(k)}: {json.dumps(v)}" for k, v in extra.items())
    body = ",\n".join(json.dumps(r) for r in records)
    return f'{{"source": {json.dumps(source)}{head},\n "records": [\n{body}\n]}}\n'


def write_records(path: Path, source: str, records: list, **extra) -> None:
    path.write_text(_text(source, records, extra))
    print(f"wrote {len(records)} records to {path}")


def _close(a, b) -> bool:
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_close(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(map(_close, a, b))
    if isinstance(a, float) and isinstance(b, float):
        return math.isclose(a, b, rel_tol=1e-14)
    return a == b


def check_records(path: Path, fresh_inputs: list, compute, inputs_of, **extra) -> int:
    """0 if ``path`` holds ``compute`` of each input, else 1 with a report."""
    held = json.loads(path.read_text())
    inputs = [inputs_of(r) for r in held["records"]]
    if not _close(inputs, fresh_inputs):
        print(f"{path}: the inputs are not the ones this script draws")
        return 1
    want = json.loads(_text("", [compute(i) for i in inputs], extra))
    del want["source"], held["source"]
    if want == held:
        print(f"{path}: {len(inputs)} records match")
        return 0
    bad = [i for i, (w, h) in enumerate(zip(want["records"], held["records"])) if w != h]
    print(f"{path}: records {bad[:10]} differ from the recomputed oracle"
          if bad else f"{path}: keys other than the records differ")
    return 1
