"""CLI outputs on packaged inputs against recorded golden files.

The files under ``tests/data/golden/`` were written by an earlier commit's
CLI; a refactor must reproduce them byte for byte.  They hold every output
line except ``# manifest:``, whose config paths depend on the checkout.
JSON reports are compared as parsed values, without their ``manifest``.
``fdt`` is left out on purpose: its quadrature is due to change.
"""

import csv
import json
from pathlib import Path

import numpy as np
import pytest

from trapnoise.cli import EXIT_OK, main
from trapnoise.configio import packaged_config
from trapnoise.smoothing import SmoothingSpline

GOLDEN = Path(__file__).parent / "data" / "golden"


def _circuit(name):
    return ["--config", str(packaged_config("circuits", name))]


CASES = {
    "jnn-ybco-trap.csv": ["jnn", *_circuit("ybco-trap")],
    # across Tc at another frequency: the sheet's omega^2 term, the skin
    # depth and the filter reactance
    "jnn-ybco-trap-wide.csv": ["jnn", *_circuit("ybco-trap"), "--temps", "4:300:40",
                               "--omega-hz", "2.3e6"],
    "jnn-al-lead-benchmark.csv": ["jnn", *_circuit("al-lead-benchmark")],
    "zeta-default.csv": ["zeta"],
    "zeta-exact-5um.csv": ["zeta", "--exact", "--patch-um", "5"],
    "synth-gamma1-seed3.csv": ["synth", "--model", "gamma1", "--seed", "3"],
    "synth-gamma2-seed3.csv": ["synth", "--model", "gamma2", "--seed", "3"],
    "synth-power-seed3.csv": ["synth", "--model", "power", "--seed", "3"],
    "taf-alphas.csv": [
        "taf",
        "--data",
        str(GOLDEN / "synth-power-seed3.csv"),
        "--n-boot",
        "20",
        "--alphas",
        str(GOLDEN / "alphas.csv"),
    ],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, tmp_path):
    out = tmp_path / name
    assert main([*CASES[name], "--out", str(out)]) == EXIT_OK
    lines = out.read_text(encoding="utf-8").splitlines(keepends=True)
    got = "".join(line for line in lines if not line.startswith("# manifest:"))
    assert got == (GOLDEN / name).read_text(encoding="utf-8")


JSON_CASES = {
    name: ["fit", "--model", model, "--data", str(GOLDEN / data)]
    for name, model, data in (
        ("fit-temp-gamma2-seed3.json", "temp", "synth-gamma2-seed3.csv"),
        ("fit-freq-gamma2-seed3.json", "freq", "synth-gamma2-seed3.csv"),
        ("fit-surface-power-seed3.json", "surface", "synth-power-seed3.csv"),
    )
}


@pytest.mark.parametrize("name", sorted(JSON_CASES))
def test_fit_report_matches_golden(name, tmp_path):
    out = tmp_path / name
    assert main([*JSON_CASES[name], "--out", str(out)]) == EXIT_OK
    got = json.loads(out.read_text(encoding="utf-8"))
    got.pop("manifest")
    assert got == json.loads((GOLDEN / name).read_text(encoding="utf-8"))


def test_taf_golden_slope_matches_mpmath_oracle():
    # tests/record_smoothing_reference.py holds the 60-digit knot values and
    # f'' of the spline that taf fits to synth-power-seed3.csv
    records = json.loads((GOLDEN.parent / "smoothing_gcv.json").read_text())["records"]
    rec = next(r for r in records if r["name"] == "golden-synth-power-seed3")
    best = rec["argmin"]
    oracle = SmoothingSpline(np.array(rec["x"]), np.array(rec["values"]),
                             np.array(rec["second_derivs"]), rec["lam"][best],
                             rec["gcv"][best], rec["trace"])
    with (GOLDEN / "taf-alphas.csv").open(newline="") as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    temps = np.array([float(r["T_K"]) for r in rows])
    slopes = np.array([float(r["dlnS_dlnT"]) for r in rows])
    np.testing.assert_allclose(slopes, oracle.derivative(np.log(temps)), rtol=1e-12, atol=0.0)
