"""Output checks: each task against the parent commit's reference output.

Every task kind has a *summary* (the JSON-able numbers that
``record_reference.py`` stores) and a *check* that compares a fresh summary
with the reference within the task's own stated accuracy:

* fdt: |S_E - S_E,ref| <= S_bb (err + err_ref), the quadrature errors the
  two results report.  A relative tolerance would be wrong: below Tc,
  1 + g is a difference of order 1e-5.
* fits: every parameter within FIT_FRAC of its reference standard error.
* spline slopes: within FIT_FRAC of the reference bootstrap half-band.
* zeta: in [0, 1], and within ZETA_TOL of the reference and of the finest
  patch size of the same scene (zeta agrees across patch sizes).
* cli: data rows and JSON bodies, never the ``# manifest:`` line (it holds
  absolute paths, which differ between checkouts).

Tasks without a reference (those that fail at the parent commit) are held
to invariants only: finite S_E >= 0 and 1 + g >= -10 error.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from workloads import DEFAULT_TEMPS_K, PLATEAU_TOL, zeta_id

FIT_FRAC = 0.1          # allowed shift, in reference standard errors
ZETA_TOL = 1e-4         # cross-patch-size agreement of zeta is ~1e-5
REL_EXACT = 1e-9        # closed-form outputs (jnn, synth, blackbody)
REL_DERIVED = 1e-4      # fit-report numbers with no standard error beside them
FDT_CLI_TOLS = (1e-6, 1e-5)   # rel_tol and abs_tol (g units) of the CLI defaults
FINEST_PATCH_UM = {225.0: 0.5, 50.0: 1.0}


class Mismatch(AssertionError):
    """An output lies outside its reference tolerance or breaks an invariant."""


def load_reference(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# summaries


def _fit_block(values: dict, errors: dict) -> dict:
    return {"values": {k: float(v) for k, v in values.items()},
            "errors": {k: float(v) for k, v in errors.items()}}


def _temp_block(model_fit) -> dict:
    p = model_fit.params
    values = {"t1": p.t1, "beta1": p.beta1}
    if p.piecewise:
        values.update(t2=p.t2, beta2=p.beta2, t_star=p.t_star)
    errors = dict(model_fit.global_errors)
    raw = model_fit.fit.errors()
    for i, (f, g0) in enumerate(p.gamma0.items()):
        values[f"gamma0@{f:g}"] = g0
        errors[f"gamma0@{f:g}"] = g0 * raw[i]
    return _fit_block(values, errors)


def plateau_error(width: float, errors: dict, values: dict) -> float:
    """Standard error of t2 tol^(1/beta2) from the t2 and beta2 errors."""
    rel_t2 = errors["t2"] / values["t2"]
    rel_beta = math.log(PLATEAU_TOL) * errors["beta2"] / values["beta2"] ** 2
    return abs(width) * math.hypot(rel_t2, rel_beta)


def summarize(kind: str, out) -> dict:
    if kind == "fdt":
        return {"s_e": out.s_e, "s_bb": out.s_blackbody, "g": out.greens.g_parallel,
                "error": out.greens.error, "evaluations": out.greens.evaluations}
    if kind == "temp":
        comparison, width = out
        piece = _temp_block(comparison.piecewise)
        err = plateau_error(width, piece["errors"], piece["values"])
        return {"simple": _temp_block(comparison.simple), "piecewise": piece,
                "plateau": _fit_block({"width": width}, {"width": err})}
    if kind == "freq":
        err_g, err_a = out.errors()
        return _fit_block({"gamma_coeff": out.gamma_coeff, "alpha": out.alpha},
                          {"gamma_coeff": err_g, "alpha": err_a})
    if kind == "surface":
        fits, slope = out
        t = np.array(DEFAULT_TEMPS_K)
        lo, hi = slope.band(t)
        return {"power": _fit_block(fits.power.params, fits.power.errors),
                "arrhenius": _fit_block(fits.arrhenius.params, fits.arrhenius.errors),
                "slope": {"mid": [float(v) for v in slope(t)],
                          "lo": [float(v) for v in lo], "hi": [float(v) for v in hi]}}
    if kind == "zeta":
        i_t = next(iter(out.region_integrals.values()))
        rest = out.f_ratio * i_t * (1.0 - out.zeta) / out.zeta
        return {"zeta": out.zeta, "f_ratio": out.f_ratio, "i_target": i_t, "rest": rest}
    if kind == "zinv":
        return {"f_ratio": float(out)}
    if kind == "cli":
        return {"exit": out.returncode, "body": read_output(out.out_path)}
    raise ValueError(f"unknown task kind {kind!r}")


def read_output(path: Path) -> dict:
    """CSV header and rows, or the JSON report, without the manifest."""
    text = Path(path).read_text(encoding="utf-8")
    if path.suffix == ".json":
        doc = json.loads(text)
        doc.pop("manifest", None)
        return {"json": doc}
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("# manifest:")]
    comments = [ln for ln in lines if ln.startswith("#")]
    data = [ln.split(",") for ln in lines if not ln.startswith("#")]
    return {"comments": comments, "header": data[0], "rows": data[1:]}


# ---------------------------------------------------------------------------
# checks


def _near(name: str, got: float, want: float, tol: float) -> None:
    if not (math.isfinite(got) and abs(got - want) <= tol):
        raise Mismatch(f"{name}: {got!r} vs reference {want!r} (tolerance {tol:.3g})")


def _check_fit_block(name: str, got: dict, ref: dict) -> None:
    if set(got["values"]) != set(ref["values"]):
        raise Mismatch(f"{name}: parameters {sorted(got['values'])} vs {sorted(ref['values'])}")
    for key, want in ref["values"].items():
        sigma = ref["errors"].get(key, 0.0)
        tol = FIT_FRAC * sigma if math.isfinite(sigma) and sigma > 0 else 0.0
        _near(f"{name}.{key}", got["values"][key], want, tol + REL_EXACT * abs(want))


def _check_fdt(got: dict, ref: dict | None) -> None:
    one_plus_g = 1.0 + got["g"]
    if not (math.isfinite(got["s_e"]) and got["s_e"] >= 0.0):
        raise Mismatch(f"S_E = {got['s_e']!r} is not finite and >= 0")
    if one_plus_g < -10.0 * got["error"]:
        raise Mismatch(f"1+g = {one_plus_g:.3e} below -10 x error {got['error']:.3e}")
    if ref is not None:
        _near("s_bb", got["s_bb"], ref["s_bb"], REL_EXACT * ref["s_bb"])
        _near("s_e", got["s_e"], ref["s_e"], ref["s_bb"] * (got["error"] + ref["error"]))


def _zeta_at(ref: dict, f_ratio: float) -> float:
    num = f_ratio * ref["i_target"]
    return num / (num + ref["rest"])


def _check_zeta(got: dict, task, reference: dict) -> None:
    if not 0.0 <= got["zeta"] <= 1.0:
        raise Mismatch(f"zeta = {got['zeta']!r} outside [0, 1]")
    height = task.info["height_um"]
    for key in (task.id, zeta_id(height, FINEST_PATCH_UM[height], False)):
        if key in reference:
            _near(f"zeta vs {key}", got["zeta"], _zeta_at(reference[key], got["f_ratio"]),
                  ZETA_TOL)


def _check_zinv(got: dict, task, reference: dict) -> None:
    f_ratio = got["f_ratio"]
    if not (math.isfinite(f_ratio) and f_ratio >= 0.0):
        raise Mismatch(f"f_ratio = {f_ratio!r} is not finite and >= 0")
    ref = reference.get(task.info["ref"])
    if ref is not None:
        _near("zeta at the returned ratio", _zeta_at(ref, f_ratio),
              task.info["target"], ZETA_TOL)


def _check_surface(got: dict, ref: dict) -> None:
    for model in ("power", "arrhenius"):
        _check_fit_block(model, got[model], ref[model])
    half = [(h - l) / 2.0 for l, h in zip(ref["slope"]["lo"], ref["slope"]["hi"])]
    for band in ("mid", "lo", "hi"):
        for t, g, w, hw in zip(DEFAULT_TEMPS_K, got["slope"][band], ref["slope"][band], half):
            _near(f"slope.{band}@{t:g}K", g, w, FIT_FRAC * hw + REL_EXACT * abs(w))


# -- cli outputs -------------------------------------------------------------


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _check_rows(command: str, got: dict, ref: dict) -> None:
    if got["header"] != ref["header"] or len(got["rows"]) != len(ref["rows"]):
        raise Mismatch(f"{command}: header or row count differs from the reference")
    if got["comments"] != ref["comments"]:
        raise Mismatch(f"{command}: comment lines differ from the reference")
    header = ref["header"]
    for i, (row, want_row) in enumerate(zip(got["rows"], ref["rows"])):
        cells = dict(zip(header, map(_cell, row)))
        want = dict(zip(header, map(_cell, want_row)))
        for col in header:
            g, w = cells[col], want[col]
            if isinstance(w, str) or isinstance(g, str):
                if g != w:
                    raise Mismatch(f"{command} row {i} {col}: {g!r} vs {w!r}")
                continue
            _near(f"{command} row {i} {col}", g, w, _cli_tol(command, col, w, want))


def _cli_tol(command: str, col: str, want: float, row: dict) -> float:
    if command == "fdt" and col.startswith("S_E"):
        s_bb = row["S_BB_V2m2Hz"]
        rel_tol, abs_tol = FDT_CLI_TOLS
        return 2.0 * s_bb * (abs_tol + rel_tol * abs(want) / s_bb)
    if command == "zeta" and col == "zeta":
        return ZETA_TOL
    if command == "taf" and col != "T_K":
        return FIT_FRAC * (row["slope_hi84"] - row["slope_lo16"]) / 2.0 + REL_EXACT * abs(want)
    return REL_EXACT * abs(want)


def _errors_key(errors: dict, key: str):
    for k in (key, key.removesuffix("_K")):
        if k in errors:
            return errors[k]
    return None


def _check_json(path: str, key: str, got, ref, errors: dict | None, widths: dict) -> None:
    """Compare a JSON report with its reference.

    A number beside (or under a ``params`` beside) an ``errors`` dict must
    agree within FIT_FRAC of that error; standard errors themselves within
    FIT_FRAC relative (``errors=None``); other numbers within REL_DERIVED.
    """
    if isinstance(ref, dict):
        if not isinstance(got, dict) or set(got) != set(ref):
            raise Mismatch(f"{path}: keys differ from the reference")
        scope = None if errors is None else ref.get("errors", errors)
        for k, want in ref.items():
            _check_json(f"{path}.{k}", k, got[k], want,
                        None if k == "errors" else scope, widths)
        return
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            raise Mismatch(f"{path}: list length differs from the reference")
        for i, (g, w) in enumerate(zip(got, ref)):
            _check_json(f"{path}[{i}]", key, g, w, errors, widths)
        return
    if isinstance(ref, bool) or not isinstance(ref, (int, float)):
        if got != ref:
            raise Mismatch(f"{path}: {got!r} vs {ref!r}")
        return
    if key in widths:
        tol = widths[key]
    elif errors is None:
        tol = FIT_FRAC * abs(ref)
    else:
        sigma = _errors_key(errors, key)
        tol = FIT_FRAC * sigma if sigma else REL_DERIVED * abs(ref) + 1e-9
    _near(path, got, ref, tol + REL_EXACT * abs(ref))


def _check_cli(task, got: dict, ref: dict) -> None:
    command = task.info["command"]
    if got["exit"] != 0:
        raise Mismatch(f"{command}: exit code {got['exit']}")
    body, want = got["body"], ref["body"]
    if "json" in want:
        doc = want["json"]
        widths = {}
        if "plateau" in doc:
            piece = doc["piecewise"]
            values = {"t2": piece["params"]["t2_K"], "beta2": piece["params"]["beta2"]}
            width = doc["plateau"]["width_K"]
            widths["width_K"] = FIT_FRAC * plateau_error(width, piece["errors"], values)
        _check_json(command, "", body.get("json"), doc, {}, widths)
    else:
        _check_rows(command, body, want)


def check(task, got: dict, reference: dict) -> None:
    """Raise :class:`Mismatch` when ``got`` (a summary) fails its check."""
    ref = reference.get(task.id)
    if task.kind == "fdt":
        _check_fdt(got, ref)
    elif task.kind == "zeta":
        _check_zeta(got, task, reference)
    elif task.kind == "zinv":
        _check_zinv(got, task, reference)
    elif ref is None:
        raise Mismatch(f"no reference output for {task.id}")
    elif task.kind == "temp":
        for block in ("simple", "piecewise", "plateau"):
            _check_fit_block(block, got[block], ref[block])
    elif task.kind == "freq":
        _check_fit_block("freq", got, ref)
    elif task.kind == "surface":
        _check_surface(got, ref)
    elif task.kind == "cli":
        _check_cli(task, got, ref)
    else:
        raise ValueError(f"unknown task kind {task.kind!r}")
