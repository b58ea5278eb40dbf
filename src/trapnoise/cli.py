"""Command-line front end: ``trapnoise <command> [flags]``.

Commands
--------
fdt    Field noise above a layer stack over a temperature grid (CSV).
jnn    Johnson-noise budget of an electrode inventory (CSV).
fit    Power-law / temperature-model / surface-model fits (JSON report).
taf    Thermally-activated-fluctuator exponent prediction (CSV).
zeta   Patch-noise share of a target region vs fluctuation ratio (CSV).
synth  Synthetic heating-rate datasets from model parameters (CSV).

Each ``cmd_*`` function returns ``(inputs, output)``: the config and data
paths it read, and a report dict, a ``HeatingDataset`` or ``(header, rows[,
comments])``.  :func:`main` alone builds the run manifest and writes the file.
The commands choose no files and convert no data themselves:
:func:`~trapnoise.configio.load_configs` and ``load_synth_params`` pick and
load every config file, given or packaged, and the library types convert:
``HeatingDataset.noise_curve`` and ``HeatingDataset.from_noise_curve`` turn
heating rates into field noise S_E at a dataset's one secular frequency and
back, ``HeatingDataset.frequency_curves`` gives each temperature's
(omega, Gamma, sigma) points, ``jnn_budget`` returns each electrode's
distance and heating rate next to its S_E, and
``LayerStack.with_london_depth`` swaps a stack's London depth.
Every number a flag or grid takes must pass :func:`require_above` both as
given and in the SI units the library receives, or the run exits 2; grids
are parsed inside the commands, so the manifest records their text as given.
The manifest records the seed (``null`` but for ``synth`` and ``taf``, the
two commands that draw random numbers and so the only ones with ``--seed``),
the inputs as ``config_paths``, every other flag but ``--out`` as an
override, the tool version and the constants fingerprint; it has no
timestamps, so repeated runs with identical inputs produce byte-identical
files.  Exit codes: 0 success, 2 config error, 3 data error, 4 numerical
failure: :func:`main` catches the base of every error the library raises
on purpose, :class:`~trapnoise.constants.TrapnoiseError`, prints its
``label`` and message as one line and returns its ``exit_code``.

Importing this module loads only :mod:`~trapnoise.configio` and
:mod:`~trapnoise.constants`, which defines the error types, and no numpy;
each command imports the library functions it calls when it runs, so a
``zeta`` run never loads the layer-stack code, nor an ``fdt`` run the fits.
``--help``, ``--version``, a usage error and ``jnn``, whose budget is scalar
math in :mod:`~trapnoise.noise` and :mod:`~trapnoise.materials`, run
without numpy; a ``lo:hi:n`` grid token gives the floats of
``numpy.linspace`` bit for bit.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

from . import __version__
from .configio import (
    TEMP_KEYS,
    load_configs,
    load_synth_params,
    make_manifest,
    read_alpha_csv,
    read_heating_csv,
    write_csv,
    write_heating_csv,
    write_json_report,
)
from .constants import (
    ConfigFileError,
    DataFileError,
    DomainError,
    TrapnoiseError,
    omega_from_hz,
    require_above,
)

EXIT_OK = 0
EXIT_CONFIG = ConfigFileError.exit_code
EXIT_DATA = DataFileError.exit_code
EXIT_NUMERIC = TrapnoiseError.exit_code

_DEFAULT_TEMPS = "15,40,60,80,90,100,120,160,200"
_MAX_GRID = 100_000  # grid points after a lo:hi:n token; documented grids have <= 25

# metres per unit of the length flags, and rad/s per Hz of the frequency flags
_UM = 1e-6
_NM = 1e-9
_HZ = omega_from_hz(1.0)

# flags a manifest does not list under overrides: the output path, the seed
# (a manifest field of its own) and the input paths (its config_paths)
_NOT_OVERRIDES = {"command", "func", "out", "seed", "config", "data", "alphas", "params"}


# ---------------------------------------------------------------------------
# small helpers


def _number(lo: float = 0.0, *, or_equal: bool = False, unit: float = 1.0, kind=float):
    """argparse ``type`` of a number flag: ``kind(text)``, which must pass
    :func:`require_above` against ``lo`` as given and times ``unit``, the
    factor its command applies, or exit 2."""
    rule = f"must be finite and {'>=' if or_equal else '>'} {lo:g}"

    def parse(text: str):
        value = kind(text)  # a ValueError exits 2 as "invalid <kind> value"
        for scale, where in ((1, ""), (unit, " in SI units")):
            try:
                require_above(value * scale, "", lo, or_equal=or_equal)
            except DomainError:
                message = f"{rule}{where}, got {text!r}"
                raise argparse.ArgumentTypeError(message) from None
        return value

    parse.__name__ = kind.__name__
    return parse


_COUNT = _number(or_equal=True, kind=int)  # a count or a seed


def _linspace(start: float, stop: float, n: int) -> list[float]:
    """``numpy.linspace(start, stop, n).tolist()`` for n >= 1, bit for bit,
    without importing numpy: the same float operations in the same order."""
    div = n - 1
    delta = stop - start
    if div == 0:
        values = [0.0 * delta]
    else:
        step = delta / div
        # where the step underflows to 0, numpy scales i/div by delta instead
        values = ([i / div * delta for i in range(n)] if step == 0.0
                  else [i * step for i in range(n)])
    values = [v + start for v in values]
    if div:
        values[-1] = stop
    return values


def parse_grid(text: str, name: str = "grid", lo: float = 0.0, *,
               or_equal: bool = False) -> list[float]:
    """Comma-separated values, each finite and above ``lo`` (or at it if
    ``or_equal``); a ``lo:hi:n`` token expands to a linear grid."""
    values: list[float] = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        if ":" in token:
            parts = token.split(":")
            if len(parts) != 3:
                raise ConfigFileError(f"bad grid token {token!r}; want lo:hi:n")
            try:
                start, stop, n = float(parts[0]), float(parts[1]), int(parts[2])
            except ValueError as exc:
                raise ConfigFileError(f"bad grid token {token!r}: {exc}") from exc
            room = _MAX_GRID - len(values)
            if not 1 <= n <= room:
                raise ConfigFileError(f"grid count must be 1 to {room} in {token!r}")
            values.extend(_linspace(start, stop, n))
        else:
            try:
                values.append(float(token))
            except ValueError as exc:
                raise ConfigFileError(f"bad grid value {token!r}") from exc
    if not values:
        raise ConfigFileError(f"empty grid {text!r}")
    try:
        for value in values:
            require_above(value, name, lo, or_equal=or_equal)
    except DomainError as exc:
        raise ConfigFileError(str(exc)) from None
    return values


# ---------------------------------------------------------------------------
# commands


def cmd_fdt(args):
    from .layers import NoSuperconductorError
    from .noise import fdt_noise

    lambdas = args.lambda0_nm or []
    s_cols = [f"S_E_V2m2Hz_lam0_{nm:g}nm" for nm in lambdas] or ["S_E_V2m2Hz"]
    if len(set(s_cols)) < len(s_cols):
        raise ConfigFileError("--lambda0-nm repeats a value")
    inputs, configs = load_configs(args.config, ("materials", "stack"))
    stack = configs["stack"]
    temps = parse_grid(args.temps, "--temps")
    omega = omega_from_hz(args.omega_hz)
    distance = args.distance_um * _UM

    try:
        stacks = [stack.with_london_depth(nm * _NM) for nm in lambdas] or [stack]
    except NoSuperconductorError:
        raise ConfigFileError(
            "--lambda0-nm given but the stack has no superconducting layer"
        ) from None

    rows = []
    for temperature in temps:
        results = [
            fdt_noise(s, omega, temperature, distance, rel_tol=args.tolerance)
            for s in stacks
        ]
        rows.append([temperature, results[0].s_blackbody, *(r.s_e for r in results)])
    return inputs, (["T_K", "S_BB_V2m2Hz", *s_cols], rows)


def cmd_jnn(args):
    from .noise import jnn_budget

    inputs, configs = load_configs(args.config, ("materials", "circuit"))
    temps = parse_grid(args.temps, "--temps", or_equal=True)
    omega = omega_from_hz(args.omega_hz)

    rows = []
    for temperature in temps:
        budget = jnn_budget(configs["circuit"], omega, temperature)
        rows += [
            [temperature, name, n.r_filter, n.r_lead, n.r_elec, n.r_eff,
             n.distance, n.s_e, n.gamma]
            for name, n in budget.electrodes.items()
        ]
        rows.append([temperature, "TOTAL", *[None] * 5, budget.total, budget.gamma])
    header = ["T_K", "electrode", "R_filter_ohm", "R_lead_ohm", "R_elec_ohm",
              "R_eff_ohm", "D_m", "S_E_V2m2Hz", "gamma_phps"]
    return inputs, (header, rows)


def _temp_fit_dict(fit) -> dict:
    values = {name: getattr(fit.params, name) for name in TEMP_KEYS}
    values["gamma0"] = {repr(f): g for f, g in sorted(values["gamma0"].items())}
    return {
        "params": {TEMP_KEYS[n]: v for n, v in values.items() if v is not None},
        "errors": dict(fit.global_errors),
        "score": asdict(fit.score),
    }


def _fit_temp_report(dataset, args) -> dict:
    from .inference import fit_temperature_models, plateau_width

    comparison = fit_temperature_models(dataset)
    return {
        "mode": "temp",
        "n_records": len(dataset.records),
        "simple": _temp_fit_dict(comparison.simple),
        "piecewise": _temp_fit_dict(comparison.piecewise),
        "delta_aic": comparison.delta_aic,
        "aic_prefers_piecewise": comparison.delta_aic < 0.0,
        "plateau": {
            "tolerance_frac": args.plateau_tol,
            "width_K": plateau_width(comparison.piecewise.params, args.plateau_tol),
        },
    }


def _fit_freq_report(dataset) -> dict:
    from .inference import OMEGA0, fit_freq_power_law

    fits = []
    for temperature, points in dataset.frequency_curves().items():
        fit = fit_freq_power_law(points)
        err_g, err_a = fit.errors()
        fits.append(
            {
                "T_K": temperature,
                "n_points": len(points),
                "gamma_coeff_phps": fit.gamma_coeff,
                "alpha": fit.alpha,
                "errors": {"gamma_coeff_phps": err_g, "alpha": err_a},
                "omega0_rad_s": OMEGA0,
            }
        )
    return {"mode": "freq", "n_records": len(dataset.records), "fits": fits}


def _surface_fit_dict(fit) -> dict:
    return {k: v for k, v in asdict(fit).items() if k != "kind"}


def _fit_surface_report(dataset) -> dict:
    from .inference import fit_surface_models

    f_hz, curve = dataset.noise_curve("surface-model fit")
    fits = fit_surface_models(curve)
    return {
        "mode": "surface",
        "n_records": len(dataset.records),
        "f_Hz": f_hz,
        "power": _surface_fit_dict(fits.power),
        "arrhenius": _surface_fit_dict(fits.arrhenius),
    }


def cmd_fit(args):
    dataset = read_heating_csv(args.data)
    if args.model == "temp":
        report = _fit_temp_report(dataset, args)
    elif args.model == "freq":
        report = _fit_freq_report(dataset)
    else:
        report = _fit_surface_report(dataset)
    return [args.data], report


def cmd_taf(args):
    from .inference import MAX_BOOT, loglog_spline_slope, taf_alpha, taf_consistency_chi2

    if args.n_boot > MAX_BOOT:
        raise ConfigFileError(f"--n-boot must be <= {MAX_BOOT}, got {args.n_boot}")
    dataset = read_heating_csv(args.data)
    _, curve_pts = dataset.noise_curve("TAF analysis")
    temps = sorted({r.temperature for r in dataset.records})
    omega = omega_from_hz(args.omega_hz)
    curve = loglog_spline_slope(curve_pts, n_boot=args.n_boot, seed=args.seed)

    slopes = curve(temps)
    lo, hi = curve.band(temps)
    rows = [
        [t, s, s_lo, s_hi, taf_alpha(s, omega, args.tau0_s)]
        for t, s, s_lo, s_hi in zip(temps, slopes, lo, hi)
    ]

    comments = []
    if args.alphas is not None:
        measured = read_alpha_csv(args.alphas)
        chi2, p = taf_consistency_chi2(
            measured,
            lambda t: taf_alpha(float(curve(t)), omega, args.tau0_s),
        )
        consistency = {"chi2": chi2, "p_value": p, "n_points": len(measured)}
        blob = json.dumps(consistency, sort_keys=True, separators=(",", ":"))
        comments.append(f"taf-consistency: {blob}")

    header = ["T_K", "dlnS_dlnT", "slope_lo16", "slope_hi84", "alpha_pred"]
    inputs = [path for path in (args.data, args.alphas) if path]
    return inputs, (header, rows, comments)


def cmd_zeta(args):
    from .patches import zeta

    inputs, configs = load_configs(args.config, ("scene",))
    scene = configs["scene"]
    try:
        scene.region(args.target)
    except DomainError as exc:
        raise ConfigFileError(f"--target: {exc}") from None
    ratios = parse_grid(args.f_ratios, "--f-ratios", or_equal=True)
    patch_size = args.patch_um * _UM

    ref = zeta(scene, 1.0, patch_size, target_name=args.target, exact=args.exact)
    rows = [[r, ref.at(r)] for r in ratios]
    return inputs, (["f_ratio", "zeta"], rows)


def cmd_synth(args):
    from .inference import HeatingDataset, synth_dataset, synth_surface

    temp_model = args.model in ("gamma1", "gamma2")
    if args.freqs is not None and not temp_model:
        raise ConfigFileError(
            f"--freqs is for gamma1 and gamma2; {args.model} takes --f-hz"
        )
    temps = parse_grid(args.temps, "--temps")
    params_path, params = load_synth_params(args.params, args.model)

    if temp_model:
        freqs = (parse_grid(args.freqs, "--freqs") if args.freqs
                 else sorted(params.gamma0))
        missing = [f for f in freqs if f not in params.gamma0]
        if missing:
            raise ConfigFileError(f"{params_path}: no gamma0 for --freqs {missing}")
        dataset = synth_dataset(
            args.model, params, temps, freqs, args.noise_frac, args.seed
        )
    else:
        pts = synth_surface(args.model, params, temps, args.noise_frac, args.seed)
        dataset = HeatingDataset.from_noise_curve(pts, args.f_hz)
    return [params_path], dataset


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(parser, needs_config: bool = True) -> None:
    parser.add_argument(
        "--out", required=True, help="output file path (CSV or JSON)"
    )
    if needs_config:
        parser.add_argument(
            "--config",
            action="append",
            default=[],
            metavar="PATH",
            help="config file; repeatable, roles inferred from sections",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trapnoise",
        description="Electric-field noise calculations for layered ion traps.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fdt", help="field noise above a layer stack")
    _add_common(p)
    p.add_argument("--temps", default="10:250:25", help="temperature grid (K)")
    p.add_argument(
        "--omega-hz", type=_number(unit=_HZ), default=1e6, help="frequency (Hz)"
    )
    p.add_argument(
        "--distance-um",
        type=_number(unit=_UM),
        default=225.0,
        help="ion-surface gap (um)",
    )
    p.add_argument(
        "--tolerance", type=_number(), default=1e-6, help="quadrature rel. tolerance"
    )
    p.add_argument(
        "--lambda0-nm",
        type=_number(unit=_NM),
        action="append",
        metavar="NM",
        help="override the superconductor London depth; repeat for a band",
    )
    p.set_defaults(func=cmd_fdt)

    p = sub.add_parser("jnn", help="Johnson-noise budget of the electrodes")
    _add_common(p)
    p.add_argument("--temps", default="10:210:21", help="temperature grid (K)")
    p.add_argument(
        "--omega-hz", type=_number(unit=_HZ), default=1e6, help="frequency (Hz)"
    )
    p.set_defaults(func=cmd_jnn)

    p = sub.add_parser("fit", help="fit heating-rate data")
    _add_common(p, needs_config=False)
    p.add_argument("--data", required=True, help="heating-rate CSV")
    p.add_argument(
        "--model",
        required=True,
        choices=("freq", "temp", "surface"),
        help="fit family",
    )
    p.add_argument(
        "--plateau-tol",
        type=_number(),
        default=0.1,
        help="relative rise defining the plateau width (temp model)",
    )
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("taf", help="fluctuator-model exponent prediction")
    _add_common(p, needs_config=False)
    p.add_argument("--data", required=True, help="heating-rate CSV (single f)")
    p.add_argument(
        "--omega-hz", type=_number(unit=_HZ), default=1e6,
        help="prediction frequency (Hz)",
    )
    p.add_argument(
        "--tau0-s", type=_number(), default=1e-13, help="fluctuator attempt time (s)"
    )
    p.add_argument(
        "--n-boot", type=_COUNT, default=200, help="bootstrap refits for the band"
    )
    p.add_argument("--seed", type=_COUNT, default=7041, help="bootstrap seed")
    p.add_argument(
        "--alphas",
        default=None,
        help="optional T_K,alpha,sigma_alpha CSV for the consistency test",
    )
    p.set_defaults(func=cmd_taf)

    p = sub.add_parser("zeta", help="patch-noise share of a surface region")
    _add_common(p)
    p.add_argument(
        "--f-ratios",
        default="0:1:21",
        help="fluctuation-strength ratios (grid syntax like --temps)",
    )
    p.add_argument(
        "--patch-um",
        type=_number(unit=_UM),
        default=1.0,
        help="patch edge length (um)",
    )
    p.add_argument("--target", default="ybco", help="target region name")
    p.add_argument(
        "--exact",
        action="store_true",
        help="sum every patch directly instead of the hybrid far field",
    )
    p.set_defaults(func=cmd_zeta)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    _add_common(p, needs_config=False)
    p.add_argument(
        "--model",
        required=True,
        choices=("gamma1", "gamma2", "power", "arrhenius"),
        help="generating model",
    )
    p.add_argument(
        "--params", default=None, help="parameter config (default: packaged)"
    )
    p.add_argument("--temps", default=_DEFAULT_TEMPS, help="temperature grid (K)")
    p.add_argument(
        "--freqs",
        default=None,
        help="secular frequencies in Hz (default: all in the params file)",
    )
    p.add_argument(
        "--noise-frac", type=_number(or_equal=True), default=0.1,
        help="relative noise level",
    )
    p.add_argument(
        "--f-hz",
        type=_number(unit=_HZ),
        default=1e6,
        help="embedding frequency for surface-model datasets (Hz)",
    )
    p.add_argument("--seed", type=_COUNT, default=0, help="noise seed")
    p.set_defaults(func=cmd_synth)

    return parser


def _override_text(value) -> str:
    if value is None:
        return ""
    if isinstance(value, list):
        return ",".join(f"{x:g}" for x in value)
    return str(value)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        inputs, output = args.func(args)
        manifest = make_manifest(
            args.command,
            config_paths=inputs,
            overrides={
                key: _override_text(value)
                for key, value in vars(args).items()
                if key not in _NOT_OVERRIDES
            },
            seed=vars(args).get("seed"),
        )
        if isinstance(output, dict):
            write_json_report(args.out, manifest, output)
        elif isinstance(output, tuple):
            write_csv(args.out, manifest, *output)
        else:
            write_heating_csv(args.out, output, manifest)
    except TrapnoiseError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code
    if args.command == "taf" and args.alphas is not None:
        # the one comment line of the file holds the verdict as JSON
        c = json.loads(output[2][0].split(":", 1)[1])
        print(
            f"taf consistency: chi2 = {c['chi2']:.4g} over "
            f"{c['n_points']} points, p = {c['p_value']:.3g}"
        )
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
