"""Configuration files, dataset CSV I/O, and the run manifest.

Config files are INI-style (:mod:`configparser`), with one section per
object.  Section names are namespaced so several roles can share one file,
and :func:`load_configs` alone picks each role's file, given or packaged:

* ``[material:NAME]``  -- material models (see :func:`load_materials`)
* ``[stack]``          -- a layer stack, top to bottom (:func:`load_stack`)
* ``[filter:NAME]``, ``[lead:NAME]``, ``[electrode:NAME]`` -- a circuit
  inventory (:func:`load_circuit`)
* ``[scene]``, ``[region:NAME]`` -- a patch scene (:func:`load_scene`)
* ``[temp-model]``, ``[surface-model]`` -- synthetic-data parameters

Dimensioned keys carry their unit as a suffix (``_m``, ``_K``, ``_ohm``,
``_hz``); resistivity tables are multiline ``T_K  rho_ohm_m`` pairs.

Dataset CSVs use the fixed schema ``T_K,f_Hz,gamma_phps,sigma_phps``, and
measured-exponent CSVs ``T_K,alpha,sigma_alpha``; both have a mandatory
header row, and lines starting with ``#`` are comments.  Every file
this package writes embeds the dict of :func:`make_manifest` -- as a
``# manifest:`` comment line in CSVs and as a top-level ``"manifest"`` field
in JSON reports -- so outputs are traceable and reruns byte-identical.

Each loader only parses: the types it builds check the values (``ElectrodeModel``
its ``bonds``, ``FilmSheet`` its material, ``PatchScene`` its axis), and
:data:`TEMP_KEYS` alone spells the temperature keys.  Loaders import those
types when run, so importing this module loads only
:mod:`~trapnoise.constants`, and no numpy.
"""

from __future__ import annotations

import configparser
import json
import math
import numbers
from importlib import resources
from pathlib import Path
from typing import TYPE_CHECKING

from .constants import (
    CONSTANTS, ConfigFileError, DataFileError, DomainError, omega_from_hz, require_above,
)

if TYPE_CHECKING:
    from .inference import HeatingDataset, TempFitParams
    from .layers import LayerStack
    from .materials import MaterialModel
    from .noise import ElectrodeModel, FilterNetwork, LeadModel
    from .patches import PatchScene

__all__ = [
    "ConfigFileError",
    "DataFileError",
    "make_manifest",
    "packaged_config",
    "config_roles",
    "load_materials",
    "load_stack",
    "load_circuit",
    "load_scene",
    "load_temp_params",
    "load_surface_params",
    "load_configs",
    "load_synth_params",
    "read_heating_csv",
    "read_alpha_csv",
    "write_heating_csv",
    "write_csv",
    "write_json_report",
    "format_value",
    "HEATING_COLUMNS",
    "TEMP_KEYS",
]

HEATING_COLUMNS = ("T_K", "f_Hz", "gamma_phps", "sigma_phps")


# ---------------------------------------------------------------------------
# run manifest and serialization


def make_manifest(
    command: str,
    config_paths=(),
    overrides: dict | None = None,
    seed: int | None = None,
) -> dict:
    """Provenance block embedded in every output file, stamped with the
    package version and constants fingerprint.  It holds no timestamps or
    host details, so reruns with identical inputs give byte-identical files."""
    from . import __version__

    return {
        "command": str(command),
        "config_paths": [str(p) for p in config_paths],
        "overrides": {str(k): str(v) for k, v in (overrides or {}).items()},
        "seed": None if seed is None else int(seed),
        "tool_version": __version__,
        "constants_fingerprint": CONSTANTS.fingerprint(),
    }


def format_value(value) -> str:
    """Stable text form for CSV cells: shortest round-trip for floats.
    numpy's integer and floating scalars count as ``numbers.Integral`` and
    ``numbers.Real``, under which numpy registers them."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return value
    # a float skips the ABC checks, which cost several plain isinstance calls
    if not isinstance(value, float):
        if isinstance(value, numbers.Integral):
            return str(int(value))
        if not isinstance(value, numbers.Real):
            return str(value)
    value = float(value)
    if math.isnan(value) or math.isinf(value):
        raise DomainError(f"refusing to serialize non-finite value {value}")
    return repr(value)


def write_csv(path, manifest: dict, header, rows, comments=()) -> None:
    """CSV with the manifest as a leading ``# manifest:`` comment line,
    followed by one ``# ...`` line per extra comment.  Every value is
    formatted before the file is opened, so a refused one leaves no file."""
    lines = [
        "# manifest: " + json.dumps(manifest, sort_keys=True, separators=(",", ":")),
        *(f"# {comment}" for comment in comments),
        ",".join(header),
        *(",".join(format_value(v) for v in row) for row in rows),
    ]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("".join(line + "\n" for line in lines))


def _json_default(value):
    # numpy scalars, as in format_value
    if isinstance(value, numbers.Integral):
        return int(value)
    if isinstance(value, numbers.Real):
        return float(value)
    raise TypeError(f"{value!r} is not JSON serializable")


def write_json_report(path, manifest: dict, payload: dict) -> None:
    """JSON report with a schema tag and the manifest as a top-level field;
    a non-finite value raises :class:`DomainError` before the file is opened."""
    doc = {"schema": "trapnoise-report/1", "manifest": manifest}
    doc.update(payload)
    try:
        text = json.dumps(doc, indent=2, default=_json_default, allow_nan=False)
    except ValueError as exc:
        raise DomainError(f"refusing to serialize non-finite value ({exc})") from None
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text + "\n")


# ---------------------------------------------------------------------------
# config plumbing


def packaged_config(category: str, name: str) -> Path:
    """Path of a config shipped with the package, e.g. ('materials', 'default')."""
    base = resources.files("trapnoise").joinpath("data", category, f"{name}.cfg")
    path = Path(str(base))
    if not path.is_file():
        raise ConfigFileError(f"no packaged config data/{category}/{name}.cfg")
    return path


def _read_ini(path) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(
        interpolation=None, inline_comment_prefixes=(";", "#")
    )
    parser.optionxform = str  # keep key case (unit suffixes like _K, _Hz)
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh, source=str(path))
    except OSError as exc:
        raise ConfigFileError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigFileError(f"{path}: {exc}") from exc
    return parser


def config_roles(path) -> set[str]:
    """Which object kinds a config file provides, from its section names."""
    parser = _read_ini(path)
    roles: set[str] = set()
    for section in parser.sections():
        if section.startswith("material:"):
            roles.add("materials")
        elif section == "stack":
            roles.add("stack")
        elif section.startswith(("filter:", "lead:", "electrode:")):
            roles.add("circuit")
        elif section == "scene" or section.startswith("region:"):
            roles.add("scene")
        elif section in ("temp-model", "surface-model"):
            roles.add("params")
        else:
            raise ConfigFileError(f"{path}: unknown section [{section}]")
    return roles


class _Section:
    """One config section: typed getters, leftover-key detection, and the
    section's error boundary.

    These methods are the only code that turns config text into values;
    every fault they find is a :class:`ConfigFileError` naming the file and
    section.  ``with sec:`` around a section's build does the same for the
    ``ValueError``/``DomainError`` of the objects built from those values.
    """

    def __init__(self, path, name: str, proxy):
        self.path = path
        self.name = name
        self._proxy = proxy
        self._seen: set[str] = set()

    def __enter__(self) -> "_Section":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if isinstance(exc, ValueError) and not isinstance(exc, ConfigFileError):
            raise self.error(str(exc)) from exc

    def error(self, message: str) -> ConfigFileError:
        return ConfigFileError(f"{self.path}: [{self.name}] {message}")

    def raw(self, key: str, default=None, required: bool = False) -> str | None:
        if key not in self._proxy:
            if required:
                raise self.error(f"missing required key '{key}'")
            return default
        self._seen.add(key)
        return self._proxy[key].strip()

    def number(self, key: str, text: str, kind=float):
        """``kind(text)``, finite; a bad value is reported against ``key``."""
        try:
            value = kind(text)
        except ValueError as exc:
            what = "an integer" if kind is int else "a number"
            raise self.error(f"{key}: {text!r} is not {what}") from exc
        if kind is float and not math.isfinite(value):
            raise self.error(f"{key}: {text!r} is not finite")
        return value

    def floatval(self, key: str, default=None, required: bool = False):
        raw = self.raw(key, None, required)
        return default if raw is None else self.number(key, raw)

    def intval(self, key: str, default=None, required: bool = False):
        raw = self.raw(key, None, required)
        return default if raw is None else self.number(key, raw, int)

    def records(self, key: str, shape: str, sep="\n", required: bool = False):
        """Multi-field value of ``key`` as lists of field strings.

        The value is cut into items at ``sep`` (lines by default; ``None``
        keeps the whole value as one item) and blank items are skipped.
        Each item holds the whitespace-separated fields that ``shape`` names,
        e.g. ``"C_F [esr_ohm]"``; bracketed trailing fields may be left out.
        Returns None for an absent key and rejects a required empty one.
        """
        raw = self.raw(key, None, required)
        if raw is None:
            return None
        names = shape.split()
        fewest = sum(not n.startswith("[") for n in names)
        items = [raw] if sep is None else [i for i in raw.split(sep) if i.strip()]
        rows = []
        for item in items:
            fields = item.split()
            if not fewest <= len(fields) <= len(names):
                raise self.error(f"{key}: expected '{shape}', got {item.strip()!r}")
            rows.append(fields)
        if required and not rows:
            raise self.error(f"{key} must not be empty")
        return rows

    def fields(self, key: str, shape: str, required: bool = False):
        """The one ``shape`` record that makes up the value of ``key``."""
        rows = self.records(key, shape, None, required)
        return None if rows is None else rows[0]

    def floats(self, key: str, shape: str, required: bool = False):
        """:meth:`records` of lines with every field parsed as a number."""
        rows = self.records(key, shape, required=required)
        if rows is None:
            return None
        return [tuple(self.number(key, f) for f in row) for row in rows]

    def finish(self) -> None:
        leftover = set(self._proxy.keys()) - self._seen
        if leftover:
            raise self.error(f"unknown keys: {', '.join(sorted(leftover))}")


def _sections(parser, path, prefix: str):
    for name in parser.sections():
        if name.startswith(prefix):
            sec = _Section(path, name, parser[name])
            if name == prefix:
                raise sec.error("section name must be non-empty")
            yield name[len(prefix):], sec


def _single_section(parser, path, name: str) -> _Section:
    if name not in parser:
        raise ConfigFileError(f"{path}: missing required section [{name}]")
    return _Section(path, name, parser[name])


# ---------------------------------------------------------------------------
# materials


def _build_material(name: str, sec: _Section) -> MaterialModel:
    from .materials import (
        Conductor,
        LossyDielectric,
        ResistivityTable,
        SCSheetSpec,
        TwoFluidSC,
        Vacuum,
        ybco_normal_default,
    )

    kind = sec.raw("kind", required=True)
    if kind == "vacuum":
        sec.finish()
        return Vacuum(name=name)
    if kind == "conductor":
        pairs = sec.floats("rho_table", "T_K rho_ohm_m", required=True)
        sec.finish()
        return Conductor(
            rho=ResistivityTable.from_pairs(pairs, label=name), name=name
        )
    if kind == "lossy_dielectric":
        eps_r = sec.floatval("eps_r", required=True)
        tan_delta = sec.floatval("tan_delta", 0.0)
        sec.finish()
        return LossyDielectric(eps_r=eps_r, tan_delta=tan_delta, name=name)
    if kind == "two_fluid_sc":
        lambda0 = sec.floatval("lambda0_m", required=True)
        tc = sec.floatval("tc_K", required=True)
        sigma_n = sec.floatval("sigma_n_S_per_m", required=True)
        sheet = SCSheetSpec(
            rs_ref=sec.floatval("sc_rs_ref_ohm", SCSheetSpec.rs_ref),
            omega_ref=omega_from_hz(sec.floatval(
                "sc_f_ref_hz", SCSheetSpec.omega_ref / (2.0 * math.pi)
            )),
            rs_residual=sec.floatval("sc_rs_residual_ohm", SCSheetSpec.rs_residual),
        )
        if sec.raw("rho_normal", "auto") == "auto":
            t_max = sec.floatval("rho_normal_t_max_K", 320.0)
            rho_normal = ybco_normal_default(
                sigma_n=sigma_n, Tc=tc, t_max=t_max
            )
        else:
            pairs = sec.floats("rho_normal", "T_K rho_ohm_m")
            rho_normal = ResistivityTable.from_pairs(
                pairs, label=f"{name}-normal"
            )
        sec.finish()
        return TwoFluidSC(
            lambda0=lambda0,
            Tc=tc,
            sigma_n=sigma_n,
            rho_normal=rho_normal,
            sc_sheet=sheet,
            name=name,
        )
    raise sec.error(f"unknown material kind {kind!r}")


def load_materials(path) -> dict[str, MaterialModel]:
    """All ``[material:NAME]`` sections of a config file, keyed by name."""
    parser = _read_ini(path)
    materials: dict[str, MaterialModel] = {}
    for name, sec in _sections(parser, path, "material:"):
        with sec:
            materials[name] = _build_material(name, sec)
    if not materials:
        raise ConfigFileError(f"{path}: no [material:NAME] sections found")
    return materials


def _resolve_material(sec: _Section, materials, name: str) -> MaterialModel:
    if name not in materials:
        known = ", ".join(sorted(materials)) or "none"
        raise sec.error(f"unknown material {name!r} (known: {known})")
    return materials[name]


# ---------------------------------------------------------------------------
# stacks


def load_stack(path, materials: dict[str, MaterialModel]) -> LayerStack:
    """The ``[stack]`` section: one ``material thickness_m|bulk`` line per layer."""
    from .layers import Layer, LayerStack

    parser = _read_ini(path)
    sec = _single_section(parser, path, "stack")
    with sec:
        name = sec.raw("name", Path(path).stem)
        layers = tuple(
            Layer(
                material=_resolve_material(sec, materials, mat),
                thickness=None if thickness == "bulk"
                else sec.number("layers", thickness),
            )
            for mat, thickness in sec.records(
                "layers", "material thickness_m|bulk", required=True
            )
        )
        sec.finish()
        return LayerStack(layers=layers, name=name)


# ---------------------------------------------------------------------------
# circuits


def _build_filter(sec: _Section) -> FilterNetwork:
    from .noise import FilterCapacitor, FilterNetwork

    series_r = sec.floatval("series_r_ohm", required=True)
    caps = sec.floats("capacitors", "C_F [esr_ohm]") or ()
    sec.finish()
    return FilterNetwork(
        series_r=series_r, capacitors=tuple(FilterCapacitor(*c) for c in caps)
    )


def _build_lead(sec: _Section, materials) -> LeadModel:
    from .noise import LeadModel, RectTrace, WireBond

    trace = sec.fields("trace", "material width_m thickness_m length_m")
    if trace is not None:
        mat, *sizes = trace
        trace = RectTrace(*(sec.number("trace", x) for x in sizes),
                          _resolve_material(sec, materials, mat))
    bond = sec.fields("bond", "material diameter_m length_m")
    if bond is not None:
        mat, *sizes = bond
        bond = WireBond(*(sec.number("bond", x) for x in sizes),
                        _resolve_material(sec, materials, mat))
    contact = sec.floatval("contact_r_ohm", 0.0)
    sec.finish()
    return LeadModel(trace, bond, contact)


def _named(sec: _Section, key: str, known: dict, default):
    """The object of ``known`` that ``key`` names, or ``default`` if absent."""
    name = sec.raw(key)
    if name is None:
        return default
    if name not in known:
        raise sec.error(f"unknown {key} {name!r}")
    return known[name]


def _build_electrodes(
    name: str, sec: _Section, materials, filters, leads
) -> list[ElectrodeModel]:
    """One ``[electrode:NAME]`` section, expanded into its ``copies``."""
    from .materials import FilmSheet
    from .noise import ElectrodeModel, LeadModel

    distance = sec.floatval("distance_m", required=True)
    strip_length = sec.floatval("strip_length_m", required=True)
    strip_width = sec.floatval("strip_width_m", required=True)
    films = tuple(
        FilmSheet(
            material=_resolve_material(sec, materials, mat),
            thickness=sec.number("films", thickness),
        )
        for mat, thickness in sec.records("films", "material thickness_m", ",") or ()
    )
    lead = _named(sec, "lead", leads, LeadModel())
    filt = _named(sec, "filter", filters, None)
    bonds = sec.intval("bonds", 1)
    copies = sec.intval("copies", 1)
    require_above(copies, "copies", 1, or_equal=True)  # expanding a section is parsing
    sec.finish()
    names = [name] if copies == 1 else [f"{name}{i}" for i in range(1, copies + 1)]
    return [ElectrodeModel(n, distance, strip_length, strip_width, films, lead, filt, bonds)
            for n in names]


def load_circuit(path, materials: dict[str, MaterialModel]) -> list[ElectrodeModel]:
    """Electrode inventory from ``[filter:]``/``[lead:]``/``[electrode:]`` sections."""
    parser = _read_ini(path)
    filters = {}
    for name, sec in _sections(parser, path, "filter:"):
        with sec:
            filters[name] = _build_filter(sec)
    leads = {}
    for name, sec in _sections(parser, path, "lead:"):
        with sec:
            leads[name] = _build_lead(sec, materials)

    electrodes: list[ElectrodeModel] = []
    for name, sec in _sections(parser, path, "electrode:"):
        with sec:
            for elec in _build_electrodes(name, sec, materials, filters, leads):
                if any(e.name == elec.name for e in electrodes):
                    raise sec.error(f"electrode name {elec.name!r} is already in use")
                if elec.name == "TOTAL":
                    raise sec.error("electrode name 'TOTAL' names the budget's sum row")
                electrodes.append(elec)
    if not electrodes:
        raise ConfigFileError(f"{path}: no [electrode:NAME] sections found")
    return electrodes


# ---------------------------------------------------------------------------
# patch scenes


def load_scene(path) -> PatchScene:
    """Patch scene of ``[scene]`` and ``[region:NAME]`` sections, its axis as given."""
    from .patches import PatchScene, PlaneRegion

    parser = _read_ini(path)
    sec = _single_section(parser, path, "scene")
    with sec:
        height = sec.floatval("ion_height_m", required=True)
        ion_xy = (sec.floatval("ion_x_m", 0.0), sec.floatval("ion_y_m", 0.0))
        axial = (sec.floatval("axial_x", 1.0), sec.floatval("axial_y", 0.0))
        sec.finish()

        regions = []
        for name, rsec in _sections(parser, path, "region:"):
            with rsec:
                rect = rsec.fields("rect_m", "x0 x1 y0 y1", required=True)
                rect = tuple(rsec.number("rect_m", v) for v in rect)
                weight = rsec.floatval("weight", 1.0)
                rsec.finish()
                regions.append(PlaneRegion(rect=rect, weight=weight, name=name))
        if not regions:
            raise ConfigFileError(f"{path}: no [region:NAME] sections found")
        return PatchScene(
            regions=tuple(regions), ion_height=height, ion_xy=ion_xy, axial_dir=axial
        )


# ---------------------------------------------------------------------------
# synthetic-model parameter files


# the [temp-model] and fit-report key of each TempFitParams field, in report order
TEMP_KEYS = {"gamma0": "gamma0_phps", "t1": "t1_K", "beta1": "beta1",
             "t2": "t2_K", "beta2": "beta2", "t_star": "t_star_K"}


def load_temp_params(path) -> TempFitParams:
    """Temperature-model parameters from a ``[temp-model]`` section.

    :data:`TEMP_KEYS` spells the keys; ``gamma0_phps`` lists one ``f_Hz gamma0``
    pair per line, each frequency once, and the piecewise keys are optional.
    :class:`~trapnoise.inference.TempFitParams` checks the values.
    """
    from .inference import TempFitParams

    parser = _read_ini(path)
    sec = _single_section(parser, path, "temp-model")
    with sec:
        shape = {name: sec.floatval(key, required=name in ("t1", "beta1"))
                 for name, key in TEMP_KEYS.items() if name != "gamma0"}
        pairs = sec.floats(TEMP_KEYS["gamma0"], "f_Hz gamma0", required=True)
        sec.finish()
        gamma0 = {}
        for f_hz, g0 in pairs:
            if f_hz in gamma0:
                raise sec.error(f"{TEMP_KEYS['gamma0']}: duplicate frequency {f_hz} Hz")
            gamma0[f_hz] = g0
        return TempFitParams(gamma0, **shape)


def load_surface_params(path, kind: str) -> dict[str, float]:
    """Surface-noise model parameters from a ``[surface-model]`` section, in
    the model's ``names`` order; the key of the temperature ``t0`` is
    ``t0_K``, and :meth:`~trapnoise.inference.Model.check` checks the values."""
    from .inference import SURFACE_MODELS

    if kind not in SURFACE_MODELS:
        raise ConfigFileError(f"unknown surface model kind {kind!r}")
    parser = _read_ini(path)
    sec = _single_section(parser, path, "surface-model")
    with sec:
        out = {
            name: sec.floatval(name + "_K" if name == "t0" else name, required=True)
            for name in SURFACE_MODELS[kind].names
        }
        sec.finish()
        return SURFACE_MODELS[kind].check(out)


# ---------------------------------------------------------------------------
# what a command reads

# the packaged file of each config role and of each synthetic model's parameters
_PACKAGED = {
    "materials": ("materials", "default"),
    "stack": ("stacks", "sapphire-ybco"),
    "circuit": ("circuits", "ybco-trap"),
    "scene": ("scenes", "ybco-chip"),
    "gamma1": ("synth", "temp-simple"),
    "gamma2": ("synth", "temp-piecewise"),
    "power": ("synth", "surface-power"),
    "arrhenius": ("synth", "surface-arrhenius"),
}


def load_configs(paths, needed: tuple[str, ...]) -> tuple[list[str], dict]:
    """Paths in ``needed`` order, and objects by role, of the config roles a
    command needs.  Each of ``paths`` gives the roles its sections name, at
    least one needed and none another file gives; packaged files give the
    rest.  Stacks and circuits are built on the materials, loaded first."""
    given: dict[str, str] = {}
    for path in paths:
        roles = config_roles(path)
        if not roles & set(needed):
            raise ConfigFileError(f"{path}: provides none of the roles {needed} used here")
        for role in (r for r in needed if r in roles):
            if role in given:
                raise ConfigFileError(f"role '{role}' given twice: {given[role]} and {path}")
            given[role] = str(path)
    files = {r: given.get(r) or str(packaged_config(*_PACKAGED[r])) for r in needed}
    materials = load_materials(files["materials"]) if "materials" in files else None
    load = {"materials": lambda path: materials, "scene": load_scene,
            "stack": lambda path: load_stack(path, materials),
            "circuit": lambda path: load_circuit(path, materials)}
    return list(files.values()), {role: load[role](path) for role, path in files.items()}


def load_synth_params(path, model: str):
    """``(path, params)`` of synthetic ``model``, from its packaged file if
    ``path`` is None: :func:`load_temp_params`, piecewise for ``gamma2``, or
    :func:`load_surface_params`."""
    path = str(packaged_config(*_PACKAGED[model]) if path is None else path)
    if model not in ("gamma1", "gamma2"):
        return path, load_surface_params(path, model)
    params = load_temp_params(path)
    if model == "gamma2" and not params.piecewise:
        keys = ", ".join(TEMP_KEYS[name] for name in ("t2", "beta2", "t_star"))
        raise ConfigFileError(f"{path}: gamma2 needs {keys}")
    return path, params


# ---------------------------------------------------------------------------
# heating-rate dataset CSV


def _read_numeric_csv(path, columns: tuple[str, ...], build) -> list:
    """``build(*values)`` for each data row of a CSV with header ``columns``.

    The header row is mandatory; ``#`` comment lines and blank lines are
    skipped.  Malformed content, including a non-finite number and a
    :class:`DomainError` from ``build``, raises :class:`DataFileError` with
    the offending line number.
    """
    rows = []
    header_seen = False
    try:
        fh = open(path, encoding="utf-8")
    except OSError as exc:
        raise DataFileError(f"cannot read data file {path}: {exc}") from exc
    with fh:
        for lineno, line in enumerate(fh, 1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            fields = [f.strip() for f in text.split(",")]
            if not header_seen:
                if tuple(fields) != columns:
                    raise DataFileError(
                        f"{path}:{lineno}: expected header "
                        f"'{','.join(columns)}', got {text!r}"
                    )
                header_seen = True
                continue
            if len(fields) != len(columns):
                raise DataFileError(
                    f"{path}:{lineno}: expected {len(columns)} fields, "
                    f"got {len(fields)}"
                )
            try:
                values = [float(f) for f in fields]
                if not all(map(math.isfinite, values)):
                    raise ValueError(f"values must be finite, got {text!r}")
                rows.append(build(*values))
            except ValueError as exc:  # a bad number or a DomainError
                raise DataFileError(f"{path}:{lineno}: {exc}") from exc
    if not header_seen:
        raise DataFileError(f"{path}: empty file (header row required)")
    if not rows:
        raise DataFileError(f"{path}: no data rows")
    return rows


def read_heating_csv(path) -> HeatingDataset:
    """Dataset from a ``T_K,f_Hz,gamma_phps,sigma_phps`` CSV."""
    from .inference import HeatingDataset, HeatingRecord

    records = _read_numeric_csv(path, HEATING_COLUMNS, HeatingRecord)
    return HeatingDataset(tuple(records))


def read_alpha_csv(path) -> list[tuple[float, float, float]]:
    """(T, alpha, sigma_alpha) triples from a ``T_K,alpha,sigma_alpha`` CSV."""
    return _read_numeric_csv(path, ("T_K", "alpha", "sigma_alpha"), lambda *row: row)


def write_heating_csv(path, dataset: HeatingDataset, manifest: dict) -> None:
    """Dataset CSV in the canonical column order, manifest included."""
    rows = (
        (r.temperature, r.f_secular, r.gamma, r.sigma_gamma)
        for r in dataset.records
    )
    write_csv(path, manifest, HEATING_COLUMNS, rows)
