"""End-to-end command-line runs through main(argv), including exit codes."""

import argparse
import json
import math
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from trapnoise.cli import (
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_NUMERIC,
    EXIT_OK,
    _MAX_GRID,
    _linspace,
    build_parser,
    main,
    parse_grid,
)
from trapnoise.configio import (
    ConfigFileError,
    DataFileError,
    packaged_config,
    read_heating_csv,
)
from trapnoise.constants import (
    DegenerateInterfaceError,
    DomainError,
    FitFailure,
    PatchBudgetError,
    QuadratureFailure,
    TemperatureRangeError,
    UnusableDataError,
    omega_from_hz,
    require_above,
)
from trapnoise.inference import MAX_BOOT


def read_rows(path):
    """Parse a CLI CSV into a list of dicts keyed by header name."""
    lines = [
        line
        for line in path.read_text().splitlines()
        if line and not line.startswith("#")
    ]
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def csv_manifest(path) -> dict:
    """The manifest of a CSV this package wrote, read from its first line."""
    first = path.read_text().splitlines()[0]
    assert first.startswith("# manifest: ")
    return json.loads(first.removeprefix("# manifest: "))


# ---------------------------------------------------------------------------
# argument helpers


def test_parse_grid_forms():
    assert parse_grid("10:40:4") == pytest.approx([10.0, 20.0, 30.0, 40.0])
    assert parse_grid("15,40,60") == pytest.approx([15.0, 40.0, 60.0])
    assert parse_grid("77") == pytest.approx([77.0])
    with pytest.raises(ConfigFileError):
        parse_grid("10:40")  # colon form needs three fields
    with pytest.raises(ConfigFileError):
        parse_grid("10:40:0")
    with pytest.raises(ConfigFileError):
        parse_grid("ten,twenty")


# grid ends: signed zeros, subnormals, the largest float, +-inf and NaN
_GRID_ENDS = st.floats() | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1.7976931348623157e308, -math.inf, math.nan])


def _bits(values):
    """uint64 views of float64 values; every NaN maps to one value, as IEEE 754
    leaves open which NaN payload and sign an operation returns, and numpy's
    own choice changes with the count (its SIMD and scalar loops differ)."""
    return [None if math.isnan(v) else struct.unpack("<Q", struct.pack("<d", v))[0]
            for v in values]


@settings(max_examples=500, deadline=None)
@example(start=1.0, stop=1.0, n=5)               # equal ends
@example(start=0.0, stop=5e-324, n=7)            # a step that underflows to 0
@example(start=-0.0, stop=-0.0, n=1)
@example(start=-0.0, stop=-1.0, n=1)
@example(start=-math.inf, stop=math.inf, n=3)
@example(start=math.nan, stop=2.0, n=4)
@example(start=-1e308, stop=1e308, n=9)          # the span overflows to inf
@given(start=_GRID_ENDS, stop=_GRID_ENDS, n=st.integers(1, 300))
def test_linspace_port_matches_numpy_bit_for_bit(start, stop, n):
    with np.errstate(all="ignore"):
        expected = np.linspace(start, stop, n).tolist()
    assert _bits(_linspace(start, stop, n)) == _bits(expected)


@pytest.mark.parametrize("n", [_MAX_GRID + 1, 10**20])
def test_parse_grid_rejects_a_count_past_its_bound_before_allocating(n):
    # only counts rejected before the grid is built: an allowed huge count would
    # build its list of floats
    with pytest.raises(ConfigFileError, match=f"^grid count must be 1 to {_MAX_GRID} in "):
        parse_grid(f"0:1:{n}")


def test_parse_grid_bounds_the_points_of_all_its_tokens():
    # each token alone is in bound; the second would take the grid past it
    half = _MAX_GRID // 2 + 1
    message = f"^grid count must be 1 to {_MAX_GRID - half} in '3:4:{half}'"
    with pytest.raises(ConfigFileError, match=message):
        parse_grid(f"1:2:{half},3:4:{half}")
    assert len(parse_grid(f"1:2:{half},3:4:{_MAX_GRID - half}")) == _MAX_GRID


@pytest.mark.parametrize(
    "argv",
    [
        ["fdt"],
        ["jnn"],
        ["fit", "--data", "rates.csv", "--model", "temp"],
        ["taf", "--data", "rates.csv"],
        ["zeta"],
        ["synth", "--model", "power"],
    ],
    ids=lambda argv: argv[0],
)
def test_threads_flag_is_rejected(argv, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--threads", "2", "--out", str(tmp_path / "o")])
    assert exc.value.code == 2


def _typed_flags():
    """(subcommand, flag, dest) for every flag whose text argparse converts."""
    sub = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    return [
        (command, action.option_strings[0], action.dest)
        for command, parser in sub.choices.items()
        for action in parser._actions
        if action.type is not None
    ]


def _float_and_grid_flags():
    """(subcommand, flag) for every flag that takes a number or a grid."""
    floats = [(command, flag) for command, flag, _ in _typed_flags()]
    grids = [("fdt", "--temps"), ("jnn", "--temps"), ("zeta", "--f-ratios"),
             ("synth", "--temps"), ("synth", "--freqs")]
    # --seed is gone from the commands that draw nothing; a non-finite
    # value there must still exit with the config code and write nothing.
    retired = [(c, "--seed") for c in ("fdt", "fit", "jnn", "zeta")]
    return floats + grids + retired


_FLAGS = _float_and_grid_flags()
_FLAG_BASE = {
    "fit": ["--data", "{data}", "--model", "temp"],
    "taf": ["--data", "{data}", "--n-boot", "5"],
    "synth": ["--model", "power"],
}


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "command, flag", _FLAGS, ids=[f"{c}{f}" for c, f in _FLAGS]
)
def test_non_finite_flag_exits_config(command, flag, value, tmp_path):
    data = tmp_path / "rates.csv"
    flat_rate_csv(data)
    base = _FLAG_BASE.get(command, [])
    if flag == "--freqs":
        base = ["--model", "gamma2"]
    out = tmp_path / "out"
    argv = [command, *(a.format(data=data) for a in base), f"{flag}={value}",
            "--out", str(out)]
    try:
        rc = main(argv)
    except SystemExit as exc:  # argparse rejects the value
        rc = exc.code
    assert rc == EXIT_CONFIG
    assert not out.exists()


_OUT_OF_RANGE = [
    ("zeta", "--patch-um", "0"),
    ("zeta", "--patch-um", "-1"),
    ("fdt", "--distance-um", "0"),
    ("fdt", "--tolerance", "-1"),
    ("fdt", "--omega-hz", "-1"),
    ("fdt", "--lambda0-nm", "0"),
    ("fdt", "--lambda0-nm", "-5"),
    # positive, but 0 m once converted to metres
    ("fdt", "--lambda0-nm", "1e-320"),
    ("fdt", "--distance-um", "1e-320"),
    ("zeta", "--patch-um", "1e-320"),
    ("jnn", "--omega-hz", "0"),
    ("taf", "--omega-hz", "0"),
    ("taf", "--tau0-s", "0"),
    ("taf", "--n-boot", "-5"),
    ("fit", "--plateau-tol", "0"),
    ("synth", "--f-hz", "-1"),
    ("synth", "--noise-frac", "-1"),
    ("synth", "--seed", "-1"),
    # finite in Hz, but inf rad/s once converted
    ("fdt", "--omega-hz", "1e308"),
    ("jnn", "--omega-hz", "1e308"),
    ("taf", "--omega-hz", "1e308"),
    ("synth", "--f-hz", "1e308"),
]


@pytest.mark.parametrize(
    "command, flag, value", _OUT_OF_RANGE,
    ids=[f"{c}{f}={v}" for c, f, v in _OUT_OF_RANGE],
)
def test_out_of_range_flag_exits_config(command, flag, value, tmp_path, capsys):
    data = tmp_path / "rates.csv"
    flat_rate_csv(data)
    out = tmp_path / "out"
    argv = [command, *(a.format(data=data) for a in _FLAG_BASE.get(command, [])),
            f"{flag}={value}", "--out", str(out)]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_CONFIG
    assert f"argument {flag}: must be" in capsys.readouterr().err
    assert not out.exists()


# what each command makes of a typed flag's value before the library gets
# it, and the library's bound on the result: (convert, lo, or_equal)
_LIBRARY_DOMAIN = {
    "--omega-hz": (omega_from_hz, 0.0, False),
    "--f-hz": (omega_from_hz, 0.0, False),
    "--distance-um": (lambda um: um * 1e-6, 0.0, False),
    "--patch-um": (lambda um: um * 1e-6, 0.0, False),
    "--lambda0-nm": (lambda nms: nms[0] * 1e-9, 0.0, False),
    "--tolerance": (float, 0.0, False),
    "--plateau-tol": (float, 0.0, False),
    "--tau0-s": (float, 0.0, False),
    "--noise-frac": (float, 0.0, True),
    "--n-boot": (int, 0, True),
    "--seed": (int, 0, True),
}
_EDGE_TEXTS = ["0", "-0", "0.0", "-0.0", "5e-324", "-5e-324", "2.2e-308", "1e-320",
               "2e-310", "1e308", "-1e308", "1.7976931348623157e308", "-1", "-1e-300",
               "nan", "-nan", "inf", "-inf", "1", "7", "1e-13"]
_TYPED = _typed_flags()


def _with_edge_texts(test):
    for text in _EDGE_TEXTS:
        test = example(text=text)(test)
    return test


@pytest.mark.parametrize(
    "command, flag, dest", _TYPED, ids=[f"{c}{f}" for c, f, _ in _TYPED]
)
@settings(max_examples=40, deadline=None)
@_with_edge_texts
@given(text=st.floats().map(repr) | st.integers(-2**70, 2**70).map(str))
def test_typed_flag_is_rejected_or_reaches_the_library_in_domain(
    command, flag, dest, text
):
    argv = [command, *_FLAG_BASE.get(command, []), f"{flag}={text}", "--out", "o"]
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # rejected before any command runs or writes
        assert exc.code == EXIT_CONFIG
        return
    convert, lo, or_equal = _LIBRARY_DOMAIN[flag]
    require_above(convert(getattr(args, dest)), flag, lo, or_equal=or_equal)


_LATE_FLAG_FAULTS = [
    (["synth", "--model", "power", "--freqs", "2e6"], "--freqs"),
    (["synth", "--model", "arrhenius", "--freqs", "1e6"], "--freqs"),
    (["fdt", "--lambda0-nm", "150", "--lambda0-nm", "150"], "--lambda0-nm"),
    (["fdt", "--temps", "0"], "temps"),
    (["fdt", "--temps", "20,-5"], "temps"),
    (["synth", "--model", "gamma2", "--temps", "0,20"], "temps"),
    (["jnn", "--temps=-1"], "temps"),
    (["synth", "--model", "gamma1", "--freqs", "0"], "--freqs"),
    (["synth", "--model", "gamma2", "--freqs", "2e6"], "--freqs"),
    (["zeta", "--f-ratios", f"0:1:{_MAX_GRID + 1}"], "grid count"),
    (["zeta", "--f-ratios", "0:1:100000000000000000000"], "grid count"),
    (["fdt", "--temps", "10:20:100000000000000000000"], "grid count"),
]


@pytest.mark.parametrize(
    "argv, flag", _LATE_FLAG_FAULTS,
    ids=[" ".join(argv) for argv, _ in _LATE_FLAG_FAULTS],
)
def test_flag_fault_exits_config_before_computing(
    argv, flag, tmp_path, capsys, monkeypatch
):
    def never(*args, **kwargs):
        raise AssertionError("computed despite a bad flag")

    # the commands import their library entry points when they run
    for name in ("noise.fdt_noise", "noise.jnn_budget", "inference.synth_dataset",
                 "inference.synth_surface", "patches.zeta"):
        monkeypatch.setattr(f"trapnoise.{name}", never)
    out = tmp_path / "out.csv"
    assert main([*argv, "--out", str(out)]) == EXIT_CONFIG
    assert flag in capsys.readouterr().err
    assert not out.exists()


_RAISED = [
    (ConfigFileError("bad"), EXIT_CONFIG, "config error"),
    (DataFileError("bad"), EXIT_DATA, "data error"),
    (UnusableDataError("bad"), EXIT_DATA, "data error"),
    (DomainError("bad"), EXIT_NUMERIC, "numerical error"),
    (QuadratureFailure("bad", 0.0, 1.0, 15), EXIT_NUMERIC, "numerical error"),
    (FitFailure("bad", None, 1.0, 3), EXIT_NUMERIC, "numerical error"),
    (PatchBudgetError("bad"), EXIT_NUMERIC, "numerical error"),
    (TemperatureRangeError("bad"), EXIT_NUMERIC, "numerical error"),
    (DegenerateInterfaceError("bad"), EXIT_NUMERIC, "numerical error"),
]


@pytest.mark.parametrize(
    "error, code, prefix", _RAISED, ids=[type(e).__name__ for e, _, _ in _RAISED]
)
def test_library_error_reaches_its_exit_code(
    error, code, prefix, tmp_path, capsys, monkeypatch
):
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr("trapnoise.patches.zeta", fail)
    out = tmp_path / "zeta.csv"
    assert main(["zeta", "--out", str(out)]) == code
    assert capsys.readouterr().err == f"{prefix}: bad\n"
    assert not out.exists()


# ---------------------------------------------------------------------------
# flag edges


@pytest.fixture(scope="module")
def edge_data(tmp_path_factory):
    """A one-frequency gamma2 dataset for ``fit`` and a power-model surface
    dataset for ``taf``, both at 1 MHz."""
    root = tmp_path_factory.mktemp("edge-data")
    paths = {"rates": root / "rates.csv", "surface": root / "surface.csv"}
    assert main(["synth", "--model", "gamma2", "--freqs", "1e6",
                 "--out", str(paths["rates"])]) == EXIT_OK
    assert main(["synth", "--model", "power", "--out", str(paths["surface"])]) == EXIT_OK
    return paths


# each command's required flags, and a one-point value for each grid
_EDGE_BASE = {
    "fdt": ["--temps", "40"],
    "jnn": ["--temps", "40"],
    "fit": ["--data", "{rates}", "--model", "temp"],
    "taf": ["--data", "{surface}"],
    "zeta": ["--f-ratios", "1"],
    "synth": ["--model", "power", "--temps", "40"],
}
# the flags whose range starts at 0 inclusive; every other starts above 0
_FROM_ZERO = {("jnn", "--temps"), ("zeta", "--f-ratios"), ("taf", "--n-boot"),
              ("taf", "--seed"), ("synth", "--noise-frac"), ("synth", "--seed")}
# a value near the top of each flag's range: 1e300, finite in SI units too,
# and for the counts a huge integer (past the bound of --n-boot)
_TOPS = {"--n-boot": str(10**15), "--seed": str(2**128)}


def _edge_runs():
    """(argv, id) of a run at each end of every number and grid flag's range,
    the other flags at their defaults; ``synth --temps`` runs each model."""
    runs = []
    for command, flag in _float_and_grid_flags():
        if flag == "--seed" and command not in ("taf", "synth"):
            continue  # retired there
        ends = ("0" if (command, flag) in _FROM_ZERO else "1e-300", _TOPS.get(flag, "1e300"))
        models = [None]
        if command == "synth":
            models = (["gamma1", "gamma2", "power", "arrhenius"] if flag == "--temps"
                      else ["gamma2"] if flag == "--freqs" else ["power"])
        for model in models:
            base = list(_EDGE_BASE[command])
            if model is not None:
                base[1] = model
            if flag in base:  # a grid: the value under test replaces its one point
                del base[base.index(flag):base.index(flag) + 2]
            for value in ends:
                argv = [command, *base, flag, value]
                runs.append((argv, " ".join(a for a in argv if "{" not in a)))
    return runs


_EDGE_RUNS = _edge_runs()


@pytest.mark.parametrize("argv", [argv for argv, _ in _EDGE_RUNS],
                         ids=[i for _, i in _EDGE_RUNS])
def test_flag_edge_runs_or_exits_with_one_line(argv, edge_data, tmp_path, capsys):
    out = tmp_path / "out"
    rc = main([a.format(**edge_data) for a in argv] + ["--out", str(out)])
    err = capsys.readouterr().err
    assert rc in (EXIT_OK, EXIT_CONFIG, EXIT_DATA, EXIT_NUMERIC)
    if rc == EXIT_OK:
        assert out.exists()
    else:
        assert re.fullmatch(r"(config|data|numerical) error: [^\n]+\n", err), err
        assert not out.exists()


def test_flag_edge_runs_cover_every_number_and_grid_flag():
    swept = {(argv[0], argv[-2]) for argv, _ in _EDGE_RUNS}
    retired = {(c, "--seed") for c in ("fdt", "fit", "jnn", "zeta")}
    assert swept == set(_float_and_grid_flags()) - retired


_OUT_OF_FLOAT_RANGE = [
    (["fdt", "--omega-hz", "1e160", "--temps", "40"],
     "blackbody noise must be finite, got inf"),
    (["fdt", "--distance-um", "1e-300", "--temps", "40"],
     "evanescent cut-off 37/(2 k d) must be finite, got inf"),
    (["fdt", "--lambda0-nm", "1e300", "--temps", "40"],
     "ybco: (k lambda)^2 is inf at omega = 6283185.307179586"),
    (["jnn", "--omega-hz", "1e200", "--temps", "40"],
     "trace skin-depth shell area must be > 0, got 0.0"),
    (["jnn", "--omega-hz", "1e-300", "--temps", "40"],
     "4 m hbar omega must be > 0, got 0.0"),
    (["synth", "--model", "power", "--f-hz", "1e-300"],
     "4 m hbar omega must be > 0, got 0.0"),
    (["synth", "--model", "power", "--temps", "1e300"],
     "noise density must be finite, got inf"),
    (["synth", "--model", "gamma1", "--temps", "1e300"],
     "heating rate must be finite, got inf"),
]


@pytest.mark.parametrize(
    "argv, message", _OUT_OF_FLOAT_RANGE,
    ids=[" ".join(argv) for argv, _ in _OUT_OF_FLOAT_RANGE],
)
def test_flag_value_taking_a_result_out_of_float_range_exits_numeric(
    argv, message, tmp_path, capsys
):
    # each value passes its flag's check; a square, product or quotient
    # made from it overflows or underflows
    out = tmp_path / "out.csv"
    assert main([*argv, "--out", str(out)]) == EXIT_NUMERIC
    assert capsys.readouterr().err == f"numerical error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "row, code, message",
    [("0,-1.0,0.1", EXIT_DATA,
      "data error: TAF consistency: T must be > 0, got 0.0 in point (0.0, -1.0, 0.1)"),
     ("-5,-1.0,0.1", EXIT_DATA,
      "data error: TAF consistency: T must be > 0, got -5.0 in point (-5.0, -1.0, 0.1)"),
     ("40,-1.0,1e-200", EXIT_NUMERIC, "numerical error: chi^2 must be finite, got inf")],
    ids=["zero-t", "negative-t", "chi2-overflows"],
)
def test_taf_alphas_row_it_cannot_use_writes_nothing(row, code, message, tmp_path, capsys):
    data, alphas = tmp_path / "rates.csv", tmp_path / "alphas.csv"
    flat_rate_csv(data)
    alphas.write_text(f"T_K,alpha,sigma_alpha\n{row}\n80,-1.1,0.1\n")
    out = tmp_path / "taf.csv"
    argv = ["taf", "--data", str(data), "--alphas", str(alphas), "--n-boot", "5",
            "--out", str(out)]
    assert main(argv) == code
    assert capsys.readouterr().err == message + "\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["fdt", "jnn", "zeta", "fit"])
def test_seed_is_rejected_where_nothing_is_drawn(command, tmp_path):
    data = tmp_path / "rates.csv"
    flat_rate_csv(data)
    out = tmp_path / "out"
    argv = [command, *(a.format(data=data) for a in _FLAG_BASE.get(command, [])),
            "--seed", "3", "--out", str(out)]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_CONFIG
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, seed",
    [
        (["synth", "--model", "power"], 0),
        (["taf", "--data", "{data}", "--n-boot", "5"], 7041),
        (["taf", "--data", "{data}", "--n-boot", "5", "--seed", "5"], 5),
        (["jnn", "--temps", "50"], None),
    ],
)
def test_manifest_records_the_seed_of_drawing_commands(argv, seed, tmp_path):
    data = tmp_path / "rates.csv"
    flat_rate_csv(data)
    out = tmp_path / "out.csv"
    rc = main([a.format(data=data) for a in argv] + ["--out", str(out)])
    assert rc == EXIT_OK
    assert csv_manifest(out)["seed"] == seed


# ---------------------------------------------------------------------------
# fdt


def test_fdt_vacuum_stack_gives_pure_blackbody(tmp_path):
    cfg = tmp_path / "vac.cfg"
    cfg.write_text(
        "[material:gas]\nkind = vacuum\n\n"
        "[stack]\nname = empty\nlayers = gas bulk\n"
    )
    out = tmp_path / "fdt.csv"
    rc = main(
        ["fdt", "--config", str(cfg), "--temps", "50,150", "--out", str(out)]
    )
    assert rc == EXIT_OK
    rows = read_rows(out)
    assert len(rows) == 2
    for row in rows:
        # an empty half space adds nothing to the blackbody field
        assert float(row["S_E_V2m2Hz"]) == float(row["S_BB_V2m2Hz"])
    assert float(rows[1]["S_BB_V2m2Hz"]) == pytest.approx(
        3.0 * float(rows[0]["S_BB_V2m2Hz"]), rel=1e-12
    )


def test_fdt_temperature_outside_tables_is_numeric_error(tmp_path):
    out = tmp_path / "fdt.csv"
    rc = main(["fdt", "--temps", "400", "--out", str(out)])
    assert rc == EXIT_NUMERIC


def test_fdt_overflowing_loss_names_its_medium(tmp_path, capsys):
    # above Tc the YBCO film (medium 1 below vacuum) has
    # Im eps = sigma / (omega eps0), which overflows at 1e-300 Hz
    out = tmp_path / "fdt.csv"
    rc = main(["fdt", "--omega-hz", "1e-300", "--temps", "100", "--out", str(out)])
    assert rc == EXIT_NUMERIC
    assert capsys.readouterr().err == (
        "numerical error: Im eps of medium 1 must be finite, got inf\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("omega_hz, message", [
    ("1e-150", "ybco: (k lambda)^2 is 0 at omega = 6.283185307179586e-150"),
    ("1e-140", "Re eps of medium 1 must be finite, got -inf"),
], ids=["1e-150", "1e-140"])
def test_fdt_vanishing_frequency_below_tc_is_numeric_error(
    omega_hz, message, tmp_path, capsys
):
    # below Tc the YBCO film has Re eps = 1 - 1/(k lambda)^2: (k lambda)^2
    # underflows to 0 at 1e-150 Hz, and at 1e-140 Hz to a subnormal whose
    # reciprocal overflows; a RuntimeWarning on the way fails the test
    out = tmp_path / "fdt.csv"
    rc = main(["fdt", "--omega-hz", omega_hz, "--temps", "20", "--out", str(out)])
    assert rc == EXIT_NUMERIC
    assert capsys.readouterr().err == f"numerical error: {message}\n"
    assert not out.exists()


# ---------------------------------------------------------------------------
# jnn


def test_jnn_total_row_sums_electrodes(tmp_path):
    out = tmp_path / "jnn.csv"
    rc = main(
        [
            "jnn",
            "--config",
            str(packaged_config("circuits", "ybco-trap")),
            "--temps",
            "20,80",
            "--out",
            str(out),
        ]
    )
    assert rc == EXIT_OK
    rows = read_rows(out)
    for temp in ("20.0", "80.0"):
        at_t = [r for r in rows if r["T_K"] == temp]
        assert len(at_t) == 14  # 13 electrodes + TOTAL
        total = next(r for r in at_t if r["electrode"] == "TOTAL")
        parts = [r for r in at_t if r["electrode"] != "TOTAL"]
        assert float(total["S_E_V2m2Hz"]) == pytest.approx(
            sum(float(r["S_E_V2m2Hz"]) for r in parts), rel=1e-12
        )
        assert float(total["gamma_phps"]) == pytest.approx(
            sum(float(r["gamma_phps"]) for r in parts), rel=1e-12
        )
    # hotter electrodes make more noise
    t20 = next(r for r in rows if r["T_K"] == "20.0" and r["electrode"] == "TOTAL")
    t80 = next(r for r in rows if r["T_K"] == "80.0" and r["electrode"] == "TOTAL")
    assert float(t80["S_E_V2m2Hz"]) > float(t20["S_E_V2m2Hz"])


# ---------------------------------------------------------------------------
# synth and fit


def test_synth_rerun_is_byte_identical(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for out in (a, b):
        rc = main(
            ["synth", "--model", "gamma2", "--seed", "42", "--out", str(out)]
        )
        assert rc == EXIT_OK
    assert a.read_bytes() == b.read_bytes()
    c = tmp_path / "c.csv"
    main(["synth", "--model", "gamma2", "--seed", "43", "--out", str(c)])
    assert a.read_bytes() != c.read_bytes()


def test_fit_temp_prefers_piecewise_on_piecewise_data(tmp_path):
    data = tmp_path / "g2.csv"
    main(["synth", "--model", "gamma2", "--seed", "42", "--out", str(data)])
    report_path = tmp_path / "fit.json"
    rc = main(
        [
            "fit",
            "--data",
            str(data),
            "--model",
            "temp",
            "--out",
            str(report_path),
        ]
    )
    assert rc == EXIT_OK
    report = json.loads(report_path.read_text())
    assert report["schema"] == "trapnoise-report/1"
    assert report["manifest"]["seed"] is None
    assert report["aic_prefers_piecewise"] is True
    assert report["delta_aic"] < 0.0
    assert report["n_records"] == 54
    fitted = report["piecewise"]["params"]
    assert fitted["t_star_K"] == pytest.approx(92.5, abs=5.0)
    # plateau width computed from the fitted parameters at the requested tol
    assert report["plateau"]["tolerance_frac"] == pytest.approx(0.1)
    assert report["plateau"]["width_K"] == pytest.approx(59.0, abs=6.0)


def test_fit_freq_reports_per_temperature_exponents(tmp_path):
    data = tmp_path / "g2.csv"
    main(["synth", "--model", "gamma2", "--seed", "7", "--out", str(data)])
    report_path = tmp_path / "freq.json"
    rc = main(
        ["fit", "--data", str(data), "--model", "freq", "--out", str(report_path)]
    )
    assert rc == EXIT_OK
    report = json.loads(report_path.read_text())
    fits = report["fits"]
    assert len(fits) == 9  # one per synthesised temperature
    for entry in fits:
        # noise scales roughly like 1/f: alpha near -1, well constrained
        assert -2.0 < entry["alpha"] < 0.0
        assert entry["errors"]["alpha"] < 0.5
        assert entry["n_points"] == 6


def test_fit_surface_distinguishes_models(tmp_path):
    data = tmp_path / "pow.csv"
    main(
        [
            "synth",
            "--model",
            "power",
            "--seed",
            "5",
            "--noise-frac",
            "0.05",
            "--temps",
            "10:290:15",
            "--out",
            str(data),
        ]
    )
    report_path = tmp_path / "surf.json"
    rc = main(
        ["fit", "--data", str(data), "--model", "surface", "--out", str(report_path)]
    )
    assert rc == EXIT_OK
    report = json.loads(report_path.read_text())
    assert report["power"]["p_value"] > report["arrhenius"]["p_value"]
    assert report["power"]["params"]["beta"] == pytest.approx(1.9, abs=0.5)


_NO_SCIPY_RUN = """
import sys
from trapnoise import cli
rates, fit = sys.argv[1:]
assert cli.main(["synth", "--model", "power", "--seed", "3", "--out", rates]) == 0
assert cli.main(["fit", "--model", "surface", "--data", rates, "--out", fit]) == 0
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_cli_runs_without_loading_scipy(tmp_path):
    # start-up cost: importing scipy.stats alone takes about a second
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    argv = [sys.executable, "-c", _NO_SCIPY_RUN, str(tmp_path / "r.csv"),
            str(tmp_path / "f.json")]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    assert json.loads((tmp_path / "f.json").read_text())["power"]["p_value"] > 0.0


# ---------------------------------------------------------------------------
# taf


def flat_rate_csv(path):
    rows = "\n".join(
        f"{t},1000000.0,2.0,0.1" for t in (20, 40, 60, 80, 100, 120, 140, 160)
    )
    path.write_text("T_K,f_Hz,gamma_phps,sigma_phps\n" + rows + "\n")


def test_taf_flat_data_predicts_slope_zero_alpha(tmp_path):
    data = tmp_path / "flat.csv"
    flat_rate_csv(data)
    out = tmp_path / "taf.csv"
    rc = main(["taf", "--data", str(data), "--n-boot", "10", "--out", str(out)])
    assert rc == EXIT_OK
    expected = -(1.0 + 1.0 / math.log(2 * math.pi * 1e6 * 1e-13))
    for row in read_rows(out):
        assert abs(float(row["dlnS_dlnT"])) < 1e-6
        assert float(row["alpha_pred"]) == pytest.approx(expected, abs=1e-9)


def test_taf_refuses_a_bootstrap_count_past_its_bound(tmp_path, capsys):
    # refused before the data file is read, so a missing file does not matter
    out = tmp_path / "taf.csv"
    argv = ["taf", "--data", str(tmp_path / "missing.csv"),
            "--n-boot", str(MAX_BOOT + 1), "--out", str(out)]
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"config error: --n-boot must be <= {MAX_BOOT}, got {MAX_BOOT + 1}\n")
    assert not out.exists()


def test_taf_accepts_zero_boot_and_seed(tmp_path):
    data = tmp_path / "flat.csv"
    flat_rate_csv(data)
    out = tmp_path / "taf.csv"
    argv = ["taf", "--data", str(data), "--n-boot", "0", "--seed", "0", "--out", str(out)]
    assert main(argv) == EXIT_OK
    for row in read_rows(out):
        assert row["slope_lo16"] == row["dlnS_dlnT"] == row["slope_hi84"]


def test_taf_consistency_comment_line(tmp_path):
    data = tmp_path / "flat.csv"
    flat_rate_csv(data)
    alphas = tmp_path / "alphas.csv"
    alphas.write_text("T_K,alpha,sigma_alpha\n50.0,-1.0,0.1\n80.0,-1.1,0.1\n")
    out = tmp_path / "taf.csv"
    rc = main(
        [
            "taf",
            "--data",
            str(data),
            "--n-boot",
            "5",
            "--alphas",
            str(alphas),
            "--out",
            str(out),
        ]
    )
    assert rc == EXIT_OK
    comment = next(
        line
        for line in out.read_text().splitlines()
        if line.startswith("# taf-consistency:")
    )
    verdict = json.loads(comment.split(":", 1)[1])
    assert verdict["n_points"] == 2
    assert 0.0 <= verdict["p_value"] <= 1.0


@pytest.mark.parametrize(
    "value, message",
    [("1e300", "must be finite, got inf"), ("1e-300", "must be > 0, got 0.0")],
    ids=["overflow", "underflow"],
)
def test_taf_omega_tau0_product_out_of_range_exits_numeric(
    value, message, tmp_path, capsys
):
    # both flags pass their own checks; their product leaves the float range
    data = tmp_path / "flat.csv"
    flat_rate_csv(data)
    out = tmp_path / "taf.csv"
    argv = ["taf", "--data", str(data), "--n-boot", "5",
            "--omega-hz", value, "--tau0-s", value, "--out", str(out)]
    assert main(argv) == EXIT_NUMERIC
    assert capsys.readouterr().err == f"numerical error: omega * tau0 {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("temps", [(20, 40, 60), (20, 40, 60, 60)])
def test_taf_short_data_exits_data(temps, tmp_path, capsys):
    data = tmp_path / "short.csv"
    rows = "".join(f"{t},1000000.0,2.0,0.1\n" for t in temps)
    data.write_text("T_K,f_Hz,gamma_phps,sigma_phps\n" + rows)
    rc = main(
        ["taf", "--data", str(data), "--n-boot", "5", "--out", str(tmp_path / "o")]
    )
    assert rc == EXIT_DATA
    assert "4 distinct temperatures" in capsys.readouterr().err


_HEATING_HEADER = "T_K,f_Hz,gamma_phps,sigma_phps\n"


def _rates_at_1mhz(*gammas):
    """Heating-rate CSV rows at 1 MHz and T = 20, 40, 60, ... K."""
    return "".join(f"{20 * i},1e6,{g},0.1\n" for i, g in enumerate(gammas, 1))


_ZERO_RATE = _rates_at_1mhz(2, 0, 3, 4, 5)
_TAF_ROWS = _rates_at_1mhz(2, 2.5, 3, 4, 5)
_ONE_TEMPERATURE = "".join(f"50,1e6,{g},0.1\n" for g in range(2, 8))


@pytest.mark.parametrize(
    "command, rows, alphas, message",
    [
        (["fit", "--model", "freq"],
         "20,4e5,2,0.1\n20,4e5,2.1,0.1\n20,1e6,3,0.1\n20,2e6,4,0.1\n", None,
         "frequencies must be distinct"),
        (["fit", "--model", "surface"], _ZERO_RATE, None, "must be > 0"),
        (["fit", "--model", "surface"], _ONE_TEMPERATURE, None,
         "at least 3 distinct temperatures"),
        (["fit", "--model", "temp"], _ZERO_RATE, None, "piecewise model"),
        (["fit", "--model", "temp"], _rates_at_1mhz(*[0] * 7), None,
         "no positive heating rate"),
        (["taf"], _ZERO_RATE, None, "must be > 0"),
        (["taf"], _TAF_ROWS + "80,1e6,4.2,0.1\n", None,
         "temperatures must be distinct"),
        (["taf"], _TAF_ROWS, "40,-1.0,0.1\n", "at least 2 points"),
        (["taf"], _TAF_ROWS, "40,-1.0,0.1\n80,-1.1,0\n", "sigma_alpha"),
    ],
    ids=["freq-repeated-f", "surface-zero-rate", "surface-one-temperature",
         "temp-too-few-records",
         "temp-no-positive-rate",
         "taf-zero-rate", "taf-repeated-t", "taf-one-alpha", "taf-zero-sigma"],
)
def test_data_a_fit_cannot_use_exits_data(
    command, rows, alphas, message, tmp_path, capsys
):
    data = tmp_path / "rates.csv"
    data.write_text(_HEATING_HEADER + rows)
    argv = [*command, "--data", str(data), "--out", str(tmp_path / "o")]
    if alphas is not None:
        (tmp_path / "alphas.csv").write_text("T_K,alpha,sigma_alpha\n" + alphas)
        argv += ["--alphas", str(tmp_path / "alphas.csv")]
    if command == ["taf"]:
        argv += ["--n-boot", "5"]
    assert main(argv) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error:") and message in err


@pytest.mark.parametrize(
    "command, what",
    [(["fit", "--model", "surface"], "surface-model fit"), (["taf"], "TAF analysis")],
    ids=["fit-surface", "taf"],
)
def test_multi_frequency_data_exits_data(command, what, tmp_path, capsys):
    data = tmp_path / "rates.csv"
    data.write_text(_HEATING_HEADER + _TAF_ROWS + "20,2e6,1.5,0.1\n")
    out = tmp_path / "o"
    assert main([*command, "--data", str(data), "--out", str(out)]) == EXIT_DATA
    assert capsys.readouterr().err == (
        f"data error: {what} needs a single-frequency dataset, "
        "got frequencies [1000000.0, 2000000.0]\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "command, row",
    [
        (["taf", "--n-boot", "5"], "60,1e6,nan,0.1\n"),
        (["taf", "--n-boot", "5"], "60,1e6,3,inf\n"),
        (["taf", "--n-boot", "5"], "-inf,1e6,3,0.1\n"),
        (["fit", "--model", "freq"], "60,1e6,nan,0.1\n"),
        (["fit", "--model", "freq"], "60,-inf,3,0.1\n"),
    ],
    ids=["taf-nan-rate", "taf-inf-sigma", "taf-minus-inf-t",
         "freq-nan-rate", "freq-minus-inf-f"],
)
def test_non_finite_data_exits_data(command, row, tmp_path, capsys):
    # the reader names the file and line; no fit runs and no output is left
    data = tmp_path / "rates.csv"
    data.write_text(_HEATING_HEADER + _rates_at_1mhz(2, 2.5) + row + "80,1e6,4,0.1\n")
    out = tmp_path / "out"
    assert main([*command, "--data", str(data), "--out", str(out)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error:") and f"{data}:4: values must be finite" in err
    assert not out.exists()


def test_non_finite_alpha_exits_data(tmp_path, capsys):
    data, alphas = tmp_path / "rates.csv", tmp_path / "alphas.csv"
    data.write_text(_HEATING_HEADER + _TAF_ROWS)
    alphas.write_text("T_K,alpha,sigma_alpha\n40,-1.0,0.1\n80,nan,0.1\n")
    argv = ["taf", "--data", str(data), "--alphas", str(alphas), "--n-boot", "5",
            "--out", str(tmp_path / "o")]
    assert main(argv) == EXIT_DATA
    assert f"{alphas}:3: values must be finite" in capsys.readouterr().err


def test_temp_fit_running_off_to_overflow_exits_numeric(tmp_path, capsys):
    # a zero rate at 180 K between steeply rising rates drives the simple
    # model's shape past exp() range
    rows = (
        (20, 0.861), (60, 2.009), (130, 6.978), (150, 5.996), (160, 5.705),
        (180, 0.0), (220, 31.818), (240, 58.613), (250, 62.334), (260, 74.571),
        (280, 113.975),
    )
    data = tmp_path / "rates.csv"
    data.write_text(
        _HEATING_HEADER
        + "".join(f"{t},1e6,{g},{max(0.1 * g, 0.1)}\n" for t, g in rows)
    )
    out = tmp_path / "fit.json"
    rc = main(["fit", "--model", "temp", "--data", str(data), "--out", str(out)])
    assert rc == EXIT_NUMERIC
    assert "overflowed" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# zeta


def test_zeta_sweep_is_monotone_from_zero(tmp_path):
    out = tmp_path / "zeta.csv"
    rc = main(
        [
            "zeta",
            "--config",
            str(packaged_config("scenes", "ybco-chip")),
            "--f-ratios",
            "0:1:3",
            "--out",
            str(out),
        ]
    )
    assert rc == EXIT_OK
    rows = read_rows(out)
    zetas = [float(r["zeta"]) for r in rows]
    assert zetas[0] == 0.0
    assert zetas == sorted(zetas)
    assert 0.9 < zetas[-1] < 1.0


def test_zeta_patch_too_small_to_count_exits_numeric(tmp_path, capsys):
    # 2e-310 um is 2e-316 m: more tiles across a region than a float holds
    out = tmp_path / "zeta.csv"
    assert main(["zeta", "--patch-um", "2e-310", "--out", str(out)]) == EXIT_NUMERIC
    assert capsys.readouterr().err.startswith(
        "numerical error: the patch count overflows a float")
    assert not out.exists()


def test_zeta_empty_region_name_is_config_error(tmp_path):
    scene = tmp_path / "scene.cfg"
    scene.write_text(
        "[scene]\nion_height_m = 100e-6\n\n"
        "[region:ybco]\nrect_m = -1e-4 1e-4 -1e-4 1e-4\n\n"
        "[region:]\nrect_m = 2e-4 3e-4 -1e-4 1e-4\n"
    )
    rc = main(["zeta", "--config", str(scene), "--out", str(tmp_path / "z.csv")])
    assert rc == EXIT_CONFIG


def test_zeta_unknown_target_is_config_error(tmp_path, capsys):
    rc = main(
        [
            "zeta",
            "--config",
            str(packaged_config("scenes", "ybco-chip")),
            "--target",
            "gold",
            "--out",
            str(tmp_path / "z.csv"),
        ]
    )
    assert rc == EXIT_CONFIG
    assert "--target: no region named 'gold' (regions: ybco, " in capsys.readouterr().err


def test_zero_scene_axis_exits_config_naming_file_and_section(tmp_path, capsys):
    text = packaged_config("scenes", "ybco-chip").read_text()
    assert "axial_x = 1.0" in text
    cfg = tmp_path / "scene.cfg"
    cfg.write_text(text.replace("axial_x = 1.0", "axial_x = 0"))
    out = tmp_path / "z.csv"
    assert main(["zeta", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    assert f"{cfg}: [scene] |axial_dir| must be > 0, got 0.0" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# failure exit codes and manifest plumbing


def test_missing_data_file_exits_data(tmp_path):
    rc = main(
        [
            "fit",
            "--data",
            str(tmp_path / "absent.csv"),
            "--model",
            "temp",
            "--out",
            str(tmp_path / "r.json"),
        ]
    )
    assert rc == EXIT_DATA


@pytest.mark.parametrize(
    "command, config, old, new, section",
    [
        ("jnn", ("circuits", "ybco-trap"), "cu 300e-6", "cu abc", "[lead:standard]"),
        ("jnn", ("circuits", "ybco-trap"), "au 25e-6 1e-2", "au 25e-6 xx",
         "[lead:standard]"),
        ("fdt", ("stacks", "sapphire-ybco"), "ybco 300e-9", "ybco -2e-7", "[stack]"),
        ("fdt", ("stacks", "sapphire-ybco"), "ybco 300e-9", "ybco 0", "[stack]"),
        ("jnn", ("circuits", "ybco-trap"), "distance_m = 5.10e-3",
         "distance_m = nan", "[electrode:C1]"),
        ("jnn", ("materials", "default"), "rho_normal_t_max_K = 320.0",
         "rho_normal_t_max_K = 320.0\nsc_f_ref_hz = 0", "[material:ybco]"),
        ("jnn", ("materials", "default"), "rho_normal_t_max_K = 320.0",
         "rho_normal_t_max_K = 320.0\nsc_rs_residual_ohm = -1e-7", "[material:ybco]"),
        ("jnn", ("circuits", "ybco-trap"), "bonds = 2", "bonds = 0",
         "[electrode:CC] bonds must be >= 1, got 0\n"),
        ("jnn", ("circuits", "ybco-trap"), "copies = 10", "copies = -3",
         "[electrode:DC] copies must be >= 1, got -3\n"),
        ("jnn", ("circuits", "ybco-trap"), "bonds = 2", "bonds = 1" + "0" * 400,
         "[electrode:CC] bonds must be finite"),
        ("jnn", ("circuits", "ybco-trap"), "cu 300e-6", "ybco 300e-6",
         "[lead:standard] trace material 'ybco' must be a conductor"),
        ("jnn", ("circuits", "ybco-trap"), "au 25e-6 1e-2", "ybco 25e-6 1e-2",
         "[lead:standard] bond material 'ybco' must be a conductor"),
        ("jnn", ("circuits", "ybco-trap"), "au 200e-9, ybco 300e-9",
         "au 200e-9, sapphire 300e-9",
         "[electrode:C1] film material 'sapphire' must be a conductor or a superconductor"),
    ],
    ids=["trace-number", "bond-number", "negative-layer", "zero-layer", "nan",
         "sc-zero-reference-frequency", "sc-negative-residual", "zero-bonds",
         "negative-copies", "bonds-past-float-range", "trace-superconductor",
         "bond-superconductor", "films"],
)
def test_config_value_faults_exit_config(
    command, config, old, new, section, tmp_path, capsys
):
    text = packaged_config(*config).read_text()
    assert old in text
    cfg = tmp_path / "edited.cfg"
    cfg.write_text(text.replace(old, new))
    rc = main(
        [command, "--config", str(cfg), "--temps", "50", "--out", str(tmp_path / "o")]
    )
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"{cfg}: {section}" in err


def test_jnn_takes_an_ideal_superconducting_film(tmp_path):
    # both residual terms 0: the YBCO sheet shorts the gold below Tc
    text = packaged_config("materials", "default").read_text()
    old = "rho_normal_t_max_K = 320.0"
    assert old in text
    cfg = tmp_path / "materials.cfg"
    cfg.write_text(text.replace(old, f"{old}\nsc_rs_ref_ohm = 0\nsc_rs_residual_ohm = 0"))
    out = tmp_path / "jnn.csv"
    rc = main(["jnn", "--config", str(cfg), "--temps", "20", "--out", str(out)])
    assert rc == EXIT_OK
    rows = [r for r in read_rows(out) if r["electrode"] == "C1"]
    assert [r["R_elec_ohm"] for r in rows] == ["0.0"]


def test_jnn_writes_a_negative_zero_sheet_as_zero(tmp_path):
    # -0 residual terms on the electrodes' only film: R_elec is +0.0, not "-0.0"
    text = packaged_config("materials", "default").read_text()
    old = "rho_normal_t_max_K = 320.0"
    materials = tmp_path / "materials.cfg"
    materials.write_text(text.replace(old, f"{old}\nsc_rs_ref_ohm = -0\nsc_rs_residual_ohm = -0"))
    text = packaged_config("circuits", "ybco-trap").read_text()
    old = "films = au 200e-9, ybco 300e-9"
    assert text.count(old) == 4
    circuit = tmp_path / "circuit.cfg"
    circuit.write_text(text.replace(old, "films = ybco 300e-9"))
    out = tmp_path / "jnn.csv"
    rc = main(["jnn", "--config", str(materials), "--config", str(circuit),
               "--temps", "20", "--out", str(out)])
    assert rc == EXIT_OK
    rows = [r for r in read_rows(out) if r["electrode"] != "TOTAL"]
    assert len(rows) == 13 and {r["R_elec_ohm"] for r in rows} == {"0.0"}


_BAD_SYNTH_PARAMS = [
    ("gamma2", "temp-piecewise", "t1_K = 46.2", "t1_K = -5",
     "[temp-model] t1 must be > 0"),
    ("gamma2", "temp-piecewise", "t2_K = 102.9", "t2_K = 0",
     "[temp-model] t2 must be > 0"),
    ("gamma2", "temp-piecewise", "t_star_K = 92.5", "t_star_K = -5",
     "[temp-model] t_star must be > 0"),
    ("gamma2", "temp-piecewise", "beta2 = 4.14", "beta2 = 0",
     "[temp-model] beta2 must be > 0"),
    ("gamma2", "temp-piecewise", "0.4e6 3.76", "0.4e6 -3.76",
     "[temp-model] gamma0 at 400000 Hz"),
    ("gamma2", "temp-piecewise", "0.4e6 3.76", "-0.4e6 3.76",
     "[temp-model] gamma0 frequency"),
    ("gamma1", "temp-simple", "beta1 = 1.69", "beta1 = 1.69\nt2_K = 50",
     "[temp-model] t2, beta2 and t_star must be given together"),
    ("power", "surface-power", "t0_K = 32.0", "t0_K = -50",
     "[surface-model] t0 must be > 0"),
    ("power", "surface-power", "s_e0 = 3.7e-15", "s_e0 = 0", "[surface-model] s_e0"),
    ("arrhenius", "surface-arrhenius", "s_e0 = 4.7e-15", "s_e0 = -4.7e-15",
     "[surface-model] s_e0"),
    ("arrhenius", "surface-arrhenius", "s_et = 2.1e-13", "s_et = 0",
     "[surface-model] s_et"),
    ("arrhenius", "surface-arrhenius", "t0_K = 169.0", "t0_K = -169",
     "[surface-model] t0 must be > 0"),
]


@pytest.mark.parametrize(
    "model, config, old, new, where", _BAD_SYNTH_PARAMS,
    ids=[f"{model}-{new}" for model, _, _, new, _ in _BAD_SYNTH_PARAMS],
)
def test_bad_synth_parameter_exits_config(
    model, config, old, new, where, tmp_path, capsys
):
    text = packaged_config("synth", config).read_text()
    assert old in text
    cfg = tmp_path / "params.cfg"
    cfg.write_text(text.replace(old, new))
    out = tmp_path / "o.csv"
    rc = main(["synth", "--model", model, "--params", str(cfg), "--out", str(out)])
    assert rc == EXIT_CONFIG
    assert f"{cfg}: {where}" in capsys.readouterr().err
    assert not out.exists()


def test_arrhenius_synth_takes_a_zero_offset(tmp_path):
    text = packaged_config("synth", "surface-arrhenius").read_text()
    cfg = tmp_path / "params.cfg"
    cfg.write_text(text.replace("s_e0 = 4.7e-15", "s_e0 = 0"))
    rc = main(["synth", "--model", "arrhenius", "--params", str(cfg),
               "--out", str(tmp_path / "o.csv")])
    assert rc == EXIT_OK


def test_electrode_named_total_exits_config(tmp_path, capsys):
    cfg = tmp_path / "total.cfg"
    cfg.write_text(
        "[electrode:TOTAL]\ndistance_m = 1e-3\nstrip_length_m = 1e-3\n"
        "strip_width_m = 1e-5\n"
    )
    out = tmp_path / "o"
    rc = main(["jnn", "--config", str(cfg), "--temps", "50", "--out", str(out)])
    assert rc == EXIT_CONFIG
    assert "[electrode:TOTAL]" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_config_section_exits_config(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[mystery]\nx = 1\n")
    rc = main(
        ["fdt", "--config", str(bad), "--temps", "50", "--out", str(tmp_path / "o.csv")]
    )
    assert rc == EXIT_CONFIG


def test_manifest_records_grid_overrides(tmp_path):
    out = tmp_path / "synth.csv"
    main(
        [
            "synth",
            "--model",
            "gamma1",
            "--seed",
            "3",
            "--temps",
            "20,60,100,140",
            "--out",
            str(out),
        ]
    )
    manifest = csv_manifest(out)
    assert manifest["seed"] == 3
    assert manifest["overrides"]["temps"] == "20,60,100,140"
    assert manifest["overrides"]["model"] == "gamma1"
    # and the dataset reflects the override
    dataset = read_heating_csv(out)
    assert sorted({r.temperature for r in dataset.records}) == [
        20.0,
        60.0,
        100.0,
        140.0,
    ]


def _subcommand_flags(command):
    sub = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    return {a.dest for a in sub.choices[command]._actions if a.dest != "help"}


@pytest.mark.parametrize(
    "argv, inputs",
    [
        (
            ["fdt", "--temps", "50", "--lambda0-nm", "140", "--lambda0-nm", "200"],
            ["{materials}", "{stack}"],
        ),
        (["jnn", "--temps", "50"], ["{materials}", "{circuit}"]),
        (["zeta", "--patch-um", "5", "--f-ratios", "0,1"], ["{scene}"]),
        (["synth", "--model", "power"], ["{power}"]),
        (["fit", "--data", "{rates}", "--model", "freq"], ["{rates}"]),
        (
            ["taf", "--data", "{rates_1mhz}", "--n-boot", "5", "--alphas", "{alphas}"],
            ["{rates_1mhz}", "{alphas}"],
        ),
    ],
    ids=["fdt", "jnn", "zeta", "synth", "fit", "taf"],
)
def test_manifest_records_every_flag_but_out_seed_and_inputs(argv, inputs, tmp_path):
    paths = {
        "materials": packaged_config("materials", "default"),
        "stack": packaged_config("stacks", "sapphire-ybco"),
        "circuit": packaged_config("circuits", "ybco-trap"),
        "scene": packaged_config("scenes", "ybco-chip"),
        "power": packaged_config("synth", "surface-power"),
        "rates": tmp_path / "rates.csv",
        "rates_1mhz": tmp_path / "rates-1mhz.csv",
        "alphas": tmp_path / "alphas.csv",
    }
    main(["synth", "--model", "gamma2", "--out", str(paths["rates"])])
    one_f = ["--freqs", "1e6", "--out", str(paths["rates_1mhz"])]
    main(["synth", "--model", "gamma2", *one_f])
    paths["alphas"].write_text("T_K,alpha,sigma_alpha\n50.0,-1.0,0.1\n80.0,-1.1,0.1\n")
    command = argv[0]
    out = tmp_path / ("out.json" if command == "fit" else "out.csv")
    rc = main([arg.format(**paths) for arg in argv] + ["--out", str(out)])
    assert rc == EXIT_OK
    if command == "fit":
        manifest = json.loads(out.read_text())["manifest"]
    else:
        manifest = csv_manifest(out)
    not_overrides = {"out", "seed", "config", "data", "alphas", "params"}
    assert manifest["command"] == command
    assert set(manifest["overrides"]) == _subcommand_flags(command) - not_overrides
    assert manifest["config_paths"] == [p.format(**paths) for p in inputs]


def test_manifest_formats_list_and_absent_flags(tmp_path):
    out = tmp_path / "fdt.csv"
    argv = ["fdt", "--temps", "50", "--out", str(out)]
    main([*argv, "--lambda0-nm", "140", "--lambda0-nm", "200"])
    assert csv_manifest(out)["overrides"]["lambda0_nm"] == "140,200"
    main(argv)
    assert csv_manifest(out)["overrides"]["lambda0_nm"] == ""


def test_jnn_config_paths_follow_role_order_not_flag_order(tmp_path):
    materials = str(packaged_config("materials", "default"))
    circuit = str(packaged_config("circuits", "al-lead-benchmark"))
    out = tmp_path / "jnn.csv"
    configs = ["--config", circuit, "--config", materials]
    rc = main(["jnn", *configs, "--temps", "50", "--out", str(out)])
    assert rc == EXIT_OK
    assert csv_manifest(out)["config_paths"] == [materials, circuit]
