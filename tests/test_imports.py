"""Importing one module loads only it and the modules it needs."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from trapnoise import __version__, constants
from trapnoise.configio import packaged_config

GOLDEN = Path(__file__).parent / "data" / "golden"


@pytest.mark.parametrize("module, needs", [
    ("trapnoise.constants", []),
    ("trapnoise.materials", ["trapnoise.constants"]),
    ("trapnoise.configio", ["trapnoise.constants"]),
    # the Johnson budget is scalar math; fdt_noise loads layers when it runs
    ("trapnoise.noise", ["trapnoise.constants", "trapnoise.materials"]),
])
def test_light_modules_load_no_numpy_and_no_other_module(module, needs):
    # a fresh interpreter, so modules other tests imported do not count
    probe = (f"import json, sys, {module}; "
             "print(json.dumps(sorted(m for m in sys.modules "
             "if m == 'numpy' or m.startswith(('numpy.', 'trapnoise')))))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert json.loads(out.stdout) == sorted(["trapnoise", module, *needs])


# a fresh interpreter runs one command (none: a bare import) and prints the
# trapnoise modules it loaded, plus numpy, which costs about 80 ms, numpy.ma,
# about 13 ms more, and any scipy module: scipy is a test dependency, so no
# command may load it
_CLI_PROBE = """
import json, sys
from trapnoise.cli import main
code = main(sys.argv[1:]) if sys.argv[1:] else 0
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("trapnoise.")
                               or m in ("numpy", "numpy.ma") or m.split(".")[0] == "scipy")]))
"""

# a bare import and jnn, whose budget is scalar math, load no numpy
_BASE = ["cli", "configio", "constants"]
_STACK = [*_BASE, "layers", "materials", "noise", "quadrature", "numpy"]
_FITS = [*_BASE, "inference", "leastsq", "smoothing", "numpy"]
_RATES = str(GOLDEN / "synth-gamma2-seed3.csv")
_SURFACE = str(GOLDEN / "synth-power-seed3.csv")
_COMMANDS = [
    ([], _BASE),
    (["fdt", "--temps", "40"], _STACK),
    (["jnn"], [*_BASE, "materials", "noise"]),
    (["zeta"], [*_BASE, "patches", "numpy"]),
    (["synth", "--model", "gamma2"], _FITS),
    (["synth", "--model", "power"], _FITS),
    (["fit", "--model", "temp", "--data", _RATES], _FITS),
    (["fit", "--model", "surface", "--data", _SURFACE], _FITS),
    (["fit", "--model", "freq", "--data", _RATES], _FITS),
    # np.percentile, which the bootstrap band takes, loads numpy.ma
    (["taf", "--n-boot", "20", "--data", _SURFACE], [*_FITS, "numpy.ma"]),
]


@pytest.mark.parametrize(
    "argv, loaded", _COMMANDS, ids=[" ".join(a[:3]) or "import" for a, _ in _COMMANDS]
)
def test_cli_command_loads_only_the_modules_it_runs(argv, loaded, tmp_path):
    out = ["--out", str(tmp_path / "out")] if argv else []
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run([sys.executable, "-c", _CLI_PROBE, *argv, *out],
                          capture_output=True, text=True, check=True, env=env)
    code, modules = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0
    assert modules == sorted(m if m.startswith("numpy") else f"trapnoise.{m}" for m in loaded)


# the command line where numpy cannot be imported at all: None in sys.modules
# makes every `import numpy` raise ImportError
_NO_NUMPY = """
import sys
sys.modules["numpy"] = None
from trapnoise.cli import main
sys.exit(main(sys.argv[1:]))
"""
_JNN_ARGS = ["jnn", "--config", "{circuit}", "--out", "{out}"]
_WITHOUT_NUMPY = [
    (["--help"], 0, "usage: trapnoise"),
    (["--version"], 0, f"trapnoise {__version__}"),
    (["fdt", "--omega-hz", "0", "--out", "{out}"], 2, "argument --omega-hz: must be"),
    (_JNN_ARGS, 0, ""),
]


@pytest.mark.parametrize("argv, code, text", _WITHOUT_NUMPY,
                         ids=["help", "version", "usage-error", "jnn"])
def test_cli_runs_without_numpy_where_no_array_math_runs(argv, code, text, tmp_path):
    out = tmp_path / "out.csv"
    circuit = packaged_config("circuits", "ybco-trap")
    argv = [a.format(out=out, circuit=circuit) for a in argv]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run([sys.executable, "-c", _NO_NUMPY, *argv],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == code, proc.stderr
    assert text in proc.stdout + proc.stderr
    if argv[0] == "jnn":
        # the golden's bytes: every line but the checkout-dependent manifest
        lines = out.read_text(encoding="utf-8").splitlines(keepends=True)
        got = "".join(line for line in lines if not line.startswith("# manifest:"))
        assert got == (GOLDEN / "jnn-ybco-trap.csv").read_text(encoding="utf-8")


@pytest.mark.parametrize("module, name, base", [
    ("quadrature", "QuadratureFailure", RuntimeError),
    ("leastsq", "FitFailure", RuntimeError),
    ("inference", "FitFailure", RuntimeError),
    ("patches", "PatchBudgetError", RuntimeError),
    ("materials", "TemperatureRangeError", ValueError),
    ("layers", "DegenerateInterfaceError", ZeroDivisionError),
    ("inference", "UnusableDataError", constants.DomainError),
    ("configio", "ConfigFileError", ValueError),
    ("configio", "DataFileError", ValueError),
])
def test_error_classes_keep_their_import_paths_and_bases(module, name, base):
    # defined in constants, re-exported by their modules; each keeps its
    # standard-library base beside TrapnoiseError, which the CLI catches
    cls = getattr(importlib.import_module(f"trapnoise.{module}"), name)
    assert cls is getattr(constants, name)
    error = constants.TrapnoiseError
    assert cls.__bases__ == ((base,) if issubclass(base, error) else (error, base))
