"""Importing one module loads only it and the modules it needs."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from trapnoise import constants

GOLDEN = Path(__file__).parent / "data" / "golden"


@pytest.mark.parametrize("module, needs", [
    ("trapnoise.constants", []),
    ("trapnoise.materials", ["trapnoise.constants"]),
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
# trapnoise modules it loaded, plus numpy.ma, which costs about 13 ms, and
# any scipy module: scipy is a test dependency, so no command may load it
_CLI_PROBE = """
import json, sys
from trapnoise.cli import main
code = main(sys.argv[1:]) if sys.argv[1:] else 0
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("trapnoise.")
                               or m == "numpy.ma" or m.split(".")[0] == "scipy")]))
"""

_BASE = ["cli", "configio", "constants"]
_STACK = [*_BASE, "layers", "materials", "noise", "quadrature"]
_FITS = [*_BASE, "inference", "leastsq", "smoothing"]
_RATES = str(GOLDEN / "synth-gamma2-seed3.csv")
_SURFACE = str(GOLDEN / "synth-power-seed3.csv")
_COMMANDS = [
    ([], _BASE),
    (["fdt", "--temps", "40"], _STACK),
    (["jnn"], _STACK),
    (["zeta"], [*_BASE, "patches"]),
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
    assert modules == sorted(m if m == "numpy.ma" else f"trapnoise.{m}" for m in loaded)


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
