"""The failure contract: every error the library raises on purpose is a
:class:`~trapnoise.constants.TrapnoiseError`, and the command line returns
its ``exit_code`` and prints its ``label``.

:func:`untyped_errors` lists the exception classes a module defines outside
that contract, warnings aside; every module under ``src/trapnoise`` must
have none, and a planted module with one must report it.
"""

import importlib
import pkgutil
import types

import pytest

import trapnoise
from trapnoise import cli
from trapnoise.constants import (
    ConfigFileError,
    DataFileError,
    DegenerateInterfaceError,
    DomainError,
    FitFailure,
    PatchBudgetError,
    QuadratureFailure,
    TemperatureRangeError,
    TrapnoiseError,
    UnusableDataError,
)
from trapnoise.layers import NoSuperconductorError

MODULES = sorted(
    ["trapnoise", *(m.name for m in pkgutil.iter_modules(trapnoise.__path__, "trapnoise."))]
)


def defined_classes(module) -> list[type]:
    """The exception classes ``module`` defines, not those it imports."""
    return [
        obj for obj in vars(module).values()
        if isinstance(obj, type) and issubclass(obj, BaseException)
        and obj.__module__ == module.__name__
    ]


def untyped_errors(module) -> list[str]:
    """Names of the exception classes ``module`` defines that are neither a
    TrapnoiseError nor a warning."""
    return [
        cls.__name__ for cls in defined_classes(module)
        if not issubclass(cls, (TrapnoiseError, Warning))
    ]


@pytest.mark.parametrize("module", MODULES)
def test_every_library_error_is_a_trapnoise_error(module):
    assert untyped_errors(importlib.import_module(module)) == []


_PLANTED = """
from configparser import Error as ImportedError
from trapnoise.constants import DomainError, TrapnoiseError


class Typed(TrapnoiseError, RuntimeError):
    pass


class Inherited(DomainError):
    pass


class Hint(UserWarning):
    pass


class Untyped(RuntimeError):  # planted
    pass
"""


def test_untyped_errors_reports_a_planted_class():
    module = types.ModuleType("trapnoise.planted")
    exec(_PLANTED, vars(module))
    assert untyped_errors(module) == ["Untyped"]


# every error class of the library, with the exit code and the label of the
# README's "Exit codes"
_DOCUMENTED = [
    (ConfigFileError("bad"), 2, "config error"),
    (DataFileError("bad"), 3, "data error"),
    (UnusableDataError("bad"), 3, "data error"),
    (DomainError("bad"), 4, "numerical error"),
    (NoSuperconductorError("bad"), 4, "numerical error"),
    (TemperatureRangeError("bad"), 4, "numerical error"),
    (DegenerateInterfaceError("bad"), 4, "numerical error"),
    (QuadratureFailure("bad", 0.0, 1.0, 15), 4, "numerical error"),
    (FitFailure("bad", None, 1.0, 3), 4, "numerical error"),
    (PatchBudgetError("bad"), 4, "numerical error"),
]


def test_documented_errors_are_every_library_error():
    # so also a check that MODULES holds the modules that define them
    defined = {
        cls for module in MODULES
        for cls in defined_classes(importlib.import_module(module))
        if issubclass(cls, TrapnoiseError) and cls is not TrapnoiseError
    }
    assert defined == {type(error) for error, _, _ in _DOCUMENTED}


@pytest.mark.parametrize(
    "error, code, label", _DOCUMENTED, ids=[type(e).__name__ for e, _, _ in _DOCUMENTED]
)
def test_error_exits_with_its_documented_code_and_label(
    error, code, label, tmp_path, capsys, monkeypatch
):
    def fail(args):
        raise error

    # main builds its parser after this, so ``zeta`` dispatches to the stub
    monkeypatch.setattr(cli, "cmd_zeta", fail)
    out = tmp_path / "zeta.csv"
    assert cli.main(["zeta", "--out", str(out)]) == code
    assert capsys.readouterr().err == f"{label}: bad\n"
    assert not out.exists()
