"""Importing one module loads only it and the modules it needs."""

import json
import os
import subprocess
import sys

import pytest


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
