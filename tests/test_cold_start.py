"""The coefficient commands start without numpy, dataclasses, the path oracle or the suites.

Every CLI call is a fresh process, so what ``fockcalc.cli`` imports is paid
on every call; the numpy-backed modules load only for ``verify`` and
``bridge``, and the package re-exports their names lazily.  The coefficient
records are named tuples and a pipeline step is its operator, so neither
``dataclasses`` nor the ``inspect`` it imports loads.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fockcalc

PHI_JSON = '{"terms":[{"set":[],"coef":[2,0]},{"set":[0,2],"coef":[3,0]}]}'

NOT_LOADED = (
    "numpy", "fockcalc.bridge", "fockcalc.suite", "fockcalc.corpus", "datetime",
    "dataclasses", "inspect",
)

PROBE = """
import contextlib, io, json, sys
from fockcalc.cli import main
phi = sys.argv[1]
calls = [
    ["norm", phi],
    ["norm", phi, "--dual", "--p", "1"],
    ["apply", phi, "--pipeline", "annihilate:2,create:2,condexp:2,expect"],
    ["decompose", phi],
    ["cov", phi, phi, "--p", "1"],
    ["lambda", "[1,3]"],
]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv) for argv in calls]
print(json.dumps({"codes": codes, "modules": sorted(sys.modules)}))
"""


def test_coefficient_commands_load_no_numpy(tmp_path):
    phi = tmp_path / "phi.json"
    phi.write_text(PHI_JSON)
    src = str(Path(fockcalc.__file__).resolve().parents[1])
    path = [src] + [entry for entry in os.environ.get("PYTHONPATH", "").split(os.pathsep) if entry]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, str(phi)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["codes"] == [0] * 6
    assert [name for name in NOT_LOADED if name in result["modules"]] == []


@pytest.mark.parametrize("name", sorted(fockcalc._LAZY))
def test_lazy_name_is_its_module_attribute(name):
    module = importlib.import_module(f"fockcalc.{fockcalc._LAZY[name]}")
    assert getattr(fockcalc, name) is getattr(module, name)
    assert name in dir(fockcalc)


def test_suite_names_have_one_definition():
    names = importlib.import_module("fockcalc.suite_names").SUITE_NAMES
    for module in ("fockcalc", "fockcalc.cli", "fockcalc.suite"):
        assert importlib.import_module(module).SUITE_NAMES is names


def test_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(fockcalc, "no_such_name")
