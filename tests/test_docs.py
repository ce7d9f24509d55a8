"""Every docstring example in the package runs, and every demo script exits 0."""

import doctest
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import lpmpoly

SRC = Path(lpmpoly.__file__).resolve().parents[1]
MODULES = ["lpmpoly"] + [f"lpmpoly.{m.name}" for m in pkgutil.iter_modules(lpmpoly.__path__)]
DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    failed, _ = doctest.testmod(importlib.import_module(name))
    assert failed == 0


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
