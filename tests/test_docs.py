"""Every docstring example in the package runs, every demo script exits 0,
and the public API lists what the demos and the benchmark use."""

import ast
import doctest
import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import lpmpoly

SRC = Path(lpmpoly.__file__).resolve().parents[1]
MODULES = ["lpmpoly"] + [f"lpmpoly.{m.name}" for m in pkgutil.iter_modules(lpmpoly.__path__)]
ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


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


def _imported_names(path, module):
    """Names a file binds by ``from <module> import ...``."""
    tree = ast.parse(path.read_text())
    return {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == module and not node.level
        for alias in node.names
    }


def test_public_api_is_the_import_block():
    tree = ast.parse((SRC / "lpmpoly" / "__init__.py").read_text())
    bound = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    assert len(set(lpmpoly.__all__)) == len(lpmpoly.__all__)
    assert set(lpmpoly.__all__) == set(bound)
    used = {name for path in DEMOS for name in _imported_names(path, "lpmpoly")}
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        used |= set(re.findall(r"\blp\.([A-Za-z_]\w*)", path.read_text()))
    assert used and used <= set(lpmpoly.__all__), sorted(used - set(lpmpoly.__all__))
