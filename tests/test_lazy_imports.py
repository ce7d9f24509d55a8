"""Importing the package loads only what every verb needs.

``verify.run_all`` imports ``multiprocessing`` and ``concurrent.futures``
when it runs, so the other verbs do not pay for them at start-up.  The
value types are NamedTuples and ``__slots__`` classes, not dataclasses:
building a dataclass compiles and runs generated methods at import, and
``dataclasses`` itself loads ``inspect``.  No ``lpmpoly`` module imports
``inspect`` either, so it stays out as well, though only ``dataclasses``
is asserted here.  ``cli`` imports ``verify`` inside ``cmd_verify``, so
only ``lpm verify`` loads the oracles and the rational linear algebra.
"""

import ast
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import lpmpoly

SRC = Path(lpmpoly.__file__).resolve().parents[1]
POOL_MODULES = ("multiprocessing", "concurrent.futures")
UNLOADED = POOL_MODULES + ("dataclasses",)


def _run(code: str) -> str:
    """The stripped stdout of ``code`` run in a fresh interpreter on this ``src``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_importing_every_module_loads_no_pool_module_and_no_dataclasses():
    names = ["lpmpoly"] + [f"lpmpoly.{m.name}" for m in pkgutil.iter_modules(lpmpoly.__path__)]
    code = (
        "import importlib, sys\n"
        f"for name in {names!r}:\n"
        "    importlib.import_module(name)\n"
        f"print(sorted(m for m in {UNLOADED!r} if m in sys.modules))\n"
    )
    assert _run(code) == "[]"


def test_importing_cli_leaves_the_oracle_side_unloaded():
    oracle_side = ("lpmpoly.verify", "lpmpoly.oracle", "lpmpoly.ratlinalg")
    code = (
        "import sys\n"
        "import lpmpoly.cli\n"
        f"print(sorted(m for m in {oracle_side!r} if m in sys.modules))\n"
    )
    assert _run(code) == "[]"


def test_only_verify_names_the_pool_modules():
    naming = {
        path.name
        for path in (SRC / "lpmpoly").glob("*.py")
        if any(module in path.read_text() for module in POOL_MODULES)
    }
    assert naming == {"verify.py"}


def test_no_module_imports_dataclasses():
    importing = set()
    for path in (SRC / "lpmpoly").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "dataclasses" for name in names):
                importing.add(path.name)
    assert importing == set()
