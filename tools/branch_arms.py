"""Which way each branch of ``src/lpmpoly`` goes, over tier-1, ``lpm verify`` and the benchmark.

    python3 tools/branch_arms.py

Run from anywhere; it takes no options.  It copies ``src/lpmpoly`` to a
temporary directory and imports the package from there through a loader
that compiles each module with a recorder around the test of every ``if``
(``elif`` and comprehension filters included), ``while`` and conditional
expression.  The files themselves stay as they are, so line numbers,
docstrings and doctests do not move.  Then, in this one process, it runs:

- the tier-1 tests (``pytest tests``), with ``PYTHONPATH`` at the copy for
  the tests that start the CLI in a subprocess, whose arms are not counted;
- ``lpm verify all --max-size 8``, with every ``CHECKS`` row in-process;
- one pass of each workload in ``perfbench/workloads.py`` at seed 1, by
  ``harness.run_pass``; the benchmark's files are only read.

It prints every branch taken one way only or never, by file and line, with
its enclosing function and its test, and then a summary line.  A
``while True`` shows as taken True only.  Forked ``lpm verify`` workers
and subprocesses record nothing; the in-process verify run covers the rows.
"""

from __future__ import annotations

import ast
import contextlib
import importlib.abc
import importlib.machinery
import io
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = "lpmpoly"
SITES: list[tuple[str, int, str, str, str]] = []  # (file, line, kind, function, test)
TAKEN = (set(), set())  # site indices whose test was false, and true


def _arm(site: int, value) -> bool:
    taken = bool(value)
    TAKEN[taken].add(site)
    return taken


class _Instrument(ast.NodeTransformer):
    """Wraps each branch test ``t`` as ``_branch_arm(site, t)``."""

    def __init__(self, path: str):
        self.path = path
        self.scope: list[str] = []

    def _scoped(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()
        return node

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _scoped

    def _recorded(self, test, kind: str):
        function = ".".join(self.scope) or "<module>"
        SITES.append((self.path, test.lineno, kind, function, ast.unparse(test)))
        site = ast.Constant(len(SITES) - 1)
        return ast.copy_location(ast.Call(ast.Name("_branch_arm", ast.Load()), [site, test], []), test)

    def _wrap(self, node, kind: str):
        self.generic_visit(node)
        node.test = self._recorded(node.test, kind)
        return node

    def visit_If(self, node):
        return self._wrap(node, "if")

    def visit_While(self, node):
        return self._wrap(node, "while")

    def visit_IfExp(self, node):
        return self._wrap(node, "ifexp")

    def visit_comprehension(self, node):
        self.generic_visit(node)
        node.ifs = [self._recorded(test, "for-if") for test in node.ifs]
        return node


class _Loader(importlib.machinery.SourceFileLoader):
    def source_to_code(self, data, path, *, _optimize=-1):
        rel = f"src/{PACKAGE}/{Path(path).name}"
        tree = ast.fix_missing_locations(_Instrument(rel).visit(ast.parse(data, path)))
        return compile(tree, path, "exec", dont_inherit=True)

    def exec_module(self, module):
        module._branch_arm = _arm
        super().exec_module(module)


class _Finder(importlib.abc.MetaPathFinder):
    """Finds ``lpmpoly`` and its modules in the copy, and loads them instrumented."""

    def __init__(self, copy: Path):
        self.copy = copy

    def find_spec(self, name, path, target=None):
        if name != PACKAGE and not name.startswith(PACKAGE + "."):
            return None
        spec = importlib.machinery.PathFinder.find_spec(name, path or [str(self.copy)])
        if spec is not None:
            spec.loader = _Loader(name, spec.origin)
        return spec


def _tier1() -> str:
    import pytest

    code = pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors", "tests"])
    return f"tier-1 pytest exit {int(code)}"


def _verify_all() -> str:
    from lpmpoly import cli, verify

    verify.worker_count = lambda: 1  # every row in this process, so its arms are recorded
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            cli.main(["verify", "all", "--max-size", "8"])
            code = 0
        except SystemExit as exc:
            code = exc.code
    return f"lpm verify all --max-size 8 exit {code}"


def _workloads() -> str:
    sys.path.insert(0, str(ROOT / "perfbench"))
    import harness
    import workloads

    failed = []
    for name in ("large-regions", "counting", "small-sweep"):
        ops, _ = workloads.build(name, 1)
        record = harness.run_pass(ops, trace=False)
        failed.append(f"{name} {record['failed']}/{record['ops']} ops failed")
    return "workloads at seed 1: " + ", ".join(failed)


def main() -> int:
    os.chdir(ROOT)
    sys.dont_write_bytecode = True
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        shutil.copytree(ROOT / "src" / PACKAGE, copy / PACKAGE, ignore=shutil.ignore_patterns("__pycache__"))
        os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [tmp, os.environ.get("PYTHONPATH")]))
        sys.meta_path.insert(0, _Finder(copy))
        runs = [_tier1(), _verify_all(), _workloads()]
    false, true = TAKEN
    counts = {"both ways": 0, "one way only": 0, "never": 0}
    print()
    for site, (path, line, kind, function, test) in sorted(enumerate(SITES), key=lambda s: s[1][:2]):
        ways = (site in false) + (site in true)
        if ways == 2:
            counts["both ways"] += 1
            continue
        counts["never" if ways == 0 else "one way only"] += 1
        arm = "never" if ways == 0 else f"{site in true} only"
        print(f"{path}:{line}: {function}: {kind} {test[:70]}: {arm}")
    for run in runs:
        print(run)
    print(f"{len(SITES)} branch sites: " + ", ".join(f"{n} {what}" for what, n in counts.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
