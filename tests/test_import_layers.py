"""The oracle side stays apart from the library: no module other than
``oracle``, ``verify`` and ``cli`` imports ``oracle`` or ``verify``, and only
``oracle`` and ``verify`` import ``ratlinalg``.  So the hot paths cannot
lean on a second route, and the exact linear algebra serves the checks
alone."""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "lpmpoly"

IMPORTERS = {
    "oracle": {"oracle", "verify", "cli"},
    "verify": {"oracle", "verify", "cli"},
    "ratlinalg": {"oracle", "verify"},
}


def imported_modules(source: str) -> set[str]:
    """The ``lpmpoly`` modules a module's source imports, at any depth:
    ``from .x import y``, ``from . import x``, ``from lpmpoly import x`` and
    ``import lpmpoly.x``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                package, _, module = alias.name.partition(".")
                if package == "lpmpoly" and module:
                    found.add(module.split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and node.module and node.module.split(".")[0] != "lpmpoly":
                continue
            if node.level > 0 and node.module:
                found.add(node.module.split(".")[0])
            elif node.module in (None, "lpmpoly"):
                found.update(alias.name for alias in node.names)
            else:  # from lpmpoly.x import y
                found.add(node.module.split(".")[1])
    return found


def test_imports_are_found():
    code = (
        "from .oracle import brute_bases\n"
        "from . import verify as ver\n"
        "import lpmpoly.ratlinalg\n"
        "def f():\n    from lpmpoly.paths import Region\n"
        "import os\nfrom fractions import Fraction\n"
    )
    assert imported_modules(code) == {"oracle", "verify", "ratlinalg", "paths"}


def test_only_the_oracle_side_imports_the_oracle_side():
    paths = sorted(SOURCE.glob("*.py"))
    assert paths
    importers: dict[str, set[str]] = {name: set() for name in IMPORTERS}
    for path in paths:
        for name in imported_modules(path.read_text()) & set(IMPORTERS):
            importers[name].add(path.stem)
    for name, allowed in IMPORTERS.items():
        assert importers[name] <= allowed, (name, sorted(importers[name] - allowed))
