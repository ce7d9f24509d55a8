"""No library function calls itself: every walk keeps its own stack, so
depth is bounded by memory, not by the interpreter's recursion limit."""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "lpmpoly"

# The filling oracle recurses once per box and is capped at 9 boxes.
ALLOWED = {"oracle.brute_syt.place"}


def calls_itself(func: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    """Whether the body calls ``func`` by its name, bare or as ``self.name``."""
    for call in ast.walk(func):
        if not isinstance(call, ast.Call):
            continue
        target = call.func
        if isinstance(target, ast.Name) and target.id == func.name:
            return True
        if (
            isinstance(target, ast.Attribute)
            and target.attr == func.name
            and isinstance(target.value, ast.Name)
            and target.value.id in ("self", "cls")
        ):
            return True
    return False


class SelfCalls(ast.NodeVisitor):
    """Collects the qualified names of the functions that call themselves."""

    def __init__(self, module: str):
        self.scope = [module]
        self.found: list[str] = []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        if calls_itself(node):
            self.found.append(".".join(self.scope))
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_ClassDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()


def self_calls(source: str, module: str) -> list[str]:
    visitor = SelfCalls(module)
    visitor.visit(ast.parse(source))
    return visitor.found


def test_self_calls_are_found():
    code = (
        "def f(n):\n    return f(n - 1)\n"
        "def g():\n    def inner(k):\n        return inner(k)\n    return inner\n"
        "class C:\n    def m(self):\n        return self.m()\n"
        "def h():\n    return f(1)\n"
    )
    assert sorted(self_calls(code, "mod")) == ["mod.C.m", "mod.f", "mod.g.inner"]


def test_no_library_function_recurses():
    found = set()
    paths = sorted(SOURCE.glob("*.py"))
    assert paths
    for path in paths:
        found.update(self_calls(path.read_text(), path.stem))
    assert found == ALLOWED
