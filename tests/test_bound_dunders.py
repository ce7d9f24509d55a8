"""No library module reaches for a bound arithmetic or indexing dunder such
as ``(-value).__add__`` or ``index.__getitem__``: on CPython each is a
method-wrapper that costs about twice ``operator.add`` or a comprehension
per element, so the hot loops use comprehensions instead."""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "lpmpoly"
BOUND = {"__add__", "__sub__", "__mul__", "__getitem__"}


def bound_dunders(source: str) -> list[str]:
    """The lines that name one of ``BOUND`` as an attribute, in code only:
    comments and docstrings may mention them."""
    nodes = [
        node for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr in BOUND
    ]
    nodes.sort(key=lambda node: (node.lineno, node.col_offset))
    return [f"{node.lineno}: {ast.unparse(node)}" for node in nodes]


def test_bound_dunders_are_found():
    code = (
        "offsets += map((shift - row[h]).__add__, opened)\n"
        "out = list(map(index.__getitem__, map(k.__add__, keys)))\n"
        "y = x.__sub__(1)  # a comment naming .__mul__ is not code\n"
        '"""nor is a docstring naming .__getitem__"""\n'
    )
    assert bound_dunders(code) == [
        "1: (shift - row[h]).__add__",
        "2: index.__getitem__",
        "2: k.__add__",
        "3: x.__sub__",
    ]


def test_no_module_names_a_bound_dunder():
    found = {
        path.name: hits
        for path in sorted(SOURCE.glob("*.py"))
        if (hits := bound_dunders(path.read_text()))
    }
    assert found == {}
