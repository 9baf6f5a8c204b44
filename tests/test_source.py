"""Rules on the package's source text, checked on its syntax trees."""

import ast
from pathlib import Path

import lenslinks

SOURCES = sorted(Path(lenslinks.__file__).parent.glob("*.py"))


def test_no_tuple_of_a_generator():
    # tuple(<generator>) grows its result by resizing, which bypasses
    # CPython's per-size tuple free lists while freeing still fills them, so
    # memory creeps up call after call (the note in lenslinks/laurent.py).
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "tuple"
        and node.args
        and isinstance(node.args[0], ast.GeneratorExp)
    ]
    assert len(SOURCES) > 5
    assert found == []
