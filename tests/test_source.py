"""Checks on the source text of the package itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "qaffine"


def test_no_bare_asserts():
    # python -O drops assert statements, so every certificate must be an
    # explicit raise
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = [f"{path.name}:{node.lineno}"
             for path in paths
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, found
