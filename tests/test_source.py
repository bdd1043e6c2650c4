"""Checks on the source text of the package itself."""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "qaffine"


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


def test_traced_layers_resolve():
    # the benchmark's tracer wraps these functions by name, so a rename must
    # show up here rather than in a benchmark run
    spec = importlib.util.spec_from_file_location("layertrace", ROOT / "bench" / "layertrace.py")
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    assert layertrace.LAYERS
    for mod, path, _name in layertrace.LAYERS:
        owner = importlib.import_module(f"qaffine.{mod}")
        for part in path.split("."):
            owner = getattr(owner, part)
        assert callable(owner), (mod, path)
