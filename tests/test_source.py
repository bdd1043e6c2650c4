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


def _unused_imports(path):
    """Names an import statement binds that the module never reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    return [f"{path.name}:{node.lineno} {bound}"
            for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
            for bound in [(alias.asname or alias.name).split(".")[0]]
            if bound not in read]


def test_no_unused_imports():
    # __init__.py imports only to re-export
    paths = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"] + sorted((ROOT / "tests").glob("*.py"))
    assert len(paths) > 20
    found = [name for path in paths for name in _unused_imports(path)]
    assert not found, found


def test_cache_tags_are_distinct():
    # cached(tag) keys one flat dict per owner by (tag, *args), so two
    # functions sharing a tag would silently return each other's values
    where: dict = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "cached":
                tag = ast.literal_eval(node.args[0])
                where.setdefault(tag, []).append(f"{path.name}:{node.lineno}")
    assert len(where) > 20
    shared = {tag: sites for tag, sites in where.items() if len(sites) > 1}
    assert not shared, shared


def test_only_the_kernel_accumulates_superregular_cocovers():
    # nilhecke.bruhat_into is the one loop that turns superregular cocovers
    # into an accumulated class, keyed by the coordinates (u, v, lam): it reads
    # the quantum Bruhat graph (weyl.cover_table) at u and at v, and neither
    # the chamber nor the certified records.  weyl.cocovers_superregular reads
    # the same table at the coordinates of its element, and only the tests and
    # the benchmark's tracer call it.  No case table is left, and the
    # quantum-Bruhat path walk reads no cover table: it steps the coordinates
    # itself
    gone = {"cover_rows", "case_level", "_CASE_LEVEL", "superregular_cocovers", "coverrows", "sregcovers"}
    readers = ("cover_table", "chamber_decompose", "coordinates", "from_coordinates", "cocovers_superregular")
    sites = {name: set() for name in readers}
    names = set()
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                    if name in sites:
                        sites[name].add((path.name, getattr(top, "name", None)))
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    names.add(node.name)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    names.add(node.value)  # a cache tag
    assert not names & gone, names & gone
    kernel = ("nilhecke.py", "bruhat_into")
    certificate = ("weyl.py", "cocovers_superregular")
    walk = ("qbruhat.py", "path_endpoint")
    assert kernel in sites["cover_table"] and certificate in sites["cover_table"]
    assert certificate in sites["coordinates"]
    assert not [name for name in ("chamber_decompose", "coordinates", "cocovers_superregular") if kernel in sites[name]]
    assert not [name for name in readers if walk in sites[name]]
    assert not sites["cocovers_superregular"], sites["cocovers_superregular"]


def test_weyl_pairs_roots_only_through_root_pairings():
    # every pairing <lam, alpha> of a coroot with a root that weyl reads is an
    # entry of root_pairings(rs, lam), or of _coroot_rows, which holds
    # root_pairings of each coroot: no other function reads the pairing rows
    # or the Cartan matrix, multiplies through operator.mul, or calls
    # RootSystem.pair or pair_root (the Bruhat walk and reduced_word step the
    # pairings by permuting them and adding coroot rows)
    tree = ast.parse((SRC / "weyl.py").read_text(), filename="weyl.py")
    marks = {"pairing_rows", "cartan", "pair", "pair_root", "mul"}
    sites: dict = {}
    for top in tree.body:
        if isinstance(top, ast.ImportFrom):
            continue
        for node in ast.walk(top):
            name = getattr(node, "attr", None) or getattr(node, "id", None)
            if name in marks:
                sites.setdefault(name, set()).add(top.name)
    assert sites == {"pairing_rows": {"root_pairings"}, "mul": {"root_pairings"}}, sites
    rows = next(top for top in tree.body if getattr(top, "name", None) == "_coroot_rows")
    assert "root_pairings" in {node.func.id for node in ast.walk(rows)
                               if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
