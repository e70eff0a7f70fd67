"""No module of the package or of this suite imports a name it never uses.

Deleting code tends to leave its imports behind; the interpreter does not
mind, so this AST scan of every import, at module level or inside a
function or class, is the only check.  Names a module lists in
``__all__`` count as used (re-exports)."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def unused_imports(path: Path) -> list[str]:
    """Names bound by imports anywhere in ``path`` that the module never
    reads and does not list in ``__all__``."""
    tree = ast.parse(path.read_text())
    bound = set()
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(bound - used - exported)


def test_no_import_is_unused():
    paths = sorted((ROOT / "src" / "macdecay").glob("*.py"))
    paths += sorted((ROOT / "tests").glob("*.py"))
    assert len(paths) > 20
    unused = {str(p.relative_to(ROOT)): unused_imports(p) for p in paths}
    assert {p: names for p, names in unused.items() if names} == {}


def test_scan_finds_an_unused_import(tmp_path):
    path = tmp_path / "module.py"
    path.write_text(
        "from __future__ import annotations\n"
        "import json\nimport os.path\nfrom x import y as z, w\n"
        "__all__ = ['w']\n"
        "def f():\n    import sys\n    from x import q\n"
        "    return os.path.join(str(f), q)\n"
    )
    assert unused_imports(path) == ["json", "sys", "z"]
