"""Every name a revsel module imports is used in that module, so deleting
code cannot leave a stale import behind. The package's ``__init__.py`` is
exempt: it imports names to re-export them. Likewise every module-level
private name is read somewhere in ``src/`` or ``tests/``, so a helper whose
last caller goes is deleted with it."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "revsel"
TESTS = Path(__file__).resolve().parent


def unused_imports(source: str) -> list[str]:
    """The names `source` binds by an import and never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_unused_import_finder():
    source = "import os.path\nimport re\nfrom a import b as c, d\nos.sep\nd()\n"
    assert unused_imports(source) == ["re (line 2)", "c (line 3)"]


def test_no_module_imports_a_name_it_never_uses():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert PACKAGE / "algorithms.py" in modules
    stale = {
        str(path.relative_to(PACKAGE)): unused_imports(path.read_text(encoding="utf-8"))
        for path in modules
        if path != PACKAGE / "__init__.py"
    }
    assert {path: names for path, names in stale.items() if names} == {}


def private_definitions(source: str) -> list[str]:
    """The names with one leading underscore that `source` binds at module
    level by a def, a class or an assignment."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def read_names(source: str) -> set[str]:
    """The names `source` reads, as a name, an attribute or an import."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_private_name_finders():
    source = "_a = 1\n__all__ = []\ndef _b(): pass\nclass _C: pass\ndef pub(): return _a\n"
    assert private_definitions(source) == ["_a", "_b", "_C"]
    assert read_names("import m\nm._b\nfrom x import _C as y\n_z = 1\n") == {"m", "_b", "_C"}


def test_no_module_level_private_name_is_dead():
    modules = sorted(PACKAGE.rglob("*.py"))
    read = set()
    for path in [*modules, *sorted(TESTS.glob("*.py"))]:
        read |= read_names(path.read_text(encoding="utf-8"))
    dead = [
        f"{path.relative_to(PACKAGE)}: {name}"
        for path in modules
        for name in private_definitions(path.read_text(encoding="utf-8"))
        if name not in read
    ]
    assert dead == []
