"""Every name a revsel module imports is used in that module, so deleting
code cannot leave a stale import behind. The package's ``__init__.py`` is
exempt: it imports names to re-export them."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "revsel"


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
