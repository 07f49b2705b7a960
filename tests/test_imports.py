"""Every name a revsel module imports is used in that module, so deleting
code cannot leave a stale import behind. The package's ``__init__.py`` is
exempt: it imports names to re-export them. Likewise every private name
that a module defines, at module level or as a class's method, class
attribute or ``self`` attribute, is read somewhere in ``src/`` or
``tests/``, so a helper whose last caller goes, or a cache slot whose last
reader goes, is deleted with it."""

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


def _private(names: list[str]) -> list[str]:
    """`names` with one leading underscore, each once, in order."""
    return [n for n in dict.fromkeys(names) if n.startswith("_") and not n.startswith("__")]


def _bound(body: list[ast.stmt]) -> list[str]:
    """The names the statements of `body` bind by a def, a class or an
    assignment."""
    names = []
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return names


def private_definitions(source: str) -> list[str]:
    """The names with one leading underscore that `source` binds at module
    level by a def, a class or an assignment."""
    return _private(_bound(ast.parse(source).body))


def private_members(source: str) -> list[str]:
    """The names with one leading underscore that the module-level classes
    of `source` bind: their methods and class attributes, and the
    attributes their methods assign on ``self``."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef):
            names += _bound(node.body)
            names += [
                sub.attr for sub in ast.walk(node)
                if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store)
                and isinstance(sub.value, ast.Name) and sub.value.id == "self"
            ]
    return _private(names)


def read_names(source: str) -> set[str]:
    """The names `source` reads, as a name, an attribute or an import. An
    attribute that is only assigned, even by ``+=``, is not read."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_private_name_finders():
    source = "_a = 1\n__all__ = []\ndef _b(): pass\nclass _C: pass\ndef pub(): return _a\n"
    assert private_definitions(source) == ["_a", "_b", "_C"]
    assert read_names("import m\nm._b\nfrom x import _C as y\n_z = 1\n") == {"m", "_b", "_C"}
    assert read_names("self._x = 1\nself._n += 1\nm._y = self._z\n") == {"self", "m", "_z"}


def test_private_member_finder():
    source = (
        "class C:\n"
        "    _k = 1\n"
        "    def __init__(self):\n"
        "        self._cache = None\n"
        "        self.public = self._k\n"
        "    def _fill(self):\n"
        "        self._cache = 2\n"
        "        other._x = 3\n"
        "def _f(self):\n"
        "    self._y = 4\n"
    )
    assert private_members(source) == ["_k", "_fill", "_cache"]


def _dead(finder) -> list[str]:
    """The private names `finder` finds in a module of the package that no
    module of the package or the tests reads."""
    modules = sorted(PACKAGE.rglob("*.py"))
    read = set()
    for path in [*modules, *sorted(TESTS.glob("*.py"))]:
        read |= read_names(path.read_text(encoding="utf-8"))
    return [
        f"{path.relative_to(PACKAGE)}: {name}"
        for path in modules
        for name in finder(path.read_text(encoding="utf-8"))
        if name not in read
    ]


def test_no_module_level_private_name_is_dead():
    assert _dead(private_definitions) == []


def test_no_private_method_or_attribute_is_dead():
    assert _dead(private_members) == []
