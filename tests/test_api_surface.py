"""The package carries no API without a caller, and no unused import.

Every module-level function and class of ``src/h2h2`` and every method of
those classes (dunders aside, and ``__init__.py``, which only holds the
package docstring and version) is referenced from the package,
``scripts/*.py`` or ``bench/*.py`` outside its own body, or is an entry point
in ``pyproject.toml``.  A reference is a name, an attribute, or a string
that is an identifier, as in ``getattr`` and the benchmark's span table.
Tests do not count as callers: a def that only tests reach is deleted, and
its short formula moves into the test.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "h2h2"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
CALLERS = (sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
           + sorted((ROOT / "bench").glob("*.py")))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _references(node) -> list:
    """Names, attributes and identifier strings under ``node``."""
    out = []
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.append(n.id)
        elif isinstance(n, ast.Attribute):
            out.append(n.attr)
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) and n.value.isidentifier():
            out.append(n.value)
    return out


def _defs(tree: ast.Module):
    """(qualified name, node) of the module-level functions and classes and
    of their methods, dunders aside."""
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, funcs + (ast.ClassDef,)) and not node.name.startswith("__"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, funcs) and not item.name.startswith("__"):
                        yield f"{node.name}.{item.name}", item


def _entry_points() -> set:
    text = (ROOT / "pyproject.toml").read_text()
    return set(re.findall(r'^\w[\w-]* = "h2h2\.\w+:(\w+)"', text, flags=re.M))


def uncalled_defs() -> list:
    refs = Counter(name for path in CALLERS for name in _references(_tree(path)))
    entry = _entry_points()
    out = []
    for path in MODULES:
        for qualname, node in _defs(_tree(path)):
            own = _references(node).count(node.name)
            if refs[node.name] - own <= 0 and node.name not in entry:
                out.append(f"{path.stem}.{qualname}")
    return out


def unused_imports() -> list:
    """Names bound by a module-level import of the package and never read
    there, as a name or as an identifier string (a quoted annotation)."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = _tree(path)
        bound = []
        for node in tree.body:
            if isinstance(node, ast.Import):
                bound += [a.asname or a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound += [a.asname or a.name for a in node.names]
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        read |= {n.value for n in ast.walk(tree)
                 if isinstance(n, ast.Constant) and isinstance(n.value, str)}
        out += [f"{path.stem}: {name}" for name in bound if name not in read]
    return out


def test_every_def_has_a_caller_outside_the_tests():
    assert uncalled_defs() == []


def test_every_module_level_import_is_used():
    assert unused_imports() == []


def test_the_package_init_holds_no_api():
    tree = _tree(PACKAGE / "__init__.py")
    assigned = [t.id for node in tree.body if isinstance(node, ast.Assign) for t in node.targets]
    statements = [type(node).__name__ for node in tree.body]
    assert assigned == ["__version__"]
    assert statements == ["Expr", "Assign"]
