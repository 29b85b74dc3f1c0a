"""Every name a library module imports is used in it, and every private
module-level name is used somewhere in the library.

Standard-library checks in place of a linter: each `src/camdrive` module
but `__init__.py`, whose imports are the package's public names, is parsed
with `ast`, and a name it imports must appear in it as a name. A function,
class or constant whose name starts with one underscore (dunders aside),
defined at the top of any library module, must be read by some library
module beyond its definition: a helper kept only for the tests fails.
"""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "camdrive"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def imported_names(tree) -> set:
    """The names that the import statements of a module bind."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):  # `import a.b` binds a
            names |= {alias.asname or alias.name.partition(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names |= {alias.asname or alias.name for alias in node.names}
    return names


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(imported_names(tree) - used)
    assert not unused, f"{module} imports names it never uses: {unused}"


def private_definitions(tree) -> set:
    """The `_name`s that a module's top-level statements define."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def read_names(tree) -> set:
    """The names a module reads: as a name, an attribute or an import."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names |= {alias.name for alias in node.names}
    return names


def test_no_dead_private_names():
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in SRC.glob("*.py")}
    read = set().union(*map(read_names, trees.values()))
    dead = sorted(f"{module}: {name}" for module, tree in trees.items()
                  for name in private_definitions(tree) - read)
    assert not dead, f"private names that no library module uses: {dead}"
