"""Every name a library module imports is used in it.

A standard-library check in place of a linter: each `src/camdrive` module
but `__init__.py`, whose imports are the package's public names, is parsed
with `ast`, and a name it imports must appear in it as a name.
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
