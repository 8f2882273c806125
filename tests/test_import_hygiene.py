"""Every name a package module imports is read in that module."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).parent.parent / "src" / "entropic_doubling"
# __init__ imports to re-export, so it reads none of its names.
MODULES = sorted(path.name for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    """The names an import binds (a __future__ import binds none) that no
    ast.Name reads."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            # `import a.b` binds a.
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted(bound - read)


def test_the_check_finds_an_unused_import():
    source = "from __future__ import annotations\nimport os.path\nimport sys as s\nfrom a import b, c\nc(s)\n"
    assert _unused_imports(source) == ["b", "os"]


def test_modules_are_found():
    assert {"endgame.py", "pipeline.py", "gf2.py"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_every_imported_name_is_read(module):
    assert _unused_imports((PACKAGE / module).read_text()) == []
