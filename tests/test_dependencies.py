"""numpy stays the only runtime dependency of the package."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "mmdlab").glob("*.py"))


def imported_modules(path):
    """The absolute module names a source file imports."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.module


def test_the_package_has_sources():
    assert any(p.name == "__init__.py" for p in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_are_relative_numpy_or_stdlib(path):
    for name in imported_modules(path):
        top = name.split(".")[0]
        assert top == "numpy" or top in sys.stdlib_module_names, f"{path.name} imports {name}"
