"""numpy stays the only runtime dependency of the package, and the test
extra installs every other module the tests import."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "mmdlab").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))


def imported_modules(path):
    """The absolute module names a source file imports, by an import
    statement or by ``pytest.importorskip("name")``."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.module
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "importorskip"
        ):
            yield node.args[0].value


def test_the_package_has_sources():
    assert any(p.name == "__init__.py" for p in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_are_relative_numpy_or_stdlib(path):
    for name in imported_modules(path):
        top = name.split(".")[0]
        assert top == "numpy" or top in sys.stdlib_module_names, f"{path.name} imports {name}"


def test_the_test_extra_names_every_module_the_tests_import():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    requirements = project["dependencies"] + project["optional-dependencies"]["test"]
    installed = {re.match(r"[A-Za-z0-9_.-]+", r).group().lower() for r in requirements}
    own = {"mmdlab"} | {p.stem for p in TESTS}
    for path in TESTS:
        for name in imported_modules(path):
            top = name.split(".")[0]
            if top in sys.stdlib_module_names or top in own:
                continue
            assert top.lower() in installed, f"{path.name} imports {name}"
