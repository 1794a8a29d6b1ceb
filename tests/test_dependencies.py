"""The package imports nothing beyond the standard library and its one
declared dependency, numpy: packages that happen to be installed, such as
scipy, are not dependencies of melc."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "melc"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "melc"}


def _imported_modules(path):
    """The top-level module of every absolute import in the file."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_package_has_modules():
    assert (PACKAGE / "__init__.py").is_file()


@pytest.mark.parametrize("path", sorted(PACKAGE.rglob("*.py")), ids=lambda p: p.name)
def test_imports_only_stdlib_and_numpy(path):
    outside = [(line, name) for line, name in _imported_modules(path) if name not in ALLOWED]
    assert outside == []
