"""The package imports nothing beyond the standard library and its one
declared dependency, numpy: packages that happen to be installed, such as
scipy, are not dependencies of melc. Every name a module lists in
``__all__`` is exported by the package and used outside its module, every
private module-level name is used somewhere in it, and the command line
leaves the pipeline to the library."""

import ast
import importlib
import re
import sys
from pathlib import Path

import pytest

import melc

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "melc"
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


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("[!_]*.py")), ids=lambda p: p.name)
def test_module_all_is_exported_by_the_package(path):
    module = importlib.import_module(f"melc.{path.stem}")
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(melc, name)]
    assert missing == []


def _private_definitions(tree):
    """The module-level names starting with one underscore that the module
    defines: functions, classes and assigned names."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        yield from (name for name in names if name.startswith("_") and not name.startswith("__"))


def _used_names(tree):
    """Every name the module loads, as a name or an attribute, or imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def test_private_names_are_used():
    trees = {
        path.name: ast.parse(path.read_text(), filename=str(path))
        for path in sorted(PACKAGE.rglob("*.py"))
    }
    used = {name for tree in trees.values() for name in _used_names(tree)}
    unused = [
        (module, name)
        for module, tree in trees.items()
        for name in _private_definitions(tree)
        if name not in used
    ]
    assert unused == []


def _names_used_in(paths):
    return {name for path in paths for name in _used_names(ast.parse(path.read_text()))}


def _readme_library_names():
    """Every word of README's library quick start section, code and prose."""
    text = (ROOT / "README.md").read_text()
    start = text.index("## Library quick start")
    return set(re.findall(r"\w+", text[start : text.index("\n## ", start)]))


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("[!_]*.py")), ids=lambda p: p.name)
def test_public_names_are_used_outside_their_module(path):
    """A name in ``__all__`` is used by another melc module, by the
    benchmark, or by README's library quick start: one only tests use
    belongs in the tests."""
    others = [p for p in PACKAGE.glob("[!_]*.py") if p != path]
    used = _names_used_in(others + sorted((ROOT / "bench").glob("*.py")))
    used |= _readme_library_names()
    module = importlib.import_module(f"melc.{path.stem}")
    assert [name for name in getattr(module, "__all__", ()) if name not in used] == []


def test_cli_leaves_the_pipeline_to_the_library():
    """The command line parses and formats: it projects, builds pairs and
    embeds through library functions only."""
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    internals = {"project", "projected_pair", "pca_top2", "LabeledDataset"}
    assert internals & set(_used_names(tree)) == set()
