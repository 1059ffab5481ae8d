"""The README's Python examples and the package's docstring examples run as
doctests, and the package exports what it imports."""

import ast
import doctest
import importlib
import pkgutil
from pathlib import Path

import divclass

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_examples():
    failures, attempted = doctest.testfile(str(README), module_relative=False)
    assert attempted > 0
    assert failures == 0


def test_module_doctests():
    attempted = 0
    for info in pkgutil.iter_modules(divclass.__path__):
        module = importlib.import_module(f"divclass.{info.name}")
        result = doctest.testmod(module)
        assert result.failed == 0, info.name
        attempted += result.attempted
    assert attempted > 0


def test_all_lists_exactly_the_imported_public_names():
    # a name deleted from a module but left in __all__ would otherwise fail
    # only at `from divclass import *`
    tree = ast.parse(Path(divclass.__file__).read_text())
    imported = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    public = [name for name in imported if not name.startswith("_")]
    assert len(divclass.__all__) == len(set(divclass.__all__))
    assert set(divclass.__all__) == set(public)
    for name in divclass.__all__:
        assert hasattr(divclass, name), name
