"""The README's Python examples and the package's docstring examples run as doctests."""

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
