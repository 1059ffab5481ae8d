"""The README's Python examples and the package's docstring examples run as
doctests, the README's command-line examples run through ``cli.main``, and
the package exports what it imports."""

import ast
import doctest
import importlib
import io
import json
import pkgutil
import re
import shlex
import sys
from pathlib import Path

import divclass
from divclass.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_examples():
    failures, attempted = doctest.testfile(str(README), module_relative=False)
    assert attempted > 0
    assert failures == 0


def readme_command_examples():
    """(argv, stdin, comment) for each line of the ``sh`` block after "Examples:".

    A line ``echo DOC | divclass ...`` feeds DOC and a newline on stdin.
    """
    block = re.search(r"^Examples:\n\n```sh\n(.*?)^```", README.read_text(), re.M | re.S)
    for line in block.group(1).splitlines():
        command, _, comment = line.partition("#")
        stdin = None
        if "|" in command:
            feed, command = command.split("|")
            echo, doc = shlex.split(feed)
            assert echo == "echo"
            stdin = doc + "\n"
        program, *argv = shlex.split(command)
        assert program == "divclass"
        yield argv, stdin, comment.strip()


def test_readme_command_examples(capsys, monkeypatch):
    examples = list(readme_command_examples())
    assert len(examples) >= 4
    asserted = 0
    for argv, stdin, comment in examples:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin or ""))
        assert main(argv) == 0, argv
        out = capsys.readouterr().out
        expected = re.fullmatch(r'(\w+) "(.*)"', comment)
        if expected:
            assert json.loads(out)[expected.group(1)] == expected.group(2), argv
            asserted += 1
    assert asserted >= 1


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
