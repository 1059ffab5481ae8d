"""Each demo script runs to completion without writing to stderr, eliminating no more than it must."""

import runpy
from pathlib import Path

import pytest

from test_cli import run_python

DEMOS_DIR = Path(__file__).resolve().parent.parent / "demos"
DEMOS = sorted(DEMOS_DIR.glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    proc = run_python([str(demo)])
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


def test_poset_walkthrough_eliminates_twice(monkeypatch, capsys):
    # The report's elimination of the 9x7 relation matrix, and one of
    # [A | omega] for the reduced class group; nothing else re-eliminates.
    from divclass import abelian

    smith_normal_form = abelian.smith_normal_form
    shapes = []

    def counted(A):
        shapes.append((A.rows, A.cols))
        return smith_normal_form(A)

    monkeypatch.setattr(abelian, "smith_normal_form", counted)
    runpy.run_path(str(DEMOS_DIR / "poset_walkthrough.py"), run_name="__main__")
    assert "tree route == Fitting route: 1 == 1" in capsys.readouterr().out
    assert shapes == [(9, 7), (9, 8)]
