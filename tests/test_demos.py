"""Each demo script runs to completion without writing to stderr."""

from pathlib import Path

import pytest

from test_cli import run_python

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    proc = run_python([str(demo)])
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
