"""Every script under demos/ runs to completion.

The demos call library internals (``bipartite._single_node_prefactors``,
``solve_g_recurrence``), so a reshaped internal shows up here rather than
only when someone runs a demo by hand.  A numpy RuntimeWarning fails the run
(see ``filterwarnings`` in pyproject.toml).
"""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out
