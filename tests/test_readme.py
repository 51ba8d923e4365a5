"""Every ```python block of README.md runs to completion.

The quick start imports and calls the public API, so a renamed or reshaped
name shows up here rather than only when a reader pastes the block.  A numpy
RuntimeWarning fails the run (see ``filterwarnings`` in pyproject.toml).
"""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)


def test_blocks_found():
    assert BLOCKS


@pytest.mark.parametrize("source", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_block_runs(source, capsys):
    exec(compile(source, str(README), "exec"), {"__name__": "__main__"})
    assert capsys.readouterr().out
