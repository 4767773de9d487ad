"""The demos print what ``demos/expected`` holds, byte for byte.

Each demo runs in-process as ``__main__``; a warning fails it, as it fails
every tier-1 test. After a change that moves a demo's output on purpose,
rewrite its file with ``python demos/<name>.py > demos/expected/<name>.txt``.
"""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"
NAMES = sorted(path.stem for path in DEMOS.glob("0*.py"))


def test_every_demo_has_its_expected_output():
    assert len(NAMES) == 5
    assert sorted(path.stem for path in (DEMOS / "expected").glob("*.txt")) == NAMES


@pytest.mark.parametrize("name", NAMES)
def test_demo_prints_its_expected_output(name, capsys):
    runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    expected = (DEMOS / "expected" / f"{name}.txt").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected
