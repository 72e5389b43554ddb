"""Every demo script runs to completion against the current library."""
import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out


def test_private_comparison_demo_refuses_a_tampered_row(capsys):
    runpy.run_path(str(DEMOS[0].parent / "02_private_comparison.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "comparator at width 16: 47 gates of 252 rows, 7063 bytes on the wire\n" in out
    assert ("oblivious transfer moves 1312 bytes per width-16 comparison in 8 transfers"
            " (96 for a batch of one bit)\n") in out
    assert "tampered circuit rejected: row 2 of gate 8 fails its tag check\n" in out
