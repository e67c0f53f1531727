"""Every demo script runs to the end.

The demos call the pipeline's public names as a user would, so running
them keeps those call patterns working. Each runs in-process as
__main__, inside a temporary working and temp directory, with its
stdout captured.
"""

import runpy
import tempfile
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 7


@pytest.mark.parametrize("demo", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(demo, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    runpy.run_path(str(demo), run_name="__main__")
    assert capsys.readouterr().out.strip()
