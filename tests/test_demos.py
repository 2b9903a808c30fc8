"""Smoke test: every demo script runs to completion."""

import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(path, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)  # the demos load machine files by relative path
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out
