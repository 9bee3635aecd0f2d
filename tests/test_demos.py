"""Every demo script runs to the end in-process."""

import os
import pathlib
import runpy

import pytest

import qdist

DEMOS = sorted((pathlib.Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(path, monkeypatch, tmp_path, capsys):
    # demos write their CSVs into the working directory; the figure demo
    # also starts `python -m qdist.cli`, which must find this qdist from there
    src = os.path.dirname(os.path.dirname(os.path.abspath(qdist.__file__)))
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out


def test_demos_are_found():
    assert DEMOS
