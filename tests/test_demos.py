"""Every demo script runs to completion against the installed package."""

import pathlib
import runpy

import numpy as np
import pytest

from scalehilbert import fourier_gram_closed_form

DEMO_DIR = pathlib.Path(__file__).resolve().parents[1] / "demos"
DEMOS = sorted(DEMO_DIR.glob("*.py"))


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out


def test_sobolev_demo_inclusion_values(tmp_path, monkeypatch, capsys):
    """The Sobolev demo's inclusion singular values (grade 1 -> 0) are the
    closed-form grade-1 weights to the power -1/2, largest first."""
    monkeypatch.chdir(tmp_path)
    demo = runpy.run_path(str(DEMO_DIR / "sobolev_circle.py"), run_name="__main__")
    capsys.readouterr()
    weights = [fourier_gram_closed_form(nu, nu, 1) for nu in range(1, demo["nu_max"] + 1)]
    assert demo["sv"] == pytest.approx(np.sort(np.power(weights, -0.5))[::-1], rel=1e-14)
    assert demo["sv"][0] == 1.0 and np.all(np.diff(demo["sv"]) <= 0)
