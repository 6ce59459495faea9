"""Shared fixtures."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import rainbowmat
from rainbowmat import solver


@pytest.fixture
def run_python():
    """Run ``python [flags] args`` in a subprocess that imports this checkout
    of rainbowmat; returns the completed process."""
    src = str(Path(rainbowmat.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    env.pop("PYTHONOPTIMIZE", None)

    def run(*args, cwd=None):
        return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                              capture_output=True, text=True, timeout=300)

    return run


@pytest.fixture
def sweep_rounds(monkeypatch):
    """Record every ``sweep_round`` and ``close_round`` call the solver
    makes; returns the list of (instance, assignment, result)."""
    rounds = []

    def recorded(real):
        def round_(instance, assignment, *args):
            result = real(instance, assignment, *args)
            rounds.append((instance, assignment, result))
            return result
        return round_

    for name in ("sweep_round", "close_round"):
        monkeypatch.setattr(solver, name, recorded(getattr(solver, name)))
    return rounds
