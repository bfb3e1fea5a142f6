"""Each narrative demo runs to completion in a fresh interpreter."""

import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("0[1-5]_*.py"))
CLI_TOUR = ROOT / "demos" / "06_cli_tour.sh"


def demo_env(**extra) -> dict:
    src = str(ROOT / "src")
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=pythonpath, **extra)


def test_demos_found():
    assert len(DEMOS) == 5
    assert CLI_TOUR.is_file()


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs_cleanly(demo):
    out = subprocess.run(
        [sys.executable, str(demo)], env=demo_env(), capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert out.stderr == ""


def test_cli_tour_runs_cleanly(tmp_path):
    # the tour calls `dps`; a shim runs this checkout's package instead of an installed one
    shim = tmp_path / "dps"
    shim.write_text(f'#!/bin/sh\nexec {shlex.quote(sys.executable)} -m dpstates "$@"\n')
    shim.chmod(0o755)
    env = demo_env(PATH=os.pathsep.join([str(tmp_path), os.environ.get("PATH", "")]))
    out = subprocess.run(
        ["sh", str(CLI_TOUR)], env=env, capture_output=True, text=True, timeout=300
    )
    assert out.returncode == 0, out.stderr
    assert out.stderr == ""
