"""Every script under scripts/ imports and parses its arguments.

Running each with --help executes all of its imports, so a script that
names a function the package no longer has fails here.  contraction_demo.py
also runs to completion (about 1.5 s): it is the one end-to-end run of
check_assumption1, feasible_steps, contraction_factor and run_dynamic on a
family whose evaluate is built from the per-agent methods.  The other full
runs take longer and are left out.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from conftest import src_env

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_script_help_runs(script):
    proc = subprocess.run(
        [sys.executable, str(script), "--help"],
        env=src_env(), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "usage:" in proc.stdout


def test_contraction_demo_certifies_and_its_bound_holds():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "contraction_demo.py")],
        env=src_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].endswith("certified=True")
    assert lines[-1].endswith("(bound holds: True)")


@pytest.mark.parametrize("lam", ["nan", "-1"])
def test_contraction_demo_rejects_a_bad_level_in_one_line(lam):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "contraction_demo.py"), "--lam", lam],
        env=src_env(), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stderr == "error: concavity levels must be finite and nonnegative\n"
