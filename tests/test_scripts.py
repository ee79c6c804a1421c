"""Every script under scripts/ imports and parses its arguments.

Running each with --help executes all of its imports, so a script that
names a function the package no longer has fails here.  Full runs take
seconds each and are left out.
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
