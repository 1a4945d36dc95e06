"""Smoke tests: the scripts under scripts/ run end to end."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(*argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_worked_example():
    proc = run_script("worked_example.py")
    assert proc.returncode == 0, proc.stderr
    assert "final: n=23 leaves=15" in proc.stdout
