"""Smoke tests: the scripts under scripts/ run end to end."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# SHA-256 of worked_example.py's whole stdout, the stepwise construction of
# 5,5,5,4,3,3,2,2 with every intermediate SO, the final tree and both checks
WORKED_EXAMPLE_SHA256 = "84284d8ba072bdf3ea7e83d2488dc04ec32560610faf51f7974ec0661e40969b"


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
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == WORKED_EXAMPLE_SHA256
