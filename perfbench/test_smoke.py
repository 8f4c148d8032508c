"""Smoke test of the benchmark harness: ``pytest perfbench`` from the repo root."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_smoke_reports_every_metric():
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--smoke", "--seed", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
