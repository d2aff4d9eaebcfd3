"""Smoke run of scripts/calibrate_channel.py on the shipped preset at one seed."""
import os
import subprocess
import sys
from pathlib import Path

from barrelmesh.cli import ALGORITHMS, EXPERIMENT_PRESETS

ROOT = Path(__file__).resolve().parent.parent
RATES = EXPERIMENT_PRESETS["paper"].rates_pps


def run_script(name, *args):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_calibrate_channel_reports_every_cell():
    lines = run_script("calibrate_channel.py", "--refine", "1100:12", "--seeds", "1")
    row = lines[0]
    assert row.startswith("dur= 1100 jit=12.0 p=0.00 ")
    for rate in RATES:
        for algorithm in ALGORITHMS:
            assert row.count(f" {algorithm}@{rate:g}=") == 1, (algorithm, rate)
    assert "best candidates" in lines[2]
