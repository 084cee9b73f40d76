"""Each demo script runs to completion against this checkout's ``src/``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


@pytest.mark.parametrize("script, args", [
    ("01_preset_designs.py", ["out"]),
    ("02_response_shaping.py", ["out"]),
    ("03_polynomial_analysis_bank.py", []),
    ("04_pulse_detection_scenarios.py", ["2"]),
], ids=["01", "02", "03", "04"])
def test_demo_runs(tmp_path, script, args):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / script), *args],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
