"""Run the demo scripts, so a change to the package API that breaks one fails
the suite instead of going unnoticed.

Each demo runs as its own process against the package in ``src/``. It must
exit 0 and leave nothing in its temp directory. Demo 02 checks
``combined_batch`` against finite differences, so it also guards the combined
step end to end. ``04_two_stage_pipeline.py`` is left out: it trains the full
base-plus-finetune pipeline on the default corpus and takes minutes, and the
acceptance suite's criterion 9 already covers that path.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "demo", ["01_corpus_anatomy", "02_gradient_check", "03_topk_recall_gap", "05_sweep_harness"]
)
def test_demo_exits_zero(demo, tmp_path):
    # TMPDIR keeps what a demo writes with tempfile inside the test's directory
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp_path))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{demo}.py")], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert not any(tmp_path.iterdir()), f"{demo} left files in its temp directory"
