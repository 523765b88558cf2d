"""scripts/identity.py: two runs of its matrix give equal manifests, and a
comparison names the file that differs."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "identity.py"


def test_two_runs_give_equal_manifests(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "TMPDIR": str(tmp_path)}
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    subprocess.run([sys.executable, str(SCRIPT), "--out", str(first)], check=True, env=env, cwd=tmp_path)
    done = subprocess.run(
        [sys.executable, str(SCRIPT), "--out", str(second), "--against", str(first)],
        env=env, cwd=tmp_path, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    a, b = json.loads(first.read_text()), json.loads(second.read_text())
    assert a == b
    assert {"base/runlog_base.jsonl", "base/candidates.jsonl", "eval/test.json", "sweep/report.csv",
            "data_long/train.jsonl", "data_plain/train.jsonl"} <= set(a)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["first.json", "second.json"]


def test_differences_name_each_file():
    spec = importlib.util.spec_from_file_location("identity", SCRIPT)
    identity = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(identity)
    entry = {"sha256": "0" * 64, "size": 1}
    ours = {"same": entry, "changed": {"sha256": "1" * 64, "size": 2}, "new": entry}
    theirs = {"same": entry, "changed": entry, "gone": entry}
    assert identity.differences(ours, theirs) == [
        "differs: changed (size 1 -> 2)",
        "only in the other manifest: gone",
        "only here: new",
    ]
