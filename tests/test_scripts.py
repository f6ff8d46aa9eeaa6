"""Smoke test of the desk-scale end-to-end script."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

ARTIFACTS = ("loss_history.csv", "model.npz", "reconstruction.csv", "metrics.json",
             "latent_grid.jsonl")


def test_train_toy_script_writes_every_artifact(tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "train_toy.py"), str(tmp_path), "--epochs", "1"],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    for name in ARTIFACTS:
        assert (tmp_path / name).is_file(), name
