"""Smoke tests of the scripts: the desk-scale end-to-end run and the corpus
builder."""

import importlib.util
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


def molecule_lines(path):
    return [line for line in path.read_text(encoding="utf-8").splitlines()
            if line and not line.startswith("#")]


def test_make_corpus_rebuilds_the_bundled_corpora(qm9_schema, toy_schema):
    spec = importlib.util.spec_from_file_location("make_corpus",
                                                  ROOT / "scripts" / "make_corpus.py")
    make_corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_corpus)
    before = {p.name: p.stat().st_mtime_ns for p in (ROOT / "data").iterdir()}
    qm9 = make_corpus.build(max_atoms=9, limit=200, schema=qm9_schema)
    toy = make_corpus.build(max_atoms=6, limit=50, schema=toy_schema)
    assert len(qm9) == 200 and qm9 == molecule_lines(ROOT / "data" / "qm9_subset.smi")
    assert len(toy) == 50 and toy == molecule_lines(ROOT / "data" / "toy_train.smi")
    # build() only returns strings; data/ is left as it was
    assert {p.name: p.stat().st_mtime_ns for p in (ROOT / "data").iterdir()} == before
