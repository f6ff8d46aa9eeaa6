"""Self-test of the benchmark on tiny sizes.

Pins the output schema against BENCHMARK.json, checks that every metric the
benchmark documents is produced, that digests repeat, and that an
over-budget weight shows up as failed operations.  Run from the
repository root:

    python3 -m pytest perfbench/test_bench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from grf import flow  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
E2E_UNITS = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in BENCH["per_layer"]}

TOY = (flow.toy_config, "data/toy_train.smi")
TINY = {
    "train": workloads.TrainSpec(*TOY, batch_size=5, setups=2, min_steps=2),
    "infer": workloads.InferSpec(*TOY, sample_batch=3, sample_calls=1,
                                 reconstruct_batch=2, reconstruct_calls=1),
}
COMMON = {"setup_s", "peak_rss_mb", "failure_rate"}
REPORT = {
    "train": COMMON | {"train_mol_per_s", "train_step_ms_p50", "train_step_ms_p90"},
    "infer": COMMON | {"infer_mol_per_s", "eval_ms_per_mol_p50", "sample_mol_per_s",
                       "sample_count", "reconstruct_mol_per_s", "reconstruct_count"},
}


def run(kind, tmp_path, trace=False, seed=0):
    return workloads.run_workload(TINY[kind], seed, 0.0, trace, ROOT, tmp_path)


def test_benchmark_file_matches_the_code():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                          "per_layer"}
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)
    assert E2E_UNITS == workloads.END_TO_END_UNITS
    assert PER_LAYER_UNITS == tracing.PER_LAYER_UNITS
    setup_bound = next(m["bound"] for m in BENCH["end_to_end"] if m["name"] == "setup_s")
    assert all(m["bound"] <= setup_bound <= 0.25 for m in BENCH["end_to_end"])


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("kind", list(TINY))
def test_every_metric_is_reported(kind, trace, tmp_path):
    result = run(kind, tmp_path, trace=trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["end_to_end"]) == set(E2E_UNITS)
    assert all(m["value"] > 0 for m in result["end_to_end"].values())
    assert REPORT[kind] <= set(result["report"])
    assert result["report"]["failure_rate"]["value"] == 0.0
    if trace:
        assert set(result["per_layer"]) == set(PER_LAYER_UNITS)
        assert result["self_ms_per_op"]
    else:
        assert "per_layer" not in result


ENTERED = {
    "train": ("autodiff.tape_nodes", "training.grad_nll_ms", "flow.project_ms",
              "linalg.power_iter_matvecs", "flow.model_init_ms", "chem.parse_ms"),
    "infer": ("likelihood.logdet_series_calls", "flow.certified_bound_calls",
              "flow.jvp_many_calls", "flow.load_checkpoint_ms", "graphs.operator_ms",
              "inversion.invert_layer_calls", "inversion.fixed_point_iters_max",
              "inversion.sample_iters_mean", "inversion.reconstruct_iters_mean",
              "chem.validity_ms", "graphs.quantize_ms", "analysis.encode_ms",
              "graphs.dequantize_ms"),
}


@pytest.mark.parametrize("kind", list(TINY))
def test_traced_layers_are_entered(kind, tmp_path):
    layers = run(kind, tmp_path, trace=True)["per_layer"]
    for name in ENTERED[kind]:
        assert layers[name]["value"] > 0, name
    if kind == "infer":
        assert layers["autodiff.tape_nodes"]["value"] == 0


@pytest.mark.parametrize("kind", list(TINY))
def test_digest_repeats_and_tracing_keeps_outputs(kind, tmp_path):
    first = run(kind, tmp_path)["digest"]
    assert run(kind, tmp_path)["digest"] == first
    assert run(kind, tmp_path, trace=True)["digest"] == first
    assert run(kind, tmp_path, seed=1)["digest"] != first


def _over_budget(model):
    w = model.adjacency_layers[0].weights[0]
    w *= 1.5 / np.linalg.norm(w, 2)
    return model


def test_over_budget_checkpoint_fails_inference(monkeypatch, tmp_path):
    load = flow.load_checkpoint
    monkeypatch.setattr(flow, "load_checkpoint",
                        lambda path: (_over_budget(load(path)[0]), {}, {}))
    result = run("infer", tmp_path)
    assert result["failed"] > 0 and not result["correct"]
    assert result["report"]["failure_rate"]["value"] > 0


def test_over_budget_model_fails_training(monkeypatch, tmp_path):
    class OverBudget(flow.GrfModel):
        def __init__(self, config):
            super().__init__(config)
            _over_budget(self)

    monkeypatch.setattr(flow, "GrfModel", OverBudget)
    result = run("train", tmp_path)
    assert result["failed"] > 0
    assert result["report"]["failure_rate"]["value"] > 0


def _cli(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_command_prints_the_result_line():
    proc = _cli(ROOT, "--workload", "toy-train", "--seed", "3", "--seconds", "0",
                "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    assert {k: m["unit"] for k, m in last["metrics"].items()} == E2E_UNITS


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _cli(tmp_path, "--workload", "toy-train", "--seed", "0", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
