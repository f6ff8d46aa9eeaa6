"""Acceptance gate: one test per release criterion, each printing a
PASS line with its measured numbers when it succeeds.

Criteria (tolerances pinned here, not deferred):
  1. fixed-point inversion converges: error(30) <= 1e-3, decay ratio <= 0.92
  2. exact discrete reconstruction of all 200 corpus molecules at n=100
  3. stochastic log-det matches the exact LU oracle on 50 small blocks
     within max(2% relative, 0.01 absolute), seed-averaged
  4. contraction / norm-product / adjacency-spectrum suites: 1e4 random
     instances each, zero violations
  5. every parameter's gradient matches central finite differences
     within 1e-3 relative (frozen probes)
  6. desk-scale training drops mean NLL by >= 5% in 20 epochs and the
     trained model generates some valid molecules at T=(0.65, 0.69)
  7. parameter counts scale ~N^2 (full) / ~N (rank-1) and undercut a
     coupling-architecture estimate by >= 10x for N >= 10
  8. SMILES round trip is isomorphic on the corpus; 20 malformed strings
     are rejected with positions
  9. every CLI subcommand is byte-deterministic under a pinned seed
"""

import json
import time
from pathlib import Path

import networkx as nx
import numpy as np
import pytest

from grf.analysis import reconstruction_curve
from grf.chem import (SmilesError, compute_metrics, parse_smiles, write_smiles)
from grf.cli import EXIT_OK, main
from grf.flow import GrfModel, ModelConfig, count_parameters, toy_config
from grf.graphs import RawGraph, random_molgraph
from grf.inversion import InversionConfig, generate
from grf.selfcheck import (check_frobenius_operator_bound, check_gcn_contraction,
                           check_logdet_oracle, check_normalized_adjacency_spectrum)
from grf.training import TrainConfig, epoch_mean_nll, grad_nll, train

DATA = Path(__file__).resolve().parent.parent / "data"


def report(criterion: str, detail: str) -> None:
    print(f"PASS {criterion}: {detail}")


# -- 1. inversion convergence --------------------------------------------------------

def test_criterion_1_inversion_convergence():
    start = time.time()
    model = GrfModel(ModelConfig(n_max=9, gcn_blocks=1, gcn_layers=1,
                                 mlp_blocks=4, mlp_layers=2,
                                 lipschitz_budget=0.9, init_scale=0.9, seed=41))
    inputs = [random_molgraph(model.schema, 1000 + i) for i in range(100)]
    rows = reconstruction_curve(model, inputs, [1, 5, 10, 15, 20, 25, 30], rng_seed=42)
    errs = {r["iterations"]: r["combined_l2"] for r in rows}
    assert errs[30] <= 1e-3
    ratios = [(errs[b] / errs[a]) ** (1.0 / (b - a))
              for a, b in ((5, 10), (10, 15), (15, 20), (20, 25), (25, 30))]
    assert all(r <= 0.92 for r in ratios)
    elapsed = time.time() - start
    assert elapsed < 60
    report("criterion-1 inversion-convergence",
           f"error(30)={errs[30]:.2e}, max ratio={max(ratios):.3f}, {elapsed:.1f}s")


# -- 2. exact reconstruction ----------------------------------------------------------

def test_criterion_2_reconstruction_rate(corpus_graphs):
    start = time.time()
    assert len(corpus_graphs) == 200
    model = GrfModel(ModelConfig(n_max=9, gcn_blocks=1, gcn_layers=1,
                                 mlp_blocks=4, mlp_layers=2,
                                 init_scale=0.9, seed=43))
    rows = reconstruction_curve(model, corpus_graphs, [100], rng_seed=44)
    assert rows[0]["exact_rate"] == 1.0
    elapsed = time.time() - start
    assert elapsed < 120
    report("criterion-2 reconstruction-rate",
           f"200/200 exact at n=100, residual l2={rows[0]['combined_l2']:.1e}, "
           f"{elapsed:.1f}s")


# -- 3. log-det oracle ------------------------------------------------------------------

def test_criterion_3_logdet_oracle():
    start = time.time()
    result = check_logdet_oracle(n_blocks=50, n_seeds=256, seed=45,
                                 series_terms=20, hutchinson_samples=256)
    assert result.passed, result.detail
    elapsed = time.time() - start
    assert elapsed < 120
    report("criterion-3 logdet-oracle", f"{result.detail}, {elapsed:.1f}s")


# -- 4. property suites -------------------------------------------------------------------

def test_criterion_4_property_suites(corpus_graphs):
    start = time.time()
    contraction = check_gcn_contraction(n_blocks=40, pairs_per_block=250, seed=46)
    assert contraction.passed, contraction.detail
    product = check_frobenius_operator_bound(count=10_000, seed=47)
    assert product.passed, product.detail
    spectrum = check_normalized_adjacency_spectrum(count=10_000, seed=48,
                                                   extra_graphs=corpus_graphs)
    assert spectrum.passed, spectrum.detail
    elapsed = time.time() - start
    assert elapsed < 60
    report("criterion-4 property-suites",
           f"contraction | norm-product | spectrum all clean over 1e4 instances "
           f"each, {elapsed:.1f}s")


# -- 5. gradient correctness ------------------------------------------------------------------

def test_criterion_5_gradient_correctness(toy_graphs):
    start = time.time()
    model = GrfModel(ModelConfig(n_max=3, atom_symbols=("C", "O"), gcn_blocks=1,
                                 gcn_layers=1, mlp_blocks=2, mlp_layers=2,
                                 use_bias=True, seed=49))
    batch = [random_molgraph(model.schema, 2000 + i) for i in range(2)]
    cfg = TrainConfig(series_terms=5, hutchinson_samples=2, rng_seed=50)
    _, grads, _ = grad_nll(model, batch, cfg)

    def loss_at():
        value, _, _ = grad_nll(model, batch, cfg)
        return value

    n_checked = 0
    worst = 0.0
    for path, arr in model.named_parameters():
        flat = arr.ravel()
        for index in range(flat.size):
            h = 1e-5 * max(1.0, abs(flat[index]))
            old = flat[index]
            flat[index] = old + h
            lp = loss_at()
            flat[index] = old - h
            lm = loss_at()
            flat[index] = old
            fd = (lp - lm) / (2 * h)
            an = grads[path].ravel()[index]
            rel = abs(an - fd) / max(abs(fd), abs(an), 1e-6)
            worst = max(worst, rel)
            assert rel <= 1e-3, f"{path}[{index}]: analytic {an} vs fd {fd}"
            n_checked += 1
    elapsed = time.time() - start
    assert elapsed < 60
    report("criterion-5 gradient-correctness",
           f"{n_checked} parameters, worst relative error {worst:.2e}, {elapsed:.1f}s")


# -- 6. desk-scale training -----------------------------------------------------------------------

def test_criterion_6_desk_scale_training(toy_graphs):
    start = time.time()
    assert len(toy_graphs) == 50
    model = GrfModel(toy_config(seed=51))
    cfg = TrainConfig(batch_size=25, learning_rate=1e-3, epochs=20,
                      series_terms=8, hutchinson_samples=4, rng_seed=52)
    history = train(model, toy_graphs, cfg)
    means = epoch_mean_nll(history)
    first, last = means[0], means[cfg.epochs - 1]
    drop = (first - last) / abs(first)
    assert drop >= 0.05, f"NLL only dropped {drop:.1%}"

    molecules = generate(model, 500, 0.65, 0.69, InversionConfig(iterations=100),
                         rng_seed=53)
    metrics = compute_metrics(molecules, set())
    assert metrics.validity > 0.0
    elapsed = time.time() - start
    assert elapsed < 600
    report("criterion-6 desk-scale-training",
           f"NLL {first:.1f} -> {last:.1f} ({drop:.1%} drop), "
           f"validity {metrics.validity:.3f} over 500 samples, {elapsed:.1f}s")


# -- 7. parameter-count scaling ----------------------------------------------------------------------

def coupling_architecture_count(n: int, r: int = 4, m: int = 5,
                                linear_maps: int = 8) -> int:
    """Analytic O(L N^4 R^2) + O(L N^2 M^2 R^2) coupling-layer estimate."""
    return linear_maps * (n ** 4 * r ** 2 + n ** 2 * m ** 2 * r ** 2)


def fitted_slope(ns, counts):
    x = np.log(np.asarray(ns, dtype=float))
    y = np.log(np.asarray(counts, dtype=float))
    return float(np.polyfit(x, y, 1)[0])


def test_criterion_7_parameter_scaling():
    start = time.time()
    ns = [5, 10, 20, 40]
    full_counts = []
    rank1_counts = []
    for n in ns:
        base = dict(n_max=n, gcn_blocks=1, gcn_layers=1, mlp_blocks=4, mlp_layers=2, seed=54)
        full_counts.append(count_parameters(GrfModel(ModelConfig(**base))))
        rank1_counts.append(count_parameters(
            GrfModel(ModelConfig(**base, adjacency_rank=1))))
    slope_full = fitted_slope(ns, full_counts)
    slope_rank1 = fitted_slope(ns, rank1_counts)
    assert 1.7 <= slope_full <= 2.05
    assert 0.7 <= slope_rank1 <= 1.2
    for n, grf_count in zip(ns, full_counts):
        if n >= 10:
            assert coupling_architecture_count(n) >= 10 * grf_count
    elapsed = time.time() - start
    assert elapsed < 10
    report("criterion-7 parameter-scaling",
           f"full slope {slope_full:.2f}, rank-1 slope {slope_rank1:.2f}, "
           f"min coupling/grf ratio "
           f"{min(coupling_architecture_count(n) / c for n, c in zip(ns, full_counts) if n >= 10):.0f}x, "
           f"{elapsed:.1f}s")


# -- 8. SMILES round trip -------------------------------------------------------------------------------

MALFORMED = ["CXC", "C(C", "C1CC", "C)C", "C==C", "=CC", "CC=", "C1C1", "",
             "C%1C", "c1ccccc1", "C(=O", "CC)", "C#=C", "1CC", "C--C", "(CC)",
             "C=)C", "C$C", "CC1"]


def to_nx(raw: RawGraph) -> nx.Graph:
    g = nx.Graph()
    for i, sym in enumerate(raw.atoms):
        g.add_node(i, symbol=sym)
    for i, j, order in raw.bonds:
        g.add_edge(i, j, order=order)
    return g


def test_criterion_8_smiles_roundtrip(corpus_raw):
    start = time.time()
    assert len(corpus_raw) == 200
    for raw in corpus_raw:
        again = parse_smiles(write_smiles(raw))
        assert nx.is_isomorphic(
            to_nx(raw), to_nx(again),
            node_match=lambda u, v: u["symbol"] == v["symbol"],
            edge_match=lambda u, v: u["order"] == v["order"])
    assert len(MALFORMED) == 20
    for bad in MALFORMED:
        with pytest.raises(SmilesError) as exc:
            parse_smiles(bad)
        assert isinstance(exc.value.position, int)
        assert "position" in str(exc.value)
    elapsed = time.time() - start
    assert elapsed < 1.0
    report("criterion-8 smiles-roundtrip",
           f"200 molecules isomorphic, 20 malformed rejected with offsets, "
           f"{elapsed:.2f}s")


# -- 9. CLI determinism ------------------------------------------------------------------------------------

def run_twice_and_compare(argv_factory, out_files, tmp_path, tag):
    outputs = []
    for run in ("a", "b"):
        out = tmp_path / f"{tag}_{run}"
        code = main(argv_factory(out))
        assert code == EXIT_OK
        outputs.append([(out / f).read_bytes() for f in out_files])
    for f, (b1, b2) in zip(out_files, zip(*outputs)):
        assert b1 == b2, f"{tag}/{f} differs between runs"


def test_criterion_9_cli_determinism(tmp_path, capsys):
    start = time.time()
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "model": {"n_max": 6, "atom_symbols": ["C", "N", "O", "F"],
                  "mlp_blocks": 2, "mlp_layers": 2},
        "train": {"batch_size": 25, "epochs": 2, "series_terms": 4,
                  "hutchinson_samples": 2},
    }), encoding="utf-8")
    dataset = str(DATA / "toy_train.smi")

    run_twice_and_compare(
        lambda out: ["train", "--config", str(config), "--dataset", dataset,
                     "--out", str(out), "--seed", "7"],
        ["model.npz", "loss_history.csv"], tmp_path, "train")

    ckpt = str(tmp_path / "train_a" / "model.npz")
    run_twice_and_compare(
        lambda out: ["sample", "--ckpt", ckpt, "--out", str(out), "--count", "25",
                     "--seed", "8", "--dataset", dataset],
        ["samples.smi", "metrics.json", "graphs.jsonl"], tmp_path, "sample")
    run_twice_and_compare(
        lambda out: ["reconstruct", "--ckpt", ckpt, "--dataset", dataset,
                     "--out", str(out), "--iterations", "1,10,50", "--count", "10",
                     "--seed", "9"],
        ["reconstruction.csv"], tmp_path, "reconstruct")
    run_twice_and_compare(
        lambda out: ["eval", "--ckpt", ckpt, "--dataset", dataset, "--out", str(out),
                     "--count", "5", "--seed", "10"],
        ["traces.jsonl"], tmp_path, "eval")
    run_twice_and_compare(
        lambda out: ["latent-grid", "--ckpt", ckpt, "--dataset", dataset,
                     "--out", str(out), "--grid-size", "2", "--grid-step", "0.3",
                     "--seed", "11", "--count", "15"],
        ["latent_grid.jsonl"], tmp_path, "latent-grid")

    capsys.readouterr()  # drain output of the file-producing subcommands
    texts = []
    for _ in range(2):
        code = main(["selfcheck", "--seed", "12"])
        assert code == EXIT_OK
        texts.append(capsys.readouterr().out)
    assert texts[0] == texts[1]

    elapsed = time.time() - start
    report("criterion-9 cli-determinism",
           f"all six subcommands byte-identical across reruns, {elapsed:.1f}s")
