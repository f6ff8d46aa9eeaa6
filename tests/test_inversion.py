import numpy as np
import pytest

from grf.analysis import reconstruction_curve
from grf.flow import GrfModel, MlpResidualBlock, toy_config
from grf.graphs import dequantize, quantize_adjacency, quantize_features, random_molgraph
from grf.inversion import (InversionConfig, decode_molecule, generate, invert_flow,
                           invert_residual_layer)
from grf.likelihood import sample_prior
from grf.linalg import NumericalError, init_spectral_state
from grf.selfcheck import random_feature_block


def scalar_block(w: float) -> MlpResidualBlock:
    return MlpResidualBlock(prefix="t", weights=[np.array([[w]])], biases=[None],
                            budget=0.9, states=[init_spectral_state(1, 1, seed=0)])


def test_invert_zero_block_returns_y():
    block = scalar_block(0.0)
    y = np.array([[3.7]])
    out = invert_residual_layer(block.apply, y, InversionConfig(iterations=17))
    assert np.array_equal(out, y)


def test_invert_scalar_geometric_convergence():
    # x + 0.5 x = 3 has x* = 2; iterate error contracts like 0.5^n
    block = scalar_block(0.5)
    y = np.array([[3.0]])
    for n in (3, 6, 10, 20):
        out = invert_residual_layer(block.apply, y,
                                    InversionConfig(iterations=n, early_stop_tol=0.0))
        err = abs(out[0, 0] - 2.0)
        assert err < 2.0 * 0.5 ** n
    out = invert_residual_layer(block.apply, y,
                                InversionConfig(iterations=60, early_stop_tol=0.0))
    assert abs(out[0, 0] - 2.0) < 1e-12


def test_invert_gcn_block_error_decays_exponentially():
    block, p = random_feature_block(1, n=5, m_real=3, sigma=0.9)
    rng = np.random.default_rng(2)
    x_true = rng.standard_normal((5, 4))
    y = x_true + block.apply(x_true, p)
    errs = []
    for n in (5, 10, 20, 30):
        x = invert_residual_layer(lambda t: block.apply(t, p), y,
                                  InversionConfig(iterations=n, early_stop_tol=0.0))
        errs.append(np.linalg.norm(x + block.apply(x, p) - y))
    assert errs[-1] < 1e-4
    assert all(b < a for a, b in zip(errs, errs[1:]))


def test_successive_iterate_ratios_bounded_by_contraction():
    block, p = random_feature_block(4, n=4, m_real=3, sigma=0.85)
    bound = block.certified_bound()
    rng = np.random.default_rng(5)
    y = rng.standard_normal((4, 4)) * 2.0
    iterates = [y]
    x = y
    for _ in range(12):
        x = y - block.apply(x, p)
        iterates.append(x)
    deltas = [np.linalg.norm(b - a) for a, b in zip(iterates, iterates[1:])]
    for d0, d1 in zip(deltas, deltas[1:]):
        if d0 > 1e-12:
            assert d1 / d0 <= bound + 1e-3


def test_invert_detects_expansive_block():
    block = scalar_block(1.6)
    with pytest.raises(NumericalError):
        invert_residual_layer(block.apply, np.array([[1.0]]),
                              InversionConfig(iterations=200, early_stop_tol=0.0))


def test_invert_flow_zero_weights_passes_latents_through():
    model = GrfModel(toy_config(seed=6))
    for _, arr in model.named_parameters():
        arr[...] = 0.0
    z = sample_prior(model, 0.65, 0.69, rng_seed=7)
    deq = invert_flow(model, z, InversionConfig(iterations=5))
    assert np.allclose(deq.adjacency_c, z.z_adjacency)
    assert np.allclose(deq.features_c, z.z_features)


@pytest.mark.parametrize("mode", ["flat", "node", "pair"])
def test_encode_decode_roundtrip_modes(mode):
    model = GrfModel(toy_config(adjacency_mode=mode, seed=8))
    for i in range(5):
        g = random_molgraph(model.schema, 100 + i)
        deq = dequantize(g, 0.9, 200 + i)
        z = model.encode(deq, g.adjacency)
        rec = invert_flow(model, z, InversionConfig(iterations=100))
        assert np.abs(rec.adjacency_c - deq.adjacency_c).max() < 1e-6
        assert np.abs(rec.features_c - deq.features_c).max() < 1e-6
        assert np.array_equal(quantize_adjacency(rec.adjacency_c), g.adjacency)
        assert np.array_equal(quantize_features(rec.features_c), g.features)


def test_reconstruction_error_decreases_with_iterations(toy_graphs):
    model = GrfModel(toy_config(init_scale=0.9, seed=9))
    rows = reconstruction_curve(model, toy_graphs[:20], [0, 1, 5, 10, 30], rng_seed=10)
    errs = [row["combined_l2"] for row in rows]
    assert all(b < a for a, b in zip(errs, errs[1:]))
    assert rows[-1]["exact_rate"] == 1.0


def test_reconstruction_zero_iterations_is_forward_displacement(toy_graphs):
    model = GrfModel(toy_config(init_scale=0.9, seed=9))
    graphs = toy_graphs[:5]
    rows = reconstruction_curve(model, graphs, [0], rng_seed=10)
    from grf.graphs import dequantize
    from grf.likelihood import TAG_DEQUANT, derive_rng

    adj, feat = [], []
    for i, g in enumerate(graphs):
        deq = dequantize(g, 0.9, int(derive_rng(10, TAG_DEQUANT, i).integers(2 ** 31)))
        z = model.encode(deq, g.adjacency)
        adj.append(np.linalg.norm(z.z_adjacency - deq.adjacency_c) / deq.adjacency_c.size)
        feat.append(np.linalg.norm(z.z_features - deq.features_c) / deq.features_c.size)
    assert rows[0]["adjacency_l2"] == pytest.approx(float(np.mean(adj)), abs=1e-15)
    assert rows[0]["feature_l2"] == pytest.approx(float(np.mean(feat)), abs=1e-15)


def test_decode_molecule_satisfies_invariants():
    model = GrfModel(toy_config(seed=11))
    z = sample_prior(model, 0.65, 0.69, rng_seed=12)
    mol = decode_molecule(model, z, InversionConfig())
    mol.validate()


@pytest.mark.parametrize("part", ["z_adjacency", "z_features"])
def test_nan_latent_raises_instead_of_decoding(part):
    model = GrfModel(toy_config(seed=15))
    z = sample_prior(model, 0.65, 0.69, rng_seed=16)
    getattr(z, part)[0, 0] = np.nan
    with pytest.raises(NumericalError, match="not finite"):
        decode_molecule(model, z, InversionConfig())


def test_generate_empty_and_deterministic():
    model = GrfModel(toy_config(seed=13))
    assert generate(model, 0, 0.65, 0.69, InversionConfig(), rng_seed=1) == []
    a = generate(model, 6, 0.65, 0.69, InversionConfig(), rng_seed=14)
    b = generate(model, 6, 0.65, 0.69, InversionConfig(), rng_seed=14)
    for g1, g2 in zip(a, b):
        assert np.array_equal(g1.adjacency, g2.adjacency)
        assert np.array_equal(g1.features, g2.features)


def test_generate_thread_count_does_not_change_results():
    model = GrfModel(toy_config(seed=15))
    a = generate(model, 8, 0.65, 0.69, InversionConfig(), rng_seed=16, threads=1)
    b = generate(model, 8, 0.65, 0.69, InversionConfig(), rng_seed=16, threads=3)
    for g1, g2 in zip(a, b):
        assert np.array_equal(g1.adjacency, g2.adjacency)
        assert np.array_equal(g1.features, g2.features)


def test_inversion_config_validation():
    with pytest.raises(ValueError):
        InversionConfig(iterations=0)
