import numpy as np
import pytest

from grf.analysis import reconstruction_curve
from grf.flow import GrfModel, MlpResidualBlock, _elu, qm9_table_config, toy_config
from grf.graphs import dequantize, quantize_adjacency, quantize_features, random_molgraph
from grf.inversion import (InversionConfig, decode_latents, generate, invert_latents,
                           invert_residual_layer)
from grf.likelihood import TAG_DEQUANT, derive_rng, sample_prior
from grf.linalg import NumericalError
from grf.selfcheck import random_feature_block


def scalar_block(w: float) -> MlpResidualBlock:
    return MlpResidualBlock(prefix="t", weights=[np.array([[w]])], biases=[None],
                            budget=0.9)


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
        (x,) = invert_residual_layer(lambda t: block.apply(t, p), y[None],
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
    (deq,) = invert_latents(model, [z], InversionConfig(iterations=5))
    assert np.allclose(deq.adjacency_c, z.z_adjacency)
    assert np.allclose(deq.features_c, z.z_features)


def test_encode_decode_roundtrip():
    model = GrfModel(toy_config(seed=8))
    for i in range(5):
        g = random_molgraph(model.schema, 100 + i)
        deq = dequantize(g, 0.9, 200 + i)
        (z,) = model.encode([deq], [g.adjacency])
        (rec,) = invert_latents(model, [z], InversionConfig(iterations=100))
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
    adj, feat = [], []
    for i, g in enumerate(graphs):
        deq = dequantize(g, 0.9, int(derive_rng(10, TAG_DEQUANT, i).integers(2 ** 31)))
        (z,) = model.encode([deq], [g.adjacency])
        adj.append(np.linalg.norm(z.z_adjacency - deq.adjacency_c) / deq.adjacency_c.size)
        feat.append(np.linalg.norm(z.z_features - deq.features_c) / deq.features_c.size)
    assert rows[0]["adjacency_l2"] == pytest.approx(float(np.mean(adj)), abs=1e-15)
    assert rows[0]["feature_l2"] == pytest.approx(float(np.mean(feat)), abs=1e-15)


def test_decode_molecule_satisfies_invariants():
    model = GrfModel(toy_config(seed=11))
    z = sample_prior(model, 0.65, 0.69, rng_seed=12)
    (mol,) = decode_latents(model, [z], InversionConfig())
    mol.validate()


@pytest.mark.parametrize("part", ["z_adjacency", "z_features"])
def test_nan_latent_raises_instead_of_decoding(part):
    model = GrfModel(toy_config(seed=15))
    z = sample_prior(model, 0.65, 0.69, rng_seed=16)
    getattr(z, part)[0, 0] = np.nan
    with pytest.raises(NumericalError, match="not finite"):
        decode_latents(model, [z], InversionConfig())


def test_generate_empty_and_deterministic():
    model = GrfModel(toy_config(seed=13))
    assert generate(model, 0, 0.65, 0.69, InversionConfig(), rng_seed=1) == []
    a = generate(model, 6, 0.65, 0.69, InversionConfig(), rng_seed=14)
    b = generate(model, 6, 0.65, 0.69, InversionConfig(), rng_seed=14)
    for g1, g2 in zip(a, b):
        assert np.array_equal(g1.adjacency, g2.adjacency)
        assert np.array_equal(g1.features, g2.features)


def test_inversion_config_validation():
    with pytest.raises(ValueError):
        InversionConfig(iterations=0)


# -- batched inversion ---------------------------------------------------------

CONFIGS = {"toy": toy_config, "qm9": qm9_table_config}


@pytest.fixture(scope="module", params=list(CONFIGS))
def budget_model(request):
    """Weights at the spectral budget, where inversion takes the most iterations."""
    return GrfModel(CONFIGS[request.param](init_scale=0.9, lipschitz_budget=0.9, seed=21))


def prior_latents(model, count, seed):
    return [sample_prior(model, 0.65, 0.69, rng_seed=(seed, i)) for i in range(count)]


def assert_same_molecules(mols_a, mols_b):
    assert len(mols_a) == len(mols_b)
    for a, b in zip(mols_a, mols_b):
        assert np.array_equal(a.adjacency, b.adjacency)
        assert np.array_equal(a.features, b.features)


def assert_close_inverses(deqs_a, deqs_b, tol=1e-12):
    assert len(deqs_a) == len(deqs_b)
    for a, b in zip(deqs_a, deqs_b):
        assert np.abs(a.adjacency_c - b.adjacency_c).max() <= tol
        assert np.abs(a.features_c - b.features_c).max() <= tol


def test_batched_decode_matches_each_latent_alone(budget_model):
    cfg = InversionConfig()
    latents = prior_latents(budget_model, 12, seed=22)
    alone = [decode_latents(budget_model, [z], cfg)[0] for z in latents]
    assert_same_molecules(generate(budget_model, 12, 0.65, 0.69, cfg, rng_seed=22), alone)
    assert_same_molecules(decode_latents(budget_model, latents, cfg), alone)
    assert_close_inverses(invert_latents(budget_model, latents, cfg),
                          [invert_latents(budget_model, [z], cfg)[0] for z in latents])


def test_batched_reconstruction_matches_each_molecule_alone(budget_model, toy_graphs,
                                                           corpus_graphs):
    graphs = (toy_graphs if budget_model.schema.n_max == 6 else corpus_graphs)[:10]
    cfg = InversionConfig(iterations=100, early_stop_tol=0.0)
    (row,) = reconstruction_curve(budget_model, graphs, [100], rng_seed=23)
    feat, adj, exact = [], [], 0
    for i, g in enumerate(graphs):
        deq = dequantize(g, budget_model.config.noise_scale,
                         int(derive_rng(23, TAG_DEQUANT, i).integers(2 ** 31)))
        (z,) = budget_model.encode([deq], [g.adjacency])
        (rec,) = invert_latents(budget_model, [z], cfg)
        adj.append(np.linalg.norm(rec.adjacency_c - deq.adjacency_c) / deq.adjacency_c.size)
        feat.append(np.linalg.norm(rec.features_c - deq.features_c) / deq.features_c.size)
        exact += (np.array_equal(quantize_adjacency(rec.adjacency_c), g.adjacency)
                  and np.array_equal(quantize_features(rec.features_c), g.features))
    assert row["exact_rate"] == exact / len(graphs) == 1.0
    assert row["adjacency_l2"] == pytest.approx(float(np.mean(adj)), rel=1e-12, abs=1e-15)
    assert row["feature_l2"] == pytest.approx(float(np.mean(feat)), rel=1e-12, abs=1e-15)


def test_batch_composition_does_not_change_results(budget_model):
    cfg = InversionConfig()
    latents = prior_latents(budget_model, 32, seed=24)
    whole = invert_latents(budget_model, latents, cfg)
    mols = decode_latents(budget_model, latents, cfg)
    for size in (1, 3):
        chunks = [latents[k:k + size] for k in range(0, len(latents), size)]
        assert_close_inverses([d for c in chunks for d in invert_latents(budget_model, c, cfg)],
                              whole)
        assert_same_molecules([m for c in chunks for m in decode_latents(budget_model, c, cfg)],
                              mols)
    assert_close_inverses(invert_latents(budget_model, latents[::-1], cfg)[::-1], whole)
    assert_same_molecules(decode_latents(budget_model, latents[::-1], cfg)[::-1], mols)


def updates_per_sample(apply_fn, y, cfg):
    """Apply calls of one batched inversion, and how often each sample's
    iterate changed over them (its own iteration count)."""
    seen = []

    def recording(x):
        seen.append(x.copy())
        return apply_fn(x)

    out = invert_residual_layer(recording, y, cfg)
    seen.append(out)
    changed = [np.any(b != a, axis=tuple(range(1, y.ndim))) for a, b in zip(seen, seen[1:])]
    return len(seen) - 1, np.sum(changed, axis=0)


# latent scales spread so that the samples converge after different counts
SCALES = (1e-6, 0.05, 0.3, 1.0, 4.0, 8.0)


def assert_stops_alone_and_in_batch(apply_for, y, cfg):
    """`apply_for(rows)` is the batched residual map of the samples y[rows]."""
    alone = [updates_per_sample(apply_for([i]), y[[i]], cfg)[0] for i in range(len(y))]
    calls, per_sample = updates_per_sample(apply_for(list(range(len(y)))), y, cfg)
    assert len(set(alone)) > 1
    assert calls == max(alone)
    assert per_sample.tolist() == alone


def test_each_sample_stops_at_its_own_iteration_in_adjacency_stack(budget_model):
    model, block = budget_model, budget_model.adjacency_layers[-1]
    latents = prior_latents(model, len(SCALES), seed=25)
    y = np.stack([s * z.z_adjacency.reshape(-1, model.slice_dim)
                  for s, z in zip(SCALES, latents)])
    assert_stops_alone_and_in_batch(lambda rows: block.apply, y, InversionConfig())


def test_each_sample_stops_at_its_own_iteration_in_feature_stack(budget_model):
    (block,) = budget_model.feature_layers
    latents = prior_latents(budget_model, len(SCALES), seed=26)
    p = np.stack([budget_model.conditioning_operator(
        random_molgraph(budget_model.schema, 27 + i).adjacency) for i in range(len(SCALES))])
    y = np.stack([s * z.z_features for s, z in zip(SCALES, latents)])
    assert_stops_alone_and_in_batch(
        lambda rows: lambda x: block.apply(x, p[rows]), y, InversionConfig())


@pytest.mark.parametrize("part", ["z_adjacency", "z_features"])
def test_nan_latent_in_batch_raises(budget_model, part):
    latents = prior_latents(budget_model, 4, seed=28)
    getattr(latents[2], part)[0, 0] = np.nan
    with pytest.raises(NumericalError, match="not finite"):
        decode_latents(budget_model, latents, InversionConfig())


def test_expansive_block_in_batch_raises():
    for name, make in CONFIGS.items():
        model = GrfModel(make(init_scale=0.9, lipschitz_budget=0.9, seed=21))
        (block,) = model.feature_layers
        for w in block.weights:
            w *= (3.0 / 0.9) ** (1.0 / block.depth)
        with pytest.raises(NumericalError, match="diverging"):
            decode_latents(model, prior_latents(model, 4, seed=29), InversionConfig())


def test_one_diverging_sample_fails_the_batch():
    slopes = np.array([0.5, 0.5, 1.6, 0.5])[:, None, None]
    y = np.ones((4, 1, 1))
    cfg = InversionConfig(iterations=200, early_stop_tol=0.0)
    with pytest.raises(NumericalError, match="diverging"):
        invert_residual_layer(lambda x: _elu(slopes * x), y, cfg)
    x = invert_residual_layer(lambda x: _elu(0.5 * x), y, cfg)
    assert np.abs(x + _elu(0.5 * x) - y).max() < 1e-12


def test_empty_batch_decodes_to_nothing(budget_model):
    assert generate(budget_model, 0, 0.65, 0.69, InversionConfig(), rng_seed=1) == []
    assert decode_latents(budget_model, [], InversionConfig()) == []
    assert invert_latents(budget_model, [], InversionConfig()) == []
