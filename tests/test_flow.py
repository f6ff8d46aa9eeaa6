import json

import numpy as np
import pytest

from grf import flow
from grf.flow import (FactoredWeight, GrfModel, MlpResidualBlock, ModelConfig, _dot, _elu,
                      _elu_prime, count_parameters, load_checkpoint, qm9_table_config,
                      save_checkpoint, toy_config)
from grf.graphs import GraphTensors, augmented_normalized_adjacency, dequantize, random_molgraph
from grf.linalg import NumericalError
from grf.selfcheck import random_feature_block
from grf.training import AdamState, TrainConfig, adam_step


def svd_sigma(w):
    return float(np.linalg.svd(w, compute_uv=False).max())


def qr_sigma(w):
    """sigma(u @ vt) of a rank-r weight, one weight at a time: the nonzero
    singular values of u @ vt are those of R_u @ R_v.T for u = Q_u R_u and
    vt.T = Q_v R_v."""
    return float(np.linalg.norm(np.linalg.qr(w.u)[1] @ np.linalg.qr(w.vt.T)[1].T, 2))


def zero_weights(model):
    for _, arr in model.named_parameters():
        arr[...] = 0.0
    return model


def walk(model, x, p, a):
    """(z_x, z_a, layers): `model.stacks` with a branch that records each
    block's (block, input, lin) as it passes, as eval's walk sees them."""
    layers = []

    def branch(block, h, p):
        y, lin = block.forward(h, p)
        layers.append((block, h, lin))
        return y

    z = model.stacks(GraphTensors(adjacency=a, features=x), p, branch)
    return z.features, z.adjacency, layers


def flow_latents(model, x, p, a):
    """Both latents of one feature matrix and one adjacency tensor."""
    z_x, z_a, _ = walk(model, x, p, a)
    return z_x, z_a


# -- ELU ----------------------------------------------------------------------

def test_elu_anchor_values():
    assert _elu(np.array(0.0)) == 0.0
    assert _elu(np.array(1.0)) == 1.0
    assert abs(_elu(np.array(-1.0)) - (np.exp(-1) - 1)) < 1e-15


def test_kernels_match_reference_forms():
    # exact against the branch-select forms, at zeros, subnormals, underflow and NaN
    x = np.array([-2.0, -1e-300, -5e-324, -0.0, 0.0, 5e-324, 1.5, -800.0, np.nan])
    neg = np.minimum(x, 0.0)
    np.testing.assert_array_equal(_elu(x), np.where(x >= 0.0, x, np.expm1(neg)))
    np.testing.assert_array_equal(_elu_prime(x), np.where(x >= 0.0, 1.0, np.exp(neg)))
    rng = np.random.default_rng(7)
    a, b = rng.standard_normal((3, 4)), rng.standard_normal((4, 2, 5))
    assert np.allclose(_dot(a, b), np.tensordot(a, b, 1))
    assert np.array_equal(_dot(a, b[:, 0, :]), a @ b[:, 0, :])


def test_elu_complex_step_gives_its_slope():
    # the complex-step gradient reference runs the kernels on x + i h: each
    # branch must keep the real value and carry elu'(x) h in the imaginary part
    x = np.array([-3.0, -0.5, -1e-8, 1e-8, 0.5, 3.0])
    out = _elu(x + 1e-30j)
    np.testing.assert_array_equal(out.real, _elu(x))
    assert np.allclose(out.imag / 1e-30, _elu_prime(x), rtol=1e-15, atol=0.0)


def test_elu_unit_lipschitz_sampled():
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal(2000) * 5, rng.standard_normal(2000) * 5
    assert np.all(np.abs(_elu(a) - _elu(b)) <= np.abs(a - b) + 1e-15)


# -- GCN block -------------------------------------------------------------------

def test_gcn_block_zero_weight_outputs_zero():
    block, p = random_feature_block(0, n=4, m_real=3)
    block.weights[0][...] = 0.0
    z = np.random.default_rng(1).standard_normal((4, 4))
    assert np.array_equal(block.apply(z, p), np.zeros((4, 4)))


def test_gcn_block_scalar_hand_case():
    block = flow.GcnResidualBlock(prefix="t", weights=[np.array([[0.5]])], biases=[None],
                                  budget=0.9)
    out = block.apply(np.array([[2.0]]), np.array([[1.0]]))
    assert out[0, 0] == pytest.approx(1.0)  # elu(1 * 2 * 0.5) = elu(1) = 1


def test_gcn_block_contraction_sampled_pairs():
    rng = np.random.default_rng(2)
    block, p = random_feature_block(7, n=5, m_real=3, sigma=0.9)
    n, m = p.shape[0], block.weights[0].shape[0]
    for _ in range(500):
        x = rng.standard_normal((n, m)) * rng.uniform(0.2, 4.0)
        y = rng.standard_normal((n, m)) * rng.uniform(0.2, 4.0)
        lhs = np.linalg.norm(block.apply(x, p) - block.apply(y, p))
        assert lhs < np.linalg.norm(x - y)


def test_gcn_jvp_matches_finite_difference_jacobian():
    from grf.selfcheck import exact_block_jacobian

    block, p = random_feature_block(11, n=3, m_real=2, sigma=0.7)
    rng = np.random.default_rng(3)
    x = rng.standard_normal((3, 3))
    jac = exact_block_jacobian(block, x, p=p)
    _, lin = block.forward(x, p)
    for _ in range(5):
        v = rng.standard_normal((3, 3))
        jv = block.jvp_many(v[:, None, :], lin)[:, 0, :]
        assert np.allclose(jv.ravel(), jac @ v.ravel(), atol=1e-6)


def test_gcn_jvp_many_agrees_with_single():
    block, p = random_feature_block(13, n=4, m_real=3, sigma=0.8)
    rng = np.random.default_rng(4)
    x = rng.standard_normal((4, 4))
    _, lin = block.forward(x, p)
    probes = rng.standard_normal((4, 6, 4))
    batch = block.jvp_many(probes, lin)
    for s in range(6):
        single = block.jvp_many(probes[:, s:s + 1, :], lin)
        assert np.allclose(batch[:, s, :], single[:, 0, :], atol=1e-12)


def test_jvp_many_matches_complex_step_for_both_blocks():
    # Im(apply(x + i h v)) / h is the JVP J v to rounding, with no
    # subtractive cancellation: the step h = 1e-30 leaves the real part exact
    h = 1e-30
    rng = np.random.default_rng(50)
    model = GrfModel(toy_config(seed=50, gcn_layers=2, use_bias=True))
    g = random_molgraph(model.schema, 51)
    p = model.conditioning_operator(g.adjacency)
    cases = [(model.feature_layers[0], rng.standard_normal((6, 5)),
              rng.standard_normal((6, 3, 5)), p),
             (model.adjacency_layers[0], rng.standard_normal((6, 24)),
              rng.standard_normal((6, 3, 24)), None)]
    for block, x, probes, op in cases:
        _, lin = block.forward(x, op)
        plain = block.jvp_many(probes, lin)
        # one complex input per probe, (S, rows, width), as a batch
        stepped = block.apply(x + 1j * h * np.moveaxis(probes, -2, 0), op)
        assert np.allclose(np.moveaxis(stepped.imag / h, 0, -2), plain, rtol=1e-14, atol=1e-14)


def test_mlp_jvp_many_matches_dense_jacobian_per_probe():
    from grf.selfcheck import exact_block_jacobian

    model = GrfModel(toy_config(seed=52, mlp_layers=3))
    block = model.adjacency_layers[0]
    rng = np.random.default_rng(53)
    x = rng.standard_normal((1, 24))
    jac = exact_block_jacobian(block, x)
    _, lin = block.forward(x)
    probes = rng.standard_normal((1, 4, 24))
    out = block.jvp_many(probes, lin)
    for s in range(4):
        assert np.allclose(out[0, s], jac @ probes[0, s], atol=1e-6)


# -- flows ------------------------------------------------------------------------

def test_feature_flow_zero_weights_is_identity():
    model = zero_weights(GrfModel(toy_config()))
    g = random_molgraph(model.schema, 5)
    p = augmented_normalized_adjacency(g.adjacency)
    x = np.random.default_rng(6).standard_normal((6, 5))
    z, _, layers = walk(model, x, p, np.zeros((6, 6, 4)))
    assert np.array_equal(z, x)
    assert [block for block, _, _ in layers] == model.blocks()


def test_adjacency_flow_zero_weights_is_identity():
    model = zero_weights(GrfModel(toy_config()))
    a = np.random.default_rng(7).standard_normal((6, 6, 4))
    _, za = flow_latents(model, np.zeros((6, 5)), np.eye(6), a)
    assert np.allclose(za, a)


def test_flows_shape_preserving_and_finite_for_extreme_inputs():
    model = GrfModel(toy_config(seed=30))
    g = random_molgraph(model.schema, 31)
    p = augmented_normalized_adjacency(g.adjacency)
    for scale in (1.0, 1e4, -1e4, 1e8):
        x = np.full((6, 5), scale)
        a = np.full((6, 6, 4), scale)
        z, za = flow_latents(model, x, p, a)
        assert z.shape == x.shape and np.isfinite(z).all()
        assert za.shape == a.shape and np.isfinite(za).all()


def test_every_entry_updated_by_dense_block():
    model = GrfModel(toy_config(seed=8))
    g = random_molgraph(model.schema, 8)
    p = augmented_normalized_adjacency(g.adjacency)
    x = np.random.default_rng(9).standard_normal((6, 5))
    z, _ = flow_latents(model, x, p, np.zeros((6, 6, 4)))
    assert np.all(z != x)


def test_feature_flow_equivariant_to_node_permutation():
    model = GrfModel(toy_config(seed=10))
    g = random_molgraph(model.schema, 11)
    rng = np.random.default_rng(12)
    x = rng.standard_normal((6, 5))
    perm = rng.permutation(6)

    a = np.zeros((6, 6, 4))
    p = augmented_normalized_adjacency(g.adjacency)
    z, _ = flow_latents(model, x, p, a)

    adj_perm = g.adjacency[np.ix_(perm, perm)]
    p_perm = augmented_normalized_adjacency(adj_perm)
    z_perm, _ = flow_latents(model, x[perm], p_perm, a)
    assert np.allclose(z_perm, z[perm], atol=1e-9)


@pytest.mark.parametrize("make", [toy_config, qm9_table_config], ids=["toy", "qm9"])
def test_batched_forward_matches_each_molecule(make):
    """A (B, N, M) / (B, N, N, R) walk gives every molecule what its own
    walk gives: latents, linearizations and exact log-dets."""
    from grf.likelihood import exact_logdet

    model = GrfModel(make(seed=60, init_scale=0.9, gcn_blocks=2, gcn_layers=2, mlp_blocks=3,
                          use_bias=True))
    rng = np.random.default_rng(61)
    for path, arr in model.named_parameters():
        if ".b" in path:  # biases start at zero
            arr[...] = 0.3 * rng.standard_normal(arr.shape)
    n, m = model.schema.n_max, model.schema.n_atom_types
    graphs = [random_molgraph(model.schema, 62 + i) for i in range(3)]
    deq = GraphTensors.stack([dequantize(g, 0.9, 65 + i) for i, g in enumerate(graphs)])
    ps = np.stack([model.conditioning_operator(g.adjacency) for g in graphs])
    xs, a_s = deq.features, deq.adjacency
    z_x, z_a, layers = walk(model, xs, ps, a_s)
    assert z_x.shape == (3, n, m) and z_a.shape == a_s.shape
    assert len(layers) == len(model.blocks())
    for b in range(3):
        one_x, one_a, one_layers = walk(model, xs[b], ps[b], a_s[b])
        assert np.allclose(z_x[b], one_x, rtol=0, atol=1e-12)
        assert np.allclose(z_a[b], one_a, rtol=0, atol=1e-12)
        for (block, _, (p, slopes)), (_, _, one_lin) in zip(layers, one_layers):
            one_p, one_slopes = one_lin
            assert (p is None and one_p is None) or np.array_equal(p[b], one_p)
            mine = [s[b] for s in slopes]
            for s, one in zip(mine, one_slopes):
                assert s.shape == one.shape
                assert np.allclose(s, one, rtol=0, atol=1e-12)
            ld = exact_logdet(block, (None if p is None else p[b], mine))
            assert ld == pytest.approx(exact_logdet(block, one_lin), rel=0, abs=1e-12)
    z = model.encode(deq, np.stack([g.adjacency for g in graphs]))
    assert np.allclose(z.features, z_x, rtol=0, atol=1e-12)
    assert np.allclose(z.adjacency, z_a, rtol=0, atol=1e-12)


def test_adjacency_blocks_act_on_a_view_of_node_rows():
    """The first adjacency block's input is a (B, N, N * R) view of the
    adjacency batch whose rows are the node rows, and each block maps
    every row on its own."""
    rng = np.random.default_rng(13)
    batch = rng.standard_normal((3, 6, 6, 4))
    x = rng.standard_normal((3, 6, 5))
    model = GrfModel(toy_config())
    assert model.slice_dim == 24
    p = np.broadcast_to(np.eye(6), (3, 6, 6))
    _, _, layers = walk(model, x, p, batch)
    block, h, _ = layers[len(model.feature_layers)]
    assert h.shape == (3, 6, 24) and np.shares_memory(h, batch)
    for b in range(3):
        assert np.array_equal(h[b], np.stack([batch[b, i].ravel() for i in range(6)]))
    out = block.apply(h)
    for k in range(6):
        assert np.allclose(block.apply(h[:, k:k + 1]), out[:, k:k + 1], rtol=0, atol=1e-12)


# -- budgets and counting ------------------------------------------------------------

def test_projection_enforces_budget_after_init():
    model = GrfModel(toy_config(init_scale=5.0, seed=17))  # init beyond the budget
    for block in model.blocks():
        bound = block.per_weight_bound()
        for w in block.weights:
            assert svd_sigma(w) <= bound * (1 + 1e-6)
        assert block.certified_bound() < 1.0


def test_count_single_gcn_block():
    cfg = ModelConfig(n_max=2, atom_symbols=("C", "N", "O", "F"), gcn_blocks=1,
                      gcn_layers=1, mlp_blocks=1, mlp_layers=1, seed=0)
    model = GrfModel(cfg)
    gcn_params = sum(arr.size for name, arr in model.named_parameters()
                     if name.startswith("feature."))
    assert gcn_params == 25  # full 5x5 weight


def test_count_rank1_factored_layer():
    cfg = ModelConfig(n_max=5, atom_symbols=("C",), n_bond_types=2, adjacency_rank=1,
                      gcn_blocks=1, gcn_layers=1, mlp_blocks=1, mlp_layers=1, seed=0)
    model = GrfModel(cfg)  # slice dim = n_max * n_bond_types = 10
    adj_params = sum(arr.size for name, arr in model.named_parameters()
                     if name.startswith("adjacency."))
    assert adj_params == 20  # 2 * d * r = 2 * 10 * 1


def test_count_qm9_table_shape_regression():
    model = GrfModel(qm9_table_config())
    # 1 GCN block (5x5) + 32 MLP blocks x 25 layers x (36x36) shared per node row
    assert count_parameters(model) == 25 + 32 * 25 * 36 * 36


def test_factored_weights_respect_budget():
    cfg = toy_config(adjacency_rank=2, init_scale=3.0, seed=18)
    model = GrfModel(cfg)
    for block in model.adjacency_layers:
        for w in block.weights:
            assert isinstance(w, FactoredWeight)
            assert qr_sigma(w) <= block.per_weight_bound()


def test_factored_forward_matches_dense_product():
    cfg = toy_config(adjacency_rank=2, seed=19, mlp_blocks=1, mlp_layers=1)
    model = GrfModel(cfg)
    block = model.adjacency_layers[0]
    w = block.weights[0]
    x = np.random.default_rng(20).standard_normal((3, 24))
    assert np.allclose(block.apply(x), _elu(x @ (w.u @ w.vt)))


def test_mlp_block_single_layer_scalar_form():
    # depth-1 adjacency block computes elu(w * x)
    cfg = ModelConfig(n_max=1, atom_symbols=("C",), n_bond_types=1,
                      gcn_blocks=1, gcn_layers=1, mlp_blocks=1, mlp_layers=1, seed=31)
    model = GrfModel(cfg)
    block = model.adjacency_layers[0]
    block.weights[0][...] = np.array([[0.5]])
    for x in (-2.0, -0.3, 0.4, 2.0):
        out = block.apply(np.array([[x]]))
        assert out[0, 0] == pytest.approx(float(_elu(np.array(0.5 * x))))


# -- checkpoints ----------------------------------------------------------------------

def biased_model(**overrides):
    """A toy model whose biases are nonzero, so a bias lost on load shows."""
    model = GrfModel(toy_config(use_bias=True, **overrides))
    rng = np.random.default_rng(overrides["seed"])
    for path, arr in model.named_parameters():
        if ".b" in path:
            arr[...] = 0.3 * rng.standard_normal(arr.shape)
    return model


def assert_same_model(model, loaded):
    """Same parameters, and the same latents and log-likelihood."""
    from grf.likelihood import full_logp

    for (n1, a1), (n2, a2) in zip(model.named_parameters(), loaded.named_parameters()):
        assert n1 == n2 and np.array_equal(a1, a2)
    g = random_molgraph(model.schema, 28)
    deq = GraphTensors.stack([dequantize(g, 0.9, 29)])
    z1, z2 = (m.encode(deq, g.adjacency[None]) for m in (model, loaded))
    assert np.array_equal(z1.adjacency, z2.adjacency)
    assert np.array_equal(z1.features, z2.features)
    assert full_logp(loaded, g, rng_seed=30).total_logp == full_logp(model, g, rng_seed=30).total_logp


def test_checkpoint_bit_exact_roundtrip(tmp_path):
    # dense and rank-r weights, both with nonzero biases and two-layer stacks
    # in every block
    for rank in (0, 2):
        model = biased_model(seed=21, adjacency_rank=rank, gcn_layers=2)
        path = tmp_path / f"rank{rank}.npz"
        save_checkpoint(path, model)
        loaded, extra_arrays, extra_meta = load_checkpoint(path)
        assert loaded.config == model.config
        assert_same_model(model, loaded)
        assert extra_arrays == {} and extra_meta == {}


def test_checkpoint_preserves_forward(tmp_path):
    model = GrfModel(toy_config(seed=22))
    g = random_molgraph(model.schema, 23)
    deq = GraphTensors.stack([dequantize(g, 0.9, 24)])
    z1 = model.encode(deq, g.adjacency[None])
    save_checkpoint(tmp_path / "m.npz", model)
    loaded, _, _ = load_checkpoint(tmp_path / "m.npz")
    z2 = loaded.encode(deq, g.adjacency[None])
    assert np.array_equal(z1.adjacency, z2.adjacency)
    assert np.array_equal(z1.features, z2.features)


def test_loaded_model_takes_the_same_adam_step(tmp_path):
    """Adam updates the loaded layers in place, which fails on a read-only
    slice of a stack and shows one that aliases another or is out of order."""
    for rank in (0, 2):
        model = biased_model(seed=26, adjacency_rank=rank, gcn_layers=2)
        save_checkpoint(tmp_path / "m.npz", model)
        loaded, _, _ = load_checkpoint(tmp_path / "m.npz")
        rng = np.random.default_rng(27)
        grads = {path: rng.standard_normal(arr.shape) for path, arr in model.named_parameters()}
        for m in (model, loaded):
            adam_step(m, grads, AdamState(), TrainConfig(learning_rate=0.05))
        for (n1, a1), (n2, a2) in zip(model.named_parameters(), loaded.named_parameters()):
            assert n1 == n2 and np.array_equal(a1, a2)


def test_checkpoint_version_5_stores_one_stack_per_block_and_kind(tmp_path):
    from grf.flow import CHECKPOINT_VERSION

    assert CHECKPOINT_VERSION == 5
    for tag, cfg in (("dense", toy_config(seed=25)),
                     ("rank", toy_config(seed=25, adjacency_rank=2, use_bias=True)),
                     ("qm9", qm9_table_config())):
        model = GrfModel(cfg)
        m, d, r = model.schema.n_atom_types, model.slice_dim, cfg.adjacency_rank
        adjacency = ({".w.u": (d, r), ".w.vt": (r, d)} if r else {".w": (d, d)})
        if cfg.use_bias:
            adjacency[".b"] = (1, d)
        feature = {".w": (m, m), **({".b": (1, m)} if cfg.use_bias else {})}
        expected = {f"param::feature.{b}{kind}": (cfg.gcn_layers, *shape)
                    for b in range(cfg.gcn_blocks) for kind, shape in feature.items()}
        expected.update({f"param::adjacency.{b}{kind}": (cfg.mlp_layers, *shape)
                         for b in range(cfg.mlp_blocks) for kind, shape in adjacency.items()})
        save_checkpoint(tmp_path / f"{tag}.npz", model)
        with np.load(tmp_path / f"{tag}.npz") as data:
            assert sorted(data.files) == sorted(["__meta__", *expected])
            assert {key: data[key].shape for key in expected} == expected
            meta = json.loads(bytes(data["__meta__"]).decode())
        # format 5 drops format 4's empty "extra" section
        assert sorted(meta) == ["config", "format_version"] and meta["format_version"] == 5
        assert ModelConfig(**meta["config"]) == cfg
    assert len(expected) + 1 == 34  # the QM9 shape: 33 blocks, dense and bias-free


def test_model_config_validation():
    with pytest.raises(TypeError, match="adjacency_mode"):  # only node rows are left
        ModelConfig(adjacency_mode="node")
    with pytest.raises(ValueError):
        ModelConfig(lipschitz_budget=1.0)
    with pytest.raises(ValueError):
        ModelConfig(mlp_blocks=0)
    for symbols in ("ClBr", [], [1, 2], ["C", "C", "N"]):
        with pytest.raises(ValueError, match="^atom_symbols must be"):
            ModelConfig(atom_symbols=symbols)


# -- exact spectral control ------------------------------------------------------------

def near_degenerate(n, sigma1, rng):
    """Random n x n matrix whose top singular pair is split by a relative 1e-6."""
    u, _ = np.linalg.qr(rng.standard_normal((n, n)))
    v, _ = np.linalg.qr(rng.standard_normal((n, n)))
    s = np.linspace(0.3, 0.1, n) * sigma1
    s[:2] = sigma1, sigma1 * (1.0 - 1e-6)
    return (u * s) @ v.T


def test_projection_bound_is_strict_on_near_degenerate_top_pair():
    rng = np.random.default_rng(40)
    for seed in range(20):
        model = GrfModel(toy_config(seed=seed, gcn_layers=2))
        for block in model.blocks():
            bound = block.per_weight_bound()
            for w in block.weights:
                w[...] = near_degenerate(w.shape[0], bound * rng.uniform(1.01, 3.0), rng)
            block.project()
            for w in block.weights:
                assert np.linalg.norm(w, 2) <= bound


def near_degenerate_factored(d, rank, sigma1, rng):
    """Rank-r factors whose product's top singular pair is split by a relative 1e-6."""
    q1, _ = np.linalg.qr(rng.standard_normal((d, d)))
    q2, _ = np.linalg.qr(rng.standard_normal((d, d)))
    s = np.linspace(0.3, 0.1, rank) * sigma1
    s[:2] = sigma1, sigma1 * (1.0 - 1e-6)
    return q1[:, :rank] * s, q2[:, :rank].T


def test_factored_projection_bound_is_strict_on_near_degenerate_top_pair():
    rng = np.random.default_rng(43)
    for seed in range(20):
        model = GrfModel(toy_config(seed=seed, adjacency_rank=2))  # slice dim d = 24
        for block in model.adjacency_layers:
            bound = block.per_weight_bound()
            for w in block.weights:
                w.u[...], w.vt[...] = near_degenerate_factored(
                    24, 2, bound * rng.uniform(1.01, 3.0), rng)
            block.project()
            for w in block.weights:
                assert qr_sigma(w) <= bound


def exact_sigma(w):
    return np.linalg.norm(w.u @ w.vt if isinstance(w, FactoredWeight) else w, 2)


def exact_product(block):
    return float(np.prod([exact_sigma(w) for w in block.weights]))


def test_certified_bound_is_exact_and_never_stale():
    model = GrfModel(toy_config(seed=41, gcn_layers=2))
    factored = GrfModel(toy_config(seed=41, adjacency_rank=3))
    for block in (model.feature_layers[0], model.adjacency_layers[0],
                  factored.adjacency_layers[0]):
        assert block.certified_bound() == pytest.approx(exact_product(block), rel=1e-12)
        _, w = block.named_parameters()[0]
        w *= 1.5 / exact_sigma(block.weights[0])  # in place, after the last projection
        assert block.certified_bound() == pytest.approx(exact_product(block), rel=1e-12)
        assert block.certified_bound() >= 1.0


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_weight_fails_loudly(value):
    dense, factored = (GrfModel(toy_config(seed=42, adjacency_rank=r)) for r in (0, 2))
    for block in [*dense.blocks(), *factored.adjacency_layers]:
        block.named_parameters()[0][1][0, 0] = value
        with pytest.raises(NumericalError):
            block.certified_bound()
        with pytest.raises(NumericalError):
            block.project()


# -- one measure per weight: the projection's certificate -------------------------------

AT_THE_BOUND = [1 + k * 2.0 ** -52 for k in (-4, 0, 4)] + [1 - 1e-9, 1 + 1e-9]


def dense_at(d, sigma, rng):
    w = rng.standard_normal((d, d))
    return w * (sigma / svd_sigma(w))


@pytest.mark.parametrize("d", [36, 152])
def test_projection_at_the_bound_is_strict_and_idempotent(d):
    rng = np.random.default_rng(44)
    bound = 0.9 ** (1 / len(AT_THE_BOUND))
    dense = MlpResidualBlock("t", [dense_at(d, bound * s, rng) for s in AT_THE_BOUND],
                             [None] * len(AT_THE_BOUND), budget=0.9)
    factored = MlpResidualBlock(
        "t", [FactoredWeight(*near_degenerate_factored(d, 2, bound * s, rng))
              for s in AT_THE_BOUND], [None] * len(AT_THE_BOUND), budget=0.9)
    for block, sigma in ((dense, svd_sigma), (factored, qr_sigma)):
        # a rank-r weight left at its bound can read a few ulps above it
        # under the SVD of the formed product, so it is held to its own measure
        block.project()
        for w in block.weights:
            assert sigma(w) <= bound
        once = [a.copy() for _, a in block.named_parameters()]
        block.project()
        assert all(np.array_equal(a, b) for a, b in zip(once, (a for _, a in block.named_parameters())))


def count_measures(monkeypatch):
    """The number of weights each `_sigmas` call measures, appended as it runs."""
    counts, measure = [], flow._sigmas

    def counting(weights):
        counts.append(len(weights))
        return measure(weights)

    monkeypatch.setattr(flow, "_sigmas", counting)
    return counts


def test_model_build_measures_each_weight_once(monkeypatch):
    counts = count_measures(monkeypatch)
    model = GrfModel(qm9_table_config())
    assert sum(counts) == len(model.named_parameters()) == 801
    assert len(counts) == len(model.blocks())  # one batched measure per block


def test_adam_step_measures_each_weight_once(monkeypatch):
    model = GrfModel(toy_config(init_scale=0.9, seed=45))  # every weight at its bound
    rng = np.random.default_rng(46)
    grads = {p: rng.standard_normal(a.shape) for p, a in model.named_parameters()}
    counts = count_measures(monkeypatch)
    adam_step(model, grads, AdamState(), TrainConfig(learning_rate=0.5))
    assert sum(counts) == len(model.named_parameters())
    for block in model.blocks():
        bound = block.per_weight_bound()
        for w in block.weights:  # each one went over and was scaled just under
            assert bound * (1 - 1e-9) < svd_sigma(w) <= bound


@pytest.mark.parametrize("d", [5, 36, 152])
def test_certificate_separates_over_from_under(d):
    rng = np.random.default_rng(47)
    t = 0.9 ** (1 / 25)
    under = [dense_at(d, t * (1 - 1e-3), rng) for _ in range(25)]
    assert flow._certify(under, t)
    assert not flow._certify([*under[:12], dense_at(d, t * (1 + 1e-9), rng), *under[13:]], t)


def test_projection_falls_back_to_the_exact_loop(monkeypatch):
    monkeypatch.setattr(flow, "_certify", lambda weights, bound: False)
    counts = count_measures(monkeypatch)
    rng = np.random.default_rng(48)
    model = GrfModel(toy_config(seed=49, gcn_layers=2))
    factored = GrfModel(toy_config(seed=49, adjacency_rank=2))
    for block in [*model.blocks(), *factored.adjacency_layers]:
        bound = block.per_weight_bound()
        for w in block.weights:
            if isinstance(w, FactoredWeight):
                w.u[...], w.vt[...] = near_degenerate_factored(24, 2, bound * 1.5, rng)
            else:
                w[...] = near_degenerate(w.shape[0], bound * rng.uniform(1.01, 3.0), rng)
        counts.clear()
        block.project()
        assert sum(counts) >= 2 * block.depth  # measured, scaled, measured again
        for w in block.weights:
            assert (qr_sigma(w) if isinstance(w, FactoredWeight) else svd_sigma(w)) <= bound
        block.named_parameters()[0][1][0, 0] = np.nan
        with pytest.raises(NumericalError):
            block.project()
