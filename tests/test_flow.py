import numpy as np
import pytest

from grf.autodiff import elu
from grf.flow import (FactoredWeight, GrfModel, ModelConfig, adjacency_flow_forward,
                      adjacency_to_columns, columns_to_adjacency, count_parameters,
                      feature_flow_forward, load_checkpoint, qm9_table_config,
                      save_checkpoint, toy_config)
from grf.graphs import augmented_normalized_adjacency, dequantize, random_molgraph
from grf.linalg import NumericalError
from grf.selfcheck import random_feature_block


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


# -- ELU ----------------------------------------------------------------------

def test_elu_anchor_values():
    assert elu(np.array(0.0)) == 0.0
    assert elu(np.array(1.0)) == 1.0
    assert abs(elu(np.array(-1.0)) - (np.exp(-1) - 1)) < 1e-15


def test_elu_unit_lipschitz_sampled():
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal(2000) * 5, rng.standard_normal(2000) * 5
    assert np.all(np.abs(elu(a) - elu(b)) <= np.abs(a - b) + 1e-15)


# -- GCN block -------------------------------------------------------------------

def test_gcn_block_zero_weight_outputs_zero():
    block, p = random_feature_block(0, n=4, m_real=3)
    block.weights[0][...] = 0.0
    z = np.random.default_rng(1).standard_normal((4, 4))
    assert np.array_equal(block.apply(z, p), np.zeros((4, 4)))


def test_gcn_block_scalar_hand_case():
    cfg = ModelConfig(n_max=1, atom_symbols=(), gcn_blocks=1, gcn_layers=1,
                      mlp_blocks=1, mlp_layers=1, seed=0)
    model = GrfModel(cfg)
    block = model.feature_layers[0]
    block.weights[0][...] = np.array([[0.5]])
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
    _, slopes = block.forward(x, p)
    for _ in range(5):
        v = rng.standard_normal((3, 3))
        jv = block.jvp_many(v[:, None, :], p, slopes)[:, 0, :]
        assert np.allclose(jv.ravel(), jac @ v.ravel(), atol=1e-6)


def test_gcn_jvp_many_agrees_with_single():
    block, p = random_feature_block(13, n=4, m_real=3, sigma=0.8)
    rng = np.random.default_rng(4)
    x = rng.standard_normal((4, 4))
    _, slopes = block.forward(x, p)
    probes = rng.standard_normal((4, 6, 4))
    batch = block.jvp_many(probes, p, slopes)
    for s in range(6):
        single = block.jvp_many(probes[:, s:s + 1, :], p, slopes)
        assert np.allclose(batch[:, s, :], single[:, 0, :], atol=1e-12)


def test_tape_and_numpy_jvp_many_agree_for_both_blocks():
    from grf.autodiff import Tensor

    rng = np.random.default_rng(50)
    model = GrfModel(toy_config(seed=50, gcn_layers=2, use_bias=True))
    g = random_molgraph(model.schema, 51)
    p = model.conditioning_operator(g.adjacency)
    gcn, mlp = model.feature_layers[0], model.adjacency_layers[0]
    cases = [(gcn, rng.standard_normal((6, 5)), rng.standard_normal((6, 3, 5)), (p,)),
             (mlp, rng.standard_normal((24, 6)), rng.standard_normal((24, 3, 6)), ())]
    for block, x, probes, op in cases:
        _, slopes = block.forward(x, *op)
        plain = block.jvp_many(probes, *op, slopes)
        params = {path: Tensor(arr, requires_grad=True)
                  for path, arr in block.named_parameters()}
        _, tape_slopes = block.forward(Tensor(x), *op, params=params)
        tape = block.jvp_many(Tensor(probes), *op, tape_slopes, params=params)
        assert isinstance(tape, Tensor) and tape.requires_grad
        assert np.allclose(tape.data, plain, rtol=1e-14, atol=1e-14)


def test_mlp_jvp_many_matches_dense_jacobian_per_probe():
    from grf.selfcheck import exact_block_jacobian

    model = GrfModel(toy_config(seed=52, mlp_layers=3))
    block = model.adjacency_layers[0]
    rng = np.random.default_rng(53)
    x = rng.standard_normal((24, 1))
    jac = exact_block_jacobian(block, x)
    _, slopes = block.forward(x)
    probes = rng.standard_normal((24, 4, 1))
    out = block.jvp_many(probes, slopes)
    for s in range(4):
        assert np.allclose(out[:, s, 0], jac @ probes[:, s, 0], atol=1e-6)


# -- flows ------------------------------------------------------------------------

def test_feature_flow_zero_weights_is_identity():
    model = zero_weights(GrfModel(toy_config()))
    g = random_molgraph(model.schema, 5)
    p = augmented_normalized_adjacency(g.adjacency)
    x = np.random.default_rng(6).standard_normal((6, 5))
    z, inputs = feature_flow_forward(model, x, p)
    assert np.array_equal(z, x)
    assert len(inputs) == len(model.feature_layers)


def test_adjacency_flow_zero_weights_is_identity():
    model = zero_weights(GrfModel(toy_config()))
    a = np.random.default_rng(7).standard_normal((6, 6, 4))
    z, _ = adjacency_flow_forward(model, a)
    assert np.allclose(z, a)


def test_flows_shape_preserving_and_finite_for_extreme_inputs():
    model = GrfModel(toy_config(seed=30))
    g = random_molgraph(model.schema, 31)
    p = augmented_normalized_adjacency(g.adjacency)
    for scale in (1.0, 1e4, -1e4, 1e8):
        x = np.full((6, 5), scale)
        z, _ = feature_flow_forward(model, x, p)
        assert z.shape == x.shape and np.isfinite(z).all()
        a = np.full((6, 6, 4), scale)
        za, _ = adjacency_flow_forward(model, a)
        assert za.shape == a.shape and np.isfinite(za).all()


def test_every_entry_updated_by_dense_block():
    model = GrfModel(toy_config(seed=8))
    g = random_molgraph(model.schema, 8)
    p = augmented_normalized_adjacency(g.adjacency)
    x = np.random.default_rng(9).standard_normal((6, 5))
    z, _ = feature_flow_forward(model, x, p)
    assert np.all(z != x)


def test_feature_flow_equivariant_to_node_permutation():
    model = GrfModel(toy_config(seed=10))
    g = random_molgraph(model.schema, 11)
    rng = np.random.default_rng(12)
    x = rng.standard_normal((6, 5))
    perm = rng.permutation(6)

    p = augmented_normalized_adjacency(g.adjacency)
    z, _ = feature_flow_forward(model, x, p)

    adj_perm = g.adjacency[np.ix_(perm, perm)]
    p_perm = augmented_normalized_adjacency(adj_perm)
    z_perm, _ = feature_flow_forward(model, x[perm], p_perm)
    assert np.allclose(z_perm, z[perm], atol=1e-9)


def test_adjacency_column_layouts_roundtrip():
    schema_shapes = {"flat": (144, 1), "node": (24, 6), "pair": (4, 36)}
    a = np.random.default_rng(13).standard_normal((6, 6, 4))
    for mode, (d, cols) in schema_shapes.items():
        c = adjacency_to_columns(a, mode)
        assert c.shape == (d, cols)
        model = GrfModel(toy_config(adjacency_mode=mode))
        back = columns_to_adjacency(c, model.schema, mode)
        assert np.array_equal(back, a)


# -- budgets and counting ------------------------------------------------------------

def test_projection_enforces_budget_after_init():
    model = GrfModel(toy_config(init_scale=5.0, seed=17))  # init beyond the budget
    for block in model.blocks():
        bound = block.per_weight_bound()
        for _, w in block.weight_items():
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
    cfg = ModelConfig(n_max=5, atom_symbols=("C",), n_bond_types=2,
                      adjacency_mode="node", adjacency_rank=1,
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
    x = np.random.default_rng(20).standard_normal((24, 3))
    assert np.allclose(block.apply(x), elu((w.u @ w.vt) @ x))


def test_mlp_block_single_layer_scalar_form():
    # depth-1 adjacency block computes elu(w * x)
    cfg = ModelConfig(n_max=1, atom_symbols=("C",), n_bond_types=1,
                      gcn_blocks=1, gcn_layers=1, mlp_blocks=1, mlp_layers=1,
                      adjacency_mode="flat", seed=31)
    model = GrfModel(cfg)
    block = model.adjacency_layers[0]
    block.weights[0][...] = np.array([[0.5]])
    for x in (-2.0, -0.3, 0.4, 2.0):
        out = block.apply(np.array([[x]]))
        assert out[0, 0] == pytest.approx(float(elu(np.array(0.5 * x))))


# -- checkpoints ----------------------------------------------------------------------

def test_checkpoint_bit_exact_roundtrip(tmp_path):
    model = GrfModel(toy_config(seed=21, use_bias=True, adjacency_rank=2))
    path = tmp_path / "model.npz"
    save_checkpoint(path, model, extra_arrays={"counter": np.arange(3)},
                    extra_meta={"note": "x"})
    loaded, extra_arrays, extra_meta = load_checkpoint(path)
    for (n1, a1), (n2, a2) in zip(model.named_parameters(), loaded.named_parameters()):
        assert n1 == n2
        assert np.array_equal(a1, a2)
    assert np.array_equal(extra_arrays["counter"], np.arange(3))
    assert extra_meta == {"note": "x"}


def test_checkpoint_preserves_forward(tmp_path):
    model = GrfModel(toy_config(seed=22))
    g = random_molgraph(model.schema, 23)
    deq = dequantize(g, 0.9, 24)
    z1 = model.encode(deq, g.adjacency)
    save_checkpoint(tmp_path / "m.npz", model)
    loaded, _, _ = load_checkpoint(tmp_path / "m.npz")
    z2 = loaded.encode(deq, g.adjacency)
    assert np.array_equal(z1.z_adjacency, z2.z_adjacency)
    assert np.array_equal(z1.z_features, z2.z_features)


def write_old_version(src, dst, version, model, relational=False):
    """Rewrite a format-3 checkpoint in an older format: `sn::` power-iteration
    states for every rank-r weight (format 2) or every weight (format 1),
    and in format 1 a `relational_gcn` config field."""
    import json

    with np.load(src) as data:
        arrays = {k: data[k] for k in data.files}
    meta = json.loads(bytes(arrays["__meta__"]).decode())
    meta["format_version"] = version
    if version == 1:
        meta["config"]["relational_gcn"] = relational
    arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    for block in model.blocks():
        for idx, w in enumerate(block.weights):
            if version == 1 or isinstance(w, FactoredWeight):
                d = w.vt.shape[1] if isinstance(w, FactoredWeight) else w.shape[0]
                arrays[f"sn::{block.prefix}.{idx}::u"] = np.full(d, np.nan)
                arrays[f"sn::{block.prefix}.{idx}::v"] = np.full(d, np.nan)
                arrays[f"sn::{block.prefix}.{idx}::sigma"] = np.array([np.nan])
    np.savez(dst, **arrays)


def assert_same_parameters(model, loaded):
    for (n1, a1), (n2, a2) in zip(model.named_parameters(), loaded.named_parameters()):
        assert n1 == n2 and np.array_equal(a1, a2)


def test_checkpoint_version_3_writes_no_spectral_states(tmp_path):
    from grf.flow import CHECKPOINT_VERSION

    assert CHECKPOINT_VERSION == 3
    for tag, cfg in (("dense", toy_config(seed=25)),
                     ("rank", toy_config(seed=25, adjacency_rank=2))):
        save_checkpoint(tmp_path / f"{tag}.npz", GrfModel(cfg))
        with np.load(tmp_path / f"{tag}.npz") as data:
            assert not [k for k in data.files if k.startswith("sn::")]


def test_checkpoint_version_2_with_spectral_states_still_loads(tmp_path):
    model = GrfModel(toy_config(seed=27, adjacency_rank=2))
    save_checkpoint(tmp_path / "v3.npz", model)
    write_old_version(tmp_path / "v3.npz", tmp_path / "v2.npz", 2, model)
    with np.load(tmp_path / "v2.npz") as data:
        assert any(k.startswith("sn::adjacency.") for k in data.files)
    loaded, _, _ = load_checkpoint(tmp_path / "v2.npz")
    assert_same_parameters(model, loaded)


def test_checkpoint_version_1_still_loads(tmp_path):
    from grf.flow import CheckpointError

    model = GrfModel(toy_config(seed=26, adjacency_rank=2))
    save_checkpoint(tmp_path / "v3.npz", model)
    write_old_version(tmp_path / "v3.npz", tmp_path / "v1.npz", 1, model)
    loaded, _, _ = load_checkpoint(tmp_path / "v1.npz")
    assert_same_parameters(model, loaded)
    write_old_version(tmp_path / "v3.npz", tmp_path / "rel.npz", 1, model, relational=True)
    with pytest.raises(CheckpointError, match="relational_gcn"):
        load_checkpoint(tmp_path / "rel.npz")


def test_model_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(adjacency_mode="banana")
    with pytest.raises(ValueError):
        ModelConfig(lipschitz_budget=1.0)
    with pytest.raises(ValueError):
        ModelConfig(mlp_blocks=0)


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
            for _, w in block.weight_items():
                w[...] = near_degenerate(w.shape[0], bound * rng.uniform(1.01, 3.0), rng)
            block.project()
            for _, w in block.weight_items():
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
        _, w = block.weight_items()[0]
        w *= 1.5 / exact_sigma(block.weights[0])  # in place, after the last projection
        assert block.certified_bound() == pytest.approx(exact_product(block), rel=1e-12)
        assert block.certified_bound() >= 1.0


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_weight_fails_loudly(value):
    dense, factored = (GrfModel(toy_config(seed=42, adjacency_rank=r)) for r in (0, 2))
    for block in [*dense.blocks(), *factored.adjacency_layers]:
        block.weight_items()[0][1][0, 0] = value
        with pytest.raises(NumericalError):
            block.certified_bound()
        with pytest.raises(NumericalError):
            block.project()
