import numpy as np
import pytest

from grf.flow import GrfModel, ModelConfig, qm9_table_config, toy_config
from grf.graphs import pad_graph
from grf.chem import parse_smiles
from grf.training import (ADAM_EPS, AdamState, TrainConfig, adam_step, epoch_mean_nll,
                          grad_nll, train, write_history_csv)


def graphs_for(schema, smiles_list):
    return [pad_graph(parse_smiles(s), schema) for s in smiles_list]


def tiny_model(**overrides):
    base = dict(n_max=3, atom_symbols=("C", "O"), gcn_blocks=1, gcn_layers=1,
                mlp_blocks=2, mlp_layers=2, seed=0)
    base.update(overrides)
    return GrfModel(ModelConfig(**base))


def fd_gradient(model, batch, cfg, path, index, h):
    arr = dict(model.named_parameters())[path]
    flat = arr.ravel()
    old = flat[index]
    flat[index] = old + h
    lp, _, _ = grad_nll(model, batch, cfg)
    flat[index] = old - h
    lm, _, _ = grad_nll(model, batch, cfg)
    flat[index] = old
    return (lp - lm) / (2 * h)


# -- gradients -----------------------------------------------------------------

def test_grad_scalar_toy_flow_matches_finite_differences():
    model = GrfModel(ModelConfig(n_max=1, atom_symbols=("C",), n_bond_types=2,
                                 gcn_blocks=1, gcn_layers=1, mlp_blocks=1,
                                 mlp_layers=1, seed=1))
    batch = [pad_graph(parse_smiles("C"), model.schema)]
    cfg = TrainConfig(series_terms=6, hutchinson_samples=2, rng_seed=2)
    _, grads, _ = grad_nll(model, batch, cfg)
    for path, arr in model.named_parameters():
        for index in range(arr.size):
            fd = fd_gradient(model, batch, cfg, path, index, 1e-5)
            an = grads[path].ravel()[index]
            assert an == pytest.approx(fd, rel=1e-4, abs=1e-8), path


def test_grad_zero_weight_model_matches_finite_differences():
    model = tiny_model()
    for _, arr in model.named_parameters():
        arr[...] = 0.0
    batch = graphs_for(model.schema, ["CO", "CC"])
    cfg = TrainConfig(series_terms=5, hutchinson_samples=2, rng_seed=3)
    loss, grads, stats = grad_nll(model, batch, cfg)
    # with an identity flow the loss is exactly the prior of the dequantized input
    assert loss == pytest.approx(-stats["prior_mean"], abs=1e-9)
    for path in list(grads)[:3]:
        fd = fd_gradient(model, batch, cfg, path, 0, 1e-5)
        assert grads[path].ravel()[0] == pytest.approx(fd, rel=1e-4, abs=1e-8)


def test_grad_every_parameter_small_random_model():
    model = tiny_model(seed=4, use_bias=True)
    batch = graphs_for(model.schema, ["CO", "C", "CCO"])
    cfg = TrainConfig(series_terms=4, hutchinson_samples=2, rng_seed=5)
    _, grads, _ = grad_nll(model, batch, cfg)
    rng = np.random.default_rng(6)
    for path, arr in model.named_parameters():
        for index in rng.choice(arr.size, size=min(3, arr.size), replace=False):
            fd = fd_gradient(model, batch, cfg, path, int(index), 1e-5)
            an = grads[path].ravel()[int(index)]
            assert an == pytest.approx(fd, rel=1e-3, abs=1e-7), path


def test_grad_rank_r_factors_match_finite_differences():
    model = tiny_model(seed=22, adjacency_rank=2)
    batch = graphs_for(model.schema, ["CO", "CC"])
    cfg = TrainConfig(series_terms=4, hutchinson_samples=2, rng_seed=23)
    _, grads, _ = grad_nll(model, batch, cfg)
    for path in ("adjacency.0.w0.u", "adjacency.1.w1.vt"):
        for index in (0, 3):
            fd = fd_gradient(model, batch, cfg, path, index, 1e-5)
            assert grads[path].ravel()[index] == pytest.approx(fd, rel=1e-4, abs=1e-8), path


def test_grad_deterministic_given_seed():
    model = tiny_model(seed=7)
    batch = graphs_for(model.schema, ["CO"])
    cfg = TrainConfig(series_terms=4, hutchinson_samples=2, rng_seed=8)
    l1, g1, _ = grad_nll(model, batch, cfg)
    l2, g2, _ = grad_nll(model, batch, cfg)
    assert l1 == l2
    for path in g1:
        assert np.array_equal(g1[path], g2[path])


# Complex step: Im(L(theta + i h r)) / h is <grad L, r> to rounding, with no
# subtractive cancellation, and Re(L(theta + i h r)) is L(theta).
COMPLEX_STEP = 1e-30


def per_probe_nll(model, batch, cfg, direction, epoch=0, step=0):
    """Reference (loss, derivative along `direction`) by a complex step:
    each sample through its own 2-D flow, and one series per (sample,
    probe), summed in Python loops.

    The flow runs on a twin of `model` whose parameters are theta + i h r,
    with r = `direction[path]` on the paths it names and 0 elsewhere.
    Every block is linearized again at its saved input.  The probes are
    `grad_nll`'s: one stack per block and step in the batch layout, of
    which sample i and probe s take their slice.
    """
    from grf.graphs import dequantize
    from grf.likelihood import (TAG_DEQUANT, TAG_PROBE, derive_rng, draw_probes,
                                gaussian_logp_from_sumsq, logdet_series_from_probes)

    theta = dict(model.named_parameters())
    twin = GrfModel(model.config, stored=lambda path, shape: (
        theta[path] + 1j * COMPLEX_STEP * direction.get(path, 0.0)))
    base, n_batch, s_probes = cfg.rng_seed, len(batch), cfg.hutchinson_samples
    n_x = len(model.feature_layers)
    prior_sumsq, samples = 0.0, []
    for i, g in enumerate(batch):
        noise_seed = int(derive_rng(base, TAG_DEQUANT, epoch, step, i).integers(2 ** 31))
        deq = dequantize(g, model.config.noise_scale, noise_seed)
        p = model.conditioning_operator(g.adjacency)
        z = deq.features_c
        h = deq.adjacency_c.reshape(-1, model.slice_dim)
        inputs = []
        for block in twin.feature_layers:
            inputs.append(z)
            z = z + block.apply(z, p)
        for block in twin.adjacency_layers:
            inputs.append(h)
            h = h + block.apply(h)
        prior_sumsq = prior_sumsq + np.sum(z * z) + np.sum(h * h)
        samples.append((p, inputs))
    total_logdet = 0.0
    for bi, block in enumerate(twin.blocks()):
        shape = (n_batch, *samples[0][1][bi].shape)
        probes = draw_probes(shape, s_probes, derive_rng(base, TAG_PROBE, epoch, step, bi))
        acc = 0.0
        for i, (p, inputs) in enumerate(samples):
            _, lin = block.forward(inputs[bi], p if bi < n_x else None)
            mine = probes[i]
            jvp = lambda u: block.jvp_many(u, lin)
            for s in range(s_probes):
                probe = mine[..., s:s + 1, :]
                acc = acc + logdet_series_from_probes(jvp, probe, 1, cfg.series_terms)
        total_logdet = total_logdet + acc / s_probes
    prior = gaussian_logp_from_sumsq(prior_sumsq, n_batch * model.schema.latent_dim)
    loss = -(prior + total_logdet) / n_batch
    return float(loss.real), float(loss.imag / COMPLEX_STEP)


def random_directions(model, per_block, seed):
    """Seeded standard-normal directions: one per parameter array, or with
    `per_block` one per block over all of its arrays."""
    rng = np.random.default_rng(seed)
    groups = ([block.named_parameters() for block in model.blocks()] if per_block
              else [[item] for item in model.named_parameters()])
    return [{path: rng.standard_normal(arr.shape) for path, arr in group} for group in groups]


def mismatched_directions(grads, directions, derivatives):
    """The directions (as tuples of their paths) along which <grads, r>
    misses the reference derivative by more than 1e-12 of sum |grads * r|,
    the scale of the dot product's own rounding."""
    missed = []
    for r, want in zip(directions, derivatives):
        products = [grads[path] * v for path, v in r.items()]
        got = sum(float(np.sum(prod)) for prod in products)
        scale = sum(float(np.sum(np.abs(prod))) for prod in products)
        if not abs(got - want) <= 1e-12 * scale:
            missed.append(tuple(r))
    return missed


def grad_case(shape, toy_graphs, corpus_graphs):
    """(model, batch, cfg) of one `test_grad_stacked_probes_match_per_probe_reference` case."""
    cfg = TrainConfig(series_terms=5, hutchinson_samples=3, rng_seed=32)
    if shape == "toy":
        model, batch = GrfModel(toy_config(seed=30, use_bias=True)), toy_graphs[:5]
    elif shape == "toy-rank2":
        model = GrfModel(toy_config(seed=30, adjacency_rank=2, use_bias=True))
        batch = toy_graphs[:5]
    elif shape == "toy-gcn2":
        # two graph-convolution layers: P^T acts between them on the way back
        model = GrfModel(toy_config(seed=30, gcn_layers=2, use_bias=True))
        batch = toy_graphs[:5]
    elif shape == "qm9":
        model, batch = GrfModel(qm9_table_config(seed=31, mlp_blocks=4)), corpus_graphs[:2]
    elif shape == "qm9-defaults":
        # the benchmark's series: the TrainConfig defaults, 8 terms x 4 probes
        model, batch = GrfModel(qm9_table_config(seed=31, mlp_blocks=4)), corpus_graphs[:2]
        cfg = TrainConfig(rng_seed=32)
        assert (cfg.series_terms, cfg.hutchinson_samples) == (8, 4)
    else:
        # rank-r adjacency weights with biases at the QM9 slice width d = 36
        model = GrfModel(qm9_table_config(seed=31, mlp_blocks=4, adjacency_rank=4,
                                          use_bias=True))
        batch = corpus_graphs[:2]
        assert model.slice_dim == 36
    return model, batch, cfg


def reference_derivatives(model, batch, cfg, loss, directions):
    """`per_probe_nll`'s derivative along each direction, checking on the
    way that its loss is `loss` to 1e-12 relative."""
    derivatives = []
    for r in directions:
        ref_loss, derivative = per_probe_nll(model, batch, cfg, r, epoch=1, step=2)
        assert loss == pytest.approx(ref_loss, rel=1e-12)
        derivatives.append(derivative)
    return derivatives


@pytest.mark.parametrize("shape", ["toy", "toy-rank2", "toy-gcn2", "qm9", "qm9-defaults",
                                   "qm9-rank4"])
def test_grad_stacked_probes_match_per_probe_reference(shape, toy_graphs, corpus_graphs):
    model, batch, cfg = grad_case(shape, toy_graphs, corpus_graphs)
    loss, grads, _ = grad_nll(model, batch, cfg, epoch=1, step=2)
    # one direction per array at toy shape; at QM9 shape, with 101-301 arrays,
    # one per block keeps the reference to a few seconds
    directions = random_directions(model, per_block=shape.startswith("qm9"), seed=33)
    derivatives = reference_derivatives(model, batch, cfg, loss, directions)
    assert mismatched_directions(grads, directions, derivatives) == []


def test_per_array_reference_catches_a_gradient_off_by_1e_9(toy_graphs, corpus_graphs):
    model, batch, cfg = grad_case("toy", toy_graphs, corpus_graphs)
    loss, grads, _ = grad_nll(model, batch, cfg, epoch=1, step=2)
    directions = random_directions(model, per_block=False, seed=33)
    derivatives = reference_derivatives(model, batch, cfg, loss, directions)
    for path in grads:
        off = {**grads, path: grads[path] * (1.0 + 1e-9)}
        assert mismatched_directions(off, directions, derivatives) == [(path,)]


def test_grad_rejects_empty_batch():
    with pytest.raises(ValueError):
        grad_nll(tiny_model(), [], TrainConfig())


def test_grad_nonfinite_loss_names_offending_layer():
    from grf.linalg import NumericalError

    # every block after the offender in its stack also has a non-finite
    # input; the message names the first one in forward order
    for offender in ("adjacency.1", "feature.0"):
        model = tiny_model(seed=21, mlp_blocks=3)
        block = next(b for b in model.blocks() if b.prefix == offender)
        block.weights[0][0, 0] = np.nan
        batch = graphs_for(model.schema, ["CO"])
        with pytest.raises(NumericalError) as exc:
            grad_nll(model, batch, TrainConfig(series_terms=3, hutchinson_samples=1))
        assert str(exc.value) == f"non-finite loss: first non-finite log-det from {offender}"


def test_grad_memory_does_not_grow_with_depth(corpus_graphs):
    import tracemalloc

    # the saved block inputs and the gradients grow with depth, by a few
    # MB here; a tape over every block would grow ~4x from 2 to 8 blocks

    def traced_peak(mlp_blocks):
        model = GrfModel(qm9_table_config(seed=33, mlp_blocks=mlp_blocks))
        cfg = TrainConfig(rng_seed=34)
        tracemalloc.start()
        try:
            grad_nll(model, corpus_graphs[:2], cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    shallow, deep = traced_peak(2), traced_peak(8)
    assert deep <= 1.25 * shallow, (shallow, deep)


# -- Adam -----------------------------------------------------------------------

def test_adam_zero_gradient_keeps_parameters():
    model = tiny_model(seed=9)
    before = {p: a.copy() for p, a in model.named_parameters()}
    grads = {p: np.zeros_like(a) for p, a in model.named_parameters()}
    state = adam_step(model, grads, AdamState(), TrainConfig(learning_rate=1e-3))
    for p, a in model.named_parameters():
        assert np.allclose(a, before[p], atol=1e-12)
    # nonzero moments decay geometrically under zero gradients
    state.m = {p: np.ones_like(a) for p, a in model.named_parameters()}
    state.v = {p: np.ones_like(a) for p, a in model.named_parameters()}
    adam_step(model, grads, state, TrainConfig(learning_rate=1e-3))
    for p, _ in model.named_parameters():
        assert np.allclose(state.m[p], 0.9)
        assert np.allclose(state.v[p], 0.999)


def test_adam_first_step_closed_form():
    model = tiny_model(seed=10)
    path0, arr0 = model.named_parameters()[0]
    before = arr0.copy()
    grads = {p: np.zeros_like(a) for p, a in model.named_parameters()}
    grads[path0] = np.ones_like(arr0)
    cfg = TrainConfig(learning_rate=1e-3)
    adam_step(model, grads, AdamState(), cfg)
    # bias-corrected first step is -lr * g / (|g| + eps), here -lr
    arr_now = dict(model.named_parameters())[path0]
    expected = before - cfg.learning_rate / (1.0 + ADAM_EPS)
    # projection may rescale; undo is impossible, so check the pre-projection
    # step on a weight whose norm stays within budget
    assert np.allclose(arr_now, expected, atol=1e-6) or \
        np.allclose(arr_now / np.linalg.norm(arr_now),
                    expected / np.linalg.norm(expected), atol=1e-9)


def test_adam_step_respects_budget():
    model = tiny_model(seed=11)
    cfg = TrainConfig(learning_rate=0.5)  # huge steps push against the budget
    rng = np.random.default_rng(12)
    state = AdamState()
    for _ in range(3):
        grads = {p: rng.standard_normal(a.shape) for p, a in model.named_parameters()}
        adam_step(model, grads, state, cfg)
        for block in model.blocks():
            bound = block.per_weight_bound()
            for w in block.weights:
                sigma = np.linalg.svd(w, compute_uv=False).max()
                assert sigma <= bound * (1 + 1e-6)


# -- training loop ------------------------------------------------------------------

def test_loss_decreases_on_single_molecule():
    model = tiny_model(seed=13)
    batch = graphs_for(model.schema, ["CO"])
    cfg = TrainConfig(batch_size=1, epochs=12, learning_rate=2e-3,
                      series_terms=4, hutchinson_samples=2, rng_seed=14)
    history = train(model, batch, cfg)
    assert history[10]["nll"] < history[0]["nll"]


def test_training_reproducible(toy_graphs):
    cfg = TrainConfig(batch_size=10, epochs=2, rng_seed=15,
                      series_terms=4, hutchinson_samples=2)
    h1 = train(GrfModel(toy_config(seed=16)), toy_graphs[:20], cfg)
    h2 = train(GrfModel(toy_config(seed=16)), toy_graphs[:20], cfg)
    assert h1 == h2


def test_periodic_checkpoints_hold_the_model_at_their_epoch(tmp_path, toy_graphs):
    from dataclasses import replace

    from grf.flow import load_checkpoint

    data = toy_graphs[:16]
    cfg = TrainConfig(batch_size=8, epochs=4, rng_seed=17,
                      series_terms=4, hutchinson_samples=2, checkpoint_every=2)
    train(GrfModel(toy_config(seed=18)), data, cfg, out_dir=tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "checkpoint_epoch0002.npz", "checkpoint_epoch0004.npz"]
    # the same seed replays the same first two epochs
    short = GrfModel(toy_config(seed=18))
    train(short, data, replace(cfg, epochs=2, checkpoint_every=0))
    saved, extra_arrays, extra_meta = load_checkpoint(tmp_path / "checkpoint_epoch0002.npz")
    assert extra_arrays == {} and extra_meta == {}  # the model only, no Adam state
    for (p1, a1), (p2, a2) in zip(short.named_parameters(), saved.named_parameters()):
        assert p1 == p2 and np.array_equal(a1, a2)


def test_history_csv_and_epoch_means(tmp_path):
    history = [{"epoch": 0, "step": 0, "nll": 2.0, "logdet_mean": 0.1, "prior_mean": -2.1},
               {"epoch": 0, "step": 1, "nll": 1.0, "logdet_mean": 0.2, "prior_mean": -1.2},
               {"epoch": 1, "step": 0, "nll": 0.5, "logdet_mean": 0.3, "prior_mean": -0.8}]
    path = tmp_path / "h.csv"
    write_history_csv(history, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "epoch,step,nll,logdet_mean,prior_mean"
    assert len(lines) == 4
    means = epoch_mean_nll(history)
    assert means[0] == pytest.approx(1.5) and means[1] == pytest.approx(0.5)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
    for field in ("batch_size", "epochs", "series_terms", "hutchinson_samples"):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: 0})
    with pytest.raises(ValueError, match="checkpoint_every"):
        TrainConfig(checkpoint_every=-1)
    TrainConfig(checkpoint_every=0)  # 0 disables checkpoints
    for field in ("beta1", "beta2", "adam_eps"):  # Adam's settings are constants
        with pytest.raises(TypeError, match=field):
            TrainConfig(**{field: 0.5})
