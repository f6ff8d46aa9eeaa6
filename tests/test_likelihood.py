import math

import numpy as np
import pytest

import grf.flow
from grf.flow import (GcnResidualBlock, GrfModel, ModelConfig, MlpResidualBlock,
                      qm9_table_config, toy_config)
from grf.graphs import GraphTensors, dequantize, random_molgraph
from grf.likelihood import (TAG_PRIOR_SAMPLE, FlowTrace, LogDetEstimatorConfig, derive_rng,
                            draw_probes, exact_logdet, full_logp, full_logp_from_dequant,
                            logdet_series, plain_sum, prior_logp, sample_prior)
from grf.linalg import NumericalError
from grf.selfcheck import exact_block_jacobian, random_feature_block


def scalar_mlp_block(w: float) -> MlpResidualBlock:
    return MlpResidualBlock(prefix="t", weights=[np.array([[w]])], biases=[None],
                            budget=0.9)


# -- prior ---------------------------------------------------------------------

def test_prior_single_coordinate():
    z = GraphTensors(adjacency=np.zeros((1, 1, 0)), features=np.zeros((1, 1)))
    assert prior_logp(z) == pytest.approx(-0.5 * math.log(2 * math.pi), abs=1e-12)


def test_prior_two_coordinates():
    z = GraphTensors(adjacency=np.zeros((1, 1, 1)), features=np.zeros((1, 1)))
    assert prior_logp(z) == pytest.approx(-math.log(2 * math.pi), abs=1e-12)


def test_prior_matches_high_precision_recount():
    rng = np.random.default_rng(0)
    z = GraphTensors(adjacency=rng.standard_normal((5, 5, 4)),
                     features=rng.standard_normal((5, 5)))
    per_coord = [-0.5 * math.log(2 * math.pi) - 0.5 * v * v
                 for v in z.to_vector()]
    assert prior_logp(z) == pytest.approx(math.fsum(per_coord), abs=1e-10)


def test_prior_of_a_batch_is_the_sum_over_its_molecules():
    rng = np.random.default_rng(1)
    z = GraphTensors(adjacency=rng.standard_normal((3, 5, 5, 4)),
                     features=rng.standard_normal((3, 5, 5)))
    each = [prior_logp(GraphTensors(adjacency=a, features=x))
            for a, x in zip(z.adjacency, z.features)]
    assert prior_logp(z) == pytest.approx(math.fsum(each), abs=1e-10)


# -- log-det series ---------------------------------------------------------------

def test_logdet_zero_block_is_zero():
    block = scalar_mlp_block(0.0)
    cfg = LogDetEstimatorConfig(series_terms=15, hutchinson_samples=4, rng_seed=1)
    assert logdet_series(block, np.array([[0.3]]), cfg) == 0.0


def test_logdet_scalar_closed_form():
    # R(x) = 0.5 x has log det(I + J) = log(1.5); Rademacher probes are
    # exact in one dimension, so only the truncation error remains.
    block = scalar_mlp_block(0.5)
    cfg = LogDetEstimatorConfig(series_terms=30, hutchinson_samples=1, rng_seed=2)
    est = logdet_series(block, np.array([[1.0]]), cfg)
    assert abs(est - math.log(1.5)) < 1e-6


def test_scalar_feature_flow_closed_form():
    w = 0.7
    block = GcnResidualBlock(prefix="t", weights=[np.array([[w]])], biases=[None],
                             budget=0.9)
    p = np.array([[1.0]])
    for x in (-1.5, -0.2, 0.8, 2.5):
        f, lin = block.forward(np.array([[x]]), p)
        pre = x * w
        expected = x + (pre if pre >= 0 else math.expm1(pre))
        assert x + f[0, 0] == pytest.approx(expected, abs=1e-12)
        slope = 1.0 if pre >= 0 else math.exp(pre)
        exact_ld = math.log(1.0 + slope * w)
        est = logdet_series(block, np.array([[x]]),
                            LogDetEstimatorConfig(series_terms=40,
                                                  hutchinson_samples=1, rng_seed=0),
                            p=p)
        assert est == pytest.approx(exact_ld, abs=1e-6)
        assert exact_logdet(block, lin) == pytest.approx(exact_ld, abs=1e-14)


def test_scalar_adjacency_flow_closed_form():
    block = scalar_mlp_block(0.6)
    for x in (-1.2, 0.5, 1.5):
        out = block.apply(np.array([[x]]))
        pre = 0.6 * x
        assert out[0, 0] == pytest.approx(pre if pre >= 0 else math.expm1(pre))
        slope = 1.0 if pre >= 0 else math.exp(pre)
        exact_ld = math.log(1.0 + slope * 0.6)
        est = logdet_series(block, np.array([[x]]),
                            LogDetEstimatorConfig(series_terms=40,
                                                  hutchinson_samples=1, rng_seed=0))
        assert est == pytest.approx(exact_ld, abs=1e-6)
        _, lin = block.forward(np.array([[x]]))
        assert exact_logdet(block, lin) == pytest.approx(exact_ld, abs=1e-14)


def test_logdet_matches_exact_oracle_on_gcn_block():
    block, p = random_feature_block(3, n=3, m_real=2, sigma=0.6)
    rng = np.random.default_rng(4)
    x = rng.standard_normal((3, 3))
    exact = np.linalg.slogdet(np.eye(9) + exact_block_jacobian(block, x, p=p))[1]
    ests = [logdet_series(block, x, LogDetEstimatorConfig(
        series_terms=20, hutchinson_samples=256, rng_seed=s), p=p)
        for s in range(64)]
    assert abs(float(np.mean(ests)) - exact) < max(0.02 * abs(exact), 0.01)


def test_logdet_estimator_unbiased_at_fixed_truncation():
    block, p = random_feature_block(5, n=3, m_real=2, sigma=0.7)
    rng = np.random.default_rng(6)
    x = rng.standard_normal((3, 3))
    jac = exact_block_jacobian(block, x, p=p)
    power = np.eye(x.size)
    truncated = 0.0
    for k in range(1, 11):
        power = power @ jac
        truncated += (-1.0) ** (k + 1) * np.trace(power) / k
    samples = np.array([
        logdet_series(block, x, LogDetEstimatorConfig(
            series_terms=10, hutchinson_samples=16, rng_seed=s), p=p)
        for s in range(400)])
    stderr = samples.std(ddof=1) / math.sqrt(len(samples))
    assert abs(samples.mean() - truncated) < 4.0 * stderr + 1e-9


def test_logdet_truncation_tail_bound():
    block, p = random_feature_block(8, n=3, m_real=2, sigma=0.8)
    rng = np.random.default_rng(9)
    x = rng.standard_normal((3, 3))
    jac = exact_block_jacobian(block, x, p=p)
    dim = x.size
    exact = np.linalg.slogdet(np.eye(dim) + jac)[1]
    lip = block.certified_bound()
    power = np.eye(dim)
    partial = 0.0
    for k in range(1, 31):
        power = power @ jac
        partial += (-1.0) ** (k + 1) * np.trace(power) / k
        tail = dim * sum(lip ** j / j for j in range(k + 1, 400))
        assert abs(exact - partial) <= tail + 1e-9


def test_logdet_series_converges_geometrically():
    block, p = random_feature_block(10, n=3, m_real=2, sigma=0.75)
    rng = np.random.default_rng(11)
    x = rng.standard_normal((3, 3))
    jac = exact_block_jacobian(block, x, p=p)
    dim = x.size
    lip = block.certified_bound()
    power = np.eye(dim)
    partials = []
    total = 0.0
    for k in range(1, 31):
        power = power @ jac
        total += (-1.0) ** (k + 1) * np.trace(power) / k
        partials.append(total)
    last = partials[-1]
    envelopes = [dim * lip ** (k + 1) / ((k + 1) * (1 - lip))
                 for k in range(1, 31)]
    for k in range(0, 29):
        assert abs(partials[k] - last) <= envelopes[k] + 1e-12


def test_logdet_rejects_expansive_block():
    block = scalar_mlp_block(1.2)
    cfg = LogDetEstimatorConfig(series_terms=5, hutchinson_samples=1, rng_seed=0)
    with pytest.raises(NumericalError):
        logdet_series(block, np.array([[1.0]]), cfg)


def test_probe_draws_have_unit_moments():
    rng = np.random.default_rng(12)
    v = draw_probes((40, 50), 3, rng)
    assert v.shape == (40, 3, 50)
    assert set(np.unique(v)) == {-1.0, 1.0}
    assert abs(v.mean()) < 0.05


def test_estimator_config_validation():
    with pytest.raises(ValueError):
        LogDetEstimatorConfig(series_terms=0)
    # a float count failed later inside the series; True gave a 1-term estimate
    for name in ("series_terms", "hutchinson_samples"):
        for bad in (0, 2.5, True, np.float64(3.0), "3"):
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                LogDetEstimatorConfig(**{name: bad})
    assert LogDetEstimatorConfig(series_terms=np.int64(3)).series_terms == 3


# -- exact log-det ------------------------------------------------------------------

@pytest.mark.parametrize("rank", [0, 3], ids=["dense", "rank3-bias"])
def test_exact_logdet_matches_finite_difference_oracle_on_adjacency_block(rank):
    model = GrfModel(toy_config(adjacency_rank=rank, use_bias=rank > 0, init_scale=0.9,
                                seed=50))
    block = model.adjacency_layers[0]
    rng = np.random.default_rng(51)
    for b in block.biases:
        if b is not None:
            b[...] = 0.3 * rng.standard_normal(b.shape)
    x = rng.standard_normal((model.schema.n_max, model.slice_dim))
    oracle = np.linalg.slogdet(np.eye(x.size) + exact_block_jacobian(block, x))[1]
    assert exact_logdet(block, block.forward(x)[1]) == pytest.approx(oracle, abs=1e-8)


def test_exact_logdet_matches_finite_difference_oracle_on_gcn_block():
    block, p = random_feature_block(52, n=4, m_real=3, sigma=0.85)
    x = np.random.default_rng(53).standard_normal((4, block.weights[0].shape[0]))
    oracle = np.linalg.slogdet(np.eye(x.size) + exact_block_jacobian(block, x, p=p))[1]
    assert exact_logdet(block, block.forward(x, p)[1]) == pytest.approx(oracle, abs=1e-8)


# -- full log-likelihood -------------------------------------------------------------

def test_full_logp_zero_weight_model_reduces_to_prior():
    model = GrfModel(toy_config(seed=13))
    for _, arr in model.named_parameters():
        arr[...] = 0.0
    g = random_molgraph(model.schema, 14)
    trace = full_logp(model, g, rng_seed=16)
    deq = dequantize(g, model.config.noise_scale,
                     int(np.random.default_rng([16, 0]).integers(2 ** 31)))
    assert trace.total_logp == pytest.approx(prior_logp(deq), abs=1e-9)
    assert all(ld == 0.0 for ld in [*trace.adjacency_logdets, *trace.feature_logdets])


def test_flow_trace_total_consistency():
    model = GrfModel(toy_config(seed=17))
    g = random_molgraph(model.schema, 18)
    trace = full_logp(model, g, rng_seed=19)
    assert trace.total_logp == pytest.approx(
        trace.prior_logp + sum([*trace.adjacency_logdets, *trace.feature_logdets]),
        abs=1e-10)
    assert isinstance(trace, FlowTrace)


def test_total_logp_is_a_plain_fold_of_its_terms():
    """prior + sum of feature log-dets + sum of adjacency log-dets, each sum
    folded left to right from 0.0: builtin `sum` compensates on Python >=
    3.12, which would make the total's bits depend on the version."""
    assert plain_sum([1e16, 1.0, -1e16]) == 0.0  # a compensated sum gives 1.0
    model = GrfModel(toy_config(seed=17))
    trace = full_logp(model, random_molgraph(model.schema, 18), rng_seed=19)
    feature = adjacency = 0.0
    for ld in trace.feature_logdets:
        feature = feature + ld
    for ld in trace.adjacency_logdets:
        adjacency = adjacency + ld
    assert trace.total_logp.hex() == (trace.prior_logp + feature + adjacency).hex()


def test_full_logp_reads_no_config():
    """The log-dets are exact and the seed comes only from `rng_seed`
    (default 0), so no field of a passed estimator config matters."""
    model = GrfModel(toy_config(seed=54))
    g = random_molgraph(model.schema, 55)
    reference = full_logp(model, g, rng_seed=56)
    wide = LogDetEstimatorConfig(series_terms=20, hutchinson_samples=64, rng_seed=57)
    narrow = LogDetEstimatorConfig(series_terms=1, hutchinson_samples=1, rng_seed=58)
    assert full_logp(model, g, wide, rng_seed=56) == reference
    assert full_logp(model, g, narrow, rng_seed=56) == reference
    assert full_logp(model, g, wide) == full_logp(model, g, rng_seed=0) != reference


@pytest.mark.parametrize("stack", ["feature_layers", "adjacency_layers"])
def test_full_logp_rejects_block_at_unit_bound(stack):
    model = GrfModel(toy_config(seed=58))
    block = getattr(model, stack)[-1]
    for w in block.weights:
        w *= 1.01 / np.linalg.norm(w, 2)
    assert block.certified_bound() >= 1.0
    with pytest.raises(NumericalError, match=block.prefix):
        full_logp(model, random_molgraph(model.schema, 59), rng_seed=60)


def test_eval_certifies_without_measuring_a_weight(monkeypatch, corpus_graphs):
    """A QM9-shape model at the budget certifies by Cholesky alone; no
    block's weights go through the SVD measure."""
    model = GrfModel(qm9_table_config(init_scale=0.9, lipschitz_budget=0.9, seed=61))
    measured = []
    sigmas = grf.flow._sigmas
    monkeypatch.setattr(grf.flow, "_sigmas", lambda weights: measured.append(1) or
                        sigmas(weights))
    trace = full_logp(model, corpus_graphs[0], rng_seed=62)
    assert math.isfinite(trace.total_logp)
    assert measured == []


def test_block_with_one_layer_over_one_evaluates_through_the_exact_bound():
    """Per-layer sigmas (1.2, 0.5) fail the per-layer certificate, but their
    product 0.6 is a contraction: the exact bound admits the block."""
    rng = np.random.default_rng(63)
    weights = [s * np.linalg.qr(rng.standard_normal((3, 3)))[0] for s in (1.2, 0.5)]
    block = MlpResidualBlock(prefix="t", weights=weights, biases=[None, None], budget=0.9)
    assert not grf.flow._certify(block.weights, 1.0)
    assert block.certified_bound() == pytest.approx(0.6)
    x = rng.standard_normal((2, 3))
    oracle = np.linalg.slogdet(np.eye(x.size) + exact_block_jacobian(block, x))[1]
    assert exact_logdet(block, block.forward(x)[1]) == pytest.approx(oracle, abs=1e-8)
    cfg = LogDetEstimatorConfig(series_terms=40, hutchinson_samples=2, rng_seed=64)
    assert math.isfinite(logdet_series(block, x, cfg))
    block.weights[1] *= 2.0  # product 1.2: the in-place rescale is caught
    with pytest.raises(NumericalError, match=r"t: certified Lipschitz bound 1\.200000"):
        exact_logdet(block, block.forward(x)[1])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_weight_fails_the_certificate(bad):
    """A NaN Gram entry can pass a Cholesky factorization unreported, so
    the certificate checks finiteness itself."""
    weights = [0.5 * np.eye(3), 0.5 * np.eye(3)]
    weights[0][0, 1] = bad
    block = MlpResidualBlock(prefix="t", weights=weights, biases=[None, None], budget=0.9)
    assert not grf.flow._certify(block.weights, 1.0)
    with pytest.raises(NumericalError, match="non-finite weight"):
        block.require_contraction()


def test_full_logp_matches_composed_jacobian_oracle():
    cfg = ModelConfig(n_max=2, atom_symbols=("C",), n_bond_types=2,
                      gcn_blocks=1, gcn_layers=1, mlp_blocks=2, mlp_layers=2,
                      init_scale=0.6, seed=20)
    model = GrfModel(cfg)
    g = random_molgraph(model.schema, 21)
    deq = dequantize(g, 0.9, 22)
    dim = model.schema.latent_dim  # 2*2*2 + 2*2 = 12

    def encode_vec(vec):
        a = vec[:8].reshape(2, 2, 2)
        x = vec[8:].reshape(2, 2)
        z = model.encode(GraphTensors(adjacency=a[None], features=x[None]), g.adjacency[None])
        return z.to_vector()[0]

    v0 = deq.to_vector()
    jac = np.zeros((dim, dim))
    h = 1e-6
    for j in range(dim):
        e = np.zeros(dim)
        e[j] = h
        jac[:, j] = (encode_vec(v0 + e) - encode_vec(v0 - e)) / (2 * h)
    z = GraphTensors.from_vector(encode_vec(v0), model.schema)
    oracle_total = prior_logp(z) + np.linalg.slogdet(jac)[1]

    total = full_logp_from_dequant(model, deq, g.adjacency).total_logp
    assert total == pytest.approx(oracle_total, rel=1e-8)


# -- prior sampling -------------------------------------------------------------------

def test_sample_prior_zero_temperature_limit():
    model = GrfModel(toy_config(seed=27))
    z = sample_prior(model, 1, 1e-12, 1e-12, rng_seed=28)
    assert np.abs(z.adjacency).max() < 1e-10
    assert np.abs(z.features).max() < 1e-10


def test_sample_prior_variance_matches_temperature():
    model = GrfModel(ModelConfig(n_max=9, seed=29))
    draws = sample_prior(model, 400, 0.65, 0.69, rng_seed=30)
    x_vals, a_vals = draws.features.ravel(), draws.adjacency.ravel()
    assert x_vals.size > 1e4 and a_vals.size > 1e5
    assert abs(x_vals.var() - 0.65 ** 2) < 0.02 * 0.65 ** 2
    assert abs(a_vals.var() - 0.69 ** 2) < 0.02 * 0.69 ** 2


def test_sample_prior_accepts_low_temperatures():
    model = GrfModel(toy_config(seed=31))
    z = sample_prior(model, 1, 0.15, 0.17, rng_seed=32)
    assert np.isfinite(z.to_vector()).all()


def test_sample_prior_rejects_nonpositive_temperature():
    model = GrfModel(toy_config(seed=35))
    # NaN compares false with 0, and both infinities used to pass on to the
    # inverse, where they failed as a non-finite fixed-point iterate
    for bad in (0.0, -0.5, math.nan, math.inf, -math.inf):
        for t_x, t_a in ((bad, 0.5), (0.5, bad)):
            with pytest.raises(ValueError, match="temperatures"):
                sample_prior(model, 1, t_x, t_a, rng_seed=36)


def test_sample_prior_streams_do_not_depend_on_the_batch():
    model = GrfModel(toy_config(seed=37))
    batch = sample_prior(model, 5, 0.65, 0.69, rng_seed=38)
    for i in (0, 3):
        rng = derive_rng(38, i, TAG_PRIOR_SAMPLE)
        n, m, r = model.schema.n_max, model.schema.n_atom_types, model.schema.n_bond_types
        assert np.array_equal(batch.adjacency[i], 0.69 * rng.standard_normal((n, n, r)))
        assert np.array_equal(batch.features[i], 0.65 * rng.standard_normal((n, m)))
    assert np.array_equal(sample_prior(model, 2, 0.65, 0.69, rng_seed=38).to_vector(),
                          batch.to_vector()[:2])
