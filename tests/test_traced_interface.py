"""The benchmark tracer patches grf functions by name and calls them with a
fixed signature.  Installing it and running the traced entry points here
makes a rename or re-signing of a traced function fail this suite, not only
the benchmark's own self-test."""

import importlib.util
import math
from pathlib import Path

import grf
import grf.analysis
import grf.training
from grf.analysis import reconstruction_curve
from grf.flow import GrfModel, toy_config
from grf.inversion import InversionConfig, generate
from grf.likelihood import LogDetEstimatorConfig, full_logp

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_generate_reconstruct_and_eval(toy_graphs):
    tracing = load_tracing()
    model = GrfModel(toy_config(init_scale=0.9, seed=40))
    tracer = tracing.Tracer()
    with tracing.install(tracer, grf):
        with tracer.region("bench.sample", tracing.LOOP):
            mols = generate(model, 4, 0.65, 0.69, InversionConfig(), rng_seed=41)
        with tracer.region("bench.reconstruct", tracing.LOOP):
            (row,) = reconstruction_curve(model, toy_graphs[:3], [100], rng_seed=42)
        with tracer.region("bench.eval", tracing.LOOP):
            # the benchmark's call form: an estimator config, of which only
            # the seed is read, plus an explicit seed
            trace = full_logp(model, toy_graphs[0],
                              LogDetEstimatorConfig(series_terms=4, hutchinson_samples=2),
                              rng_seed=43)
    assert len(mols) == 4 and row["exact_rate"] == 1.0
    assert math.isfinite(trace.total_logp)
    spans = tracer.totals(tracing.LOOP)
    layers = len(model.feature_layers) + len(model.adjacency_layers)
    # one batched inversion per layer for each of generate and reconstruct
    assert spans["inversion.invert_layer"]["calls"] == 2 * layers
    assert spans["analysis.encode"]["calls"] == 1
    # eval takes each exact log-det from one basis-stack jvp_many per block;
    # nothing else in these three runs linearizes a block, and no series runs
    assert spans["flow.jvp_many"]["calls"] == layers
    assert "likelihood.logdet_series" not in spans
    metrics = tracing.layer_metrics(tracer, 1, 1)
    assert metrics["inversion.sample_iters_mean"] > 0
    assert metrics["inversion.reconstruct_iters_mean"] > 0


def test_grad_nll_enters_each_block_series_once_whatever_the_batch(toy_graphs):
    tracing = load_tracing()
    model = GrfModel(toy_config(seed=44))
    cfg = grf.training.TrainConfig(series_terms=3, hutchinson_samples=2, rng_seed=45)
    n_blocks = len(model.blocks())
    for batch_size in (2, 5):
        tracer = tracing.Tracer()
        with tracing.install(tracer, grf):
            with tracer.region("bench.step", tracing.LOOP):
                # through the module, where the tracer patched it
                loss, _, stats = grf.training.grad_nll(model, toy_graphs[:batch_size], cfg)
        assert math.isfinite(loss) and math.isfinite(stats["logdet_mean"])
        spans = tracer.totals(tracing.LOOP)
        assert spans["training.grad_nll"]["calls"] == 1
        # one series per block over the whole batch, one jvp_many per term
        assert spans["likelihood.series_from_probes"]["calls"] == n_blocks
        assert spans["flow.jvp_many"]["calls"] == cfg.series_terms * n_blocks
        assert spans["graphs.dequantize"]["calls"] == batch_size
        # the block reverse passes run on plain arrays: nothing enters the tape
        assert "autodiff.backward" not in spans
        assert "autodiff.tape_nodes" not in tracer.counters


def test_tracer_patches_every_site_and_restores_it():
    tracing = load_tracing()
    sites = [(owner, attr) for owner, attr, _ in tracing._patch_sites(grf)]
    before = [owner.__dict__[attr] for owner, attr in sites]
    with tracing.install(tracing.Tracer(), grf):
        assert all(owner.__dict__[attr] is not original
                   for (owner, attr), original in zip(sites, before))
    assert all(owner.__dict__[attr] is original
               for (owner, attr), original in zip(sites, before))
