"""Gradient computation, Adam, and the training loop.

The loss is the mean negative log-likelihood over a minibatch.  Its
gradients come from hand-written reverse passes through the whole loss,
including the Jacobian-vector products inside the stochastic log-det
series (probe vectors are frozen per step, so the estimator is a smooth
function of the parameters).  After every optimizer step all weights are
re-projected to the spectral budget, which keeps every block contractive
throughout training.

The minibatch runs as one batch, and the backward pass is block-local:
both stacks run once over the batch's (B, N, M) feature and
(B, N, N, R) adjacency stacks, keeping only each block's input.  The
blocks are then walked in reverse, in chunks of molecules.  For each
chunk a block runs its forward pass and its log-det series over all
probes again from its saved input, recording what its two hand-written
reverse passes need: `jvp_many_vjp` walks the series' tangent chains
backwards into weight gradients and the slopes' cotangents, and
`forward_vjp` turns those and the cotangent of the block's output into
the rest of its weight and bias gradients and the cotangent of its
input.  A chunk holds as many molecules as `CHUNK_RECORD_BYTES` holds of
their records, so training memory is one chunk's records plus the block
inputs and the gradients, whatever the depth and the batch.

All randomness is keyed, so a fixed seed replays the exact same
trajectory: shuffling by (seed, epoch), dequantization noise by
(seed, epoch, step, sample), and each block's probe stack by
(seed, epoch, step, block), one stream per block and step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .flow import GrfModel, require_integers, save_checkpoint, tile_slopes
from .graphs import GraphTensors, MolGraph, dequantize
from .likelihood import (TAG_DEQUANT, TAG_PROBE, TAG_SHUFFLE, derive_rng, draw_probes,
                         logdet_series_from_probes, plain_sum, prior_logp)
from .linalg import NumericalError

# Adam's moment decay rates and denominator offset
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# Bytes of series records that one chunk of a block walk may hold, by
# `molecule_record_bytes`: with 8 terms x 4 probes, 27 molecules a chunk
# at QM9 shape and 560 at toy shape, so both benchmark batches are one chunk.
CHUNK_RECORD_BYTES = 64 * 2 ** 20


@dataclass
class TrainConfig:
    batch_size: int = 16
    learning_rate: float = 1e-3
    epochs: int = 20
    series_terms: int = 8
    hutchinson_samples: int = 4
    rng_seed: int = 0
    checkpoint_every: int = 0  # epochs between model-only checkpoints; 0 disables

    def __post_init__(self):
        if not 0.0 < self.learning_rate < math.inf:
            raise ValueError("learning_rate must be a positive finite number")
        require_integers(self, 1, "batch_size", "epochs", "series_terms", "hutchinson_samples")
        require_integers(self, 0, "checkpoint_every")


@dataclass
class AdamState:
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def grad_nll(model: GrfModel, batch: list[MolGraph], cfg: TrainConfig,
             epoch: int = 0, step: int = 0):
    """Loss and parameter gradients for one minibatch, by a block-local walk.

    The loss is -(prior + sum of log-dets) / B.  Its cotangents seed the
    walk: z / B on each stack's latent z from the prior, and -1/B on each
    block's log-det.  Going from the last block to the first, each block
    runs again on its saved input, and its reverse passes differentiate
    <x + f(x), g_out> - log-det / B: they give the block's parameter
    gradients and the cotangent of its input, which is the previous
    block's g_out.  A block is walked in chunks of molecules
    (`_block_backward`), and only one chunk's records are alive at a
    time; a saved input is freed once its block is walked.  Each block's
    probes are drawn once for the whole batch, so the result does not
    depend on the chunking beyond the order of the sums.

    Returns (loss, grads, stats) where grads maps parameter paths to arrays
    and stats carries the per-sample mean prior and log-det terms for the
    loss history.  A non-finite loss raises `NumericalError` naming the
    first block, in forward order, whose log-det is non-finite.
    """
    if not batch:
        raise ValueError("empty batch")
    n_batch = len(batch)

    p = model.conditioning_operator(np.stack([g.adjacency for g in batch]))
    inputs = []

    def keep_input(block, h, p):
        inputs.append(h)
        return block.apply(h, p)

    z = model.stacks(_dequantized_stacks(model, batch, cfg, epoch, step), p, keep_input)

    blocks = model.blocks()
    n_x = len(model.feature_layers)
    logdets = [0.0] * len(blocks)
    grads = {}
    # the adjacency stack first, from its latent back to the data, then the feature stack
    for indices, p_stack, z_part in ((range(n_x, len(blocks)), None,
                                      z.adjacency.reshape(inputs[-1].shape)),
                                     (range(n_x), p, z.features)):
        g_out = z_part * (1.0 / n_batch)
        for bi in reversed(indices):
            h = inputs.pop()  # the walk takes the inputs in reverse, freeing each after
            probes = draw_probes(h.shape, cfg.hutchinson_samples,
                                 derive_rng(cfg.rng_seed, TAG_PROBE, epoch, step, bi))
            logdets[bi], g_out = _block_backward(blocks[bi], h, p_stack, g_out,
                                                 probes, cfg, n_batch, grads)

    # The loss in forward block order, scaled by 1/B as the cotangents are.
    total_logdet = plain_sum(logdets)
    prior_total = prior_logp(z)
    loss = -(prior_total + total_logdet) * (1.0 / n_batch)
    if not math.isfinite(loss):
        offender = next((block.prefix for block, ld in zip(blocks, logdets)
                         if not math.isfinite(ld)), None)
        detail = (f"first non-finite log-det from {offender}" if offender
                  else "prior term is non-finite")
        raise NumericalError(f"non-finite loss: {detail}")

    grads = {path: grads[path] for path, _ in model.named_parameters()}
    stats = {"nll": loss,
             "logdet_mean": total_logdet / n_batch,
             "prior_mean": prior_total / n_batch}
    return loss, grads, stats


def _dequantized_stacks(model: GrfModel, batch: list[MolGraph], cfg: TrainConfig,
                        epoch: int, step: int) -> GraphTensors:
    """The batch's dequantized tensors as one batch, each sample's noise
    keyed by (seed, epoch, step, sample)."""
    return GraphTensors.stack([
        dequantize(g, model.config.noise_scale,
                   int(derive_rng(cfg.rng_seed, TAG_DEQUANT, epoch, step, i).integers(2 ** 31)))
        for i, g in enumerate(batch)])


def _block_backward(block, h, p, g_out, probes, cfg: TrainConfig, n_batch: int,
                    grads: dict):
    """One block's share of the loss: (its log-det, the cotangent of its
    input `h`).

    The batch is walked in chunks of as many molecules as
    `CHUNK_RECORD_BYTES` holds of their records (at least one), so the
    records alive at once fit it whatever the batch; a batch that fits is
    one chunk.  Each chunk takes its slices of `h`, `p`, `g_out` and
    the block's `probes` through `_chunk_backward`.  The chunks' log-dets
    and parameter gradients are summed, the latter into `grads`, and
    their input cotangents concatenated.
    """
    # -(1/B) * c_k * (1/S), multiplied in the order the loss applies them
    seeds = [-(1.0 / n_batch) * ((-1.0) ** (k + 1) / k) * (1.0 / cfg.hutchinson_samples)
             for k in range(1, cfg.series_terms + 1)]
    transposes = block.transposes()
    chunk = max(1, CHUNK_RECORD_BYTES // molecule_record_bytes(h, block.depth, cfg))
    ld, g_ins = 0.0, []
    for lo in range(0, len(h), chunk):
        part = slice(lo, lo + chunk)
        ld_part, g_in = _chunk_backward(block, h[part], None if p is None else p[part],
                                        g_out[part], probes[part], cfg, seeds, transposes,
                                        grads)
        ld += ld_part
        g_ins.append(g_in)
    return ld, g_ins[0] if len(g_ins) == 1 else np.concatenate(g_ins)


def _chunk_backward(block, h, p, g_out, probes, cfg: TrainConfig, seeds, transposes,
                    grads: dict):
    """(log-det, input cotangent) of one chunk of the batch, adding its
    parameter gradients to `grads`; its records are freed when it returns.

    The block's forward pass and log-det series run again from `h`,
    recording each layer's intermediates.  The series' term k enters the
    loss -log-det / B with weight -c_k / (S B), c_k = (-1)^(k+1) / k, on
    <probes, J^k probes>: that is `seeds[k-1]`.  The block's reverse
    passes differentiate it plus <h + f(h), g_out>.

    The series and `jvp_many_vjp` take the slopes tiled once to the probe
    stack's (..., rows, S, width); `jvp_many_vjp` returns their cotangents
    summed over the probes, (..., rows, 1, width), which `forward_vjp`
    takes with the untiled slopes.  Both reverse passes share one set of
    contiguous W^T, `transposes`.
    """
    n_probes = cfg.hutchinson_samples
    kept, records = [], []
    _, lin = block.forward(h, p, keep=kept)
    series_lin = tile_slopes(lin, n_probes)

    def jvp(u):
        records.append([])
        return block.jvp_many(u, series_lin, records[-1])

    ld = logdet_series_from_probes(jvp, probes, n_probes, cfg.series_terms)
    g_weights, g_slopes = block.jvp_many_vjp(series_lin, records, probes, seeds, transposes)
    g_biases, g_in = block.forward_vjp(kept, lin, g_out, g_slopes, g_weights, transposes)
    for path, g in block.named(g_weights, g_biases):
        if path in grads:
            grads[path] += g
        else:
            grads[path] = g
    return float(ld), g_in


def molecule_record_bytes(h, depth: int, cfg: TrainConfig) -> int:
    """Bytes of one molecule's records in a block walk over the batch `h`
    (B, ...) through `depth` layers: one tangent stack of S probes for
    each series call's input and each of its layer products, and `depth`
    more for the tiled slopes."""
    tangent_bytes = cfg.hutchinson_samples * h[0].nbytes
    return tangent_bytes * (cfg.series_terms * (1 + depth) + depth)


def adam_step(model: GrfModel, grads: dict, state: AdamState, cfg: TrainConfig) -> AdamState:
    """Bias-corrected Adam update followed by spectral re-projection."""
    state.step += 1
    t = state.step
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    for path, arr in model.named_parameters():
        g = grads[path]
        if path not in state.m:
            state.m[path] = np.zeros_like(arr)
            state.v[path] = np.zeros_like(arr)
        m, v = state.m[path], state.v[path]
        m[...] = b1 * m + (1.0 - b1) * g
        v[...] = b2 * v + (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1 ** t)
        v_hat = v / (1.0 - b2 ** t)
        arr -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    model.project_to_budget()
    return state


def train(model: GrfModel, dataset: list[MolGraph], cfg: TrainConfig, out_dir=None):
    """Epochs of shuffled minibatches from a fresh Adam state; returns the
    loss history.

    With `out_dir` and `cfg.checkpoint_every` > 0, every that many epochs
    the model (its config and weights, not the Adam state) is saved as
    `checkpoint_epochNNNN.npz`, NNNN the number of epochs done.
    """
    if not dataset:
        raise ValueError("empty dataset")
    state = AdamState()
    history: list[dict] = []
    for epoch in range(cfg.epochs):
        perm = derive_rng(cfg.rng_seed, TAG_SHUFFLE, epoch).permutation(len(dataset))
        for step, lo in enumerate(range(0, len(dataset), cfg.batch_size)):
            batch = [dataset[j] for j in perm[lo:lo + cfg.batch_size]]
            loss, grads, stats = grad_nll(model, batch, cfg, epoch=epoch, step=step)
            adam_step(model, grads, state, cfg)
            history.append({"epoch": epoch, "step": step, **stats})
        if out_dir is not None and cfg.checkpoint_every > 0 \
                and (epoch + 1) % cfg.checkpoint_every == 0:
            save_checkpoint(Path(out_dir) / f"checkpoint_epoch{epoch + 1:04d}.npz", model)
    return history


HISTORY_COLUMNS = ("epoch", "step", "nll", "logdet_mean", "prior_mean")


def write_history_csv(history: list[dict], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(HISTORY_COLUMNS) + "\n")
        for row in history:
            fh.write(",".join(repr(row[c]) if isinstance(row[c], float) else str(row[c])
                              for c in HISTORY_COLUMNS) + "\n")


def epoch_mean_nll(history: list[dict]) -> dict[int, float]:
    sums: dict[int, list[float]] = {}
    for row in history:
        sums.setdefault(row["epoch"], []).append(row["nll"])
    return {epoch: float(np.mean(vals)) for epoch, vals in sums.items()}
