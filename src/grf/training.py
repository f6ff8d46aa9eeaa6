"""Gradient computation, Adam, and the training loop.

The loss is the mean negative log-likelihood over a minibatch.  Gradients
come from reverse-mode differentiation of the full computation, including
the Jacobian-vector products inside the stochastic log-det series (probe
vectors are frozen per step, so the estimator is a smooth function of the
parameters).  After every optimizer step all weights are re-projected to
the spectral budget, which keeps every block contractive throughout
training.

The minibatch runs as one batch: one `GrfModel.forward` on the tape over
the batch's (B, N, M) feature and (B, N, N, R) adjacency stacks, then one
log-det series per block over all probes and samples.

All randomness is keyed, so resuming from a checkpoint replays the exact
same trajectory: shuffling by (seed, epoch), dequantization noise by
(seed, epoch, step, sample), and each block's probe stack by
(seed, epoch, step, block), one stream per block and step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor, sum_all, value_of
from .flow import GrfModel, require_integers, save_checkpoint
from .graphs import MolGraph, dequantize
from .likelihood import (TAG_DEQUANT, TAG_PROBE, TAG_SHUFFLE, derive_rng, draw_probes,
                         gaussian_logp_from_sumsq, logdet_series_from_probes)
from .linalg import NumericalError

# Adam's moment decay rates and denominator offset
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class TrainConfig:
    batch_size: int = 16
    learning_rate: float = 1e-3
    epochs: int = 20
    series_terms: int = 8
    hutchinson_samples: int = 4
    rng_seed: int = 0
    checkpoint_every: int = 0  # epochs between checkpoints; 0 disables

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


def wrap_parameters(model: GrfModel) -> dict[str, Tensor]:
    return {path: Tensor(arr, requires_grad=True)
            for path, arr in model.named_parameters()}


def grad_nll(model: GrfModel, batch: list[MolGraph], cfg: TrainConfig,
             epoch: int = 0, step: int = 0):
    """Loss and parameter gradients for one minibatch.

    Returns (loss, grads, stats) where grads maps parameter paths to
    arrays and stats carries the per-sample mean prior and log-det terms
    for the loss history.
    """
    if not batch:
        raise ValueError("empty batch")
    params = wrap_parameters(model)
    n_batch = len(batch)
    s_probes = cfg.hutchinson_samples

    deqs = [dequantize(g, model.config.noise_scale,
                       int(derive_rng(cfg.rng_seed, TAG_DEQUANT, epoch, step, i).integers(2 ** 31)))
            for i, g in enumerate(batch)]
    p = np.stack([model.conditioning_operator(g.adjacency) for g in batch])
    z_x, z_a, layers = model.forward(np.stack([deq.features_c for deq in deqs]), p,
                                     np.stack([deq.adjacency_c for deq in deqs]),
                                     params=params)

    # Each block's log-det is one series over every probe and sample at once.
    total_logdet = 0.0
    logdet_values: list[tuple[str, float]] = []
    for bi, (block, x, lin) in enumerate(layers):
        probes = draw_probes(value_of(x).shape, s_probes,
                             derive_rng(cfg.rng_seed, TAG_PROBE, epoch, step, bi))
        ld = logdet_series_from_probes(lambda u: block.jvp_many(u, lin, params=params),
                                       probes, s_probes, cfg.series_terms)
        total_logdet = total_logdet + ld
        logdet_values.append((block.prefix, float(value_of(ld))))
    prior_sumsq = sum_all(z_x * z_x) + sum_all(z_a * z_a)

    dim_total = n_batch * model.schema.latent_dim
    prior_total = gaussian_logp_from_sumsq(prior_sumsq, dim_total)
    loss = -(prior_total + total_logdet) / n_batch
    loss_value = float(value_of(loss))
    if not math.isfinite(loss_value):
        offender = next((name for name, v in logdet_values if not math.isfinite(v)), None)
        detail = (f"first non-finite log-det from {offender}" if offender
                  else "prior term is non-finite")
        raise NumericalError(f"non-finite loss: {detail}")

    loss.backward()
    grads = {path: (t.grad if t.grad is not None else np.zeros_like(t.data))
             for path, t in params.items()}
    stats = {"nll": loss_value,
             "logdet_mean": float(value_of(total_logdet)) / n_batch,
             "prior_mean": float(value_of(prior_total)) / n_batch}
    return loss_value, grads, stats


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


def adam_state_arrays(state: AdamState) -> dict[str, np.ndarray]:
    out: dict[str, np.ndarray] = {"adam_step": np.array([state.step], dtype=np.int64)}
    for path, arr in state.m.items():
        out[f"adam_m::{path}"] = arr
    for path, arr in state.v.items():
        out[f"adam_v::{path}"] = arr
    return out


def adam_state_from_arrays(arrays: dict) -> AdamState:
    state = AdamState(step=int(arrays["adam_step"][0]))
    for key, arr in arrays.items():
        if key.startswith("adam_m::"):
            state.m[key[len("adam_m::"):]] = arr.copy()
        elif key.startswith("adam_v::"):
            state.v[key[len("adam_v::"):]] = arr.copy()
    return state


def train(model: GrfModel, dataset: list[MolGraph], cfg: TrainConfig,
          out_dir=None, start_epoch: int = 0, adam_state: AdamState | None = None,
          log_fn=None):
    """Epochs of shuffled minibatches; returns the loss history.

    Checkpoints (when enabled) bundle the Adam state and the next epoch
    index, so `train(..., start_epoch=k, adam_state=...)` resumes the
    identical trajectory.
    """
    if not dataset:
        raise ValueError("empty dataset")
    state = adam_state if adam_state is not None else AdamState()
    history: list[dict] = []
    for epoch in range(start_epoch, cfg.epochs):
        perm = derive_rng(cfg.rng_seed, TAG_SHUFFLE, epoch).permutation(len(dataset))
        for step, lo in enumerate(range(0, len(dataset), cfg.batch_size)):
            batch = [dataset[j] for j in perm[lo:lo + cfg.batch_size]]
            loss, grads, stats = grad_nll(model, batch, cfg, epoch=epoch, step=step)
            adam_step(model, grads, state, cfg)
            history.append({"epoch": epoch, "step": step, **stats})
            if log_fn is not None:
                log_fn(history[-1])
        if out_dir is not None and cfg.checkpoint_every > 0 \
                and (epoch + 1) % cfg.checkpoint_every == 0:
            from pathlib import Path

            path = Path(out_dir) / f"checkpoint_epoch{epoch + 1:04d}.npz"
            save_checkpoint(path, model, extra_arrays=adam_state_arrays(state),
                            extra_meta={"next_epoch": epoch + 1})
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
