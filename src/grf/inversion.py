"""Fixed-point inversion of residual layers and two-step graph generation.

A residual layer y = x + R(x) with contractive R is inverted by iterating
x <- y - R(x), which converges geometrically from x0 = y.  Generation is
two-step: invert the adjacency stack, decode a discrete adjacency by
argmax, then invert the feature stack conditioned on that decoded graph.

Every inversion runs on a batch of latents at once, each sample with its
own convergence state; a single latent is a batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .flow import GrfModel
from .graphs import (DequantGraph, LatentPoint, MolGraph, quantize_adjacency,
                     quantize_features)
from .likelihood import sample_prior
from .linalg import NumericalError


@dataclass
class InversionConfig:
    iterations: int = 100
    early_stop_tol: float = 1e-8

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")


def invert_residual_layer(apply_fn, y: np.ndarray, cfg: InversionConfig) -> np.ndarray:
    """Solve x + R(x) = y by fixed-point iteration, for a stack of samples.

    `y` holds one sample per index of its leading axis, and `apply_fn`
    maps such a stack to R of every sample.  Each sample has its own
    convergence state: once its successive iterates move less than the
    tolerance it stops, and its iterate is frozen while the rest of the
    batch goes on.  Successive-iterate distances must shrink for a
    contraction; five consecutive increases for one sample mean the
    Lipschitz condition is broken and the loop would never converge, so
    that surfaces as an error instead, as does a non-finite iterate (for
    example from a NaN latent).
    """
    batch = y.shape[0]

    def norms(a):
        return np.linalg.norm(a.reshape(batch, -1), axis=1)

    x = y
    active = np.ones(batch, dtype=bool)
    prev_delta = np.full(batch, np.inf)
    growth_streak = np.zeros(batch, dtype=int)
    # below this, iterate distances are float noise, not divergence
    noise_floor = 1e-13 * np.maximum(1.0, norms(y))
    for _ in range(cfg.iterations):
        x_next = y - apply_fn(x)
        delta = norms(x_next - x)
        if not np.isfinite(delta[active]).all():
            raise NumericalError("fixed-point iterate is not finite")
        growing = (delta > prev_delta * (1.0 + 1e-12)) & (delta > noise_floor)
        growth_streak = np.where(growing, growth_streak + 1, 0)
        if (growth_streak[active] >= 5).any():
            raise NumericalError(
                "fixed-point iteration diverging: residual block is not a contraction")
        if not active.all():
            x_next[~active] = x[~active]
        x = x_next
        active &= delta > cfg.early_stop_tol
        if not active.any():
            break
        prev_delta = delta
    return x


def invert_latents(model: GrfModel, latents: list[LatentPoint],
                   cfg: InversionConfig) -> list[DequantGraph]:
    """Two-step inverse of a batch of latent points: the adjacency stack
    first, then the feature stack given each argmax-decoded adjacency."""
    if not latents:
        return []
    z_a = np.stack([z.z_adjacency for z in latents])
    h = z_a.reshape(len(latents), -1, model.slice_dim)  # the blocks' (B, C, d) view
    for block in reversed(model.adjacency_layers):
        h = invert_residual_layer(block.apply, h, cfg)
    a = h.reshape(z_a.shape)

    p = np.stack([model.conditioning_operator(quantize_adjacency(a_b)) for a_b in a])
    x = np.stack([z.z_features for z in latents])
    for block in reversed(model.feature_layers):
        x = invert_residual_layer(lambda t: block.apply(t, p), x, cfg)
    return [DequantGraph(adjacency_c=a_b, features_c=f) for a_b, f in zip(a, x)]


def decode_latents(model: GrfModel, latents: list[LatentPoint],
                   cfg: InversionConfig) -> list[MolGraph]:
    """Invert and argmax-quantize a batch of latent points into molecules."""
    return [MolGraph(schema=model.schema,
                     adjacency=quantize_adjacency(deq.adjacency_c),
                     features=quantize_features(deq.features_c))
            for deq in invert_latents(model, latents, cfg)]


def invert_flow(model: GrfModel, z: LatentPoint, cfg: InversionConfig) -> DequantGraph:
    """Two-step inverse of one latent point (a batch of one)."""
    return invert_latents(model, [z], cfg)[0]


def decode_molecule(model: GrfModel, z: LatentPoint, cfg: InversionConfig) -> MolGraph:
    """Invert and argmax-quantize one latent point (a batch of one)."""
    return decode_latents(model, [z], cfg)[0]


def generate(model: GrfModel, count: int, t_x: float, t_a: float,
             cfg: InversionConfig, rng_seed: int) -> list[MolGraph]:
    """Sample latents at the given temperatures and decode them as one batch.

    Validity is *not* enforced here; the metrics judge the output.  Each
    sample gets its own seed-derived stream, so a fixed seed reproduces
    the batch bit for bit.
    """
    latents = [sample_prior(model, t_x, t_a, rng_seed=(rng_seed, i)) for i in range(count)]
    return decode_latents(model, latents, cfg)
