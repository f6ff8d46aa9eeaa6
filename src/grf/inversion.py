"""Fixed-point inversion of residual layers and two-step graph generation.

A residual layer y = x + R(x) with contractive R is inverted by iterating
x <- y - R(x), which converges geometrically from x0 = y.  Generation is
two-step: invert the adjacency stack, decode a discrete adjacency by
argmax, then invert the feature stack conditioned on that decoded graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .flow import GrfModel, adjacency_to_columns, columns_to_adjacency
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
    """Solve x + R(x) = y by fixed-point iteration.

    Stops early once successive iterates move less than the tolerance.
    Successive-iterate distances must shrink for a contraction; five
    consecutive increases mean the Lipschitz condition is broken and the
    loop would never converge, so that surfaces as an error instead, as
    does a non-finite iterate (for example from a NaN latent).
    """
    x = y
    prev_delta = np.inf
    growth_streak = 0
    # below this, iterate distances are float noise, not divergence
    noise_floor = 1e-13 * max(1.0, float(np.linalg.norm(y)))
    for _ in range(cfg.iterations):
        x_next = y - apply_fn(x)
        delta = float(np.linalg.norm(x_next - x))
        if not math.isfinite(delta):
            raise NumericalError("fixed-point iterate is not finite")
        if delta > prev_delta * (1.0 + 1e-12) and delta > noise_floor:
            growth_streak += 1
            if growth_streak >= 5:
                raise NumericalError(
                    "fixed-point iteration diverging: residual block is not a contraction")
        else:
            growth_streak = 0
        x = x_next
        if delta <= cfg.early_stop_tol:
            break
        prev_delta = delta
    return x


def invert_flow(model: GrfModel, z: LatentPoint, cfg: InversionConfig) -> DequantGraph:
    """Two-step inverse: adjacency stack first, then features given the
    argmax-decoded adjacency."""
    mode = model.config.adjacency_mode
    cols = adjacency_to_columns(z.z_adjacency, mode)
    for block in reversed(model.adjacency_layers):
        cols = invert_residual_layer(lambda x: block.apply(x), cols, cfg)
    a_cont = columns_to_adjacency(cols, model.schema, mode)

    a_discrete = quantize_adjacency(a_cont, no_bond_channel=model.schema.no_bond)
    p = model.conditioning_operator(a_discrete)
    x = z.z_features
    for block in reversed(model.feature_layers):
        x = invert_residual_layer(lambda t: block.apply(t, p), x, cfg)
    return DequantGraph(adjacency_c=a_cont, features_c=x,
                        noise_scale=model.config.noise_scale)


def decode_molecule(model: GrfModel, z: LatentPoint, cfg: InversionConfig) -> MolGraph:
    """Invert and argmax-quantize a latent point into a discrete molecule."""
    deq = invert_flow(model, z, cfg)
    adjacency = quantize_adjacency(deq.adjacency_c, no_bond_channel=model.schema.no_bond)
    features = quantize_features(deq.features_c)
    return MolGraph(schema=model.schema, adjacency=adjacency, features=features)


def generate(model: GrfModel, count: int, t_x: float, t_a: float,
             cfg: InversionConfig, rng_seed: int, threads: int = 1,
             truncate: bool = False) -> list[MolGraph]:
    """Sample latents at the given temperatures and decode them.

    Validity is *not* enforced here; the metrics judge the output.  Each
    sample gets its own seed-derived stream, so results do not depend on
    the thread count, and a fixed seed reproduces the batch bit for bit.
    """
    def one(i: int) -> MolGraph:
        z = sample_prior(model, t_x, t_a, rng_seed=(rng_seed, i), truncate=truncate)
        return decode_molecule(model, z, cfg)

    if count <= 0:
        return []
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(one, range(count)))
    return [one(i) for i in range(count)]
