"""Log-likelihood of molecular graphs under the flow.

The objective is the standard change-of-variables decomposition: the
standard-normal prior density of the latent point plus one log-det term
per residual layer.  Because every block is a contraction, each layer's
log-det has a convergent alternating power series in traces of Jacobian
powers; the traces are estimated stochastically with zero-mean
unit-covariance probes, and Jacobian powers are applied as repeated
Jacobian-vector products so the Jacobian itself is never materialized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import sum_all, value_of
from .flow import (GrfModel, adjacency_flow_columns, adjacency_to_columns,
                   columns_to_adjacency, feature_flow_forward)
from .graphs import DequantGraph, LatentPoint, MolGraph, dequantize
from .linalg import NumericalError

LOG_2PI = math.log(2.0 * math.pi)

# Seed-stream tags so every random draw is a pure function of
# (user seed, place in the computation).
TAG_DEQUANT = 0
TAG_FEATURE_PROBE = 1
TAG_ADJACENCY_PROBE = 2
TAG_PRIOR_SAMPLE = 3
TAG_SHUFFLE = 4


def derive_rng(*keys: int) -> np.random.Generator:
    return np.random.default_rng([int(k) & 0x7FFFFFFF for k in keys])


@dataclass
class LogDetEstimatorConfig:
    """Truncation depth and probe count of the stochastic log-det series."""

    series_terms: int = 8
    hutchinson_samples: int = 4
    probe: str = "rademacher"  # or "normal"
    rng_seed: int = 0

    def __post_init__(self):
        if self.series_terms < 1 or self.hutchinson_samples < 1:
            raise ValueError("series_terms and hutchinson_samples must be >= 1")
        if self.probe not in ("rademacher", "normal"):
            raise ValueError("probe must be 'rademacher' or 'normal'")


EVAL_ESTIMATOR = LogDetEstimatorConfig(series_terms=20, hutchinson_samples=64)


@dataclass
class FlowTrace:
    """Per-sample record of everything that sums into the log-likelihood."""

    feature_logdets: list[float]
    adjacency_logdets: list[float]
    prior_logp: float
    total_logp: float

    @property
    def layer_logdets(self) -> list[float]:
        return [*self.adjacency_logdets, *self.feature_logdets]

    def to_dict(self) -> dict:
        return {"prior_logp": self.prior_logp,
                "adjacency_logdets": self.adjacency_logdets,
                "feature_logdets": self.feature_logdets,
                "total_logp": self.total_logp}


def prior_logp(z: LatentPoint) -> float:
    """Sum of independent standard-normal log densities over all coordinates."""
    vec = z.to_vector()
    return float(-0.5 * vec.size * LOG_2PI - 0.5 * (vec @ vec))


def gaussian_logp_from_sumsq(sum_sq, dim: int):
    """Same density written in terms of a (possibly tape-tensor) sum of squares."""
    return -0.5 * dim * LOG_2PI - 0.5 * sum_sq


def draw_probes(shape: tuple[int, ...], kind: str, rng: np.random.Generator) -> np.ndarray:
    if kind == "rademacher":
        return rng.integers(0, 2, size=shape).astype(np.float64) * 2.0 - 1.0
    if kind == "normal":
        return rng.standard_normal(shape)
    raise ValueError(f"unknown probe distribution {kind!r}")


def logdet_series_from_probes(jvp, probes, n_probes: int, series_terms: int):
    """Alternating trace series evaluated with a fixed probe stack.

    `probes` is a stack of `n_probes` probes in whatever layout `jvp`
    takes (the blocks use a probe axis after the first); the estimator
    only needs the elementwise dot against the evolving tangent, so the
    mean over probes is one full-sum divided by the probe count.  Works on
    plain arrays and on tape tensors alike.
    """
    u = probes
    total = 0.0
    for k in range(1, series_terms + 1):
        u = jvp(u)
        total = total + ((-1.0) ** (k + 1) / k) * (sum_all(probes * u) / n_probes)
    return total


def _require_contractive(bound: float, where: str) -> None:
    if bound >= 1.0:
        raise NumericalError(
            f"{where}: certified Lipschitz bound {bound:.6f} >= 1, "
            "log-det series may diverge")


def logdet_series(block, x, cfg: LogDetEstimatorConfig, p=None,
                  rng_seed: int | None = None, probes: np.ndarray | None = None) -> float:
    """Stochastic log-det of one residual layer, linearized at input `x`.

    Feature blocks need the conditioning operator `p` and take probes as
    (N, M, S); adjacency blocks take `x` in their column layout (d, C) and
    probes as (d, S*C), probe-major.  Deterministic given the seed; an
    explicit probe stack may be supplied instead (used by permutation
    tests).
    """
    _require_contractive(block.certified_bound(), block.prefix)
    seed = cfg.rng_seed if rng_seed is None else rng_seed
    s = cfg.hutchinson_samples
    if p is not None:
        _, slopes = block.forward(x, p)
        if probes is None:
            rng = derive_rng(seed, TAG_FEATURE_PROBE)
            probes = draw_probes((*x.shape, s), cfg.probe, rng)
        probes = np.ascontiguousarray(probes.transpose(0, 2, 1))
        jvp = lambda u: block.jvp_many(u, p, slopes)
    else:
        _, slopes = block.forward(x)
        if probes is None:
            rng = derive_rng(seed, TAG_ADJACENCY_PROBE)
            probes = draw_probes((x.shape[0], x.shape[1] * s), cfg.probe, rng)
        probes = probes.reshape(x.shape[0], s, x.shape[1])
        jvp = lambda u: block.jvp_many(u, slopes)
    return float(value_of(logdet_series_from_probes(jvp, probes, s, cfg.series_terms)))


def full_logp_from_dequant(model: GrfModel, deq: DequantGraph,
                           adjacency_discrete: np.ndarray,
                           cfg: LogDetEstimatorConfig,
                           rng_seed: int | None = None,
                           feature_probes: list[np.ndarray] | None = None,
                           adjacency_probes: list[np.ndarray] | None = None) -> FlowTrace:
    """Change-of-variables log-likelihood of one already-dequantized graph."""
    seed = cfg.rng_seed if rng_seed is None else rng_seed
    mode = model.config.adjacency_mode
    p = model.conditioning_operator(adjacency_discrete)

    z_x, x_inputs = feature_flow_forward(model, deq.features_c, p)
    cols = adjacency_to_columns(deq.adjacency_c, mode)
    z_cols, a_inputs = adjacency_flow_columns(model, cols)

    feature_logdets = []
    for i, block in enumerate(model.feature_layers):
        probes = feature_probes[i] if feature_probes is not None else None
        ld = logdet_series(block, x_inputs[i], cfg, p=p,
                           rng_seed=derive_rng(seed, TAG_FEATURE_PROBE, i).integers(2 ** 31),
                           probes=probes)
        if not math.isfinite(ld):
            raise NumericalError(f"non-finite log-det from {block.prefix}")
        feature_logdets.append(ld)
    adjacency_logdets = []
    for i, block in enumerate(model.adjacency_layers):
        probes = adjacency_probes[i] if adjacency_probes is not None else None
        ld = logdet_series(block, a_inputs[i], cfg,
                           rng_seed=derive_rng(seed, TAG_ADJACENCY_PROBE, i).integers(2 ** 31),
                           probes=probes)
        if not math.isfinite(ld):
            raise NumericalError(f"non-finite log-det from {block.prefix}")
        adjacency_logdets.append(ld)

    z = LatentPoint(z_adjacency=columns_to_adjacency(z_cols, model.schema, mode),
                    z_features=z_x)
    prior = prior_logp(z)
    total = prior + sum(feature_logdets) + sum(adjacency_logdets)
    return FlowTrace(feature_logdets=feature_logdets,
                     adjacency_logdets=adjacency_logdets,
                     prior_logp=prior, total_logp=total)


def full_logp(model: GrfModel, g: MolGraph, cfg: LogDetEstimatorConfig,
              rng_seed: int | None = None) -> FlowTrace:
    """Dequantize, push through both flows, sum prior and log-det terms."""
    seed = cfg.rng_seed if rng_seed is None else rng_seed
    deq = dequantize(g, model.config.noise_scale,
                     int(derive_rng(seed, TAG_DEQUANT).integers(2 ** 31)))
    return full_logp_from_dequant(model, deq, g.adjacency, cfg, rng_seed=seed)


def sample_prior(model: GrfModel, t_x: float, t_a: float, rng_seed,
                 truncate: bool = False) -> LatentPoint:
    """Draw a latent point with per-part temperature (standard-deviation) scaling.

    `rng_seed` may be an int or a tuple of ints (used to give each sample
    in a batch its own stream).  With `truncate`, entries are redrawn
    until they land within two standard deviations (hard-truncated
    normal).
    """
    if t_x <= 0.0 or t_a <= 0.0:
        raise ValueError("temperatures must be positive")
    keys = tuple(rng_seed) if isinstance(rng_seed, (tuple, list)) else (rng_seed,)
    rng = derive_rng(*keys, TAG_PRIOR_SAMPLE)
    schema = model.schema
    z_a = rng.standard_normal((schema.n_max, schema.n_max, schema.n_bond_types))
    z_x = rng.standard_normal((schema.n_max, schema.n_atom_types))
    if truncate:
        for arr in (z_a, z_x):
            mask = np.abs(arr) > 2.0
            while mask.any():
                arr[mask] = rng.standard_normal(int(mask.sum()))
                mask = np.abs(arr) > 2.0
    return LatentPoint(z_adjacency=t_a * z_a, z_features=t_x * z_x)
