"""Log-likelihood of molecular graphs under the flow.

The objective is the standard change-of-variables decomposition: the
standard-normal prior density of the latent point plus one log-det term
per residual layer.

Both eval and training walk the blocks once with `GrfModel.stacks`,
taking each block's log-det from its input and linearization as the walk
passes it, and the prior from the latents with `prior_logp`.  Neither needs
to know how a block lays its data out.

Eval (`full_logp`) computes each layer's log-det exactly.  Every block
Jacobian is small or block-diagonal (one d x d block per adjacency
slice, one NM x NM matrix per graph-convolution layer), so the block's
`jacobians` yields it densely and one batched `slogdet` finishes it,
with no probes.

Training keeps the stochastic estimate (`logdet_series_from_probes`):
because every block is a contraction, each layer's log-det has a
convergent alternating power series in traces of Jacobian powers; the
traces are estimated with Rademacher probes, and Jacobian powers are
applied as repeated Jacobian-vector products so the Jacobian is never
materialized.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .flow import GrfModel, require_integers
from .graphs import GraphTensors, MolGraph, dequantize
from .linalg import NumericalError

LOG_2PI = math.log(2.0 * math.pi)

# Seed-stream tags so every random draw is a pure function of
# (user seed, place in the computation).
TAG_DEQUANT = 0
TAG_PROBE = 1
TAG_PRIOR_SAMPLE = 3
TAG_SHUFFLE = 4


def derive_rng(*keys: int) -> np.random.Generator:
    return np.random.default_rng([int(k) & 0x7FFFFFFF for k in keys])


@dataclass
class LogDetEstimatorConfig:
    """Truncation depth and probe count of the stochastic log-det series."""

    series_terms: int = 8
    hutchinson_samples: int = 4
    rng_seed: int = 0

    def __post_init__(self):
        require_integers(self, 1, "series_terms", "hutchinson_samples")


@dataclass
class FlowTrace:
    """Per-sample record of everything that sums into the log-likelihood."""

    feature_logdets: list[float]
    adjacency_logdets: list[float]
    prior_logp: float
    total_logp: float


def plain_sum(values) -> float:
    """A left-to-right sum from 0.0.  Builtin `sum` compensates its
    rounding on Python >= 3.12, so its bits would depend on the version."""
    return reduce(operator.add, values, 0.0)


def prior_logp(z: GraphTensors) -> float:
    """Sum of independent standard-normal log densities over every
    coordinate of one latent point or of a whole batch."""
    x, a = z.features, z.adjacency
    sum_sq = float(np.sum(x * x)) + float(np.sum(a * a))
    return -0.5 * (x.size + a.size) * LOG_2PI - 0.5 * sum_sq


def draw_probes(shape: tuple[int, ...], n_probes: int, rng: np.random.Generator) -> np.ndarray:
    """Rademacher probes for a layer input of `shape`, stacked as the
    blocks' tangent stacks are: (*shape[:-1], n_probes, shape[-1])."""
    size = (*shape[:-1], n_probes, shape[-1])
    return rng.integers(0, 2, size=size).astype(np.float64) * 2.0 - 1.0


def logdet_series_from_probes(jvp, probes, n_probes: int, series_terms: int):
    """Alternating trace series evaluated with a fixed probe stack.

    `probes` is a stack of `n_probes` probes in the layout `jvp` takes;
    the estimator only needs the elementwise dot against the evolving
    tangent, so the mean over probes is one full-sum divided by the probe
    count.  For a batch of inputs that sum also runs over the batch, which
    gives the sum of the per-sample estimates.  The full-sum is left a numpy
    scalar, not cast to float, so a complex tangent keeps its imaginary
    part (the tests' complex-step gradient reference).
    """
    u = probes
    total = 0.0
    for k in range(1, series_terms + 1):
        u = jvp(u)
        total = total + ((-1.0) ** (k + 1) / k) * (np.sum(probes * u) / n_probes)
    return total


def logdet_series(block, x, cfg: LogDetEstimatorConfig, p=None) -> float:
    """Stochastic log-det of one residual layer, linearized at input `x`.

    Feature blocks need the conditioning operator `p`; adjacency blocks
    take `x` as their (C, d) stack of slices.  The probes have training's
    layout and come from one keyed stream, so the value is deterministic
    given the seed.  Training optimizes this series;
    `selfcheck.check_logdet_oracle` checks it block by block against the
    exact value.
    """
    block.require_contraction()
    s = cfg.hutchinson_samples
    _, lin = block.forward(x, p)
    probes = draw_probes(x.shape, s, derive_rng(cfg.rng_seed, TAG_PROBE))
    jvp = lambda u: block.jvp_many(u, lin)
    return float(logdet_series_from_probes(jvp, probes, s, cfg.series_terms))


def exact_logdet(block, lin) -> float:
    """Exact log det(I + J) of one residual layer at the linearization
    `lin` that its `forward` returned for one molecule.

    The block's `jacobians` gives J as a stack of dense blocks, (C, d, d)
    for an adjacency block and (1, NM, NM) for a graph-convolution block;
    one batched `slogdet` finishes it and the layer's log-det is the sum
    over the stack.  The block must first certify as a contraction
    (`require_contraction`, one batched Cholesky).  A contraction has
    det(I + J) > 0, so any other sign, like a non-finite value, raises
    `NumericalError`.
    """
    block.require_contraction()
    jac = np.ascontiguousarray(block.jacobians(lin))
    diag = np.arange(jac.shape[1])
    jac[:, diag, diag] += 1.0
    sign, logabs = np.linalg.slogdet(jac)
    total = float(np.sum(logabs))
    if not (np.all(sign > 0) and math.isfinite(total)):
        raise NumericalError(f"{block.prefix}: det(I + J) of a contraction must be "
                             f"positive with a finite log; got sign {sign.min()}, "
                             f"log-det {total}")
    return total


def full_logp_from_dequant(model: GrfModel, deq: GraphTensors,
                           adjacency_discrete: np.ndarray) -> FlowTrace:
    """Change-of-variables log-likelihood of one already-dequantized graph,
    with every layer's exact log-det; nothing is drawn."""
    p = model.conditioning_operator(adjacency_discrete)
    logdets = []

    def branch(block, h, p):
        y, lin = block.forward(h, p)
        logdets.append(exact_logdet(block, lin))
        return y

    prior = prior_logp(model.stacks(deq, p, branch))
    n_x = len(model.feature_layers)
    total = prior + plain_sum(logdets[:n_x]) + plain_sum(logdets[n_x:])
    return FlowTrace(feature_logdets=logdets[:n_x], adjacency_logdets=logdets[n_x:],
                     prior_logp=prior, total_logp=total)


def full_logp(model: GrfModel, g: MolGraph, cfg: LogDetEstimatorConfig | None = None,
              rng_seed: int = 0) -> FlowTrace:
    """Dequantize, push through both flows, sum prior and exact log-det terms.

    The only random draw is the dequantization noise, keyed by `rng_seed`.
    `cfg` is not read: the log-dets are exact.  It stays in the signature
    only because perfbench/workloads.py passes it positionally.
    """
    deq = dequantize(g, model.config.noise_scale,
                     int(derive_rng(rng_seed, TAG_DEQUANT).integers(2 ** 31)))
    return full_logp_from_dequant(model, deq, g.adjacency)


def sample_prior(model: GrfModel, count: int, t_x: float, t_a: float,
                 rng_seed: int) -> GraphTensors:
    """A batch of `count` latent points with per-part temperature
    (standard-deviation) scaling.  Sample i draws from its own stream,
    keyed by (rng_seed, i), so a sample does not depend on the batch size.
    """
    # NaN compares false, so a NaN temperature would pass a plain `<= 0`
    if not (0.0 < t_x < math.inf and 0.0 < t_a < math.inf):
        raise ValueError("temperatures must be positive finite numbers")
    schema = model.schema
    n, m, r = schema.n_max, schema.n_atom_types, schema.n_bond_types
    z = GraphTensors(adjacency=np.empty((count, n, n, r)), features=np.empty((count, n, m)))
    for i in range(count):
        rng = derive_rng(rng_seed, i, TAG_PRIOR_SAMPLE)
        z.adjacency[i] = t_a * rng.standard_normal((n, n, r))
        z.features[i] = t_x * rng.standard_normal((n, m))
    return z
