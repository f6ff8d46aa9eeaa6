"""Contractive residual flows for molecular graph tensors.

Two stacks of shape-preserving residual blocks: graph-convolution blocks
for the node-feature matrix (conditioned on the discrete adjacency
through the normalized operator P) and multilayer-perceptron blocks for
the adjacency tensor.  Every linear weight is kept below a spectral-norm
budget, which makes each block a contraction, each residual layer
invertible by fixed-point iteration, and the log-det power series
convergent.

Block code is written once against the autodiff dispatch helpers, so the
same functions run on plain arrays (inference, inversion) and on tape
tensors (training).
"""

from __future__ import annotations

import io
import json
from dataclasses import asdict, dataclass

import numpy as np

from .autodiff import Tensor, elu, elu_prime
from .graphs import (DequantGraph, GraphSchema, LatentPoint,
                     augmented_normalized_adjacency, normalized_adjacency_per_channel)
from .linalg import (NumericalError, SpectralNormState, init_spectral_state,
                     operator_norm_power)

ADJACENCY_MODES = ("flat", "node", "pair")

CHECKPOINT_VERSION = 1


@dataclass
class ModelConfig:
    """Architecture and numerics of one flow model.

    `adjacency_mode` picks the granularity of the adjacency MLP: "flat"
    runs one dense MLP over the whole flattened tensor, "node" shares one
    MLP across the per-node row slices (parameter count scales with N^2
    instead of N^4), and "pair" shares one tiny MLP across the per-pair
    bond vectors (fully permutation-consistent).  `adjacency_rank` > 0
    factors each adjacency weight into a rank-r product.
    """

    n_max: int = 9
    atom_symbols: tuple[str, ...] = ("C", "N", "O", "F")
    n_bond_types: int = 4
    gcn_blocks: int = 1
    gcn_layers: int = 1
    mlp_blocks: int = 4
    mlp_layers: int = 2
    adjacency_mode: str = "flat"
    adjacency_rank: int = 0
    relational_gcn: bool = False
    use_bias: bool = False
    lipschitz_budget: float = 0.9
    noise_scale: float = 0.9
    init_scale: float = 0.5
    seed: int = 0

    def __post_init__(self):
        self.atom_symbols = tuple(self.atom_symbols)
        if self.adjacency_mode not in ADJACENCY_MODES:
            raise ValueError(f"adjacency_mode must be one of {ADJACENCY_MODES}")
        if not 0.0 < self.lipschitz_budget < 1.0:
            raise ValueError("lipschitz_budget must lie in (0, 1)")
        if not 0.0 < self.noise_scale < 1.0:
            raise ValueError("noise_scale must lie in (0, 1)")
        if min(self.gcn_blocks, self.gcn_layers, self.mlp_blocks, self.mlp_layers) < 1:
            raise ValueError("block and layer counts must be at least 1")


def toy_config(**overrides) -> ModelConfig:
    """Desk-scale profile: small molecules, shallow stacks, shared rows."""
    base = dict(n_max=6, gcn_blocks=1, gcn_layers=1, mlp_blocks=4, mlp_layers=2,
                adjacency_mode="node", seed=0)
    base.update(overrides)
    return ModelConfig(**base)


def qm9_table_config(**overrides) -> ModelConfig:
    """The published QM9 shape: 1x1 GCN, 32x25 MLP, shared node rows."""
    base = dict(n_max=9, gcn_blocks=1, gcn_layers=1, mlp_blocks=32, mlp_layers=25,
                adjacency_mode="node", seed=0)
    base.update(overrides)
    return ModelConfig(**base)


# ---------------------------------------------------------------------------
# Weights
# ---------------------------------------------------------------------------

@dataclass
class FactoredWeight:
    """Rank-r linear map stored as u @ vt with u (d, r) and vt (r, d)."""

    u: np.ndarray
    vt: np.ndarray


def _weight_sigma(w) -> float:
    """Largest singular value: exact (LAPACK) for a dense weight, power
    iteration for a rank-r factored one."""
    if isinstance(w, FactoredWeight):
        sigma, _, _ = operator_norm_power(
            lambda x: w.u @ (w.vt @ x), lambda y: w.vt.T @ (w.u.T @ y),
            w.vt.shape[1])
        return sigma
    return float(np.linalg.norm(w, 2))


def _dense_sigmas(weights: list) -> np.ndarray:
    """Exact largest singular values of same-shape dense weights, in one batch."""
    stack = np.stack(weights)
    if not np.isfinite(stack).all():
        raise NumericalError("non-finite weight: its spectral norm is undefined")
    return np.linalg.norm(stack, 2, axis=(1, 2))


def _clamp_dense(weights: list, bound: float) -> None:
    """Scale each dense weight in place so its exact sigma is at most `bound`.

    Scaling by bound/sigma can leave sigma a few ulps above the bound, so
    the scaled weights are measured again and shrunk by the next float
    below the ratio until none exceeds it.
    """
    sigmas = _dense_sigmas(weights)
    over = np.flatnonzero(sigmas > bound)
    shrink = bound / sigmas[over]
    while over.size:
        for i, factor in zip(over, shrink):
            weights[i] *= factor
        sigmas = _dense_sigmas([weights[i] for i in over])
        still = sigmas > bound
        over, shrink = over[still], np.nextafter(bound / sigmas[still], 0.0)


def _scale_factored(w: FactoredWeight, factor: float) -> None:
    root = np.sqrt(factor)
    w.u *= root
    w.vt *= root


def _weight_entries(path: str, w) -> list[tuple[str, np.ndarray]]:
    if isinstance(w, FactoredWeight):
        return [(f"{path}.u", w.u), (f"{path}.vt", w.vt)]
    return [(path, w)]


def _resolve_matvec(w, path: str, params, x):
    """w @ x with optional tape-tensor overrides looked up by path."""
    if isinstance(w, FactoredWeight):
        u = params[f"{path}.u"] if params else w.u
        vt = params[f"{path}.vt"] if params else w.vt
        return u @ (vt @ x)
    ww = params[path] if params else w
    return ww @ x


# ---------------------------------------------------------------------------
# Residual blocks
# ---------------------------------------------------------------------------

class GcnResidualBlock:
    """Graph-convolution residual block phi(P . z . W), stacked `depth` times.

    P is the normalized adjacency operator of the conditioning graph (norm
    at most 1), W is spectrally bounded, and phi is ELU with unit
    Lipschitz constant, so the whole block is a contraction whenever the
    per-layer weight norms multiply to less than 1.  In the relational
    variant each layer sums one convolution per real bond channel and the
    per-channel budgets are divided accordingly.
    """

    def __init__(self, prefix: str, weights: list, biases: list, budget: float,
                 relational: bool, states: list[SpectralNormState]):
        self.prefix = prefix
        self.weights = weights          # dense (M, M), or list per channel if relational
        self.biases = biases            # (1, M) arrays or None
        self.lipschitz_budget = budget
        self.relational = relational
        self.spectral_states = states   # aligned with weight_entries order
        self.depth = len(weights)

    # -- parameter plumbing -------------------------------------------------

    def weight_items(self):
        items = []
        for l, w in enumerate(self.weights):
            if self.relational:
                for ch, w_ch in enumerate(w):
                    items.append((f"{self.prefix}.w{l}.c{ch}", w_ch))
            else:
                items.append((f"{self.prefix}.w{l}", w))
        return items

    def named_parameters(self):
        items = list(self.weight_items())
        for l, b in enumerate(self.biases):
            if b is not None:
                items.append((f"{self.prefix}.b{l}", b))
        return items

    def per_weight_bound(self) -> float:
        bound = self.lipschitz_budget ** (1.0 / self.depth)
        if self.relational:
            bound /= max(1, len(self.weights[0]))
        return bound

    def certified_bound(self) -> float:
        """Product of exact per-layer operator norms (an upper Lipschitz bound).

        A relational layer contributes the sum of its channels' norms.
        """
        sigmas = _dense_sigmas([w for _, w in self.weight_items()])
        return float(np.prod(sigmas.reshape(self.depth, -1).sum(axis=1)))

    def project(self) -> None:
        _clamp_dense([w for _, w in self.weight_items()], self.per_weight_bound())

    # -- math ----------------------------------------------------------------

    def _layer_pre(self, h, p, l, params):
        if self.relational:
            pre = None
            for ch, w_ch in enumerate(self.weights[l]):
                ww = params[f"{self.prefix}.w{l}.c{ch}"] if params else w_ch
                term = p[ch] @ (h @ ww) if isinstance(h, Tensor) else p[ch] @ h @ ww
                pre = term if pre is None else pre + term
        else:
            ww = params[f"{self.prefix}.w{l}"] if params else self.weights[l]
            pre = p @ (h @ ww) if isinstance(h, Tensor) else p @ h @ ww
        b = self.biases[l]
        if b is not None:
            bb = params[f"{self.prefix}.b{l}"] if params and f"{self.prefix}.b{l}" in params else b
            pre = pre + bb
        return pre

    def apply(self, z, p, params=None):
        h = z
        for l in range(self.depth):
            h = elu(self._layer_pre(h, p, l, params))
        return h

    def linearize(self, z, p, params=None):
        """Per-layer ELU slopes at the linearization point `z`."""
        h = z
        slopes = []
        for l in range(self.depth):
            pre = self._layer_pre(h, p, l, params)
            slopes.append(elu_prime(pre))
            h = elu(pre)
        return slopes

    def jvp(self, u, p, slopes, params=None):
        """Jacobian-vector product at the linearization captured in `slopes`."""
        for l in range(self.depth):
            if self.relational:
                nxt = None
                for ch in range(len(self.weights[l])):
                    ww = (params[f"{self.prefix}.w{l}.c{ch}"] if params
                          else self.weights[l][ch])
                    term = p[ch] @ (u @ ww) if isinstance(u, Tensor) else p[ch] @ u @ ww
                    nxt = term if nxt is None else nxt + term
                u = nxt
            else:
                ww = params[f"{self.prefix}.w{l}"] if params else self.weights[l]
                u = p @ (u @ ww) if isinstance(u, Tensor) else p @ u @ ww
            u = slopes[l] * u
        return u

    def jvp_many(self, u, p, slopes):
        """Vectorized numpy JVP over a stack of tangents u of shape (N, M, S)."""
        for l in range(self.depth):
            if self.relational:
                nxt = None
                for ch, w_ch in enumerate(self.weights[l]):
                    t = np.einsum("ij,jms->ims", p[ch], u)
                    t = np.einsum("ims,mk->iks", t, w_ch)
                    nxt = t if nxt is None else nxt + t
                u = nxt
            else:
                t = np.einsum("ij,jms->ims", p, u)
                u = np.einsum("ims,mk->iks", t, self.weights[l])
            u = slopes[l][:, :, None] * u
        return u


class MlpResidualBlock:
    """Dense residual block on column vectors: phi(W_k ... phi(W_1 x)).

    The activation follows every linear map (so a depth-1 block is
    phi(W x), mirroring the graph-convolution block).  Operating
    column-wise means one call handles every slice of the adjacency
    tensor (and any batch of samples) at once.
    """

    def __init__(self, prefix: str, weights: list, biases: list, budget: float,
                 states: list[SpectralNormState]):
        self.prefix = prefix
        self.weights = weights          # dense (d, d) or FactoredWeight
        self.biases = biases            # (d, 1) arrays or None
        self.lipschitz_budget = budget
        self.spectral_states = states
        self.depth = len(weights)

    def weight_items(self):
        items = []
        for l, w in enumerate(self.weights):
            items.extend(_weight_entries(f"{self.prefix}.w{l}", w))
        return items

    def named_parameters(self):
        items = list(self.weight_items())
        for l, b in enumerate(self.biases):
            if b is not None:
                items.append((f"{self.prefix}.b{l}", b))
        return items

    def per_weight_bound(self) -> float:
        return self.lipschitz_budget ** (1.0 / self.depth)

    def certified_bound(self) -> float:
        """Product of per-layer operator norms (an upper Lipschitz bound):
        exact for dense weights, power-iteration estimates for rank-r ones."""
        if isinstance(self.weights[0], FactoredWeight):
            sigmas = [_weight_sigma(w) for w in self.weights]
        else:
            sigmas = _dense_sigmas(self.weights)
        return float(np.prod(sigmas))

    def project(self) -> None:
        bound = self.per_weight_bound()
        if not isinstance(self.weights[0], FactoredWeight):
            _clamp_dense(self.weights, bound)
            return
        for w, state in zip(self.weights, self.spectral_states):
            sigma, u, v = operator_norm_power(
                lambda x: w.u @ (w.vt @ x), lambda y: w.vt.T @ (w.u.T @ y),
                w.vt.shape[1], u0=state.u)
            if sigma > bound:
                _scale_factored(w, bound / sigma)
                sigma = bound
            state.u, state.v, state.sigma_estimate = u, v, sigma

    def apply(self, x, params=None):
        h = x
        for l in range(self.depth):
            h = _resolve_matvec(self.weights[l], f"{self.prefix}.w{l}", params, h)
            b = self.biases[l]
            if b is not None:
                bb = (params[f"{self.prefix}.b{l}"]
                      if params and f"{self.prefix}.b{l}" in params else b)
                h = h + bb
            h = elu(h)
        return h

    def linearize(self, x, params=None):
        h = x
        slopes = []
        for l in range(self.depth):
            h = _resolve_matvec(self.weights[l], f"{self.prefix}.w{l}", params, h)
            b = self.biases[l]
            if b is not None:
                bb = (params[f"{self.prefix}.b{l}"]
                      if params and f"{self.prefix}.b{l}" in params else b)
                h = h + bb
            slopes.append(elu_prime(h))
            h = elu(h)
        return slopes

    def jvp(self, u, slopes, params=None):
        for l in range(self.depth):
            u = _resolve_matvec(self.weights[l], f"{self.prefix}.w{l}", params, u)
            u = slopes[l] * u
        return u

    def jvp_many(self, u, slopes):
        """Numpy JVP over probe stacks laid out as extra columns.

        `slopes` entries have C columns while `u` has C*S; the slope block
        is tiled across the probe copies.
        """
        for l in range(self.depth):
            u = _resolve_matvec(self.weights[l], f"{self.prefix}.w{l}", None, u)
            s = slopes[l]
            reps = u.shape[1] // s.shape[1]
            u = (np.tile(s, (1, reps)) * u) if reps > 1 else s * u
        return u


# ---------------------------------------------------------------------------
# Adjacency tensor <-> column layout
# ---------------------------------------------------------------------------

def adjacency_slice_shape(schema: GraphSchema, mode: str) -> tuple[int, int]:
    """(slice dimension, number of slices) for the adjacency MLP layout."""
    n, r = schema.n_max, schema.n_bond_types
    if mode == "flat":
        return n * n * r, 1
    if mode == "node":
        return n * r, n
    if mode == "pair":
        return r, n * n
    raise ValueError(f"unknown adjacency mode {mode!r}")


def adjacency_to_columns(a: np.ndarray, mode: str) -> np.ndarray:
    n, _, r = a.shape
    if mode == "flat":
        return a.reshape(n * n * r, 1).copy()
    if mode == "node":
        return np.ascontiguousarray(a.reshape(n, n * r).T)
    if mode == "pair":
        return np.ascontiguousarray(a.reshape(n * n, r).T)
    raise ValueError(f"unknown adjacency mode {mode!r}")


def columns_to_adjacency(cols: np.ndarray, schema: GraphSchema, mode: str) -> np.ndarray:
    n, r = schema.n_max, schema.n_bond_types
    if mode == "flat":
        return cols.reshape(n, n, r).copy()
    if mode == "node":
        return np.ascontiguousarray(cols.T).reshape(n, n, r)
    if mode == "pair":
        return np.ascontiguousarray(cols.T).reshape(n, n, r)
    raise ValueError(f"unknown adjacency mode {mode!r}")


# ---------------------------------------------------------------------------
# Model
# ---------------------------------------------------------------------------

class GrfModel:
    """Stacked feature and adjacency residual flows plus a standard-normal prior."""

    def __init__(self, config: ModelConfig):
        self.config = config
        self.schema = GraphSchema(n_max=config.n_max, atom_symbols=config.atom_symbols,
                                  n_bond_types=config.n_bond_types)
        rng = np.random.default_rng(config.seed)
        m = self.schema.n_atom_types
        n_channels = config.n_bond_types - 1

        self.feature_layers: list[GcnResidualBlock] = []
        gcn_target = config.init_scale ** (1.0 / config.gcn_layers)
        for b in range(config.gcn_blocks):
            weights, biases, states = [], [], []
            for l in range(config.gcn_layers):
                if config.relational_gcn:
                    per = []
                    for _ in range(n_channels):
                        per.append(self._init_dense(rng, m, m, gcn_target / n_channels))
                    weights.append(per)
                    states.extend(init_spectral_state(m, m, seed=int(rng.integers(2 ** 31)))
                                  for _ in range(n_channels))
                else:
                    weights.append(self._init_dense(rng, m, m, gcn_target))
                    states.append(init_spectral_state(m, m, seed=int(rng.integers(2 ** 31))))
                biases.append(np.zeros((1, m)) if config.use_bias else None)
            self.feature_layers.append(GcnResidualBlock(
                prefix=f"feature.{b}", weights=weights, biases=biases,
                budget=config.lipschitz_budget, relational=config.relational_gcn,
                states=states))

        d, _ = adjacency_slice_shape(self.schema, config.adjacency_mode)
        self.adjacency_layers: list[MlpResidualBlock] = []
        mlp_target = config.init_scale ** (1.0 / config.mlp_layers)
        for b in range(config.mlp_blocks):
            weights, biases, states = [], [], []
            for l in range(config.mlp_layers):
                if config.adjacency_rank > 0:
                    weights.append(self._init_factored(rng, d, config.adjacency_rank,
                                                       mlp_target))
                else:
                    weights.append(self._init_dense(rng, d, d, mlp_target))
                states.append(init_spectral_state(d, d, seed=int(rng.integers(2 ** 31))))
                biases.append(np.zeros((d, 1)) if config.use_bias else None)
            self.adjacency_layers.append(MlpResidualBlock(
                prefix=f"adjacency.{b}", weights=weights, biases=biases,
                budget=config.lipschitz_budget, states=states))

        self.project_to_budget()

    @staticmethod
    def _init_dense(rng, rows: int, cols: int, target_sigma: float) -> np.ndarray:
        w = rng.standard_normal((rows, cols))
        sigma = _weight_sigma(w)
        return w * (target_sigma / sigma) if sigma > 0 else w

    @staticmethod
    def _init_factored(rng, d: int, rank: int, target_sigma: float) -> FactoredWeight:
        w = FactoredWeight(u=rng.standard_normal((d, rank)),
                           vt=rng.standard_normal((rank, d)))
        sigma = _weight_sigma(w)
        if sigma > 0:
            _scale_factored(w, target_sigma / sigma)
        return w

    # -- parameters -----------------------------------------------------------

    def blocks(self):
        return [*self.feature_layers, *self.adjacency_layers]

    def named_parameters(self) -> list[tuple[str, np.ndarray]]:
        items = []
        for block in self.blocks():
            items.extend(block.named_parameters())
        return items

    def project_to_budget(self) -> None:
        """Clamp every weight's operator norm to its per-layer share of the budget."""
        for block in self.blocks():
            block.project()

    def certified_block_bounds(self) -> list[float]:
        return [block.certified_bound() for block in self.blocks()]

    # -- conditioning ----------------------------------------------------------

    def conditioning_operator(self, adjacency: np.ndarray):
        if self.config.relational_gcn:
            return normalized_adjacency_per_channel(adjacency)
        return augmented_normalized_adjacency(adjacency)

    # -- numpy-mode encoding convenience ---------------------------------------

    def encode(self, deq: DequantGraph, adjacency_discrete: np.ndarray) -> LatentPoint:
        p = self.conditioning_operator(adjacency_discrete)
        z_x, _ = feature_flow_forward(self, deq.features_c, p)
        cols = adjacency_to_columns(deq.adjacency_c, self.config.adjacency_mode)
        z_cols, _ = adjacency_flow_columns(self, cols)
        return LatentPoint(
            z_adjacency=columns_to_adjacency(z_cols, self.schema, self.config.adjacency_mode),
            z_features=z_x)


def feature_flow_forward(model: GrfModel, x, p, params=None):
    """Run the feature residual stack; returns (z, per-layer inputs)."""
    z = x
    inputs = []
    for block in model.feature_layers:
        inputs.append(z)
        z = z + block.apply(z, p, params=params)
    return z, inputs


def adjacency_flow_columns(model: GrfModel, cols, params=None):
    """Run the adjacency residual stack on column layout; returns (z, inputs)."""
    z = cols
    inputs = []
    for block in model.adjacency_layers:
        inputs.append(z)
        z = z + block.apply(z, params=params)
    return z, inputs


def adjacency_flow_forward(model: GrfModel, a: np.ndarray):
    """Tensor-shaped convenience wrapper around the column flow (numpy mode)."""
    mode = model.config.adjacency_mode
    cols = adjacency_to_columns(np.asarray(a, dtype=np.float64), mode)
    z_cols, inputs = adjacency_flow_columns(model, cols)
    return columns_to_adjacency(z_cols, model.schema, mode), inputs


def count_parameters(model: GrfModel) -> int:
    """Exact number of trainable scalars (rank-r weights count 2*d*r)."""
    return int(sum(arr.size for _, arr in model.named_parameters()))


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

def save_checkpoint(path, model: GrfModel, extra_arrays: dict | None = None,
                    extra_meta: dict | None = None) -> None:
    """Versioned npz container: config, weights, spectral states, extras.

    Round trips are bit exact: arrays are stored as raw float64.
    """
    arrays: dict[str, np.ndarray] = {}
    for name, arr in model.named_parameters():
        arrays[f"param::{name}"] = arr
    for block in model.blocks():
        for idx, state in enumerate(block.spectral_states):
            arrays[f"sn::{block.prefix}.{idx}::u"] = state.u
            arrays[f"sn::{block.prefix}.{idx}::v"] = state.v
            arrays[f"sn::{block.prefix}.{idx}::sigma"] = np.array([state.sigma_estimate])
    for key, arr in (extra_arrays or {}).items():
        arrays[f"extra::{key}"] = np.asarray(arr)
    meta = {"format_version": CHECKPOINT_VERSION,
            "config": asdict(model.config),
            "extra": extra_meta or {}}
    buf = io.BytesIO()
    np.savez(buf, __meta__=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
             **arrays)
    with open(path, "wb") as fh:
        fh.write(buf.getvalue())


def load_checkpoint(path) -> tuple[GrfModel, dict, dict]:
    """Rebuild a model (bit exact) plus any extra arrays/metadata."""
    with np.load(path) as data:
        meta = json.loads(bytes(data["__meta__"]).decode())
        if meta["format_version"] != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {meta['format_version']}")
        cfg_dict = dict(meta["config"])
        cfg_dict["atom_symbols"] = tuple(cfg_dict["atom_symbols"])
        model = GrfModel(ModelConfig(**cfg_dict))
        for name, arr in model.named_parameters():
            arr[...] = data[f"param::{name}"]
        for block in model.blocks():
            for idx, state in enumerate(block.spectral_states):
                state.u = data[f"sn::{block.prefix}.{idx}::u"].copy()
                state.v = data[f"sn::{block.prefix}.{idx}::v"].copy()
                state.sigma_estimate = float(data[f"sn::{block.prefix}.{idx}::sigma"][0])
        extra_arrays = {key[len("extra::"):]: data[key].copy()
                        for key in data.files if key.startswith("extra::")}
    return model, extra_arrays, meta["extra"]
