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
import operator
import zipfile
from dataclasses import asdict, dataclass

import numpy as np

from .autodiff import dot, elu, elu_prime
from .graphs import DequantGraph, GraphSchema, LatentPoint, augmented_normalized_adjacency
# operator_norm_power has no caller here; perfbench/tracing.py still patches
# grf.flow.operator_norm_power by name, so the import keeps that lookup alive.
from .linalg import NumericalError, operator_norm_power  # noqa: F401

ADJACENCY_MODES = ("flat", "node", "pair")

CHECKPOINT_VERSION = 3


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


def _sigmas(weights: list) -> np.ndarray:
    """Exact largest singular values of a block's weights, in one batch.

    Dense weights go through a batched SVD.  A rank-r weight U Vt shares
    its nonzero singular values with R_U R_V^T, where R_U and R_V are the
    triangular QR factors of U and Vt^T, so only an r x r SVD remains.
    """
    if isinstance(weights[0], FactoredWeight):
        r_u = np.linalg.qr(np.stack([w.u for w in weights]), mode="r")
        r_v = np.linalg.qr(np.stack([w.vt.T for w in weights]), mode="r")
        with np.errstate(invalid="ignore"):  # non-finite factors raise below
            stack = r_u @ r_v.transpose(0, 2, 1)
    else:
        stack = np.stack(weights)
    if not np.isfinite(stack).all():
        raise NumericalError("non-finite weight: its spectral norm is undefined")
    return np.linalg.norm(stack, 2, axis=(1, 2))


def _scale(w, factor: float) -> None:
    """Scale a weight in place; a rank-r one by sqrt(factor) on each factor."""
    if isinstance(w, FactoredWeight):
        root = np.sqrt(factor)
        w.u *= root
        w.vt *= root
    else:
        w *= factor


def _clamp(weights: list, bound: float) -> None:
    """Scale each weight in place so its exact sigma is at most `bound`.

    Scaling by bound/sigma can leave sigma a few ulps above the bound, so
    the scaled weights are measured again and shrunk by the next float
    below the ratio until none exceeds it.
    """
    sigmas = _sigmas(weights)
    over = np.flatnonzero(sigmas > bound)
    shrink = bound / sigmas[over]
    while over.size:
        for i, factor in zip(over, shrink):
            _scale(weights[i], factor)
        sigmas = _sigmas([weights[i] for i in over])
        still = sigmas > bound
        over, shrink = over[still], np.nextafter(bound / sigmas[still], 0.0)


def _scaled_to(w, target_sigma: float):
    """`w` scaled in place to spectral norm `target_sigma` (a zero weight stays)."""
    sigma = _sigmas([w])[0]
    if sigma > 0:
        _scale(w, target_sigma / sigma)
    return w


def _weight_entries(path: str, w) -> list[tuple[str, np.ndarray]]:
    if isinstance(w, FactoredWeight):
        return [(f"{path}.u", w.u), (f"{path}.vt", w.vt)]
    return [(path, w)]


def _add_bias(pre, b, path: str, params):
    return pre + (params[path] if params and path in params else b)


# ---------------------------------------------------------------------------
# Residual blocks
# ---------------------------------------------------------------------------

class GcnResidualBlock:
    """Graph-convolution residual block phi(P . z . W), stacked `depth` times.

    P is the normalized adjacency operator of the conditioning graph (norm
    at most 1), W is spectrally bounded, and phi is ELU with unit
    Lipschitz constant, so the whole block is a contraction whenever the
    per-layer weight norms multiply to less than 1.

    Tangent stacks have shape (N, S, M): S probes of the (N, M) feature
    matrix, probe-major, i.e. the (N, S*M) column layout viewed in 3-D.
    """

    def __init__(self, prefix: str, weights: list, biases: list, budget: float):
        self.prefix = prefix
        self.weights = weights          # dense (M, M)
        self.biases = biases            # (1, M) arrays or None
        self.lipschitz_budget = budget
        self.depth = len(weights)

    # -- parameter plumbing -------------------------------------------------

    def weight_items(self):
        return [(f"{self.prefix}.w{l}", w) for l, w in enumerate(self.weights)]

    def named_parameters(self):
        items = list(self.weight_items())
        for l, b in enumerate(self.biases):
            if b is not None:
                items.append((f"{self.prefix}.b{l}", b))
        return items

    def per_weight_bound(self) -> float:
        return self.lipschitz_budget ** (1.0 / self.depth)

    def certified_bound(self) -> float:
        """Product of exact per-layer operator norms (an upper Lipschitz bound)."""
        return float(np.prod(_sigmas(self.weights)))

    def project(self) -> None:
        _clamp(self.weights, self.per_weight_bound())

    # -- math ----------------------------------------------------------------

    def _weight(self, l, params):
        return params[f"{self.prefix}.w{l}"] if params else self.weights[l]

    def _layer_pre(self, h, p, l, params):
        pre = p @ h @ self._weight(l, params)
        b = self.biases[l]
        return pre if b is None else _add_bias(pre, b, f"{self.prefix}.b{l}", params)

    def apply(self, z, p, params=None):
        h = z
        for l in range(self.depth):
            h = elu(self._layer_pre(h, p, l, params))
        return h

    def forward(self, z, p, params=None):
        """(apply(z, p), per-layer ELU slopes shaped (N, 1, M) for `jvp_many`)."""
        h = z
        slopes = []
        for l in range(self.depth):
            pre = self._layer_pre(h, p, l, params)
            slopes.append(elu_prime(pre).reshape(pre.shape[0], 1, pre.shape[1]))
            h = elu(pre)
        return h, slopes

    def jvp_many(self, u, p, slopes, params=None):
        """Jacobian-vector products of a tangent stack u (N, S, M) at the
        linearization captured in `slopes`: P @ U as (N, N) @ (N, S*M), then
        @ W as (N*S, M) @ (M, M), then the broadcast slopes."""
        for l in range(self.depth):
            u = dot(dot(p, u), self._weight(l, params))
            # In place on an array: the product is a fresh temporary, and
            # reusing it saves an allocation per layer.  A Tensor has no
            # in-place ops, so on the tape `*=` records a new node.
            u *= slopes[l]
        return u


class MlpResidualBlock:
    """Dense residual block on column vectors: phi(W_k ... phi(W_1 x)).

    The activation follows every linear map (so a depth-1 block is
    phi(W x), mirroring the graph-convolution block).  Operating
    column-wise means one call handles every slice of the adjacency
    tensor (and any batch of samples) at once.  Tangent stacks have shape
    (d, S, C): S probes of the (d, C) column matrix, probe-major, i.e. the
    (d, S*C) column layout viewed in 3-D.
    """

    def __init__(self, prefix: str, weights: list, biases: list, budget: float):
        self.prefix = prefix
        self.weights = weights          # dense (d, d) or FactoredWeight
        self.biases = biases            # (d, 1) arrays or None
        self.lipschitz_budget = budget
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
        """Product of exact per-layer operator norms (an upper Lipschitz bound)."""
        return float(np.prod(_sigmas(self.weights)))

    def project(self) -> None:
        _clamp(self.weights, self.per_weight_bound())

    def _matvec(self, l, x, params, prod=operator.matmul):
        """prod(W_l, x), with W_l looked up by path in `params` when given.

        `prod` is `@` for a 2-D x and `dot` for a tangent stack.  Inversion
        calls this without `params` on every fixed-point iteration, so that
        case builds no path strings and skips the dispatch.
        """
        w = self.weights[l]
        if params:
            path = f"{self.prefix}.w{l}"
            w = (FactoredWeight(u=params[f"{path}.u"], vt=params[f"{path}.vt"])
                 if isinstance(w, FactoredWeight) else params[path])
        if isinstance(w, FactoredWeight):
            return prod(w.u, prod(w.vt, x))
        return prod(w, x)

    def _layer_pre(self, h, l, params):
        pre = self._matvec(l, h, params)
        b = self.biases[l]
        return pre if b is None else _add_bias(pre, b, f"{self.prefix}.b{l}", params)

    def apply(self, x, params=None):
        h = x
        for l in range(self.depth):
            h = elu(self._layer_pre(h, l, params))
        return h

    def forward(self, x, params=None):
        """(apply(x), per-layer ELU slopes shaped (d, 1, C) for `jvp_many`)."""
        h = x
        slopes = []
        for l in range(self.depth):
            pre = self._layer_pre(h, l, params)
            slopes.append(elu_prime(pre).reshape(pre.shape[0], 1, pre.shape[1]))
            h = elu(pre)
        return h, slopes

    def jvp_many(self, u, slopes, params=None):
        """Jacobian-vector products of a tangent stack u (d, S, C) at the
        linearization captured in `slopes`: one (d, d) @ (d, S*C) product and
        one broadcast slope multiply per layer."""
        for l in range(self.depth):
            u = self._matvec(l, u, params, dot)
            u *= slopes[l]  # in place on arrays, as in GcnResidualBlock.jvp_many
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

        # Each weight is followed by one unused draw, which once seeded a
        # power-iteration state; keeping it makes GrfModel(config) build the
        # same dense weights as earlier versions.
        self.feature_layers: list[GcnResidualBlock] = []
        gcn_target = config.init_scale ** (1.0 / config.gcn_layers)
        for b in range(config.gcn_blocks):
            weights, biases = [], []
            for l in range(config.gcn_layers):
                weights.append(_scaled_to(rng.standard_normal((m, m)), gcn_target))
                rng.integers(2 ** 31)
                biases.append(np.zeros((1, m)) if config.use_bias else None)
            self.feature_layers.append(GcnResidualBlock(
                prefix=f"feature.{b}", weights=weights, biases=biases,
                budget=config.lipschitz_budget))

        d, _ = adjacency_slice_shape(self.schema, config.adjacency_mode)
        self.adjacency_layers: list[MlpResidualBlock] = []
        mlp_target = config.init_scale ** (1.0 / config.mlp_layers)
        rank = config.adjacency_rank
        for b in range(config.mlp_blocks):
            weights, biases = [], []
            for l in range(config.mlp_layers):
                w = (FactoredWeight(u=rng.standard_normal((d, rank)),
                                    vt=rng.standard_normal((rank, d)))
                     if rank > 0 else rng.standard_normal((d, d)))
                weights.append(_scaled_to(w, mlp_target))
                rng.integers(2 ** 31)
                biases.append(np.zeros((d, 1)) if config.use_bias else None)
            self.adjacency_layers.append(MlpResidualBlock(
                prefix=f"adjacency.{b}", weights=weights, biases=biases,
                budget=config.lipschitz_budget))

        self.project_to_budget()

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


def feature_flow_forward(model: GrfModel, x, p):
    """Run the feature residual stack; returns (z, per-layer inputs)."""
    z = x
    inputs = []
    for block in model.feature_layers:
        inputs.append(z)
        z = z + block.apply(z, p)
    return z, inputs


def adjacency_flow_columns(model: GrfModel, cols):
    """Run the adjacency residual stack on column layout; returns (z, inputs)."""
    z = cols
    inputs = []
    for block in model.adjacency_layers:
        inputs.append(z)
        z = z + block.apply(z)
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

class CheckpointError(ValueError):
    """A checkpoint file that cannot be read back into a model."""


def save_checkpoint(path, model: GrfModel, extra_arrays: dict | None = None,
                    extra_meta: dict | None = None) -> None:
    """Versioned npz container: config, weights, extras.

    Round trips are bit exact: arrays are stored as raw float64.
    """
    arrays: dict[str, np.ndarray] = {}
    for name, arr in model.named_parameters():
        arrays[f"param::{name}"] = arr
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
    """Rebuild a model (bit exact) plus any extra arrays/metadata.

    Reads format versions 1 to 3; the power-iteration states (`sn::`
    arrays) that versions 1 and 2 stored are ignored.  A file that is not
    a checkpoint, or lacks an array the model needs or holds it at the
    wrong shape, raises `CheckpointError`.
    """
    try:
        data = np.load(path)
        if not isinstance(data, np.lib.npyio.NpzFile):
            raise CheckpointError("an .npy array, not an .npz archive")
        with data:
            return _read_checkpoint(data)
    except CheckpointError as exc:
        raise CheckpointError(f"checkpoint {path}: {exc}") from None
    except (EOFError, KeyError, TypeError, ValueError, zipfile.BadZipFile) as exc:
        raise CheckpointError(f"checkpoint {path} is unreadable: {exc}") from exc


def _checkpoint_array(data, key: str, shape: tuple[int, ...] | None = None) -> np.ndarray:
    if key not in data.files:
        raise CheckpointError(f"missing array {key!r}")
    arr = data[key]
    if shape is not None and arr.shape != shape:
        raise CheckpointError(f"array {key!r} has shape {arr.shape}, expected {shape}")
    return arr


def _read_checkpoint(data) -> tuple[GrfModel, dict, dict]:
    meta = json.loads(bytes(_checkpoint_array(data, "__meta__")).decode())
    if meta.get("format_version") not in (1, 2, CHECKPOINT_VERSION):
        raise CheckpointError(f"unsupported format version {meta.get('format_version')!r}")
    cfg_dict = dict(meta["config"])
    if cfg_dict.pop("relational_gcn", False):
        raise CheckpointError("relational_gcn models are no longer supported")
    cfg_dict["atom_symbols"] = tuple(cfg_dict["atom_symbols"])
    model = GrfModel(ModelConfig(**cfg_dict))
    for name, arr in model.named_parameters():
        arr[...] = _checkpoint_array(data, f"param::{name}", arr.shape)
    extra_arrays = {key[len("extra::"):]: data[key].copy()
                    for key in data.files if key.startswith("extra::")}
    return model, extra_arrays, meta["extra"]
