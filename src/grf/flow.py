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

class _ResidualBlock:
    """What both kinds of block share: named weights and biases, the
    per-layer share of the Lipschitz budget, and the forward pass."""

    def __init__(self, prefix: str, weights: list, biases: list, budget: float):
        self.prefix = prefix
        self.weights = weights          # per layer: dense, or FactoredWeight
        self.biases = biases            # per layer: array or None
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

    def project(self) -> None:
        _clamp(self.weights, self.per_weight_bound())

    def _forward(self, x, layer_pre):
        """(h, slopes) of the layers h <- elu(layer_pre(h, l)) from `x`.

        Each slope is elu' of a pre-activation reshaped to (..., rows, 1,
        cols): the tangent-stack layout of `jvp_many`, with a probe axis to
        broadcast over.
        """
        h, slopes = x, []
        for l in range(self.depth):
            pre = layer_pre(h, l)
            slopes.append(elu_prime(pre).reshape(*pre.shape[:-1], 1, pre.shape[-1]))
            h = elu(pre)
        return h, slopes


class GcnResidualBlock(_ResidualBlock):
    """Graph-convolution residual block phi(P . z . W), stacked `depth` times.

    P is the normalized adjacency operator of the conditioning graph (norm
    at most 1), W (M, M) is spectrally bounded, and phi is ELU with unit
    Lipschitz constant, so the whole block is a contraction whenever the
    per-layer weight norms multiply to less than 1.

    Inputs are an (N, M) feature matrix with its (N, N) P, or a (B, N, M)
    stack of them with a (B, N, N) stack of P.  Tangent stacks insert a
    probe axis before the last: (..., N, S, M) holds S probes of each
    feature matrix.
    """

    def certified_bound(self) -> float:
        """Product of exact per-layer operator norms (an upper Lipschitz bound)."""
        return float(np.prod(_sigmas(self.weights)))

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
        """(apply(z, p), lin): the linearization `lin` is (p, per-layer ELU
        slopes shaped (..., N, 1, M)), as `jvp_many` and `jacobians` take it."""
        h, slopes = self._forward(z, lambda h, l: self._layer_pre(h, p, l, params))
        return h, (p, slopes)

    def jvp_many(self, u, lin, params=None):
        """Jacobian-vector products of a tangent stack u (..., N, S, M) at the
        linearization `lin` = (p, slopes): P @ U as (..., N, N) @ (..., N, S*M),
        then @ W as one (...*N*S, M) @ (M, M) product, then the broadcast
        slopes."""
        p, slopes = lin
        for l in range(self.depth):
            pu = (p @ u.reshape(*u.shape[:-2], -1)).reshape(u.shape)
            u = dot(pu, self._weight(l, params))
            # In place on an array: the product is a fresh temporary, and
            # reusing it saves an allocation per layer.  A Tensor has no
            # in-place ops, so on the tape `*=` records a new node.
            u *= slopes[l]
        return u

    def jacobians(self, lin):
        """The dense (1, NM, NM) Jacobian of one graph at `lin`, from one
        `jvp_many` over the stack (N, S=N*M, M) of row-major unit matrices."""
        n, _, m = lin[1][0].shape
        basis = np.eye(n * m).reshape(n * m, n, m).transpose(1, 0, 2)
        jac = self.jvp_many(np.ascontiguousarray(basis), lin)
        return jac.transpose(0, 2, 1).reshape(1, n * m, n * m)  # [i, s] = J[i, s]


class MlpResidualBlock(_ResidualBlock):
    """Dense residual block on column vectors: phi(W_k ... phi(W_1 x)).

    The activation follows every linear map (so a depth-1 block is
    phi(W x), mirroring the graph-convolution block).  Each W is dense
    (d, d) or a rank-r FactoredWeight.  Operating column-wise means one
    call handles every slice of the adjacency tensor (and any batch of
    samples) at once.  Tangent stacks have shape (d, S, C): S probes of
    the (d, C) column matrix, probe-major, i.e. the (d, S*C) column layout
    viewed in 3-D.
    """

    def certified_bound(self) -> float:
        """Product of exact per-layer operator norms (an upper Lipschitz bound)."""
        return float(np.prod(_sigmas(self.weights)))

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
        """(apply(x), lin): the linearization `lin` is the per-layer ELU
        slopes shaped (d, 1, C), as `jvp_many` and `jacobians` take it."""
        return self._forward(x, lambda h, l: self._layer_pre(h, l, params))

    def jvp_many(self, u, lin, params=None):
        """Jacobian-vector products of a tangent stack u (d, S, C) at the
        linearization `lin` (the slopes): one (d, d) @ (d, S*C) product and
        one broadcast slope multiply per layer."""
        for l in range(self.depth):
            u = self._matvec(l, u, params, dot)
            u *= lin[l]  # in place on arrays, as in GcnResidualBlock.jvp_many
        return u

    def jacobians(self, lin):
        """Every column's (d, d) Jacobian at `lin`, stacked (C, d, d): the
        block acts on each column separately, so one `jvp_many` over the
        stack (d, S=d, C) with u[:, s, c] = e_s yields them all."""
        d, _, c = lin[0].shape
        basis = np.repeat(np.eye(d)[:, :, None], c, axis=2)
        return self.jvp_many(basis, lin).transpose(2, 0, 1)  # [c, i, s] = J_c[i, s]


# ---------------------------------------------------------------------------
# Adjacency slices
# ---------------------------------------------------------------------------

def adjacency_slice_shape(schema: GraphSchema, mode: str) -> tuple[int, int]:
    """(slice dimension d, number of slices C) for the adjacency MLP layout:
    a slice is the whole tensor, one node's row or one pair's bond vector."""
    n, r = schema.n_max, schema.n_bond_types
    if mode == "flat":
        return n * n * r, 1
    if mode == "node":
        return n * r, n
    if mode == "pair":
        return r, n * n
    raise ValueError(f"unknown adjacency mode {mode!r}")


# ---------------------------------------------------------------------------
# Model
# ---------------------------------------------------------------------------

class GrfModel:
    """Stacked feature and adjacency residual flows plus a standard-normal prior."""

    def __init__(self, config: ModelConfig, stored=None):
        """Random weights projected to the budget, or the stored ones.

        `stored(name, shape)` returns the array of one named parameter (as
        a checkpoint holds it); given it, the blocks take those arrays as
        they are, with no random draw and no projection.
        """
        self.config = config
        self.schema = GraphSchema(n_max=config.n_max, atom_symbols=config.atom_symbols,
                                  n_bond_types=config.n_bond_types)
        rng = np.random.default_rng(config.seed)
        m = self.schema.n_atom_types
        self.slice_dim = d = adjacency_slice_shape(self.schema, config.adjacency_mode)[0]

        # Each drawn weight is followed by one unused draw, which once seeded
        # a power-iteration state; keeping it makes GrfModel(config) build
        # the same dense weights as earlier versions.
        def weight(path, dim, rank, target):
            if stored is not None:
                if rank > 0:
                    return FactoredWeight(u=stored(f"{path}.u", (dim, rank)),
                                          vt=stored(f"{path}.vt", (rank, dim)))
                return stored(path, (dim, dim))
            w = (FactoredWeight(u=rng.standard_normal((dim, rank)),
                                vt=rng.standard_normal((rank, dim)))
                 if rank > 0 else rng.standard_normal((dim, dim)))
            w = _scaled_to(w, target)
            rng.integers(2 ** 31)
            return w

        def bias(path, shape):
            if not config.use_bias:
                return None
            return np.zeros(shape) if stored is None else stored(path, shape)

        def layers(prefix, dim, rank, depth, bias_shape):
            target = config.init_scale ** (1.0 / depth)
            return ([weight(f"{prefix}.w{l}", dim, rank, target) for l in range(depth)],
                    [bias(f"{prefix}.b{l}", bias_shape) for l in range(depth)])

        self.feature_layers: list[GcnResidualBlock] = [
            GcnResidualBlock(f"feature.{b}",
                             *layers(f"feature.{b}", m, 0, config.gcn_layers, (1, m)),
                             budget=config.lipschitz_budget)
            for b in range(config.gcn_blocks)]
        self.adjacency_layers: list[MlpResidualBlock] = [
            MlpResidualBlock(f"adjacency.{b}",
                             *layers(f"adjacency.{b}", d, config.adjacency_rank,
                                     config.mlp_layers, (d, 1)),
                             budget=config.lipschitz_budget)
            for b in range(config.mlp_blocks)]

        if stored is None:
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

    # -- adjacency layout ----------------------------------------------------------

    def columns(self, a: np.ndarray) -> np.ndarray:
        """Adjacency tensors (..., N, N, R) as the adjacency blocks' (d, B*C)
        column matrix.  A slice is d consecutive row-major entries in every
        mode, so one reshape serves all three; graph b owns columns b*C to
        (b+1)*C."""
        return np.ascontiguousarray(a.reshape(-1, self.slice_dim).T)

    def adjacencies(self, cols: np.ndarray) -> np.ndarray:
        """The (B, N, N, R) tensors of a (d, B*C) column matrix: the inverse
        of `columns`, as a view of `cols`."""
        s = self.schema
        return cols.T.reshape(-1, s.n_max, s.n_max, s.n_bond_types)

    # -- the flow ----------------------------------------------------------------

    def forward(self, x, p, a, params=None):
        """Both residual stacks, once, keeping what their log-dets need.

        `x` is an (N, M) feature matrix with its (N, N) operator `p` and its
        (N, N, R) adjacency `a`, or a (B, N, M) stack with (B, N, N) and
        (B, N, N, R) ones.  On plain arrays, or on tape tensors when
        `params` maps parameter paths to them.  Returns (z_x, z_cols,
        layers): the adjacency latents stay in the `columns` layout, and
        `layers` lists (block, input, lin) per block in order, feature
        blocks first, with each block's linearization `lin` for its
        `jvp_many` and `jacobians`.
        """
        layers = []
        for block in self.feature_layers:
            y, lin = block.forward(x, p, params=params)
            layers.append((block, x, lin))
            x = x + y
        cols = self.columns(a)
        for block in self.adjacency_layers:
            y, lin = block.forward(cols, params=params)
            layers.append((block, cols, lin))
            cols = cols + y
        return x, cols, layers

    def encode(self, deqs: list[DequantGraph],
               adjacencies: list[np.ndarray]) -> list[LatentPoint]:
        """Latent points of a batch of dequantized graphs, each conditioned
        on its discrete adjacency, in `forward`'s batch layout.  Only the
        latents are needed, so the blocks run slope-free `apply`."""
        p = np.stack([self.conditioning_operator(a) for a in adjacencies])
        z_x = np.stack([deq.features_c for deq in deqs])
        for block in self.feature_layers:
            z_x = z_x + block.apply(z_x, p)
        z_cols = self.columns(np.stack([deq.adjacency_c for deq in deqs]))
        for block in self.adjacency_layers:
            z_cols = z_cols + block.apply(z_cols)
        return [LatentPoint(z_adjacency=z_a, z_features=z_f)
                for z_a, z_f in zip(self.adjacencies(z_cols), z_x)]


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
    model = GrfModel(ModelConfig(**cfg_dict), stored=lambda name, shape: np.asarray(
        _checkpoint_array(data, f"param::{name}", shape), dtype=np.float64))
    extra_arrays = {key[len("extra::"):]: data[key].copy()
                    for key in data.files if key.startswith("extra::")}
    return model, extra_arrays, meta["extra"]
