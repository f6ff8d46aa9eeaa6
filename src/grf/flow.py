"""Contractive residual flows for molecular graph tensors.

Two stacks of shape-preserving residual blocks: graph-convolution blocks
for the node-feature matrix (conditioned on the discrete adjacency
through the normalized operator P) and multilayer-perceptron blocks for
the adjacency tensor.  Every linear weight is kept below a spectral-norm
budget, which makes each block a contraction, each residual layer
invertible by fixed-point iteration, and the log-det power series
convergent.

Blocks run on plain numpy arrays through three kernels, `_dot`, `_elu`
and `_elu_prime`.  Training differentiates a block through its two
hand-written reverse passes, `jvp_many_vjp` and `forward_vjp`.  The
kernels also run on complex arrays, branch by branch as on real ones
(numpy orders complex numbers by their real part first), which is what
the tests' complex-step gradient reference relies on.
"""

from __future__ import annotations

import json
import math
import numbers
import re
import zipfile
from dataclasses import asdict, dataclass

import numpy as np

from .graphs import GraphSchema, GraphTensors, augmented_normalized_adjacency
# operator_norm_power is a raising placeholder with no caller; perfbench/tracing.py
# still patches grf.flow.operator_norm_power by name until ROADMAP R1a.
from .linalg import NumericalError, operator_norm_power  # noqa: F401

CHECKPOINT_VERSION = 5


@dataclass
class ModelConfig:
    """Architecture and numerics of one flow model.

    Every adjacency block shares one MLP across the node rows of the
    adjacency tensor: a slice is one node's bonds, d = n_max * n_bond_types
    entries, so the parameter count scales with N^2 rather than N^4.
    `adjacency_rank` > 0 factors each adjacency weight into a rank-r
    product.  The defaults are the toy profile, `configs/toy.json`.
    """

    n_max: int = 6
    atom_symbols: tuple[str, ...] = ("C", "N", "O", "F")
    n_bond_types: int = 4
    gcn_blocks: int = 1
    gcn_layers: int = 1
    mlp_blocks: int = 4
    mlp_layers: int = 2
    adjacency_rank: int = 0
    use_bias: bool = False
    lipschitz_budget: float = 0.9
    noise_scale: float = 0.9
    init_scale: float = 0.5
    seed: int = 0

    def __post_init__(self):
        symbols = self.atom_symbols
        if (not isinstance(symbols, (list, tuple)) or not symbols
                or not all(isinstance(s, str) for s in symbols)
                or len(set(symbols)) < len(symbols)):
            raise ValueError("atom_symbols must be a non-empty list of distinct strings, "
                             f"got {symbols!r}")
        self.atom_symbols = tuple(symbols)
        if not 0.0 < self.lipschitz_budget < 1.0:
            raise ValueError("lipschitz_budget must lie in (0, 1)")
        if not 0.0 < self.noise_scale < 1.0:
            raise ValueError("noise_scale must lie in (0, 1)")
        if not 0.0 < self.init_scale < math.inf:
            raise ValueError("init_scale must be a positive finite number")
        require_integers(self, 1, "n_max", "n_bond_types", "gcn_blocks", "gcn_layers",
                         "mlp_blocks", "mlp_layers")
        require_integers(self, 0, "adjacency_rank")


def require_integers(config, low: int, *names: str) -> None:
    """`require_integer` on every named field of `config`."""
    for name in names:
        require_integer(name, getattr(config, name), low)


def require_integer(name: str, value, low: int) -> None:
    """ValueError naming `name` unless `value` is an integer >= `low` (a
    bool is not one)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


def toy_config(**overrides) -> ModelConfig:
    """The desk-scale profile, `ModelConfig`'s defaults, with `overrides`."""
    return ModelConfig(**overrides)


def qm9_table_config(**overrides) -> ModelConfig:
    """The published QM9 shape: 1x1 GCN, 32x25 MLP."""
    base = dict(n_max=9, gcn_blocks=1, gcn_layers=1, mlp_blocks=32, mlp_layers=25, seed=0)
    base.update(overrides)
    return ModelConfig(**base)


# ---------------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------------

def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a contracted with b over a's last and b's first axis, as one 2-D product."""
    out = a.reshape(-1, a.shape[-1]) @ b.reshape(b.shape[0], -1)
    return out.reshape(a.shape[:-1] + b.shape[1:])


def _elu(x: np.ndarray) -> np.ndarray:
    # expm1(min(x, 0)) is elu(x) on the negative branch and 0 <= x on the
    # other, so one maximum selects the branch; all three passes share one
    # buffer (an explicit `out`, so a 0-d input also stays an array).
    out = np.minimum(x, 0.0, out=np.empty_like(x))
    np.expm1(out, out=out)
    return np.maximum(x, out, out=out)


def _elu_prime(x: np.ndarray) -> np.ndarray:
    # exp(min(x, 0)) is exp(x) on the negative branch and exactly 1 elsewhere
    return np.exp(np.minimum(x, 0.0))


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


def _margin(weights: list) -> float:
    """The relative margin m = 4 (d + 1)^2 u (u = 2^-53) below a block's
    per-weight bound at which `_clamp` puts a weight and `_certify`
    tests it; d is the weights' dimension.  It is about 1.1e-14 at d = 4,
    6.1e-13 at d = 36 and 1.0e-11 at d = 152."""
    w = weights[0]
    d = (w.u if isinstance(w, FactoredWeight) else w).shape[0]
    return (d + 1) ** 2 * 2.0 ** -51


def _certify(weights: list, bound: float) -> bool:
    """True only if every weight provably has sigma < `bound`.

    A rank-r weight is measured by `_sigmas` (an r x r SVD).  Dense (d, d)
    weights go through one batched Cholesky of A = c I - fl(W^T W), with
    c = bound^2 (1 - m) and m = `_margin(weights)`.  It proves sigma <
    bound when it factors: with u = 2^-53 and g_n = n u / (1 - n u),
    - the Gram product errs by at most g_d ||W||_F^2 <= g_d d sigma^2 in
      2-norm, and the diagonal subtraction by u (c + sigma^2 (1 + g_d));
    - a Cholesky that completes is exact for A + dA with |dA| <= g_(d+1)
      |R^T| |R| (Higham, Accuracy and Stability of Numerical Algorithms,
      Thm 10.3), so ||dA||_2 <= g_(d+1) tr(A) / (1 - g_(d+1)) <= g_(d+1) d
      c / (1 - g_(d+1)), as tr(A) <= d c;
    - R^T R is positive semidefinite, so sigma^2 <= c (1 + (2 d^2 + d + 4)
      u + O(u^2)), counting the two roundings of c as well.  That is
      below bound^2 because m = 4 (d + 1)^2 u exceeds (2 d^2 + d + 4) u.
    A weight at sigma <= bound (1 - m) leaves A a gap of ~m bound^2, far
    above the rounding seen in practice, so it factors.  A weight within
    the margin of the bound may fail, which is safe, and so does a
    non-finite one.
    """
    if isinstance(weights[0], FactoredWeight):
        return bool((_sigmas(weights) < bound).all())
    stack = np.stack(weights)
    if not np.isfinite(stack).all():
        return False
    a = -(stack.transpose(0, 2, 1) @ stack)
    diagonal = np.arange(a.shape[-1])
    a[:, diagonal, diagonal] += bound * bound * (1.0 - _margin(weights))
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return False
    return True


def _clamp(weights: list, bound: float, init_target: float | None = None) -> None:
    """Scale weights in place so that each one's sigma is at most `bound`,
    measuring each weight once.

    One batched `_sigmas` measures the block.  Every weight over the bound
    is scaled to bound (1 - m), m = `_margin(weights)`; with `init_target`
    (a model build) every nonzero weight is scaled to min(init_target,
    bound (1 - m)) instead.  `_certify` then proves the scaled weights
    below the bound, all at once.  Only if it cannot are they measured
    again and shrunk by the next float below bound / sigma until none
    exceeds the bound.
    """
    sigmas = _sigmas(weights)
    target = bound * (1.0 - _margin(weights))
    if init_target is None:
        picked = np.flatnonzero(sigmas > bound)
    else:
        picked = np.flatnonzero(sigmas > 0)
        target = min(target, init_target)
    for i in picked:
        _scale(weights[i], target / sigmas[i])
    if not picked.size or _certify([weights[i] for i in picked], bound):
        return
    over = picked
    while over.size:
        sigmas = _sigmas([weights[i] for i in over])
        still = sigmas > bound
        over = over[still]
        for i, sigma in zip(over, sigmas[still]):
            _scale(weights[i], np.nextafter(bound / sigma, 0.0))


_LAYER_NAME = re.compile(r"(.+\.[wb])(\d+)(\.u|\.vt|)")


def stacked_name(name: str) -> tuple[str, int]:
    """(stack, layer) of a per-layer parameter name as `named` makes it:
    a checkpoint stores each block's layers of one kind as one array, the
    stack, whose slice `layer` holds this parameter.  `adjacency.1.w0.u`
    is layer 0 of `adjacency.1.w.u`, `feature.0.b2` layer 2 of
    `feature.0.b`."""
    stack, layer, part = _LAYER_NAME.fullmatch(name).groups()
    return stack + part, int(layer)


# ---------------------------------------------------------------------------
# Residual blocks
# ---------------------------------------------------------------------------

class _ResidualBlock:
    """One residual branch f(x) = h_L of x + f(x), the layers
    h <- elu(mix(h) @ W_l + b_l) acting along the last axis of a
    (..., rows, width) input, with W_l (width, width) dense or rank-r.

    A graph-convolution block mixes the rows with the conditioning
    operator P, mix(h) = P @ h; an adjacency block has no mix (P is None),
    so every row is mapped on its own.  The per-layer weight norms bound
    the Lipschitz constant of f, and ELU's is 1.

    Tangent stacks insert a probe axis before the last: (..., rows, S,
    width) holds S tangents of each input.  A linearization `lin` is
    (P, per-layer ELU slopes shaped (..., rows, 1, width)), as `forward`
    returns it, or with the slopes tiled to (..., rows, S, width) by
    `tile_slopes` for a series that runs one stack of S probes many times.
    """

    def __init__(self, prefix: str, weights: list, biases: list, budget: float):
        self.prefix = prefix
        self.weights = weights          # per layer: dense, or FactoredWeight
        self.biases = biases            # per layer: array or None
        self.lipschitz_budget = budget
        self.depth = len(weights)

    def named_parameters(self):
        return self.named(self.weights, self.biases)

    def named(self, weights, biases):
        """(path, array) pairs of per-layer `weights` and `biases` laid out
        as this block's parameters (or as the gradients of them that
        `jvp_many_vjp` and `forward_vjp` return): weights first, a rank-r
        one as its two factors, then every bias that is not None."""
        items = []
        for l, w in enumerate(weights):
            path = f"{self.prefix}.w{l}"
            items.extend([(f"{path}.u", w.u), (f"{path}.vt", w.vt)]
                         if isinstance(w, FactoredWeight) else [(path, w)])
        for l, b in enumerate(biases):
            if b is not None:
                items.append((f"{self.prefix}.b{l}", b))
        return items

    def per_weight_bound(self) -> float:
        return self.lipschitz_budget ** (1.0 / self.depth)

    def project(self) -> None:
        _clamp(self.weights, self.per_weight_bound())

    def certified_bound(self) -> float:
        """Product of exact per-layer operator norms (an upper Lipschitz bound).

        A graph-convolution block's bound assumes ||P||_2 <= 1 for its
        mix.  That holds for the normalized operator in exact arithmetic;
        the floating-point P may exceed 1 by a few ulps, which the bound
        does not count.
        """
        return float(np.prod(_sigmas(self.weights)))

    def require_contraction(self) -> None:
        """NumericalError naming the block unless it is a certified contraction.

        One `_certify` at bound 1 proves every sigma_l < 1, and so their
        product.  Only if it cannot is `certified_bound` measured, so a
        block whose product is below 1 with some sigma_l >= 1 still
        passes, and a failure names the exact bound.  Nothing is cached:
        a weight rescaled in place is caught on the next call.
        """
        if _certify(self.weights, 1.0):
            return
        bound = self.certified_bound()
        if bound >= 1.0:
            raise NumericalError(
                f"{self.prefix}: certified Lipschitz bound {bound:.6f} >= 1, "
                "so the block is not a certified contraction")

    def _times_weight(self, h, l):
        """h @ W_l as one 2-D product over all leading axes."""
        w = self.weights[l]
        if isinstance(w, FactoredWeight):
            return _dot(_dot(h, w.u), w.vt)
        return _dot(h, w)

    def _layer_pre(self, m, l):
        """The pre-activation m @ W_l + b_l of the mixed input m = mix(h)."""
        pre = self._times_weight(m, l)
        b = self.biases[l]
        return pre if b is None else pre + b

    def apply(self, x, p=None):
        h = x
        for l in range(self.depth):
            h = _elu(self._layer_pre(_mix(p, h), l))
        return h

    def forward(self, x, p=None, keep=None):
        """(apply(x, p), lin), with the linearization `lin` = (p, slopes)
        that `jvp_many` and `jacobians` take.  A list `keep` receives each
        layer's (mix(h), pre-activation), which `forward_vjp` takes."""
        h, slopes = x, []
        for l in range(self.depth):
            m = _mix(p, h)
            pre = self._layer_pre(m, l)
            if keep is not None:
                keep.append((m, pre))
            slopes.append(_elu_prime(pre).reshape(*pre.shape[:-1], 1, pre.shape[-1]))
            h = _elu(pre)
        return h, (p, slopes)

    def jvp_many(self, u, lin, record=None):
        """Jacobian-vector products of a tangent stack u (..., rows, S, width)
        at `lin`: per layer, P @ U as (..., rows, rows) @ (..., rows, S*width)
        when there is a P, then @ W_l as one 2-D product, then times the
        slopes, broadcast over S or tiled to u's shape.  A list `record`
        receives the call's input u, then each layer's product a_l out of
        @ W_l, which `jvp_many_vjp` takes.  The tangent into @ W_l is not
        kept: it is mix(u) at l = 0 and mix(a_(l-1) * slopes) after, which
        the reverse pass rebuilds by the same operations."""
        p, slopes = lin
        if record is not None:
            record.append(u)
        for l in range(self.depth):
            if p is not None:
                u = _mix_tangents(p, u)
            a = self._times_weight(u, l)
            if record is not None:
                record.append(a)
                u = a * slopes[l]
            else:
                # in place: the product is a fresh temporary, and reusing it
                # saves an allocation per layer
                a *= slopes[l]
                u = a
        return u

    # -- reverse passes (plain arrays only) ----------------------------------
    #
    # Training differentiates one block's share of the loss, <x + f(x), g_out>
    # plus sum_k seed_k <probes, u_k>, where u_k = J^k probes comes from k
    # chained `jvp_many` calls.  The slopes carry the series' dependence on
    # the input, so `jvp_many_vjp` hands their cotangents to `forward_vjp`.
    # `jvp_many_vjp` starts the per-layer weight gradients, shaped as the
    # weights (a FactoredWeight of two gradients for a rank-r weight), and
    # `forward_vjp` adds its share to them.  Both take `transposes()`, made
    # once per block walk.

    def transposes(self):
        """Each layer's W_l^T as a contiguous array, a rank-r one as the
        FactoredWeight (Vt^T, U^T).  g @ W^T on a transposed view runs
        ~1.3x slower at (144, 36) @ (36, 36)."""
        return [FactoredWeight(u=np.ascontiguousarray(w.vt.T),
                               vt=np.ascontiguousarray(w.u.T))
                if isinstance(w, FactoredWeight) else np.ascontiguousarray(w.T)
                for w in self.weights]

    def _weight_vjp(self, l, x, g, g_weights, w_t):
        """Adds the W_l gradient of <x @ W_l, g> to g_weights[l] and returns
        g @ W_l^T, the cotangent of x, through `w_t` = W_l^T."""
        x2, g2 = x.reshape(-1, x.shape[-1]), g.reshape(-1, g.shape[-1])
        if isinstance(w_t, FactoredWeight):
            g_t = g2 @ w_t.u
            g_weights[l].vt += (x2 @ self.weights[l].u).T @ g2
            g_weights[l].u += x2.T @ g_t
            return (g_t @ w_t.vt).reshape(x.shape)
        g_weights[l] += x2.T @ g2
        return (g2 @ w_t).reshape(x.shape)

    def jvp_many_vjp(self, lin, records, probes, seeds, transposes):
        """Reverse pass of chained `jvp_many` calls u_k = J u_(k-1), u_0 =
        `probes`, for a loss sum_k seeds[k-1] * <probes, u_k>.

        `lin` holds the slopes tiled to the probe stack's (..., rows, S,
        width), as the calls took them.  `records[k-1]` is what call k
        recorded: its input, then each layer's product a_l.  The walk
        starts at the last call, and adds term k's seed to the cotangent of
        u_k as it passes it.  Layer l's tangent into @ W_l is rebuilt from
        the record, as mix(a_(l-1) * slopes), or as the mixed call input
        at l = 0: the forward pass's operands and operations, so it is the
        same array bit for bit.  Each layer's G * a_l is summed over the
        calls in the product buffer of the last call's record, which is
        not needed again, and summed over the probes once at the end.
        Returns (the weight gradients, each layer's slope cotangent shaped
        (..., rows, 1, width) as `forward`'s untiled slopes)."""
        p, slopes = lin
        g_weights = [FactoredWeight(u=np.zeros_like(w.u), vt=np.zeros_like(w.vt))
                     if isinstance(w, FactoredWeight) else np.zeros_like(w)
                     for w in self.weights]
        g_slopes = [None] * self.depth
        g = None
        for k in reversed(range(len(records))):
            seed = seeds[k] * probes
            g = seed if g is None else g + seed
            products = records[k][1:]
            for l in reversed(range(self.depth)):
                v = records[k][0] if l == 0 else products[l - 1] * slopes[l - 1]
                if p is not None:
                    v = _mix_tangents(p, v)
                a = products[l]
                np.multiply(g, a, out=a)
                if g_slopes[l] is None:
                    g_slopes[l] = a
                else:
                    g_slopes[l] += a
                g *= slopes[l]
                g = self._weight_vjp(l, v, g, g_weights, transposes[l])
                if p is not None:
                    g = _mix_transpose(p, g.reshape(*g.shape[:-2], -1)).reshape(g.shape)
        return g_weights, [_sum_probes(g_s) for g_s in g_slopes]

    def forward_vjp(self, kept, lin, g_out, g_slopes, g_weights, transposes):
        """Reverse pass of `forward` from the cotangent `g_out` of f(x) and
        `g_slopes` of its slopes, through elu' and elu''(pre) = (elu'(pre)
        where pre < 0, else 0).  `kept` is what `forward` kept and `lin`
        what it returned, with untiled slopes.  Adds the weight gradients to
        `g_weights` and returns (the bias gradients, None where a layer has
        none; the cotangent of the input x through both x and f(x))."""
        p, slopes = lin
        g_biases = [None] * self.depth
        g = g_out
        for l in reversed(range(self.depth)):
            m, pre = kept[l]
            s = slopes[l].reshape(pre.shape)
            g_pre = g * s + g_slopes[l].reshape(pre.shape) * np.where(pre < 0.0, s, 0.0)
            if self.biases[l] is not None:
                g_biases[l] = g_pre.reshape(-1, pre.shape[-1]).sum(axis=0, keepdims=True)
            g = self._weight_vjp(l, m, g_pre, g_weights, transposes[l])
            if p is not None:
                g = _mix_transpose(p, g)
        return g_biases, g_out + g


def tile_slopes(lin, n_probes: int):
    """`lin` with each layer's slopes (..., rows, 1, width) repeated to
    (..., rows, n_probes, width), so that a stack of that many probes
    multiplies them at its own shape: about twice as fast as broadcasting
    over the probe axis."""
    p, slopes = lin
    return p, [np.repeat(s, n_probes, axis=-2) for s in slopes]


def _mix(p, h):
    return h if p is None else p @ h


def _mix_transpose(p, g):
    return np.swapaxes(p, -1, -2) @ g


def _mix_tangents(p, u):
    """P @ U for a tangent stack u (..., rows, S, width), as one
    (..., rows, rows) @ (..., rows, S*width) product."""
    return (p @ u.reshape(*u.shape[:-2], -1)).reshape(u.shape)


def _sum_probes(x: np.ndarray) -> np.ndarray:
    """A tangent stack (..., rows, S, width) summed over its probe axis S,
    shaped (..., rows, 1, width).  numpy's sum over that axis of a small
    stack is ~2.5x slower than this einsum."""
    dims = "abcdefghij"[:x.ndim]
    summed = np.einsum(f"{dims}->{dims[:-2]}{dims[-1]}", x)
    return summed.reshape(*x.shape[:-2], 1, x.shape[-1])


# The benchmark tracer patches `apply`, `jvp_many` and `certified_bound` in
# each block class's own namespace, so both classes name them.

class GcnResidualBlock(_ResidualBlock):
    """Graph-convolution residual block phi(P . z . W), stacked `depth` times.

    Inputs are an (N, M) feature matrix with its (N, N) normalized
    adjacency operator P (norm at most 1), or a (B, N, M) stack of them
    with a (B, N, N) stack of P.
    """

    apply = _ResidualBlock.apply
    jvp_many = _ResidualBlock.jvp_many
    certified_bound = _ResidualBlock.certified_bound

    def jacobians(self, lin):
        """The dense (1, NM, NM) Jacobian of one graph at `lin`, from one
        `jvp_many` over the stack (N, S=N*M, M) of row-major unit matrices."""
        n, _, m = lin[1][0].shape
        basis = np.eye(n * m).reshape(n * m, n, m).transpose(1, 0, 2)
        jac = self.jvp_many(np.ascontiguousarray(basis), lin)
        return jac.transpose(0, 2, 1).reshape(1, n * m, n * m)  # [i, s] = J[i, s]


class MlpResidualBlock(_ResidualBlock):
    """Adjacency residual block phi(... phi(x W_1) ... W_k) on the rows of
    a (..., C, d) stack of adjacency slices, each mapped on its own.

    Each W is dense (d, d) or a rank-r FactoredWeight.
    """

    apply = _ResidualBlock.apply
    jvp_many = _ResidualBlock.jvp_many
    certified_bound = _ResidualBlock.certified_bound

    def jacobians(self, lin):
        """Every slice's (d, d) Jacobian at `lin`, stacked (C, d, d) (for a
        batch, every graph's slices in order): one `jvp_many` over the stack
        (..., C, S=d, d) with u[..., c, s, :] = e_s yields them all."""
        *rows, _, d = lin[1][0].shape
        basis = np.broadcast_to(np.eye(d), (*rows, d, d))
        jac = self.jvp_many(basis, lin).swapaxes(-1, -2)  # [c, i, s] = J_c[i, s]
        return jac.reshape(-1, d, d)


# ---------------------------------------------------------------------------
# Model
# ---------------------------------------------------------------------------

class GrfModel:
    """Stacked feature and adjacency residual flows plus a standard-normal prior."""

    def __init__(self, config: ModelConfig, stored=None):
        """Random weights scaled under the budget, or the stored ones.

        `stored(name, shape)` returns one named parameter, as
        `named_parameters` names it, and the blocks take it as it is.
        `load_checkpoint` passes the arrays of a file; the tests pass
        complex perturbations of a model's own arrays, which builds the
        twin their complex-step gradient reference runs.  Without it each
        weight is a standard-normal draw from the seeded stream, in block
        and layer order, and each bias starts at zero without drawing.  A
        draw is then scaled block by block: one batched measure, every
        weight scaled to its share of `init_scale` or just under its bound
        if that is smaller, and one certificate, as `_clamp` does.
        """
        self.config = config
        self.schema = GraphSchema(n_max=config.n_max, atom_symbols=config.atom_symbols,
                                  n_bond_types=config.n_bond_types)
        m = self.schema.n_atom_types
        # an adjacency slice is one node's row of the (N, N, R) tensor
        self.slice_dim = d = config.n_max * config.n_bond_types
        rng = np.random.default_rng(config.seed)

        def drawn(name, shape):
            is_bias = stacked_name(name)[0].endswith(".b")
            return np.zeros(shape) if is_bias else rng.standard_normal(shape)

        source = drawn if stored is None else stored

        def layers(prefix, dim, rank, depth):
            weights = [FactoredWeight(u=source(f"{prefix}.w{l}.u", (dim, rank)),
                                      vt=source(f"{prefix}.w{l}.vt", (rank, dim)))
                       if rank > 0 else source(f"{prefix}.w{l}", (dim, dim))
                       for l in range(depth)]
            biases = [source(f"{prefix}.b{l}", (1, dim)) if config.use_bias else None
                      for l in range(depth)]
            return weights, biases

        self.feature_layers: list[GcnResidualBlock] = [
            GcnResidualBlock(f"feature.{b}", *layers(f"feature.{b}", m, 0, config.gcn_layers),
                             budget=config.lipschitz_budget)
            for b in range(config.gcn_blocks)]
        self.adjacency_layers: list[MlpResidualBlock] = [
            MlpResidualBlock(f"adjacency.{b}",
                             *layers(f"adjacency.{b}", d, config.adjacency_rank,
                                     config.mlp_layers),
                             budget=config.lipschitz_budget)
            for b in range(config.mlp_blocks)]

        if stored is None:
            for block in self.blocks():
                _clamp(block.weights, block.per_weight_bound(),
                       init_target=config.init_scale ** (1.0 / block.depth))

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
        """P of one (N, N, R) adjacency or of a (..., N, N, R) stack, in one
        call of this module's `augmented_normalized_adjacency`: the name
        the benchmark tracer patches."""
        return augmented_normalized_adjacency(adjacency)

    # -- the flow ----------------------------------------------------------------

    def encode(self, deq: GraphTensors, adjacency: np.ndarray) -> GraphTensors:
        """Latent points of a batch of dequantized graphs, each conditioned
        on its discrete adjacency in the (B, N, N, R) stack `adjacency`.
        Only the latents are needed, so the blocks run slope-free `apply`
        and no layer input is kept.

        The blocks' weights are trusted as they are: the CLI certifies
        every block when it loads a checkpoint."""
        return self.stacks(deq, self.conditioning_operator(adjacency),
                           lambda block, h, p: block.apply(h, p))

    def stacks(self, t: GraphTensors, p, branch) -> GraphTensors:
        """The image of `t`: x + branch(block, x, p) through each feature
        block, then h + branch(block, h, None) through each adjacency block
        on the (..., C, d) view h of the adjacency, returned in its shape.
        Eval, `encode` and training's backward walk differ only in `branch`.

        `t` is one molecule with its (N, N) operator `p`, or a batch with a
        (B, N, N) stack of them.  The adjacency blocks' rows are the N node
        rows.
        """
        x, a = t.features, t.adjacency
        for block in self.feature_layers:
            x = x + branch(block, x, p)
        h = a.reshape(*a.shape[:-3], -1, self.slice_dim)
        for block in self.adjacency_layers:
            h = h + branch(block, h, None)
        return GraphTensors(adjacency=h.reshape(a.shape), features=x)


def count_parameters(model: GrfModel) -> int:
    """Exact number of trainable scalars (rank-r weights count 2*d*r)."""
    return int(sum(arr.size for _, arr in model.named_parameters()))


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

class CheckpointError(ValueError):
    """A checkpoint file that cannot be read back into a model."""


def save_checkpoint(path, model: GrfModel) -> None:
    """Versioned npz container: the config and the weights, one array per
    block and kind (`stacked_name`), written straight into the file.

    Round trips are bit exact: arrays are stored as raw float64.
    """
    stacks = {}
    for name, arr in model.named_parameters():
        stacks.setdefault(f"param::{stacked_name(name)[0]}", []).append(arr)
    meta = {"format_version": CHECKPOINT_VERSION, "config": asdict(model.config)}
    with open(path, "wb") as fh:
        np.savez(fh, __meta__=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
                 **{key: np.stack(arrays) for key, arrays in stacks.items()})


def load_checkpoint(path) -> tuple[GrfModel, dict, dict]:
    """Rebuild a model (bit exact) from a file that `save_checkpoint` wrote.

    Returns (model, {}, {}): the two trailing empty dicts remain only
    because perfbench/workloads.py unpacks three values, until ROADMAP
    R1a/R7 change that.  Only format version 5 is read.  A file that is
    not a checkpoint, whose metadata is not a JSON object, has another
    version, stores a config field `ModelConfig` does not have, or lacks
    a stack the model needs or holds it at the wrong shape (a layer short
    or long included), raises `CheckpointError`.
    """
    try:
        # np.load(path) leaves the file it opened unclosed when the archive
        # is corrupt, so the file is opened, and closed, here
        with open(path, "rb") as fh:
            data = np.load(fh)
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
    if not isinstance(meta, dict):
        raise CheckpointError("metadata is not a JSON object")
    version = meta.get("format_version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported format version {version!r}, "
                              f"only version {CHECKPOINT_VERSION} is read")
    # a stored field ModelConfig does not have raises a TypeError naming it
    config = ModelConfig(**meta["config"])
    depths = {"feature": config.gcn_layers, "adjacency": config.mlp_layers}
    stacks = {}

    def stored(name, shape):
        # each stack is read once; a layer's slice of a C-contiguous stack
        # is itself C-contiguous, so the blocks compute exactly as on the
        # arrays that were saved
        key, layer = stacked_name(name)
        if key not in stacks:
            full = (depths[key.split(".", 1)[0]], *shape)
            stacks[key] = np.ascontiguousarray(
                _checkpoint_array(data, f"param::{key}", full), dtype=np.float64)
        return stacks[key][layer]

    return GrfModel(config, stored=stored), {}, {}
