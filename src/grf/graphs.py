"""Molecular graph data model.

Discrete molecules are one-hot tensors: an adjacency tensor of shape
(n_max, n_max, n_bond_types) whose last channel means "no bond", and a
feature matrix of shape (n_max, n_atom_types) whose last column is the
virtual (padding) atom.  This module owns dequantization to continuous
tensors, the argmax quantizers that undo it, padding of raw parsed
molecules, and the self-loop-augmented normalized adjacency operator that
conditions the feature flow.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np


class GraphError(ValueError):
    """Malformed graph data."""


@dataclass(frozen=True)
class GraphSchema:
    """Shapes and atom vocabulary of the padded tensor representation.

    `atom_symbols` lists the real atom types in feature-column order; the
    virtual atom occupies the extra last column.  Bond channels are
    (single, double, triple, ..., no-bond): order k maps to channel k - 1
    and the last channel is the virtual "no bond".
    """

    n_max: int
    atom_symbols: tuple[str, ...]
    n_bond_types: int = 4

    @property
    def n_atom_types(self) -> int:
        return len(self.atom_symbols) + 1

    @property
    def virtual_atom(self) -> int:
        return len(self.atom_symbols)

    @property
    def no_bond(self) -> int:
        return self.n_bond_types - 1

    @property
    def latent_dim(self) -> int:
        return self.n_max * self.n_max * self.n_bond_types + self.n_max * self.n_atom_types

    def atom_index(self, symbol: str) -> int:
        try:
            return self.atom_symbols.index(symbol)
        except ValueError:
            raise GraphError(f"atom type {symbol!r} is not in the schema") from None


QM9_SCHEMA = GraphSchema(n_max=9, atom_symbols=("C", "N", "O", "F"))


@dataclass
class RawGraph:
    """Unpadded molecule straight from the parser: symbols plus bond list."""

    atoms: list[str]
    bonds: list[tuple[int, int, int]] = field(default_factory=list)  # (i, j, order)

    @property
    def n(self) -> int:
        return len(self.atoms)

    def to_json_line(self) -> str:
        return json.dumps({"n": self.n, "atom_types": list(self.atoms),
                           "bonds": [[i, j, o] for i, j, o in self.bonds]})

    @staticmethod
    def from_json_line(line: str) -> "RawGraph":
        obj = json.loads(line)
        raw = RawGraph(atoms=list(obj["atom_types"]),
                       bonds=[(int(i), int(j), int(o)) for i, j, o in obj["bonds"]])
        if raw.n != int(obj["n"]):
            raise GraphError("atom count does not match 'n'")
        return raw


@dataclass
class MolGraph:
    """Padded one-hot molecule."""

    schema: GraphSchema
    adjacency: np.ndarray  # (N, N, R) in {0, 1}
    features: np.ndarray   # (N, M) in {0, 1}

    @property
    def n_max(self) -> int:
        return self.schema.n_max

    @property
    def n_atom_types(self) -> int:
        return self.schema.n_atom_types

    @property
    def n_bond_types(self) -> int:
        return self.schema.n_bond_types

    def validate(self) -> None:
        n, m, r = self.n_max, self.n_atom_types, self.n_bond_types
        if self.adjacency.shape != (n, n, r):
            raise GraphError(f"adjacency shape {self.adjacency.shape} != {(n, n, r)}")
        if self.features.shape != (n, m):
            raise GraphError(f"features shape {self.features.shape} != {(n, m)}")
        for name, t in (("adjacency", self.adjacency), ("features", self.features)):
            if not np.isin(t, (0.0, 1.0)).all():
                raise GraphError(f"{name} entries must be 0 or 1")
        if not (self.adjacency.sum(axis=2) == 1.0).all():
            raise GraphError("adjacency must be one-hot over bond channels")
        if not (self.features.sum(axis=1) == 1.0).all():
            raise GraphError("features must be one-hot over atom types")
        if not np.array_equal(self.adjacency, self.adjacency.transpose(1, 0, 2)):
            raise GraphError("adjacency must be symmetric")
        diag = self.adjacency[np.arange(n), np.arange(n), :]
        if not (diag[:, self.schema.no_bond] == 1.0).all():
            raise GraphError("self pairs must sit in the no-bond channel")

    def real_atoms(self) -> np.ndarray:
        """Indices of non-virtual atoms."""
        return np.flatnonzero(self.features[:, self.schema.virtual_atom] == 0.0)


@dataclass
class DequantGraph:
    """Continuous tensors after adding sub-unit uniform noise."""

    adjacency_c: np.ndarray
    features_c: np.ndarray


@dataclass
class LatentPoint:
    z_adjacency: np.ndarray  # (N, N, R)
    z_features: np.ndarray   # (N, M)

    def to_vector(self) -> np.ndarray:
        return np.concatenate([self.z_adjacency.ravel(), self.z_features.ravel()])

    @staticmethod
    def from_vector(vec: np.ndarray, schema: GraphSchema) -> "LatentPoint":
        n, m, r = schema.n_max, schema.n_atom_types, schema.n_bond_types
        split = n * n * r
        return LatentPoint(z_adjacency=vec[:split].reshape(n, n, r).copy(),
                           z_features=vec[split:].reshape(n, m).copy())


# ---------------------------------------------------------------------------
# Dequantization and quantization
# ---------------------------------------------------------------------------

def dequantize(g: MolGraph, c: float, rng_seed: int) -> DequantGraph:
    """Add c * Uniform[0, 1) noise independently to every entry.

    Flooring any resulting entry recovers the discrete value, so the map
    is exactly invertible for 0 < c < 1.
    """
    if not 0.0 < c < 1.0:
        raise ValueError("noise scale must lie in (0, 1)")
    rng = np.random.default_rng(rng_seed)
    a = g.adjacency + c * rng.random(g.adjacency.shape)
    x = g.features + c * rng.random(g.features.shape)
    return DequantGraph(adjacency_c=a, features_c=x)


def quantize_adjacency(a_cont: np.ndarray) -> np.ndarray:
    """Argmax decode of a continuous adjacency tensor.

    The tensor is symmetrized by averaging the (i, j) and (j, i) channel
    vectors before the argmax; ties go to the lowest channel index.  Self
    pairs are forced into the no-bond channel (the last one) so
    the output always satisfies the discrete invariants.
    """
    a_cont = np.asarray(a_cont, dtype=np.float64)
    n = a_cont.shape[0]
    sym = 0.5 * (a_cont + a_cont.transpose(1, 0, 2))
    winners = np.argmax(sym, axis=2)  # np.argmax breaks ties toward index 0
    out = np.zeros_like(a_cont)
    ii, jj = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    out[ii, jj, winners] = 1.0
    diag = np.arange(n)
    out[diag, diag, :] = 0.0
    out[diag, diag, -1] = 1.0
    return out


def quantize_features(x_cont: np.ndarray) -> np.ndarray:
    """Row-wise argmax decode; ties to the lowest index."""
    x_cont = np.asarray(x_cont, dtype=np.float64)
    out = np.zeros_like(x_cont)
    out[np.arange(x_cont.shape[0]), np.argmax(x_cont, axis=1)] = 1.0
    return out


# ---------------------------------------------------------------------------
# Normalized adjacency operator
# ---------------------------------------------------------------------------

def augmented_normalized_adjacency(adjacency: np.ndarray) -> np.ndarray:
    """Self-loop-augmented degree-normalized adjacency matrix.

    Bond channels except the last ("no bond") are collapsed with a
    saturating sum into a single 0/1 adjacency matrix A, then
    P = (D + I)^{-1/2} (A + I) (D + I)^{-1/2}.  Every eigenvalue of P lies
    in [-1, 1], which is what keeps the graph-convolution residual blocks
    contractive.  Isolated nodes are fine: the added self loop keeps all
    degrees positive.  A 2-D argument is taken as an already-collapsed
    0/1 adjacency matrix.
    """
    adjacency = np.asarray(adjacency, dtype=np.float64)
    n = adjacency.shape[0]
    if adjacency.ndim == 2:
        collapsed = np.minimum(adjacency, 1.0)
    else:
        collapsed = np.minimum(adjacency[:, :, :-1].sum(axis=2), 1.0)
    collapsed = collapsed.copy()
    np.fill_diagonal(collapsed, 0.0)
    a_tilde = collapsed + np.eye(n)
    d_inv_sqrt = 1.0 / np.sqrt(a_tilde.sum(axis=1))
    return a_tilde * np.outer(d_inv_sqrt, d_inv_sqrt)


# ---------------------------------------------------------------------------
# Padding
# ---------------------------------------------------------------------------

def pad_graph(raw: RawGraph, schema: GraphSchema) -> MolGraph:
    """Pad a raw molecule with virtual atoms/bonds to the schema's shape."""
    n, m, r = schema.n_max, schema.n_atom_types, schema.n_bond_types
    if raw.n > n:
        raise GraphError(f"molecule has {raw.n} atoms, schema allows {n}")
    features = np.zeros((n, m))
    for i, symbol in enumerate(raw.atoms):
        features[i, schema.atom_index(symbol)] = 1.0
    features[raw.n:, schema.virtual_atom] = 1.0

    adjacency = np.zeros((n, n, r))
    adjacency[:, :, schema.no_bond] = 1.0
    for i, j, order in raw.bonds:
        if not (0 <= i < raw.n and 0 <= j < raw.n) or i == j:
            raise GraphError(f"bond ({i}, {j}) out of range")
        if not 1 <= order <= r - 1:
            raise GraphError(f"bond order {order} outside 1..{r - 1}")
        ch = order - 1
        adjacency[i, j, schema.no_bond] = adjacency[j, i, schema.no_bond] = 0.0
        adjacency[i, j, ch] = adjacency[j, i, ch] = 1.0
    g = MolGraph(schema=schema, adjacency=adjacency, features=features)
    g.validate()
    return g


def random_molgraph(schema: GraphSchema, rng_seed, bond_prob: float = 0.4) -> MolGraph:
    """Random discrete molecule tensor satisfying all invariants.

    Not chemically filtered; used by property suites and shape tests.
    """
    rng = (rng_seed if isinstance(rng_seed, np.random.Generator)
           else np.random.default_rng(rng_seed))
    n = schema.n_max
    n_real = int(rng.integers(1, n + 1))
    features = np.zeros((n, schema.n_atom_types))
    for i in range(n):
        col = int(rng.integers(0, schema.n_atom_types - 1)) if i < n_real \
            else schema.virtual_atom
        features[i, col] = 1.0
    adjacency = np.zeros((n, n, schema.n_bond_types))
    adjacency[:, :, schema.no_bond] = 1.0
    for i in range(n_real):
        for j in range(i + 1, n_real):
            if rng.random() < bond_prob:
                ch = int(rng.integers(0, schema.n_bond_types - 1))
                adjacency[i, j, schema.no_bond] = adjacency[j, i, schema.no_bond] = 0.0
                adjacency[i, j, ch] = adjacency[j, i, ch] = 1.0
    g = MolGraph(schema=schema, adjacency=adjacency, features=features)
    g.validate()
    return g


def unpad_graph(g: MolGraph) -> RawGraph:
    """Induced subgraph on non-virtual atoms, in index order.

    Bonds incident to virtual atoms are dropped: a generated tensor may
    claim them, but they connect to nothing.
    """
    real = g.real_atoms()
    atom_of = {int(orig): new for new, orig in enumerate(real)}
    symbols = [g.schema.atom_symbols[int(np.argmax(g.features[i, :-1]))] for i in real]
    bonds = []
    for a_pos, i in enumerate(real):
        for j in real[a_pos + 1:]:
            ch = int(np.argmax(g.adjacency[i, j]))
            if ch != g.schema.no_bond:
                bonds.append((atom_of[int(i)], atom_of[int(j)], ch + 1))
    return RawGraph(atoms=symbols, bonds=bonds)
