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
import numbers
from dataclasses import dataclass, field

import numpy as np


class GraphError(ValueError):
    """Malformed graph data."""


def is_integer(value) -> bool:
    """True for an int or numpy integer; a bool is not one."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


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
        """The molecule of one `to_json_line` line.  Raises `GraphError`
        naming the field unless `n` and every bond field are JSON integers
        (not bools, floats or strings) and `atom_types` is a list of strings."""
        obj = json.loads(line)
        atoms, n = obj["atom_types"], obj["n"]
        if not isinstance(atoms, list) or not all(isinstance(a, str) for a in atoms):
            raise GraphError(f"'atom_types' must be a list of strings, got {atoms!r}")
        if not is_integer(n):
            raise GraphError(f"'n' must be an integer, got {n!r}")
        bonds = []
        for bond in obj["bonds"]:
            if not (isinstance(bond, list) and len(bond) == 3 and all(map(is_integer, bond))):
                raise GraphError(f"each of 'bonds' must be three integers, got {bond!r}")
            bonds.append(tuple(bond))
        if len(atoms) != n:
            raise GraphError("atom count does not match 'n'")
        return RawGraph(atoms=atoms, bonds=bonds)


@dataclass
class MolGraph:
    """Padded one-hot molecule."""

    schema: GraphSchema
    adjacency: np.ndarray  # (N, N, R) in {0, 1}
    features: np.ndarray   # (N, M) in {0, 1}

    def validate(self) -> None:
        s = self.schema
        n, m, r = s.n_max, s.n_atom_types, s.n_bond_types
        if self.adjacency.shape != (n, n, r):
            raise GraphError(f"adjacency shape {self.adjacency.shape} != {(n, n, r)}")
        if self.features.shape != (n, m):
            raise GraphError(f"features shape {self.features.shape} != {(n, m)}")
        for name, t in (("adjacency", self.adjacency), ("features", self.features)):
            if not ((t == 0.0) | (t == 1.0)).all():
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


@dataclass
class GraphTensors:
    """Continuous graph tensors: a dequantized molecule or a latent point.

    Every residual block keeps its input's shape, so both sides of the
    flow are the same pair: an (..., N, N, R) adjacency and an (..., N, M)
    feature tensor, for one molecule or a batch with any leading shape.
    """

    adjacency: np.ndarray
    features: np.ndarray

    @staticmethod
    def stack(items: list["GraphTensors"]) -> "GraphTensors":
        """One batch from single molecules, stacked along a new leading axis."""
        return GraphTensors(adjacency=np.stack([t.adjacency for t in items]),
                            features=np.stack([t.features for t in items]))

    def to_vector(self) -> np.ndarray:
        """(..., latent_dim) vectors: the flattened adjacency, then the features."""
        lead = self.features.shape[:-2]
        return np.concatenate([self.adjacency.reshape(*lead, -1),
                               self.features.reshape(*lead, -1)], axis=-1)

    @staticmethod
    def from_vector(vec: np.ndarray, schema: GraphSchema) -> "GraphTensors":
        """Inverse of `to_vector` for (..., latent_dim) vectors; the tensors are copies."""
        n, m, r = schema.n_max, schema.n_atom_types, schema.n_bond_types
        split = n * n * r
        lead = vec.shape[:-1]
        return GraphTensors(adjacency=vec[..., :split].reshape(*lead, n, n, r).copy(),
                            features=vec[..., split:].reshape(*lead, n, m).copy())


# ---------------------------------------------------------------------------
# Dequantization and quantization
# ---------------------------------------------------------------------------

def dequantize(g: MolGraph, c: float, rng_seed: int) -> GraphTensors:
    """Add c * Uniform[0, 1) noise independently to every entry.

    Flooring any resulting entry recovers the discrete value, so the map
    is exactly invertible for 0 < c < 1.
    """
    if not 0.0 < c < 1.0:
        raise ValueError("noise scale must lie in (0, 1)")
    rng = np.random.default_rng(rng_seed)
    a = g.adjacency + c * rng.random(g.adjacency.shape)
    x = g.features + c * rng.random(g.features.shape)
    return GraphTensors(adjacency=a, features=x)


def quantize_adjacency(a_cont: np.ndarray) -> np.ndarray:
    """Argmax decode of a continuous (..., N, N, R) adjacency tensor or stack.

    The tensor is symmetrized by averaging the (i, j) and (j, i) channel
    vectors before the argmax; ties go to the lowest channel index.  Self
    pairs are forced into the no-bond channel (the last one) so
    the output always satisfies the discrete invariants.
    """
    a_cont = np.asarray(a_cont, dtype=np.float64)
    sym = 0.5 * (a_cont + np.swapaxes(a_cont, -3, -2))
    out = quantize_features(sym)  # np.argmax breaks ties toward index 0
    diag = np.arange(a_cont.shape[-2])
    out[..., diag, diag, :] = 0.0
    out[..., diag, diag, -1] = 1.0
    return out


def quantize_features(x_cont: np.ndarray) -> np.ndarray:
    """Argmax decode along the last axis of (..., N, M); ties to the lowest index."""
    x_cont = np.asarray(x_cont, dtype=np.float64)
    out = np.zeros_like(x_cont)
    np.put_along_axis(out, np.argmax(x_cont, axis=-1)[..., None], 1.0, axis=-1)
    return out


# ---------------------------------------------------------------------------
# Normalized adjacency operator
# ---------------------------------------------------------------------------

def augmented_normalized_adjacency(adjacency: np.ndarray) -> np.ndarray:
    """Self-loop-augmented degree-normalized adjacency matrices, (..., N, N).

    Bond channels except the last ("no bond") are collapsed with a
    saturating sum into a single 0/1 adjacency matrix A, then
    P = (D + I)^{-1/2} (A + I) (D + I)^{-1/2}.  Every eigenvalue of P lies
    in [-1, 1], which is what keeps the graph-convolution residual blocks
    contractive.  Isolated nodes are fine: the added self loop keeps all
    degrees positive.  The argument is a (..., N, N, R) one-hot tensor or
    stack.
    """
    adjacency = np.asarray(adjacency, dtype=np.float64)
    collapsed = np.minimum(adjacency[..., :-1].sum(axis=-1), 1.0)
    diag = np.arange(collapsed.shape[-1])
    collapsed[..., diag, diag] = 0.0
    a_tilde = collapsed + np.eye(len(diag))
    d_inv_sqrt = 1.0 / np.sqrt(a_tilde.sum(axis=-1))
    return a_tilde * (d_inv_sqrt[..., :, None] * d_inv_sqrt[..., None, :])


# ---------------------------------------------------------------------------
# Padding
# ---------------------------------------------------------------------------

def pad_graph(raw: RawGraph, schema: GraphSchema) -> MolGraph:
    """Pad a raw molecule with virtual atoms/bonds to the schema's shape.

    Raises `GraphError` for too many atoms, an atom outside the schema, a
    bond whose fields are not integers, a bond index out of range or on
    the diagonal, an order outside 1..R-1, or one pair bonded twice with
    different orders.  Every other invariant of `MolGraph.validate` holds
    by construction: one column per atom row, each bond written to both
    (i, j) and (j, i), and the diagonal left in the no-bond channel.
    """
    n, m, r = schema.n_max, schema.n_atom_types, schema.n_bond_types
    if raw.n > n:
        raise GraphError(f"molecule has {raw.n} atoms, schema allows {n}")
    features = np.zeros((n, m))
    for i, symbol in enumerate(raw.atoms):
        features[i, schema.atom_index(symbol)] = 1.0
    features[raw.n:, schema.virtual_atom] = 1.0

    adjacency = np.zeros((n, n, r))
    adjacency[:, :, schema.no_bond] = 1.0
    orders: dict[tuple[int, int], int] = {}
    conflict = False
    for bond in raw.bonds:
        i, j, order = bond
        if not (type(i) is int and type(j) is int and type(order) is int
                or all(map(is_integer, bond))):
            raise GraphError(f"bond {bond!r} must hold integer atom indices and order")
        if not (0 <= i < raw.n and 0 <= j < raw.n) or i == j:
            raise GraphError(f"bond ({i}, {j}) out of range")
        if not 1 <= order <= r - 1:
            raise GraphError(f"bond order {order} outside 1..{r - 1}")
        # a pair bonded twice must keep one order; reported after the loop,
        # so an out-of-range bond later in the list is the error raised
        if orders.setdefault((i, j) if i < j else (j, i), order) != order:
            conflict = True
        ch = order - 1
        adjacency[i, j, schema.no_bond] = adjacency[j, i, schema.no_bond] = 0.0
        adjacency[i, j, ch] = adjacency[j, i, ch] = 1.0
    if conflict:
        raise GraphError("adjacency must be one-hot over bond channels")
    return MolGraph(schema=schema, adjacency=adjacency, features=features)


def random_molgraph(schema: GraphSchema, rng_seed: int) -> MolGraph:
    """Random discrete molecule tensor satisfying all invariants: 1 to
    n_max atoms, each pair bonded with probability 0.4.

    Not chemically filtered; used by property suites and shape tests.
    """
    rng = np.random.default_rng(rng_seed)
    n_real = int(rng.integers(1, schema.n_max + 1))
    atoms = [schema.atom_symbols[int(rng.integers(0, schema.n_atom_types - 1))]
             for _ in range(n_real)]
    bonds = [(i, j, int(rng.integers(0, schema.n_bond_types - 1)) + 1)
             for i in range(n_real) for j in range(i + 1, n_real) if rng.random() < 0.4]
    return pad_graph(RawGraph(atoms=atoms, bonds=bonds), schema)


def unpad_graph(g: MolGraph) -> RawGraph:
    """Induced subgraph on non-virtual atoms, in index order.

    Bonds incident to virtual atoms are dropped: a generated tensor may
    claim them, but they connect to nothing.
    """
    real = g.features[:, g.schema.virtual_atom] == 0.0
    kinds = np.argmax(g.features[real, :-1], axis=1).tolist()
    # one argmax per tensor; np.nonzero lists the bonded pairs row-major,
    # the pairs i < j are kept, and a real atom's number is the count of
    # real atoms before it
    channels = np.argmax(g.adjacency, axis=2)
    i, j = np.nonzero((channels != g.schema.no_bond) & real[:, None] & real)
    upper = i < j
    i, j = i[upper], j[upper]
    number = np.cumsum(real) - 1
    return RawGraph(atoms=[g.schema.atom_symbols[k] for k in kinds],
                    bonds=list(zip(number[i].tolist(), number[j].tolist(),
                                   (channels[i, j] + 1).tolist())))
