"""Kekulized-SMILES parsing and writing, valence rules, quality metrics.

The grammar is the kekulized subset only: atoms B C N O F P S Cl Br I,
bonds - = #, parenthesized branches, and ring closures (single digits or
%nn).  Aromatic lowercase forms, charges, isotopes and stereo markers are
out of scope; datasets are expected to be kekulized with hydrogens
removed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .graphs import MolGraph, RawGraph, unpad_graph

ValenceTable = dict[str, int]

DEFAULT_VALENCES: ValenceTable = {
    "B": 3, "C": 4, "N": 3, "O": 2, "F": 1,
    "P": 5, "S": 6, "Cl": 1, "Br": 1, "I": 1,
}

_TWO_CHAR_ATOMS = ("Cl", "Br")
_ONE_CHAR_ATOMS = frozenset("BCNOFPSI")
_BOND_CHARS = {"-": 1, "=": 2, "#": 3}
_BOND_SYMBOL = {1: "", 2: "=", 3: "#"}


class SmilesError(ValueError):
    """Parse failure, annotated with the byte offset of the offender."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.message = message
        self.position = position


class ChemError(ValueError):
    """A molecule violates a chemical prerequisite of the requested operation."""


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def parse_smiles(s: str) -> RawGraph:
    """Parse a kekulized SMILES string into atoms and explicit bonds."""
    if not s:
        raise SmilesError("empty SMILES", 0)

    atoms: list[str] = []
    bonds: dict[tuple[int, int], int] = {}
    branch_stack: list[tuple[int, int]] = []  # (attachment atom, '(' position)
    rings: dict[int, tuple[int, int | None, int]] = {}  # digit -> (atom, bond, position)
    prev: int | None = None
    pending: int | None = None
    pending_pos = 0

    def add_bond(i: int, j: int, order: int, pos: int) -> None:
        key = (min(i, j), max(i, j))
        if i == j:
            raise SmilesError("ring closure bonds an atom to itself", pos)
        if key in bonds:
            raise SmilesError("duplicate bond between the same atoms", pos)
        bonds[key] = order

    i = 0
    while i < len(s):
        ch = s[i]
        two = s[i:i + 2]
        if two in _TWO_CHAR_ATOMS or ch in _ONE_CHAR_ATOMS:
            symbol = two if two in _TWO_CHAR_ATOMS else ch
            idx = len(atoms)
            atoms.append(symbol)
            if prev is not None:
                add_bond(prev, idx, pending if pending is not None else 1, i)
            elif pending is not None:
                raise SmilesError("bond symbol with no preceding atom", pending_pos)
            pending = None
            prev = idx
            i += len(symbol)
            continue
        if ch in _BOND_CHARS:
            if pending is not None:
                raise SmilesError("two bond symbols in a row", i)
            pending = _BOND_CHARS[ch]
            pending_pos = i
            i += 1
            continue
        if ch == "(":
            if prev is None:
                raise SmilesError("branch opened before any atom", i)
            if pending is not None:
                raise SmilesError("bond symbol before a branch opening", pending_pos)
            branch_stack.append((prev, i))
            i += 1
            continue
        if ch == ")":
            if not branch_stack:
                raise SmilesError("unmatched ')'", i)
            if pending is not None:
                raise SmilesError("dangling bond symbol before ')'", pending_pos)
            prev, _ = branch_stack.pop()
            i += 1
            continue
        if ch.isdigit() or ch == "%":
            if ch == "%":
                if i + 2 >= len(s) or not s[i + 1:i + 3].isdigit():
                    raise SmilesError("'%' must be followed by two digits", i)
                digit = int(s[i + 1:i + 3])
                width = 3
            else:
                digit = int(ch)
                width = 1
            if prev is None:
                raise SmilesError("ring closure before any atom", i)
            if digit in rings:
                other, other_bond, _ = rings.pop(digit)
                if pending is not None and other_bond is not None and pending != other_bond:
                    raise SmilesError("ring closure bond orders disagree", i)
                order = pending if pending is not None else (
                    other_bond if other_bond is not None else 1)
                add_bond(prev, other, order, i)
            else:
                rings[digit] = (prev, pending, i)
            pending = None
            i += width
            continue
        raise SmilesError(f"unknown symbol {ch!r}", i)

    if pending is not None:
        raise SmilesError("dangling bond symbol at end of input", pending_pos)
    if branch_stack:
        raise SmilesError("unclosed branch", branch_stack[-1][1])
    if rings:
        digit = min(rings, key=lambda d: rings[d][2])
        raise SmilesError("dangling ring closure", rings[digit][2])
    return RawGraph(atoms=atoms, bonds=[(i, j, o) for (i, j), o in sorted(bonds.items())])


# ---------------------------------------------------------------------------
# Writing
# ---------------------------------------------------------------------------

def write_smiles(g: MolGraph | RawGraph) -> str:
    """Deterministic SMILES for a connected molecule.

    Depth-first traversal from the lowest-index atom with neighbors taken
    in ascending index order; ring-closure digits are assigned in
    encounter order and reused once closed.  The output is canonical for a
    fixed atom labeling (the same labeled graph always yields the same
    string); relabeled isomorphic inputs may yield different strings.
    """
    raw = unpad_graph(g) if isinstance(g, MolGraph) else g
    if raw.n == 0:
        raise ChemError("cannot write an empty molecule")

    neighbors: dict[int, list[tuple[int, int]]] = {i: [] for i in range(raw.n)}
    for i, j, order in raw.bonds:
        if not 1 <= order <= 3:
            raise ChemError(f"unsupported bond order {order}")
        neighbors[i].append((j, order))
        neighbors[j].append((i, order))
    for lst in neighbors.values():
        lst.sort()

    # DFS spanning tree; non-tree edges become ring closures.
    parent: dict[int, int | None] = {0: None}
    tree_children: dict[int, list[tuple[int, int]]] = {i: [] for i in range(raw.n)}
    ring_at: dict[int, list[tuple[int, int]]] = {i: [] for i in range(raw.n)}
    seen_ring: set[tuple[int, int]] = set()

    def explore(i: int) -> None:
        for j, order in neighbors[i]:
            if j not in parent:
                parent[j] = i
                tree_children[i].append((j, order))
                explore(j)
            elif j != parent[i]:
                key = (min(i, j), max(i, j))
                if key not in seen_ring:
                    seen_ring.add(key)
                    ring_at[i].append((j, order))
                    ring_at[j].append((i, order))

    explore(0)
    if len(parent) != raw.n:
        raise ChemError("molecule is not connected")

    open_digits: dict[tuple[int, int], int] = {}
    free_digits: list[int] = []
    next_digit = 1

    def take_digit() -> int:
        nonlocal next_digit
        if free_digits:
            return free_digits.pop(0)
        d = next_digit
        next_digit += 1
        if d > 99:
            raise ChemError("too many simultaneously open rings")
        return d

    def digit_str(d: int) -> str:
        return str(d) if d <= 9 else f"%{d:02d}"

    def emit(i: int) -> str:
        parts = [raw.atoms[i]]
        for j, order in ring_at[i]:
            key = (min(i, j), max(i, j))
            if key in open_digits:
                d = open_digits.pop(key)
                free_digits.append(d)
                free_digits.sort()
            else:
                d = take_digit()
                open_digits[key] = d
            parts.append(_BOND_SYMBOL[order] + digit_str(d))
        children = tree_children[i]
        for pos, (j, order) in enumerate(children):
            sub = _BOND_SYMBOL[order] + emit(j)
            parts.append(sub if pos == len(children) - 1 else "(" + sub + ")")
        return "".join(parts)

    return emit(0)


# ---------------------------------------------------------------------------
# Validity and metrics
# ---------------------------------------------------------------------------

def check_validity(g: MolGraph | RawGraph, table: ValenceTable | None = None) -> bool:
    """True iff the non-virtual atoms form one connected, valence-legal molecule.

    Requirements: at least one real atom, every atom's summed bond order
    within its maximum valence, and a single connected component.  Bonds
    incident to virtual atoms were already dropped by the unpadding.
    """
    table = DEFAULT_VALENCES if table is None else table
    raw = unpad_graph(g) if isinstance(g, MolGraph) else g
    if raw.n == 0:
        return False
    order_sum = [0] * raw.n
    adj: dict[int, list[int]] = {i: [] for i in range(raw.n)}
    for i, j, order in raw.bonds:
        order_sum[i] += order
        order_sum[j] += order
        adj[i].append(j)
        adj[j].append(i)
    for i, symbol in enumerate(raw.atoms):
        if symbol not in table:
            raise ChemError(f"no valence entry for atom type {symbol!r}")
        if order_sum[i] > table[symbol]:
            return False
    reached = {0}
    frontier = [0]
    while frontier:
        i = frontier.pop()
        for j in adj[i]:
            if j not in reached:
                reached.add(j)
                frontier.append(j)
    return len(reached) == raw.n


@dataclass
class MetricsReport:
    validity: float
    novelty: float
    uniqueness: float
    sample_count: int
    valid_count: int

    def to_dict(self) -> dict:
        return {"validity": self.validity, "novelty": self.novelty,
                "uniqueness": self.uniqueness, "sample_count": self.sample_count,
                "valid_count": self.valid_count}


def compute_metrics(generated: list[MolGraph], training_set: set[str],
                    table: ValenceTable | None = None) -> MetricsReport:
    """Validity over all samples; novelty/uniqueness over the valid ones.

    Molecule identity uses this module's deterministic SMILES strings.
    With zero valid samples, novelty and uniqueness are reported as 0 and
    `valid_count` carries the flag.
    """
    if not generated:
        raise ValueError("empty generated list")
    table = DEFAULT_VALENCES if table is None else table
    valid_strings = [write_smiles(g) for g in generated if check_validity(g, table)]
    n_valid = len(valid_strings)
    validity = n_valid / len(generated)
    if n_valid:
        novelty = sum(1 for s in valid_strings if s not in training_set) / n_valid
        uniqueness = len(set(valid_strings)) / n_valid
    else:
        novelty = 0.0
        uniqueness = 0.0
    return MetricsReport(validity=validity, novelty=novelty, uniqueness=uniqueness,
                         sample_count=len(generated), valid_count=n_valid)


# ---------------------------------------------------------------------------
# Files
# ---------------------------------------------------------------------------

def load_smiles_file(path) -> list[RawGraph]:
    """One SMILES per line of UTF-8 text; blank lines and '#' comments are
    skipped.  A line that does not parse, or is not UTF-8, raises
    `SmilesError` naming `path:line`."""
    molecules = []
    # "surrogateescape" decodes each byte that is not UTF-8 to a lone
    # surrogate, which encoding refuses, so the line at fault is known
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, start=1):
            try:
                line.encode("utf-8")
            except UnicodeEncodeError as exc:
                raise SmilesError(f"{path}:{line_no}: not UTF-8 text", exc.start) from None
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            try:
                molecules.append(parse_smiles(text))
            except SmilesError as exc:
                raise SmilesError(f"{path}:{line_no}: {exc.message}", exc.position) from exc
    return molecules


def load_valence_table(path) -> ValenceTable:
    """A JSON object mapping each element symbol to its maximum valence.

    Every valence must be a non-negative JSON integer (a bool is not one);
    anything else raises `ChemError` naming the symbol.  A file that is not
    UTF-8 JSON raises `ChemError` too; every message names the file.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except ValueError as exc:  # UnicodeDecodeError or json.JSONDecodeError
        raise ChemError(f"valence table {path}: {exc}") from None
    if not isinstance(raw, dict):
        raise ChemError(f"valence table {path} must be a JSON object mapping symbol "
                        "to integer")
    for symbol, valence in raw.items():
        if isinstance(valence, bool) or not isinstance(valence, int) or valence < 0:
            raise ChemError(f"valence table {path}: {symbol!r} maps to "
                            f"{json.dumps(valence)}, not a non-negative integer")
    return raw


def training_string_set(molecules: list[RawGraph]) -> set[str]:
    return {write_smiles(m) for m in molecules}
