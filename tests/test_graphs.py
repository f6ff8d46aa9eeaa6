import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grf.graphs import (GraphError, GraphSchema, GraphTensors, MolGraph, RawGraph,
                        augmented_normalized_adjacency, dequantize, pad_graph,
                        quantize_adjacency, quantize_features, random_molgraph,
                        unpad_graph)

SCHEMA = GraphSchema(n_max=9, atom_symbols=("C", "N", "O", "F"))


# -- padding ---------------------------------------------------------------

def test_pad_small_molecule_adds_virtual_rows():
    g = pad_graph(RawGraph(atoms=["C", "O", "C"], bonds=[(0, 1, 1), (1, 2, 1)]), SCHEMA)
    g.validate()
    for i in range(3, 9):
        assert g.features[i, SCHEMA.virtual_atom] == 1.0
    assert g.adjacency[0, 1, 0] == 1.0 and g.adjacency[1, 0, 0] == 1.0


def test_pad_full_graph_roundtrip():
    raw = RawGraph(atoms=["C"] * 9, bonds=[(i, i + 1, 1) for i in range(8)])
    g = pad_graph(raw, SCHEMA)
    back = unpad_graph(g)
    assert back.atoms == raw.atoms and back.bonds == raw.bonds


def test_pad_rejects_oversize():
    with pytest.raises(GraphError):
        pad_graph(RawGraph(atoms=["C"] * 10), SCHEMA)


@pytest.mark.parametrize("atoms, bonds, message", [
    pytest.param(["C", "Si"], [], "atom type 'Si' is not in the schema", id="unknown-atom"),
    pytest.param(["C", "C"], [(0, 2, 1)], "bond (0, 2) out of range", id="index-too-large"),
    pytest.param(["C", "C"], [(-1, 1, 1)], "bond (-1, 1) out of range", id="index-negative"),
    pytest.param(["C", "C"], [(1, 1, 1)], "bond (1, 1) out of range", id="self-bond"),
    pytest.param(["C", "C"], [(0, 1, 0)], "bond order 0 outside 1..3", id="order-zero"),
    pytest.param(["C", "C"], [(0, 1, 4)], "bond order 4 outside 1..3", id="order-no-bond"),
    pytest.param(["C", "C", "O"], [(0, 1, 1), (1, 2, 1), (1, 0, 2)],
                 "adjacency must be one-hot over bond channels", id="conflicting-pair"),
    # a conflict is reported after every bond is checked, so a later
    # out-of-range bond is the error raised
    pytest.param(["C", "C"], [(0, 1, 1), (0, 1, 2), (0, 5, 1)], "bond (0, 5) out of range",
                 id="conflict-then-out-of-range"),
    pytest.param(["C", "C"], [(True, False, 1)], "bond (True, False, 1) must hold integer",
                 id="bool-indices"),
    pytest.param(["C", "C"], [(0, 1, True)], "bond (0, 1, True) must hold integer",
                 id="bool-order"),
    pytest.param(["C", "C"], [(0, 1, 2.0)], "bond (0, 1, 2.0) must hold integer",
                 id="float-order"),
    pytest.param(["C", "C"], [(0.0, 1, 2)], "bond (0.0, 1, 2) must hold integer",
                 id="float-index"),
    pytest.param(["C", "C"], [(0, 1, "2")], "bond (0, 1, '2') must hold integer",
                 id="string-order"),
])
def test_pad_rejects_bad_input(atoms, bonds, message):
    with pytest.raises(GraphError, match=re.escape(message)):
        pad_graph(RawGraph(atoms=atoms, bonds=bonds), SCHEMA)


def test_pad_accepts_duplicate_pairs_of_one_order_and_numpy_integers():
    once = pad_graph(RawGraph(atoms=["C", "O"], bonds=[(0, 1, 2)]), SCHEMA)
    for bonds in ([(0, 1, 2), (1, 0, 2)], [(0, 1, 2), (0, 1, 2)],
                  [(np.int64(0), np.int32(1), np.uint8(2))]):
        g = pad_graph(RawGraph(atoms=["C", "O"], bonds=bonds), SCHEMA)
        assert np.array_equal(g.adjacency, once.adjacency)
        assert np.array_equal(g.features, once.features)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10 ** 6), dup_seed=st.integers(0, 10 ** 6))
def test_padded_random_molecules_satisfy_invariants(seed, dup_seed):
    """Raw molecules, with some bonds repeated at the same order in either
    direction, pad to graphs that pass `MolGraph.validate`."""
    ref = random_molgraph(SCHEMA, seed)
    raw = unpad_graph(ref)
    rng = np.random.default_rng(dup_seed)
    extra = [(j, i, o) if rng.random() < 0.5 else (i, j, o)
             for i, j, o in raw.bonds if rng.random() < 0.5]
    g = pad_graph(RawGraph(atoms=raw.atoms, bonds=raw.bonds + extra), SCHEMA)
    g.validate()
    assert np.array_equal(g.adjacency, ref.adjacency)
    assert np.array_equal(g.features, ref.features)


def test_pad_does_not_revalidate_what_it_builds(monkeypatch, corpus_raw, toy_raw,
                                                qm9_schema, toy_schema):
    """Padding guarantees `validate`'s invariants by construction, so it
    never calls it (the check dominated padding's cost)."""
    def refuse(self):
        raise AssertionError("pad_graph called MolGraph.validate")

    monkeypatch.setattr(MolGraph, "validate", refuse)
    for raws, schema in ((corpus_raw, qm9_schema), (toy_raw, toy_schema)):
        assert len([pad_graph(raw, schema) for raw in raws]) == len(raws)


def test_unpad_recovers_atom_count():
    for smarts in (["C"], ["C", "N"], ["O", "C", "F", "C"]):
        raw = RawGraph(atoms=smarts,
                       bonds=[(i, i + 1, 1) for i in range(len(smarts) - 1)])
        assert unpad_graph(pad_graph(raw, SCHEMA)).n == len(smarts)


def test_unpad_drops_bonds_to_virtual_atoms():
    g = pad_graph(RawGraph(atoms=["C", "C"], bonds=[(0, 1, 1)]), SCHEMA)
    # forge a bond claim between a real atom and a virtual one
    g.adjacency[0, 5, 0] = g.adjacency[5, 0, 0] = 1.0
    g.adjacency[0, 5, SCHEMA.no_bond] = g.adjacency[5, 0, SCHEMA.no_bond] = 0.0
    raw = unpad_graph(g)
    assert raw.n == 2 and raw.bonds == [(0, 1, 1)]


def unpad_per_pair(g: MolGraph) -> RawGraph:
    """The reference unpadding: one argmax per atom and per pair of real atoms."""
    real = np.flatnonzero(g.features[:, g.schema.virtual_atom] == 0.0)
    atom_of = {int(orig): new for new, orig in enumerate(real)}
    symbols = [g.schema.atom_symbols[int(np.argmax(g.features[i, :-1]))] for i in real]
    bonds = []
    for a_pos, i in enumerate(real):
        for j in real[a_pos + 1:]:
            ch = int(np.argmax(g.adjacency[i, j]))
            if ch != g.schema.no_bond:
                bonds.append((atom_of[int(i)], atom_of[int(j)], ch + 1))
    return RawGraph(atoms=symbols, bonds=bonds)


def assert_unpads_as_per_pair(g: MolGraph) -> None:
    raw, ref = unpad_graph(g), unpad_per_pair(g)
    assert raw == ref
    assert raw.to_json_line() == ref.to_json_line()


def test_unpad_matches_per_pair_reference_on_random_graphs():
    for seed in range(40):
        assert_unpads_as_per_pair(random_molgraph(SCHEMA, seed))


def test_unpad_matches_per_pair_reference_on_generated_graphs():
    from grf.flow import GrfModel, toy_config
    from grf.inversion import InversionConfig, generate

    model = GrfModel(toy_config(init_scale=0.9, seed=3))
    mols = generate(model, 24, 1.0, 1.0, InversionConfig(), rng_seed=4)
    assert any(unpad_per_pair(m).bonds for m in mols)
    for g in mols:
        assert_unpads_as_per_pair(g)


def test_unpad_breaks_ties_toward_the_lowest_index():
    rng = np.random.default_rng(5)
    n, m, r = SCHEMA.n_max, SCHEMA.n_atom_types, SCHEMA.n_bond_types
    for _ in range(20):
        # 0/1 entries tie often, in atoms and bond channels alike
        g = MolGraph(schema=SCHEMA, adjacency=rng.integers(0, 2, (n, n, r)).astype(float),
                     features=rng.integers(0, 2, (n, m)).astype(float))
        assert_unpads_as_per_pair(g)
    adjacency = np.zeros((n, n, r))
    adjacency[:, :, SCHEMA.no_bond] = 1.0
    adjacency[0, 1] = adjacency[1, 0] = [0.0, 1.0, 1.0, 1.0]
    features = np.zeros((n, m))
    features[:, SCHEMA.virtual_atom] = 1.0
    features[:2] = [[0.0, 1.0, 1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 1.0, 0.0]]
    raw = unpad_graph(MolGraph(schema=SCHEMA, adjacency=adjacency, features=features))
    assert raw.atoms == ["N", "C"] and raw.bonds == [(0, 1, 2)]
    features[:2] = features[2]  # every atom virtual: the bond claim goes too
    assert_unpads_as_per_pair(MolGraph(schema=SCHEMA, adjacency=adjacency, features=features))
    assert unpad_graph(MolGraph(schema=SCHEMA, adjacency=adjacency, features=features)).n == 0


# -- dequantize / quantize ----------------------------------------------------

def test_dequantize_range():
    g = random_molgraph(SCHEMA, 0)
    deq = dequantize(g, 0.9, 123)
    assert deq.adjacency.min() >= 0.0 and deq.adjacency.max() < 1.9
    assert deq.features.min() >= 0.0 and deq.features.max() < 1.9


def test_dequantize_small_noise_limit():
    g = random_molgraph(SCHEMA, 1)
    deq = dequantize(g, 1e-12, 5)
    assert np.abs(deq.adjacency - g.adjacency).max() < 1e-11


def test_dequantize_rejects_bad_scale():
    g = random_molgraph(SCHEMA, 2)
    for c in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(ValueError):
            dequantize(g, c, 0)


def test_dequantize_deterministic():
    g = random_molgraph(SCHEMA, 3)
    a = dequantize(g, 0.9, 77)
    b = dequantize(g, 0.9, 77)
    assert np.array_equal(a.adjacency, b.adjacency)
    assert np.array_equal(a.features, b.features)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10 ** 9), st.floats(0.05, 0.95))
def test_floor_recovers_discrete(seed, c):
    g = random_molgraph(SCHEMA, seed)
    deq = dequantize(g, c, seed + 1)
    assert np.array_equal(np.floor(deq.adjacency), g.adjacency)
    assert np.array_equal(np.floor(deq.features), g.features)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_quantize_roundtrip(seed):
    g = random_molgraph(SCHEMA, seed)
    deq = dequantize(g, 0.9, seed + 17)
    assert np.array_equal(quantize_adjacency(deq.adjacency), g.adjacency)
    assert np.array_equal(quantize_features(deq.features), g.features)


def test_quantize_adjacency_examples():
    a = np.zeros((2, 2, 4))
    a[0, 1] = a[1, 0] = [0.95, 0.1, 0.1, 0.1]
    a[0, 0] = a[1, 1] = [0, 0, 0, 1]
    out = quantize_adjacency(a)
    assert out[0, 1, 0] == 1.0 and out[0, 1].sum() == 1.0


def test_quantize_adjacency_tie_breaks_low():
    a = np.zeros((2, 2, 4))
    a[0, 1] = a[1, 0] = [0.5, 0.5, 0.0, 0.0]
    out = quantize_adjacency(a)
    assert out[0, 1, 0] == 1.0


def test_quantize_adjacency_symmetrizes_before_argmax():
    a = np.zeros((2, 2, 4))
    a[0, 1] = [1.0, 0.0, 0.0, 0.0]
    a[1, 0] = [0.0, 0.8, 0.0, 0.0]
    out = quantize_adjacency(a)
    # averages: channel0 = 0.5, channel1 = 0.4 -> single bond both ways
    assert out[0, 1, 0] == 1.0 and out[1, 0, 0] == 1.0


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_quantize_output_always_satisfies_invariants(seed):
    rng = np.random.default_rng(seed)
    cont = rng.standard_normal((5, 5, 4))
    feats = rng.standard_normal((5, 5))
    g = MolGraph(schema=GraphSchema(5, ("C", "N", "O", "F")),
                 adjacency=quantize_adjacency(cont),
                 features=quantize_features(feats))
    g.validate()


def test_quantize_features_examples():
    out = quantize_features(np.array([[0.2, 1.7, 0.4]]))
    assert np.array_equal(out, [[0, 1, 0]])
    tie = quantize_features(np.array([[0.7, 0.7, 0.1]]))
    assert np.array_equal(tie, [[1, 0, 0]])


# -- normalized adjacency -------------------------------------------------------

def test_normalized_adjacency_isolated_node():
    a = np.zeros((1, 1, 4))
    a[0, 0, 3] = 1.0
    assert np.array_equal(augmented_normalized_adjacency(a), [[1.0]])


def test_normalized_adjacency_single_bond_pair():
    g = pad_graph(RawGraph(atoms=["C", "C"], bonds=[(0, 1, 1)]),
                  GraphSchema(2, ("C",)))
    p = augmented_normalized_adjacency(g.adjacency)
    assert np.allclose(p, [[0.5, 0.5], [0.5, 0.5]])


def test_normalized_adjacency_corpus_norm_bound(corpus_graphs):
    for g in corpus_graphs:
        p = augmented_normalized_adjacency(g.adjacency)
        assert np.allclose(p, p.T)
        sigma = np.linalg.svd(p, compute_uv=False).max()
        assert sigma <= 1.0 + 1e-9


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 16), st.floats(0.05, 0.95), st.integers(0, 10 ** 9))
def test_normalized_adjacency_spectrum_property(n, p_edge, seed):
    rng = np.random.default_rng(seed)
    mat = np.triu((rng.random((n, n)) < p_edge).astype(float), 1)
    mat = mat + mat.T
    one_hot = np.stack([mat, 1.0 - mat], axis=-1)
    lam = np.linalg.eigvalsh(augmented_normalized_adjacency(one_hot))
    assert np.abs(lam).max() <= 1.0 + 1e-9


# -- batched graph functions against the per-molecule references ---------------

def quantize_adjacency_one(a_cont):
    """The reference adjacency decode: one (N, N, R) tensor at a time."""
    a_cont = np.asarray(a_cont, dtype=np.float64)
    n = a_cont.shape[0]
    sym = 0.5 * (a_cont + a_cont.transpose(1, 0, 2))
    winners = np.argmax(sym, axis=2)
    out = np.zeros_like(a_cont)
    ii, jj = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    out[ii, jj, winners] = 1.0
    diag = np.arange(n)
    out[diag, diag, :] = 0.0
    out[diag, diag, -1] = 1.0
    return out


def quantize_features_one(x_cont):
    """The reference feature decode: one (N, M) matrix at a time."""
    x_cont = np.asarray(x_cont, dtype=np.float64)
    out = np.zeros_like(x_cont)
    out[np.arange(x_cont.shape[0]), np.argmax(x_cont, axis=1)] = 1.0
    return out


def normalized_adjacency_one(adjacency):
    """The reference operator: one adjacency at a time, by np.outer."""
    adjacency = np.asarray(adjacency, dtype=np.float64)
    n = adjacency.shape[0]
    collapsed = np.minimum(adjacency[:, :, :-1].sum(axis=2), 1.0)
    np.fill_diagonal(collapsed, 0.0)
    a_tilde = collapsed + np.eye(n)
    d_inv_sqrt = 1.0 / np.sqrt(a_tilde.sum(axis=1))
    return a_tilde * np.outer(d_inv_sqrt, d_inv_sqrt)


def assert_bits_per_molecule(batched, reference, stack, inner_ndim):
    """`batched(stack)` equals `reference` on every inner tensor, bit for bit."""
    out = batched(stack)
    lead = stack.shape[:stack.ndim - inner_ndim]
    flat_in = stack.reshape((-1,) + stack.shape[len(lead):])
    expected = np.stack([reference(t) for t in flat_in])
    assert out.shape == lead + expected.shape[1:]
    assert np.array_equal(out.reshape(expected.shape).view(np.int64), expected.view(np.int64))


def all_virtual_molecule(schema=SCHEMA):
    n, m, r = schema.n_max, schema.n_atom_types, schema.n_bond_types
    adjacency = np.zeros((n, n, r))
    adjacency[:, :, schema.no_bond] = 1.0
    features = np.zeros((n, m))
    features[:, schema.virtual_atom] = 1.0
    return MolGraph(schema=schema, adjacency=adjacency, features=features)


LEADING_SHAPES = [(), (5,), (2, 3)]


@pytest.mark.parametrize("lead", LEADING_SHAPES, ids=["single", "B", "B1xB2"])
def test_batched_quantizers_match_per_molecule_reference(lead):
    rng = np.random.default_rng(31)
    n, m, r = SCHEMA.n_max, SCHEMA.n_atom_types, SCHEMA.n_bond_types
    for k in range(40):
        if k % 2:  # values on a coarse grid tie often, across channels and pairs alike
            a = rng.integers(0, 3, lead + (n, n, r)) / 2.0
            x = rng.integers(0, 3, lead + (n, m)) / 2.0
        else:
            a = rng.standard_normal(lead + (n, n, r))
            x = rng.standard_normal(lead + (n, m))
        assert_bits_per_molecule(quantize_adjacency, quantize_adjacency_one, a, 3)
        assert_bits_per_molecule(quantize_features, quantize_features_one, x, 2)
    g = all_virtual_molecule()
    for a, x in ((g.adjacency, g.features), (np.ones((n, n, r)), np.ones((n, m)))):
        assert_bits_per_molecule(quantize_adjacency, quantize_adjacency_one,
                                 np.broadcast_to(a, lead + a.shape).copy(), 3)
        assert_bits_per_molecule(quantize_features, quantize_features_one,
                                 np.broadcast_to(x, lead + x.shape).copy(), 2)


def test_batched_quantizers_break_ties_low_and_force_self_pairs():
    out = quantize_adjacency(np.ones((2, 3, 3, 4)))
    off = ~np.eye(3, dtype=bool)
    assert (out[:, off, 0] == 1.0).all() and (out[:, off].sum(axis=-1) == 1.0).all()
    assert (out[:, [0, 1, 2], [0, 1, 2]] == [0.0, 0.0, 0.0, 1.0]).all()
    assert np.array_equal(quantize_features(np.ones((2, 3, 5)))[..., 0], np.ones((2, 3)))


@pytest.mark.parametrize("lead", LEADING_SHAPES, ids=["single", "B", "B1xB2"])
def test_batched_operator_matches_per_molecule_reference(lead):
    size = int(np.prod(lead, dtype=int))
    for k in range(8):
        graphs = [random_molgraph(SCHEMA, 1000 * k + i) for i in range(size)]
        stack = np.stack([g.adjacency for g in graphs]).reshape(lead + graphs[0].adjacency.shape)
        assert_bits_per_molecule(augmented_normalized_adjacency, normalized_adjacency_one,
                                 stack, 3)
    a = all_virtual_molecule().adjacency
    empty = np.broadcast_to(a, lead + a.shape).copy()
    assert_bits_per_molecule(augmented_normalized_adjacency, normalized_adjacency_one, empty, 3)
    assert (augmented_normalized_adjacency(empty) == np.eye(SCHEMA.n_max)).all()


# -- serialization ----------------------------------------------------------------

def test_raw_graph_json_roundtrip():
    raw = RawGraph(atoms=["C", "O"], bonds=[(0, 1, 2)])
    line = raw.to_json_line()
    back = RawGraph.from_json_line(line)
    assert back.atoms == raw.atoms and back.bonds == raw.bonds


def test_raw_graph_json_rejects_bad_count():
    """A count that disagrees with the atoms, and any field of the wrong
    JSON type, is a `GraphError` naming the field; nothing is coerced."""
    for line, field in [
        ('{"n": 3, "atom_types": ["C"], "bonds": []}', "atom count"),
        ('{"n": 2.9, "atom_types": ["C", "C"], "bonds": [[0, 1, 1.7]]}', "'n'"),
        ('{"n": 2.0, "atom_types": ["C", "C"], "bonds": []}', "'n'"),
        ('{"n": "2", "atom_types": ["C", "C"], "bonds": []}', "'n'"),
        ('{"n": true, "atom_types": ["C"], "bonds": []}', "'n'"),
        ('{"n": 2, "atom_types": "CC", "bonds": []}', "'atom_types'"),
        ('{"n": 1, "atom_types": [6], "bonds": []}', "'atom_types'"),
        ('{"n": 2, "atom_types": ["C", "C"], "bonds": [[0, true, "2"]]}', "'bonds'"),
        ('{"n": 2, "atom_types": ["C", "C"], "bonds": [[0, 1, 1.0]]}', "'bonds'"),
        ('{"n": 2, "atom_types": ["C", "C"], "bonds": [[0, 1]]}', "'bonds'"),
    ]:
        with pytest.raises(GraphError, match=field):
            RawGraph.from_json_line(line)


def test_latent_point_vector_roundtrip():
    rng = np.random.default_rng(4)
    for lead in ((), (3,), (2, 3)):
        z = GraphTensors(adjacency=rng.standard_normal((*lead, 9, 9, 4)),
                         features=rng.standard_normal((*lead, 9, 5)))
        vec = z.to_vector()
        assert vec.shape == (*lead, SCHEMA.latent_dim)
        back = GraphTensors.from_vector(vec, SCHEMA)
        assert np.array_equal(back.adjacency, z.adjacency)
        assert np.array_equal(back.features, z.features)
        assert not np.shares_memory(back.adjacency, vec)
    # a batch's vectors are its molecules' vectors, row by row
    one = [GraphTensors(adjacency=z.adjacency[0, i], features=z.features[0, i])
           for i in range(3)]
    assert np.array_equal(GraphTensors.stack(one).to_vector(), vec[0])
    assert np.array_equal(vec[0, 1], one[1].to_vector())


def test_molgraph_validate_takes_signed_zeros_and_rejects_nan():
    g = random_molgraph(SCHEMA, 10)
    for t in (g.adjacency, g.features):
        t[t == 0.0] = -0.0
    g.validate()
    for name in ("adjacency", "features"):
        for bad in (np.nan, 0.5):
            g = random_molgraph(SCHEMA, 10)
            t = getattr(g, name)
            t.flat[np.flatnonzero(t == 0.0)[0]] = bad
            with pytest.raises(GraphError, match=f"{name} entries must be 0 or 1"):
                g.validate()


def test_molgraph_validate_catches_asymmetry():
    g = random_molgraph(SCHEMA, 9)
    g.adjacency[0, 1, 0] = 1.0 - g.adjacency[0, 1, 0]
    with pytest.raises(GraphError):
        g.validate()
