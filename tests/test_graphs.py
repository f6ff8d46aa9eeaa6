import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grf.graphs import (GraphError, GraphSchema, LatentPoint, MolGraph, RawGraph,
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


# -- dequantize / quantize ----------------------------------------------------

def test_dequantize_range():
    g = random_molgraph(SCHEMA, 0)
    deq = dequantize(g, 0.9, 123)
    assert deq.adjacency_c.min() >= 0.0 and deq.adjacency_c.max() < 1.9
    assert deq.features_c.min() >= 0.0 and deq.features_c.max() < 1.9


def test_dequantize_small_noise_limit():
    g = random_molgraph(SCHEMA, 1)
    deq = dequantize(g, 1e-12, 5)
    assert np.abs(deq.adjacency_c - g.adjacency).max() < 1e-11


def test_dequantize_rejects_bad_scale():
    g = random_molgraph(SCHEMA, 2)
    for c in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(ValueError):
            dequantize(g, c, 0)


def test_dequantize_deterministic():
    g = random_molgraph(SCHEMA, 3)
    a = dequantize(g, 0.9, 77)
    b = dequantize(g, 0.9, 77)
    assert np.array_equal(a.adjacency_c, b.adjacency_c)
    assert np.array_equal(a.features_c, b.features_c)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10 ** 9), st.floats(0.05, 0.95))
def test_floor_recovers_discrete(seed, c):
    g = random_molgraph(SCHEMA, seed)
    deq = dequantize(g, c, seed + 1)
    assert np.array_equal(np.floor(deq.adjacency_c), g.adjacency)
    assert np.array_equal(np.floor(deq.features_c), g.features)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_quantize_roundtrip(seed):
    g = random_molgraph(SCHEMA, seed)
    deq = dequantize(g, 0.9, seed + 17)
    assert np.array_equal(quantize_adjacency(deq.adjacency_c), g.adjacency)
    assert np.array_equal(quantize_features(deq.features_c), g.features)


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
    lam = np.linalg.eigvalsh(augmented_normalized_adjacency(mat))
    assert np.abs(lam).max() <= 1.0 + 1e-9


# -- serialization ----------------------------------------------------------------

def test_raw_graph_json_roundtrip():
    raw = RawGraph(atoms=["C", "O"], bonds=[(0, 1, 2)])
    line = raw.to_json_line()
    back = RawGraph.from_json_line(line)
    assert back.atoms == raw.atoms and back.bonds == raw.bonds


def test_raw_graph_json_rejects_bad_count():
    with pytest.raises(GraphError):
        RawGraph.from_json_line('{"n": 3, "atom_types": ["C"], "bonds": []}')


def test_latent_point_vector_roundtrip():
    rng = np.random.default_rng(4)
    z = LatentPoint(z_adjacency=rng.standard_normal((9, 9, 4)),
                    z_features=rng.standard_normal((9, 5)))
    back = LatentPoint.from_vector(z.to_vector(), SCHEMA)
    assert np.array_equal(back.z_adjacency, z.z_adjacency)
    assert np.array_equal(back.z_features, z.z_features)


def test_molgraph_validate_catches_asymmetry():
    g = random_molgraph(SCHEMA, 9)
    g.adjacency[0, 1, 0] = 1.0 - g.adjacency[0, 1, 0]
    with pytest.raises(GraphError):
        g.validate()
