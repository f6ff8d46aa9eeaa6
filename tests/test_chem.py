from dataclasses import asdict

import numpy as np
import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grf.chem import (ChemError, SmilesError, check_validity, compute_metrics,
                      load_smiles_file, load_valence_table, parse_smiles,
                      training_string_set, write_smiles)
from grf.graphs import GraphSchema, RawGraph, pad_graph, random_molgraph

SCHEMA = GraphSchema(n_max=9, atom_symbols=("C", "N", "O", "F"))


def to_nx(raw: RawGraph) -> nx.Graph:
    g = nx.Graph()
    for i, sym in enumerate(raw.atoms):
        g.add_node(i, symbol=sym)
    for i, j, order in raw.bonds:
        g.add_edge(i, j, order=order)
    return g


def isomorphic(a: RawGraph, b: RawGraph) -> bool:
    return nx.is_isomorphic(
        to_nx(a), to_nx(b),
        node_match=lambda u, v: u["symbol"] == v["symbol"],
        edge_match=lambda u, v: u["order"] == v["order"])


# -- parsing ------------------------------------------------------------------

def test_parse_single_atom():
    raw = parse_smiles("C")
    assert raw.atoms == ["C"] and raw.bonds == []


def test_parse_double_bond():
    raw = parse_smiles("C=O")
    assert raw.atoms == ["C", "O"] and raw.bonds == [(0, 1, 2)]


def test_parse_cyclohexane_matches_hand_built_cycle():
    raw = parse_smiles("C1CCCCC1")
    expected = RawGraph(atoms=["C"] * 6,
                        bonds=[(i, i + 1, 1) for i in range(5)] + [(0, 5, 1)])
    assert isomorphic(raw, expected)
    assert len(raw.bonds) == 6


def test_parse_two_char_atoms_and_branches():
    raw = parse_smiles("ClC(Br)(I)CP")
    assert raw.atoms == ["Cl", "C", "Br", "I", "C", "P"]


def test_parse_ring_bond_symbol_on_closure():
    raw = parse_smiles("C=1CCCCC=1")
    orders = {o for _, _, o in raw.bonds}
    assert (0, 5, 2) in raw.bonds or (5, 0, 2) in raw.bonds
    assert orders == {1, 2}


def test_parse_percent_ring_label():
    raw = parse_smiles("C%12CCCCC%12")
    assert len(raw.bonds) == 6


@pytest.mark.parametrize("bad,pos", [
    ("CXC", 1),            # unknown symbol
    ("C(C", 1),            # unclosed branch
    ("C1CC", 1),           # dangling ring closure
    ("C)C", 1),            # unmatched close
    ("C==C", 2),           # double bond symbol
    ("=CC", 0),            # leading bond
    ("CC=", 2),            # trailing bond
    ("C1C1", 3),           # duplicate/self bond via immediate closure
    ("", 0),               # empty
    ("C%1C", 1),           # malformed percent label
])
def test_parse_errors_carry_positions(bad, pos):
    with pytest.raises(SmilesError) as exc:
        parse_smiles(bad)
    assert exc.value.position == pos
    assert "position" in str(exc.value)


def test_parse_ring_order_conflict():
    with pytest.raises(SmilesError):
        parse_smiles("C=1CCCCC#1")


# -- writing -------------------------------------------------------------------

def test_write_single_carbon():
    assert write_smiles(RawGraph(atoms=["C"])) == "C"


def test_write_cyclohexane_reparses_to_cycle():
    raw = parse_smiles("C1CCCCC1")
    out = write_smiles(raw)
    assert isomorphic(parse_smiles(out), raw)


def test_write_rejects_disconnected():
    with pytest.raises(ChemError):
        write_smiles(RawGraph(atoms=["C", "C"], bonds=[]))


def test_write_rejects_empty():
    with pytest.raises(ChemError):
        write_smiles(RawGraph(atoms=[]))


def test_write_is_deterministic_on_molgraph(corpus_raw):
    g = pad_graph(corpus_raw[10], SCHEMA)
    assert write_smiles(g) == write_smiles(g)


def test_corpus_roundtrip_isomorphic(corpus_raw):
    for raw in corpus_raw:
        again = parse_smiles(write_smiles(raw))
        assert isomorphic(raw, again)


# -- validity -------------------------------------------------------------------

def test_validity_lone_carbon():
    assert check_validity(RawGraph(atoms=["C"]))


def test_validity_pentavalent_carbon():
    raw = RawGraph(atoms=["C", "C", "C", "C", "C", "C"],
                   bonds=[(0, j, 1) for j in range(1, 6)])
    assert not check_validity(raw)


def test_validity_requires_connectivity():
    assert not check_validity(RawGraph(atoms=["C", "C"], bonds=[]))


def test_validity_requires_real_atom():
    g = pad_graph(RawGraph(atoms=["C"]), SCHEMA)
    g.features[0, :] = 0.0
    g.features[0, SCHEMA.virtual_atom] = 1.0
    assert not check_validity(g)


def test_validity_counts_bond_orders():
    # C with two double bonds is fine (allene-like), three is not
    assert check_validity(RawGraph(atoms=["O", "C", "O"], bonds=[(0, 1, 2), (1, 2, 2)]))
    assert not check_validity(RawGraph(atoms=["O", "C", "O", "O"],
                                       bonds=[(0, 1, 2), (1, 2, 2), (1, 3, 2)]))


def test_validity_unknown_atom_raises():
    with pytest.raises(ChemError):
        check_validity(RawGraph(atoms=["C"]), table={"N": 3})


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_validity_invariant_under_relabeling(seed):
    rng = np.random.default_rng(seed)
    g = random_molgraph(SCHEMA, seed)
    perm = rng.permutation(SCHEMA.n_max)
    permuted = type(g)(schema=g.schema,
                       adjacency=g.adjacency[np.ix_(perm, perm)],
                       features=g.features[perm])
    assert check_validity(g) == check_validity(permuted)


# -- metrics -------------------------------------------------------------------

def graph_of(smiles: str):
    return pad_graph(parse_smiles(smiles), SCHEMA)


def test_metrics_zero_valid_flagged():
    bad = pad_graph(RawGraph(atoms=["C", "C"], bonds=[]), SCHEMA)
    report = compute_metrics([bad] * 10, set())
    assert report.validity == 0.0
    assert report.novelty == 0.0 and report.uniqueness == 0.0
    assert report.valid_count == 0 and report.sample_count == 10


def test_metrics_identical_copies():
    k = 4
    report = compute_metrics([graph_of("CCO")] * k, set())
    assert report.validity == 1.0
    assert report.uniqueness == pytest.approx(1.0 / k)
    assert report.novelty == 1.0


def test_metrics_mixed_batch_against_recount():
    training = {write_smiles(parse_smiles("CCO"))}
    batch = [graph_of("CCO"), graph_of("CCN"), graph_of("CCN"),
             pad_graph(RawGraph(atoms=["C", "C"], bonds=[]), SCHEMA)]
    report = compute_metrics(batch, training)
    strings = [write_smiles(g) for g in batch[:3]]
    assert report.validity == 3 / 4
    assert report.uniqueness == len(set(strings)) / 3
    assert report.novelty == sum(s not in training for s in strings) / 3
    assert set(asdict(report)) == {"validity", "novelty", "uniqueness",
                                     "sample_count", "valid_count"}


def test_metrics_order_invariant():
    batch = [graph_of("CCO"), graph_of("C"), graph_of("CCN")]
    a = compute_metrics(batch, set())
    b = compute_metrics(list(reversed(batch)), set())
    assert a == b


def test_metrics_empty_raises():
    with pytest.raises(ValueError):
        compute_metrics([], set())


# -- files ------------------------------------------------------------------------

def test_load_smiles_skips_comments(tmp_path):
    path = tmp_path / "mols.smi"
    path.write_text("# header\nCCO\n\nCC # inline note\n", encoding="utf-8")
    mols = load_smiles_file(path)
    assert [m.n for m in mols] == [3, 2]


def test_load_smiles_reports_line(tmp_path):
    path = tmp_path / "bad.smi"
    path.write_text("CCO\nCX\n", encoding="utf-8")
    with pytest.raises(SmilesError) as exc:
        load_smiles_file(path)
    assert "bad.smi:2" in str(exc.value)


def test_load_smiles_states_the_position_once(tmp_path):
    path = tmp_path / "bad.smi"
    path.write_text("CCO\nCx\n", encoding="utf-8")
    with pytest.raises(SmilesError) as exc:
        load_smiles_file(path)
    assert str(exc.value) == f"{path}:2: unknown symbol 'x' (at position 1)"
    assert str(exc.value).count("at position") == 1


def test_load_valence_table(tmp_path):
    path = tmp_path / "val.json"
    path.write_text('{"C": 4, "N": 3}', encoding="utf-8")
    assert load_valence_table(path) == {"C": 4, "N": 3}


@pytest.mark.parametrize("value", ["null", '"four"', "4.7", "true", "-1"])
def test_load_valence_table_rejects_a_non_integer_valence(value, tmp_path):
    path = tmp_path / "val.json"
    path.write_text(f'{{"C": 4, "N": {value}}}', encoding="utf-8")
    with pytest.raises(ChemError, match="'N'"):
        load_valence_table(path)


def test_training_string_set(corpus_raw):
    strings = training_string_set(corpus_raw[:10])
    assert len(strings) == 10
