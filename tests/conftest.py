from pathlib import Path

import pytest

from grf.autodiff import Tensor
from grf.chem import load_smiles_file
from grf.flow import GrfModel
from grf.graphs import QM9_SCHEMA, GraphSchema, pad_graph

REPO = Path(__file__).resolve().parent.parent
DATA = REPO / "data"

TOY_SCHEMA = GraphSchema(n_max=6, atom_symbols=("C", "N", "O", "F"))


def taped_twin(model: GrfModel) -> tuple[GrfModel, dict[str, Tensor]]:
    """The same model on the reverse-mode tape, the tests' gradient
    reference: (twin, leaves), where `leaves` maps each parameter path to a
    gradient-tracking Tensor over the model's own array, and the twin's
    blocks hold those leaves as their weights."""
    leaves = {path: Tensor(arr, requires_grad=True)
              for path, arr in model.named_parameters()}
    return GrfModel(model.config, stored=lambda name, shape: leaves[name]), leaves


@pytest.fixture(scope="session")
def corpus_raw():
    return load_smiles_file(DATA / "qm9_subset.smi")


@pytest.fixture(scope="session")
def corpus_graphs(corpus_raw):
    return [pad_graph(raw, QM9_SCHEMA) for raw in corpus_raw]


@pytest.fixture(scope="session")
def toy_raw():
    return load_smiles_file(DATA / "toy_train.smi")


@pytest.fixture(scope="session")
def toy_graphs(toy_raw):
    return [pad_graph(raw, TOY_SCHEMA) for raw in toy_raw]


@pytest.fixture(scope="session")
def qm9_schema():
    return QM9_SCHEMA


@pytest.fixture(scope="session")
def toy_schema():
    return TOY_SCHEMA
