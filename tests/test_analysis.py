import numpy as np
import pytest

from grf.analysis import encode_dataset, latent_grid, principal_axes, principal_axes_orthonormality
from grf.flow import GrfModel, toy_config
from grf.inversion import InversionConfig
from grf.linalg import NumericalError


def test_principal_axes_orthonormal(toy_graphs):
    model = GrfModel(toy_config(seed=1))
    dev = principal_axes_orthonormality(model, toy_graphs[:30], rng_seed=2)
    assert dev < 1e-8


def test_latent_grid_shape_and_markers(toy_graphs):
    model = GrfModel(toy_config(seed=3))
    records = latent_grid(model, toy_graphs, grid_size=5, step=0.5, rng_seed=4,
                          encode_count=30, inversion=InversionConfig(iterations=60))
    assert len(records) == 25
    for rec in records:
        assert (rec["smiles"] is None) == (not rec["valid"])
    # offsets form the expected centered mesh
    offs = sorted({rec["offset_1"] for rec in records})
    assert offs == [-1.0, -0.5, 0.0, 0.5, 1.0]


def test_latent_grid_requires_two_molecules(toy_graphs):
    model = GrfModel(toy_config(seed=5))
    with pytest.raises(ValueError):
        latent_grid(model, toy_graphs[:1], grid_size=1, step=0.0, rng_seed=6)


def test_latent_grid_degenerate_covariance_raises(toy_graphs):
    model = GrfModel(toy_config(seed=7))
    # dequantization noise keeps distinct draws apart, so force a one-point
    # latent cloud by repeating one encoded latent
    latents = encode_dataset(model, [toy_graphs[0]], rng_seed=8)
    with pytest.raises(NumericalError):
        principal_axes(np.repeat(latents, 5, axis=0))
