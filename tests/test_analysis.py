import numpy as np
import pytest

from grf.analysis import encode_dataset, latent_grid, principal_axes, reconstruction_curve
from grf.flow import GrfModel, toy_config
from grf.inversion import InversionConfig
from grf.linalg import NumericalError


def test_principal_axes_orthonormal(toy_graphs):
    model = GrfModel(toy_config(seed=1))
    axes = principal_axes(encode_dataset(model, toy_graphs[:30], rng_seed=2))
    assert np.abs(axes.T @ axes - np.eye(2)).max() < 1e-8


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


@pytest.mark.parametrize("argument, kwargs", [
    pytest.param("encode_count", {"encode_count": -1}, id="encode-count-negative"),
    pytest.param("encode_count", {"encode_count": 0}, id="encode-count-zero"),
    pytest.param("encode_count", {"encode_count": 2}, id="encode-count-two"),
    pytest.param("grid_size", {"grid_size": 0}, id="grid-size-zero"),
    pytest.param("step", {"step": float("nan")}, id="step-nan"),
    pytest.param("step", {"step": float("inf")}, id="step-inf"),
])
def test_latent_grid_rejects_what_the_cli_rejects(toy_graphs, argument, kwargs):
    """The values `grf latent-grid` refuses as flags raise a ValueError
    naming the argument, before any molecule is encoded."""
    model = GrfModel(toy_config(seed=5))
    with pytest.raises(ValueError, match=f"^{argument} must be"):
        latent_grid(model, toy_graphs, **{"grid_size": 1, "step": 0.0, **kwargs})


def test_latent_grid_requires_three_molecules(toy_graphs):
    model = GrfModel(toy_config(seed=5))
    for count in (1, 2):
        with pytest.raises(ValueError):
            latent_grid(model, toy_graphs[:count], grid_size=1, step=0.0, rng_seed=6)


@pytest.mark.parametrize("pair", [(0, 1), (2, 3), (4, 5)])
def test_two_distinct_latents_span_no_plane(pair, toy_graphs):
    # their covariance has rank 1: the second eigenvalue is rounding noise
    model = GrfModel(toy_config(seed=7))
    latents = encode_dataset(model, [toy_graphs[i] for i in pair], rng_seed=8)
    assert np.abs(latents[0] - latents[1]).max() > 0.1
    with pytest.raises(NumericalError):
        principal_axes(latents)


def test_latent_grid_degenerate_covariance_raises(toy_graphs):
    model = GrfModel(toy_config(seed=7))
    # dequantization noise keeps distinct draws apart, so force a one-point
    # latent cloud by repeating one encoded latent
    latents = encode_dataset(model, [toy_graphs[0]], rng_seed=8)
    with pytest.raises(NumericalError):
        principal_axes(np.repeat(latents, 5, axis=0))


def test_empty_input_says_there_are_no_molecules(toy_graphs):
    model = GrfModel(toy_config(seed=9))
    with pytest.raises(ValueError, match="no molecules"):
        reconstruction_curve(model, [], [0, 1])
    with pytest.raises(ValueError, match="no molecules"):
        encode_dataset(model, [])
