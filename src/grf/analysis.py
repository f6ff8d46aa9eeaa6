"""Reconstruction and latent-space experiments built on the core pipeline."""

from __future__ import annotations

import math

import numpy as np

from .chem import check_validity, write_smiles
from .flow import GrfModel, require_integer
from .graphs import (GraphTensors, MolGraph, dequantize, quantize_adjacency,
                     quantize_features, unpad_graph)
from .inversion import InversionConfig, decode_latents, invert_latents
from .likelihood import TAG_DEQUANT, derive_rng
from .linalg import NumericalError


def _dequantized(model: GrfModel, graphs: list[MolGraph], rng_seed: int,
                 first_index: int = 0) -> GraphTensors:
    """The molecules' dequantized tensors as one batch; raises `ValueError`
    for an empty list."""
    if not graphs:
        raise ValueError("no molecules to encode")
    return GraphTensors.stack([
        dequantize(g, model.config.noise_scale,
                   int(derive_rng(rng_seed, TAG_DEQUANT, first_index + i).integers(2 ** 31)))
        for i, g in enumerate(graphs)])


def reconstruction_curve(model: GrfModel, graphs: list[MolGraph],
                         iteration_counts: list[int], rng_seed: int = 0) -> list[dict]:
    """Encode-decode error against the fixed-point iteration count.

    For each requested count the molecules are re-inverted from scratch,
    as one batch, with at most that many iterations and no tolerance:
    a molecule stops only once its step reaches the inversion's float
    noise floor, where further iterations cannot move it.  Each row
    reports the mean L2 distance between dequantized and reconstructed
    tensors normalized by the number of entries, plus the exact discrete
    reconstruction rate.
    """
    deq = _dequantized(model, graphs, rng_seed)
    adjacency = np.stack([g.adjacency for g in graphs])
    features = np.stack([g.features for g in graphs])
    z = model.encode(deq, adjacency)
    rows = []
    for n_it in iteration_counts:
        # zero iterations: the latents themselves are the guess, so the
        # error is the whole forward-chain displacement
        rec = z if n_it == 0 else invert_latents(
            model, z, InversionConfig(iterations=n_it, early_stop_tol=0.0))
        adj_err = [np.linalg.norm(r - d) / d.size for r, d in zip(rec.adjacency, deq.adjacency)]
        feat_err = [np.linalg.norm(r - d) / d.size for r, d in zip(rec.features, deq.features)]
        exact = int(np.sum((quantize_adjacency(rec.adjacency) == adjacency).all(axis=(1, 2, 3))
                           & (quantize_features(rec.features) == features).all(axis=(1, 2))))
        rows.append({"iterations": n_it,
                     "feature_l2": float(np.mean(feat_err)),
                     "adjacency_l2": float(np.mean(adj_err)),
                     "combined_l2": float(np.mean(feat_err) + np.mean(adj_err)),
                     "exact_rate": exact / len(graphs)})
    return rows


def encode_dataset(model: GrfModel, graphs: list[MolGraph], rng_seed: int = 0) -> np.ndarray:
    """Latent vectors (rows) of dequantized dataset molecules, encoded as one batch."""
    return model.encode(_dequantized(model, graphs, rng_seed),
                        np.stack([g.adjacency for g in graphs])).to_vector()


def principal_axes(latents: np.ndarray) -> np.ndarray:
    """Top two principal directions of the latent rows, as orthonormal columns.

    Raises NumericalError when the second covariance eigenvalue is at or
    below the rounding scale of `eigh`, dim * eps * (largest eigenvalue):
    the latent cloud then has no second direction to span a plane.  Two
    latents give a rank-1 covariance, whose second eigenvalue is rounding
    noise at that scale.
    """
    centered = latents - latents.mean(axis=0, keepdims=True)
    cov = centered.T @ centered / max(1, latents.shape[0] - 1)
    values, vectors = np.linalg.eigh(cov)
    if values[-2] <= values.size * np.finfo(np.float64).eps * values[-1]:
        raise NumericalError("degenerate covariance: no second principal direction")
    return vectors[:, [-1, -2]]


def latent_grid(model: GrfModel, graphs: list[MolGraph], grid_size: int = 5,
                step: float = 0.5, rng_seed: int = 0, encode_count: int = 100,
                inversion: InversionConfig | None = None) -> list[dict]:
    """Decode a grid on the dominant latent plane around a query molecule.

    Fits the top two principal directions of encoded dataset latents (an
    `eigh` of their covariance), then decodes latents offset from the
    query molecule's own latent point along that plane.  Each record
    carries the grid coordinates and either the decoded SMILES or an
    invalid marker (smiles = null).  Raises `ValueError` for an
    `encode_count` that is not an integer >= 3 (two latents give a rank-1
    covariance), a `grid_size` that is not an integer >= 1 (a bool is
    neither) or a non-finite `step`.
    """
    require_integer("encode_count", encode_count, 3)
    require_integer("grid_size", grid_size, 1)
    if not math.isfinite(step):
        raise ValueError(f"step must be a finite number, got {step!r}")
    if len(graphs) < 3:
        raise ValueError("need at least three molecules to fit principal directions")
    inversion = inversion or InversionConfig()
    rng = derive_rng(rng_seed, 17)
    picks = rng.permutation(len(graphs))
    sample_idx = picks[:min(encode_count, len(graphs))]
    query_idx = int(picks[-1])

    axes = principal_axes(encode_dataset(model, [graphs[i] for i in sample_idx],
                                         rng_seed=rng_seed))
    v1, v2 = axes[:, 0], axes[:, 1]

    query = graphs[query_idx]
    z_query = model.encode(_dequantized(model, [query], rng_seed, first_index=10 ** 6),
                           query.adjacency[None]).to_vector()[0]

    half = (grid_size - 1) / 2.0
    cells = [(gi, gj, (gi - half) * step, (gj - half) * step)
             for gi in range(grid_size) for gj in range(grid_size)]
    grid = np.stack([z_query + a * v1 + b * v2 for _, _, a, b in cells])
    mols = decode_latents(model, GraphTensors.from_vector(grid, model.schema), inversion)
    records = []
    for (gi, gj, a, b), mol in zip(cells, mols):
        raw = unpad_graph(mol)
        valid = check_validity(raw)
        records.append({"gx": gi, "gy": gj, "offset_1": a, "offset_2": b,
                        "valid": bool(valid),
                        "smiles": write_smiles(raw) if valid else None})
    return records
