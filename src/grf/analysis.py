"""Reconstruction and latent-space experiments built on the core pipeline."""

from __future__ import annotations

import numpy as np

from .chem import check_validity, write_smiles
from .flow import GrfModel
from .graphs import (DequantGraph, LatentPoint, MolGraph, dequantize, quantize_adjacency,
                     quantize_features)
from .inversion import InversionConfig, decode_latents, invert_latents
from .likelihood import TAG_DEQUANT, derive_rng
from .linalg import NumericalError


def _dequantized(model: GrfModel, graphs: list[MolGraph], rng_seed: int,
                 first_index: int = 0) -> list[DequantGraph]:
    return [dequantize(g, model.config.noise_scale,
                       int(derive_rng(rng_seed, TAG_DEQUANT, first_index + i).integers(2 ** 31)))
            for i, g in enumerate(graphs)]


def reconstruction_curve(model: GrfModel, graphs: list[MolGraph],
                         iteration_counts: list[int], rng_seed: int = 0) -> list[dict]:
    """Encode-decode error against the fixed-point iteration count.

    For each requested count the molecules are re-inverted from scratch,
    as one batch, with exactly that many iterations (no early stop),
    reporting the mean L2 distance between dequantized and reconstructed
    tensors normalized by the number of entries, plus the exact discrete
    reconstruction rate.
    """
    deqs = _dequantized(model, graphs, rng_seed)
    lats = model.encode(deqs, [g.adjacency for g in graphs])
    rows = []
    for n_it in iteration_counts:
        if n_it == 0:
            # zero iterations: the latents themselves are the guess, so the
            # error is the whole forward-chain displacement
            recs = [DequantGraph(adjacency_c=z.z_adjacency, features_c=z.z_features)
                    for z in lats]
        else:
            recs = invert_latents(model, lats,
                                  InversionConfig(iterations=n_it, early_stop_tol=0.0))
        feat_err = []
        adj_err = []
        exact = 0
        for g, deq, rec in zip(graphs, deqs, recs):
            adj_err.append(np.linalg.norm(rec.adjacency_c - deq.adjacency_c)
                           / deq.adjacency_c.size)
            feat_err.append(np.linalg.norm(rec.features_c - deq.features_c)
                            / deq.features_c.size)
            a_hat = quantize_adjacency(rec.adjacency_c)
            x_hat = quantize_features(rec.features_c)
            if np.array_equal(a_hat, g.adjacency) and np.array_equal(x_hat, g.features):
                exact += 1
        rows.append({"iterations": n_it,
                     "feature_l2": float(np.mean(feat_err)),
                     "adjacency_l2": float(np.mean(adj_err)),
                     "combined_l2": float(np.mean(feat_err) + np.mean(adj_err)),
                     "exact_rate": exact / len(graphs)})
    return rows


def encode_dataset(model: GrfModel, graphs: list[MolGraph], rng_seed: int = 0) -> np.ndarray:
    """Latent vectors (rows) of dequantized dataset molecules, encoded as one batch."""
    lats = model.encode(_dequantized(model, graphs, rng_seed), [g.adjacency for g in graphs])
    return np.stack([z.to_vector() for z in lats])


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
    invalid marker (smiles = null).
    """
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
                           [query.adjacency])[0].to_vector()

    half = (grid_size - 1) / 2.0
    cells = [(gi, gj, (gi - half) * step, (gj - half) * step)
             for gi in range(grid_size) for gj in range(grid_size)]
    mols = decode_latents(model, [LatentPoint.from_vector(z_query + a * v1 + b * v2,
                                                          model.schema)
                                  for _, _, a, b in cells], inversion)
    records = []
    for (gi, gj, a, b), mol in zip(cells, mols):
        valid = check_validity(mol)
        records.append({"gx": gi, "gy": gj, "offset_1": a, "offset_2": b,
                        "valid": bool(valid),
                        "smiles": write_smiles(mol) if valid else None})
    return records
