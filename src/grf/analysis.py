"""Reconstruction and latent-space experiments built on the core pipeline."""

from __future__ import annotations

import numpy as np

from .chem import check_validity, write_smiles
from .flow import GrfModel
from .graphs import LatentPoint, MolGraph, dequantize, quantize_adjacency, quantize_features
from .inversion import InversionConfig, decode_molecule, invert_flow
from .likelihood import TAG_DEQUANT, derive_rng
from .linalg import NumericalError


def reconstruction_curve(model: GrfModel, graphs: list[MolGraph],
                         iteration_counts: list[int], rng_seed: int = 0) -> list[dict]:
    """Encode-decode error against the fixed-point iteration count.

    For each requested count the molecules are re-inverted from scratch
    with exactly that many iterations (no early stop), reporting the mean
    L2 distance between dequantized and reconstructed tensors normalized
    by the number of entries, plus the exact discrete reconstruction rate.
    """
    deqs = []
    lats = []
    for i, g in enumerate(graphs):
        deq = dequantize(g, model.config.noise_scale,
                         int(derive_rng(rng_seed, TAG_DEQUANT, i).integers(2 ** 31)))
        deqs.append(deq)
        lats.append(model.encode(deq, g.adjacency))
    rows = []
    for n_it in iteration_counts:
        cfg = InversionConfig(iterations=max(1, n_it), early_stop_tol=0.0)
        feat_err = []
        adj_err = []
        exact = 0
        for g, deq, z in zip(graphs, deqs, lats):
            if n_it == 0:
                # zero iterations: the latents themselves are the guess, so the
                # error is the whole forward-chain displacement
                rec = type(deq)(adjacency_c=z.z_adjacency, features_c=z.z_features,
                                noise_scale=deq.noise_scale)
            else:
                rec = invert_flow(model, z, cfg)
            adj_err.append(np.linalg.norm(rec.adjacency_c - deq.adjacency_c)
                           / deq.adjacency_c.size)
            feat_err.append(np.linalg.norm(rec.features_c - deq.features_c)
                            / deq.features_c.size)
            a_hat = quantize_adjacency(rec.adjacency_c, no_bond_channel=model.schema.no_bond)
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
    """Latent vectors (rows) of dequantized dataset molecules."""
    vecs = []
    for i, g in enumerate(graphs):
        deq = dequantize(g, model.config.noise_scale,
                         int(derive_rng(rng_seed, TAG_DEQUANT, i).integers(2 ** 31)))
        vecs.append(model.encode(deq, g.adjacency).to_vector())
    return np.stack(vecs)


def principal_axes(latents: np.ndarray) -> np.ndarray:
    """Top two principal directions of the latent rows, as orthonormal columns.

    Raises NumericalError when the second covariance eigenvalue is at or
    below the float-noise floor 1e-15 * max(1, max|cov|): the latent cloud
    then has no second direction to span a plane.
    """
    centered = latents - latents.mean(axis=0, keepdims=True)
    cov = centered.T @ centered / max(1, latents.shape[0] - 1)
    values, vectors = np.linalg.eigh(cov)
    if values[-2] <= 1e-15 * max(1.0, float(np.abs(cov).max())):
        raise NumericalError("degenerate covariance: no second principal direction")
    return vectors[:, [-1, -2]]


def latent_grid(model: GrfModel, graphs: list[MolGraph], grid_size: int = 5,
                step: float = 0.5, rng_seed: int = 0, encode_count: int = 100,
                inversion: InversionConfig | None = None,
                valences=None) -> list[dict]:
    """Decode a grid on the dominant latent plane around a query molecule.

    Fits the top two principal directions of encoded dataset latents (an
    `eigh` of their covariance), then decodes latents offset from the
    query molecule's own latent point along that plane.  Each record
    carries the grid coordinates and either the decoded SMILES or an
    invalid marker (smiles = null).
    """
    if len(graphs) < 2:
        raise ValueError("need at least two molecules to fit principal directions")
    inversion = inversion or InversionConfig()
    rng = derive_rng(rng_seed, 17)
    picks = rng.permutation(len(graphs))
    sample_idx = picks[:min(encode_count, len(graphs))]
    query_idx = int(picks[-1])

    axes = principal_axes(encode_dataset(model, [graphs[i] for i in sample_idx],
                                         rng_seed=rng_seed))
    v1, v2 = axes[:, 0], axes[:, 1]

    deq_q = dequantize(graphs[query_idx], model.config.noise_scale,
                       int(derive_rng(rng_seed, TAG_DEQUANT, 10 ** 6).integers(2 ** 31)))
    z_query = model.encode(deq_q, graphs[query_idx].adjacency).to_vector()

    half = (grid_size - 1) / 2.0
    records = []
    for gi in range(grid_size):
        for gj in range(grid_size):
            a = (gi - half) * step
            b = (gj - half) * step
            z = LatentPoint.from_vector(z_query + a * v1 + b * v2, model.schema)
            mol = decode_molecule(model, z, inversion)
            valid = check_validity(mol, valences)
            records.append({"gx": gi, "gy": gj, "offset_1": a, "offset_2": b,
                            "valid": bool(valid),
                            "smiles": write_smiles(mol) if valid else None})
    return records


def principal_axes_orthonormality(model: GrfModel, graphs: list[MolGraph],
                                  rng_seed: int = 0) -> float:
    """Max deviation of the fitted principal axes from orthonormality."""
    axes = principal_axes(encode_dataset(model, graphs, rng_seed=rng_seed))
    gram = axes.T @ axes
    return float(np.abs(gram - np.eye(2)).max())
