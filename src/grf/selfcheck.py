"""Numerical property suites behind `grf selfcheck`.

Each suite hammers one load-bearing mathematical fact with random
instances: the product bound that links Frobenius and operator norms, the
unit spectral bound of the normalized adjacency operator, contraction of
the graph-convolution residual blocks, agreement of the stochastic
log-det series with the exact `slogdet` oracle, and geometric convergence
of fixed-point inversion.  Default instance counts match the acceptance
gate, so a clean selfcheck certifies the same properties.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import reconstruction_curve
from .flow import GrfModel, ModelConfig
from .graphs import augmented_normalized_adjacency, random_molgraph
from .likelihood import LogDetEstimatorConfig, logdet_series


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def random_feature_block(seed: int, n: int | None = None, m_real: int | None = None,
                         sigma: float | None = None, budget: float = 0.9):
    """One random graph-convolution block plus a random conditioning operator."""
    rng = np.random.default_rng(seed)
    n = n if n is not None else int(rng.integers(2, 7))
    m_real = m_real if m_real is not None else int(rng.integers(1, 5))
    sigma = sigma if sigma is not None else float(rng.uniform(0.1, budget))
    cfg = ModelConfig(n_max=n, atom_symbols=tuple("CNOF"[:m_real]),
                      gcn_blocks=1, gcn_layers=1, mlp_blocks=1, mlp_layers=1,
                      init_scale=sigma, lipschitz_budget=budget, seed=seed)
    model = GrfModel(cfg)
    g = random_molgraph(model.schema, seed + 99991)
    return model.feature_layers[0], augmented_normalized_adjacency(g.adjacency)


def exact_block_jacobian(block, x: np.ndarray, p=None, h: float = 1e-6) -> np.ndarray:
    """Dense Jacobian of a residual block by central finite differences."""
    d = x.size
    jac = np.zeros((d, d))
    flat = x.ravel()
    for j in range(d):
        e = np.zeros(d)
        e[j] = h
        xp = (flat + e).reshape(x.shape)
        xm = (flat - e).reshape(x.shape)
        diff = block.apply(xp, p) - block.apply(xm, p)
        jac[:, j] = diff.ravel() / (2.0 * h)
    return jac


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------

def check_frobenius_operator_bound(count: int = 10_000, seed: int = 0) -> CheckResult:
    """||A X||_F <= ||A||_2 ||X||_F + 1e-9 on random matrix pairs."""
    rng = np.random.default_rng(seed)
    violations = 0
    worst = -np.inf
    for _ in range(count):
        n = int(rng.integers(1, 9))
        d = int(rng.integers(1, 9))
        a = rng.standard_normal((n, n)) * rng.uniform(0.1, 3.0)
        x = rng.standard_normal((n, d)) * rng.uniform(0.1, 3.0)
        margin = np.linalg.norm(a @ x) - np.linalg.norm(a, 2) * np.linalg.norm(x)
        worst = max(worst, margin)
        if margin > 1e-9:
            violations += 1
    return CheckResult("frobenius-operator-bound", violations == 0,
                       f"{count} pairs, {violations} violations, max excess {worst:.2e}")


def spectral_radius(p: np.ndarray) -> float:
    """Largest |eigenvalue| of a symmetric operator; inf when P is not
    symmetric within 1e-9, so an asymmetric P counts as a violation."""
    if not np.allclose(p, p.T, atol=1e-9):
        return np.inf
    return float(np.abs(np.linalg.eigvalsh(p)).max())


def check_normalized_adjacency_spectrum(count: int = 10_000, seed: int = 0,
                                        extra_graphs=None) -> CheckResult:
    """Spectrum of the normalized adjacency operator stays inside [-1, 1].

    Every instance, random or from the dataset, gets its full spectrum.
    """
    rng = np.random.default_rng(seed)
    violations = 0
    worst = 0.0
    for _ in range(count):
        n = int(rng.integers(1, 17))
        mat = (rng.random((n, n)) < rng.uniform(0.05, 0.9)).astype(np.float64)
        mat = np.triu(mat, 1)
        mat = mat + mat.T
        radius = spectral_radius(augmented_normalized_adjacency(mat))
        worst = max(worst, radius)
        if radius > 1.0 + 1e-9:
            violations += 1
    n_extra = 0
    for g in extra_graphs or []:
        if spectral_radius(augmented_normalized_adjacency(g.adjacency)) > 1.0 + 1e-9:
            violations += 1
        n_extra += 1
    return CheckResult(
        "normalized-adjacency-spectrum", violations == 0,
        f"{count} random graphs + {n_extra} dataset graphs, "
        f"{violations} violations, max |eigenvalue| {worst:.12f}")


def check_gcn_contraction(n_blocks: int = 40, pairs_per_block: int = 250,
                          seed: int = 0) -> CheckResult:
    """Residual blocks with in-budget weights never expand distances.

    Checks both the certified bound (product of exact operator norms,
    must stay below 1) and sampled difference ratios.
    """
    rng = np.random.default_rng(seed)
    worst_ratio = 0.0
    worst_cert = 0.0
    violations = 0
    for b in range(n_blocks):
        block, p = random_feature_block(seed + 7919 * b)
        cert = block.certified_bound()
        worst_cert = max(worst_cert, cert)
        if cert >= 1.0:
            violations += 1
        n, m = p.shape[0], block.weights[0].shape[0]
        for _ in range(pairs_per_block):
            x = rng.standard_normal((n, m)) * rng.uniform(0.2, 3.0)
            y = rng.standard_normal((n, m)) * rng.uniform(0.2, 3.0)
            num = np.linalg.norm(block.apply(x, p) - block.apply(y, p))
            den = np.linalg.norm(x - y)
            if den == 0.0:
                continue
            ratio = num / den
            worst_ratio = max(worst_ratio, ratio)
            if ratio >= 1.0:
                violations += 1
    return CheckResult(
        "gcn-block-contraction", violations == 0,
        f"{n_blocks} blocks x {pairs_per_block} pairs, {violations} violations, "
        f"sup ratio {worst_ratio:.6f}, max certified bound {worst_cert:.6f}")


def check_logdet_oracle(n_blocks: int = 10, n_seeds: int = 256, seed: int = 0,
                        series_terms: int = 20, hutchinson_samples: int = 256
                        ) -> CheckResult:
    """Seed-averaged stochastic log-det matches the exact `slogdet` value.

    Blocks are sampled with operator norms in [0.2, 0.75]: at those scales
    the 20-term truncation bias is negligible and the remaining error is
    Monte-Carlo noise, which the seed averaging suppresses below the
    2-percent / 0.01-absolute tolerance.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    failures = 0
    for t in range(n_blocks):
        n = int(rng.integers(2, 5))
        m_real = int(rng.integers(1, 3))
        sigma = float(rng.uniform(0.2, 0.75))
        block, p = random_feature_block(seed + 31 * t, n=n, m_real=m_real, sigma=sigma)
        x = rng.standard_normal((n, block.weights[0].shape[0])) * 1.2
        exact = np.linalg.slogdet(np.eye(x.size) + exact_block_jacobian(block, x, p=p))[1]
        estimates = [
            logdet_series(block, x,
                          LogDetEstimatorConfig(series_terms=series_terms,
                                                hutchinson_samples=hutchinson_samples,
                                                rng_seed=seed + 7919 * s + t),
                          p=p)
            for s in range(n_seeds)]
        err = abs(float(np.mean(estimates)) - exact)
        tol = max(0.02 * abs(exact), 0.01)
        worst = max(worst, err / tol)
        if err > tol:
            failures += 1
    return CheckResult(
        "logdet-series-oracle", failures == 0,
        f"{n_blocks} blocks, {failures} failures, worst error/tolerance {worst:.3f}")


def check_inversion_convergence(n_inputs: int = 20, seed: int = 0) -> CheckResult:
    """Reconstruction error decays geometrically and is tiny by 30 iterations."""
    cfg = ModelConfig(n_max=9, gcn_blocks=1, gcn_layers=1, mlp_blocks=4, mlp_layers=2,
                      init_scale=0.9, seed=seed)
    model = GrfModel(cfg)
    graphs = [random_molgraph(model.schema, seed + 613 * i) for i in range(n_inputs)]
    rows = reconstruction_curve(model, graphs, [1, 5, 10, 20, 30], rng_seed=seed)
    errs = {row["iterations"]: row["combined_l2"] for row in rows}
    ratios = [(errs[b] / errs[a]) ** (1.0 / (b - a))
              for a, b in ((5, 10), (10, 20), (20, 30)) if errs[a] > 0]
    ok = errs[30] <= 1e-3 and all(r <= 0.92 for r in ratios)
    return CheckResult(
        "inversion-convergence", ok,
        f"{n_inputs} inputs, error(30)={errs[30]:.2e}, "
        f"per-iteration decay ratios {[f'{r:.3f}' for r in ratios]}")


def run_selfcheck(seed: int = 0, extra_graphs=None) -> list[CheckResult]:
    return [
        check_frobenius_operator_bound(seed=seed),
        check_normalized_adjacency_spectrum(seed=seed, extra_graphs=extra_graphs),
        check_gcn_contraction(seed=seed),
        check_logdet_oracle(seed=seed),
        check_inversion_convergence(seed=seed),
    ]


def format_report(results: list[CheckResult]) -> str:
    width = max(len(r.name) for r in results)
    lines = [f"{r.name.ljust(width)}  {'PASS' if r.passed else 'FAIL'}  {r.detail}"
             for r in results]
    lines.append(f"{sum(r.passed for r in results)}/{len(results)} checks passed")
    return "\n".join(lines)
