"""The linear algebra the flow relies on, each piece against an independent oracle.

Spectral norms and their clamping live on the residual blocks
(`certified_bound`, `project`), the symmetric spectrum behind the
adjacency property suite in `selfcheck.spectral_radius`, and principal
axes in `analysis.principal_axes`.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grf.analysis import principal_axes
from grf.flow import FactoredWeight, MlpResidualBlock
from grf.linalg import NumericalError
from grf.selfcheck import spectral_radius


def svd_sigma_max(w):
    return float(np.linalg.svd(np.atleast_2d(w), compute_uv=False).max())


def char_poly_roots(s):
    """Companion-matrix eigenvalue oracle via Faddeev-LeVerrier coefficients."""
    n = s.shape[0]
    coeffs = np.zeros(n + 1)
    coeffs[0] = 1.0
    m = np.zeros_like(s)
    for k in range(1, n + 1):
        m = s @ m + coeffs[k - 1] * np.eye(n)
        coeffs[k] = -np.trace(s @ m) / k
    return np.sort(np.roots(coeffs).real)


def one_layer_block(w, budget=0.9):
    """A depth-1 block: its certified bound is sigma(w), its projection
    clamps w in place to sigma <= budget."""
    return MlpResidualBlock(prefix="t", weights=[w], biases=[None], budget=budget)


def spectral_norm(w):
    return one_layer_block(w).certified_bound()


def normalize_to_bound(w, bound):
    out = w.copy()
    one_layer_block(out, budget=bound).project()
    return out


# -- spectral norm -----------------------------------------------------------

def test_spectral_norm_diagonal():
    assert spectral_norm(np.diag([3.0, 1.0])) == 3.0


def test_spectral_norm_identity():
    assert spectral_norm(np.eye(3)) == pytest.approx(1.0, rel=1e-15)


def test_spectral_norm_matches_svd_oracle():
    rng = np.random.default_rng(2)
    w = rng.standard_normal((6, 4))
    assert spectral_norm(w) == pytest.approx(svd_sigma_max(w), rel=1e-14)
    u, vt = rng.standard_normal((6, 2)), rng.standard_normal((2, 6))
    assert spectral_norm(FactoredWeight(u=u, vt=vt)) == pytest.approx(
        svd_sigma_max(u @ vt), rel=1e-12)


def test_spectral_norm_zero_matrix():
    assert spectral_norm(np.zeros((3, 3))) == 0.0
    assert spectral_norm(FactoredWeight(u=np.zeros((3, 2)), vt=np.zeros((2, 3)))) == 0.0


# -- normalize to bound (block projection) ----------------------------------------

def test_normalize_scales_down_to_bound():
    rng = np.random.default_rng(9)
    w = rng.standard_normal((4, 4))
    w *= 2.0 / svd_sigma_max(w)
    out = normalize_to_bound(w, 0.9)
    assert abs(svd_sigma_max(out) - 0.9) < 1e-12


def test_normalize_leaves_small_matrices_alone():
    rng = np.random.default_rng(10)
    w = rng.standard_normal((4, 4))
    w *= 0.5 / svd_sigma_max(w)
    assert np.array_equal(normalize_to_bound(w, 0.9), w)


def test_normalize_bound_holds_with_svd_oracle():
    rng = np.random.default_rng(11)
    for _ in range(20):
        w = rng.standard_normal((4, 4)) * rng.uniform(0.1, 5.0)
        out = normalize_to_bound(w, 0.9)
        assert np.linalg.norm(out, 2) <= 0.9


def test_normalize_idempotent():
    rng = np.random.default_rng(12)
    w = rng.standard_normal((5, 5)) * 3.0
    once = normalize_to_bound(w, 0.9)
    twice = normalize_to_bound(once, 0.9)
    assert np.array_equal(once, twice)


# -- symmetric eigenvalues (spectral radius of the adjacency operator) ---------------

def test_sym_eigenvalues_diagonal():
    assert spectral_radius(np.diag([1.0, -2.0, 3.0])) == pytest.approx(3.0, rel=1e-15)


def test_sym_eigenvalues_two_cycle():
    assert spectral_radius(np.array([[0.0, 1.0], [1.0, 0.0]])) == pytest.approx(1.0, rel=1e-15)


def test_sym_eigenvalues_against_companion_oracle():
    rng = np.random.default_rng(13)
    s = rng.standard_normal((6, 6))
    s = 0.5 * (s + s.T)
    assert spectral_radius(s) == pytest.approx(np.abs(char_poly_roots(s)).max(), abs=1e-6)


def test_sym_eigenvalues_rejects_asymmetric():
    # the adjacency suite counts an asymmetric operator as a violation
    assert spectral_radius(np.array([[0.0, 1.0], [0.0, 0.0]])) == np.inf


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 10), st.integers(1, 8), st.integers(0, 10 ** 6))
def test_frobenius_product_bound_with_svd_oracle(n, d, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) * rng.uniform(0.1, 3.0)
    x = rng.standard_normal((n, d)) * rng.uniform(0.1, 3.0)
    assert np.linalg.norm(a @ x) <= svd_sigma_max(a) * np.linalg.norm(x) + 1e-9


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 10), st.integers(0, 10 ** 6))
def test_max_abs_eigenvalue_equals_spectral_norm(n, seed):
    rng = np.random.default_rng(seed)
    s = rng.standard_normal((n, n))
    s = 0.5 * (s + s.T)
    assert spectral_radius(s) == pytest.approx(spectral_norm(s), rel=1e-12)


# -- principal axes ------------------------------------------------------------------

def test_dominant_eigenpairs_match_dense_solver():
    rng = np.random.default_rng(16)
    latents = rng.standard_normal((40, 6)) * np.array([3.0, 2.0, 1.0, 0.5, 0.2, 0.1])
    centered = latents - latents.mean(axis=0)
    cov = centered.T @ centered / (len(latents) - 1)
    axes = principal_axes(latents)
    ref = np.sort(np.linalg.eigvalsh(cov))[::-1][:2]
    assert np.allclose(np.diag(axes.T @ cov @ axes), ref, rtol=1e-12)
    assert np.abs(axes.T @ axes - np.eye(2)).max() < 1e-12


def test_dominant_eigenpairs_degenerate_raises():
    # collinear latents: one principal direction, no plane
    direction = np.random.default_rng(17).standard_normal(6)
    with pytest.raises(NumericalError):
        principal_axes(np.outer(np.arange(5.0), direction))
