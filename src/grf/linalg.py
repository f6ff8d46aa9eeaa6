"""Linear-algebra leftovers that `numpy.linalg` does not cover.

Spectral norms, eigenvalues and log-determinants all come from
`numpy.linalg`.  What stays here is the package's numerical error type and
a converged power iteration on an operator given only as matvec closures.
"""

from __future__ import annotations

import numpy as np


class NumericalError(RuntimeError):
    """A numerical contract was violated (divergence, lost contraction, ...)."""


def _normalize(x: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(x)
    return x / n if n > 0.0 else x


def operator_norm_power(matvec, rmatvec, n_cols: int, u0: np.ndarray | None = None,
                        tol: float = 1e-13, max_iter: int = 2000, seed: int = 0
                        ) -> tuple[float, np.ndarray, np.ndarray]:
    """Converged power iteration on an operator given as matvec closures.

    Returns (sigma, u, v).  Stops once the sigma estimate changes by less
    than `tol` relative between iterations, which is not a guarantee of
    convergence: use it only where an estimate suffices.
    """
    rng = np.random.default_rng(seed)
    if u0 is None or not np.all(np.isfinite(u0)) or not np.any(u0):
        probe = rng.standard_normal(n_cols)
        u = _normalize(matvec(probe))
    else:
        u = _normalize(np.asarray(u0, dtype=np.float64))
    sigma = 0.0
    v = np.zeros(n_cols)
    for _ in range(max_iter):
        v = _normalize(rmatvec(u))
        mv = matvec(v)
        new_sigma = float(np.linalg.norm(mv))
        if new_sigma == 0.0:
            return 0.0, u, v
        u = mv / new_sigma
        if abs(new_sigma - sigma) <= tol * max(1.0, new_sigma):
            sigma = new_sigma
            break
        sigma = new_sigma
    return sigma, u, v
