"""Linear-algebra leftovers that `numpy.linalg` does not cover.

Spectral norms, eigenvalues and log-determinants all come from
`numpy.linalg`.  What stays here is the package's numerical error type and
the name of the retired power iteration.
"""

from __future__ import annotations


class NumericalError(RuntimeError):
    """A numerical contract was violated (divergence, lost contraction, ...)."""


def operator_norm_power(matvec, rmatvec, *args, **kwargs):
    """The retired power iteration, kept only as the name perfbench/tracing.py
    patches until the benchmark drops that site (ROADMAP R1a); it raises."""
    raise NotImplementedError("the power iteration is retired: spectral norms "
                              "come from numpy.linalg")
