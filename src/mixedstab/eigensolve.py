"""Dense symmetric generalized eigensolver and Schur complements.

S x = lambda M x is reduced with the Cholesky factor of M to a standard
symmetric problem and handed to LAPACK; S is a Schur complement
B A^{-1} B^T.  Independent cross-check solvers live in tests/oracles.py,
not here.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .errors import EigensolveError, NotPositiveDefiniteError

# above this dimension SPD systems are factored sparsely instead of densely
DENSE_LIMIT = 6500


def _dense(mat):
    return mat.toarray() if sp.issparse(mat) else np.asarray(mat, dtype=float)


@dataclass
class Spectrum:
    """Eigenvalues (ascending) of one pencil, with optional eigenvectors."""

    values: np.ndarray
    vectors: np.ndarray | None = None
    problem: str = ""
    threshold: float | None = None

    def smallest_at_least(self, threshold):
        above = self.values[self.values >= threshold]
        if above.size == 0:
            raise EigensolveError(
                f"no eigenvalue of {self.problem or 'pencil'} reaches {threshold}")
        return float(above[0])


class CholeskyFactor:
    """Lower-triangular Cholesky factor with a multi-RHS solve."""

    def __init__(self, lower):
        self.lower = lower

    def solve(self, rhs):
        y = sla.solve_triangular(self.lower, rhs, lower=True)
        return sla.solve_triangular(self.lower, y, lower=True, trans="T")


def cholesky(matrix):
    """Dense lower Cholesky factor; raises naming the failing pivot."""
    a = _dense(matrix)
    try:
        lower = sla.cholesky(a, lower=True)
    except sla.LinAlgError as exc:
        m = re.search(r"(\d+)", str(exc))
        pivot = int(m.group(1)) if m else -1
        raise NotPositiveDefiniteError(pivot) from exc
    return CholeskyFactor(lower)


def sym_generalized_eig(S, M, vectors=False, problem=""):
    """Solve S x = lambda M x with S symmetric and M SPD.

    Parameters
    ----------
    S, M : array_like or sparse, square, same shape
    vectors : bool
        Also return eigenvectors (M-orthonormal columns).
    problem : str
        Descriptor stored on the returned Spectrum.

    Returns
    -------
    Spectrum
    """
    a = _dense(S)
    b = _dense(M)
    if a.shape != b.shape or a.shape[0] != a.shape[1]:
        raise EigensolveError(f"pencil shape mismatch: {a.shape} vs {b.shape}")
    try:
        if vectors:
            vals, vecs = sla.eigh(a, b, driver="gvd")
        else:
            vals = sla.eigh(a, b, eigvals_only=True, driver="gvd")
            vecs = None
    except sla.LinAlgError as exc:
        raise EigensolveError(f"generalized eigensolve failed: {exc}") from exc
    return Spectrum(values=vals, vectors=vecs, problem=problem)


def schur_complement(B, A):
    """Dense symmetric S = B A^{-1} B^T for SPD A.

    One factorization of A and dim(Q) solves.  A is factored densely up
    to DENSE_LIMIT rows and sparsely beyond that.
    """
    bt = _dense(B).T
    n = A.shape[0]
    if n != bt.shape[0]:
        raise EigensolveError(
            f"Schur complement shape mismatch: A is {A.shape}, B is {B.shape}")
    if n <= DENSE_LIMIT:
        x = cholesky(A).solve(bt)
    else:
        x = splu(sp.csc_matrix(A)).solve(bt)
    s = bt.T @ x
    return 0.5 * (s + s.T)
