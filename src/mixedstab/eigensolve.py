"""Dense symmetric generalized eigensolver and Schur complements.

Every inf-sup constant comes from a pencil B A^{-1} B^T p = lambda M_Q p.
The Schur complement S = B A^{-1} B^T is formed densely from one sparse
symmetric LU of A, the same path at every size, which also certifies that
A is positive definite.  The pencil S x = lambda M x goes to LAPACK.
Independent cross-check solvers live in tests/oracles.py, not here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .errors import EigensolveError, NotPositiveDefiniteError

# no mixedstab code reads this; only the benchmark's trace cost model does
DENSE_LIMIT = 0


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

    A is factored once by a sparse LU in symmetric mode (minimum degree
    on A^T + A, diagonal pivots only), the same path at every size, and
    the factor solves all dim(Q) columns of B^T at once.  A factor that
    breaks down, refuses a diagonal pivot or has a pivot <= 0 means A is
    not positive definite.
    """
    if A.shape[0] != B.shape[1]:
        raise EigensolveError(
            f"Schur complement shape mismatch: A is {A.shape}, B is {B.shape}")
    try:
        lu = splu(sp.csc_matrix(A), permc_spec="MMD_AT_PLUS_A",
                  diag_pivot_thresh=0.0, options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise NotPositiveDefiniteError(
            -1, f"matrix is not positive definite ({exc})") from exc
    off_diagonal = np.flatnonzero(lu.perm_r != lu.perm_c)
    if off_diagonal.size:
        raise NotPositiveDefiniteError(int(off_diagonal[0]) + 1)
    non_positive = np.flatnonzero(lu.U.diagonal() <= 0)
    if non_positive.size:
        raise NotPositiveDefiniteError(
            int(np.flatnonzero(lu.perm_c == non_positive[0])[0]) + 1)
    # the dense B^T is a temporary: only A^{-1} B^T outlives the solve
    s = B @ lu.solve(_dense(B).T)
    return 0.5 * (s + s.T)
