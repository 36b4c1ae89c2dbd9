"""Dense symmetric eigensolver and Schur complements.

Every inf-sup constant comes from a pencil B A^{-1} B^T p = lambda M_Q p.
The callers in stability.py scale B by the cellwise inverse Cholesky
factor of the block-diagonal M_Q first, so the pencil becomes a standard
symmetric eigenproblem.  The Schur complement S = B A^{-1} B^T is formed
densely, a block of rows of B at a time, from one sparse symmetric LU of
A, which also certifies that A is positive definite.  The eigenproblem
goes to LAPACK.  Independent cross-check solvers live in tests/oracles.py,
not here.
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


def sym_generalized_eig(S, M, vectors=False, problem=""):
    """Solve S x = lambda M x with S symmetric and M SPD or None.

    ``M=None`` means the identity: the standard problem S x = lambda x,
    solved by LAPACK ``syevd`` with no factorization of a metric.  This is
    the form the library uses, on pencils already reduced to
    M-orthonormal coordinates.  A given M is reduced by LAPACK ``sygvd``.

    Parameters
    ----------
    S : array_like or sparse, square
    M : array_like or sparse of S's shape, or None
    vectors : bool
        Also return eigenvectors (M-orthonormal columns).  No library
        caller asks for them.
    problem : str
        Descriptor stored on the returned Spectrum.

    Returns
    -------
    Spectrum
    """
    a = _dense(S)
    b = None if M is None else _dense(M)
    if a.shape[0] != a.shape[1] or (b is not None and a.shape != b.shape):
        raise EigensolveError(f"pencil shape mismatch: {a.shape} vs "
                              f"{None if b is None else b.shape}")
    driver = "evd" if b is None else "gvd"
    try:
        if vectors:
            vals, vecs = sla.eigh(a, b, driver=driver)
        else:
            vals = sla.eigh(a, b, eigvals_only=True, driver=driver)
            vecs = None
    except sla.LinAlgError as exc:
        raise EigensolveError(f"symmetric eigensolve failed: {exc}") from exc
    return Spectrum(values=vals, vectors=vecs, problem=problem)


def schur_complement(B, A):
    """Dense symmetric S = B A^{-1} B^T for SPD A.

    A is factored once by a sparse LU in symmetric mode (minimum degree
    on A^T + A, diagonal pivots only), the same path at every size.  S is
    then filled 64 columns at a time from the transposed rows of B, so the
    largest dense temporary is dim(V) x 64, never the whole dim(V) x dim(Q)
    B^T.  A factor that breaks down, refuses a diagonal pivot or has a
    pivot <= 0 means A is not positive definite.
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
    if sp.issparse(B):
        B = sp.csr_matrix(B)
    s = np.empty((B.shape[0], B.shape[0]))
    # 64 rows per solve, measured on A_div at diagonal n=12 r=3 (nV 2738,
    # nQ 1728): 0.43 s per S against 0.50 s at 32 rows, 0.47-0.61 s at 128
    # and 0.86 s with all rows in one solve
    for j in range(0, B.shape[0], 64):
        s[:, j:j + 64] = B @ lu.solve(_dense(B[j:j + 64]).T)
    return 0.5 * (s + s.T)
