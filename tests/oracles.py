"""Independent reference routes for the library's derived spectra.

The library solves one inf-sup pencil per case and derives the mixed
Laplace, div-div and Babuska spectra and the coercivity constant from it.
Each function here computes the same quantity the long way, from the
assembled matrices and without the library's eigensolver, so the tests
compare two routes rather than a value against itself.  All of them are
dense and meant for small cases.  ``dense_schur`` forms a Schur complement
with a dense solve where the library uses a sparse LU, and
``dense_schur_solve`` does the same for the mixed source problem, which
the library solves by one sparse LU of the saddle-point matrix.
"""

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from mixedstab.errors import EigensolveError, NotPositiveDefiniteError


def _dense(mat):
    return mat.toarray() if sp.issparse(mat) else np.asarray(mat, dtype=float)


def jacobi_generalized_eig(S, M, tol=1e-14, max_sweeps=60):
    """Cyclic Jacobi on the Cholesky-reduced pencil S x = lambda M x.

    Self-contained (own Cholesky, own rotations); intended for small
    matrices.  Returns ascending eigenvalues.
    """
    a = _dense(S)
    b = _dense(M)
    n = a.shape[0]
    lower = _jacobi_cholesky(b)
    # C = L^{-1} S L^{-T}
    c = sla.solve_triangular(lower, a, lower=True)
    c = sla.solve_triangular(lower, c.T, lower=True).T
    c = 0.5 * (c + c.T)
    scale = np.linalg.norm(c)
    if scale == 0:
        return np.zeros(n)
    for _ in range(max_sweeps):
        off = np.sqrt(np.sum(np.tril(c, -1) ** 2) * 2)
        if off <= tol * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(c[p, q]) <= 1e-300:
                    continue
                tau = (c[q, q] - c[p, p]) / (2.0 * c[p, q])
                t = np.sign(tau) / (abs(tau) + np.sqrt(1.0 + tau * tau))
                if tau == 0:
                    t = 1.0
                cs = 1.0 / np.sqrt(1.0 + t * t)
                sn = t * cs
                rot_p = cs * c[:, p] - sn * c[:, q]
                rot_q = sn * c[:, p] + cs * c[:, q]
                c[:, p] = rot_p
                c[:, q] = rot_q
                rot_p = cs * c[p, :] - sn * c[q, :]
                rot_q = sn * c[p, :] + cs * c[q, :]
                c[p, :] = rot_p
                c[q, :] = rot_q
    else:
        raise EigensolveError("Jacobi iteration did not converge")
    return np.sort(np.diag(c))


def _jacobi_cholesky(matrix):
    a = np.array(matrix, dtype=float)
    n = a.shape[0]
    lower = np.zeros_like(a)
    for j in range(n):
        d = a[j, j] - lower[j, :j] @ lower[j, :j]
        if d <= 0:
            raise NotPositiveDefiniteError(j + 1)
        lower[j, j] = np.sqrt(d)
        if j + 1 < n:
            lower[j + 1:, j] = (a[j + 1:, j] - lower[j + 1:, :j] @ lower[j, :j]) / lower[j, j]
    return lower


def full_saddle_eigenvalues(forms):
    """Eigenvalues of the block pencil by QZ, no Schur reduction.

    [[A_div, B^T], [B, 0]] (u, p) = lambda [[0, 0], [0, -M_Q]] (u, p);
    eliminating u reproduces the inf-sup pencil, so the finite eigenvalues
    must match it.
    """
    n_v, n_q = forms.V_h.ndofs, forms.Q_h.ndofs
    lhs = np.zeros((n_v + n_q, n_v + n_q))
    lhs[:n_v, :n_v] = forms.A_div.toarray()
    lhs[:n_v, n_v:] = forms.B.toarray().T
    lhs[n_v:, :n_v] = forms.B.toarray()
    rhs = np.zeros_like(lhs)
    rhs[n_v:, n_v:] = -forms.M_Q.toarray()
    values = sla.eig(lhs, rhs, right=False)
    finite = values[np.isfinite(values)]
    assert np.max(np.abs(finite.imag)) < 1e-10
    real = finite.real
    return np.sort(real[np.abs(real) < 2.0])


def svd_coercivity(forms, rank_tol=1e-10):
    """Coercivity constant on an SVD nullspace basis of B.

    Returns (alpha, kernel) with kernel an orthonormal basis of the
    discrete divergence-free space; alpha is the smallest eigenvalue of
    <u, v> against the div-norm on it.
    """
    _, svals, vt = sla.svd(forms.B.toarray(), full_matrices=True)
    rank = int(np.count_nonzero(svals > rank_tol * max(svals[0], 1.0)))
    z = vt[rank:].T
    a_z = z.T @ (forms.M_V @ z)
    m_z = z.T @ (forms.A_div @ z)
    values = sla.eigh(a_z, m_z, eigvals_only=True)
    return float(np.min(np.abs(values))), z


def babuska_pencil_eigenvalues(forms):
    """Eigenvalues of the full indefinite pencil, solved whole.

    [[M_V, B^T], [B, 0]] x = sigma [[A_div, 0], [0, M_Q]] x.
    """
    n_v, n_q = forms.V_h.ndofs, forms.Q_h.ndofs
    b = forms.B.toarray()
    lhs = np.zeros((n_v + n_q, n_v + n_q))
    lhs[:n_v, :n_v] = forms.M_V.toarray()
    lhs[:n_v, n_v:] = b.T
    lhs[n_v:, :n_v] = b
    rhs = np.zeros_like(lhs)
    rhs[:n_v, :n_v] = forms.A_div.toarray()
    rhs[n_v:, n_v:] = forms.M_Q.toarray()
    return sla.eigh(lhs, rhs, eigvals_only=True)


def dense_schur(B, A):
    """S = B A^{-1} B^T by a dense LAPACK solve, no sparse factorization."""
    b = _dense(B)
    return b @ np.linalg.solve(_dense(A), b.T)


def laplace_pencil_eigenvalues(forms):
    """Mixed Laplace pencil B M_V^{-1} B^T p = mu M_Q p by its own Schur complement."""
    s = dense_schur(forms.B, forms.M_V)
    return sla.eigh(0.5 * (s + s.T), forms.M_Q.toarray(), eigvals_only=True)


def dense_schur_solve(forms, rhs):
    """Source problem by the dense pressure Schur complement S = B M_V^{-1} B^T.

    Solves M_V u + B^T p = 0, B u = rhs with a Cholesky factor of S and
    returns (u, p) as coefficient arrays.
    """
    b = forms.B.toarray()
    x = np.linalg.solve(forms.M_V.toarray(), b.T)    # M_V^{-1} B^T
    p = sla.cho_solve(sla.cho_factor(b @ x), -rhs)
    return -(x @ p), p


def divdiv_pencil_eigenvalues(forms):
    """Div-div form against the vector mass, K u = nu M_V u, solved densely."""
    return sla.eigh(forms.K.toarray(), forms.M_V.toarray(), eigvals_only=True)
