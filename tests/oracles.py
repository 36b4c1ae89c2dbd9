"""Independent reference routes for the library's spectra and solves.

The library reads every eigenvalue off a sparse spectrum slice of one
pencil per case, and solves the mixed source problem by conjugate
gradients on the inf-sup operator, with one sparse LDL^T of A_div.  Each
function here computes the same quantity the long way, from the assembled
matrices with dense LAPACK routines and without the library's solvers, so
the tests compare two routes rather than a value against itself.  All of
them are dense and meant for small cases.
``classify_spectrum`` splits a full spectrum at the zero threshold.
``cholesky_reduced`` turns a generalized pencil into the standard problem
that LAPACK and ``jacobi_generalized_eig`` both solve.
``dense_schur`` forms the Schur complement B A^{-1} B^T that the library
never forms; ``schur_pencil_eigenvalues`` gives every eigenvalue of it
against M_Q, and ``dense_schur_solve`` solves the source problem by it.
``dense_reduced_solve`` solves it on (V_h, div V_h) from an SVD basis of
the divergence, with spurious modes or without, and
``singular_vertex_sums`` evaluates the functionals that vanish on div V_h.
``interpolate`` and the ``eval_*`` helpers take a field as its space and
its coefficient array, for the tests of the spaces and the error norms.
``monomial_integral`` is the closed form against which the quadrature
rules are checked.
``EXP`` is a second closed-form solution, with none of the symmetries of
the square that the library's ``SINE`` has.
``reference_assemble`` assembles the six forms the straightforward way,
one COO->CSR conversion and one symmetrization per form, against which
the library's shared-pattern assembly is compared bit for bit.
"""

import math
from fractions import Fraction

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from mixedstab.assembly import AssembledForms, cell_geometry
from mixedstab.element import quadrature
from mixedstab.errors import (EigensolveError, NotPositiveDefiniteError,
                              NumericalError)
from mixedstab.mesh import singular_vertices
from mixedstab.poisson import Solution


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


def cholesky_reduced(S, M):
    """L^{-1} S L^{-T} with M = L L^T by LAPACK: the standard problem with
    the eigenvalues of the pencil S x = lambda M x, in M-orthonormal
    coordinates."""
    lower = sla.cholesky(_dense(M), lower=True)
    c = sla.solve_triangular(lower, _dense(S), lower=True)
    c = sla.solve_triangular(lower, c.T, lower=True).T
    return 0.5 * (c + c.T)


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


def classify_spectrum(values, threshold):
    """Split a full nonnegative inf-sup spectrum at the zero threshold.

    The dense route to what the library reads off its spectrum slice.

    Returns
    -------
    (dim_spurious, beta, beta_reduced, warning)
        beta = sqrt(clip(min eigenvalue, 0)); beta_reduced skips the
        eigenvalues below the threshold.  warning is set when the
        eigenvalues on either side of the split are less than a decade
        apart, i.e. the threshold sits inside a cluster rather than in a
        clean spectral gap.
    """
    values = np.asarray(values)
    dim = int(np.count_nonzero(values < threshold))
    if dim == len(values):
        raise NumericalError(
            f"all {len(values)} eigenvalues fall below the threshold {threshold}")
    beta = float(np.sqrt(max(values[0], 0.0)))
    beta_reduced = float(np.sqrt(values[dim]))
    warning = None
    if dim > 0 and values[dim] < 10.0 * abs(values[dim - 1]):
        warning = (f"threshold {threshold:g} splits a cluster: eigenvalues "
                   f"{values[dim - 1]:.3e} and {values[dim]:.3e}")
    return dim, beta, beta_reduced, warning


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
    """S = B A^{-1} B^T by a dense LAPACK solve.  The library slices the
    pencil (B^T M_Q^{-1} B, A) instead, which has the eigenvalues of
    (S, M_Q) past its dim(A) - dim(S) zeros."""
    b = _dense(B)
    return b @ np.linalg.solve(_dense(A), b.T)


def schur_pencil_eigenvalues(forms, A):
    """All eigenvalues of B A^{-1} B^T p = lambda M_Q p, ascending, by
    ``dense_schur`` and LAPACK ``eigh`` against M_Q: the inf-sup pencil
    with A = A_div (Brezzi) or A_1 (Stokes)."""
    s = dense_schur(forms.B, A)
    return sla.eigh(0.5 * (s + s.T), forms.M_Q.toarray(), eigvals_only=True)


def laplace_pencil_eigenvalues(forms):
    """Mixed Laplace pencil B M_V^{-1} B^T p = mu M_Q p by its own Schur complement."""
    return schur_pencil_eigenvalues(forms, forms.M_V)


def dense_schur_solve(forms, rhs):
    """Source problem by the dense pressure Schur complement S = B M_V^{-1} B^T.

    Solves M_V u + B^T p = 0, B u = rhs with a Cholesky factor of S and
    returns (u, p) as coefficient arrays.
    """
    b = forms.B.toarray()
    x = np.linalg.solve(forms.M_V.toarray(), b.T)    # M_V^{-1} B^T
    p = sla.cho_solve(sla.cho_factor(b @ x), -rhs)
    return -(x @ p), p


def dense_reduced_solve(forms, rhs, rank_tol=1e-8):
    """Source problem on the pair (V_h, div V_h), solved densely.

    With M_Q = L L^T (Cholesky) and C = L^{-1}, the columns Z of the left
    singular vectors of C B whose singular values exceed ``rank_tol``
    times the largest are an orthonormal basis of div V_h in
    M_Q-orthonormal coordinates.  Solves M_V u + (C B)^T Z a = 0,
    Z^T (C B) u = Z^T C rhs with ``np.linalg.solve`` and returns (u, p),
    p = C^T Z a, as coefficient arrays.
    """
    lower = np.linalg.cholesky(forms.M_Q.toarray())
    cb = sla.solve_triangular(lower, forms.B.toarray(), lower=True)
    left, svals, _ = np.linalg.svd(cb, full_matrices=False)
    z = left[:, svals > rank_tol * svals[0]]
    cbz = cb.T @ z
    n_v, rank = cbz.shape
    lhs = np.zeros((n_v + rank, n_v + rank))
    lhs[:n_v, :n_v] = forms.M_V.toarray()
    lhs[:n_v, n_v:] = cbz
    lhs[n_v:, :n_v] = cbz.T
    load = z.T @ sla.solve_triangular(lower, rhs, lower=True)
    x = np.linalg.solve(lhs, np.concatenate([np.zeros(n_v), load]))
    return x[:n_v], sla.solve_triangular(lower.T, z @ x[n_v:], lower=False)


def singular_vertex_sums(space, p):
    """At each singular vertex, the alternating sum of the four values
    that the pressure field with coefficients ``p`` in ``space`` takes
    there, one per cell, taken around the vertex.  It vanishes on the
    divergence of every continuous piecewise polynomial velocity (Scott &
    Vogelius), so it is zero for a pressure in div V_h.  Returns one sum
    per singular vertex, in their order."""
    mesh = space.mesh
    corners = space.element.tabulate(np.array([[0.0, 0.0], [1.0, 0.0],
                                               [0.0, 1.0]]))
    sums = []
    for v in singular_vertices(mesh):
        cells, local = np.nonzero(mesh.cells == v)
        offset = (mesh.vertices[mesh.cells[cells]].mean(axis=1)
                  - mesh.vertices[v])
        order = np.argsort(np.arctan2(offset[:, 1], offset[:, 0]))
        values = np.einsum("ck,ck->c", corners[local],
                           p[space.cell_dofs[cells]])[order]
        sums.append(values @ np.array([1.0, -1.0, 1.0, -1.0]))
    return np.array(sums)


def interpolate(f, space):
    """Coefficients of the nodal interpolant of a callable field on
    ``space``: ``f`` maps an (npts, 2) array of points to (npts,) values,
    or (npts, 2) on a vector space, whose components interleave as its
    DOFs do."""
    return np.asarray(f(space.interpolation_points), dtype=float).reshape(-1)


def eval_scalar(space, values, ref_points):
    """The scalar field with coefficients ``values`` at reference points in
    every cell: (ncells, npts)."""
    tab = space.element.tabulate(ref_points)
    return np.einsum("qk,ck->cq", tab, values[space.cell_dofs])


def eval_vector(space, values, ref_points):
    """The vector field with coefficients ``values`` at reference points in
    every cell: (ncells, npts, 2)."""
    tab = space.element.tabulate(ref_points)   # the scalar basis
    comp = values[space.cell_dofs].reshape(len(space.cell_dofs), -1, 2)
    return np.einsum("qk,ckd->cqd", tab, comp)


def eval_divergence(space, values, ref_points):
    """Divergence of the vector field with coefficients ``values`` at
    reference points in every cell: (ncells, npts), from the reference
    gradients pushed forward by the inverse transposed Jacobian."""
    dtab = space.element.tabulate_gradients(ref_points)   # (nq, nb, 2)
    _, inv_jac_t, _ = cell_geometry(space.mesh)
    comp = values[space.cell_dofs].reshape(len(space.cell_dofs), -1, 2)
    ref = np.einsum("qke,ckd->cqde", dtab, comp)
    return np.einsum("cde,cqde->cq", inv_jac_t, ref)


def monomial_integral(i, j):
    """Exact integral of x**i y**j over the reference triangle."""
    return float(Fraction(math.factorial(i) * math.factorial(j),
                          math.factorial(i + j + 2)))


def _exp_factors(pts):
    """p = f(x) k(y) of EXP with f = x (1 - x) e^x and k = y (1 - y) e^{2y}:
    (f, f', f'') and (k, k', k'') at the points."""
    x, y = pts[:, 0], pts[:, 1]
    ex, ey = np.exp(x), np.exp(2.0 * y)
    return ((x * (1.0 - x) * ex, (1.0 - x - x * x) * ex, -x * (x + 3.0) * ex),
            (y * (1.0 - y) * ey, (1.0 - 2.0 * y * y) * ey,
             (2.0 - 4.0 * y - 4.0 * y * y) * ey))


def _exp_p(pts):
    (f, _, _), (k, _, _) = _exp_factors(pts)
    return f * k


def _exp_u(pts):
    (f, df, _), (k, dk, _) = _exp_factors(pts)
    return np.stack([df * k, f * dk], axis=-1)


def _exp_g(pts):
    (f, _, d2f), (k, _, d2k) = _exp_factors(pts)
    return d2f * k + f * d2k


# p = x (1 - x) y (1 - y) e^{x + 2y}, u = grad p, g = div u
EXP = Solution("exp", _exp_p, _exp_u, _exp_g)


def divdiv_pencil_eigenvalues(forms):
    """Div-div form against the vector mass, K u = nu M_V u, solved densely."""
    return sla.eigh(forms.K.toarray(), forms.M_V.toarray(), eigvals_only=True)


def _scatter(local, row_dofs, col_dofs, shape):
    rows = np.broadcast_to(row_dofs[:, :, None], local.shape).ravel()
    cols = np.broadcast_to(col_dofs[:, None, :], local.shape).ravel()
    mat = sp.coo_matrix((local.ravel(), (rows, cols)), shape=shape).tocsr()
    mat.sum_duplicates()
    mat.eliminate_zeros()
    return mat


def _symmetrized(mat):
    return (mat + mat.T) * 0.5


def reference_assemble(V_h, Q_h):
    """The six forms, each scattered and symmetrized on its own."""
    mesh = V_h.mesh
    r = V_h.degree
    rule = quadrature(2 * r + 2)
    w = rule.weights

    phi = V_h.element.tabulate(rule.points)            # (nq, nb)
    dphi = V_h.element.tabulate_gradients(rule.points)  # (nq, nb, 2)
    psi = Q_h.element.tabulate(rule.points)            # (nq, nbq)
    _, inv_jac_t, det = cell_geometry(mesh)

    C = mesh.num_cells
    nb = phi.shape[1]

    g = np.einsum("cde,qie->cqid", inv_jac_t, dphi)
    D = g.reshape(C, len(w), 2 * nb)

    mass_ref = np.einsum("q,qi,qj->ij", w, phi, phi)
    mass_vec = np.kron(mass_ref, np.eye(2))
    mloc = det[:, None, None] * mass_vec[None, :, :]

    kloc = np.einsum("q,cqm,cqn->cmn", w, D, D, optimize=True) * det[:, None, None]

    grad_scalar = np.einsum("q,cqid,cqjd->cij", w, g, g, optimize=True)
    gloc = np.einsum("cij,ab->ciajb", grad_scalar, np.eye(2)).reshape(C, 2 * nb, 2 * nb)
    gloc *= det[:, None, None]

    bloc = np.einsum("q,qk,cqm->ckm", w, psi, D) * det[:, None, None]

    mq_ref = np.einsum("q,qk,ql->kl", w, psi, psi)
    mqloc = det[:, None, None] * mq_ref[None, :, :]

    vd = V_h.cell_dofs
    qd = Q_h.cell_dofs
    nV, nQ = V_h.ndofs, Q_h.ndofs
    M_V = _symmetrized(_scatter(mloc, vd, vd, (nV, nV)))
    K = _symmetrized(_scatter(kloc, vd, vd, (nV, nV)))
    G = _symmetrized(_scatter(gloc, vd, vd, (nV, nV)))
    B = _scatter(bloc, qd, vd, (nQ, nV))
    M_Q = _symmetrized(_scatter(mqloc, qd, qd, (nQ, nQ)))
    return AssembledForms(V_h=V_h, Q_h=Q_h, M_V=M_V.tocsr(), K=K.tocsr(),
                          A_div=(M_V + K).tocsr(), B=B.tocsr(),
                          M_Q=M_Q.tocsr(), A_1=(M_V + G).tocsr())
