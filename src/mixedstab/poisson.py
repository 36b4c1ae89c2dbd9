"""Mixed source problem: the solve, the error norms and convergence rates.

Solves M_V u + B^T p = 0, B u = G on the pair (V_h, div V_h), the same
path at every size, with spurious pressure modes or without: the load is
projected onto div V_h, and p is orthogonal to the spurious modes.  One
sparse LDL^T of A_div serves two conjugate-gradient runs on the inf-sup
operator, and every returned solution has passed a 1e-10 relative
residual check (``solve_mixed``).  A solution is the pair of coefficient
arrays (u, p) of V_h and Q_h, and the forms say which spaces they belong to.
The load G and the errors of (u, p) (``source_errors``, a dict keyed by
``NORM_KEYS``) come from a closed-form ``Solution``, evaluated at the
points of the degree-14 quadrature rule that computes every integral here.
Every command uses

    SINE:  p(x, y) = sin(2 pi x) sin(2 pi y),   u = grad p,   g = div u.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import LinearOperator, cg

from .assembly import case_forms, cell_geometry, orthonormal_divergence
from .eigensolve import positive_definite_lu
from .element import quadrature
from .errors import NumericalError

ERROR_QUAD_DEGREE = 14


@dataclass(frozen=True)
class Solution:
    """A closed-form solution on the unit square: callables ``p``, ``u`` =
    grad p and ``g`` = div u of an (npts, 2) array of points."""

    name: str
    p: object
    u: object
    g: object


_TWO_PI = 2.0 * np.pi


def _sine_p(pts):
    return np.sin(_TWO_PI * pts[:, 0]) * np.sin(_TWO_PI * pts[:, 1])


def _sine_u(pts):
    sx, cx = np.sin(_TWO_PI * pts[:, 0]), np.cos(_TWO_PI * pts[:, 0])
    sy, cy = np.sin(_TWO_PI * pts[:, 1]), np.cos(_TWO_PI * pts[:, 1])
    return _TWO_PI * np.stack([cx * sy, sx * cy], axis=-1)


SINE = Solution("sine", _sine_p, _sine_u,
                lambda pts: -2.0 * _TWO_PI ** 2 * _sine_p(pts))


def _physical_points(mesh, ref_points):
    """Map reference points into every cell: (ncells, npts, 2)."""
    a = mesh.vertices[mesh.cells[:, 0]]
    b = mesh.vertices[mesh.cells[:, 1]]
    c = mesh.vertices[mesh.cells[:, 2]]
    x, y = ref_points[:, 0], ref_points[:, 1]
    return (a[:, None, :]
            + x[None, :, None] * (b - a)[:, None, :]
            + y[None, :, None] * (c - a)[:, None, :])


def _closed_form(f, pts):
    """A closed-form field at the physical points ``pts`` (ncells, npts, 2):
    (ncells, npts) for a scalar ``f``, (ncells, npts, 2) for a vector one."""
    vals = np.asarray(f(pts.reshape(-1, 2)), dtype=float)
    return vals.reshape(pts.shape[:2] + vals.shape[1:])


def load_vector(g, q_space):
    """Right-hand side G = <g, psi> of the closed-form source ``g`` against
    the pressure basis."""
    rule = quadrature(ERROR_QUAD_DEGREE)
    _, _, det = cell_geometry(q_space.mesh)
    gvals = _closed_form(g, _physical_points(q_space.mesh, rule.points))
    psi = q_space.element.tabulate(rule.points)
    cellwise = np.einsum("q,cq,qk->ck", rule.weights, gvals, psi) * det[:, None]
    out = np.zeros(q_space.ndofs)
    np.add.at(out, q_space.cell_dofs, cellwise)
    return out


def solve_mixed(forms, rhs):
    """Solve the mixed source problem on (V_h, div V_h) for the coefficient
    arrays (u, p) of V_h and Q_h, with load vector ``rhs`` = G, one entry
    per pressure DOF.

    In M_Q-orthonormal pressure coordinates, with C B from
    ``orthonormal_divergence``, g_hat = C G and p = C^T p_hat, the system
    reads A_div u + (C B)^T p_hat = (C B)^T g_hat, (C B) u = g_hat, since
    K = (C B)^T (C B).  T = (C B) A_div^{-1} (C B)^T has the inf-sup
    eigenvalues lambda in [beta^2, 1] on div V_h and zero on the spurious
    modes N_h, and CG on a consistent singular system stays in the range of
    T, div V_h.  So CG on T y = T g_hat gives y = g_r, the part of g_hat in
    div V_h, and CG on T w = y gives w; then p_hat = y - w (L2-orthogonal
    to N_h) and u = A_div^{-1} (C B)^T w solve the system with the load g_r.
    Both runs solve with the LDL^T that certifies A_div positive definite,
    at rtol 1e-13.  CG on T p_hat = T y - y instead, whose right-hand side
    can be far below the rounding of y on N_h, broke down or stalled.
    Raises NumericalError when CG does not converge or the residual against
    G_r = C^{-1} g_r is not below 1e-10 relative, and ValueError when
    ``rhs`` does not have shape (nQ,).
    """
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape != (forms.Q_h.ndofs,):
        raise ValueError(f"load vector has shape {rhs.shape}, pressure space "
                         f"has {forms.Q_h.ndofs} dofs")
    a_div = positive_definite_lu(forms.A_div)
    b_hat, lower = orthonormal_divergence(forms)
    nb = lower.shape[1]
    g_hat = np.linalg.solve(lower, rhs.reshape(-1, nb, 1)).ravel()

    def infsup_operator(x):
        return b_hat @ a_div.solve(b_hat.T @ x)

    def cg_solve(b):
        x, info = cg(LinearOperator((len(b),) * 2, matvec=infsup_operator,
                                    dtype=float), b, rtol=1e-13, atol=0.0)
        if info != 0:
            raise NumericalError(f"CG on the inf-sup operator did not "
                                 f"converge (info {info})")
        return x

    g_r = cg_solve(infsup_operator(g_hat))
    w = cg_solve(g_r)
    u = a_div.solve(b_hat.T @ w)
    p = np.linalg.solve(lower.transpose(0, 2, 1),
                        (g_r - w).reshape(-1, nb, 1)).ravel()

    rhs_r = (lower @ g_r.reshape(-1, nb, 1)).ravel()
    scale = max(np.linalg.norm(rhs), 1.0)
    res_u = np.linalg.norm(forms.M_V @ u + forms.B.T @ p)
    res_p = np.linalg.norm(forms.B @ u - rhs_r)
    # written so that a NaN residual fails it
    if not (res_u <= 1e-10 * scale and res_p <= 1e-10 * scale):
        raise NumericalError(
            f"mixed solve residual too large: |M_V u + B^T p| = {res_u:.2e}, "
            f"|B u - G_r| = {res_p:.2e} against scale {scale:.2e}")
    return u, p


NORM_KEYS = ("p_l2", "u_div", "u_l2", "u_hdiv")


def error_norms(forms, u, p, solution):
    """Errors of the solution with coefficients ``u`` (V_h) and ``p`` (Q_h)
    of ``forms`` against the closed-form velocity, pressure and divergence
    of ``solution``: NORM_KEYS to the p L2 error, the divergence seminorm,
    the u L2 and the u H(div) error.  Raises ValueError unless u has nV
    entries and p has nQ."""
    u, p = np.asarray(u, dtype=float), np.asarray(p, dtype=float)
    for name, values, space in (("u", u, forms.V_h), ("p", p, forms.Q_h)):
        if values.shape != (space.ndofs,):
            raise ValueError(f"{name} has shape {values.shape}, its space "
                             f"has {space.ndofs} dofs")
    mesh = forms.mesh
    rule = quadrature(ERROR_QUAD_DEGREE)
    _, inv_jac_t, det = cell_geometry(mesh)

    def integral(cellwise_sq):
        return float(np.einsum("cq,q,c->", cellwise_sq, rule.weights, det))

    pts = _physical_points(mesh, rule.points)
    element = forms.V_h.element   # the scalar basis of each component
    comp = u[forms.V_h.cell_dofs].reshape(len(mesh.cells), -1, 2)
    p_vals = np.einsum("qk,ck->cq", forms.Q_h.element.tabulate(rule.points),
                       p[forms.Q_h.cell_dofs])
    u_vals = np.einsum("qk,ckd->cqd", element.tabulate(rule.points), comp)
    # reference Jacobian of u, ref[c, q, d, e] = d(u_d)/d(xi_e), then
    # div u = sum_{d,e} inv_jac_t[c, d, e] ref[c, q, d, e]
    ref = np.einsum("qke,ckd->cqde", element.tabulate_gradients(rule.points),
                    comp, optimize=True)
    div_vals = np.einsum("cde,cqde->cq", inv_jac_t, ref)
    p_sq = integral((p_vals - _closed_form(solution.p, pts)) ** 2)
    u_sq = integral(np.sum((u_vals - _closed_form(solution.u, pts)) ** 2,
                           axis=-1))
    div_sq = integral((div_vals - _closed_form(solution.g, pts)) ** 2)
    return {"p_l2": np.sqrt(p_sq), "u_div": np.sqrt(div_sq),
            "u_l2": np.sqrt(u_sq), "u_hdiv": np.sqrt(u_sq + div_sq)}


def source_errors(forms, solution):
    """``error_norms`` of the source problem on (V_h, div V_h) of
    ``forms``, with the closed-form load of ``solution``, projected onto
    div V_h by ``solve_mixed``."""
    u, p = solve_mixed(forms, load_vector(solution.g, forms.Q_h))
    return error_norms(forms, u, p, solution)


def convergence_study(meshes, r, solution):
    """Errors, rates and normalized (over the first) errors of ``solution``
    at degree r on a sequence of meshes, each NORM_KEYS to a list in order.
    The forms of a mesh are dropped before the next is assembled.  A rate is
    a log2 ratio of consecutive errors, None unless the largest edge halves
    (to 1e-9 relative) or an error is zero."""
    h = [np.max(np.linalg.norm(np.diff(m.vertices[m.edges], axis=1), axis=-1))
         for m in meshes]   # the largest edge
    rows = [source_errors(case_forms(mesh, r), solution) for mesh in meshes]
    errors = {k: [row[k] for row in rows] for k in NORM_KEYS}
    halved = [abs(a - 2.0 * b) <= 1e-9 * a for a, b in zip(h, h[1:])]
    rates = {k: [float(np.log2(e[i] / e[i + 1])) if d and e[i + 1] > 0 else None
                 for i, d in enumerate(halved)] for k, e in errors.items()}
    normalized = {k: [x / e[0] for x in e] for k, e in errors.items()}
    return {"errors": errors, "rates": rates, "normalized": normalized}
