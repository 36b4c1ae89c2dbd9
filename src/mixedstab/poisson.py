"""Mixed source problem: the solve and the error norms.

Solves M_V u + B^T p = 0, B u = G on the pair (V_h, div V_h), the same
path at every size, with spurious pressure modes or without: the load is
projected onto div V_h, and p is orthogonal to the spurious modes.  One
sparse LDL^T of A_div serves two conjugate-gradient runs on the inf-sup
operator, and every returned solution has passed a 1e-10 relative
residual check (``solve_mixed``).
The load G and the errors of (u_h, p_h) come from the closed-form solution

    p(x, y) = sin(2 pi x) sin(2 pi y),   u = grad p,   g = div u,

evaluated at the points of the degree-14 quadrature rule that computes
every integral here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import LinearOperator, cg

from .assembly import cell_geometry, orthonormal_divergence
from .eigensolve import positive_definite_lu
from .element import quadrature
from .errors import NumericalError

ERROR_QUAD_DEGREE = 14


@dataclass
class FieldCoefficients:
    """Coefficients of a finite element field, one real per DOF."""

    space: object
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.space.ndofs,):
            raise ValueError(
                f"coefficient vector has length {self.values.shape}, "
                f"space has {self.space.ndofs} dofs")


def interpolate(f, space):
    """Nodal interpolant of a callable field.

    ``f`` maps an (npts, 2) array of coordinates to values: shape (npts,)
    for a scalar space, (npts, 2) for a vector one.  Vector components
    interleave in the coefficient vector, matching the DOF layout.
    """
    pts = space.interpolation_points
    vals = np.asarray(f(pts), dtype=float)
    if space.is_vector:
        if vals.shape != (len(pts), 2):
            raise ValueError(f"vector field returned shape {vals.shape}")
        coeffs = vals.reshape(-1)
    else:
        if vals.shape != (len(pts),):
            raise ValueError(f"scalar field returned shape {vals.shape}")
        coeffs = vals
    return FieldCoefficients(space, coeffs)


def manufactured_solution():
    """Closed-form pressure, velocity and source on the unit square."""
    two_pi = 2.0 * np.pi

    def p(pts):
        return np.sin(two_pi * pts[:, 0]) * np.sin(two_pi * pts[:, 1])

    def u(pts):
        sx, cx = np.sin(two_pi * pts[:, 0]), np.cos(two_pi * pts[:, 0])
        sy, cy = np.sin(two_pi * pts[:, 1]), np.cos(two_pi * pts[:, 1])
        return two_pi * np.stack([cx * sy, sx * cy], axis=-1)

    def g(pts):
        return -2.0 * two_pi ** 2 * p(pts)

    return p, u, g


def _cell_coefficients(field):
    """Per-cell coefficient table, shape (ncells, local dofs)."""
    return field.values[field.space.cell_dofs]


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


def eval_scalar(field, ref_points):
    """Field values at reference points in every cell: (ncells, npts)."""
    tab = field.space.element.tabulate(ref_points)
    return np.einsum("qk,ck->cq", tab, _cell_coefficients(field))


def eval_vector(field, ref_points):
    """Vector field values at reference points: (ncells, npts, 2)."""
    tab = field.space.element.tabulate(ref_points)  # scalar basis
    coef = _cell_coefficients(field)
    ncells, nloc = coef.shape
    comp = coef.reshape(ncells, nloc // 2, 2)
    return np.einsum("qk,ckd->cqd", tab, comp)


def eval_divergence(field, ref_points):
    """Divergence of a vector field at reference points: (ncells, npts)."""
    dtab = field.space.element.tabulate_gradients(ref_points)  # (nq, nb, 2)
    _, inv_jac_t, _ = cell_geometry(field.space.mesh)
    coef = _cell_coefficients(field)
    comp = coef.reshape(len(coef), -1, 2)
    # reference Jacobian of the field, ref[c, q, d, e] = d(u_d)/d(xi_e),
    # then div = sum_d d(u_d)/dx_d = sum_{d,e} inv_jac_t[c, d, e] ref[c, q, d, e]
    ref = np.einsum("qke,ckd->cqde", dtab, comp, optimize=True)
    return np.einsum("cde,cqde->cq", inv_jac_t, ref)


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
    """Solve the mixed source problem on (V_h, div V_h) for (u_h, p_h),
    with load vector ``rhs`` = G, one entry per pressure DOF.

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
    return (FieldCoefficients(forms.V_h, u), FieldCoefficients(forms.Q_h, p))


@dataclass
class ErrorNorms:
    p_l2: float
    u_div: float    # divergence seminorm
    u_l2: float
    u_hdiv: float


def error_norms(u_h, p_h, u_exact, p_exact, div_exact):
    """Errors of (u_h, p_h), fields on one mesh, against the closed-form
    velocity ``u_exact``, pressure ``p_exact`` and divergence ``div_exact``
    (callables as returned by ``manufactured_solution``)."""
    mesh = u_h.space.mesh
    if p_h.space.mesh is not mesh:
        raise ValueError("error_norms requires fields on one mesh")
    rule = quadrature(ERROR_QUAD_DEGREE)
    _, _, det = cell_geometry(mesh)

    def integral(cellwise_sq):
        return float(np.einsum("cq,q,c->", cellwise_sq, rule.weights, det))

    pts = _physical_points(mesh, rule.points)
    dp = eval_scalar(p_h, rule.points) - _closed_form(p_exact, pts)
    du = eval_vector(u_h, rule.points) - _closed_form(u_exact, pts)
    ddiv = eval_divergence(u_h, rule.points) - _closed_form(div_exact, pts)
    p_sq = integral(dp ** 2)
    u_sq = integral(np.sum(du ** 2, axis=-1))
    div_sq = integral(ddiv ** 2)
    return ErrorNorms(
        p_l2=np.sqrt(p_sq),
        u_div=np.sqrt(div_sq),
        u_l2=np.sqrt(u_sq),
        u_hdiv=np.sqrt(u_sq + div_sq),
    )


NORM_KEYS = ("p_l2", "u_div", "u_l2", "u_hdiv")

