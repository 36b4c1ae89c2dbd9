"""Mixed source problem: the solve and the error norms.

Solves M_V u + B^T p = 0, B u = G on the H(div) norm matrix A_div, the
same path at every size.  One sparse LDL^T certifies A_div positive
definite, and conjugate gradients on the inf-sup operator, one solve with
that factor per step, give the pressure; every returned solution has
passed a 1e-10 relative residual check.  Spurious pressure modes make the
saddle-point problem singular, so the pair must have none:
``stability.Case.errors`` counts them first and refuses the case.
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
    """Solve the mixed source problem for (u_h, p_h) with load vector
    ``rhs`` = G, one entry per pressure DOF (see ``load_vector``).

    The pair must have no spurious pressure modes, which make the system
    singular; ``stability.Case.errors`` counts them first and refuses the
    case.  In M_Q-orthonormal pressure coordinates, with C B from
    ``orthonormal_divergence``, g_hat = C G and p = C^T p_hat, the system
    reads A_div u + (C B)^T p_hat = (C B)^T g_hat, (C B) u = g_hat, since
    K = (C B)^T (C B).  Eliminating u leaves
    T p_hat = T g_hat - g_hat with T = (C B) A_div^{-1} (C B)^T, whose
    eigenvalues are the inf-sup lambda in [beta^2, 1].  CG solves it, one
    solve per step on the LDL^T that certifies A_div positive definite,
    and u = A_div^{-1} (C B)^T (g_hat - p_hat).  Raises NumericalError
    when CG does not converge or the assembled-system residual exceeds
    1e-10 relative, and ValueError when ``rhs`` does not have shape (nQ,).
    """
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape != (forms.Q_h.ndofs,):
        raise ValueError(f"load vector has shape {rhs.shape}, pressure space "
                         f"has {forms.Q_h.ndofs} dofs")
    a_div = positive_definite_lu(forms.A_div)
    b_hat, lower = orthonormal_divergence(forms)
    n_q = forms.Q_h.ndofs
    nb = lower.shape[1]
    g_hat = np.linalg.solve(lower, rhs.reshape(-1, nb, 1)).ravel()

    def infsup_operator(x):
        return b_hat @ a_div.solve(b_hat.T @ x)

    t_op = LinearOperator((n_q, n_q), matvec=infsup_operator, dtype=float)
    p_hat, info = cg(t_op, infsup_operator(g_hat) - g_hat, rtol=1e-15,
                     atol=0.0)
    if info != 0:
        raise NumericalError(f"CG on the inf-sup operator did not converge "
                             f"(info {info})")
    u = a_div.solve(b_hat.T @ (g_hat - p_hat))
    p = np.linalg.solve(lower.transpose(0, 2, 1),
                        p_hat.reshape(-1, nb, 1)).ravel()

    scale = max(np.linalg.norm(rhs), 1.0)
    res_u = np.linalg.norm(forms.M_V @ u + forms.B.T @ p)
    res_p = np.linalg.norm(forms.B @ u - rhs)
    if max(res_u, res_p) > 1e-10 * scale:
        raise NumericalError(
            f"mixed solve residual too large: |M_V u + B^T p| = {res_u:.2e}, "
            f"|B u - G| = {res_p:.2e} against scale {scale:.2e}")
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

