"""Global function spaces and sparse assembly of the saddle-point forms.

The velocity space is continuous vector Lagrange of degree r, the
pressure space cellwise-discontinuous polynomials of degree r-1, on the
same triangulation.  No boundary conditions are imposed on either space;
the scalar boundary condition of the mixed formulation is natural.
Vector degrees of freedom interleave components per node (x0, y0, x1,
y1, ...), and global scalar numbering runs vertices, then edge nodes,
then cell-interior nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.io import mmwrite

from .element import ElementKind, ReferenceElement, quadrature
from .errors import UnsupportedDegreeError

MAX_SPACE_DEGREE = 6


class FunctionSpace:
    """Global DOF map tying a reference element to a mesh.

    Attributes
    ----------
    mesh : Triangulation
    element : ReferenceElement
    cell_dofs : ndarray, shape (C, local_dim)
        Global dof per local basis function (interleaved for vector).
    ndofs : int
    interpolation_points : ndarray, shape (npoints, 2)
        One physical point per scalar node; npoints = ndofs for scalar
        spaces and ndofs // 2 for vector spaces.
    """

    def __init__(self, mesh, element, cell_dofs, ndofs, interpolation_points):
        self.mesh = mesh
        self.element = element
        self.cell_dofs = cell_dofs
        self.ndofs = int(ndofs)
        self.interpolation_points = interpolation_points
        cell_dofs.setflags(write=False)
        interpolation_points.setflags(write=False)

    @property
    def is_vector(self):
        return self.element.kind is ElementKind.VECTOR_LAGRANGE

    @property
    def degree(self):
        return self.element.degree


def cell_geometry(mesh):
    """Affine cell maps: returns (jac, inv_jac_t, det) with det > 0."""
    v = mesh.vertices
    a = v[mesh.cells[:, 0]]
    b = v[mesh.cells[:, 1]]
    c = v[mesh.cells[:, 2]]
    jac = np.empty((mesh.num_cells, 2, 2))
    jac[:, :, 0] = b - a
    jac[:, :, 1] = c - a
    det = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
    inv_jac_t = np.empty_like(jac)
    inv_jac_t[:, 0, 0] = jac[:, 1, 1]
    inv_jac_t[:, 0, 1] = -jac[:, 1, 0]
    inv_jac_t[:, 1, 0] = -jac[:, 0, 1]
    inv_jac_t[:, 1, 1] = jac[:, 0, 0]
    inv_jac_t /= det[:, None, None]
    return jac, inv_jac_t, det


def scalar_lagrange_space(mesh, degree):
    """Continuous scalar Lagrange space of the given degree (1..6)."""
    elem = ReferenceElement.scalar_lagrange(degree)
    r = degree
    V, E, C = mesh.num_vertices, mesh.num_edges, mesh.num_cells
    nedge = r - 1
    nint = (r - 1) * (r - 2) // 2
    ndofs = V + E * nedge + C * nint
    nb = elem.num_scalar_basis
    cell_dofs = np.empty((C, nb), dtype=np.int64)
    cell_dofs[:, :3] = mesh.cells
    if nedge:
        for e, (la, lb) in enumerate(((0, 1), (1, 2), (2, 0))):
            a = mesh.cells[:, la]
            b = mesh.cells[:, lb]
            base = V + mesh.cell_edges[:, e] * nedge
            for k in range(nedge):
                # edge nodes are stored from the lower-numbered endpoint
                cell_dofs[:, 3 + e * nedge + k] = np.where(a < b, base + k,
                                                           base + nedge - 1 - k)
    if nint:
        start = V + E * nedge
        cell_dofs[:, 3 + 3 * nedge:] = (start + nint * np.arange(C)[:, None]
                                        + np.arange(nint)[None, :])

    pts = np.empty((ndofs, 2))
    pts[:V] = mesh.vertices
    if nedge:
        lo = mesh.vertices[mesh.edges[:, 0]]
        hi = mesh.vertices[mesh.edges[:, 1]]
        for k in range(nedge):
            t = (k + 1) / r
            pts[V + k:V + E * nedge:nedge] = lo + t * (hi - lo)
    if nint:
        jac, _, _ = cell_geometry(mesh)
        ref = elem.nodes[3 + 3 * nedge:]
        origin = mesh.vertices[mesh.cells[:, 0]]
        phys = origin[:, None, :] + np.einsum("cde,me->cmd", jac, ref)
        pts[V + E * nedge:] = phys.reshape(C * nint, 2)
    return FunctionSpace(mesh, elem, cell_dofs, ndofs, pts)


def vector_lagrange_space(mesh, degree):
    """Continuous vector Lagrange space; dofs interleave (x, y) per node."""
    scalar = scalar_lagrange_space(mesh, degree)
    elem = ReferenceElement.vector_lagrange(degree)
    nb = scalar.cell_dofs.shape[1]
    cell_dofs = np.empty((mesh.num_cells, 2 * nb), dtype=np.int64)
    cell_dofs[:, 0::2] = 2 * scalar.cell_dofs
    cell_dofs[:, 1::2] = 2 * scalar.cell_dofs + 1
    return FunctionSpace(mesh, elem, cell_dofs, 2 * scalar.ndofs,
                         scalar.interpolation_points.copy())


def discontinuous_space(mesh, degree):
    """Cellwise-discontinuous nodal space of the given degree (0..5)."""
    elem = ReferenceElement.discontinuous(degree)
    C = mesh.num_cells
    nb = elem.num_scalar_basis
    cell_dofs = np.arange(C * nb, dtype=np.int64).reshape(C, nb)
    jac, _, _ = cell_geometry(mesh)
    origin = mesh.vertices[mesh.cells[:, 0]]
    phys = origin[:, None, :] + np.einsum("cde,me->cmd", jac, elem.nodes)
    return FunctionSpace(mesh, elem, cell_dofs, C * nb, phys.reshape(C * nb, 2))


def build_spaces(mesh, degree):
    """Velocity/pressure pair: vector Lagrange r and discontinuous r-1."""
    if not 1 <= degree <= MAX_SPACE_DEGREE:
        raise UnsupportedDegreeError(
            f"pair degree must be in 1..{MAX_SPACE_DEGREE}, got {degree}")
    return vector_lagrange_space(mesh, degree), discontinuous_space(mesh, degree - 1)


@dataclass
class AssembledForms:
    """Sparse (CSR) matrices of the mixed formulation on one mesh.

    M_V   vector mass               <u, v>
    K     divergence stiffness      <div u, div v>
    A_div H(div) inner product      M_V + K
    B     mixed divergence          B[q, v] = <div v, q>
    M_Q   pressure mass             <p, q>
    A_1   H1 inner product          <u, v> + <grad u, grad v>
    """

    V_h: FunctionSpace
    Q_h: FunctionSpace
    M_V: sp.csr_matrix
    K: sp.csr_matrix
    A_div: sp.csr_matrix
    B: sp.csr_matrix
    M_Q: sp.csr_matrix
    A_1: sp.csr_matrix

    @property
    def mesh(self):
        return self.V_h.mesh


def _scatter(local, row_dofs, col_dofs, shape):
    rows = np.broadcast_to(row_dofs[:, :, None], local.shape).ravel()
    cols = np.broadcast_to(col_dofs[:, None, :], local.shape).ravel()
    mat = sp.coo_matrix((local.ravel(), (rows, cols)), shape=shape).tocsr()
    mat.sum_duplicates()
    mat.eliminate_zeros()
    return mat


def _symmetrized(mat):
    return (mat + mat.T) * 0.5


def assemble(V_h, Q_h):
    """Assemble all forms for a velocity/pressure pair on one mesh.

    The quadrature degree is 2r + 2, which is exact for every assembled
    integrand on affine cells.

    Returns
    -------
    AssembledForms
    """
    if V_h.mesh is not Q_h.mesh:
        raise ValueError("spaces must share one mesh")
    if not V_h.is_vector or V_h.element.kind is not ElementKind.VECTOR_LAGRANGE:
        raise ValueError("V_h must be a vector Lagrange space")
    if Q_h.element.kind is not ElementKind.DISCONTINUOUS:
        raise ValueError("Q_h must be a discontinuous space")
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
    nbq = psi.shape[1]

    # physical gradients g[c, q, i, d] and the flattened divergence table
    # D[c, q, 2i+d] = d_d phi_i, matching the interleaved vector layout
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


def pressure_mass_solve(forms, rhs):
    """Apply M_Q^{-1} exactly using the cellwise block structure."""
    _, _, det = cell_geometry(forms.mesh)
    elem = forms.Q_h.element
    rule = quadrature(2 * max(elem.degree, 1))
    psi = elem.tabulate(rule.points)
    mq_ref = np.einsum("q,qk,ql->kl", rule.weights, psi, psi)
    inv_ref = np.linalg.inv(mq_ref)
    nb = psi.shape[1]
    blocks = np.asarray(rhs).reshape(forms.mesh.num_cells, nb)
    return (blocks @ inv_ref / det[:, None]).ravel()


def write_matrix_market(forms, directory):
    """Dump the six assembled matrices as Matrix Market files."""
    import os

    os.makedirs(directory, exist_ok=True)
    for name in ("M_V", "K", "A_div", "B", "M_Q", "A_1"):
        mmwrite(os.path.join(directory, f"{name}.mtx"), getattr(forms, name))
