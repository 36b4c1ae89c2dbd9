"""Global function spaces and sparse assembly of the saddle-point forms.

The velocity space is continuous vector Lagrange of degree r, the
pressure space cellwise-discontinuous polynomials of degree r-1, on the
same triangulation.  Both use the nodal ``ReferenceElement`` of their
degree; continuity lives in the DOF map alone.  No boundary conditions
are imposed on either space; the scalar boundary condition of the mixed
formulation is natural.
Vector degrees of freedom interleave components per node (x0, y0, x1,
y1, ...), and global scalar numbering runs vertices, then edge nodes,
then cell-interior nodes.

Assembly computes the sparsity pattern once and reuses it for every form
that scatters over the same blocks (as in MILAMIN, Dabrowski, Krotkiewski
& Schmid 2008, and Cuvelier, Japhet & Scarella 2016): M_V, K and the
grad-grad form all live on the ``cell_dofs x cell_dofs`` blocks of V_h,
so one pattern and one summation map serve all three, and each form is
one gather and one ``np.bincount``.  The summation order is the one of
scipy's COO->CSR conversion, so the matrices are bit for bit those of
converting each form on its own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .element import MAX_SPACE_DEGREE, ReferenceElement, quadrature
from .errors import NumericalError, UnsupportedDegreeError


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
    """Continuous scalar Lagrange space of the given degree
    (1..MAX_SPACE_DEGREE)."""
    if degree < 1:
        raise UnsupportedDegreeError(
            f"continuous Lagrange degree must be in 1..{MAX_SPACE_DEGREE}, got {degree}")
    elem = ReferenceElement(degree)
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
    nb = scalar.cell_dofs.shape[1]
    cell_dofs = np.empty((mesh.num_cells, 2 * nb), dtype=np.int64)
    cell_dofs[:, 0::2] = 2 * scalar.cell_dofs
    cell_dofs[:, 1::2] = 2 * scalar.cell_dofs + 1
    return FunctionSpace(mesh, scalar.element, cell_dofs, 2 * scalar.ndofs,
                         scalar.interpolation_points.copy())


def discontinuous_space(mesh, degree):
    """Cellwise-discontinuous nodal space of the given degree
    (0..MAX_SPACE_DEGREE)."""
    elem = ReferenceElement(degree)
    C = mesh.num_cells
    nb = elem.num_scalar_basis
    cell_dofs = np.arange(C * nb, dtype=np.int64).reshape(C, nb)
    jac, _, _ = cell_geometry(mesh)
    origin = mesh.vertices[mesh.cells[:, 0]]
    phys = origin[:, None, :] + np.einsum("cde,me->cmd", jac, elem.nodes)
    return FunctionSpace(mesh, elem, cell_dofs, C * nb, phys.reshape(C * nb, 2))


def build_spaces(mesh, degree):
    """Velocity/pressure pair: vector Lagrange r and discontinuous r-1,
    for r in 1..MAX_SPACE_DEGREE."""
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


def _pattern(cell_dofs, n):
    """The CSR pattern of the ``cell_dofs x cell_dofs`` blocks of an n x n
    form, with the map that sums local entries into it.

    Returns ``(indptr, indices, order, slot, transpose)``.  The local
    entries of a (C, m, m) array, read in the order ``order``, add into
    pattern entries ``slot`` (non-decreasing), and ``transpose[k]`` is the
    entry at the mirror position of entry k.  Summing in that order
    repeats, bit for bit, scipy's COO->CSR conversion: ``coo_tocsr`` is
    a counting sort by row that keeps the entry order, after which
    ``sum_duplicates`` sorts each row with ``csr_sort_indices`` (not a
    stable sort) and adds runs of equal columns left to right.
    """
    C, m = cell_dofs.shape
    flat = cell_dofs.ravel()
    # the m entries of one (cell, local row) pair are consecutive, so the
    # stable sort by row of all C*m*m entries expands that of the C*m pairs
    pairs = np.argsort(flat, kind="stable")
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(flat, minlength=n) * m, out=indptr[1:])
    by_row = sp.csr_matrix(((pairs[:, None] * m + np.arange(m)).ravel(),
                            cell_dofs[pairs // m].ravel(), indptr), shape=(n, n))
    del pairs
    # the same row sort, carrying entry numbers, gives the summation order
    by_row.sort_indices()
    order, cols = by_row.data, by_row.indices
    del by_row
    starts = np.ones(len(cols), dtype=bool)
    np.not_equal(cols[1:], cols[:-1], out=starts[1:])
    starts[indptr[:-1]] = True   # every dof lies in a cell: no row is empty
    slot = np.cumsum(starts) - 1
    indices = cols[starts]
    del cols, starts
    indptr[1:] = slot[indptr[1:] - 1] + 1
    # the pattern is symmetric, so its column-major listing holds, in row
    # order, the mirror of each entry
    transpose = sp.csr_matrix((np.arange(len(indices)), indices, indptr),
                              shape=(n, n)).tocsc().data
    return indptr, indices, order, slot, transpose


def _componentwise(blocks):
    """Local matrices (C, 2nb, 2nb) of a form that acts on each velocity
    component alike, from its scalar blocks (C, nb, nb)."""
    C, nb, _ = blocks.shape
    local = np.zeros((C, nb, 2, nb, 2))
    local[:, :, 0, :, 0] = local[:, :, 1, :, 1] = blocks
    return local.reshape(C, 2 * nb, 2 * nb)


def _nonzero_csr(data, indptr, indices, shape):
    """CSR matrix of the nonzero entries of ``data``, laid out on the
    pattern (indptr, indices), in new arrays.  Int32 ``indices`` are kept
    as they are; int64 ones would be scanned and downcast."""
    keep = np.flatnonzero(data)
    return sp.csr_matrix((data[keep], indices[keep],
                          np.searchsorted(keep, indptr).astype(np.int32)),
                         shape=shape)


def assemble(V_h, Q_h):
    """Assemble all forms for a velocity/pressure pair on one mesh.

    The quadrature degree is 2r + 2, which is exact for every assembled
    integrand on affine cells.  M_V, K and the grad-grad form share one
    pattern (``_pattern``); each of their (C, m, m) local arrays is summed
    onto it and freed before the next is formed, and A_div and A_1 are
    sums of the summed entries.  B and M_Q are cellwise and written
    directly.  Every square matrix is symmetrized as (S + S^T) / 2, and
    all are stored without explicit zeros, with sorted indices: the same
    bits as one COO->CSR conversion per form.

    Returns
    -------
    AssembledForms
    """
    if V_h.mesh is not Q_h.mesh:
        raise ValueError("spaces must share one mesh")
    mesh = V_h.mesh
    vd = V_h.cell_dofs
    qd = Q_h.cell_dofs
    nV, nQ = V_h.ndofs, Q_h.ndofs
    rule = quadrature(2 * V_h.degree + 2)
    w = rule.weights
    phi = V_h.element.tabulate(rule.points)            # (nq, nb)
    dphi = V_h.element.tabulate_gradients(rule.points)  # (nq, nb, 2)
    psi = Q_h.element.tabulate(rule.points)            # (nq, nbq)
    _, inv_jac_t, det = cell_geometry(mesh)
    C = mesh.num_cells
    nb = phi.shape[1]
    nbq = psi.shape[1]
    m = 2 * nb
    scale = det[:, None, None]

    # physical gradients g[c, q, i, d] = sum_e inv_jac_t[c, d, e] dphi[q, i, e]
    # and the flattened divergence table D[c, q, 2i+d] = d_d phi_i, matching
    # the interleaved vector layout
    jt = inv_jac_t[:, None, None, :, :]
    g = jt[..., 0] * dphi[None, :, :, None, 0] + jt[..., 1] * dphi[None, :, :, None, 1]
    D = g.reshape(C, len(w), m)

    # the cellwise forms have no duplicates: pressure dof c*nbq + i is local
    # dof i of cell c (discontinuous_space), so row c*nbq + i of B is local
    # row i of cell c with its columns sorted, and M_Q is block diagonal
    bloc = np.einsum("q,qk,cqm->ckm", w, psi, D) * scale
    sort = np.argsort(vd, axis=1)
    b_indices = np.broadcast_to(
        np.take_along_axis(vd, sort, axis=1).astype(np.int32)[:, None, :], bloc.shape)
    B = _nonzero_csr(np.take_along_axis(bloc, sort[:, None, :], axis=2).ravel(),
                     np.arange(0, nQ * m + 1, m), b_indices.ravel(), (nQ, nV))
    mqloc = scale * np.einsum("q,qk,ql->kl", w, psi, psi)[None, :, :]
    mqloc = (mqloc + mqloc.transpose(0, 2, 1)) * 0.5
    M_Q = _nonzero_csr(mqloc.ravel(), np.arange(0, nQ * nbq + 1, nbq),
                       np.broadcast_to(qd.astype(np.int32)[:, None, :],
                                       mqloc.shape).ravel(), (nQ, nQ))
    del bloc, sort, b_indices, mqloc

    # the scalar grad-grad blocks come before the pattern, since this
    # einsum's temporaries are the largest of the call
    grad_scalar = np.einsum("q,cqid,cqjd->cij", w, g, g, optimize=True)
    grad_scalar *= scale

    indptr, indices, order, slot, transpose = _pattern(vd, nV)

    def reduced(local):
        """Symmetrized entries of a (C, m, m) local array on the pattern;
        the array is freed as soon as it is gathered."""
        weights = local.ravel()[order]
        del local
        summed = np.bincount(slot, weights=weights, minlength=len(indices))
        del weights
        summed += summed[transpose]
        summed *= 0.5
        return summed

    m_v = reduced(_componentwise(scale * np.einsum("q,qi,qj->ij", w, phi, phi)))
    k = reduced(np.einsum("q,cqm,cqn->cmn", w, D, D, optimize=True) * scale)
    del g, D
    a_1 = reduced(_componentwise(grad_scalar))
    a_1 += m_v

    # the matrices take new arrays while the pattern and the summed entries
    # are still alive, so they lie above them and the freed temporaries
    # coalesce into one block below: allocated into the holes instead,
    # they split it and a tables run peaked 6-9 MB higher in RSS
    def shared(data):
        return _nonzero_csr(data, indptr, indices, (nV, nV))

    A_div = shared(k + m_v)   # first, so that the sum is gone before the rest
    return AssembledForms(V_h=V_h, Q_h=Q_h, M_V=shared(m_v), K=shared(k),
                          A_div=A_div, B=B, M_Q=M_Q, A_1=shared(a_1))


def case_forms(mesh, r):
    """The pair of degree r on ``mesh`` and its assembled forms."""
    return assemble(*build_spaces(mesh, r))


def orthonormal_divergence(forms):
    """The divergence form in M_Q-orthonormal pressure coordinates.

    Factors each cell block of the pressure mass, M_Q|_K = L_K L_K^T, and
    returns (C B, L) with C = blockdiag(L_K^{-1}) and L the stacked L_K,
    shape (cells, nb, nb).  C M_Q C^T = I and M_Q^{-1} = C^T C, and C B
    has the sparsity pattern of B.  Raises NumericalError unless M_Q is
    block-diagonal with one block per cell, or if a block is not positive
    definite.
    """
    nb = forms.Q_h.cell_dofs.shape[1]
    m_q = sp.bsr_matrix(forms.M_Q, blocksize=(nb, nb))
    cells = np.arange(m_q.shape[0] // nb + 1)
    if not (np.array_equal(m_q.indptr, cells)
            and np.array_equal(m_q.indices, cells[:-1])):
        raise NumericalError("pressure mass matrix is not block-diagonal "
                             "with one block per cell")
    try:
        lower = np.linalg.cholesky(m_q.data)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"pressure mass block is not positive definite "
                             f"({exc})") from exc
    c = sp.bsr_matrix((np.linalg.inv(lower), m_q.indices, m_q.indptr),
                      shape=m_q.shape)
    return sp.csr_matrix(c @ forms.B), lower


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

    from scipy.io import mmwrite

    os.makedirs(directory, exist_ok=True)
    for name in ("M_V", "K", "A_div", "B", "M_Q", "A_1"):
        mmwrite(os.path.join(directory, f"{name}.mtx"), getattr(forms, name))
