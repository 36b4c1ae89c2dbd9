"""Global function spaces and sparse assembly of the saddle-point forms.

The velocity space is continuous vector Lagrange of degree r, the
pressure space cellwise-discontinuous polynomials of degree r-1, on the
same triangulation; ``assemble(mesh, r)`` builds that pair and no other.
Both use the nodal ``ReferenceElement`` of their degree; a ``FunctionSpace``
is its DOF map alone, where continuity lives.  Neither space imposes a
boundary condition; the scalar one of the mixed formulation is natural.
Vector degrees of freedom interleave components per node (x0, y0, x1,
y1, ...), and global scalar numbering runs vertices, then edge nodes,
then cell-interior nodes.

On affine cells each local form is a reference-triangle form of the
degree contracted with the cell's affine map, the tensor representation
of Kirby & Logg (2006): quadrature runs on the reference triangle only.
The sparsity pattern is computed once and reused for every form that
scatters over the same blocks (as in MILAMIN, Dabrowski, Krotkiewski &
Schmid 2008, and Cuvelier, Japhet & Scarella 2016): M_V and K both live on
the ``cell_dofs x cell_dofs`` blocks of V_h, so one pattern and one
summation map serve both, and each form is one gather and one
``np.bincount`` in the order of scipy's COO->CSR conversion: bit for bit
that conversion of the form's local arrays.
``AssembledForms`` holds the four forms ``assemble`` scatters, M_V, K, B
and M_Q; the norms derived from them are sums formed on their first read:
A_div = M_V + K, and A_1 = M_V + G, whose grad-grad form G, read only by
the Stokes constant and the matrix dump, is the trace of K's component
blocks on each component.  Each cell block of M_Q is det_K times the
reference pressure mass, so its factor and its inverse are closed forms
(``orthonormal_divergence``, ``pressure_mass_solve``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .element import MAX_SPACE_DEGREE, ReferenceElement, quadrature
from .errors import UnsupportedDegreeError


@dataclass(frozen=True, eq=False)
class FunctionSpace:
    """Global DOF map tying a reference element to a mesh.

    Attributes
    ----------
    mesh : Triangulation
    element : ReferenceElement
    cell_dofs : ndarray, shape (C, local_dim), read-only
        Global dof per local basis function, at the cell image of its node
        in ``element.nodes`` (interleaved (x, y) per node for vector).
    ndofs : int
    """

    mesh: object
    element: ReferenceElement
    cell_dofs: np.ndarray
    ndofs: int

    def __post_init__(self):
        self.cell_dofs.setflags(write=False)

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
    V, E, C = mesh.num_vertices, mesh.num_edges, mesh.num_cells
    nedge = degree - 1
    nint = nedge * (nedge - 1) // 2
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
    return FunctionSpace(mesh, elem, cell_dofs, ndofs)


def vector_lagrange_space(mesh, degree):
    """Continuous vector Lagrange space; dofs interleave (x, y) per node."""
    scalar = scalar_lagrange_space(mesh, degree)
    nb = scalar.cell_dofs.shape[1]
    cell_dofs = np.empty((mesh.num_cells, 2 * nb), dtype=np.int64)
    cell_dofs[:, 0::2] = 2 * scalar.cell_dofs
    cell_dofs[:, 1::2] = 2 * scalar.cell_dofs + 1
    return FunctionSpace(mesh, scalar.element, cell_dofs, 2 * scalar.ndofs)


def discontinuous_space(mesh, degree):
    """Cellwise-discontinuous nodal space of the given degree
    (0..MAX_SPACE_DEGREE)."""
    elem = ReferenceElement(degree)
    C = mesh.num_cells
    nb = elem.num_scalar_basis
    cell_dofs = np.arange(C * nb, dtype=np.int64).reshape(C, nb)
    return FunctionSpace(mesh, elem, cell_dofs, C * nb)


@dataclass
class AssembledForms:
    """Sparse (CSR) matrices of the mixed formulation on one mesh.

    M_V   vector mass               <u, v>
    K     divergence stiffness      <div u, div v>
    B     mixed divergence          B[q, v] = <div v, q>
    M_Q   pressure mass             <p, q>

    and, each formed on its first read and kept:

    A_div H(div) inner product      M_V + K
    A_1   H1 inner product          M_V + <grad u, grad v>, from K
    """

    V_h: FunctionSpace
    Q_h: FunctionSpace
    M_V: sp.csr_matrix
    K: sp.csr_matrix
    B: sp.csr_matrix
    M_Q: sp.csr_matrix

    @property
    def mesh(self):
        return self.V_h.mesh

    @cached_property
    def A_div(self):
        """Read by the source solve and the matrix dump only."""
        return self.M_V + self.K

    @cached_property
    def A_1(self):
        """Read by the Stokes fields and the matrix dump only.  The
        grad-grad form acts on each component alike, and its scalar form
        sum_d <d_d phi_i, d_d phi_j> is the trace of K's component blocks
        (vector dof 2 node + component): nothing is integrated."""
        trace = self.K[0::2, 0::2] + self.K[1::2, 1::2]
        return self.M_V + sp.kron(trace, sp.identity(2), format="csr")


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


def _summed(local, pattern):
    """Symmetrized entries of a (C, m, m) local array on a ``_pattern``;
    the array is freed as soon as it is gathered."""
    _, indices, order, slot, transpose = pattern
    weights = local.ravel()[order]
    del local
    summed = np.bincount(slot, weights=weights, minlength=len(indices))
    del weights
    summed += summed[transpose]
    summed *= 0.5
    return summed


def _reference_gradients(element, rule):
    """R[e, f, i, j] = <d_e phi_i, d_f phi_j> on the reference triangle."""
    dphi = element.tabulate_gradients(rule.points)      # (nq, nb, 2)
    # C order: K's per-cell contraction took 10x as long on einsum's default
    return np.einsum("q,qie,qjf->efij", rule.weights, dphi, dphi, order="C")


def _reference_mass(element, rule):
    """The mass <phi_i, phi_j> of ``element`` on the reference triangle."""
    phi = element.tabulate(rule.points)                 # (nq, nb)
    return np.einsum("q,qi,qj->ij", rule.weights, phi, phi)


def assemble(mesh, r):
    """The AssembledForms of the pair of degree r on ``mesh``: vector
    Lagrange r for u and discontinuous r - 1 for p, r in 1..MAX_SPACE_DEGREE.

    The scalar mass, R of ``_reference_gradients``, R_B[e, k, i] =
    <psi_k, d_e phi_i> and the pressure mass are integrated once, on the
    reference triangle by the rule of degree 2r, exact for all four.  With
    J^{-T} and det of the one ``cell_geometry`` call, K's local blocks are
    det J^{-T} (x) J^{-T} : R, B's det J^{-T} : R_B, and M_V's and M_Q's
    det times the masses.  B and M_Q are cellwise and written directly on
    the discontinuous layout.  M_V and K share one pattern (``_pattern``);
    each of their (C, m, m) local arrays is summed onto it and freed
    before the next is formed.  A_div and A_1 are left to their first
    read.  Every square matrix is symmetrized as (S + S^T) / 2, and all
    are stored without explicit zeros, with sorted indices.
    """
    V_h = vector_lagrange_space(mesh, r)
    Q_h = discontinuous_space(mesh, r - 1)
    vd, qd = V_h.cell_dofs, Q_h.cell_dofs
    nV, nQ = V_h.ndofs, Q_h.ndofs
    rule = quadrature(2 * r)
    w = rule.weights
    psi = Q_h.element.tabulate(rule.points)             # (nq, nbq)
    _, inv_jac_t, det = cell_geometry(mesh)
    scale = det[:, None, None]
    (C, m), nbq = vd.shape, psi.shape[1]

    # the cellwise forms have no duplicates: pressure dof c*nbq + i is local
    # dof i of cell c (discontinuous_space), so row c*nbq + i of B is local
    # row i of cell c with its columns sorted, and M_Q is block diagonal
    ref_b = np.einsum("q,qk,qie->eki", w, psi,  # in C order, as R is
                      V_h.element.tabulate_gradients(rule.points), order="C")
    bloc = np.einsum("cde,eki->ckid", inv_jac_t * scale, ref_b).reshape(C, nbq, m)
    sort = np.argsort(vd, axis=1)
    b_indices = np.broadcast_to(
        np.take_along_axis(vd, sort, axis=1).astype(np.int32)[:, None, :], bloc.shape)
    B = _nonzero_csr(np.take_along_axis(bloc, sort[:, None, :], axis=2).ravel(),
                     np.arange(0, nQ * m + 1, m), b_indices.ravel(), (nQ, nV))
    mqloc = scale * _reference_mass(Q_h.element, rule)[None, :, :]
    mqloc = (mqloc + mqloc.transpose(0, 2, 1)) * 0.5
    M_Q = _nonzero_csr(mqloc.ravel(), np.arange(0, nQ * nbq + 1, nbq),
                       np.broadcast_to(qd.astype(np.int32)[:, None, :],
                                       mqloc.shape).ravel(), (nQ, nQ))
    del bloc, sort, b_indices, mqloc

    pattern = _pattern(vd, nV)
    m_v = _summed(_componentwise(scale * _reference_mass(V_h.element, rule)),
                  pattern)
    # K[c, (i, d), (j, g)] = det sum_ef J^{-T}[d, e] J^{-T}[g, f] R[e, f, i, j]
    geometry = np.einsum("cde,cgf->cdgef", inv_jac_t * scale, inv_jac_t)
    k = _summed(np.einsum("cdgef,efij->cidjg", geometry,
                          _reference_gradients(V_h.element, rule)).reshape(C, m, m),
                pattern)

    indptr, indices = pattern[:2]

    # the matrices take new arrays while the pattern and the summed entries
    # are still alive, so they lie above them and the freed temporaries
    # coalesce into one block below: allocated into the holes instead,
    # they split it and a tables run peaked 6-9 MB higher in RSS
    def shared(data):
        return _nonzero_csr(data, indptr, indices, (nV, nV))

    return AssembledForms(V_h=V_h, Q_h=Q_h, M_V=shared(m_v), K=shared(k),
                          B=B, M_Q=M_Q)


def _pressure_mass(forms):
    """The reference pressure mass M^ and det of every cell: each cell
    block of M_Q is det_K M^, by the rule that ``assemble`` integrates."""
    _, _, det = cell_geometry(forms.mesh)
    return _reference_mass(forms.Q_h.element,
                           quadrature(2 * forms.V_h.degree)), det


def orthonormal_divergence(forms):
    """The divergence form in M_Q-orthonormal pressure coordinates.

    With L^ the Cholesky factor of the reference pressure mass, each cell
    block of M_Q is L_K L_K^T with L_K = sqrt(det_K) L^.  Returns (C B, L)
    with C = blockdiag(L_K^{-1}), whose blocks are L^{-1} / sqrt(det_K), and
    L the stacked L_K, shape (cells, nb, nb).  C M_Q C^T = I and
    M_Q^{-1} = C^T C, and C B has the sparsity pattern of B.
    """
    mass, det = _pressure_mass(forms)
    lower = np.linalg.cholesky(mass)
    root = np.sqrt(det)[:, None, None]
    cells = np.arange(len(det) + 1)
    c = sp.bsr_matrix((np.linalg.inv(lower) / root, cells[:-1], cells),
                      shape=(forms.Q_h.ndofs,) * 2)
    return sp.csr_matrix(c @ forms.B), root * lower


def pressure_mass_solve(forms, rhs):
    """Apply M_Q^{-1} exactly, cell by cell: M^{-1} / det_K on the cell
    block of M_Q = det_K M^."""
    mass, det = _pressure_mass(forms)
    cellwise = np.asarray(rhs, dtype=float).reshape(len(det), -1)
    return (np.linalg.solve(mass, cellwise.T).T / det[:, None]).ravel()


def write_matrix_market(forms, directory):
    """Dump the six assembled matrices as Matrix Market files."""
    import os

    from scipy.io import mmwrite

    os.makedirs(directory, exist_ok=True)
    for name in ("M_V", "K", "A_div", "B", "M_Q", "A_1"):
        mmwrite(os.path.join(directory, f"{name}.mtx"), getattr(forms, name))
