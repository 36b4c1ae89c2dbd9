import dataclasses

import numpy as np
import pytest
import scipy.io
import scipy.sparse as sp

from mixedstab import assembly
from mixedstab.assembly import (assemble, cell_geometry, discontinuous_space,
                                pressure_mass_solve, scalar_lagrange_space,
                                vector_lagrange_space, write_matrix_market)
from mixedstab.element import quadrature
from mixedstab.errors import UnsupportedDegreeError
from mixedstab.mesh import (GENERATED_FAMILIES, Family, Triangulation,
                            export_mesh, generate, import_mesh)

from oracles import (cell_nodes, eval_scalar, interpolate, reference_assemble,
                     scatter_symmetrized)

FORM_NAMES = ("M_V", "K", "A_div", "B", "M_Q", "A_1")


def reference_triangle_mesh():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    return Triangulation(verts, np.array([[0, 1, 2]]))


def test_p1_mass_matrix_on_reference_triangle():
    mesh = reference_triangle_mesh()
    forms = assemble(mesh, 1)
    # vector mass with interleaved components: x-x block is the scalar mass
    m = forms.M_V.toarray()
    scalar = m[0::2, 0::2]
    expected = np.array([[2, 1, 1], [1, 2, 1], [1, 1, 2]]) / 24.0
    assert np.max(np.abs(scalar - expected)) < 1e-15
    assert np.max(np.abs(m[1::2, 1::2] - expected)) < 1e-15
    assert np.max(np.abs(m[0::2, 1::2])) == 0.0


def test_divergence_row_on_reference_triangle():
    mesh = reference_triangle_mesh()
    forms = assemble(mesh, 1)
    field = interpolate(lambda pts: np.stack([pts[:, 0], 0 * pts[:, 1]], axis=-1),
                        forms.V_h)
    # div(x, 0) = 1 against the constant pressure: the cell area
    assert np.allclose(forms.B @ field, [0.5], atol=1e-14)


def test_pressure_mass_diagonal_p0():
    forms = assemble(generate(Family.DIAGONAL, 4), 1)
    m_q = forms.M_Q.toarray()
    assert np.allclose(np.diag(m_q), 1 / 32)
    assert np.max(np.abs(m_q - np.diag(np.diag(m_q)))) == 0.0


@pytest.mark.parametrize("r", [1, 2, 3])
def test_frozen_space_dimensions(r):
    mesh = generate(Family.DIAGONAL, 4)
    v_h, q_h = vector_lagrange_space(mesh, r), discontinuous_space(mesh, r - 1)
    if r == 1:
        assert v_h.ndofs == 50 and q_h.ndofs == 32
    if r == 2:
        assert q_h.ndofs == 96
    n_vert, n_edge, n_cell = 25, 56, 32
    scalar = n_vert + (r - 1) * n_edge + (r - 1) * (r - 2) // 2 * n_cell
    assert v_h.ndofs == 2 * scalar
    assert q_h.ndofs == r * (r + 1) // 2 * n_cell


def test_crisscross_vector_dimension():
    v_h = vector_lagrange_space(generate(Family.CRISSCROSS, 4), 1)
    assert v_h.ndofs == 82


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5, 6])
def test_global_interpolation_is_continuous_and_exact(r, rng):
    # a degree-r polynomial interpolated on a mesh with mixed diagonal
    # orientations is reproduced exactly; this exercises shared-edge DOF
    # orientation, since any mismatch breaks reproduction on some cell
    mesh = generate(Family.FLIPPED, 4)
    space = scalar_lagrange_space(mesh, r)
    coeffs = rng.standard_normal((r + 1, r + 1))

    def poly(pts):
        total = np.zeros(len(pts))
        for i in range(r + 1):
            for j in range(r + 1 - i):
                total += coeffs[i, j] * pts[:, 0] ** i * pts[:, 1] ** j
        return total

    field = interpolate(poly, space)
    ref = rng.random((30, 2))
    fold = ref.sum(axis=1) > 1
    ref[fold] = 1 - ref[fold]
    values = eval_scalar(space, field, ref)
    a = mesh.vertices[mesh.cells[:, 0]]
    b = mesh.vertices[mesh.cells[:, 1]]
    c = mesh.vertices[mesh.cells[:, 2]]
    phys = (a[:, None] + ref[None, :, 0:1] * (b - a)[:, None]
            + ref[None, :, 1:2] * (c - a)[:, None])
    exact = poly(phys.reshape(-1, 2)).reshape(values.shape)
    assert np.max(np.abs(values - exact)) < 1e-10


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("source", ["flipped", "relabelled-unionjack"])
def test_each_lagrange_dof_has_one_node(source, r, relabel):
    # every cell that holds a DOF maps its reference node to the same point;
    # the flipped mesh and the relabelled import (rotated triples, permuted
    # vertices) meet each edge from both directions
    mesh = generate(Family.FLIPPED, 4)
    if source == "relabelled-unionjack":
        mesh = import_mesh(export_mesh(relabel(generate(Family.UNIONJACK, 6))[0]))
    space = scalar_lagrange_space(mesh, r)
    nodes = cell_nodes(space).reshape(-1, 2)
    dofs = space.cell_dofs.ravel()
    assert np.array_equal(np.unique(dofs), np.arange(space.ndofs))
    last = np.empty((space.ndofs, 2))
    last[dofs] = nodes
    assert np.max(np.abs(nodes - last[dofs])) <= 1e-14
    assert vector_lagrange_space(mesh, r).ndofs == 2 * space.ndofs
    dg = discontinuous_space(mesh, r - 1)
    assert dg.ndofs == r * (r + 1) // 2 * len(mesh.cells)


def test_matrices_are_symmetric():
    forms = assemble(generate(Family.UNIONJACK, 4), 2)
    for mat in (forms.M_V, forms.K, forms.A_div, forms.M_Q, forms.A_1):
        diff = (mat - mat.T).tocoo()
        assert len(diff.data) == 0 or np.max(np.abs(diff.data)) == 0.0


def test_a_div_is_mass_plus_divdiv():
    forms = assemble(generate(Family.DIAGONAL, 4), 2)
    diff = (forms.A_div - forms.M_V - forms.K).tocoo()
    worst = np.max(np.abs(diff.data)) if len(diff.data) else 0.0
    assert worst < 1e-15


def test_a_div_is_summed_from_the_forms_it_holds():
    # A_div is derived from M_V and K on its first read, so a copy with
    # another K cannot keep the A_div of the old one
    forms = assemble(generate(Family.DIAGONAL, 4), 2)
    forms.A_div
    twice = dataclasses.replace(forms, K=2 * forms.K)
    want = forms.M_V + 2 * forms.K
    for part in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(twice.A_div, part), getattr(want, part)), part


def test_a_1_is_summed_from_the_forms_it_holds():
    # A_1's grad-grad form is the trace of K's component blocks, summed on
    # the first read, so a copy with another K has another A_1
    forms = assemble(generate(Family.DIAGONAL, 4), 2)
    forms.A_1
    twice = dataclasses.replace(forms, K=2 * forms.K)
    trace = 2 * (forms.K[0::2, 0::2] + forms.K[1::2, 1::2])
    want = forms.M_V + sp.kron(trace, sp.identity(2), format="csr")
    for part in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(twice.A_1, part), getattr(want, part)), part


def test_div_velocity_lies_in_pressure_space(forms_for, rng):
    # K == B^T M_Q^{-1} B holds exactly when div V_h is a subspace of Q_h
    for r in (1, 2, 3):
        forms = forms_for(Family.DIAGONAL, 4, r)
        x = rng.standard_normal((forms.V_h.ndofs, 8))
        bx = forms.B @ x
        y = np.column_stack([pressure_mass_solve(forms, bx[:, k])
                             for k in range(bx.shape[1])])
        lhs = forms.K @ x
        rhs = forms.B.T @ y
        scale = np.max(np.abs(lhs))
        assert np.max(np.abs(lhs - rhs)) < 1e-12 * max(scale, 1.0)


def test_quadrature_degree_is_sufficient(monkeypatch):
    mesh = generate(Family.ZIGZAG, 4)
    default = assemble(mesh, 2)
    degrees = []

    def boosted_rule(degree):
        degrees.append(degree)
        return quadrature(10)

    monkeypatch.setattr(assembly, "quadrature", boosted_rule)
    boosted = assemble(mesh, 2)
    boosted.A_1
    # the boosted rule built the reference forms of assemble, and A_1 is
    # summed from them; forms kept from an earlier call would pass the
    # check below unseen
    assert degrees == [4]
    for a, b in ((default.M_V, boosted.M_V), (default.K, boosted.K),
                 (default.B, boosted.B), (default.A_1, boosted.A_1),
                 (default.M_Q, boosted.M_Q)):
        assert abs(a - b).max() < 1e-13


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("source", ["crisscross", "relabelled-unionjack"])
def test_pressure_mass_solve_is_exact(pressure_forms, source, r, rng):
    forms = pressure_forms(source, r)
    rhs = rng.standard_normal(forms.Q_h.ndofs)
    x = pressure_mass_solve(forms, rhs)
    assert np.max(np.abs(forms.M_Q @ x - rhs)) < 1e-12


def test_cell_geometry_determinants():
    mesh = generate(Family.DIAGONAL, 4)
    _, _, det = cell_geometry(mesh)
    assert np.allclose(det, 2 * mesh.signed_areas())


def test_matrix_market_round_trip(tmp_path, forms_for):
    forms = forms_for(Family.DIAGONAL, 4, 1)
    write_matrix_market(forms, tmp_path)
    names = {"M_V", "K", "A_div", "B", "M_Q", "A_1"}
    assert {p.stem for p in tmp_path.glob("*.mtx")} == names
    for name in names:
        loaded = sp.csr_matrix(scipy.io.mmread(tmp_path / f"{name}.mtx"))
        original = getattr(forms, name).tocsr()
        assert loaded.shape == original.shape
        assert abs(loaded - original).max() < 1e-15


def test_space_degree_validation():
    mesh = generate(Family.DIAGONAL, 4)
    for degree in (0, 7):
        with pytest.raises(UnsupportedDegreeError):
            scalar_lagrange_space(mesh, degree)
        with pytest.raises(UnsupportedDegreeError):
            assemble(mesh, degree)


def planted_local_array(cell_dofs, n, rng):
    """A random (C, m, m) local array on ``cell_dofs`` with exact zeros, and
    with opposite pairs that cancel exactly: in the sum of an entry that two
    cells share, and in the symmetrization of an off-diagonal entry that one
    cell holds."""
    C, m = cell_dofs.shape
    local = rng.standard_normal((C, m, m))
    local[rng.random(local.shape) < 0.1] = 0.0
    flat = local.reshape(-1)
    keys = (cell_dofs[:, :, None] * n + cell_dofs[:, None, :]).ravel()
    order = np.argsort(keys, kind="stable")
    _, starts, counts = np.unique(keys[order], return_index=True, return_counts=True)
    shared = starts[counts == 2][::2]
    flat[order[shared + 1]] = -flat[order[shared]]
    cell, row, col = np.unravel_index(order[starts[counts == 1]], local.shape)
    upper = np.flatnonzero(row < col)[::2]
    cell, row, col = cell[upper], row[upper], col[upper]
    local[cell, col, row] = -local[cell, row, col]
    return local


def assert_same_bits(cell_dofs, n, rng):
    # the summation on the shared pattern against one COO->CSR conversion
    # and one symmetrization, on the same local array
    local = planted_local_array(cell_dofs, n, rng)
    pattern = assembly._pattern(cell_dofs, n)
    got = assembly._nonzero_csr(assembly._summed(local, pattern), *pattern[:2], (n, n))
    want = scatter_symmetrized(local, cell_dofs, n)
    assert sp.isspmatrix_csr(got) and got.shape == want.shape
    # the planted zeros drop entries of the pattern, and none is stored
    assert 0 < want.nnz < len(pattern[1]) and np.all(want.data != 0)
    for part in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, part), getattr(want, part)), part


@pytest.mark.parametrize("r, n", [(r, n) for r in (1, 2, 3, 4) for n in (4, 6)]
                         + [(5, 4), (6, 4)])
@pytest.mark.parametrize("family", GENERATED_FAMILIES, ids=lambda f: f.value)
def test_assembly_matches_the_reference_bit_for_bit(family, r, n, rng):
    # each family's dof numbering at two sizes; r = 5, 6 are the degrees
    # past the paper's that the CLI accepts
    V_h = vector_lagrange_space(generate(family, n), r)
    assert_same_bits(V_h.cell_dofs, V_h.ndofs, rng)


@pytest.mark.parametrize("r", [1, 3])
def test_assembly_matches_the_reference_on_a_relabelled_import(relabel, r, rng):
    mesh, _ = relabel(generate(Family.UNIONJACK, 6))
    V_h = vector_lagrange_space(import_mesh(export_mesh(mesh)), r)
    assert_same_bits(V_h.cell_dofs, V_h.ndofs, rng)


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("source", [*(f.value for f in GENERATED_FAMILIES),
                                    "relabelled-unionjack"])
def test_forms_match_the_quadrature_reference(source, r, relabel):
    # the reference forms against per-cell quadrature of degree 2r + 2, as
    # the largest entry difference relative to the largest entry; the noise
    # entries of the two routes differ, so their patterns may too
    if source == "relabelled-unionjack":
        mesh = import_mesh(export_mesh(relabel(generate(Family.UNIONJACK, 6))[0]))
    else:
        mesh = generate(source, 6)
    got = assemble(mesh, r)
    want = reference_assemble(got.V_h, got.Q_h)
    bound = 2e-14 if r <= 4 else 1e-12
    for name in FORM_NAMES:
        a, b = getattr(got, name), getattr(want, name)
        assert sp.isspmatrix_csr(a) and a.shape == b.shape, name
        assert a.has_canonical_format and np.all(a.data != 0), name
        assert abs(a - b).max() <= bound * abs(b).max(), name
