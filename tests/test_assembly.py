import numpy as np
import pytest
import scipy.io
import scipy.sparse as sp

from mixedstab import assembly
from mixedstab.assembly import (assemble, build_spaces, cell_geometry,
                                discontinuous_space, pressure_mass_solve,
                                scalar_lagrange_space, vector_lagrange_space,
                                write_matrix_market)
from mixedstab.element import quadrature
from mixedstab.errors import UnsupportedDegreeError
from mixedstab.mesh import (GENERATED_FAMILIES, Family, Triangulation,
                            export_mesh, generate, import_mesh)

from oracles import eval_scalar, interpolate, reference_assemble

FORM_NAMES = ("M_V", "K", "A_div", "B", "M_Q", "A_1")


def reference_triangle_mesh():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    return Triangulation(verts, np.array([[0, 1, 2]]))


def test_p1_mass_matrix_on_reference_triangle():
    mesh = reference_triangle_mesh()
    forms = assemble(*build_spaces(mesh, 1))
    # vector mass with interleaved components: x-x block is the scalar mass
    m = forms.M_V.toarray()
    scalar = m[0::2, 0::2]
    expected = np.array([[2, 1, 1], [1, 2, 1], [1, 1, 2]]) / 24.0
    assert np.max(np.abs(scalar - expected)) < 1e-15
    assert np.max(np.abs(m[1::2, 1::2] - expected)) < 1e-15
    assert np.max(np.abs(m[0::2, 1::2])) == 0.0


def test_divergence_row_on_reference_triangle():
    mesh = reference_triangle_mesh()
    v_h, q_h = build_spaces(mesh, 1)
    forms = assemble(v_h, q_h)
    field = interpolate(lambda pts: np.stack([pts[:, 0], 0 * pts[:, 1]], axis=-1), v_h)
    # div(x, 0) = 1 against the constant pressure: the cell area
    assert np.allclose(forms.B @ field, [0.5], atol=1e-14)


def test_pressure_mass_diagonal_p0():
    forms = assemble(*build_spaces(generate(Family.DIAGONAL, 4), 1))
    m_q = forms.M_Q.toarray()
    assert np.allclose(np.diag(m_q), 1 / 32)
    assert np.max(np.abs(m_q - np.diag(np.diag(m_q)))) == 0.0


@pytest.mark.parametrize("r", [1, 2, 3])
def test_frozen_space_dimensions(r):
    mesh = generate(Family.DIAGONAL, 4)
    v_h, q_h = build_spaces(mesh, r)
    if r == 1:
        assert v_h.ndofs == 50 and q_h.ndofs == 32
    if r == 2:
        assert q_h.ndofs == 96
    n_vert, n_edge, n_cell = 25, 56, 32
    scalar = n_vert + (r - 1) * n_edge + (r - 1) * (r - 2) // 2 * n_cell
    assert v_h.ndofs == 2 * scalar
    assert q_h.ndofs == r * (r + 1) // 2 * n_cell


def test_crisscross_vector_dimension():
    v_h, _ = build_spaces(generate(Family.CRISSCROSS, 4), 1)
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


def test_interpolation_points_align_with_dofs():
    mesh = generate(Family.ZIGZAG, 4)
    for r in (1, 2, 3):
        space = scalar_lagrange_space(mesh, r)
        assert len(space.interpolation_points) == space.ndofs
        vec = vector_lagrange_space(mesh, r)
        assert vec.ndofs == 2 * space.ndofs
        assert len(vec.interpolation_points) == space.ndofs
        dg = discontinuous_space(mesh, r - 1)
        assert dg.ndofs == r * (r + 1) // 2 * len(mesh.cells)


def test_matrices_are_symmetric():
    forms = assemble(*build_spaces(generate(Family.UNIONJACK, 4), 2))
    for mat in (forms.M_V, forms.K, forms.A_div, forms.M_Q, forms.A_1):
        diff = (mat - mat.T).tocoo()
        assert len(diff.data) == 0 or np.max(np.abs(diff.data)) == 0.0


def test_a_div_is_mass_plus_divdiv():
    forms = assemble(*build_spaces(generate(Family.DIAGONAL, 4), 2))
    diff = (forms.A_div - forms.M_V - forms.K).tocoo()
    worst = np.max(np.abs(diff.data)) if len(diff.data) else 0.0
    assert worst < 1e-15


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
    v_h, q_h = build_spaces(mesh, 2)
    default = assemble(v_h, q_h)
    monkeypatch.setattr(assembly, "quadrature", lambda degree: quadrature(10))
    boosted = assemble(v_h, q_h)
    for a, b in ((default.M_V, boosted.M_V), (default.B, boosted.B),
                 (default.A_1, boosted.A_1), (default.M_Q, boosted.M_Q)):
        assert abs(a - b).max() < 1e-13


def test_pressure_mass_solve_is_exact(forms_for, rng):
    forms = forms_for(Family.DIAGONAL, 4, 2)
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
            build_spaces(mesh, degree)


def assert_same_bits(mesh, r):
    v_h, q_h = build_spaces(mesh, r)
    got = assemble(v_h, q_h)
    want = reference_assemble(v_h, q_h)
    for name in FORM_NAMES:
        a, b = getattr(got, name), getattr(want, name)
        assert sp.isspmatrix_csr(a) and a.shape == b.shape, name
        for part in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(a, part), getattr(b, part)), (name, part)


@pytest.mark.parametrize("n", [4, 6])
@pytest.mark.parametrize("r", [1, 2, 3, 4])
@pytest.mark.parametrize("family", GENERATED_FAMILIES, ids=lambda f: f.value)
def test_assembly_matches_the_reference_bit_for_bit(family, r, n):
    # n = 6 puts vertices at non-dyadic coordinates (multiples of 1/6)
    assert_same_bits(generate(family, n), r)


@pytest.mark.parametrize("r", [1, 3])
def test_assembly_matches_the_reference_on_a_relabelled_import(relabel, r):
    mesh, _ = relabel(generate(Family.UNIONJACK, 6))
    assert_same_bits(import_mesh(export_mesh(mesh)), r)
