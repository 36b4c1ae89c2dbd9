import numpy as np
import pytest
import scipy.sparse.linalg as spla
from scipy.sparse.linalg import norm as sparse_norm

import mixedstab.eigensolve as eigensolve
import mixedstab.poisson as po
from mixedstab.assembly import scalar_lagrange_space, vector_lagrange_space
from mixedstab.errors import NumericalError
from mixedstab.assembly import case_forms
from mixedstab.mesh import (GENERATED_FAMILIES, Family, Triangulation,
                            export_mesh, generate, import_mesh,
                            singular_vertices)
from mixedstab.cli import _converge_csv
from mixedstab.poisson import (NORM_KEYS, SINE, Solution, convergence_study,
                               error_norms, load_vector, solve_mixed,
                               source_errors)
from mixedstab.stability import Case

from oracles import (EXP, dense_reduced_solve, dense_schur_solve,
                     eval_divergence, eval_scalar, eval_vector, interpolate,
                     singular_vertex_sums)

TWO_PI_SQ = 2 * np.pi ** 2


def random_ref_points(rng, count=25):
    pts = rng.random((count, 2))
    fold = pts.sum(axis=1) > 1
    pts[fold] = 1 - pts[fold]
    return pts


def test_interpolate_reproduces_degree_six_polynomial(rng):
    mesh = generate(Family.DIAGONAL, 4)
    space = scalar_lagrange_space(mesh, 6)

    def poly(pts):
        x, y = pts[:, 0], pts[:, 1]
        return 1 + x**6 - 3 * x**2 * y**4 + y**5 * x + 2 * y**3

    field = interpolate(poly, space)
    ref = random_ref_points(rng)
    phys = po._physical_points(mesh, ref)
    values = eval_scalar(space, field, ref)
    exact = poly(phys.reshape(-1, 2)).reshape(values.shape)
    assert np.max(np.abs(values - exact)) < 1e-12


def test_interpolation_error_scales_like_h7(rng):
    p_exact = SINE.p
    worst = {}
    ref = random_ref_points(rng, 40)
    for n in (4, 8):
        mesh = generate(Family.DIAGONAL, n)
        space = scalar_lagrange_space(mesh, 6)
        field = interpolate(p_exact, space)
        phys = po._physical_points(mesh, ref)
        values = eval_scalar(space, field, ref)
        exact = p_exact(phys.reshape(-1, 2)).reshape(values.shape)
        worst[n] = np.max(np.abs(values - exact))
    # seventh-order interpolant: halving h divides the error by ~2^7
    assert worst[4] / worst[8] > 60


@pytest.mark.parametrize("solution", [SINE, EXP], ids=lambda s: s.name)
def test_manufactured_fields_are_consistent(rng, solution):
    p_exact, u_exact, g_exact = solution.p, solution.u, solution.g
    pts = rng.random((60, 2))
    h = 1e-6
    dx = np.array([[h, 0.0]])
    dy = np.array([[0.0, h]])
    grad_fd = np.stack([
        (p_exact(pts + dx) - p_exact(pts - dx)) / (2 * h),
        (p_exact(pts + dy) - p_exact(pts - dy)) / (2 * h)], axis=-1)
    assert np.max(np.abs(grad_fd - u_exact(pts))) < 1e-5
    div_fd = ((u_exact(pts + dx)[:, 0] - u_exact(pts - dx)[:, 0])
              + (u_exact(pts + dy)[:, 1] - u_exact(pts - dy)[:, 1])) / (2 * h)
    assert np.max(np.abs(div_fd - g_exact(pts))) < 1e-3


def test_field_length_validation(forms_for):
    forms = forms_for(Family.DIAGONAL, 4, 1)
    n_v, n_q = forms.V_h.ndofs, forms.Q_h.ndofs
    with pytest.raises(ValueError):
        error_norms(forms, np.zeros(n_v + 1), np.zeros(n_q), SINE)
    with pytest.raises(ValueError):
        error_norms(forms, np.zeros(n_v), np.zeros(n_q - 1), SINE)


def test_zero_source_gives_zero_solution(forms_for):
    forms = forms_for(Family.DIAGONAL, 4, 1)
    u_h, p_h = solve_mixed(forms, np.zeros(forms.Q_h.ndofs))
    assert np.max(np.abs(u_h)) < 1e-12
    assert np.max(np.abs(p_h)) < 1e-12


def test_constraint_equation_oracle(forms_for, rng):
    # with g = div w for a velocity-space field w, the constraint
    # equation forces B u_h = B w regardless of what u_h itself is
    forms = forms_for(Family.DIAGONAL, 4, 2)
    w = rng.standard_normal(forms.V_h.ndofs)
    rhs = forms.B @ w
    u_h, _ = solve_mixed(forms, rhs)
    lhs = forms.B @ u_h
    assert np.max(np.abs(lhs - rhs)) < 1e-9 * max(1.0, np.max(np.abs(rhs)))


@pytest.mark.parametrize("solution", [SINE, EXP], ids=lambda s: s.name)
def test_source_errors_solve_on_spurious_meshes(forms_for, solution):
    # crisscross n=4 r=1 has 16 spurious modes; its errors are those of the
    # dense solution on (V_h, div V_h)
    forms = forms_for(Family.CRISSCROSS, 4, 1)
    u_ref, p_ref = dense_reduced_solve(forms, load_vector(solution.g, forms.Q_h))
    want = error_norms(forms, u_ref, p_ref, solution)
    got = source_errors(forms, solution)
    assert np.allclose([got[k] for k in NORM_KEYS],
                       [want[k] for k in NORM_KEYS], rtol=1e-9, atol=0.0)


def test_solve_refuses_wrong_shape_load(forms_for):
    forms = forms_for(Family.DIAGONAL, 4, 1)
    n_q = forms.Q_h.ndofs
    for shape in [(n_q - 1,), (n_q + 1,), (n_q, 1)]:
        with pytest.raises(ValueError, match="load vector"):
            solve_mixed(forms, np.ones(shape))


def test_solve_residuals_small(forms_for):
    forms = forms_for(Family.DIAGONAL, 8, 2)
    rhs = load_vector(SINE.g, forms.Q_h)
    u_h, p_h = solve_mixed(forms, rhs)
    res = np.linalg.norm(forms.B @ u_h - rhs)
    assert res < 1e-10 * np.linalg.norm(rhs)


@pytest.mark.parametrize("family, n, r", [
    ("crisscross", 8, 2),
    ("unionjack", 14, 2),
    ("unionjack", 16, 3),
    ("crisscross", 12, 4),
    ("unionjack", 4, 4),
])
def test_solve_refuses_spurious_modes(family, n, r, rng):
    # the solve keeps the spurious modes out of its pressure: p_h lies in
    # div V_h, so its alternating sum around every singular vertex vanishes.
    # nQ runs from 320 to 5760, and a random load has a part on every mode
    forms = case_forms(generate(family, n), r)
    _, p_h = solve_mixed(forms, rng.standard_normal(forms.Q_h.ndofs))
    sums = singular_vertex_sums(forms.Q_h, p_h)
    assert len(sums) == len(singular_vertices(forms.mesh)) > 0
    assert np.max(np.abs(sums)) <= 1e-9 * np.max(np.abs(p_h))


@pytest.fixture
def splu_log(monkeypatch):
    """Records, for every splu call, whether it ran in symmetric mode."""
    log = []

    def recording(splu):
        def wrapper(A, *args, **kwargs):
            log.append(kwargs.get("options", {}).get("SymmetricMode", False))
            return splu(A, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(eigensolve, "splu", recording(eigensolve.splu))
    monkeypatch.setattr(spla, "splu", recording(spla.splu))
    return log


@pytest.mark.parametrize("family, r", [(Family.DIAGONAL, 2),
                                       (Family.CRISSCROSS, 1)],
                         ids=["diagonal", "crisscross"])
def test_source_solve_makes_one_symmetric_factorization(forms_for, splu_log,
                                                        family, r):
    # the LDL^T of A_div that both CG runs solve with, with spurious modes
    # (crisscross) or without, and no spurious-mode count
    source_errors(forms_for(family, 4, r), SINE)
    assert splu_log == [True]


@pytest.mark.parametrize("family", GENERATED_FAMILIES, ids=lambda f: f.value)
def test_solve_refuses_exactly_the_spurious_cases(family, rng):
    # the solve drops a part of a random load G exactly on the cases with
    # spurious modes, and the part it drops, G - B u_h, lies on them:
    # M_Q^{-1} (G - B u_h) is in N_h = ker B^T
    spurious = []
    for n in (4, 6):
        for r in (1, 2, 3, 4):
            forms = case_forms(generate(family, n), r)
            load = rng.standard_normal(forms.Q_h.ndofs)
            u_h, _ = solve_mixed(forms, load)
            dropped = load - forms.B @ u_h
            if Case(forms).dimN > 0:
                mode = spla.spsolve(forms.M_Q.tocsc(), dropped)
                assert np.linalg.norm(dropped) > 1e-3 * np.linalg.norm(load)
                assert (np.linalg.norm(forms.B.T @ mode)
                        <= 1e-9 * sparse_norm(forms.B) * np.linalg.norm(mode))
                spurious.append((n, r))
            else:
                assert np.linalg.norm(dropped) <= 1e-10 * np.linalg.norm(load)
    # the two families without singular vertices have no spurious case
    assert bool(spurious) == (family not in (Family.DIAGONAL, Family.ZIGZAG))


def test_unconverged_cg_raises_numerical_error(forms_for, monkeypatch):
    forms = forms_for(Family.DIAGONAL, 4, 2)
    monkeypatch.setattr(po, "cg", lambda A, b, **kwargs: (np.zeros_like(b), 7))
    with pytest.raises(NumericalError, match="did not converge"):
        solve_mixed(forms, np.ones(forms.Q_h.ndofs))


def test_nan_from_cg_raises_numerical_error(forms_for, monkeypatch):
    # a CG that breaks down may hand back NaN with info 0; the residual
    # check must not let it through
    forms = forms_for(Family.DIAGONAL, 4, 2)
    monkeypatch.setattr(po, "cg",
                        lambda A, b, **kwargs: (np.full_like(b, np.nan), 0))
    with pytest.raises(NumericalError, match="residual too large"):
        solve_mixed(forms, np.ones(forms.Q_h.ndofs))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("load", ["closed-form", "random"])
@pytest.mark.parametrize("n", [4, 8])
@pytest.mark.parametrize("r", [1, 2])
@pytest.mark.parametrize("family", [Family.UNIONJACK, Family.FLIPPED,
                                    Family.CRISSCROSS], ids=lambda f: f.value)
def test_solve_matches_dense_reduced_oracle(forms_for, rng, family, r, n,
                                            load):
    # on the pairs with spurious modes the solve is that of (V_h, div V_h);
    # the closed-form load of crisscross has no part on its spurious modes,
    # by symmetry, so only the random load tests the projection there.  A
    # RuntimeWarning, as from a CG breakdown, fails the test
    forms = forms_for(family, n, r)
    if load == "random":
        rhs = rng.standard_normal(forms.Q_h.ndofs)
    else:
        rhs = load_vector(SINE.g, forms.Q_h)
    u_h, p_h = solve_mixed(forms, rhs)
    u_ref, p_ref = dense_reduced_solve(forms, rhs)
    assert np.max(np.abs(u_h - u_ref)) < 1e-8 * np.max(np.abs(u_ref))
    assert np.max(np.abs(p_h - p_ref)) < 1e-8 * np.max(np.abs(p_ref))


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_solve_matches_dense_schur_oracle(forms_for, r):
    forms = forms_for(Family.DIAGONAL, 8, r)
    rhs = load_vector(SINE.g, forms.Q_h)
    u_h, p_h = solve_mixed(forms, rhs)
    u_ref, p_ref = dense_schur_solve(forms, rhs)
    assert np.max(np.abs(u_h - u_ref)) < 1e-8
    assert np.max(np.abs(p_h - p_ref)) < 1e-8


def test_error_norms_value_checks(forms_for):
    forms = forms_for(Family.DIAGONAL, 8, 1)

    zero_u = np.zeros(forms.V_h.ndofs)
    zero_p = np.zeros(forms.Q_h.ndofs)
    norms = error_norms(forms, zero_u, zero_p, SINE)
    # |p|_0 = 1/2, |u|_0^2 = 2 pi^2 and |div u|_0^2 = 16 pi^4 for the
    # closed-form solution, integrated to rounding by the degree-14 rule
    assert abs(norms["p_l2"] - 0.5) < 1e-12
    assert abs(norms["u_l2"] ** 2 - TWO_PI_SQ) < 1e-12
    assert abs(norms["u_div"] ** 2 / (16 * np.pi ** 4) - 1) < 1e-12
    assert norms["u_hdiv"] >= norms["u_l2"]

    # fields in the spaces are measured against themselves with no error
    def u_linear(pts):
        return np.stack([2 * pts[:, 0] + pts[:, 1],
                         pts[:, 0] + 3 * pts[:, 1]], axis=-1)

    def p_constant(pts):
        return np.full(len(pts), 0.7)

    def div_u_linear(pts):
        return np.full(len(pts), 5.0)

    same = error_norms(forms, interpolate(u_linear, forms.V_h),
                       interpolate(p_constant, forms.Q_h),
                       Solution("linear", p_constant, u_linear, div_u_linear))
    assert (same["u_l2"] < 1e-12 and same["u_div"] < 1e-10
            and same["p_l2"] < 1e-12)


def test_eval_vector_and_divergence_consistent(rng):
    mesh = generate(Family.DIAGONAL, 4)
    space = vector_lagrange_space(mesh, 2)
    field = interpolate(
        lambda pts: np.stack([pts[:, 0] ** 2, pts[:, 0] * pts[:, 1]], axis=-1),
        space)
    ref = random_ref_points(rng, 10)
    vals = eval_vector(space, field, ref)
    phys = po._physical_points(mesh, ref)
    assert np.max(np.abs(vals[..., 0] - phys[..., 0] ** 2)) < 1e-12
    # div(x^2, xy) = 3x
    div = eval_divergence(space, field, ref)
    assert np.max(np.abs(div - 3 * phys[..., 0])) < 1e-11


def diagonal_study(r, n_values, solution=SINE):
    return convergence_study([generate(Family.DIAGONAL, n) for n in n_values],
                             r, solution)


def test_convergence_study_rates_r2():
    rep = {"r": 2, "n_values": [4, 8, 16], **diagonal_study(2, [4, 8, 16])}
    assert all(len(e) == 3 for e in rep["errors"].values())
    assert all(v[0] == 1.0 for v in rep["normalized"].values())
    assert abs(rep["rates"]["p_l2"][-1] - 2.0) < 0.1
    assert abs(rep["rates"]["u_hdiv"][-1] - 2.0) < 0.1
    rows = _converge_csv([rep])[1:]
    assert len(rows) == 3
    assert rows[0].endswith(",,,")  # no rates on the first mesh


def test_convergence_rates_only_for_doublings():
    rep = {"r": 1, "n_values": [4, 12], **diagonal_study(1, [4, 12])}
    assert rep["rates"]["p_l2"] == [None]
    assert ",," in _converge_csv([rep])[2]


@pytest.mark.parametrize("r", [1, 2])
def test_convergence_study_on_imported_meshes_equals_generated(r):
    # the study reads the meshes alone: export then import round-trips every
    # coordinate, and the errors and rates are the same floats
    generated = [generate(Family.DIAGONAL, n) for n in (4, 8)]
    imported = [import_mesh(export_mesh(mesh)) for mesh in generated]
    for mesh, back in zip(generated, imported):
        assert np.array_equal(back.vertices, mesh.vertices)
        assert np.array_equal(back.cells, mesh.cells)
    assert (convergence_study(imported, r, SINE)
            == convergence_study(generated, r, SINE))


def test_rates_only_where_the_largest_edge_halves():
    # diagonal n=8 with its interior vertices moved by 0.1 h along x, then
    # diagonal n=16: the largest edge shrinks by 2.10, not 2
    mesh = generate(Family.DIAGONAL, 8)
    vertices = mesh.vertices.copy()
    interior = np.all((vertices > 0.0) & (vertices < 1.0), axis=1)
    vertices[interior, 0] += 0.1 / 8
    meshes = [Triangulation(vertices, mesh.cells), generate(Family.DIAGONAL, 16)]
    rep = convergence_study(meshes, 1, SINE)
    assert all(rates == [None] for rates in rep["rates"].values())


def test_exp_rates_on_diagonal_r2():
    # a solution with none of the square's symmetries converges as SINE
    # does: p L2 at order 2 and u L2 at 2.06 from n = 16 to 32
    rep = diagonal_study(2, [16, 32], EXP)
    assert abs(rep["rates"]["p_l2"][0] - 2.00) < 0.05
    assert abs(rep["rates"]["u_l2"][0] - 2.06) < 0.05


def test_r3_asymptotic_velocity_rate():
    # the L2 velocity rate at r=3 settles to ~r one doubling after the
    # default desk scale; n=32 is also the largest source solve in the suite
    rep = diagonal_study(3, [16, 32])
    rate = rep["rates"]["u_l2"][0]
    assert 2.8 < rate < 3.2
    assert abs(rep["rates"]["p_l2"][0] - 3.0) < 0.1


@pytest.mark.parametrize("r", [5, 6])
def test_high_degree_rates_are_optimal(r):
    # past r = 3 the pair is stable on diagonal meshes (Scott & Vogelius)
    # and u converges with the optimal L2 order r + 1 already at n = 4 -> 8
    rep = diagonal_study(r, [4, 8])
    assert abs(rep["rates"]["p_l2"][0] - r) < 0.2
    assert abs(rep["rates"]["u_l2"][0] - (r + 1)) < 0.2
