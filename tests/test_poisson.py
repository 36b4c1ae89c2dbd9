import dataclasses

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from scipy.sparse.linalg import norm as sparse_norm

import mixedstab.eigensolve as eigensolve
import mixedstab.poisson as po
from mixedstab.assembly import scalar_lagrange_space, vector_lagrange_space
from mixedstab.errors import NumericalError
from mixedstab.mesh import (GENERATED_FAMILIES, Family, generate,
                            singular_vertices)
from mixedstab.cli import _converge_csv
from mixedstab.poisson import (FieldCoefficients, error_norms,
                               eval_divergence, eval_scalar, eval_vector,
                               interpolate, load_vector,
                               manufactured_solution, solve_mixed)
from mixedstab.stability import Case, case_forms, convergence_study

from oracles import (dense_reduced_solve, dense_schur_solve,
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
    values = eval_scalar(field, ref)
    exact = poly(phys.reshape(-1, 2)).reshape(values.shape)
    assert np.max(np.abs(values - exact)) < 1e-12


def test_interpolation_error_scales_like_h7(rng):
    p_exact, _, _ = manufactured_solution()
    worst = {}
    ref = random_ref_points(rng, 40)
    for n in (4, 8):
        mesh = generate(Family.DIAGONAL, n)
        field = interpolate(p_exact, scalar_lagrange_space(mesh, 6))
        phys = po._physical_points(mesh, ref)
        values = eval_scalar(field, ref)
        exact = p_exact(phys.reshape(-1, 2)).reshape(values.shape)
        worst[n] = np.max(np.abs(values - exact))
    # seventh-order interpolant: halving h divides the error by ~2^7
    assert worst[4] / worst[8] > 60


def test_manufactured_fields_are_consistent(rng):
    p_exact, u_exact, g_exact = manufactured_solution()
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


def test_field_length_validation():
    mesh = generate(Family.DIAGONAL, 4)
    space = scalar_lagrange_space(mesh, 1)
    with pytest.raises(ValueError):
        FieldCoefficients(space, np.zeros(space.ndofs + 1))


def test_zero_source_gives_zero_solution(forms_for):
    forms = forms_for(Family.DIAGONAL, 4, 1)
    u_h, p_h = solve_mixed(forms, np.zeros(forms.Q_h.ndofs))
    assert np.max(np.abs(u_h.values)) < 1e-12
    assert np.max(np.abs(p_h.values)) < 1e-12


def test_constraint_equation_oracle(forms_for, rng):
    # with g = div w for a velocity-space field w, the constraint
    # equation forces B u_h = B w regardless of what u_h itself is
    forms = forms_for(Family.DIAGONAL, 4, 2)
    w = rng.standard_normal(forms.V_h.ndofs)
    rhs = forms.B @ w
    u_h, _ = solve_mixed(forms, rhs)
    lhs = forms.B @ u_h.values
    assert np.max(np.abs(lhs - rhs)) < 1e-9 * max(1.0, np.max(np.abs(rhs)))


def test_case_errors_solve_on_spurious_meshes(forms_for):
    # crisscross n=4 r=1 has 16 spurious modes; its errors are those of the
    # dense solution on (V_h, div V_h)
    forms = forms_for(Family.CRISSCROSS, 4, 1)
    p_exact, u_exact, g_exact = manufactured_solution()
    u_ref, p_ref = dense_reduced_solve(forms, load_vector(g_exact, forms.Q_h))
    want = error_norms(FieldCoefficients(forms.V_h, u_ref),
                       FieldCoefficients(forms.Q_h, p_ref),
                       u_exact, p_exact, g_exact)
    assert np.allclose(dataclasses.astuple(Case(forms).errors),
                       dataclasses.astuple(want), rtol=1e-9, atol=0.0)


def test_solve_refuses_wrong_shape_load(forms_for):
    forms = forms_for(Family.DIAGONAL, 4, 1)
    n_q = forms.Q_h.ndofs
    for shape in [(n_q - 1,), (n_q + 1,), (n_q, 1)]:
        with pytest.raises(ValueError, match="load vector"):
            solve_mixed(forms, np.ones(shape))


def test_solve_residuals_small(forms_for):
    forms = forms_for(Family.DIAGONAL, 8, 2)
    _, _, g_exact = manufactured_solution()
    rhs = load_vector(g_exact, forms.Q_h)
    u_h, p_h = solve_mixed(forms, rhs)
    res = np.linalg.norm(forms.B @ u_h.values - rhs)
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
    forms = case_forms(Family(family), n, r)
    _, p_h = solve_mixed(forms, rng.standard_normal(forms.Q_h.ndofs))
    sums = singular_vertex_sums(p_h)
    assert len(sums) == len(singular_vertices(forms.mesh)) > 0
    assert np.max(np.abs(sums)) <= 1e-9 * np.max(np.abs(p_h.values))


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
    Case(forms_for(family, 4, r)).errors
    assert splu_log == [True]


@pytest.mark.parametrize("family", GENERATED_FAMILIES, ids=lambda f: f.value)
def test_solve_refuses_exactly_the_spurious_cases(family, rng):
    # the solve drops a part of a random load G exactly on the cases with
    # spurious modes, and the part it drops, G - B u_h, lies on them:
    # M_Q^{-1} (G - B u_h) is in N_h = ker B^T
    spurious = []
    for n in (4, 6):
        for r in (1, 2, 3, 4):
            forms = case_forms(family, n, r)
            load = rng.standard_normal(forms.Q_h.ndofs)
            u_h, _ = solve_mixed(forms, load)
            dropped = load - forms.B @ u_h.values
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
        rhs = load_vector(manufactured_solution()[2], forms.Q_h)
    u_h, p_h = solve_mixed(forms, rhs)
    u_ref, p_ref = dense_reduced_solve(forms, rhs)
    assert np.max(np.abs(u_h.values - u_ref)) < 1e-8 * np.max(np.abs(u_ref))
    assert np.max(np.abs(p_h.values - p_ref)) < 1e-8 * np.max(np.abs(p_ref))


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_solve_matches_dense_schur_oracle(forms_for, r):
    forms = forms_for(Family.DIAGONAL, 8, r)
    _, _, g_exact = manufactured_solution()
    rhs = load_vector(g_exact, forms.Q_h)
    u_h, p_h = solve_mixed(forms, rhs)
    u_ref, p_ref = dense_schur_solve(forms, rhs)
    assert np.max(np.abs(u_h.values - u_ref)) < 1e-8
    assert np.max(np.abs(p_h.values - p_ref)) < 1e-8


def test_error_norms_value_checks(forms_for):
    forms = forms_for(Family.DIAGONAL, 8, 1)
    p_exact, u_exact, g_exact = manufactured_solution()

    zero_u = FieldCoefficients(forms.V_h, np.zeros(forms.V_h.ndofs))
    zero_p = FieldCoefficients(forms.Q_h, np.zeros(forms.Q_h.ndofs))
    norms = error_norms(zero_u, zero_p, u_exact, p_exact, g_exact)
    # |p|_0 = 1/2, |u|_0^2 = 2 pi^2 and |div u|_0^2 = 16 pi^4 for the
    # closed-form solution, integrated to rounding by the degree-14 rule
    assert abs(norms.p_l2 - 0.5) < 1e-12
    assert abs(norms.u_l2 ** 2 - TWO_PI_SQ) < 1e-12
    assert abs(norms.u_div ** 2 / (16 * np.pi ** 4) - 1) < 1e-12
    assert norms.u_hdiv >= norms.u_l2

    # fields in the spaces are measured against themselves with no error
    def u_linear(pts):
        return np.stack([2 * pts[:, 0] + pts[:, 1],
                         pts[:, 0] + 3 * pts[:, 1]], axis=-1)

    def p_constant(pts):
        return np.full(len(pts), 0.7)

    def div_u_linear(pts):
        return np.full(len(pts), 5.0)

    same = error_norms(interpolate(u_linear, forms.V_h),
                       interpolate(p_constant, forms.Q_h),
                       u_linear, p_constant, div_u_linear)
    assert same.u_l2 < 1e-12 and same.u_div < 1e-10 and same.p_l2 < 1e-12


def test_error_norms_rejects_mixed_meshes(forms_for):
    forms4 = forms_for(Family.DIAGONAL, 4, 1)
    forms8 = forms_for(Family.DIAGONAL, 8, 1)
    zero4u = FieldCoefficients(forms4.V_h, np.zeros(forms4.V_h.ndofs))
    zero8p = FieldCoefficients(forms8.Q_h, np.zeros(forms8.Q_h.ndofs))
    p_exact, u_exact, g_exact = manufactured_solution()
    with pytest.raises(ValueError):
        error_norms(zero4u, zero8p, u_exact, p_exact, g_exact)


def test_eval_vector_and_divergence_consistent(rng):
    mesh = generate(Family.DIAGONAL, 4)
    space = vector_lagrange_space(mesh, 2)
    field = interpolate(
        lambda pts: np.stack([pts[:, 0] ** 2, pts[:, 0] * pts[:, 1]], axis=-1),
        space)
    ref = random_ref_points(rng, 10)
    vals = eval_vector(field, ref)
    phys = po._physical_points(mesh, ref)
    assert np.max(np.abs(vals[..., 0] - phys[..., 0] ** 2)) < 1e-12
    # div(x^2, xy) = 3x
    div = eval_divergence(field, ref)
    assert np.max(np.abs(div - 3 * phys[..., 0])) < 1e-11


def test_convergence_study_rates_r2():
    rep = convergence_study(2, n_values=[4, 8, 16])
    assert rep["n_values"] == [4, 8, 16]
    assert all(v[0] == 1.0 for v in rep["normalized"].values())
    assert abs(rep["rates"]["p_l2"][-1] - 2.0) < 0.1
    assert abs(rep["rates"]["u_hdiv"][-1] - 2.0) < 0.1
    rows = _converge_csv([rep])[1:]
    assert len(rows) == 3
    assert rows[0].endswith(",,,")  # no rates on the first mesh


def test_convergence_rates_only_for_doublings():
    rep = convergence_study(1, n_values=[4, 12])
    assert rep["rates"]["p_l2"] == [None]
    assert ",," in _converge_csv([rep])[2]


def test_r3_asymptotic_velocity_rate():
    # the L2 velocity rate at r=3 settles to ~r one doubling after the
    # default desk scale; n=32 is also the largest source solve in the suite
    rep = convergence_study(3, n_values=[16, 32])
    rate = rep["rates"]["u_l2"][0]
    assert 2.8 < rate < 3.2
    assert abs(rep["rates"]["p_l2"][0] - 3.0) < 0.1


@pytest.mark.parametrize("r", [5, 6])
def test_high_degree_rates_are_optimal(r):
    # past r = 3 the pair is stable on diagonal meshes (Scott & Vogelius)
    # and u converges with the optimal L2 order r + 1 already at n = 4 -> 8
    rep = convergence_study(r, n_values=[4, 8])
    assert abs(rep["rates"]["p_l2"][0] - r) < 0.2
    assert abs(rep["rates"]["u_l2"][0] - (r + 1)) < 0.2
