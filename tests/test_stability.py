import dataclasses
import itertools
import math

import numpy as np
import pytest
import scipy.linalg as sla

import mixedstab.eigensolve as eigensolve
import mixedstab.stability as stability
from mixedstab.assembly import assemble, write_matrix_market
from mixedstab.cli import _table_csv
from mixedstab.eigensolve import InertiaSlicer
from mixedstab.errors import NotPositiveDefiniteError, NumericalError
from mixedstab.mesh import (GENERATED_FAMILIES, Family, Triangulation,
                            export_mesh, generate, import_mesh,
                            singular_vertices)
from mixedstab.poisson import NORM_KEYS, SINE, source_errors
from mixedstab.stability import (DEFAULT_THRESHOLD, SWEEP_THRESHOLDS, Case,
                                 _divdiv_shift, orthonormal_divergence,
                                 reproduce_table)

from oracles import (babuska_pencil_eigenvalues, classify_spectrum,
                     dense_schur, divdiv_pencil_eigenvalues,
                     laplace_pencil_eigenvalues, svd_coercivity)

TWO_PI_SQ = 2 * np.pi ** 2
TABLE_FAMILIES = (Family.DIAGONAL, Family.ZIGZAG, Family.FLIPPED, Family.UNIONJACK)


def test_classify_spectrum_counts_and_clips():
    values = np.array([-1e-15, 2e-9, 0.25, 0.81])
    dim, beta, reduced, warning = classify_spectrum(values, 1e-4)
    assert dim == 2
    assert beta == 0.0
    assert reduced == 0.5
    assert warning is None


def test_classify_spectrum_warns_on_cluster():
    values = np.array([9.9e-5, 1.01e-4, 0.5])
    dim, _, _, warning = classify_spectrum(values, 1e-4)
    assert dim == 1
    assert warning is not None and "cluster" in warning


def test_classify_spectrum_rejects_all_below():
    with pytest.raises(NumericalError):
        classify_spectrum(np.array([1e-9, 1e-8]), 1e-4)


def test_brezzi_infsup_diagonal_anchor(forms_for, spectrum_for):
    res = Case(forms_for(Family.DIAGONAL, 4, 1))
    assert res.dimN == 0
    assert abs(res.beta_div - 0.847171) < 5e-5
    assert res.beta_div == res.beta_div_reduced
    # eigenvalues live in [0, 1)
    values = spectrum_for(Family.DIAGONAL, 4, 1)
    assert values[0] > 0.5
    assert values[-1] < 1.0


def test_brezzi_infsup_unionjack_anchor(forms_for):
    res = Case(forms_for(Family.UNIONJACK, 4, 1))
    assert res.dimN == 4
    assert res.beta_div == 0.0
    assert abs(res.beta_div_reduced - 0.976985) < 5e-5


@pytest.mark.parametrize("family, r", [(Family.DIAGONAL, 1),
                                       (Family.UNIONJACK, 3)])
def test_orthonormal_pencils_match_the_generalized_route(forms_for, family, r):
    # the spectra past the spurious cluster are sliced from (K, A_div) and
    # (K, A_1); the generalized pencil against M_Q has the same spectrum,
    # and the constant mode is the quotient of the pressure 1
    forms = forms_for(family, 4, r)
    m_q = forms.M_Q.toarray()
    case = Case(forms)
    first, brezzi = case.spectrum("infsup")
    expected = sla.eigh(dense_schur(forms.B, forms.A_div), m_q, eigvals_only=True)
    assert first == np.count_nonzero(expected < DEFAULT_THRESHOLD)
    assert np.max(np.abs(brezzi - expected[first:])) < 1e-12
    s_1 = dense_schur(forms.B, forms.A_1)
    expected = sla.eigh(s_1, m_q, eigvals_only=True)
    first, values = case.spectrum("stokes")
    assert first == np.count_nonzero(expected < DEFAULT_THRESHOLD)
    assert np.max(np.abs(values - expected[first:])) < 1e-12 * expected[-1]
    ones = np.ones(forms.Q_h.ndofs)
    mode = (ones @ s_1 @ ones) / (ones @ m_q @ ones)
    assert abs(case.constant_mode - mode) < 1e-12 * mode


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("source", ["crisscross", "relabelled-unionjack"])
def test_orthonormal_divergence_factors_the_pressure_mass(pressure_forms, source, r):
    forms = pressure_forms(source, r)
    nb = r * (r + 1) // 2   # P_{r-1} pressures
    b_hat, lower = orthonormal_divergence(forms)
    assert lower.shape == (forms.mesh.num_cells, nb, nb)
    assert np.allclose(sla.block_diag(*(lower @ lower.transpose(0, 2, 1))),
                       forms.M_Q.toarray(), rtol=0, atol=1e-15)
    # C mixes the rows of one cell only, so each cell's rows reach the
    # same velocity dofs in C B as in B
    cell_rows = sla.block_diag(*[np.ones(nb)] * forms.mesh.num_cells)
    assert np.array_equal(cell_rows @ abs(b_hat.toarray()) > 0,
                          cell_rows @ abs(forms.B.toarray()) > 0)
    m_q_inv = np.linalg.inv(forms.M_Q.toarray())
    expected = forms.B.T @ m_q_inv @ forms.B
    assert (np.max(np.abs((b_hat.T @ b_hat).toarray() - expected))
            < 1e-12 * np.max(np.abs(expected)))


def test_coercivity_is_one_with_divergence_free_kernel(forms_for):
    forms = forms_for(Family.DIAGONAL, 4, 1)
    res = Case(forms)
    assert res.kernel_dim == forms.V_h.ndofs - forms.Q_h.ndofs  # 50 - 32
    assert res.alpha == 1.0
    assert res.alpha_residual < 1e-14
    alpha, kernel = svd_coercivity(forms)
    assert abs(alpha - 1.0) < 1e-9
    assert kernel.shape[1] == res.kernel_dim
    # kernel fields are exactly divergence-free
    assert np.max(np.abs(forms.B @ kernel)) < 1e-10


def test_coercivity_rejects_a_broken_divdiv_identity(forms_for):
    forms = forms_for(Family.DIAGONAL, 4, 2)
    with pytest.raises(NumericalError, match="alpha = 1 does not hold"):
        Case(dataclasses.replace(forms, K=1.01 * forms.K)).alpha


def test_babuska_positive_and_below_brezzi(forms_for):
    forms = forms_for(Family.DIAGONAL, 4, 1)
    res = Case(forms)
    beta = res.beta_div
    assert res.gamma > 0.01
    assert res.gamma <= beta + 1e-12
    assert abs(res.gamma - beta ** 2) < 1e-12
    # independent route: the block pencil solved whole
    oracle = babuska_pencil_eigenvalues(forms)
    assert abs(res.gamma - np.min(np.abs(oracle))) < 1e-9


def test_babuska_zero_with_spurious_modes(forms_for):
    forms = forms_for(Family.UNIONJACK, 4, 1)
    assert Case(forms).gamma == 0.0


def test_stokes_below_divergence_norm_constant(forms_for):
    forms = forms_for(Family.DIAGONAL, 4, 2)
    case = Case(forms)
    assert case.beta_h1 <= case.beta_div
    assert case.constant_mode > 0.5  # constant pressure is not degenerate
    assert case.dimN == 0


@pytest.mark.parametrize("family, ratio_band", [
    (Family.DIAGONAL, (0.4, 0.6)),    # 0.06219 -> 0.03043: beta_h1 ~ h
    (Family.ZIGZAG, (0.85, math.inf)),  # 0.11942 -> 0.10997: bounded
], ids=["diagonal", "zigzag"])
def test_stokes_contrast_at_r3(forms_for, family, ratio_band):
    # the abstract's contrast at r = 3: the H(div) inf-sup constant stays
    # bounded on both families, the H1 (Stokes) one halves with h on the
    # diagonal mesh and stays bounded on the zigzag one
    coarse, fine = (Case(forms_for(family, n, 3)) for n in (8, 16))
    low, high = ratio_band
    assert low <= fine.beta_h1 / coarse.beta_h1 <= high
    assert min(coarse.beta_div, fine.beta_div) > 0.96


def test_laplace_eigenvalue_stable_pair(forms_for):
    res = Case(forms_for(Family.DIAGONAL, 8, 2))
    assert abs(res.mu - TWO_PI_SQ) < 5e-3


def test_eigenvalue_map_and_divdiv_route(forms_for):
    forms = forms_for(Family.DIAGONAL, 4, 1)
    _, lam = Case(forms).spectrum("infsup")
    mu = laplace_pencil_eigenvalues(forms)
    mapped = lam / (1.0 - lam)
    assert np.max(np.abs(mu - mapped) / (1.0 + np.abs(mu))) < 1e-10
    dd = divdiv_pencil_eigenvalues(forms)
    positive = np.sort(dd[dd > 1e-10])
    assert len(positive) == len(mu)
    assert np.max(np.abs(positive - np.sort(mu))) < 1e-8


def test_pencil_spectrum_refuses_an_unknown_pencil(forms_for):
    with pytest.raises(ValueError, match="unknown pencil 'stokes-h1'"):
        Case(forms_for(Family.DIAGONAL, 4, 1)).spectrum("stokes-h1")


def test_threshold_sweep_monotone(forms_for):
    forms = forms_for(Family.UNIONJACK, 6, 1)
    rows = Case(forms).sweep((1e-2, 1e-4, 1e-6, 1e-8))
    dims = [dim for _, dim, _ in rows]
    assert dims == sorted(dims, reverse=True)
    assert dims[1] == 12  # n(n-2)/2 at the default threshold


def test_reproduce_table_t2_small():
    table = reproduce_table("T2", n_values=[4, 6])
    assert table["header"][0] == "n"
    got = {row[0]: row for row in table["rows"]}
    assert abs(got[4][1] - 0.847171) < 5e-5
    assert abs(got[6][2] - 0.626865) < 5e-5
    assert got[4][4] == 1 and got[6][6] == 12
    assert _table_csv(table)[1].startswith("4,0.847171")


def test_reproduce_table_t1_structure():
    table = reproduce_table("T1", n_values=[4], r_values=[1])
    assert table["header"] == ["family", "n", "r", "sigma", "dimN"]
    by_family = {row[0]: row for row in table["rows"]}
    assert by_family["crisscross"][3] == 16
    assert by_family["crisscross"][4] == 16
    assert by_family["diagonal"][3] == 0


def test_reproduce_table_parallel_matches_serial():
    serial = reproduce_table("T2", n_values=[4, 6], jobs=1)
    parallel = reproduce_table("T2", n_values=[4, 6], jobs=2)
    assert serial == parallel
    serial = reproduce_table("T1", n_values=[4], r_values=[1, 2], jobs=1)
    parallel = reproduce_table("T1", n_values=[4], r_values=[1, 2], jobs=2)
    assert serial == parallel
    for which in ("T3", "T4"):
        assert (reproduce_table(which, n_values=[4], jobs=1)
                == reproduce_table(which, n_values=[4], jobs=2)), which


def test_reproduce_table_runs_each_case_once(monkeypatch):
    import mixedstab.stability as stability

    calls = []
    table_case = stability._table_case

    def counted(args):
        calls.append(args[:3])
        return table_case(args)

    monkeypatch.setattr(stability, "_table_case", counted)
    # a repeated degree or n repeats the rows, not the cases
    for which, n_values, r_values, cases, rows in (
            ("T1", [4], [1, 1], 5, 10), ("T2", [4, 4], None, 4, 2)):
        calls.clear()
        table = reproduce_table(which, n_values=n_values, r_values=r_values)
        assert len(calls) == len(set(calls)) == cases, which
        assert len(table["rows"]) == rows, which
        assert table["rows"][::2] == table["rows"][1::2], which


def test_table_rows_equal_run_case_reports():
    # each table row against the singular-vertex count and the Brezzi
    # constant of its case, computed on their own
    for family, n, r, sigma, dim in reproduce_table(
            "T1", n_values=[4], r_values=[1, 2])["rows"]:
        forms = assemble(generate(family, n), r)
        assert (sigma, dim) == (singular_vertices(forms.mesh).size,
                                Case(forms).dimN), (family, r)
    for n, *cells in reproduce_table("T2", n_values=[4, 6])["rows"]:
        diag, zig, flip, uj = (Case(assemble(generate(family, n), 1))
                               for family in TABLE_FAMILIES)
        assert cells == [diag.beta_div, zig.beta_div, flip.beta_div_reduced,
                         flip.dimN, uj.beta_div_reduced, uj.dimN], n


def test_spurious_modes_is_the_count_brezzi_infsup_starts_from(forms_for):
    forms = forms_for(Family.UNIONJACK, 4, 1)
    case = Case(forms)
    dim = case.dimN
    assert case.kernel == forms.V_h.ndofs - forms.Q_h.ndofs
    assert case.pencil.factorizations == 1
    # the source solve reads no count: it solves on (V_h, div V_h), and the
    # pencil makes no factorization more, nor does a fresh Case build one
    assert math.isfinite(source_errors(case.forms, SINE)["p_l2"])
    assert case.pencil.factorizations == 1 and dim == 4
    fresh = Case(forms)
    assert (math.isfinite(source_errors(fresh.forms, SINE)["u_l2"])
            and "pencil" not in fresh.__dict__)


# symmetries of the unit square, each a map of (x, y) and whether it
# reverses the orientation of the cells
SQUARE_SYMMETRIES = {
    "reflection": (lambda x, y: (1.0 - x, y), True),
    "quarter-turn": (lambda x, y: (1.0 - y, x), False),
    "transpose": (lambda x, y: (y, x), True),
    "half-turn": (lambda x, y: (1.0 - x, 1.0 - y), False),
    "three-quarter-turn": (lambda x, y: (y, 1.0 - x), False),
    "vertical-reflection": (lambda x, y: (x, 1.0 - y), True),
    "anti-transpose": (lambda x, y: (1.0 - y, 1.0 - x), True),
}


def square_images(family, relabel=None):
    """The images of the family's n=4 mesh, exported and imported again,
    under each SQUARE_SYMMETRIES map, and ``relabel`` when given, each
    exported and imported once more; "identity" is the exported mesh."""
    exported = import_mesh(export_mesh(generate(family, 4)))
    images = {"identity": exported}
    if relabel is not None:
        images["relabelling"] = relabel(exported)[0]
    for name, (symmetry, flips) in SQUARE_SYMMETRIES.items():
        x, y = symmetry(exported.vertices[:, 0], exported.vertices[:, 1])
        cells = exported.cells[:, ::-1] if flips else exported.cells
        images[name] = Triangulation(np.column_stack([x, y]), cells)
    return {name: import_mesh(export_mesh(mesh)) for name, mesh in images.items()}


@pytest.mark.parametrize("family", [Family.UNIONJACK, Family.FLIPPED,
                                    Family.ZIGZAG, Family.CRISSCROSS,
                                    Family.DIAGONAL],
                         ids=lambda f: f.value)
def test_constants_are_invariant_under_the_symmetries_of_the_square(forms_for,
                                                                     relabel,
                                                                     family):
    # the images are imported meshes, so their singular vertices take the
    # floating-point test, the generated mesh the exact one
    for name, image in square_images(family, relabel).items():
        for r in (1, 2):
            want, got = ((c.sigma, c.dimN, c.beta_div_reduced, c.beta_h1_reduced)
                         for c in (Case(forms_for(family, 4, r)),
                                   Case(assemble(image, r))))
            tag = (name, r)
            if name == "identity":   # the same floats: the same numbers
                assert got == want, tag
            else:
                assert got[:2] == want[:2], tag
                assert np.allclose(got[2:], want[2:], rtol=0.0, atol=1e-12), tag


@pytest.mark.parametrize("family", GENERATED_FAMILIES, ids=lambda f: f.value)
def test_source_errors_are_invariant_under_the_symmetries_of_the_square(
        forms_for, family):
    # p = sin(2 pi x) sin(2 pi y) maps to +-p under every symmetry of the
    # square, and u = grad p and div u with it, so the error norms of the
    # image are those of the original up to rounding.  A relabelling is left
    # out: it rotates the vertex triples, the collapsed Gauss rule is not
    # symmetric under a rotation, and its quadrature of the closed-form
    # integrands moves the errors by up to 4e-9 relative at r=3
    want = {r: source_errors(forms_for(family, 4, r), SINE) for r in (1, 2, 3)}
    for name, image in square_images(family).items():
        for r in (1, 2, 3):
            got = source_errors(assemble(image, r), SINE)
            tag = (name, r)
            if name == "identity":   # the same floats: the same numbers
                assert got == want[r], tag
            else:
                assert np.allclose([got[k] for k in NORM_KEYS],
                                   [want[r][k] for k in NORM_KEYS],
                                   rtol=1e-12, atol=0.0), tag


@pytest.mark.parametrize("family", [Family.DIAGONAL, Family.UNIONJACK],
                         ids=lambda f: f.value)
def test_a_permuted_dof_order_keeps_the_inertia_counts(forms_for, rng, family):
    # P K P^T - s P M_V P^T = P (K - s M_V) P^T has the inertia of
    # K - s M_V (Sylvester), whatever order the factorization pivots in
    forms = forms_for(family, 4, 2)
    case = Case(forms)
    perm = rng.permutation(forms.V_h.ndofs)
    permuted = InertiaSlicer(forms.K[perm][:, perm], forms.M_V[perm][:, perm])
    for s in (_divdiv_shift(DEFAULT_THRESHOLD), 2.0 * case.mu):
        assert permuted.count(s) == case.pencil.count(s), s


class RecordingExecutor:
    """Stands in for ProcessPoolExecutor: records max_workers, runs inline."""

    created = []

    def __init__(self, max_workers=None):
        self.created.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


def test_reproduce_table_clamps_jobs(monkeypatch):
    import concurrent.futures

    import mixedstab.stability as stability

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingExecutor)
    monkeypatch.setattr(RecordingExecutor, "created", [])
    monkeypatch.setattr(stability.os, "cpu_count", lambda: 3)
    reproduce_table("T2", n_values=[4], jobs=10**6)      # 4 cases, 3 cores
    reproduce_table("T1", n_values=[4], r_values=[1], jobs=2)
    monkeypatch.setattr(stability.os, "cpu_count", lambda: 1)
    reproduce_table("T2", n_values=[4], jobs=8)          # one core: serial
    assert RecordingExecutor.created == [3, 2]


def test_reproduce_table_rejects_unknown():
    with pytest.raises(ValueError):
        reproduce_table("T9")
    # T2 fixes r = 1: another degree is refused, not ignored
    with pytest.raises(ValueError, match="T2 fixes r = 1"):
        reproduce_table("T2", n_values=[4], r_values=[2])


def test_default_threshold_value():
    assert DEFAULT_THRESHOLD == 1e-4


SLICE_FAMILIES = (Family.DIAGONAL, Family.ZIGZAG, Family.FLIPPED,
                  Family.CRISSCROSS, Family.UNIONJACK)
SLICE_THRESHOLDS = (1e-6, 1e-4, 1e-2, 0.5)


@pytest.mark.parametrize("family", SLICE_FAMILIES, ids=lambda f: f.value)
def test_sliced_constants_match_the_dense_route(forms_for, spectrum_for, family):
    # the inertia counts and the Lanczos values against the full dense
    # spectra, split by the oracle, at n = 4, 6, 8 and r = 1..4 up to
    # nQ = 1000 (the dense spectra of the three larger cases take 10 s);
    # the Stokes constant at n = 4, 6
    def rel(got, want):
        return abs(got - want) / abs(want)

    for n, r in itertools.product((4, 6, 8), (1, 2, 3, 4)):
        forms = forms_for(family, n, r)
        if forms.Q_h.ndofs > 1000:
            continue
        tag = f"{family.value} n={n} r={r}"
        lam = spectrum_for(family, n, r)
        infsup = Case(forms)
        rows = infsup.sweep(SLICE_THRESHOLDS)
        dims = [dim for _, dim, _ in rows]
        assert dims == sorted(dims), tag   # counts are monotone in s
        for thr, dim, beta_reduced in rows:
            want_dim, _, want_beta, _ = classify_spectrum(lam, thr)
            assert dim == want_dim, (tag, thr)
            assert rel(beta_reduced, want_beta) < 1e-10, (tag, thr)
        dim = infsup.dimN
        mu = lam[dim:dim + 5] / (1.0 - lam[dim:dim + 5])
        assert rel(infsup.mu, mu[0]) < 1e-10, tag
        assert (np.max(np.abs(np.array(infsup.smallest_eigenvalues) - mu) / mu)
                < 1e-10), tag
        if n == 8:
            continue
        h1 = spectrum_for(family, n, r, h1=True)
        want_dim, _, want_beta, _ = classify_spectrum(h1, DEFAULT_THRESHOLD)
        assert infsup.dimN == want_dim, tag
        assert rel(infsup.beta_h1_reduced, want_beta) < 1e-10, tag


def test_beta_is_zero_with_spurious_modes(forms_for):
    forms = forms_for(Family.UNIONJACK, 4, 2)
    case = Case(forms)
    assert case.dimN == 4
    assert case.beta_div == case.beta_h1 == 0.0
    assert case.beta_div_reduced > 0.9 and case.beta_h1_reduced > 0.1


def test_cluster_warning_is_an_inertia_test(forms_for):
    forms = forms_for(Family.DIAGONAL, 4, 1)
    assert Case(forms).warning is None
    # lambda_min = 0.718 lies between tau / 10 and tau
    res = Case(forms, threshold=0.75)
    assert res.dimN == 1
    assert res.warning == ("threshold 0.75 splits a cluster: 0 eigenvalues "
                           "below 0.075, 1 eigenvalues below 0.75")
    # 10 tau = 5 would count every eigenvalue; it is no probe
    res = Case(forms, threshold=0.5)
    assert res.dimN == 0 and res.warning is None


@pytest.mark.parametrize("form", ["A_1"])
def test_sliced_constants_refuse_an_indefinite_norm(forms_for, form):
    # A_1 is the one norm matrix a sliced constant factors; it is no field,
    # so the copy takes it by assignment
    broken = dataclasses.replace(forms_for(Family.DIAGONAL, 4, 1))
    setattr(broken, form, -getattr(broken, form))
    with pytest.raises(NotPositiveDefiniteError):
        Case(broken).beta_h1


def test_counts_need_no_check_of_a_div(monkeypatch):
    # every Brezzi field slices (K, M_V) alone, so none forms A_div = M_V
    # + K, which is summed on its first read: not in one case, and not in
    # any case of a table
    forms = assemble(generate(Family.DIAGONAL, 4), 2)
    case = Case(forms)
    for read in (lambda: case.dimN, lambda: case.beta_div, lambda: case.mu,
                 lambda: case.gamma, lambda: case.smallest_eigenvalues,
                 lambda: case.alpha, lambda: case.warning,
                 lambda: case.sweep(SWEEP_THRESHOLDS)):
        read()
        assert "A_div" not in vars(forms)

    kept = []
    monkeypatch.setattr(stability, "assemble",
                        lambda mesh, r: kept.append(assemble(mesh, r)) or kept[-1])
    for which in stability.TABLES:
        reproduce_table(which, n_values=[4])
    assert len(kept) == 27
    assert not any("A_div" in vars(f) for f in kept)


@pytest.mark.parametrize("family, stretch, ratio", [
    (Family.DIAGONAL, (2.0, 2.0), 0.25), (Family.CRISSCROSS, (2.0, 1.0), 0.625)])
def test_first_shift_follows_the_bounding_box(family, stretch, ratio):
    # the first shift 1.25 pi^2 (1/w^2 + 1/h^2) scales with the box, so on
    # a stretched mesh its count still closes mu's window: mu takes two
    # factorizations, the counts at tau and at the shift.  Scaling by 2
    # maps the pencil to itself over 4; the (2, 1) stretch is no similarity
    # of the discrete pencil, so there mu is 0.625 of the unit value up to
    # the discretization error, and the slice's value is checked against
    # one grown from the count at tau
    mesh = generate(family, 4)
    unit = Case(assemble(mesh, 2)).mu
    forms = assemble(Triangulation(mesh.vertices * stretch, mesh.cells), 2)
    case = Case(forms)
    assert case.mu and case.factorizations == 2
    pencil = InertiaSlicer(forms.K, forms.M_V)
    want = pencil.value(pencil.count(_divdiv_shift(DEFAULT_THRESHOLD)))
    assert abs(case.mu - want) <= 1e-12 * want
    tol = 1e-12 if stretch[0] == stretch[1] else 1e-5
    assert abs(case.mu - ratio * unit) <= tol * ratio * unit


def test_stokes_takes_dim_n_from_the_div_div_count(forms_for):
    # N_h = ker B^T does not depend on the velocity norm: at tau = 0.01,
    # above beta_h1^2 = 0.0061, the div-div pencil counts no spurious mode,
    # and the Stokes constant is the one at the default threshold
    forms = forms_for(Family.DIAGONAL, 8, 2)
    coarse, default = Case(forms, 0.01), Case(forms)
    assert coarse.dimN == 0
    assert abs(coarse.beta_h1 - default.beta_h1) <= 1e-12 * default.beta_h1
    assert round(default.beta_h1, 6) == 0.077880


def test_stokes_top_saves_factorizations(forms_for):
    # the top 2 closes the bracket of the first value past the count at
    # tau h^2 (h = 1/32 on diagonal n=32) with no factorization: counted
    # with every factorization the Stokes constant makes, it still beats a
    # slice that grows its bracket from tau h^2
    forms = forms_for(Family.DIAGONAL, 32, 2)
    res = Case(forms)
    pencil = InertiaSlicer(forms.K, forms.A_1)
    beta = math.sqrt(pencil.value(pencil.count(DEFAULT_THRESHOLD / 32**2)))
    assert abs(res.beta_h1 - beta) <= 1e-12 * beta
    assert res.stokes_factorizations < pencil.factorizations


@pytest.mark.parametrize("r", [1, 2, 3, 4])
@pytest.mark.parametrize("family", GENERATED_FAMILIES, ids=lambda f: f.value)
def test_stokes_spectrum_lies_below_its_top(spectrum_for, family, r):
    # (div u)^2 <= 2 |grad u|^2 pointwise, and A_1 adds the mass to the
    # grad-grad form: every eigenvalue of (K, A_1) lies below 2
    assert spectrum_for(family, 4, r, h1=True).max() < 2.0


def test_stokes_top_costs_no_factorization(forms_for):
    forms = forms_for(Family.DIAGONAL, 4, 2)
    pencil = InertiaSlicer(forms.K, forms.A_1, upper=2.0)
    assert pencil.count(2.0) == pencil.size and pencil.factorizations == 0


def test_stokes_refuses_a_count_its_pencil_does_not_show(forms_for):
    case = Case(forms_for(Family.DIAGONAL, 4, 2))
    case.dimN = 1   # a count (K, M_V) does not make
    with pytest.raises(NumericalError, match="has 0 eigenvalues past its 66 "
                       "zeros .* counts 1 spurious modes"):
        case.beta_h1_reduced


def test_threshold_at_or_above_one_counts_every_eigenvalue(forms_for):
    with pytest.raises(NumericalError, match="all 32 eigenvalues"):
        Case(forms_for(Family.DIAGONAL, 4, 1), threshold=1.0).dimN


def test_only_the_stokes_reads_build_a_1(monkeypatch, tmp_path):
    # A_1 is formed on its first read: the H(div) fields, the source
    # problem and the tables never read it; the Stokes fields and the
    # matrix dump do.  Of these reads, only the source solve and the dump
    # form A_div = M_V + K
    forms = assemble(generate(Family.DIAGONAL, 4), 2)
    case = Case(forms)
    for read in (lambda: case.dimN, lambda: case.beta_div, lambda: case.mu,
                 lambda: case.smallest_eigenvalues, lambda: case.alpha,
                 lambda: case.warning, lambda: case.sweep(SWEEP_THRESHOLDS)):
        read()
        assert "A_1" not in vars(forms)
    source_errors(forms, SINE)
    assert "A_div" in vars(forms) and "A_1" not in vars(forms)

    kept = []
    monkeypatch.setattr(stability, "assemble",
                        lambda mesh, r: kept.append(assemble(mesh, r)) or kept[-1])
    for which in stability.TABLES:
        reproduce_table(which, n_values=[4])
    assert len(kept) == 27
    assert not any("A_1" in vars(f) for f in kept)

    dump = lambda c: write_matrix_market(c.forms, tmp_path)   # noqa: E731
    for read in (lambda c: c.constant_mode, lambda c: c.beta_h1,
                 lambda c: c.spectrum("stokes"), dump):
        case = Case(assemble(generate(Family.DIAGONAL, 4), 2))
        read(case)
        assert "A_1" in vars(case.forms)
        assert ("A_div" in vars(case.forms)) == (read is dump)
