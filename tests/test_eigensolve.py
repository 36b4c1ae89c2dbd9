import pickle
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

import scipy.linalg as sla
import scipy.sparse as sp

import mixedstab.eigensolve as eigensolve
from mixedstab.assembly import assemble
from mixedstab.eigensolve import WINDOW, InertiaSlicer, positive_definite_lu
from mixedstab.errors import EigensolveError, NotPositiveDefiniteError
from mixedstab.mesh import Family, Triangulation, generate
from mixedstab.stability import DEFAULT_THRESHOLD, Case, _first_shift
from oracles import (cholesky_reduced, full_saddle_eigenvalues,
                     jacobi_generalized_eig, schur_pencil_eigenvalues)


def random_spd(rng, n, shift=1.0):
    a = rng.standard_normal((n, n))
    return a @ a.T + shift * np.eye(n)


def random_pencil(rng, n):
    return random_spd(rng, n, 0.5), random_spd(rng, n, 1.0)


def test_jacobi_matches_main_solver(rng):
    # independent route: own Cholesky + cyclic Jacobi sweeps, against
    # LAPACK on the M-orthonormal reduction; both are oracles of the
    # slicer tests
    for _ in range(5):
        s, m = random_pencil(rng, 30)
        main = sla.eigh(cholesky_reduced(s, m), eigvals_only=True)
        jac = jacobi_generalized_eig(s, m)
        assert np.max(np.abs(main - jac)) < 1e-10


def test_jacobi_rejects_indefinite_metric(rng):
    s = random_spd(rng, 5)
    m = np.diag([1.0, 1.0, -1.0, 1.0, 1.0])
    with pytest.raises(NotPositiveDefiniteError):
        jacobi_generalized_eig(s, m)


@pytest.mark.parametrize("family, r", [(Family.DIAGONAL, 1),
                                       (Family.UNIONJACK, 3)])
@pytest.mark.parametrize("form", ["A_div", "A_1"])
def test_schur_matches_dense_oracle(forms_for, family, r, form):
    # (K, A) with K = B^T M_Q^{-1} B has nV - nQ zeros plus the eigenvalues
    # of the Schur pencil (B A^{-1} B^T, M_Q): counts and values agree
    forms = forms_for(family, 4, r)
    kernel = forms.V_h.ndofs - forms.Q_h.ndofs
    oracle = schur_pencil_eigenvalues(forms, getattr(forms, form))
    slicer = InertiaSlicer(forms.K, getattr(forms, form))
    # shifts in the gaps wider than 1e-6 relative, past the spurious zeros
    # of unionjack; A_1 has clusters near 1
    gaps = np.flatnonzero((oracle[1:] > 1e-8)
                          & (np.diff(oracle) > 1e-6 * oracle[1:])) + 1
    for j in gaps[::max(1, len(gaps) // 8)]:
        shift = 0.5 * (oracle[j - 1] + oracle[j])
        assert slicer.count(shift) == kernel + j
    got = [slicer.value(kernel + j) for j in range(20, forms.Q_h.ndofs, 20)]
    want = oracle[20::20]
    assert np.max(np.abs(got - want) / want) < 1e-10


@pytest.mark.parametrize("r", [1, 2, 3])
def test_pencils_read_the_assembled_forms_in_place(forms_for, r):
    # the assembled forms are exactly symmetric, so the transpose of each
    # CSR matrix is its CSC form bit for bit: the slicer copies none
    forms = forms_for(Family.UNIONJACK, 4, r)
    for name in ("K", "M_V", "A_div", "A_1"):
        given = getattr(forms, name)
        got, want = InertiaSlicer(given, forms.M_V).K, sp.csc_matrix(given)
        assert got.format == "csc", name
        assert np.shares_memory(got.data, given.data), name
        for part in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got, part),
                                  getattr(want, part)), (name, part)


def test_cholesky_reconstructs(rng):
    # a symmetric-mode LU with diagonal pivots only is, for SPD A, the
    # Cholesky factorization A = L D L^T
    a = random_spd(rng, 40)
    inverse = positive_definite_lu(sp.csc_matrix(a)).solve(np.eye(40))
    assert np.max(np.abs(a @ inverse - np.eye(40))) < 1e-8
    x = rng.standard_normal(40)
    assert np.max(np.abs(a @ (inverse @ x) - x)) < 1e-8


def test_cholesky_reports_pivot():
    # the one negative pivot sits in an isolated row between two SPD
    # blocks, so the minimum-degree order moves it; the error names its
    # row of A, not its place in the elimination order
    a = sp.block_diag([sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(3, 3)),
                       sp.diags([-1.0]),
                       sp.csc_matrix([[2.0, 1.0], [1.0, 2.0]])])
    with pytest.raises(NotPositiveDefiniteError) as info:
        positive_definite_lu(a.tocsc())
    assert info.value.pivot == 4


def test_schur_refuses_non_spd():
    # the norm matrices of the Schur pencils are certified by this factor:
    # a zero pivot is refused, and so is an indefinite matrix whose pivots
    # are positive once rows are swapped, as an off-diagonal pivot
    with pytest.raises(NotPositiveDefiniteError):
        positive_definite_lu(sp.diags([1.0, 0.0, 1.0]))
    with pytest.raises(NotPositiveDefiniteError, match="off-diagonal pivot"):
        positive_definite_lu(sp.csc_matrix([[0.0, 1.0], [1.0, 0.0]]))


def test_not_positive_definite_error_survives_a_process_pool():
    # a table's cases run in a process pool, which pickles a worker's error
    error = NotPositiveDefiniteError(3)
    copy = pickle.loads(pickle.dumps(error))
    assert (str(copy), copy.pivot) == (str(error), 3)
    matrices = [sp.diags([1.0, -1.0, 1.0]).tocsc(),
                sp.csc_matrix([[0.0, 1.0], [1.0, 0.0]])]
    with ProcessPoolExecutor(max_workers=2) as pool:
        futures = [pool.submit(positive_definite_lu, a) for a in matrices]
        for a, future in zip(matrices, futures):
            with pytest.raises(NotPositiveDefiniteError) as serial:
                positive_definite_lu(a)
            pooled = future.exception(timeout=60)
            assert type(pooled) is NotPositiveDefiniteError
            assert (str(pooled), pooled.pivot) == (str(serial.value),
                                                   serial.value.pivot)


def test_schur_pencil_matches_full_saddle_pencil(forms_for):
    forms = forms_for(Family.DIAGONAL, 4, 1)
    first, reduced = Case(forms).spectrum("infsup")
    full = full_saddle_eigenvalues(forms)
    assert first == 0 and len(full) == len(reduced)
    assert np.max(np.abs(reduced - full)) < 1e-9


def semidefinite_pencil(rng, n, rank):
    x = rng.standard_normal((n, rank))
    return sp.csr_matrix(x @ x.T), sp.csr_matrix(random_spd(rng, n, 1.0))


def test_inertia_slicer_matches_dense_eigh(rng):
    k, n = semidefinite_pencil(rng, 60, 45)   # 15 zero eigenvalues
    dense = sla.eigh(k.toarray(), n.toarray(), eigvals_only=True)
    slicer = InertiaSlicer(k, n)
    for shift in (1e-8, 1e-2, 0.5 * (dense[20] + dense[21]),
                  0.5 * (dense[30] + dense[31]), 1e3):
        assert slicer.count(shift) == np.count_nonzero(dense < shift)
    assert slicer.count(np.inf) == 60
    made = slicer.factorizations
    assert slicer.count(1e-2) == 15 and slicer.factorizations == made  # cached
    got = [slicer.value(i) for i in range(15, 60, 7)]
    want = dense[15:60:7]
    assert np.max(np.abs(got - want) / want) < 1e-10
    with pytest.raises(EigensolveError, match="no positive shift counted"):
        InertiaSlicer(k, n).value(3)


def test_inertia_slicer_refuses_off_diagonal_pivots():
    # a zero diagonal pivot is swapped out, and its count would be no inertia
    slicer = InertiaSlicer(sp.csr_matrix([[0.0, 1.0], [1.0, 0.0]]), sp.eye(2))
    with pytest.raises(EigensolveError, match="off-diagonal pivot"):
        slicer.count(0.0)
    assert slicer.count(0.5) == 1    # nu = -1 and 1


def test_inertia_slicer_refuses_non_monotone_counts():
    slicer = InertiaSlicer(sp.diags([1.0, 2.0, 3.0, 4.0]), sp.eye(4))
    assert slicer.count(2.5) == 2
    slicer._counts[2.5] = 4    # as if the factor at 2.5 had flipped two pivots
    with pytest.raises(EigensolveError, match="not monotone"):
        slicer.count(3.5)


def test_inertia_slicer_refuses_a_wrong_top(rng):
    # a top between nu_40 and nu_41 claims all 60 eigenvalues below it: a
    # count above it finds fewer, and a window below it cannot hold nu_50
    k, n = semidefinite_pencil(rng, 60, 45)
    dense = sla.eigh(k.toarray(), n.toarray(), eigvals_only=True)
    upper = 0.5 * (dense[40] + dense[41])
    slicer = InertiaSlicer(k, n, upper=upper)
    assert slicer.count(upper) == 60 and slicer.factorizations == 0
    with pytest.raises(EigensolveError, match="not monotone"):
        slicer.count(0.5 * (dense[50] + dense[51]))
    slicer = InertiaSlicer(k, n, upper=upper)
    slicer.count(1e-8)
    with pytest.raises(EigensolveError, match="do not certify"):
        slicer.value(50)


def test_positive_definite_lu_refuses_indefinite_norm():
    with pytest.raises(NotPositiveDefiniteError) as info:
        positive_definite_lu(sp.diags([1.0, 2.0, -3.0]))
    assert info.value.pivot == 3


def bounded_and_sliced(k, n, lower, i, bound):
    """(value, slicer, unbounded): value(i, bound) of a slicer that
    counted ``lower`` first, that slicer, and value(i) of a fresh one that
    did the same."""
    bounded, sliced = InertiaSlicer(k, n), InertiaSlicer(k, n)
    bounded.count(lower)
    sliced.count(lower)
    return bounded.value(i, bound), bounded, sliced.value(i)


def test_bound_that_closes_a_window_takes_one_lanczos_run(rng, monkeypatch):
    k, n = semidefinite_pencil(rng, 60, 45)   # 15 zeros
    dense = sla.eigh(k.toarray(), n.toarray(), eigvals_only=True)
    runs = []
    eigsh = eigensolve.eigsh
    monkeypatch.setattr(eigensolve, "eigsh",
                        lambda *a, **kw: runs.append(kw["sigma"]) or eigsh(*a, **kw))
    bound = 0.5 * (dense[17] + dense[18])
    got, slicer, want = bounded_and_sliced(k, n, 1e-8, 15, bound)
    assert abs(got - want) <= 1e-12 * want
    # the count at 1e-8, then the bound's factor, and its Lanczos run first
    assert runs[0] == bound and slicer.factorizations == 2
    assert sorted(slicer._values) == [15, 16, 17]
    assert max(abs(slicer.value(j) - dense[j]) / dense[j]
               for j in (15, 16, 17)) < 1e-10


@pytest.mark.parametrize("where", ["at", "below", "wide"])
def test_bound_that_closes_no_window_falls_back(rng, where):
    # a bound at or below nu_15 leaves it outside the window, and one above
    # nu_30 closes a window of 16 > WINDOW eigenvalues: the count at the
    # bound is kept and the unbounded slice runs
    k, n = semidefinite_pencil(rng, 60, 45)
    dense = sla.eigh(k.toarray(), n.toarray(), eigvals_only=True)
    bound = {"at": dense[15], "below": 0.5 * dense[15],
             "wide": 0.5 * (dense[30] + dense[31])}[where]
    got, slicer, want = bounded_and_sliced(k, n, 1e-8, 15, bound)
    assert abs(got - want) <= 1e-12 * want
    assert bound in slicer._counts
    if where == "wide":
        assert slicer.count(bound) - 15 > WINDOW


def test_bound_guessed_past_spurious_modes_gives_the_slice_value(forms_for):
    # unionjack n=6 r=2 has 12 spurious modes past which the first shift
    # of the Brezzi slice guesses mu's bound
    forms = forms_for(Family.UNIONJACK, 6, 2)
    kernel = forms.V_h.ndofs - forms.Q_h.ndofs
    got, _, want = bounded_and_sliced(forms.K, forms.M_V, 1e-4 / (1 - 1e-4),
                                      kernel + 12, _first_shift(forms.mesh))
    assert abs(got - want) <= 1e-12 * want


@pytest.mark.parametrize("fault", ["above the bound", "large residual"])
def test_bounded_lanczos_refuses_what_the_counts_do_not_certify(
        rng, monkeypatch, fault):
    k, n = semidefinite_pencil(rng, 60, 45)
    values, vectors = sla.eigh(k.toarray(), n.toarray())
    bound = 0.5 * (values[17] + values[18])

    def fake_eigsh(a, count, **kw):
        if fault == "above the bound":   # true eigenpairs, past the bound
            return values[18:18 + count], vectors[:, 18:18 + count]
        return values[15:15 + count], rng.standard_normal((60, count))
    monkeypatch.setattr(eigensolve, "eigsh", fake_eigsh)
    slicer = InertiaSlicer(k, n)
    slicer.count(1e-8)
    with pytest.raises(EigensolveError, match="do not certify" if fault ==
                       "above the bound" else "residuals"):
        slicer.value(15, bound)


@pytest.mark.parametrize("r", [2, 4])
def test_near_singular_vertices_match_the_dense_route(r):
    # crisscross n=4 with each centre moved by 3e-4 h along x: no vertex is
    # singular, and tau splits a band of small eigenvalues at r=2 (14 lie
    # below it).  A residual scaled by ||K x|| + |nu| ||N x|| refused both
    # cases (2.8e-8 in the Lanczos run at 19.95 at r=2, 2.2e-7 at 2.6e-4
    # at r=4); as a normwise backward error it passes, and the counts
    # still certify every window
    mesh = generate(Family.CRISSCROSS, 4)
    vertices = mesh.vertices.copy()
    vertices[25:, 0] += 3e-4 / 4
    forms = assemble(Triangulation(vertices, mesh.cells), r)
    case = Case(forms)
    lam = schur_pencil_eigenvalues(forms, forms.A_div)
    dim = int(np.count_nonzero(lam < DEFAULT_THRESHOLD))
    assert case.sigma == 0
    assert case.dimN == dim
    want = np.sqrt(lam[dim])
    assert abs(case.beta_div_reduced - want) <= 1e-9 * want
