import numpy as np
import pytest

import scipy.linalg as sla
import scipy.sparse as sp

from mixedstab.eigensolve import (InertiaSlicer, positive_definite_lu,
                                  schur_complement, symmetric_eigenvalues)
from mixedstab.errors import EigensolveError, NotPositiveDefiniteError
from mixedstab.mesh import Family
from oracles import (cholesky_reduced, dense_schur, full_saddle_eigenvalues,
                     jacobi_generalized_eig)


def random_spd(rng, n, shift=1.0):
    a = rng.standard_normal((n, n))
    return a @ a.T + shift * np.eye(n)


def random_pencil(rng, n):
    return random_spd(rng, n, 0.5), random_spd(rng, n, 1.0)


def test_standard_eig_matches_numpy(rng):
    s = random_spd(rng, 30, 0.5)
    values = symmetric_eigenvalues(s)
    scale = np.max(np.abs(values))
    assert np.max(np.abs(values - np.linalg.eigvalsh(s))) < 1e-12 * scale
    values = symmetric_eigenvalues(sp.csr_matrix(s))
    assert np.max(np.abs(values - np.linalg.eigvalsh(s))) < 1e-12 * scale
    with pytest.raises(EigensolveError):
        symmetric_eigenvalues(np.ones((3, 4)))


def test_jacobi_matches_main_solver(rng):
    # independent route: own Cholesky + cyclic Jacobi sweeps, against
    # LAPACK on the M-orthonormal reduction the library solves in
    for _ in range(5):
        s, m = random_pencil(rng, 30)
        main = symmetric_eigenvalues(cholesky_reduced(s, m))
        jac = jacobi_generalized_eig(s, m)
        assert np.max(np.abs(main - jac)) < 1e-10


def test_jacobi_rejects_indefinite_metric(rng):
    s = random_spd(rng, 5)
    m = np.diag([1.0, 1.0, -1.0, 1.0, 1.0])
    with pytest.raises(NotPositiveDefiniteError):
        jacobi_generalized_eig(s, m)


def test_schur_complement_against_direct(rng):
    a = random_spd(rng, 12)
    b = rng.standard_normal((5, 12))
    s = schur_complement(sp.csr_matrix(b), sp.csr_matrix(a))
    direct = b @ np.linalg.solve(a, b.T)
    assert np.max(np.abs(s - direct)) < 1e-10
    assert np.max(np.abs(s - s.T)) == 0.0


@pytest.mark.parametrize("dense", [False, True])
def test_schur_row_blocks_cover_a_partial_block(rng, dense):
    # 133 rows: two full blocks of 64 and a last block of 5
    a = random_spd(rng, 200)
    b = rng.standard_normal((133, 200))
    b[np.abs(b) < 1.0] = 0.0
    s = schur_complement(b if dense else sp.csr_matrix(b), sp.csr_matrix(a))
    oracle = dense_schur(b, a)
    assert s.shape == (133, 133)
    assert np.max(np.abs(s - oracle)) < 1e-12 * np.max(np.abs(oracle))
    assert np.array_equal(s, s.T)


@pytest.mark.parametrize("family, r", [(Family.DIAGONAL, 1),
                                       (Family.UNIONJACK, 3)])
@pytest.mark.parametrize("form", ["A_div", "A_1"])
def test_schur_matches_dense_oracle(forms_for, family, r, form):
    forms = forms_for(family, 4, r)
    s = schur_complement(forms.B, getattr(forms, form))
    oracle = dense_schur(forms.B, getattr(forms, form))
    assert np.max(np.abs(s - oracle)) < 1e-12 * np.max(np.abs(oracle))


# schur_complement factors A by a symmetric-mode LU with diagonal pivots
# only, which for SPD A is the Cholesky factorization A = L D L^T
def test_cholesky_reconstructs(rng):
    a = random_spd(rng, 40)
    inverse = schur_complement(np.eye(40), sp.csc_matrix(a))
    assert np.max(np.abs(a @ inverse - np.eye(40))) < 1e-8
    x = rng.standard_normal(40)
    assert np.max(np.abs(a @ (inverse @ x) - x)) < 1e-8


def test_cholesky_reports_pivot():
    with pytest.raises(NotPositiveDefiniteError) as info:
        schur_complement(np.eye(3), sp.diags([1.0, 2.0, -3.0]))
    assert info.value.pivot == 3


def test_schur_refuses_non_spd():
    with pytest.raises(NotPositiveDefiniteError):
        schur_complement(np.eye(3), sp.diags([1.0, 0.0, 1.0]))
    # indefinite with positive pivots once rows are swapped: the factor
    # must refuse the off-diagonal pivot instead
    with pytest.raises(NotPositiveDefiniteError):
        schur_complement(np.eye(2), sp.csc_matrix([[0.0, 1.0], [1.0, 0.0]]))


def test_schur_pencil_matches_full_saddle_pencil(forms_for):
    forms = forms_for(Family.DIAGONAL, 4, 1)
    s = schur_complement(forms.B, forms.A_div)
    reduced = symmetric_eigenvalues(cholesky_reduced(s, forms.M_Q))
    full = full_saddle_eigenvalues(forms)
    assert len(full) == len(reduced)
    assert np.max(np.abs(np.sort(reduced) - full)) < 1e-9


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


def test_positive_definite_lu_refuses_indefinite_norm():
    with pytest.raises(NotPositiveDefiniteError) as info:
        positive_definite_lu(sp.diags([1.0, 2.0, -3.0]))
    assert info.value.pivot == 3
