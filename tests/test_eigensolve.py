import numpy as np
import pytest

import mixedstab.eigensolve as es
from mixedstab.eigensolve import (CholeskyFactor, Spectrum, cholesky,
                                  schur_complement, sym_generalized_eig)
from mixedstab.errors import EigensolveError, NotPositiveDefiniteError
from mixedstab.mesh import Family
from oracles import full_saddle_eigenvalues, jacobi_generalized_eig


def random_spd(rng, n, shift=1.0):
    a = rng.standard_normal((n, n))
    return a @ a.T + shift * np.eye(n)


def random_pencil(rng, n):
    return random_spd(rng, n, 0.5), random_spd(rng, n, 1.0)


def test_cholesky_reconstructs(rng):
    a = random_spd(rng, 40)
    fac = cholesky(a)
    assert isinstance(fac, CholeskyFactor)
    assert np.max(np.abs(fac.lower @ fac.lower.T - a)) < 1e-10
    x = rng.standard_normal(40)
    assert np.max(np.abs(a @ fac.solve(x) - x)) < 1e-8


def test_cholesky_reports_pivot():
    bad = np.diag([1.0, 2.0, -3.0])
    with pytest.raises(NotPositiveDefiniteError) as info:
        cholesky(bad)
    assert info.value.pivot == 3


def test_generalized_eig_residuals(rng):
    s, m = random_pencil(rng, 25)
    spec = sym_generalized_eig(s, m, vectors=True, problem="unit")
    assert np.all(np.diff(spec.values) >= -1e-12)
    for k in range(25):
        res = s @ spec.vectors[:, k] - spec.values[k] * (m @ spec.vectors[:, k])
        assert np.linalg.norm(res) < 1e-9 * max(1.0, abs(spec.values[k]))
    # M-orthonormal eigenvectors
    gram = spec.vectors.T @ m @ spec.vectors
    assert np.max(np.abs(gram - np.eye(25))) < 1e-9


def test_generalized_eig_shape_check(rng):
    with pytest.raises(EigensolveError):
        sym_generalized_eig(np.eye(3), np.eye(4))


def test_jacobi_matches_main_solver(rng):
    # independent route: own Cholesky + cyclic Jacobi sweeps
    for _ in range(5):
        s, m = random_pencil(rng, 30)
        main = sym_generalized_eig(s, m).values
        jac = jacobi_generalized_eig(s, m)
        assert np.max(np.abs(main - jac)) < 1e-10


def test_jacobi_rejects_indefinite_metric(rng):
    s = random_spd(rng, 5)
    m = np.diag([1.0, 1.0, -1.0, 1.0, 1.0])
    with pytest.raises(NotPositiveDefiniteError):
        jacobi_generalized_eig(s, m)


def test_schur_complement_against_direct(rng):
    import scipy.sparse as sp

    a = random_spd(rng, 12)
    b = rng.standard_normal((5, 12))
    s = schur_complement(sp.csr_matrix(b), sp.csr_matrix(a))
    direct = b @ np.linalg.solve(a, b.T)
    assert np.max(np.abs(s - direct)) < 1e-10
    assert np.max(np.abs(s - s.T)) == 0.0


def test_schur_sparse_path_matches_dense(forms_for, monkeypatch):
    forms = forms_for(Family.DIAGONAL, 4, 1)
    dense = schur_complement(forms.B, forms.A_div)
    monkeypatch.setattr(es, "DENSE_LIMIT", 1)
    sparse = schur_complement(forms.B, forms.A_div)
    assert np.max(np.abs(dense - sparse)) < 1e-12


def test_spectrum_helpers():
    spec = Spectrum(values=np.array([1e-9, 1e-6, 0.3, 0.9]))
    assert spec.smallest_at_least(1e-4) == 0.3
    with pytest.raises(EigensolveError):
        spec.smallest_at_least(2.0)


def test_schur_pencil_matches_full_saddle_pencil(forms_for):
    forms = forms_for(Family.DIAGONAL, 4, 1)
    s = schur_complement(forms.B, forms.A_div)
    reduced = sym_generalized_eig(s, forms.M_Q.toarray()).values
    full = full_saddle_eigenvalues(forms)
    assert len(full) == len(reduced)
    assert np.max(np.abs(np.sort(reduced) - full)) < 1e-9
