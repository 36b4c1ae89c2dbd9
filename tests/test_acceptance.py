"""Acceptance checks for the whole pipeline, one summary line per criterion.

Every test here compares computed quantities against frozen reference
values (the `tables` command outputs T1-T4, the known continuous
constants, convergence-rate bands) or against an independent computation
of the same quantity.  The terminal summary prints a PASS/FAIL checklist;
see conftest.py.  Two criteria are expected failures of the method at the
stated resolution, not of the implementation, and are marked xfail(strict)
with the measured numbers recorded in the summary.
"""

import itertools
import math

import numpy as np
import pytest
import scipy.linalg as sla

from mixedstab.element import monomial_exponents, quadrature
from mixedstab.cli import converge_n_values
from mixedstab.mesh import Family, generate, singular_vertices
from mixedstab.poisson import SINE, convergence_study
from mixedstab.stability import DEFAULT_THRESHOLD, Case

from oracles import (cholesky_reduced, classify_spectrum,
                     divdiv_pencil_eigenvalues,
                     full_saddle_eigenvalues, jacobi_generalized_eig,
                     laplace_pencil_eigenvalues, monomial_integral,
                     svd_coercivity)

BETA_TOL = 5e-5          # printed reference values carry 6 decimals
BETA_EXACT = math.sqrt(2 * math.pi**2 / (1 + 2 * math.pi**2))  # 0.975593...

ALL_FAMILIES = (Family.DIAGONAL, Family.ZIGZAG, Family.FLIPPED,
                Family.CRISSCROSS, Family.UNIONJACK)


def expected_sigma(family, n):
    if family is Family.CRISSCROSS:
        return n * n
    if family is Family.UNIONJACK:
        return n * (n - 2) // 2
    return 0


def expected_dim_spurious(family, n, r):
    if family is Family.FLIPPED:
        return (n // 2 - 1) ** 2 if r == 1 else 0
    if family in (Family.CRISSCROSS, Family.UNIONJACK):
        return expected_sigma(family, n)
    return 0


# r = 1 sweep: n -> (beta diagonal, beta zigzag,
#                    reduced beta flipped, dim flipped,
#                    reduced beta unionjack, dim unionjack)
T2 = {
    4:  (0.847171, 0.791967, 0.945496, 1, 0.976985, 4),
    6:  (0.716677, 0.626865, 0.945619, 4, 0.976271, 12),
    8:  (0.605576, 0.505968, 0.947850, 9, 0.975985, 24),
    10: (0.517707, 0.420180, 0.946138, 16, 0.975847, 40),
    12: (0.449060, 0.357720, 0.944833, 25, 0.975770, 60),
    14: (0.394963, 0.310731, 0.943880, 36, 0.975724, 84),
    16: (0.351684, 0.274303, 0.943142, 49, 0.975693, 112),
}

# r = 2 sweep (flipped has no spurious modes at r >= 2)
T3_DIAGONAL = {4: 0.975627, 6: 0.975600, 8: 0.975595,
               10: 0.975594, 12: 0.975594, 14: 0.975593}
T3_ZIGZAG = {4: 0.955956, 6: 0.952460, 8: 0.951384,
             10: 0.950906, 12: 0.950638, 14: 0.950458}
T3_FLIPPED = {4: 0.943790, 6: 0.940480, 8: 0.938717,
              10: 0.937684, 12: 0.936992}
T3_UNIONJACK = {4: (0.975628, 4), 6: (0.975603, 12), 8: (0.975595, 24),
                10: (0.975594, 40), 12: (0.975593, 60)}

# r = 3 sweep (only the diagonal family stays away from the limit value)
T4_DIAGONAL = {4: 0.972244, 6: 0.967304, 8: 0.964845,
               10: 0.963412, 12: 0.962484}
T4_ZIGZAG = {4: 0.975594, 6: 0.975593, 8: 0.975593}
T4_FLIPPED = {4: 0.975594, 6: 0.975593, 8: 0.975593}
T4_UNIONJACK = {4: (0.975594, 4), 6: (0.975593, 12), 8: (0.975593, 24)}


@pytest.fixture(scope="session")
def infsup_for(forms_for):
    cache = {}

    def get(family, n, r):
        key = (family, n, r)
        if key not in cache:
            cache[key] = Case(forms_for(family, n, r))
        return cache[key]

    return get


@pytest.fixture(scope="session")
def study_for():
    cache = {}

    def get(r):
        if r not in cache:
            # the converge command's default meshes
            cache[r] = convergence_study(
                [generate(Family.DIAGONAL, n) for n in converge_n_values(r)],
                r, SINE)
        return cache[r]

    return get


def check(record, label, failures, ok_detail):
    detail = ok_detail if not failures else "; ".join(failures[:4])
    record(label, not failures, detail)
    assert not failures, "\n".join(failures)


def test_criterion_1_singular_vertex_and_spurious_counts(record, infsup_for):
    failures = []
    for family, n in itertools.product(ALL_FAMILIES, range(4, 17, 2)):
        sigma = singular_vertices(generate(family, n)).size
        want = expected_sigma(family, n)
        if sigma != want:
            failures.append(f"sigma({family.value}, n={n}) = {sigma} != {want}")
    cases = ([(f, n, 1) for f in ALL_FAMILIES for n in (4, 6, 8)]
             + [(f, n, 2) for f in ALL_FAMILIES for n in (4, 6)]
             + [(f, 4, 3) for f in ALL_FAMILIES])
    for family, n, r in cases:
        dim = infsup_for(family, n, r).dimN
        want = expected_dim_spurious(family, n, r)
        if dim != want:
            failures.append(
                f"dimN({family.value}, n={n}, r={r}) = {dim} != {want}")
    check(record, "1: singular-vertex and spurious-mode counts", failures,
          f"sigma exact for 5 families at n=4..16; dimN exact in {len(cases)} cases")


def test_criterion_2_infsup_values_r1(record, infsup_for):
    failures, worst = [], 0.0

    def compare(tag, got, want):
        nonlocal worst
        worst = max(worst, abs(got - want))
        if abs(got - want) > BETA_TOL:
            failures.append(f"{tag}: {got:.6f} != {want:.6f}")

    for n, (b_diag, b_zig, b_flip, dim_flip, b_uj, dim_uj) in T2.items():
        compare(f"diagonal n={n}", infsup_for(Family.DIAGONAL, n, 1).beta_div, b_diag)
        compare(f"zigzag n={n}", infsup_for(Family.ZIGZAG, n, 1).beta_div, b_zig)
        flip = infsup_for(Family.FLIPPED, n, 1)
        compare(f"flipped n={n}", flip.beta_div_reduced, b_flip)
        uj = infsup_for(Family.UNIONJACK, n, 1)
        compare(f"unionjack n={n}", uj.beta_div_reduced, b_uj)
        if (flip.dimN, uj.dimN) != (dim_flip, dim_uj):
            failures.append(f"dims n={n}: {flip.dimN},{uj.dimN}")
    check(record, "2: T2 reference values (r=1)", failures,
          f"28 constants within {BETA_TOL:g} (worst dev {worst:.2e}), dims exact")


def test_criterion_3_infsup_values_r2(record, infsup_for):
    failures, worst = [], 0.0

    def compare(tag, got, want):
        nonlocal worst
        worst = max(worst, abs(got - want))
        if abs(got - want) > BETA_TOL:
            failures.append(f"{tag}: {got:.6f} != {want:.6f}")

    for n, want in T3_DIAGONAL.items():
        compare(f"diagonal n={n}", infsup_for(Family.DIAGONAL, n, 2).beta_div, want)
    for n, want in T3_ZIGZAG.items():
        compare(f"zigzag n={n}", infsup_for(Family.ZIGZAG, n, 2).beta_div, want)
    for n, want in T3_FLIPPED.items():
        res = infsup_for(Family.FLIPPED, n, 2)
        compare(f"flipped n={n}", res.beta_div, want)
        if res.dimN != 0:
            failures.append(f"flipped n={n}: dim {res.dimN} != 0")
    for n, (want, dim) in T3_UNIONJACK.items():
        res = infsup_for(Family.UNIONJACK, n, 2)
        compare(f"unionjack n={n}", res.beta_div_reduced, want)
        if res.dimN != dim:
            failures.append(f"unionjack n={n}: dim {res.dimN} != {dim}")
    # finest diagonal value should have locked onto the continuous constant
    dev = abs(infsup_for(Family.DIAGONAL, 14, 2).beta_div - BETA_EXACT)
    if dev > 1e-5:
        failures.append(f"diagonal n=14 off the limit constant by {dev:.2e}")
    check(record, "3: T3 reference values (r=2)", failures,
          f"worst dev {worst:.2e}; diagonal n=14 within 1e-5 of the limit")


def test_criterion_4_infsup_values_r3(record, infsup_for):
    failures, worst = [], 0.0

    def compare(tag, got, want):
        nonlocal worst
        worst = max(worst, abs(got - want))
        if abs(got - want) > BETA_TOL:
            failures.append(f"{tag}: {got:.6f} != {want:.6f}")

    diag = []
    for n, want in T4_DIAGONAL.items():
        beta = infsup_for(Family.DIAGONAL, n, 3).beta_div
        diag.append(beta)
        compare(f"diagonal n={n}", beta, want)
    for n, want in T4_ZIGZAG.items():
        compare(f"zigzag n={n}", infsup_for(Family.ZIGZAG, n, 3).beta_div, want)
    for n, want in T4_FLIPPED.items():
        compare(f"flipped n={n}", infsup_for(Family.FLIPPED, n, 3).beta_div, want)
    for n, (want, dim) in T4_UNIONJACK.items():
        res = infsup_for(Family.UNIONJACK, n, 3)
        compare(f"unionjack n={n}", res.beta_div_reduced, want)
        if res.dimN != dim:
            failures.append(f"unionjack n={n}: dim {res.dimN} != {dim}")
    # the diagonal family degrades monotonically below the limit constant
    if not all(a > b for a, b in zip(diag, diag[1:])):
        failures.append(f"diagonal column not strictly decreasing: {diag}")
    if not all(0.962 <= b <= 0.973 for b in diag):
        failures.append(f"diagonal column outside [0.962, 0.973]: {diag}")
    check(record, "4: T4 reference values (r=3)", failures,
          f"worst dev {worst:.2e}; diagonal column decreasing in [0.962, 0.973]")


def test_criterion_5_eigenvalue_map(record, forms_for):
    failures = []
    worst_map, worst_div = 0.0, 0.0
    for n, r in itertools.product((4, 6, 8), (1, 2, 3)):
        tag = f"diagonal n={n} r={r}"
        forms = forms_for(Family.DIAGONAL, n, r)
        # the library's sliced inf-sup spectrum; diagonal has no spurious
        # modes, so it holds all nQ eigenvalues
        first, lam = Case(forms).spectrum("infsup")
        # independent route: the mixed Laplace pencil's own Schur complement
        mu = laplace_pencil_eigenvalues(forms)
        if first != 0 or len(lam) != len(mu):
            failures.append(f"{tag}: {len(lam)} eigenvalues from index "
                            f"{first}, expected {len(mu)} from 0")
            continue
        if lam.min() < 0 or lam.max() > 1 - 1e-8:
            failures.append(f"{tag}: inf-sup spectrum outside [0, 1): "
                            f"[{lam.min():.3e}, {lam.max():.17f}]")
            continue
        # the two pencils share eigenvectors; eigenvalues map rationally
        err = np.abs(mu - lam / (1.0 - lam)) / (1.0 + np.abs(mu))
        worst_map = max(worst_map, err.max())
        if err.max() > 1e-8:
            failures.append(f"{tag}: map error {err.max():.2e}")
        # independent route: div-div form against the vector mass
        dd = divdiv_pencil_eigenvalues(forms)
        npos = int(np.sum(dd > 1e-8))
        if npos != len(mu):
            failures.append(f"{tag}: {npos} positive div-div eigenvalues, "
                            f"expected {len(mu)}")
            continue
        dev = np.max(np.abs(np.sort(dd[-npos:]) - mu))
        worst_div = max(worst_div, dev)
        if dev > 1e-8:
            failures.append(f"{tag}: div-div spectrum off by {dev:.2e}")
    check(record, "5: constrained eigenvalue map", failures,
          f"9 cases; map rel. error <= {worst_map:.2e}, "
          f"div-div route dev <= {worst_div:.2e}")


def test_criterion_6_coercivity_is_exact(record, forms_for, infsup_for):
    failures, worst = [], 0.0
    cases = [(f, n, r) for f in ALL_FAMILIES for n in (4, 6) for r in (1, 2)]
    cases.append((Family.DIAGONAL, 4, 3))
    for family, n, r in cases:
        res = infsup_for(family, n, r)
        # independent route: SVD nullspace basis of B
        alpha, kernel = svd_coercivity(forms_for(family, n, r))
        worst = max(worst, abs(alpha - 1.0), abs(res.alpha - alpha))
        if max(abs(alpha - 1.0), abs(res.alpha - alpha)) > 1e-9:
            failures.append(f"{family.value} n={n} r={r}: alpha = "
                            f"{res.alpha:.12f}, SVD route {alpha:.12f}")
        if res.kernel_dim != kernel.shape[1]:
            failures.append(f"{family.value} n={n} r={r}: kernel dimension "
                            f"{res.kernel_dim}, SVD rank gives {kernel.shape[1]}")
    check(record, "6: coercivity constant alpha = 1 on the kernel", failures,
          f"{len(cases)} cases, worst |alpha - 1| = {worst:.2e}")


def test_criterion_7_h1_vs_div_infsup(record, forms_for, infsup_for):
    failures = []
    for family, n, r in itertools.product(ALL_FAMILIES, (4, 6, 8), (1, 2)):
        tag = f"{family.value} n={n} r={r}"
        case = infsup_for(family, n, r)
        if case.beta_h1_reduced > case.beta_div_reduced + 1e-9:
            failures.append(f"{tag}: reduced H1 constant above div constant "
                            f"({case.beta_h1_reduced:.8f} > "
                            f"{case.beta_div_reduced:.8f})")
        if case.beta_h1 > case.beta_div + 1e-6:
            failures.append(f"{tag}: raw H1 constant above div constant")
    # on the diagonal family at r=2 the H1 constant decays like h while
    # the div constant stays put
    h1_betas = {n: infsup_for(Family.DIAGONAL, n, 2).beta_h1 for n in (4, 8, 16)}
    div_betas = {n: infsup_for(Family.DIAGONAL, n, 2).beta_div for n in (4, 8, 16)}
    for coarse, fine in ((4, 8), (8, 16)):
        ratio = h1_betas[fine] / h1_betas[coarse]
        if not 0.4 <= ratio <= 0.6:
            failures.append(f"H1 constant ratio n={coarse}->{fine}: {ratio:.4f}")
    spread = max(div_betas.values()) - min(div_betas.values())
    if spread > 1e-3:
        failures.append(f"div constant moved by {spread:.2e} under refinement")
    check(record, "7: H1 inf-sup below div inf-sup; H1 decays like h", failures,
          f"30 comparisons; H1 ratios {h1_betas[8]/h1_betas[4]:.3f}, "
          f"{h1_betas[16]/h1_betas[8]:.3f}; div spread {spread:.1e}")


def test_criterion_8a_convergence_rates(record, study_for):
    failures = []

    def last_rate(report, key):
        return report["rates"][key][-1]

    r1 = study_for(1)
    for key in ("p_l2", "u_l2"):
        final = r1["normalized"][key][-1]
        if final < 0.9:
            failures.append(f"r=1 {key}: normalized error fell to {final:.3f}")
    bands = {2: {"p_l2": 2, "u_hdiv": 2, "u_l2": 2},
             3: {"p_l2": 3, "u_hdiv": 3},
             4: {"p_l2": 4, "u_hdiv": 4, "u_l2": 5}}
    for r, keys in bands.items():
        report = study_for(r)
        for key, want in keys.items():
            rate = last_rate(report, key)
            if not want - 0.2 <= rate <= want + 0.2:
                failures.append(f"r={r} {key}: rate {rate:.3f} not in "
                                f"{want}+-0.2")
    check(record, "8a: convergence rates (r=1 stalls; r=2,3,4 orders)", failures,
          "r=1 errors do not decay; 8 measured orders inside +-0.2 bands")


@pytest.mark.xfail(strict=True,
                   reason="u L2 error is preasymptotic on the default r=3 "
                          "range; the order appears one doubling later")
def test_criterion_8b_u_l2_rate_r3_default_range(record, study_for):
    rate = study_for(3)["rates"]["u_l2"][-1]
    record("8b: u L2 rate at r=3 on the default range", 2.8 <= rate <= 3.2,
           f"measured {rate:.3f} at the n=8->16 doubling, band [2.8, 3.2]; "
           "the n=16->32 doubling reaches 3.06 (see test_poisson)")
    assert 2.8 <= rate <= 3.2


def test_criterion_9_independent_routes(record, forms_for, rng):
    failures = []
    # 9a: block eigenproblem solved whole (QZ) vs the library's sliced
    # inf-sup spectrum
    forms = forms_for(Family.DIAGONAL, 4, 1)
    full = full_saddle_eigenvalues(forms)
    first, reduced = Case(forms).spectrum("infsup")
    dev_saddle = (np.max(np.abs(reduced - full))
                  if first == 0 and len(full) == len(reduced) else np.inf)
    if dev_saddle > 1e-9:
        failures.append(f"full-block pencil deviates by {dev_saddle:.2e}")
    # 9b: hand-rolled Jacobi eigensolver vs LAPACK on the M-orthonormal
    # reduction: the two dense oracles the slicer tests compare against
    dev_jacobi = 0.0
    for _ in range(5):
        a = rng.standard_normal((30, 30))
        s = 0.5 * (a + a.T)
        b = rng.standard_normal((30, 30))
        m = b @ b.T + 30 * np.eye(30)
        dev = np.max(np.abs(sla.eigh(cholesky_reduced(s, m), eigvals_only=True)
                            - jacobi_generalized_eig(s, m)))
        dev_jacobi = max(dev_jacobi, dev)
    if dev_jacobi > 1e-10:
        failures.append(f"Jacobi route deviates by {dev_jacobi:.2e}")
    # 9c: quadrature vs closed-form monomial integrals
    dev_quad = 0.0
    for degree in range(1, 15):
        rule = quadrature(degree)
        for i, j in monomial_exponents(degree):
            approx = np.sum(rule.weights * rule.points[:, 0] ** i
                            * rule.points[:, 1] ** j)
            dev_quad = max(dev_quad, abs(approx - monomial_integral(i, j)))
    if dev_quad > 1e-14:
        failures.append(f"quadrature misses monomials by {dev_quad:.2e}")
    check(record, "9: independent solver and quadrature cross-checks", failures,
          f"block-pencil dev {dev_saddle:.1e}, Jacobi dev {dev_jacobi:.1e}, "
          f"quadrature dev {dev_quad:.1e}")


def test_criterion_10a_spurious_count_at_default_threshold(record, infsup_for):
    res = infsup_for(Family.UNIONJACK, 6, 2)
    assert res.threshold == DEFAULT_THRESHOLD
    record("10a: unionjack n=6 r=2 finds all 12 spurious modes at 1e-4",
           res.dimN == 12, f"dimN = {res.dimN}")
    assert res.dimN == 12


@pytest.mark.xfail(strict=True,
                   reason="the spurious eigenvalues evaluate at machine "
                          "precision, so tightening the threshold to 1e-6 "
                          "cannot lose any of them")
def test_criterion_10b_tightened_threshold(record, spectrum_for):
    values = spectrum_for(Family.UNIONJACK, 6, 2)
    dim, _, _, _ = classify_spectrum(values, 1e-6)
    record("10b: tightened threshold 1e-6 misses some spurious modes",
           dim < 12,
           f"dimN = {dim}; the 12 smallest eigenvalues are below "
           f"{values[11]:.1e}, nowhere near 1e-6")
    assert dim < 12
