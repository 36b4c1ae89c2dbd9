"""Stability constants of the mixed discretization.

The pressure space is discontinuous, so M_Q is block-diagonal with one
block per cell, M_Q|_K = L_K L_K^T.  Scaling B by C = blockdiag(L_K^{-1})
puts the pressures in M_Q-orthonormal coordinates: the Brezzi inf-sup
pencil B A_div^{-1} B^T p = lambda M_Q p becomes the standard symmetric
problem (C B) A_div^{-1} (C B)^T x = lambda x, with the same lambda, and
one Schur complement and one dense eigensolve give its spectrum:
beta = sqrt(min lambda), and eigenvalues below the zero threshold count
the spurious pressure modes N_h = {q : <div v, q> = 0 for all v}.  As
div V_h lies in Q_h, the div-div form is K = B^T M_Q^{-1} B = (C B)^T (C B),
and the rest follows from lambda: the mixed Laplace eigenvalues
mu = lambda / (1 - lambda), the div-div spectrum (nV - nQ zeros and the
mu), the Babuska spectrum (-lambda and nV ones, so gamma = beta^2 without
spurious modes) and alpha = 1 on a kernel of dimension nV - nQ + dim N_h.
So laplace_eigenvalue, divdiv_spectrum, babuska_infsup and
brezzi_coercivity take the InfSupResult of brezzi_infsup and solve
nothing; mu is read at the same split as dim N_h.  Only the Stokes
constant (H1 matrix A_1) is a second solve, by the same routine as the
Brezzi pencil.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import norm as sparse_norm

from .assembly import assemble, build_spaces
from .eigensolve import Spectrum, schur_complement, sym_generalized_eig
from .errors import NumericalError
from .mesh import GENERATED_FAMILIES, Family, generate, singular_vertices

DEFAULT_THRESHOLD = 1e-4
SWEEP_THRESHOLDS = (1e-3, 1e-4, 1e-5, 1e-6)


def classify_spectrum(values, threshold):
    """Split a nonnegative pencil spectrum at the zero threshold.

    Returns
    -------
    (dim_spurious, beta, beta_reduced, warning)
        beta = sqrt(clip(min eigenvalue, 0)); beta_reduced skips the
        eigenvalues below the threshold.  warning is set when the
        eigenvalues on either side of the split are less than a decade
        apart, i.e. the threshold sits inside a cluster rather than in a
        clean spectral gap.
    """
    values = np.asarray(values)
    dim = int(np.count_nonzero(values < threshold))
    if dim == len(values):
        raise NumericalError(
            f"all {len(values)} eigenvalues fall below the threshold {threshold}")
    beta = float(np.sqrt(max(values[0], 0.0)))
    beta_reduced = float(np.sqrt(values[dim]))
    warning = None
    if dim > 0 and values[dim] < 10.0 * abs(values[dim - 1]):
        warning = (f"threshold {threshold:g} splits a cluster: eigenvalues "
                   f"{values[dim - 1]:.3e} and {values[dim]:.3e}")
    return dim, beta, beta_reduced, warning


@dataclass
class InfSupResult:
    beta: float
    beta_reduced: float
    dim_spurious: int
    spectrum: Spectrum
    warning: str | None = None


def orthonormal_divergence(forms):
    """The divergence form in M_Q-orthonormal pressure coordinates.

    Factors each cell block of the pressure mass, M_Q|_K = L_K L_K^T, and
    returns (C B, L) with C = blockdiag(L_K^{-1}) and L the stacked L_K,
    shape (cells, nb, nb).  C M_Q C^T = I and M_Q^{-1} = C^T C, and C B
    has the sparsity pattern of B.  Raises NumericalError unless M_Q is
    block-diagonal with one block per cell, or if a block is not positive
    definite.
    """
    nb = forms.Q_h.cell_dofs.shape[1]
    m_q = sp.bsr_matrix(forms.M_Q, blocksize=(nb, nb))
    cells = np.arange(m_q.shape[0] // nb + 1)
    if not (np.array_equal(m_q.indptr, cells)
            and np.array_equal(m_q.indices, cells[:-1])):
        raise NumericalError("pressure mass matrix is not block-diagonal "
                             "with one block per cell")
    try:
        lower = np.linalg.cholesky(m_q.data)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"pressure mass block is not positive definite "
                             f"({exc})") from exc
    c = sp.bsr_matrix((np.linalg.inv(lower), m_q.indices, m_q.indptr),
                      shape=m_q.shape)
    return sp.csr_matrix(c @ forms.B), lower


def _infsup_pencil(forms, norm, threshold, problem):
    """Solve B norm^{-1} B^T p = lambda M_Q p and split it at the threshold.

    Returns (InfSupResult, S, L): S = (C B) norm^{-1} (C B)^T and the
    stacked cell factors L of ``orthonormal_divergence``.
    """
    b_hat, lower = orthonormal_divergence(forms)
    s = schur_complement(b_hat, norm)
    spec = sym_generalized_eig(s, None, problem=problem)
    spec.threshold = threshold
    dim, beta, beta_reduced, warning = classify_spectrum(spec.values, threshold)
    return InfSupResult(beta, beta_reduced, dim, spec, warning), s, lower


def brezzi_infsup(forms, threshold=DEFAULT_THRESHOLD):
    """Brezzi inf-sup constant in the H(div) norm, with spurious modes."""
    return _infsup_pencil(forms, forms.A_div, threshold, "brezzi-infsup")[0]


@dataclass
class CoercivityResult:
    alpha: float
    kernel_dim: int
    residual: float  # relative Frobenius norm of K - B^T M_Q^{-1} B


def brezzi_coercivity(forms, infsup):
    """Coercivity constant of <u, v> on the discrete divergence-free space.

    Exactly one: K = B^T M_Q^{-1} B vanishes on the kernel of B, whose
    dimension is nV - nQ + dim N_h (N_h from the InfSupResult ``infsup``).
    Raises NumericalError unless the identity holds on the assembled
    matrices to 1e-10 relative, checked as K = (C B)^T (C B) with the
    cellwise factor C of ``orthonormal_divergence``.
    """
    b_hat, _ = orthonormal_divergence(forms)
    residual = float(sparse_norm(forms.K - b_hat.T @ b_hat)
                     / sparse_norm(forms.K))
    if not residual <= 1e-10:
        raise NumericalError(f"div-div form differs from B^T M_Q^-1 B by "
                             f"{residual:.2e} (relative); alpha = 1 does not hold")
    kernel_dim = forms.V_h.ndofs - forms.Q_h.ndofs + infsup.dim_spurious
    return CoercivityResult(alpha=1.0, kernel_dim=kernel_dim, residual=residual)


@dataclass
class BabuskaResult:
    gamma: float
    spectrum: Spectrum
    note: str | None = None


def babuska_infsup(forms, infsup):
    """Babuska constant of the full mixed form on V_h x Q_h.

    Smallest-modulus eigenvalue of [[M_V, B^T], [B, 0]] against the graph
    norm diag(A_div, M_Q), whose spectrum is -lambda for every eigenvalue
    of the InfSupResult ``infsup`` plus nV ones.  Reported as exactly zero
    when spurious modes make the form singular.
    """
    lam = infsup.spectrum.values
    # ascending, since lambda is ascending and lies in [0, 1)
    spec = Spectrum(np.concatenate([-lam[::-1], np.ones(forms.V_h.ndofs)]),
                    problem="babuska")
    if infsup.dim_spurious > 0:
        return BabuskaResult(0.0, spec, note=f"singular pencil: "
                                             f"{infsup.dim_spurious} spurious modes")
    return BabuskaResult(float(np.min(np.abs(spec.values))), spec)


@dataclass
class StokesResult:
    beta: float
    beta_reduced: float
    dim_spurious: int
    constant_mode: float
    spectrum: Spectrum


def stokes_infsup(forms, threshold=DEFAULT_THRESHOLD):
    """Inf-sup constant of the divergence form in the full H1 norm.

    The spectrum is computed without a zero-mean pressure constraint;
    the Rayleigh quotient of the constant pressure is reported separately
    so its position in the spectrum is visible.
    """
    res, s, lower = _infsup_pencil(forms, forms.A_1, threshold, "stokes-infsup")
    # the constant pressure 1 has coordinates w = C^{-T} 1 = L^T 1, and
    # 1^T M_Q 1 = w^T w
    w = lower.sum(axis=1).ravel()
    constant_mode = float((w @ (s @ w)) / (w @ w))
    return StokesResult(res.beta, res.beta_reduced, res.dim_spurious,
                        constant_mode, res.spectrum)


@dataclass
class LaplaceResult:
    mu: float
    spectrum: Spectrum


def laplace_eigenvalue(infsup):
    """Smallest mixed Laplace eigenvalue past the spurious modes.

    B M_V^{-1} B^T p = mu M_Q p has the inf-sup eigenvectors and
    mu = lambda / (1 - lambda), so mu is taken at index dim N_h of the
    InfSupResult ``infsup``, the split its zero threshold made.  The
    continuous value on the unit square is 2 pi^2; how close mu comes
    depends on the stability of the pair.
    """
    spec = Spectrum(infsup_to_laplace(infsup.spectrum.values),
                    problem="mixed-laplace", threshold=infsup.spectrum.threshold)
    return LaplaceResult(float(spec.values[infsup.dim_spurious]), spec)


def divdiv_spectrum(forms, infsup):
    """Eigenvalues of <div u, div v> against the vector mass.

    The div-div form is B^T M_Q^{-1} B, so the spectrum is nV - nQ zeros
    plus the mixed Laplace eigenvalues of the InfSupResult ``infsup``.
    """
    mu = infsup_to_laplace(infsup.spectrum.values)
    zeros = np.zeros(forms.V_h.ndofs - forms.Q_h.ndofs)
    return Spectrum(np.sort(np.concatenate([zeros, mu])), problem="divdiv")


def infsup_to_laplace(lam):
    """Eigenvalue map between the inf-sup and mixed Laplace pencils."""
    lam = np.asarray(lam, dtype=float)
    return lam / (1.0 - lam)


@dataclass
class StabilityReport:
    """One row of the stability study for a (family, n, r) case."""

    family: str
    n: int | None
    r: int
    sigma: int
    dim_spurious: int
    beta_div: float
    beta_div_reduced: float
    threshold: float
    alpha: float | None = None
    gamma: float | None = None
    beta_h1: float | None = None
    beta_h1_reduced: float | None = None
    stokes_constant_mode: float | None = None
    sweep: list | None = None
    warnings: list = field(default_factory=list)
    timings: dict = field(default_factory=dict)

    CSV_HEADER = "family,n,r,sigma,dimN,beta_div,beta_div_reduced,alpha,beta_h1,threshold"

    def csv_row(self):
        def num(x):
            return "" if x is None else f"{x:.6f}"

        n = "" if self.n is None else str(self.n)
        return (f"{self.family},{n},{self.r},{self.sigma},{self.dim_spurious},"
                f"{num(self.beta_div)},{num(self.beta_div_reduced)},"
                f"{num(self.alpha)},{num(self.beta_h1)},{self.threshold:g}")


def case_forms(family, n, r, mesh=None):
    """Mesh + spaces + assembled forms for one case."""
    if mesh is None:
        mesh = generate(family, n)
    v_h, q_h = build_spaces(mesh, r)
    return assemble(v_h, q_h)


def run_case(family=None, n=None, r=1, *, mesh=None, threshold=DEFAULT_THRESHOLD,
             with_alpha=False, with_gamma=False, with_stokes=False, sweep=None,
             forms=None):
    """Full stability study for one case; returns a StabilityReport.

    ``sweep``: thresholds for threshold_sweep on the inf-sup spectrum.
    """
    timings = {}
    if forms is None:
        t0 = time.perf_counter()
        forms = case_forms(family, n, r, mesh=mesh)
        timings["assemble"] = time.perf_counter() - t0
    mesh = forms.mesh

    t0 = time.perf_counter()
    sigma = singular_vertices(mesh).sigma
    timings["singular_vertices"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    infsup = brezzi_infsup(forms, threshold=threshold)
    timings["brezzi_infsup"] = time.perf_counter() - t0

    report = StabilityReport(
        family=mesh.family.value, n=mesh.n, r=forms.V_h.degree, sigma=sigma,
        dim_spurious=infsup.dim_spurious, beta_div=infsup.beta,
        beta_div_reduced=infsup.beta_reduced, threshold=threshold,
        timings=timings)
    if infsup.warning:
        report.warnings.append(infsup.warning)

    if with_alpha:
        t0 = time.perf_counter()
        report.alpha = brezzi_coercivity(forms, infsup).alpha
        timings["coercivity"] = time.perf_counter() - t0
    if with_gamma:
        report.gamma = babuska_infsup(forms, infsup).gamma
    if with_stokes:
        t0 = time.perf_counter()
        stokes = stokes_infsup(forms, threshold=threshold)
        report.beta_h1 = stokes.beta
        report.beta_h1_reduced = stokes.beta_reduced
        report.stokes_constant_mode = stokes.constant_mode
        timings["stokes"] = time.perf_counter() - t0
    if sweep:
        report.sweep = threshold_sweep(infsup.spectrum, sweep)
    return report


def threshold_sweep(spectrum, thresholds=SWEEP_THRESHOLDS):
    """Rows (threshold, dim_spurious, beta_reduced) of an inf-sup Spectrum,
    one per threshold in the order given."""
    rows = []
    for thr in thresholds:
        dim, _, beta_reduced, _ = classify_spectrum(spectrum.values, thr)
        rows.append((float(thr), dim, beta_reduced))
    return rows


TABLE_FAMILIES = (Family.DIAGONAL, Family.ZIGZAG, Family.FLIPPED, Family.UNIONJACK)

TABLE_DEFAULTS = {
    "T1": (None, (4, 6, 8)),
    "T2": (1, tuple(range(4, 17, 2))),
    "T3": (2, tuple(range(4, 15, 2))),
    "T4": (3, tuple(range(4, 13, 2))),
}


@dataclass
class TableReport:
    which: str
    r: int | None
    threshold: float
    header: list
    rows: list

    def to_csv(self):
        lines = [",".join(self.header)]
        for row in self.rows:
            cells = []
            for x in row:
                if x is None:
                    cells.append("")
                elif isinstance(x, float):
                    cells.append(f"{x:.6f}")
                else:
                    cells.append(str(x))
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"


def _table_case(args):
    family, n, r, threshold = args
    return run_case(family, n, r, threshold=threshold)


def reproduce_table(which, n_values=None, r_values=None,
                    threshold=DEFAULT_THRESHOLD, jobs=1):
    """Recompute one of the four golden tables.

    T1 lists sigma and the spurious dimension per (family, n, r); T2, T3
    and T4 list the inf-sup constants of the four diagonal-pattern
    families at r = 1, 2, 3 (reduced constants and mode counts where the
    family has spurious modes).

    Returns
    -------
    TableReport
    """
    which = which.upper()
    if which not in TABLE_DEFAULTS:
        raise ValueError(f"unknown table {which!r} (expected T1..T4)")
    r_default, n_default = TABLE_DEFAULTS[which]
    n_values = list(n_values) if n_values is not None else list(n_default)

    if which == "T1":
        r_list = list(r_values) if r_values is not None else [1, 2, 3]
        cases = [(fam, n, r, threshold)
                 for fam in GENERATED_FAMILIES for n in n_values for r in r_list]
        reports = _run_cases(cases, jobs)
        rows = [[rep.family, rep.n, rep.r, rep.sigma, rep.dim_spurious]
                for rep in reports]
        return TableReport(which, None, threshold,
                           ["family", "n", "r", "sigma", "dimN"], rows)

    r = r_default
    cases = [(fam, n, r, threshold) for n in n_values for fam in TABLE_FAMILIES]
    reports = _run_cases(cases, jobs)
    by_key = {(rep.family, rep.n): rep for rep in reports}
    rows = []
    for n in n_values:
        diag = by_key[(Family.DIAGONAL.value, n)]
        zig = by_key[(Family.ZIGZAG.value, n)]
        flip = by_key[(Family.FLIPPED.value, n)]
        uj = by_key[(Family.UNIONJACK.value, n)]
        if which == "T2":
            rows.append([n, diag.beta_div, zig.beta_div,
                         flip.beta_div_reduced, flip.dim_spurious,
                         uj.beta_div_reduced, uj.dim_spurious])
        else:
            rows.append([n, diag.beta_div, zig.beta_div, flip.beta_div,
                         uj.beta_div_reduced, uj.dim_spurious])
    if which == "T2":
        header = ["n", "beta_diagonal", "beta_zigzag", "beta_flipped_reduced",
                  "dimN_flipped", "beta_unionjack_reduced", "dimN_unionjack"]
    else:
        header = ["n", "beta_diagonal", "beta_zigzag", "beta_flipped",
                  "beta_unionjack_reduced", "dimN_unionjack"]
    return TableReport(which, r, threshold, header, rows)


def _run_cases(cases, jobs):
    # under fork every worker starts at once: no more than cases or cores
    workers = min(jobs or 1, len(cases), os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_table_case, cases))
    return [_table_case(c) for c in cases]
