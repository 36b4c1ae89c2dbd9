"""Stability constants of the mixed discretization.

As div V_h lies in Q_h, the div-div form is K = B^T M_Q^{-1} B, so the
div-div pencil K u = nu M_V u has nV - nQ zeros plus the mixed Laplace
eigenvalues mu, and these map one to one onto the Brezzi inf-sup pencil
B A_div^{-1} B^T p = lambda M_Q p by mu = lambda / (1 - lambda).  Every
reported constant is read off a spectrum slice of that pencil
(``eigensolve.InertiaSlicer``), with no dense nQ x nQ matrix:

* dim N_h, the spurious pressure modes: the eigenvalues lambda below the
  zero threshold tau, counted as neg(K - s M_V) - (nV - nQ) with
  s = tau / (1 - tau), from one sparse LDL^T (``spurious_modes``, all
  that table T1 reads; the source solve refuses a case by the same count);
* mu, the first eigenvalue past the spurious ones, by shift-invert
  Lanczos in a window bracketed by counts; beta_reduced =
  sqrt(mu / (1 + mu)), and beta = beta_reduced, or 0.0 when dim N_h > 0.
  The factor that certifies A_div makes one solve first, for the Rayleigh
  quotient of the pressure sin(pi x) sin(pi y).  Raised by MU_BOUND_MARGIN
  and mapped to mu, it tops the slice (Courant-Fischer: an upper bound of
  mu when dim N_h = 0, only a guess otherwise), so a stable case takes
  three factorizations: A_div, the count at tau and the bound;
* gamma = beta^2 (the Babuska pencil has the eigenvalues -lambda and nV
  ones) and alpha = 1 on a kernel of dimension nV - nQ + dim N_h.

The Stokes constant slices (K, A_1) the same way; its eigenvalues are the
lambda of B A_1^{-1} B^T p = lambda M_Q p.  N_h = ker B^T does not depend
on the velocity norm, so it takes dim N_h from the count above and checks
it by one count at tau h^2, h the shortest mesh edge: by the inverse
inequality, a lambda above tau maps to one above about tau h^2 there.  A
cluster warning is an inertia test: the counts at tau / 10, tau and 10 tau
(those below 1) disagree.  The two probes are counted only when the
warning is read, so the tables, which print none, do not pay for them.

``pencil_spectrum`` reads every eigenvalue past the spurious cluster off
the same slices, for ``mixed-stab spectrum``; the inf-sup, div-div and
Babuska spectra are closed-form functions of the mu.

Each result type (``InfSupResult``, ``StokesResult``, ...) carries what one
function computed; the commands in ``cli`` call these functions directly
and format what they print.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import norm as sparse_norm

from .assembly import assemble, build_spaces
from .eigensolve import InertiaSlicer, positive_definite_lu
from .errors import NumericalError
from .mesh import GENERATED_FAMILIES, Family, generate, singular_vertices

DEFAULT_THRESHOLD = 1e-4
SWEEP_THRESHOLDS = (1e-3, 1e-4, 1e-5, 1e-6)
# smallest mixed Laplace eigenvalues past the spurious modes that
# laplace_eigenvalue lists
LAPLACE_LISTED = 5
# the pencils pencil_spectrum reads
PENCILS = ("infsup", "laplace", "divdiv", "babuska", "stokes")
# the Rayleigh-quotient bound of mu is raised by this factor, so that it
# lies above mu when the quotient equals it to rounding
MU_BOUND_MARGIN = 1.01


def _divdiv_shift(threshold):
    """Shift of the div-div pencil at an inf-sup threshold tau: lambda < tau
    exactly when mu < tau / (1 - tau), and every lambda lies below 1."""
    return threshold / (1.0 - threshold) if threshold < 1.0 else math.inf


def _count_below(pencil, kernel, shift, threshold):
    """(count, dim): the pencil eigenvalues below ``shift``, and how many of
    them lie past the ``kernel`` zeros.  Raises NumericalError when there
    are fewer than the zeros, or when every eigenvalue lies below."""
    count = pencil.count(shift)
    dim = count - kernel
    if dim < 0:
        raise NumericalError(f"only {count} eigenvalues below the threshold "
                             f"{threshold}, fewer than the {kernel} zeros")
    if count == pencil.size:
        raise NumericalError(f"all {pencil.size - kernel} eigenvalues fall "
                             f"below the threshold {threshold}")
    return count, dim


@dataclass
class InfSupResult:
    """Brezzi constant of one case, read off a slice of the div-div pencil
    (K, M_V), which stays attached for further reads."""

    beta: float
    beta_reduced: float
    dim_spurious: int
    mu: float
    threshold: float
    pencil: InertiaSlicer = field(repr=False)
    kernel: int          # nV - nQ zeros of K
    mu_bound: float | None = None   # the slice's top, None when not found

    @property
    def factorizations(self):
        """Sparse factorizations made for this result and the reads since:
        the one that certifies A_div, then the pencil's."""
        return 1 + self.pencil.factorizations

    @property
    def warning(self):
        """None, or the message that the counts at tau / 10, tau and
        10 tau (those below 1) disagree: the threshold splits a cluster.
        The first read counts the two probes."""
        probes = [t for t in (self.threshold / 10.0, self.threshold,
                              10.0 * self.threshold) if t < 1.0]
        counts = [self.pencil.count(_divdiv_shift(t)) - self.kernel
                  for t in probes]
        if len(set(counts)) == 1:
            return None
        return (f"threshold {self.threshold:g} splits a cluster: "
                + ", ".join(f"{c} eigenvalues below {t:g}"
                            for c, t in zip(counts, probes)))


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


def spurious_modes(forms, threshold=DEFAULT_THRESHOLD):
    """Spurious pressure modes dim N_h, counted without an eigenvalue.

    Requires every pivot of A_div = K + M_V to be positive
    (NotPositiveDefiniteError otherwise), then counts the eigenvalues of
    (K, M_V) below the threshold's shift: two sparse factorizations.
    Raises NumericalError when the count is below the kernel or takes in
    every eigenvalue.

    Returns
    -------
    (pencil, kernel, dim)
        The InertiaSlicer of (K, M_V) with that count cached, its nV - nQ
        zeros, and dim N_h.
    """
    positive_definite_lu(forms.A_div)
    return _count_spurious(forms, threshold)


def _count_spurious(forms, threshold):
    """(pencil, kernel, dim) of ``spurious_modes``, counted with one sparse
    factorization and no check of A_div."""
    pencil = InertiaSlicer(forms.K, forms.M_V)
    kernel = forms.V_h.ndofs - forms.Q_h.ndofs
    _, dim = _count_below(pencil, kernel, _divdiv_shift(threshold), threshold)
    return pencil, kernel, dim


def _quotient(forms, norm, p):
    """Rayleigh quotient g^T norm^{-1} g / p^T M_Q p, g = B^T p, of the
    pressure p in the pencil B norm^{-1} B^T p = lambda M_Q p, from one
    solve with the factor that certifies ``norm`` positive definite; the
    factor is released on return."""
    g = forms.B.T @ p
    return (float(g @ positive_definite_lu(norm).solve(g))
            / float(p @ (forms.M_Q @ p)))


def _mu_bound(forms):
    """Certify A_div, as ``spurious_modes`` does, with the ``_quotient`` of
    the Q_h interpolant of sin(pi x) sin(pi y), the first Dirichlet
    eigenfunction.  Returns mu^ = lambda^ / (1 - lambda^) raised by
    MU_BOUND_MARGIN, or None unless 0 < lambda^ < 1."""
    pts = forms.Q_h.interpolation_points
    lam = _quotient(forms, forms.A_div,
                    np.sin(np.pi * pts[:, 0]) * np.sin(np.pi * pts[:, 1]))
    if not 0.0 < lam < 1.0:
        return None
    return MU_BOUND_MARGIN * lam / (1.0 - lam)


def brezzi_infsup(forms, threshold=DEFAULT_THRESHOLD):
    """Brezzi inf-sup constant in the H(div) norm, with spurious modes.

    Certifies A_div and takes the Rayleigh bound of mu off its factor
    (``_mu_bound``), counts the spurious modes, then slices (K, M_V) past
    them, topped by the bound.
    """
    bound = _mu_bound(forms)
    pencil, kernel, dim = _count_spurious(forms, threshold)
    mu = pencil.value(kernel + dim, bound)
    beta_reduced = math.sqrt(mu / (1.0 + mu))
    return InfSupResult(beta_reduced if dim == 0 else 0.0, beta_reduced, dim,
                        mu, threshold, pencil, kernel, bound)


@dataclass
class CoercivityResult:
    alpha: float
    kernel_dim: int
    residual: float  # relative Frobenius norm of K - B^T M_Q^{-1} B


def brezzi_coercivity(forms, dim_spurious):
    """Coercivity constant of <u, v> on the discrete divergence-free space.

    Exactly one: K = B^T M_Q^{-1} B vanishes on the kernel of B, whose
    dimension is nV - nQ + dim N_h, with ``dim_spurious`` = dim N_h (from
    ``spurious_modes`` or an InfSupResult).
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
    kernel_dim = forms.V_h.ndofs - forms.Q_h.ndofs + dim_spurious
    return CoercivityResult(alpha=1.0, kernel_dim=kernel_dim, residual=residual)


@dataclass
class BabuskaResult:
    gamma: float
    note: str | None = None


def babuska_infsup(infsup):
    """Babuska constant of the full mixed form on V_h x Q_h.

    Smallest-modulus eigenvalue of [[M_V, B^T], [B, 0]] against the graph
    norm diag(A_div, M_Q), whose spectrum is -lambda for every inf-sup
    eigenvalue plus nV ones (``pencil_spectrum``), so gamma = beta^2 of
    the InfSupResult ``infsup``.  Reported as exactly zero when spurious
    modes make the form singular.
    """
    if infsup.dim_spurious > 0:
        return BabuskaResult(0.0, note=f"singular pencil: "
                                       f"{infsup.dim_spurious} spurious modes")
    return BabuskaResult(infsup.beta ** 2)


@dataclass
class StokesResult:
    """Stokes constant of one case, read off a slice of the pencil
    (K, A_1), which stays attached for further reads."""

    beta: float
    beta_reduced: float
    dim_spurious: int
    constant_mode: float
    pencil: InertiaSlicer = field(repr=False)
    kernel: int          # nV - nQ zeros of K

    @property
    def factorizations(self):
        """Sparse factorizations made for this result and the reads since:
        the one that certifies A_1, then the pencil's."""
        return 1 + self.pencil.factorizations


def stokes_infsup(forms, dim_spurious, threshold=DEFAULT_THRESHOLD):
    """Inf-sup constant of the divergence form in the full H1 norm.

    Slices (K, A_1), whose eigenvalues past its nV - nQ zeros are the
    lambda of B A_1^{-1} B^T p = lambda M_Q p, past the ``dim_spurious``
    = dim N_h modes counted at the threshold tau (``spurious_modes`` or an
    InfSupResult); beta_reduced = sqrt(lambda), and beta = beta_reduced,
    or 0.0 with spurious modes.  Raises NumericalError unless (K, A_1) has
    nV - nQ + dim N_h eigenvalues below tau h^2, h the shortest mesh edge:
    by the inverse inequality |u|_1 <= C h^-1 ||u||, a lambda above tau in
    the H(div) norm lies above about tau h^2 in the H1 norm.  No zero-mean
    pressure constraint is imposed; the Rayleigh quotient of the constant
    pressure, from the factor that certifies A_1, is reported separately
    so its position in the spectrum is visible, and tops the slice when
    dim N_h = 0 (Courant-Fischer).
    """
    constant_mode = _quotient(forms, forms.A_1, np.ones(forms.Q_h.ndofs))
    pencil = InertiaSlicer(forms.K, forms.A_1)
    kernel = forms.V_h.ndofs - forms.Q_h.ndofs
    edges = np.diff(forms.mesh.vertices[forms.mesh.edges], axis=1)[:, 0]
    shift = threshold * float(np.min(np.einsum("ij,ij->i", edges, edges)))
    count = pencil.count(shift)
    if count != kernel + dim_spurious:
        raise NumericalError(f"(K, A_1) has {count - kernel} eigenvalues past "
                             f"its {kernel} zeros below tau h^2 = {shift:g}, "
                             f"but (K, M_V) counts {dim_spurious} spurious modes")
    # the quotient lies above every eigenvalue of (K, A_1) seen, so its
    # count closes no window, but it caps the bracket growing from tau h^2:
    # without it diagonal n=32 and n=64 at r=2 take 7 factorizations, not 5
    bound = MU_BOUND_MARGIN * constant_mode if dim_spurious == 0 else None
    beta_reduced = math.sqrt(pencil.value(count, bound))
    return StokesResult(beta_reduced if dim_spurious == 0 else 0.0,
                        beta_reduced, dim_spurious, constant_mode, pencil,
                        kernel)


@dataclass
class LaplaceResult:
    mu: float
    smallest: list


def laplace_eigenvalue(infsup):
    """Smallest mixed Laplace eigenvalues past the spurious modes.

    B M_V^{-1} B^T p = mu M_Q p has the nonzero eigenvalues of the div-div
    pencil (K, M_V), so mu is the first of them past the split the zero
    threshold of the InfSupResult ``infsup`` made, and ``smallest`` lists
    the first LAPLACE_LISTED (fewer when the pencil has fewer), read off
    the same slice.  The continuous value on the unit square is 2 pi^2;
    how close mu comes depends on the stability of the pair.
    """
    pencil, first = infsup.pencil, infsup.kernel + infsup.dim_spurious
    last = min(first + LAPLACE_LISTED, pencil.size)
    smallest = [pencil.value(i) for i in range(first, last)]
    return LaplaceResult(infsup.mu, smallest)


def pencil_spectrum(forms, pencil, threshold=DEFAULT_THRESHOLD):
    """Every eigenvalue of one pencil past its zero cluster, off one slice.

    The cluster holds the dim N_h eigenvalues below the threshold, and the
    nV - nQ zeros of the div-div pencil; its values are rounding noise, so
    only its size is returned, as the index of the first eigenvalue.  The
    stokes pencil is (K, A_1) past the dim N_h that ``spurious_modes``
    counts; the others are closed-form functions of the mu of (K, M_V)
    past the split of ``brezzi_infsup``:

    * infsup: lambda = mu / (1 + mu), of B A_div^{-1} B^T p = lambda M_Q p;
    * laplace: mu, of B M_V^{-1} B^T p = mu M_Q p;
    * divdiv: mu, of K u = nu M_V u;
    * babuska: -lambda, descending, then nV ones: the Babuska pencil
      ordered by modulus, smallest first;
    * stokes: lambda, of B A_1^{-1} B^T p = lambda M_Q p.

    Returns
    -------
    (first, values)
        values[j] is the eigenvalue of index first + j.
    """
    if pencil not in PENCILS:
        raise ValueError(f"unknown pencil {pencil!r} (expected one of "
                         f"{', '.join(PENCILS)})")
    if pencil == "stokes":
        _, _, dim = spurious_modes(forms, threshold)
        res = stokes_infsup(forms, dim, threshold)
    else:
        res = brezzi_infsup(forms, threshold)
    start = res.kernel + res.dim_spurious
    nu = np.array([res.pencil.value(i) for i in range(start, res.pencil.size)])
    if pencil == "divdiv":
        return start, nu
    if pencil in ("laplace", "stokes"):
        return res.dim_spurious, nu
    lam = nu / (1.0 + nu)
    if pencil == "infsup":
        return res.dim_spurious, lam
    return res.dim_spurious, np.concatenate([-lam, np.ones(forms.V_h.ndofs)])


def case_forms(family, n, r, mesh=None):
    """Mesh + spaces + assembled forms for one case."""
    if mesh is None:
        mesh = generate(family, n)
    v_h, q_h = build_spaces(mesh, r)
    return assemble(v_h, q_h)


def threshold_sweep(infsup, thresholds=SWEEP_THRESHOLDS):
    """Rows (threshold, dim_spurious, beta_reduced), one per threshold in
    the order given, read off the slice of the InfSupResult ``infsup``.

    A threshold whose count matches one already made reuses its
    eigenvalue; any other slices the pencil past its own split.
    """
    rows = []
    for thr in thresholds:
        count, dim = _count_below(infsup.pencil, infsup.kernel,
                                  _divdiv_shift(thr), thr)
        mu = infsup.pencil.value(count)
        rows.append((float(thr), dim, math.sqrt(mu / (1.0 + mu))))
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
    """One case of a table.  T1: the row (family, n, r, sigma, dimN), from
    the two factorizations of ``spurious_modes``; T2-T4: (beta,
    beta_reduced, dimN) of the Brezzi constant."""
    which, family, n, r, threshold = args
    forms = case_forms(family, n, r)
    if which == "T1":
        _, _, dim = spurious_modes(forms, threshold)
        return [family.value, n, r, singular_vertices(forms.mesh).sigma, dim]
    res = brezzi_infsup(forms, threshold)
    return res.beta, res.beta_reduced, res.dim_spurious


def reproduce_table(which, n_values=None, r_values=None,
                    threshold=DEFAULT_THRESHOLD, jobs=1):
    """Recompute one of the four golden tables.

    T1 lists sigma and the spurious dimension per (family, n, r), with no
    eigenvalue; T2, T3 and T4 list the inf-sup constants of the four
    diagonal-pattern families at r = 1, 2, 3 (reduced constants and mode
    counts where the family has spurious modes).

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
        cases = [(which, fam, n, r, threshold)
                 for fam in GENERATED_FAMILIES for n in n_values for r in r_list]
        return TableReport(which, None, threshold,
                           ["family", "n", "r", "sigma", "dimN"],
                           _run_cases(cases, jobs))

    r = r_default
    cases = [(which, fam, n, r, threshold)
             for n in n_values for fam in TABLE_FAMILIES]
    # (family, n) -> (beta, beta_reduced, dimN)
    by_key = {case[1:3]: res for case, res in zip(cases, _run_cases(cases, jobs))}
    rows = []
    for n in n_values:
        diag, zig, flip, uj = (by_key[(fam, n)] for fam in TABLE_FAMILIES)
        if which == "T2":
            rows.append([n, diag[0], zig[0], flip[1], flip[2], uj[1], uj[2]])
        else:
            rows.append([n, diag[0], zig[0], flip[0], uj[1], uj[2]])
    if which == "T2":
        header = ["n", "beta_diagonal", "beta_zigzag", "beta_flipped_reduced",
                  "dimN_flipped", "beta_unionjack_reduced", "dimN_unionjack"]
    else:
        header = ["n", "beta_diagonal", "beta_zigzag", "beta_flipped",
                  "beta_unionjack_reduced", "dimN_unionjack"]
    return TableReport(which, r, threshold, header, rows)


def _run_cases(cases, jobs):
    # under fork every worker starts at once: no more than cases or cores
    workers = min(jobs, len(cases), os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_table_case, cases))
    return [_table_case(c) for c in cases]
