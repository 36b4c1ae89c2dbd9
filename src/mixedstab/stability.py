"""Stability constants of the mixed discretization.

As div V_h lies in Q_h, the div-div form is K = B^T M_Q^{-1} B, so the
div-div pencil K u = nu M_V u has nV - nQ zeros plus the mixed Laplace
eigenvalues mu, and these map one to one onto the Brezzi inf-sup pencil
B A_div^{-1} B^T p = lambda M_Q p by mu = lambda / (1 - lambda).  Every
reported constant is read off a spectrum slice of that pencil
(``eigensolve.InertiaSlicer``), with no dense nQ x nQ matrix.  ``Case``
holds every stability constant of one case, each computed on its first
read and kept:

* dimN, the spurious pressure modes: the eigenvalues lambda below the
  zero threshold tau, counted as neg(K - s M_V) - (nV - nQ) with
  s = tau / (1 - tau), from one sparse LDL^T, with no factor of A_div
  (all that table T1 reads): it needs M_V positive definite only, as
  every mesh ``Triangulation`` accepts makes it;
* mu, the first eigenvalue past the spurious ones, by shift-invert
  Lanczos in a window bracketed by counts; beta_div_reduced =
  sqrt(mu / (1 + mu)), and beta_div = beta_div_reduced, or 0.0 when
  dimN > 0.  The factor that certifies A_div makes one solve, for the
  Rayleigh quotient of the pressure sin(pi x) sin(pi y).  Raised by
  MU_BOUND_MARGIN and mapped to mu, it tops the slice (mu_bound;
  Courant-Fischer: an upper bound of mu when dimN = 0, only a guess
  otherwise), so a stable case takes three factorizations: the count at
  tau, A_div and the bound;
* gamma = beta_div^2 (the Babuska pencil has the eigenvalues -lambda and
  nV ones) and alpha = 1 on a kernel of dimension nV - nQ + dimN.

The Stokes constant beta_h1 slices (K, A_1) the same way, below the top 2
that bounds its whole spectrum (``Case.stokes_pencil``); its eigenvalues
are the lambda of B A_1^{-1} B^T p = lambda M_Q p.  N_h = ker B^T does not
depend on the velocity norm, so it takes dimN from the count above and
checks it by one count at tau h^2, h the shortest mesh edge: by the
inverse inequality, a lambda above tau maps to one above about tau h^2
there.  A cluster warning is an inertia test: the counts at tau / 10, tau
and 10 tau (those below 1) disagree.  The two probes are counted only when
the warning is read, so the tables, which print none, do not pay for them.

``Case.spectrum`` reads every eigenvalue past the spurious cluster off the
same slices, for ``mixed-stab spectrum``; the inf-sup, div-div and Babuska
spectra are closed-form functions of the mu.  A table is a list of cases
and the fields it prints of each (``TABLES``), and the single-case
commands in ``cli`` print fields of one Case by name.  The source-problem
errors are not Case fields: ``poisson`` solves on the forms alone.
"""

from __future__ import annotations

import math
import os
from functools import cached_property

import numpy as np
from scipy.sparse.linalg import norm as sparse_norm

from .assembly import case_forms, orthonormal_divergence
from .eigensolve import InertiaSlicer, positive_definite_lu
from .errors import NumericalError
from .mesh import GENERATED_FAMILIES, Family, generate, singular_vertices

DEFAULT_THRESHOLD = 1e-4
SWEEP_THRESHOLDS = (1e-3, 1e-4, 1e-5, 1e-6)
# smallest mixed Laplace eigenvalues past the spurious modes that
# Case.smallest_eigenvalues lists
LAPLACE_LISTED = 5
# the pencils Case.spectrum reads
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


def _quotient(forms, norm, p):
    """Rayleigh quotient g^T norm^{-1} g / p^T M_Q p, g = B^T p, of the
    pressure p in the pencil B norm^{-1} B^T p = lambda M_Q p, from one
    solve with the factor that certifies ``norm`` positive definite; the
    factor is released on return.  None when p^T M_Q p = 0, after the
    factor is made and certified all the same."""
    g = forms.B.T @ p
    num = float(g @ positive_definite_lu(norm).solve(g))
    den = float(p @ (forms.M_Q @ p))
    return num / den if den > 0.0 else None


class Case:
    """Every stability constant of one case, under the name the outputs
    print.

    Each field that costs work is computed on its first read and kept.  A
    field reads the fields it builds on first.  The div-div pencil
    (``pencil``, counted at tau by ``dimN``) needs no check of A_div: only
    ``mu_bound`` factors it, for ``mu``.  The A_1 check (``constant_mode``)
    comes before the Stokes pencil (``stokes_pencil``), whose norm A_1 is.  A
    read of a pencil's values depends on the counts made before it, so the
    commands read in a fixed order.  ``factorizations`` and
    ``stokes_factorizations`` count the factorizations made so far.
    """

    def __init__(self, forms, threshold=DEFAULT_THRESHOLD):
        self.forms = forms
        self.threshold = threshold
        self.kernel = forms.V_h.ndofs - forms.Q_h.ndofs   # zeros of K
        # n is None on a mesh file
        self.family, self.n = forms.mesh.family.value, forms.mesh.n
        self.r = forms.V_h.degree

    @cached_property
    def sigma(self):
        return singular_vertices(self.forms.mesh).size

    @cached_property
    def mu_bound(self):
        """Certifies A_div with the ``_quotient`` of the Q_h interpolant of
        sin(pi x) sin(pi y), the first Dirichlet eigenfunction: mu^ =
        lambda^ / (1 - lambda^) raised by MU_BOUND_MARGIN, or None unless
        0 < lambda^ < 1 (None too when the interpolant is zero, as on one
        triangle at r = 2, whose Q_h nodes are its corners)."""
        pts = self.forms.Q_h.interpolation_points
        lam = _quotient(self.forms, self.forms.A_div,
                        np.sin(np.pi * pts[:, 0]) * np.sin(np.pi * pts[:, 1]))
        if lam is None or not 0.0 < lam < 1.0:
            return None
        return MU_BOUND_MARGIN * lam / (1.0 - lam)

    @cached_property
    def pencil(self):
        """The InertiaSlicer of the div-div pencil (K, M_V)."""
        return InertiaSlicer(self.forms.K, self.forms.M_V)

    @cached_property
    def dimN(self):
        """Spurious pressure modes dim N_h: the eigenvalues of (K, M_V)
        past its zeros below the threshold's shift, with no eigenvalue.
        Raises NumericalError when the count is below the zeros or takes
        in every eigenvalue."""
        return _count_below(self.pencil, self.kernel,
                            _divdiv_shift(self.threshold), self.threshold)[1]

    @cached_property
    def mu(self):
        """The first mixed Laplace eigenvalue past the spurious modes,
        sliced below ``mu_bound``; its continuous value is 2 pi^2."""
        return self.pencil.value(self.kernel + self.dimN, self.mu_bound)

    @property
    def beta_div_reduced(self):
        """Brezzi inf-sup constant in the H(div) norm past the spurious
        modes."""
        return math.sqrt(self.mu / (1.0 + self.mu))

    @property
    def beta_div(self):
        """Brezzi inf-sup constant in the H(div) norm: 0.0 with spurious
        modes."""
        return 0.0 if self.dimN else self.beta_div_reduced

    @property
    def gamma(self):
        """Babuska constant of the full mixed form on V_h x Q_h against the
        graph norm diag(A_div, M_Q).  Its pencil has the eigenvalues
        -lambda and nV ones (``spectrum``), so gamma = beta_div^2, and 0.0
        when spurious modes make the form singular."""
        return 0.0 if self.dimN else self.beta_div ** 2

    @cached_property
    def alpha_residual(self):
        """Relative Frobenius norm of K - B^T M_Q^{-1} B, checked as
        K = (C B)^T (C B) with the cellwise factor C of
        ``orthonormal_divergence``.  Raises NumericalError above 1e-10."""
        b_hat, _ = orthonormal_divergence(self.forms)
        residual = float(sparse_norm(self.forms.K - b_hat.T @ b_hat)
                         / sparse_norm(self.forms.K))
        if not residual <= 1e-10:
            raise NumericalError(f"div-div form differs from B^T M_Q^-1 B by "
                                 f"{residual:.2e} (relative); alpha = 1 does "
                                 f"not hold")
        return residual

    @property
    def alpha(self):
        """Coercivity constant of <u, v> on the discrete divergence-free
        space: exactly one, as K = B^T M_Q^{-1} B vanishes on the kernel of
        B, once ``alpha_residual`` has checked the identity."""
        self.alpha_residual
        return 1.0

    @property
    def kernel_dim(self):
        """Dimension of the kernel of B, nV - nQ + dimN."""
        return self.kernel + self.dimN

    @cached_property
    def smallest_eigenvalues(self):
        """The first LAPLACE_LISTED mixed Laplace eigenvalues past the
        spurious modes (fewer when the pencil has fewer), mu first."""
        first = self.kernel + self.dimN
        last = min(first + LAPLACE_LISTED, self.pencil.size)
        return [self.mu] + [self.pencil.value(i) for i in range(first + 1, last)]

    @cached_property
    def warning(self):
        """None, or the message that the counts at tau / 10, tau and
        10 tau (those below 1) disagree: the threshold splits a cluster.
        Counts the two probes."""
        probes = [t for t in (self.threshold / 10.0, self.threshold,
                              10.0 * self.threshold) if t < 1.0]
        counts = [self.pencil.count(_divdiv_shift(t)) - self.kernel
                  for t in probes]
        if len(set(counts)) == 1:
            return None
        return (f"threshold {self.threshold:g} splits a cluster: "
                + ", ".join(f"{c} eigenvalues below {t:g}"
                            for c, t in zip(counts, probes)))

    @property
    def factorizations(self):
        """Sparse factorizations made so far for the div-div fields: the
        pencil's, and the A_div check once ``mu_bound`` has made it."""
        return ("mu_bound" in self.__dict__) + self.pencil.factorizations

    @cached_property
    def constant_mode(self):
        """Rayleigh quotient of the constant pressure in the Stokes pencil,
        from the factor that certifies A_1.  No zero-mean pressure
        constraint is imposed, so its place in the spectrum is reported."""
        return _quotient(self.forms, self.forms.A_1, np.ones(self.forms.Q_h.ndofs))

    @cached_property
    def stokes_pencil(self):
        """The InertiaSlicer of (K, A_1), made after the A_1 check."""
        self.constant_mode   # NotPositiveDefiniteError unless A_1 passes
        # pointwise (d1 u1 + d2 u2)^2 <= 2 |grad u|^2, so u^T K u <= 2 u^T G u
        # < 2 u^T A_1 u: every eigenvalue lies below 2
        return InertiaSlicer(self.forms.K, self.forms.A_1, upper=2.0)

    @cached_property
    def beta_h1_reduced(self):
        """Inf-sup constant of the divergence form in the full H1 norm past
        the dimN spurious modes: sqrt of the first eigenvalue of (K, A_1)
        past them.  Raises NumericalError unless (K, A_1) has nV - nQ +
        dimN eigenvalues below tau h^2, h the shortest mesh edge: by the
        inverse inequality |u|_1 <= C h^-1 ||u||, a lambda above tau in the
        H(div) norm lies above about tau h^2 in the H1 norm."""
        dim = self.dimN
        pencil = self.stokes_pencil
        mesh = self.forms.mesh
        edges = np.diff(mesh.vertices[mesh.edges], axis=1)[:, 0]
        shift = self.threshold * float(np.min(np.einsum("ij,ij->i", edges, edges)))
        count = pencil.count(shift)
        if count != self.kernel + dim:
            raise NumericalError(f"(K, A_1) has {count - self.kernel} "
                                 f"eigenvalues past its {self.kernel} zeros "
                                 f"below tau h^2 = {shift:g}, but (K, M_V) "
                                 f"counts {dim} spurious modes")
        return math.sqrt(pencil.value(count))

    @property
    def beta_h1(self):
        """Inf-sup constant in the full H1 norm: 0.0 with spurious modes."""
        return 0.0 if self.dimN else self.beta_h1_reduced

    @property
    def stokes_factorizations(self):
        """Sparse factorizations made so far for the Stokes fields: the A_1
        check, then the pencil's."""
        return 1 + self.stokes_pencil.factorizations

    def sweep(self, thresholds):
        """Rows (threshold, dimN, beta_div_reduced), one per threshold in
        the order given, read off the div-div pencil.  A threshold whose
        count matches one already made reuses its eigenvalue; any other
        slices the pencil past its own split."""
        rows = []
        for thr in thresholds:
            count, dim = _count_below(self.pencil, self.kernel,
                                      _divdiv_shift(thr), thr)
            mu = self.pencil.value(count)
            rows.append((float(thr), dim, math.sqrt(mu / (1.0 + mu))))
        return rows

    def spectrum(self, pencil):
        """Every eigenvalue of one pencil past its zero cluster.

        The cluster holds the dimN eigenvalues below the threshold, and the
        nV - nQ zeros of the div-div pencil; its values are rounding noise,
        so only its size is returned, as the index of the first eigenvalue.
        The stokes pencil is (K, A_1) past dimN; the others are closed-form
        functions of the mu of (K, M_V):

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
        # the first value is sliced below its bound, the rest past it
        if pencil == "stokes":
            self.beta_h1_reduced
            slicer = self.stokes_pencil
        else:
            self.mu
            slicer = self.pencil
        start = self.kernel + self.dimN
        nu = np.array([slicer.value(i) for i in range(start, slicer.size)])
        if pencil == "divdiv":
            return start, nu
        if pencil in ("laplace", "stokes"):
            return self.dimN, nu
        lam = nu / (1.0 + nu)
        if pencil == "infsup":
            return self.dimN, lam
        return self.dimN, np.concatenate([-lam, np.ones(self.forms.V_h.ndofs)])


# the degrees of T1 unless given
T1_DEGREES = (1, 2, 3)
# which -> (r, default n, columns).  T1 (r None) has one row per case, of
# the Case fields its columns name; T2-T4 have one row per n, each cell
# (header, family, field) one field of that family's case at n and r
_T3_T4 = (("beta_diagonal", Family.DIAGONAL, "beta_div"),
          ("beta_zigzag", Family.ZIGZAG, "beta_div"),
          ("beta_flipped", Family.FLIPPED, "beta_div"),
          ("beta_unionjack_reduced", Family.UNIONJACK, "beta_div_reduced"),
          ("dimN_unionjack", Family.UNIONJACK, "dimN"))
TABLES = {
    "T1": (None, (4, 6, 8), ("family", "n", "r", "sigma", "dimN")),
    "T2": (1, tuple(range(4, 17, 2)), (
        ("beta_diagonal", Family.DIAGONAL, "beta_div"),
        ("beta_zigzag", Family.ZIGZAG, "beta_div"),
        ("beta_flipped_reduced", Family.FLIPPED, "beta_div_reduced"),
        ("dimN_flipped", Family.FLIPPED, "dimN"),
        ("beta_unionjack_reduced", Family.UNIONJACK, "beta_div_reduced"),
        ("dimN_unionjack", Family.UNIONJACK, "dimN"))),
    "T3": (2, tuple(range(4, 15, 2)), _T3_T4),
    "T4": (3, tuple(range(4, 13, 2)), _T3_T4),
}


def _table_case(args):
    """The values of the named fields of one case, in order.  Plain values
    go back to the pool, not the Case, which holds its pencils."""
    family, n, r, threshold, fields = args
    case = Case(case_forms(generate(family, n), r), threshold)
    return [getattr(case, field) for field in fields]


def reproduce_table(which, n_values=None, r_values=None,
                    threshold=DEFAULT_THRESHOLD, jobs=1):
    """Recompute one of the four golden tables of ``TABLES``.

    T1 lists sigma and dimN per (family, n, r), with no eigenvalue; T2, T3
    and T4 list the inf-sup constants of the four diagonal-pattern
    families at r = 1, 2, 3 (reduced constants and mode counts where the
    family has spurious modes).  ``r_values`` applies to T1 only.

    Returns
    -------
    dict of which, r (None for T1), threshold, header and rows
    """
    which = which.upper()
    if which not in TABLES:
        raise ValueError(f"unknown table {which!r} (expected T1..T4)")
    r, n_default, columns = TABLES[which]
    n_values = list(n_default if n_values is None else n_values)
    if r is None:
        degrees = T1_DEGREES if r_values is None else r_values
        cases = [(fam, n, deg, threshold, columns)
                 for fam in GENERATED_FAMILIES for n in n_values for deg in degrees]
        return {"which": which, "r": None, "threshold": threshold,
                "header": list(columns), "rows": _run_cases(cases, jobs)}

    families = dict.fromkeys(fam for _, fam, _ in columns)
    cases = [(fam, n, r, threshold,
              tuple(field for _, col_fam, field in columns if col_fam is fam))
             for n in n_values for fam in families]
    values = {}   # (family, n, field) -> value
    for (fam, n, _, _, fields), got in zip(cases, _run_cases(cases, jobs)):
        values.update(((fam, n, field), v) for field, v in zip(fields, got))
    rows = [[n, *(values[fam, n, field] for _, fam, field in columns)]
            for n in n_values]
    return {"which": which, "r": r, "threshold": threshold,
            "header": ["n", *(h for h, _, _ in columns)], "rows": rows}


def _run_cases(cases, jobs):
    # under fork every worker starts at once: no more than cases or cores
    workers = min(jobs, len(cases), os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_table_case, cases))
    return [_table_case(c) for c in cases]
