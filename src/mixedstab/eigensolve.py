"""Inertia slicing of symmetric pencils.

Every reported eigenvalue comes from a symmetric pencil K x = nu N x with
N positive definite: the div-div pencil (K, M_V) for the Brezzi constant,
the mixed Laplace eigenvalue and the spectra derived from it, and (K, A_1)
for the Stokes constant.  ``InertiaSlicer`` computes what is reported from
sparse factorizations, with no dense matrix:

* count: by Sylvester's law of inertia, an LDL^T factorization of K - s N
  has #{nu < s} negative pivots.  The factor is one sparse LU in symmetric
  mode with diagonal pivots only.  A factor that takes an off-diagonal
  pivot is refused, because its pivots need not carry the inertia, and so
  are counts that are not monotone in s.
* values: a bracket [a, t] with count(a) <= i < count(t) is grown, then
  bisected geometrically, until the window [a, t) holds at most
  ``WINDOW`` eigenvalues.  They are the eigenvalues nearest its midpoint
  b, so shift-invert Lanczos (ARPACK) at sigma = b, on the LU of K - b N,
  returns exactly them (Ericsson & Ruhe, Math. Comp. 1980; Grimes, Lewis
  & Simon, SIAM J. Matrix Anal. Appl. 1994).  ``value(i, bound)`` counts
  at an upper bound first; when that count closes such a window, it holds
  the eigenvalues just below the bound, read at sigma = bound on the
  bound's own factor, with no bracket growth and no midpoint factor.
  Either way one reader checks the values against the counts: they lie
  in the window, and the count at sigma splits them as it says.
* top: an ``upper`` above the whole spectrum is counted with no factor, and
  no bracket below it grows; a wrong one fails the window or monotone checks.

Each value is the Rayleigh quotient of its Ritz vector, whose normwise
backward error ||K x - nu N x|| / ((||K||_1 + |nu| ||N||_1) ||x||) must
be at most 1e-8 (Higham, Accuracy and Stability of Numerical Algorithms):
the Ritz value is only as accurate as the solves with a factor that may
have a small pivot.  Scaled by ||K x|| + |nu| ||N x|| instead, the check
would ask for a residual below rounding near a nearly singular vertex,
where x nearly lies in the kernel of K.  No factor outlives its call.

``positive_definite_lu`` certifies the norm matrices of the pencils, and
factors the A_div that the source solve (``poisson.solve_mixed``) solves
with.  Independent cross-check solvers, dense ones included, live in
tests/oracles.py, not here.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import LinearOperator, eigsh, norm, splu

from .errors import EigensolveError, NotPositiveDefiniteError

# at most this many eigenvalues per Lanczos run, unless a cluster narrower
# than the bisection can split holds more
WINDOW = 10
# the bracket grows by this factor while no finite count lies above the
# eigenvalue sought: never in a table, and over every constant of the five
# families at n = 8, r = 1..3, in 11 of 60 slices, all (K, M_V) values past mu
GROWTH = 30.0


def _ldl(A, refuse):
    """LDL^T of symmetric A as a sparse LU: symmetric mode, minimum degree
    on A^T + A, diagonal pivots only, so perm_r == perm_c and diag(U) = D.

    ``refuse(pivot, reason)`` builds the exception raised when the factor
    breaks down (pivot -1) or takes an off-diagonal pivot (1-based pivot).
    """
    try:
        lu = splu(sp.csc_matrix(A), permc_spec="MMD_AT_PLUS_A",
                  diag_pivot_thresh=0.0, options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise refuse(-1, str(exc)) from exc
    off_diagonal = np.flatnonzero(lu.perm_r != lu.perm_c)
    if off_diagonal.size:
        raise refuse(int(off_diagonal[0]) + 1, "off-diagonal pivot")
    return lu


def positive_definite_lu(A):
    """Sparse LDL^T of A that certifies A is positive definite.

    Raises NotPositiveDefiniteError when the factor breaks down, refuses a
    diagonal pivot or has a pivot <= 0; ``pivot`` is the 1-based row of A.
    """
    # A^T of a symmetric CSR matrix is its CSC form with no copy
    lu = _ldl(A.T, lambda pivot, why: NotPositiveDefiniteError(
        pivot, f"matrix is not positive definite ({why})"))
    non_positive = np.flatnonzero(lu.U.diagonal() <= 0)
    if non_positive.size:
        raise NotPositiveDefiniteError(
            int(np.flatnonzero(lu.perm_c == non_positive[0])[0]) + 1)
    return lu


class InertiaSlicer:
    """Eigenvalues nu_0 <= nu_1 <= ... of K x = nu N x by spectrum slicing.

    K symmetric, N symmetric positive definite, every eigenvalue below
    ``upper``.  ``count(s)`` is #{nu < s} and ``value(i)`` is nu_i
    (0-based); both cache what they compute, and ``factorizations``
    counts the sparse factorizations made so far.  Values are sliced
    upward from a positive shift, so count one before the first ``value``.
    """

    def __init__(self, K, N, upper=math.inf):
        if K.shape != N.shape or K.shape[0] != K.shape[1]:
            raise EigensolveError(f"pencil shape mismatch: {K.shape} vs {N.shape}")
        # the CSR arrays of a symmetric matrix are its CSC arrays: the
        # transpose is its CSC form, with no copy
        self.K = sp.csr_matrix(K).T
        self.N = sp.csr_matrix(N).T
        self.size = K.shape[0]
        # the scale of the Ritz backward errors, taken before any factor
        # exists, so that the copy |K| does not add to the peak memory
        self._norms = (norm(self.K, 1), norm(self.N, 1))
        self.factorizations = 0
        self._counts = {upper: self.size}   # shift -> #{nu < shift}
        self._values = {}   # index -> nu_index

    def _factor(self, s):
        """Factor K - s N; cache and check its count, return (count, LU)."""
        lu = _ldl(self.K - s * self.N, lambda pivot, why: EigensolveError(
            f"inertia of K - s N at s = {s:g} not computed ({why}, "
            f"pivot {pivot})"))
        self.factorizations += 1
        count = int(np.count_nonzero(lu.U.diagonal() < 0))
        for shift, known in self._counts.items():
            if (shift < s and known > count) or (shift > s and known < count):
                raise EigensolveError(
                    f"inertia counts not monotone: {known} below {shift:g}, "
                    f"{count} below {s:g}")
        self._counts[s] = count
        return count, lu

    def count(self, s):
        """Number of eigenvalues below the shift s."""
        if s not in self._counts:
            self._factor(s)
        return self._counts[s]

    def value(self, i, bound=None):
        """The eigenvalue nu_i (0-based).

        Slices a window of eigenvalues that holds nu_i, unless an earlier
        window did.  Its bracket starts from the largest positive shift
        already counted with at most i eigenvalues below it.  A ``bound``
        (a guess at an upper bound of nu_i, such as a Rayleigh quotient)
        is counted first, and the window below it is read with one
        Lanczos run when that count closes it; the value is the same
        either way.
        """
        if not 0 <= i < self.size:
            raise EigensolveError(f"no eigenvalue {i} in a pencil of size {self.size}")
        if i not in self._values:
            if not any(s > 0 and c <= i for s, c in self._counts.items()):
                raise EigensolveError(f"no positive shift counted below "
                                      f"eigenvalue {i}")
            self._slice(i, bound)
        return self._values[i]

    def _lanczos(self, lu, sigma, k, which):
        """Ascending Rayleigh quotients of the k Ritz vectors of
        shift-invert Lanczos at sigma, on the factor ``lu`` of K - sigma N.
        Raises EigensolveError unless every ||K x - nu N x|| <= 1e-8
        (||K||_1 + |nu| ||N||_1) ||x||, a normwise backward error."""
        opinv = LinearOperator((self.size, self.size), matvec=lu.solve,
                               dtype=float)
        v0 = np.random.default_rng(0).standard_normal(self.size)
        try:
            _, vectors = eigsh(self.K, k, M=self.N, sigma=sigma, which=which,
                               OPinv=opinv, v0=v0)
        except (RuntimeError, ValueError) as exc:
            raise EigensolveError(f"shift-invert Lanczos at {sigma:g} "
                                  f"failed: {exc}") from exc
        kx, nx = self.K @ vectors, self.N @ vectors
        values = np.einsum("ij,ij->j", vectors, kx) / np.einsum("ij,ij->j",
                                                                vectors, nx)
        residual = np.linalg.norm(kx - nx * values, axis=0)
        norm_k, norm_n = self._norms
        scale = (norm_k + np.abs(values) * norm_n) * np.linalg.norm(vectors, axis=0)
        if not np.all(residual <= 1e-8 * scale):
            raise EigensolveError(
                f"Lanczos at {sigma:g} returned Ritz vectors whose residuals "
                f"reach a backward error of {np.max(residual / scale):.1e}")
        return np.sort(values)

    def _read_window(self, a, top, sigma, lu, which):
        """Cache the eigenvalues in the counted window [a, top), read by
        Lanczos at sigma on its factor ``lu``: the k that ``which`` selects
        must lie in the window, split by the count at sigma as it says."""
        counts = self._counts
        k = counts[top] - counts[a]
        values = self._lanczos(lu, sigma, k, which)
        slack = 1e-9 * top
        if not (a - slack <= values[0] and values[-1] < top + slack
                and np.count_nonzero(values < sigma) == counts[sigma] - counts[a]):
            raise EigensolveError(
                f"Lanczos at {sigma:g} returned {k} values in [{values[0]:g}, "
                f"{values[-1]:g}], which the counts at {a:g}, {sigma:g} and "
                f"{top:g} do not certify")
        for j, value in enumerate(values):
            self._values[counts[a] + j] = float(value)

    def _slice(self, i, bound=None):
        """Cache the eigenvalues of one counted window that holds nu_i:
        the one below ``bound`` when its count closes one, see ``value``."""
        counts = self._counts
        # bracket [a, top] with count(a) <= i < count(top), both counted
        a = max(s for s, c in counts.items() if 0 < s and c <= i)
        if bound is not None and a < bound < math.inf and bound not in counts:
            above, lu = self._factor(bound)
            if i < above and above - counts[a] <= min(WINDOW, self.size - 2):
                # the eigenvalues just below the bound are the smallest of
                # the shift-inverted spectrum 1 / (nu - bound)
                self._read_window(a, bound, bound, lu, "SA")
                return
            del lu   # no factor outlives its use
        top = min(s for s, c in counts.items() if c > i)
        while top == math.inf:
            s = a * GROWTH
            if self.count(s) > i:
                top = s
            else:
                a = s
        while counts[top] - counts[a] > WINDOW and top - a > 1e-12 * top:
            mid = math.sqrt(a * top)
            if self.count(mid) > i:
                top = mid
            else:
                a = mid
        k = counts[top] - counts[a]
        if k >= self.size - 1:
            raise EigensolveError(f"a window of {k} eigenvalues is too wide "
                                  f"for a pencil of size {self.size}")
        # every eigenvalue in [a, top) lies nearer to the midpoint b than
        # any outside it, so the k nearest b are exactly the window
        b = 0.5 * (a + top)
        self._read_window(a, top, b, self._factor(b)[1], "LM")
