"""Polynomial bases and quadrature on the unit reference triangle.

The reference triangle has vertices (0,0), (1,0), (0,1).  Nodal bases live
on the equispaced lattice; their monomial coefficients are obtained by
inverting the node/monomial Vandermonde matrix in exact rational
arithmetic, so tabulated values carry only final rounding error.
Quadrature rules are Gauss-Legendre tensor rules collapsed onto the
triangle; all weights are positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import UnsupportedDegreeError

MAX_LAGRANGE_DEGREE = 6
MAX_DG_DEGREE = 5
MAX_QUADRATURE_DEGREE = 14


class ElementKind(Enum):
    SCALAR_LAGRANGE = "scalar-lagrange"
    VECTOR_LAGRANGE = "vector-lagrange"
    DISCONTINUOUS = "discontinuous"


def lattice_nodes(degree):
    """Equispaced lattice on the reference triangle, as exact fractions.

    Ordering: the three vertices, then the nodes interior to the edges
    (0,1), (1,2), (2,0) walked from first to second endpoint, then the
    strictly interior points row by row.  Degree 0 uses the barycentre.

    Parameters
    ----------
    degree : int
        Polynomial degree, >= 0.

    Returns
    -------
    list of (Fraction, Fraction)
    """
    if degree == 0:
        return [(Fraction(1, 3), Fraction(1, 3))]
    r = degree
    nodes = [
        (Fraction(0), Fraction(0)),
        (Fraction(1), Fraction(0)),
        (Fraction(0), Fraction(1)),
    ]
    for k in range(1, r):
        nodes.append((Fraction(k, r), Fraction(0)))
    for k in range(1, r):
        nodes.append((Fraction(r - k, r), Fraction(k, r)))
    for k in range(1, r):
        nodes.append((Fraction(0), Fraction(r - k, r)))
    for j in range(1, r):
        for i in range(1, r - j):
            nodes.append((Fraction(i, r), Fraction(j, r)))
    return nodes


def monomial_exponents(degree):
    """Exponent pairs (a, b) with a + b <= degree, by total degree."""
    return [(t - b, b) for t in range(degree + 1) for b in range(t + 1)]


def _invert_fractions(matrix):
    """Exact Gauss-Jordan inverse of a square Fraction matrix."""
    n = len(matrix)
    aug = [list(row) + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(matrix)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        pv = aug[col][col]
        aug[col] = [v / pv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


@lru_cache(maxsize=None)
def _basis_tables(degree):
    """Monomial exponents and exact nodal-basis coefficients (as floats).

    coeff[m, k] is the coefficient of x**exps[m,0] * y**exps[m,1] in basis
    function k, with basis function k equal to 1 at lattice node k.
    """
    nodes = lattice_nodes(degree)
    exps = monomial_exponents(degree)
    vand = [[x ** a * y ** b for a, b in exps] for x, y in nodes]
    inv = _invert_fractions(vand)
    coeff = np.array([[float(c) for c in row] for row in inv])
    e = np.array(exps, dtype=np.int64)
    coeff.setflags(write=False)
    e.setflags(write=False)
    return e, coeff


@lru_cache(maxsize=None)
def _nodes_float(degree):
    pts = np.array([[float(x), float(y)] for x, y in lattice_nodes(degree)])
    pts.setflags(write=False)
    return pts


def _values_at(degree, pts):
    e, coeff = _basis_tables(degree)
    x = pts[:, :1]
    y = pts[:, 1:2]
    mon = x ** e[:, 0] * y ** e[:, 1]
    return mon @ coeff


def _gradients_at(degree, pts):
    e, coeff = _basis_tables(degree)
    x = pts[:, :1]
    y = pts[:, 1:2]
    a = e[:, 0]
    b = e[:, 1]
    dx = (a * x ** np.maximum(a - 1, 0) * y ** b) @ coeff
    dy = (b * x ** a * y ** np.maximum(b - 1, 0)) @ coeff
    return np.stack([dx, dy], axis=-1)


@dataclass(frozen=True, eq=False)
class ReferenceElement:
    """Basis descriptor for one element type on the reference triangle.

    Attributes
    ----------
    kind : ElementKind
    degree : int
        Polynomial degree of the scalar basis.
    """

    kind: ElementKind
    degree: int

    @classmethod
    def scalar_lagrange(cls, degree):
        if not 1 <= degree <= MAX_LAGRANGE_DEGREE:
            raise UnsupportedDegreeError(
                f"continuous Lagrange degree must be in 1..{MAX_LAGRANGE_DEGREE}, got {degree}")
        return cls(ElementKind.SCALAR_LAGRANGE, degree)

    @classmethod
    def vector_lagrange(cls, degree):
        if not 1 <= degree <= MAX_LAGRANGE_DEGREE:
            raise UnsupportedDegreeError(
                f"vector Lagrange degree must be in 1..{MAX_LAGRANGE_DEGREE}, got {degree}")
        return cls(ElementKind.VECTOR_LAGRANGE, degree)

    @classmethod
    def discontinuous(cls, degree):
        if not 0 <= degree <= MAX_DG_DEGREE:
            raise UnsupportedDegreeError(
                f"discontinuous degree must be in 0..{MAX_DG_DEGREE}, got {degree}")
        return cls(ElementKind.DISCONTINUOUS, degree)

    @property
    def nodes(self):
        """Lattice node coordinates, shape (num_scalar_basis, 2)."""
        return _nodes_float(self.degree)

    @property
    def num_scalar_basis(self):
        return (self.degree + 1) * (self.degree + 2) // 2

    @property
    def ndof(self):
        """Local dimension; vector elements interleave (x, y) per node."""
        n = self.num_scalar_basis
        return 2 * n if self.kind is ElementKind.VECTOR_LAGRANGE else n

    def tabulate(self, points):
        """Scalar basis values at reference points, shape (npts, nb)."""
        return _values_at(self.degree, np.atleast_2d(np.asarray(points, float)))

    def tabulate_gradients(self, points):
        """Scalar basis gradients at reference points, shape (npts, nb, 2)."""
        return _gradients_at(self.degree, np.atleast_2d(np.asarray(points, float)))


def lagrange_basis(degree, point):
    """Values and gradients of the scalar Lagrange basis at one point.

    Parameters
    ----------
    degree : int
        1..6.
    point : array_like, shape (2,)
        Reference coordinates.

    Returns
    -------
    values : ndarray, shape (nb,)
    gradients : ndarray, shape (nb, 2)
    """
    if not 1 <= degree <= MAX_LAGRANGE_DEGREE:
        raise UnsupportedDegreeError(
            f"Lagrange degree must be in 1..{MAX_LAGRANGE_DEGREE}, got {degree}")
    pts = np.asarray(point, float).reshape(1, 2)
    return _values_at(degree, pts)[0], _gradients_at(degree, pts)[0]


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Quadrature points and weights on the reference triangle.

    Weights are positive and sum to the reference area 1/2.
    """

    points: np.ndarray   # (nq, 2) reference coordinates
    weights: np.ndarray  # (nq,)
    degree: int          # polynomial degree integrated exactly


@lru_cache(maxsize=None)
def quadrature(degree):
    """Rule exact for polynomials up to `degree` on the reference triangle.

    A tensor Gauss-Legendre rule on the unit square is collapsed onto the
    triangle through (x, y) = (u, v (1 - u)); the extra factor (1 - u) in
    the Jacobian raises the u-degree by one, which fixes the point count.

    Parameters
    ----------
    degree : int
        1..14.

    Returns
    -------
    QuadratureRule
    """
    if not 1 <= degree <= MAX_QUADRATURE_DEGREE:
        raise UnsupportedDegreeError(
            f"quadrature degree must be in 1..{MAX_QUADRATURE_DEGREE}, got {degree}")
    m = (degree + 3) // 2
    t, w = np.polynomial.legendre.leggauss(m)
    t = 0.5 * (t + 1.0)
    w = 0.5 * w
    u, v = np.meshgrid(t, t, indexing="ij")
    wu, wv = np.meshgrid(w, w, indexing="ij")
    x = u.ravel()
    y = (v * (1.0 - u)).ravel()
    wt = (wu * wv * (1.0 - u)).ravel()
    pts = np.column_stack([x, y])
    pts.setflags(write=False)
    wt.setflags(write=False)
    return QuadratureRule(points=pts, weights=wt, degree=degree)


def monomial_integral(i, j):
    """Exact integral of x**i y**j over the reference triangle."""
    return float(Fraction(math.factorial(i) * math.factorial(j),
                          math.factorial(i + j + 2)))
