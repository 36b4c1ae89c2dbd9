from fractions import Fraction

import numpy as np
import pytest

from mixedstab.element import (MAX_QUADRATURE_DEGREE, MAX_SPACE_DEGREE,
                               ReferenceElement, lattice_nodes, quadrature)
from mixedstab.errors import UnsupportedDegreeError

from oracles import monomial_integral

# every degree a space of the pair uses: 0..r-1 for Q_h, 1..r for V_h
ELEMENT_DEGREES = range(MAX_SPACE_DEGREE + 1)


def random_points(rng, count=40):
    # uniform over the reference triangle via folding the unit square
    a = rng.random((count, 2))
    flip = a.sum(axis=1) > 1
    a[flip] = 1.0 - a[flip]
    return a


@pytest.mark.parametrize("degree", range(1, 7))
def test_lattice_node_count(degree):
    nodes = lattice_nodes(degree)
    assert len(nodes) == (degree + 1) * (degree + 2) // 2
    assert all(isinstance(x, Fraction) for pt in nodes for x in pt)
    # vertices come first
    assert nodes[0] == (0, 0) and nodes[1] == (1, 0) and nodes[2] == (0, 1)


@pytest.mark.parametrize("degree", ELEMENT_DEGREES)
def test_nodal_basis_is_interpolatory(degree):
    elem = ReferenceElement(degree)
    nodes = np.array([[float(x), float(y)] for x, y in elem.nodes])
    table = elem.tabulate(nodes)
    assert np.max(np.abs(table - np.eye(len(nodes)))) < 1e-12


@pytest.mark.parametrize("degree", ELEMENT_DEGREES)
def test_partition_of_unity(degree, rng):
    elem = ReferenceElement(degree)
    pts = random_points(rng)
    vals = elem.tabulate(pts)
    assert np.max(np.abs(vals.sum(axis=1) - 1.0)) < 1e-12
    grads = elem.tabulate_gradients(pts)
    assert np.max(np.abs(grads.sum(axis=1))) < 1e-11


@pytest.mark.parametrize("degree", ELEMENT_DEGREES)
def test_polynomial_reproduction(degree, rng):
    # interpolating a polynomial of matching degree is exact
    elem = ReferenceElement(degree)
    coeffs = rng.standard_normal((degree + 1, degree + 1))

    def poly(pts):
        total = np.zeros(len(pts))
        for i in range(degree + 1):
            for j in range(degree + 1 - i):
                total += coeffs[i, j] * pts[:, 0] ** i * pts[:, 1] ** j
        return total

    nodes = np.array([[float(x), float(y)] for x, y in elem.nodes])
    pts = random_points(rng, 50)
    interp = elem.tabulate(pts) @ poly(nodes)
    assert np.max(np.abs(interp - poly(pts))) < 1e-11


@pytest.mark.parametrize("degree", ELEMENT_DEGREES)
def test_gradients_match_finite_differences(degree, rng):
    elem = ReferenceElement(degree)
    pts = 0.1 + 0.35 * rng.random((20, 2))  # interior, away from edges
    grads = elem.tabulate_gradients(pts)
    h = 1e-6
    for axis in range(2):
        shift = np.zeros(2)
        shift[axis] = h
        fd = (elem.tabulate(pts + shift) - elem.tabulate(pts - shift)) / (2 * h)
        assert np.max(np.abs(fd - grads[:, :, axis])) < 1e-6


def test_discontinuous_degree_zero_is_constant(rng):
    elem = ReferenceElement(0)
    pts = random_points(rng)
    assert np.max(np.abs(elem.tabulate(pts) - 1.0)) < 1e-15


@pytest.mark.parametrize("degree", [7, -1])
def test_unsupported_lagrange_degrees(degree):
    with pytest.raises(UnsupportedDegreeError):
        ReferenceElement(degree)


def test_unsupported_quadrature_degree():
    with pytest.raises(UnsupportedDegreeError):
        quadrature(MAX_QUADRATURE_DEGREE + 1)


@pytest.mark.parametrize("degree", range(1, MAX_QUADRATURE_DEGREE + 1))
def test_quadrature_weights(degree):
    rule = quadrature(degree)
    assert np.all(rule.weights > 0)
    assert abs(rule.weights.sum() - 0.5) < 1e-15
    # points strictly inside the closed triangle
    x, y = rule.points[:, 0], rule.points[:, 1]
    assert np.all((x >= 0) & (y >= 0) & (x + y <= 1 + 1e-14))


def test_quadrature_monomial_exactness():
    # closed form: x^i y^j integrates to i! j! / (i + j + 2)!
    for degree in range(1, MAX_QUADRATURE_DEGREE + 1):
        rule = quadrature(degree)
        for i in range(degree + 1):
            for j in range(degree + 1 - i):
                approx = np.sum(rule.weights
                                * rule.points[:, 0] ** i
                                * rule.points[:, 1] ** j)
                exact = float(monomial_integral(i, j))
                assert abs(approx - exact) < 1e-14, (degree, i, j)


def test_monomial_integral_values():
    assert monomial_integral(0, 0) == 0.5
    assert monomial_integral(1, 0) == 1 / 6
    assert monomial_integral(1, 1) == 1 / 24
    assert monomial_integral(2, 0) == 1 / 12
