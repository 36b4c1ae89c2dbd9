"""Structured triangulations of the unit square, plus mesh text I/O.

Five generated families are supported, all built on an n x n grid of
subsquares (n even): ``diagonal`` splits every subsquare along the
positive diagonal; ``zigzag`` alternates the diagonal direction per row
of subsquares (herringbone); ``flipped`` is the diagonal mesh with one
subsquare per 2x2 block flipped (a 3-vs-1 pattern); ``crisscross`` splits
every subsquare into four triangles through its centre; ``unionjack``
alternates the diagonal in a checkerboard so diagonals star around
alternate grid vertices.

Generated meshes carry exact integer vertex coordinates (scaled by 2n),
on which the one singular-vertex predicate runs with tolerance 0; on an
imported mesh it runs on unit edge directions with tolerance 1e-12.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .errors import MeshFormatError, MeshTopologyError

MESH_HEADER = "mesh 2 triangle"


class Family(Enum):
    DIAGONAL = "diagonal"
    FLIPPED = "flipped"
    ZIGZAG = "zigzag"
    CRISSCROSS = "crisscross"
    UNIONJACK = "unionjack"
    IMPORTED = "imported"

    @classmethod
    def parse(cls, name):
        try:
            return cls(name.strip().lower())
        except ValueError:
            raise ValueError(f"unknown mesh family {name!r}") from None


GENERATED_FAMILIES = (Family.DIAGONAL, Family.FLIPPED, Family.ZIGZAG,
                      Family.CRISSCROSS, Family.UNIONJACK)


class Triangulation:
    """Immutable triangle mesh with its edge connectivity, built once.

    Parameters
    ----------
    vertices : array_like, shape (V, 2)
        Vertex coordinates.
    cells : array_like, shape (C, 3)
        Counter-clockwise vertex triples, 0-based.
    family : Family
    n : int or None
        Subdivision parameter for generated meshes.
    exact_vertices : array_like of int or None
        Integer coordinates (vertices * 2n) for exact geometric
        predicates; present on generated meshes.

    Attributes
    ----------
    edges : ndarray, shape (E, 2)
        Unique undirected edges, each row sorted, rows lexicographic.
    cell_edges : ndarray, shape (C, 3)
        Edge id of local edge k of each cell, the edge from local vertex
        k to local vertex (k + 1) % 3.
    boundary_edges, boundary_vertices : ndarray of bool
    """

    def __init__(self, vertices, cells, family=Family.IMPORTED, n=None,
                 exact_vertices=None):
        self.vertices = np.ascontiguousarray(vertices, dtype=float)
        self.cells = np.ascontiguousarray(cells, dtype=np.int64)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise MeshTopologyError("vertices must have shape (V, 2)")
        if self.cells.ndim != 2 or self.cells.shape[1] != 3:
            raise MeshTopologyError("cells must have shape (C, 3)")
        self.family = family
        self.n = n
        self.exact_vertices = None
        if exact_vertices is not None:
            self.exact_vertices = np.ascontiguousarray(exact_vertices, dtype=np.int64)
            self.exact_vertices.setflags(write=False)
        self._validate_cells()
        self._build_edges()
        self._check_hanging_vertices()
        self.vertices.setflags(write=False)
        self.cells.setflags(write=False)

    @property
    def num_vertices(self):
        return self.vertices.shape[0]

    @property
    def num_cells(self):
        return self.cells.shape[0]

    @property
    def num_edges(self):
        return self.edges.shape[0]

    def signed_areas(self):
        v = self.vertices
        a = v[self.cells[:, 0]]
        b = v[self.cells[:, 1]]
        c = v[self.cells[:, 2]]
        return 0.5 * ((b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1])
                      - (c[:, 0] - a[:, 0]) * (b[:, 1] - a[:, 1]))

    def _validate_cells(self):
        V = self.num_vertices
        if self.num_cells == 0:
            raise MeshTopologyError("mesh has no cells")
        if self.cells.min(initial=0) < 0 or self.cells.max(initial=-1) >= V:
            bad = int(np.nonzero((self.cells < 0).any(axis=1)
                                 | (self.cells >= V).any(axis=1))[0][0])
            raise MeshTopologyError(f"cell {bad}: vertex index out of range")
        with np.errstate(over="ignore", invalid="ignore"):   # huge coordinates
            areas = self.signed_areas()
        faulty = ~((areas > 0) & (areas < np.inf))
        if faulty.any():
            bad = int(np.argmax(faulty))
            kind = ("degenerate" if areas[bad] == 0
                    else "inverted (clockwise)" if areas[bad] < 0
                    else f"signed area {areas[bad]} is not finite")
            raise MeshTopologyError(f"cell {bad}: {kind}")
        # equal vertex sets are adjacent in lexicographic order, and the
        # stable sort lists each group by ascending cell; the pair that starts
        # with the smallest cell holds the first cell that repeats another
        sets = np.sort(self.cells, axis=1)
        order = np.lexsort(sets.T[::-1])
        same = (sets[order[1:]] == sets[order[:-1]]).all(axis=1)
        if same.any():
            k = np.flatnonzero(same)[np.argmin(order[:-1][same])]
            raise MeshTopologyError(f"cell {order[k + 1]}: duplicate of an earlier cell")
        unused = np.bincount(self.cells.ravel(), minlength=V) == 0
        if unused.any():
            raise MeshTopologyError(f"vertex {np.argmax(unused)} belongs to no cell")

    def _build_edges(self):
        C = self.num_cells
        pairs = np.concatenate([self.cells[:, [0, 1]],
                                self.cells[:, [1, 2]],
                                self.cells[:, [2, 0]]])
        forward = pairs[:, 0] < pairs[:, 1]
        pairs = np.sort(pairs, axis=1)
        owner = np.tile(np.arange(C), 3)
        # the key a * V + b of a sorted pair orders the edges lexicographically
        V = self.num_vertices
        keys, inverse, counts = np.unique(pairs[:, 0] * V + pairs[:, 1],
                                          return_inverse=True, return_counts=True)
        edges = np.stack(np.divmod(keys, V), axis=1)
        if (counts > 2).any():
            eid = int(np.argmax(counts > 2))
            cells = [int(owner[k]) for k in np.nonzero(inverse == eid)[0]]
            a, b = edges[eid]
            raise MeshTopologyError(
                f"cell {cells[2]}: edge ({a}, {b}) shared by more than two cells")
        # counter-clockwise neighbours traverse their shared edge in opposite
        # directions; the same direction means one cell folds over the other
        folded = (counts == 2) & (np.bincount(inverse, weights=forward,
                                              minlength=len(edges)) != 1)
        if folded.any():
            eid = int(np.argmax(folded))
            cell = int(owner[inverse == eid].max())
            a, b = edges[eid]
            raise MeshTopologyError(
                f"cell {cell}: overlaps its neighbour across edge ({a}, {b})")
        self.edges = edges
        self.edges.setflags(write=False)
        self.cell_edges = inverse.reshape(3, C).T
        self.cell_edges.setflags(write=False)
        self.boundary_edges = counts == 1
        self.boundary_edges.setflags(write=False)
        bv = np.zeros(self.num_vertices, dtype=bool)
        bv[edges[self.boundary_edges].ravel()] = True
        self.boundary_vertices = bv
        self.boundary_vertices.setflags(write=False)

    def _check_hanging_vertices(self):
        # at a T-junction the long edge has one cell and its pieces have
        # one cell each on the other side, so all of them are boundary
        # edges and the hanging vertex lies strictly inside the long one
        bedges = np.flatnonzero(self.boundary_edges)
        bverts = np.flatnonzero(self.boundary_vertices)
        points = self.vertices[bverts]
        for lo in range(0, len(bedges), 256):  # bounds the edge x vertex arrays
            ends = self.edges[bedges[lo:lo + 256]]
            start = self.vertices[ends[:, 0]][:, None, :]
            along = self.vertices[ends[:, 1]][:, None, :] - start
            offset = points[None, :, :] - start
            length2 = np.sum(along * along, axis=2)
            cross = along[..., 0] * offset[..., 1] - along[..., 1] * offset[..., 0]
            t = np.sum(along * offset, axis=2) / length2
            hanging = ((np.abs(cross) <= 1e-12 * length2) & (t > 0) & (t < 1)
                       & (bverts[None, :] != ends[:, :1])
                       & (bverts[None, :] != ends[:, 1:]))
            if hanging.any():
                i, j = np.argwhere(hanging)[0]
                a, b = ends[i]
                # a boundary edge belongs to exactly one cell
                cell = np.argmax((self.cell_edges == bedges[lo + i]).any(axis=1))
                raise MeshTopologyError(
                    f"cell {cell}: vertex {bverts[j]} hangs inside its boundary "
                    f"edge ({a}, {b}) (T-junction)")


def check_grid_size(n):
    """Return n as an int; ValueError unless it is an even integer >= 4."""
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise ValueError(f"n must be an integer, got {n!r}")
    if n < 4 or n % 2 != 0:
        raise ValueError(f"n must be even and >= 4, got {n}")
    return int(n)


def generate(family, n):
    """Generate one of the structured families on an n x n grid.

    Parameters
    ----------
    family : Family or str
    n : int
        Even, >= 4.  The mesh width is h = 1/n.

    Returns
    -------
    Triangulation
    """
    if isinstance(family, str):
        family = Family.parse(family)
    if family not in GENERATED_FAMILIES:
        raise ValueError(f"cannot generate family {family}")
    n = check_grid_size(n)

    # subsquares (i, j) row by row, with their corners in the vertex grid
    j, i = np.divmod(np.arange(n * n), n)
    v00 = j * (n + 1) + i
    v10, v01, v11 = v00 + 1, v00 + n + 1, v00 + n + 2
    exact = _grid_points(n + 1, 0)
    if family is Family.CRISSCROSS:
        exact = np.concatenate([exact, _grid_points(n, 1)])
        c = (n + 1) ** 2 + np.arange(n * n)
        cells = [(v00, v10, c), (v10, v11, c), (v11, v01, c), (v01, v00, c)]
    else:
        positive = _POSITIVE_DIAGONAL[family](i, j)
        cells = [np.where(positive, (v00, v10, v11), (v00, v10, v01)),
                 np.where(positive, (v00, v11, v01), (v10, v11, v01))]
    # (triangle, corner, subsquare) -> the triangles of each subsquare in turn
    cells = np.array(cells).transpose(2, 0, 1).reshape(-1, 3)
    return Triangulation(exact / float(2 * n), cells, family=family, n=n,
                         exact_vertices=exact)


def _grid_points(m, offset):
    """Integer points (2i + offset, 2j + offset) for i, j < m, row by row."""
    j, i = np.divmod(np.arange(m * m), m)
    return np.stack([2 * i + offset, 2 * j + offset], axis=1)


# which subsquares (i, j) each family splits along the positive diagonal
_POSITIVE_DIAGONAL = {
    Family.DIAGONAL: lambda i, j: np.ones(i.shape, dtype=bool),
    Family.ZIGZAG: lambda i, j: j % 2 == 0,
    Family.FLIPPED: lambda i, j: (i % 2 == 1) | (j % 2 == 1),
    Family.UNIONJACK: lambda i, j: (i + j) % 2 == 0,
}


def singular_vertices(mesh):
    """Ascending indices of the singular vertices of a mesh.

    A vertex is singular when it is interior, has exactly four incident
    edges, and those edges pair up into two distinct straight lines
    through the vertex.  The test runs on the exact integer coordinates
    with tolerance 0 when the mesh has them (generated meshes), and on
    unit edge directions with tolerance 1e-12 otherwise.
    """
    degree = np.bincount(mesh.edges.ravel(), minlength=mesh.num_vertices)
    centre = np.flatnonzero((degree == 4) & ~mesh.boundary_vertices)
    # both orientations of every edge, grouped by start: the neighbour lists
    ends = np.concatenate([mesh.edges, mesh.edges[:, ::-1]])
    ends = ends[np.argsort(ends[:, 0], kind="stable")]
    first = np.cumsum(degree) - degree
    nbrs = ends[first[centre, None] + np.arange(4), 1]
    exact = mesh.exact_vertices is not None
    points = mesh.exact_vertices if exact else mesh.vertices
    d = points[nbrs] - points[centre, None]
    if not exact:
        d = d / np.linalg.norm(d, axis=2, keepdims=True)
    tol = 0 if exact else 1e-12

    def collinear(p, q):
        return np.abs(p[:, 0] * q[:, 1] - p[:, 1] * q[:, 0]) <= tol

    def line(p, q):   # p and q point opposite ways along one line
        return collinear(p, q) & (np.sum(p * q, axis=1) < 0)

    singular = np.zeros(len(centre), dtype=bool)
    for a, b, c, e in ((0, 1, 2, 3), (0, 2, 1, 3), (0, 3, 1, 2)):
        singular |= (line(d[:, a], d[:, b]) & line(d[:, c], d[:, e])
                     & ~collinear(d[:, a], d[:, c]))
    return centre[singular]


def export_mesh(mesh):
    """Serialize a mesh to the text format (byte-reproducible).

    Format::

        mesh 2 triangle
        vertices <V>
        <x> <y>          (V lines, decimal shortest round-trip)
        cells <C>
        <i> <j> <k>      (C lines, 0-based)
    """
    lines = [MESH_HEADER, f"vertices {mesh.num_vertices}"]
    lines += [f"{float(x)!r} {float(y)!r}" for x, y in mesh.vertices]
    lines.append(f"cells {mesh.num_cells}")
    lines += [f"{a} {b} {c}" for a, b, c in mesh.cells]
    return "\n".join(lines) + "\n"


def import_mesh(source):
    """Parse the mesh text format; inverse of :func:`export_mesh`.

    Raises
    ------
    MeshFormatError
        On malformed input, with the offending line number.
    MeshTopologyError
        On invalid connectivity (inverted/duplicate cells, bad indices).
    """
    lines = source.splitlines()

    def fail(lineno, msg):
        raise MeshFormatError(f"line {lineno}: {msg}")

    def get(lineno):
        if lineno - 1 >= len(lines):
            fail(lineno, "unexpected end of input")
        return lines[lineno - 1].strip()

    def count(lineno, keyword, noun):
        head = get(lineno).split()
        if len(head) != 2 or head[0] != keyword:
            fail(lineno, f"expected '{keyword} <count>'")
        try:
            value = int(head[1])
        except ValueError:
            fail(lineno, f"bad {noun} count {head[1]!r}")
        # each counted item takes a line, so a count past the end of the
        # input is refused before it sizes an array
        if not 0 <= value <= len(lines) - lineno:
            fail(lineno, f"{noun} count {value} is not between 0 and the "
                         f"{len(lines) - lineno} lines that follow")
        return value

    if get(1) != MESH_HEADER:
        fail(1, f"expected header {MESH_HEADER!r}")
    nv = count(2, "vertices", "vertex")
    verts = np.empty((nv, 2), dtype=float)

    def check_finite(k):
        # one array check for the first k vertex lines, not one per line
        finite = np.isfinite(verts[:k]).all(axis=1)
        if not finite.all():
            lineno = 3 + int(np.argmin(finite))
            fail(lineno, f"non-finite coordinate in {get(lineno).split()!r}")

    def vertex_fault(k, msg):
        check_finite(k)   # a non-finite coordinate above is the first fault
        fail(3 + k, msg)

    for k in range(nv):
        parts = get(3 + k).split()
        if len(parts) != 2:
            vertex_fault(k, "expected two coordinates")
        try:
            verts[k] = [float(parts[0]), float(parts[1])]
        except ValueError:
            vertex_fault(k, f"bad coordinate in {parts!r}")
    check_finite(nv)
    nc = count(3 + nv, "cells", "cell")
    cells = np.empty((nc, 3), dtype=np.int64)
    for k in range(nc):
        lineno = 4 + nv + k
        parts = get(lineno).split()
        if len(parts) != 3:
            fail(lineno, "expected three vertex indices")
        try:
            cells[k] = [int(p) for p in parts]
        except (ValueError, OverflowError):   # overflow: past the int64 range
            fail(lineno, f"bad vertex index in {parts!r}")
    for extra in range(4 + nv + nc, len(lines) + 1):
        if lines[extra - 1].strip():
            fail(extra, "unexpected trailing content")
    return Triangulation(verts, cells, family=Family.IMPORTED)


def read_mesh(path):
    """The mesh of a file in the text format.  MeshFormatError names the
    first line that is not UTF-8 text; OSError if the file cannot be read."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise MeshFormatError(f"line {lineno}: not UTF-8 text") from None
    return import_mesh(text)


def write_mesh(mesh, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(export_mesh(mesh))
