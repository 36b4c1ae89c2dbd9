"""Structured triangulations of the unit square, plus mesh text I/O.

Five generated families are supported, all built on an n x n grid of
subsquares (n even): ``diagonal`` splits every subsquare along the
positive diagonal; ``zigzag`` alternates the diagonal direction per row
of subsquares (herringbone); ``flipped`` is the diagonal mesh with one
subsquare per 2x2 block flipped (a 3-vs-1 pattern); ``crisscross`` splits
every subsquare into four triangles through its centre; ``unionjack``
alternates the diagonal in a checkerboard so diagonals star around
alternate grid vertices.

Generated meshes carry exact integer vertex coordinates (scaled by 2n)
so that singular-vertex detection is tolerance-free.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    """Immutable triangle mesh with derived edge structure.

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
        Integer coordinates (vertices * exact_scale) for exact geometric
        predicates; present on generated meshes.
    exact_scale : int or None

    Attributes
    ----------
    edges : ndarray, shape (E, 2)
        Unique undirected edges, each row sorted, rows lexicographic.
    edge_cells : list of tuple
        Incident cell indices per edge (length 1 or 2).
    boundary_edges, boundary_vertices : ndarray of bool
    vertex_edges : list of list
        Incident edge indices per vertex.
    """

    def __init__(self, vertices, cells, family=Family.IMPORTED, n=None,
                 exact_vertices=None, exact_scale=None):
        self.vertices = np.ascontiguousarray(vertices, dtype=float)
        self.cells = np.ascontiguousarray(cells, dtype=np.int64)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise MeshTopologyError("vertices must have shape (V, 2)")
        if self.cells.ndim != 2 or self.cells.shape[1] != 3:
            raise MeshTopologyError("cells must have shape (C, 3)")
        self.family = family
        self.n = n
        self.exact_vertices = None
        self.exact_scale = exact_scale
        if exact_vertices is not None:
            self.exact_vertices = np.ascontiguousarray(exact_vertices, dtype=np.int64)
            self.exact_vertices.setflags(write=False)
        self._validate_cells()
        self._build_edges()
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
        areas = self.signed_areas()
        if (areas <= 0).any():
            bad = int(np.argmax(areas <= 0))
            kind = "degenerate" if areas[bad] == 0 else "inverted (clockwise)"
            raise MeshTopologyError(f"cell {bad}: {kind}")
        sets = np.sort(self.cells, axis=1)
        _, first, counts = np.unique(sets, axis=0, return_index=True, return_counts=True)
        if (counts > 1).any():
            dup_row = sets[np.sort(first[counts > 1])[0]]
            dup = int(np.nonzero((sets == dup_row).all(axis=1))[0][1])
            raise MeshTopologyError(f"cell {dup}: duplicate of an earlier cell")

    def _build_edges(self):
        C = self.num_cells
        pairs = np.concatenate([self.cells[:, [0, 1]],
                                self.cells[:, [1, 2]],
                                self.cells[:, [2, 0]]])
        forward = pairs[:, 0] < pairs[:, 1]
        pairs = np.sort(pairs, axis=1)
        owner = np.tile(np.arange(C), 3)
        edges, inverse, counts = np.unique(pairs, axis=0,
                                           return_inverse=True, return_counts=True)
        if (counts > 2).any():
            eid = int(np.argmax(counts > 2))
            cells = [int(owner[k]) for k in np.nonzero(inverse == eid)[0]]
            raise MeshTopologyError(
                f"cell {cells[2]}: edge {tuple(edges[eid])} shared by more than two cells")
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
        edge_cells = [[] for _ in range(edges.shape[0])]
        order = np.argsort(inverse, kind="stable")
        for row in order:
            edge_cells[inverse[row]].append(int(owner[row]))
        self.edge_cells = [tuple(c) for c in edge_cells]
        self.boundary_edges = counts == 1
        self.boundary_edges.setflags(write=False)
        bv = np.zeros(self.num_vertices, dtype=bool)
        bv[edges[self.boundary_edges].ravel()] = True
        self.boundary_vertices = bv
        self.boundary_vertices.setflags(write=False)
        vertex_edges = [[] for _ in range(self.num_vertices)]
        for eid, (a, b) in enumerate(edges):
            vertex_edges[a].append(eid)
            vertex_edges[b].append(eid)
        self.vertex_edges = vertex_edges
        # searchable edge keys (edges are lexicographically sorted by unique)
        self._edge_keys = edges[:, 0].astype(np.int64) * self.num_vertices + edges[:, 1]

    def edge_indices(self, a, b):
        """Edge ids for endpoint arrays a, b (order-insensitive)."""
        lo = np.minimum(a, b).astype(np.int64)
        hi = np.maximum(a, b).astype(np.int64)
        keys = lo * self.num_vertices + hi
        idx = np.searchsorted(self._edge_keys, keys)
        if (idx >= self.num_edges) if np.isscalar(idx) else (idx >= self.num_edges).any():
            raise MeshTopologyError("edge lookup failed")
        if not np.array_equal(self._edge_keys[idx], keys):
            raise MeshTopologyError("edge lookup failed")
        return idx


def _grid_id(i, j, n):
    return j * (n + 1) + i


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
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise ValueError(f"n must be an integer, got {n!r}")
    n = int(n)
    if n < 4 or n % 2 != 0:
        raise ValueError(f"n must be even and >= 4, got {n}")

    scale = 2 * n
    exact = [(2 * i, 2 * j) for j in range(n + 1) for i in range(n + 1)]
    cells = []

    if family is Family.CRISSCROSS:
        base = (n + 1) ** 2
        exact += [(2 * i + 1, 2 * j + 1) for j in range(n) for i in range(n)]
        for j in range(n):
            for i in range(n):
                v00 = _grid_id(i, j, n)
                v10 = _grid_id(i + 1, j, n)
                v01 = _grid_id(i, j + 1, n)
                v11 = _grid_id(i + 1, j + 1, n)
                c = base + j * n + i
                cells += [(v00, v10, c), (v10, v11, c), (v11, v01, c), (v01, v00, c)]
    else:
        for j in range(n):
            for i in range(n):
                v00 = _grid_id(i, j, n)
                v10 = _grid_id(i + 1, j, n)
                v01 = _grid_id(i, j + 1, n)
                v11 = _grid_id(i + 1, j + 1, n)
                if _positive_diagonal(family, i, j):
                    cells += [(v00, v10, v11), (v00, v11, v01)]
                else:
                    cells += [(v00, v10, v01), (v10, v11, v01)]

    exact_arr = np.array(exact, dtype=np.int64)
    vertices = exact_arr / float(scale)
    return Triangulation(vertices, np.array(cells, dtype=np.int64), family=family,
                         n=n, exact_vertices=exact_arr, exact_scale=scale)


def _positive_diagonal(family, i, j):
    if family is Family.DIAGONAL:
        return True
    if family is Family.ZIGZAG:
        return j % 2 == 0
    if family is Family.FLIPPED:
        return not (i % 2 == 0 and j % 2 == 0)
    if family is Family.UNIONJACK:
        return (i + j) % 2 == 0
    raise ValueError(family)


@dataclass(frozen=True)
class SingularVertexReport:
    """Interior vertices whose 4 incident edges lie on 2 straight lines."""

    vertices: np.ndarray
    sigma: int


def singular_vertices(mesh):
    """Detect singular interior vertices.

    A vertex is singular when it is interior, has exactly four incident
    edges, and those edges pair up into two distinct straight lines
    through the vertex.  Generated meshes are tested in exact integer
    arithmetic; imported meshes fall back to normalized directions with
    an angular tolerance of 1e-12.

    Returns
    -------
    SingularVertexReport
    """
    exact = mesh.exact_vertices is not None
    found = []
    for v in np.flatnonzero(~mesh.boundary_vertices):
        eids = mesh.vertex_edges[v]
        if len(eids) != 4:
            continue
        nbrs = [int(a) if b == v else int(b) for a, b in mesh.edges[eids]]
        if exact:
            dirs = mesh.exact_vertices[nbrs] - mesh.exact_vertices[v]
            if _two_lines_exact(dirs):
                found.append(v)
        else:
            dirs = mesh.vertices[nbrs] - mesh.vertices[v]
            dirs = dirs / np.linalg.norm(dirs, axis=1, keepdims=True)
            if _two_lines_float(dirs):
                found.append(v)
    return SingularVertexReport(np.array(found, dtype=np.int64), len(found))


def _two_lines_exact(d):
    d = [(int(a), int(b)) for a, b in d]
    return _pair_up(d, lambda p, q: p[0] * q[1] - p[1] * q[0] == 0,
                    lambda p, q: p[0] * q[0] + p[1] * q[1] < 0)


def _two_lines_float(d, tol=1e-12):
    d = [tuple(row) for row in d]
    return _pair_up(d, lambda p, q: abs(p[0] * q[1] - p[1] * q[0]) <= tol,
                    lambda p, q: p[0] * q[0] + p[1] * q[1] < 0)


def _pair_up(dirs, collinear, opposite):
    partners = [j for j in range(1, 4)
                if collinear(dirs[0], dirs[j]) and opposite(dirs[0], dirs[j])]
    if len(partners) != 1:
        return False
    rest = [j for j in range(1, 4) if j != partners[0]]
    p, q = dirs[rest[0]], dirs[rest[1]]
    if not (collinear(p, q) and opposite(p, q)):
        return False
    # the two lines must be distinct
    return not collinear(dirs[0], p)


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

    if get(1) != MESH_HEADER:
        fail(1, f"expected header {MESH_HEADER!r}")
    head = get(2).split()
    if len(head) != 2 or head[0] != "vertices":
        fail(2, "expected 'vertices <count>'")
    try:
        nv = int(head[1])
    except ValueError:
        fail(2, f"bad vertex count {head[1]!r}")
    verts = np.empty((nv, 2), dtype=float)
    for k in range(nv):
        lineno = 3 + k
        parts = get(lineno).split()
        if len(parts) != 2:
            fail(lineno, "expected two coordinates")
        try:
            verts[k] = [float(parts[0]), float(parts[1])]
        except ValueError:
            fail(lineno, f"bad coordinate in {parts!r}")
        if not np.all(np.isfinite(verts[k])):
            fail(lineno, f"non-finite coordinate in {parts!r}")
    lineno = 3 + nv
    head = get(lineno).split()
    if len(head) != 2 or head[0] != "cells":
        fail(lineno, "expected 'cells <count>'")
    try:
        nc = int(head[1])
    except ValueError:
        fail(lineno, f"bad cell count {head[1]!r}")
    cells = np.empty((nc, 3), dtype=np.int64)
    for k in range(nc):
        lineno = 4 + nv + k
        parts = get(lineno).split()
        if len(parts) != 3:
            fail(lineno, "expected three vertex indices")
        try:
            cells[k] = [int(p) for p in parts]
        except ValueError:
            fail(lineno, f"bad vertex index in {parts!r}")
    for extra in range(4 + nv + nc, len(lines) + 1):
        if lines[extra - 1].strip():
            fail(extra, "unexpected trailing content")
    return Triangulation(verts, cells, family=Family.IMPORTED)


def read_mesh(path):
    with open(path, "r", encoding="utf-8") as fh:
        return import_mesh(fh.read())


def write_mesh(mesh, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(export_mesh(mesh))
