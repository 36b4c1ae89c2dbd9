import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mixedstab.errors import MeshFormatError, MeshTopologyError
from mixedstab.mesh import (Family, GENERATED_FAMILIES, Triangulation,
                            export_mesh, generate, import_mesh,
                            singular_vertices)

families = st.sampled_from(GENERATED_FAMILIES)
sizes = st.sampled_from([4, 6, 8, 10])


def expected_sigma(family, n):
    if family is Family.CRISSCROSS:
        return n * n
    if family is Family.UNIONJACK:
        return n * (n - 2) // 2
    return 0


@given(families, sizes)
@settings(max_examples=25, deadline=None)
def test_generated_mesh_invariants(family, n):
    mesh = generate(family, n)
    crisscross = family is Family.CRISSCROSS
    assert len(mesh.vertices) == (n + 1) ** 2 + (n * n if crisscross else 0)
    assert len(mesh.cells) == (4 if crisscross else 2) * n * n
    areas = mesh.signed_areas()
    assert np.all(areas > 0)
    assert abs(areas.sum() - 1.0) < 1e-12
    # Euler characteristic of a disk: V - E + F = 1
    assert len(mesh.vertices) - len(mesh.edges) + len(mesh.cells) == 1
    # every edge belongs to one or two cells, boundary edges to one
    counts = np.array([len(c) for c in mesh.edge_cells])
    assert set(counts) <= {1, 2}
    assert np.count_nonzero(counts == 1) == np.count_nonzero(mesh.boundary_edges)


def test_frozen_mesh_sizes():
    diag = generate(Family.DIAGONAL, 4)
    assert (len(diag.cells), len(diag.vertices)) == (32, 25)
    cc = generate(Family.CRISSCROSS, 4)
    assert (len(cc.cells), len(cc.vertices)) == (64, 41)
    uj = generate(Family.UNIONJACK, 6)
    assert (len(uj.cells), len(uj.vertices)) == (72, 49)


def test_vertex_ordering_rowwise():
    n = 4
    mesh = generate(Family.DIAGONAL, n)
    for j in range(n + 1):
        for i in range(n + 1):
            assert np.allclose(mesh.vertices[j * (n + 1) + i], [i / n, j / n])


@pytest.mark.parametrize("family", GENERATED_FAMILIES)
def test_singular_vertex_counts(family):
    for n in range(4, 17, 2):
        rep = singular_vertices(generate(family, n))
        assert rep.sigma == expected_sigma(family, n), (family, n)


def test_singular_vertices_are_interior():
    mesh = generate(Family.CRISSCROSS, 4)
    rep = singular_vertices(mesh)
    assert not mesh.boundary_vertices[rep.vertices].any()
    # crisscross: exactly the appended cell-center vertices
    assert set(rep.vertices) == set(range(25, 41))


def test_float_detection_matches_exact():
    # import drops the exact integer coordinates, forcing the float path
    for family in (Family.CRISSCROSS, Family.UNIONJACK, Family.ZIGZAG):
        mesh = generate(family, 6)
        imported = import_mesh(export_mesh(mesh))
        assert imported.exact_vertices is None
        assert singular_vertices(imported).sigma == singular_vertices(mesh).sigma


def test_export_import_round_trip():
    mesh = generate(Family.FLIPPED, 6)
    imported = import_mesh(export_mesh(mesh))
    assert np.array_equal(imported.vertices, mesh.vertices)
    assert np.array_equal(imported.cells, mesh.cells)
    assert imported.family is Family.IMPORTED
    assert imported.n is None
    # byte-stable export
    assert export_mesh(imported) == export_mesh(mesh)


@given(families, sizes)
@settings(max_examples=10, deadline=None)
def test_round_trip_any_family(family, n):
    mesh = generate(family, n)
    imported = import_mesh(export_mesh(mesh))
    assert np.array_equal(imported.vertices, mesh.vertices)
    assert np.array_equal(imported.cells, mesh.cells)


@pytest.mark.parametrize("n", [3, 5, 2, 0, -4])
def test_generate_rejects_bad_n(n):
    with pytest.raises(ValueError):
        generate(Family.DIAGONAL, n)


def test_family_parse():
    assert Family.parse("unionjack") is Family.UNIONJACK
    assert Family.parse("Diagonal") is Family.DIAGONAL
    with pytest.raises(ValueError):
        Family.parse("hexagon")


def simple_mesh_text():
    return export_mesh(generate(Family.DIAGONAL, 4))


def test_import_rejects_bad_header():
    text = simple_mesh_text().replace("mesh 2 triangle", "mesh 3 tetra")
    with pytest.raises(MeshFormatError):
        import_mesh(text)


def test_import_rejects_bad_vertex_count():
    lines = simple_mesh_text().splitlines()
    lines[1] = "vertices 9999"
    with pytest.raises(MeshFormatError):
        import_mesh("\n".join(lines) + "\n")


@pytest.mark.parametrize("token", ["nan", "inf"])
def test_import_rejects_non_finite_coordinates(token):
    lines = simple_mesh_text().splitlines()
    lines[3] = f"{token} 0.0"
    with pytest.raises(MeshFormatError, match="line 4: non-finite"):
        import_mesh("\n".join(lines) + "\n")


def test_import_rejects_trailing_garbage():
    with pytest.raises(MeshFormatError):
        import_mesh(simple_mesh_text() + "stray line\n")


def test_import_rejects_out_of_range_cell():
    text = ("mesh 2 triangle\nvertices 3\n0.0 0.0\n1.0 0.0\n0.0 1.0\n"
            "cells 1\n0 1 5\n")
    with pytest.raises((MeshFormatError, MeshTopologyError)):
        import_mesh(text)


def test_degenerate_cell_rejected():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(MeshTopologyError, match="cell 0"):
        Triangulation(verts, np.array([[0, 1, 2]]))


def test_inverted_cell_rejected():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(MeshTopologyError, match="clockwise"):
        Triangulation(verts, np.array([[0, 2, 1]]))


def test_duplicate_cell_rejected():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    cells = np.array([[0, 1, 2], [1, 2, 0]])
    with pytest.raises(MeshTopologyError):
        Triangulation(verts, cells)


FOLDED_MESH = ("mesh 2 triangle\nvertices 5\n0.0 0.0\n1.0 0.0\n0.0 1.0\n"
               "1.0 1.0\n0.2 0.6\ncells 3\n0 1 2\n1 3 2\n0 1 4\n")


def test_overlapping_cells_rejected():
    # cells 0 and 2 both run along edge (0, 1) from 0 to 1: cell 2 folds
    # over cell 0, and the cells cover area 1.3 of the unit square
    with pytest.raises(MeshTopologyError, match="cell 2: overlaps"):
        import_mesh(FOLDED_MESH)


def test_edge_lookup():
    mesh = generate(Family.DIAGONAL, 4)
    a, b = mesh.edges[7]
    assert mesh.edge_indices(np.array([a]), np.array([b]))[0] == 7
    assert mesh.edge_indices(np.array([b]), np.array([a]))[0] == 7
