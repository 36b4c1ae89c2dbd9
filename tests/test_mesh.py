import hashlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mixedstab.errors import MeshFormatError, MeshTopologyError
from mixedstab.mesh import (Family, GENERATED_FAMILIES, Triangulation,
                            export_mesh, generate, import_mesh, read_mesh,
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
    counts = np.bincount(mesh.cell_edges.ravel())
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


# sha256 of export_mesh(generate(family, n)).  The vertex and cell order
# fix the DOF numbering, and through the LU orderings the last bits of
# every printed number, so a rewrite of generate must keep them.
MESH_SHA256 = {
    ("diagonal", 4): "92cce8a7d2844a1a70fa5539e1eaa820288e993287d84ce053db96e623358ca2",
    ("diagonal", 16): "1ce3310fc05c78c88d6b2b74d19bc7968e69deda32272b1cea78311cb628faa9",
    ("flipped", 4): "9f1662cb4847db2041a2c2e0b70c9d86c4d31ca4d3f7d562477af101917d6e1a",
    ("flipped", 16): "d1ce8a77e2f0bbc668025954f95f9d9e9c21d67001b69f88e6336b419cfd7b75",
    ("zigzag", 4): "7cb65d58f843df6dc8060aa5237c2c5401077dcb875136c7b30fa21e9ff14a2b",
    ("zigzag", 16): "b06264c541436603f780bf9157602cebbf004934d602e419471d909596ab785a",
    ("crisscross", 4): "f7466eb9b769ce442692a71e09a59fe5370dbcb52924c42f82e130c016a93a4c",
    ("crisscross", 16): "cbd11694b6a9e3a3244d62e767888fd1ccb95f76c7ba659c57475799d28e5adf",
    ("unionjack", 4): "5b8172cee528d25d52f20be1168774b7f3a0b936d42eb1bca31f4a35dd5bd64d",
    ("unionjack", 16): "1a35b0cdf507c6a28ef376d4ba2f101732262ffbcec6419af4b28517e632bc03",
}


@pytest.mark.parametrize("family, n", sorted(MESH_SHA256))
def test_generated_mesh_bytes_are_pinned(family, n):
    text = export_mesh(generate(family, n))
    assert hashlib.sha256(text.encode()).hexdigest() == MESH_SHA256[family, n]


@pytest.mark.parametrize("family", GENERATED_FAMILIES)
def test_singular_vertex_counts(family):
    for n in range(4, 17, 2):
        sigma = singular_vertices(generate(family, n)).size
        assert sigma == expected_sigma(family, n), (family, n)


def test_singular_vertices_are_interior():
    mesh = generate(Family.CRISSCROSS, 4)
    singular = singular_vertices(mesh)
    assert not mesh.boundary_vertices[singular].any()
    # crisscross: exactly the appended cell-center vertices, ascending
    assert np.array_equal(singular, np.arange(25, 41))


def test_float_detection_matches_exact(relabel):
    # import drops the exact integer coordinates, forcing the float path;
    # a relabelling moves each singular vertex v to vperm[v]
    for family in GENERATED_FAMILIES:
        mesh = generate(family, 6)
        singular = singular_vertices(mesh)
        imported = import_mesh(export_mesh(mesh))
        assert imported.exact_vertices is None
        assert np.array_equal(singular_vertices(imported), singular)
        image, vperm = relabel(mesh)
        assert np.array_equal(singular_vertices(image), np.sort(vperm[singular]))


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
    for count in ("9999", "-1", "100000000000"):
        lines[1] = f"vertices {count}"
        with pytest.raises(MeshFormatError, match="line 2: vertex count"):
            import_mesh("\n".join(lines) + "\n")


def test_import_rejects_bad_cell_count():
    lines = simple_mesh_text().splitlines()
    at = lines.index("cells 32")
    for count in ("33", "-2", "100000000000"):
        lines[at] = f"cells {count}"
        with pytest.raises(MeshFormatError, match=f"line {at + 1}: cell count"):
            import_mesh("\n".join(lines) + "\n")


@pytest.mark.parametrize("token", ["nan", "inf"])
def test_import_rejects_non_finite_coordinates(token):
    lines = simple_mesh_text().splitlines()
    lines[3] = f"{token} 0.0"
    with pytest.raises(MeshFormatError, match="line 4: non-finite"):
        import_mesh("\n".join(lines) + "\n")


def test_import_names_the_first_non_finite_vertex_line():
    lines = simple_mesh_text().splitlines()
    lines[20] = "0.5 nan"
    lines[15] = "-inf 0.25"
    with pytest.raises(MeshFormatError,
                       match=r"^line 16: non-finite coordinate in \['-inf', '0.25'\]$"):
        import_mesh("\n".join(lines) + "\n")
    lines[15] = "0.25 0.75"
    with pytest.raises(MeshFormatError, match="^line 21: non-finite coordinate"):
        import_mesh("\n".join(lines) + "\n")
    # a later malformed line does not hide the earlier non-finite one
    for later in ("0.5", "0.5 x"):
        lines[22] = later
        with pytest.raises(MeshFormatError, match="^line 21: non-finite coordinate"):
            import_mesh("\n".join(lines) + "\n")
    lines[20] = "0.5 0.5"
    with pytest.raises(MeshFormatError, match="^line 23: "):
        import_mesh("\n".join(lines) + "\n")


@pytest.mark.parametrize("token", ["x", "1e3", "99999999999999999999"])
def test_import_rejects_a_bad_vertex_index(token):
    # the long integer overflows the int64 cell array
    lines = simple_mesh_text().splitlines()
    assert lines[28] == "0 1 6"
    lines[28] = f"0 1 {token}"
    with pytest.raises(MeshFormatError,
                       match=rf"^line 29: bad vertex index in \['0', '1', '{token}'\]$"):
        import_mesh("\n".join(lines) + "\n")


def test_read_mesh_refuses_text_that_is_not_utf8(tmp_path):
    path = tmp_path / "bad.mesh"
    lines = simple_mesh_text().encode().splitlines()
    lines[3] = b"0.25 \xff"
    path.write_bytes(b"\n".join(lines) + b"\n")
    with pytest.raises(MeshFormatError, match="^line 4: not UTF-8 text$"):
        read_mesh(path)


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


def test_cell_area_that_overflows_rejected():
    # coordinates of 1e160 are finite, but their products overflow, so the
    # signed areas are inf; the refusal is the only message, with no numpy
    # warning before it
    mesh = generate(Family.DIAGONAL, 4)
    lines = export_mesh(mesh).splitlines()
    lines[2:2 + mesh.num_vertices] = [f"{x * 1e160:.17g} {y * 1e160:.17g}"
                                      for x, y in mesh.vertices]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MeshTopologyError,
                           match="^cell 0: signed area inf is not finite$"):
            import_mesh("\n".join(lines) + "\n")


def test_duplicate_cell_rejected():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    cells = np.array([[0, 1, 2], [1, 2, 0]])
    with pytest.raises(MeshTopologyError, match="cell 1: duplicate"):
        Triangulation(verts, cells)


def test_duplicate_cell_message_names_the_earliest_repeated_cell():
    # the repeated cell reported is the second copy of the vertex set that
    # occurs first, whatever the order of the copies or their rotation
    base = generate(Family.DIAGONAL, 4)
    cells = base.cells
    for extra, bad in (([cells[5], cells[2]], 33),
                       ([cells[5], np.roll(cells[2], 1), cells[2], cells[5]], 33),
                       ([cells[0]], 32)):
        with pytest.raises(MeshTopologyError,
                           match=f"^cell {bad}: duplicate of an earlier cell$"):
            Triangulation(base.vertices, np.concatenate([cells, extra]))


FOLDED_MESH = ("mesh 2 triangle\nvertices 5\n0.0 0.0\n1.0 0.0\n0.0 1.0\n"
               "1.0 1.0\n0.2 0.6\ncells 3\n0 1 2\n1 3 2\n0 1 4\n")


def test_overlapping_cells_rejected():
    # cells 0 and 2 both run along edge (0, 1) from 0 to 1: cell 2 folds
    # over cell 0, and the cells cover area 1.3 of the unit square
    with pytest.raises(MeshTopologyError, match="cell 2: overlaps"):
        import_mesh(FOLDED_MESH)


def test_hanging_vertex_rejected():
    # vertex 4 sits at the midpoint of edge (0, 3) of cell 2, whose other
    # side is split into the edges (0, 4) and (4, 3) of cells 0 and 1
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0],
                      [0.5, 0.5]])
    cells = np.array([[0, 1, 4], [1, 3, 4], [0, 3, 2]])
    with pytest.raises(MeshTopologyError,
                       match=r"cell 2: vertex 4 hangs inside its boundary "
                             r"edge \(0, 3\)"):
        Triangulation(verts, cells)


def test_vertex_in_no_cell_rejected():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0],
                      [0.5, 2.0]])
    cells = np.array([[0, 1, 2], [1, 3, 2]])
    with pytest.raises(MeshTopologyError) as info:
        Triangulation(verts, cells)
    assert str(info.value) == "vertex 4 belongs to no cell"


def test_edge_shared_by_three_cells_message():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.5, -1.0],
                      [0.3, 0.8]])
    cells = np.array([[0, 1, 2], [1, 0, 3], [0, 1, 4]])
    with pytest.raises(MeshTopologyError) as info:
        Triangulation(verts, cells)
    assert str(info.value) == "cell 2: edge (0, 1) shared by more than two cells"


@pytest.mark.parametrize("family", GENERATED_FAMILIES)
@pytest.mark.parametrize("n", [4, 8, 16])
def test_generated_meshes_pass_the_hanging_vertex_check(family, n):
    # the boundary vertices on each side of the square are collinear with
    # every boundary edge of that side, but none lies strictly inside one
    mesh = generate(family, n)
    assert np.count_nonzero(mesh.boundary_edges) == 4 * n


def test_edge_lookup():
    # local edge k of a cell runs from local vertex k to (k + 1) % 3, and
    # cell_edges names the row of edges holding its sorted endpoints
    mesh = generate(Family.DIAGONAL, 4)
    ends = np.stack([mesh.cells, np.roll(mesh.cells, -1, axis=1)], axis=2)
    assert np.array_equal(mesh.edges[mesh.cell_edges], np.sort(ends, axis=2))
