import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biotsplit.mesh import (
    BOTTOM,
    LEFT,
    RIGHT,
    TOP,
    TriMesh,
    build_uniform,
    refine,
)

from helpers import mesh_size, signed_areas


def test_single_cell_counts():
    mesh = build_uniform(1)
    assert mesh.num_vertices == 4
    assert mesh.num_triangles == 2
    assert len(mesh.boundary_edges) == 4


def test_two_cell_counts():
    mesh = build_uniform(2)
    assert mesh.num_vertices == 9
    assert mesh.num_triangles == 8
    assert len(mesh.boundary_edges) == 8


@given(st.integers(min_value=1, max_value=12))
@settings(deadline=None)
def test_uniform_counts(n):
    mesh = build_uniform(n)
    assert mesh.num_vertices == (n + 1) ** 2
    assert mesh.num_triangles == 2 * n * n
    assert len(mesh.boundary_edges) == 4 * n


def test_positive_areas_sum_to_domain():
    mesh = build_uniform(5)
    areas = signed_areas(mesh)
    assert (areas > 0).all()
    np.testing.assert_allclose(areas.sum(), 1.0, rtol=1e-14)
    # uniform split: every triangle has the same area
    np.testing.assert_allclose(areas, areas[0], rtol=1e-13)


def test_boundary_tags_match_geometry():
    for mesh, n in ((build_uniform(3), 3), (refine(build_uniform(3)), 6)):
        for edge, tag in zip(mesh.boundary_edges, mesh.boundary_tags):
            pts = mesh.vertices[edge]
            if tag == RIGHT:
                np.testing.assert_allclose(pts[:, 0], 1.0)
            elif tag == BOTTOM:
                np.testing.assert_allclose(pts[:, 1], 0.0)
            elif tag == LEFT:
                np.testing.assert_allclose(pts[:, 0], 0.0)
            elif tag == TOP:
                np.testing.assert_allclose(pts[:, 1], 1.0)
            else:
                pytest.fail(f"unknown tag {tag}")
        # each side is covered by exactly n edges
        counts = np.bincount(mesh.boundary_tags, minlength=5)
        assert counts[1:].tolist() == [n, n, n, n]


def test_boundary_edge_ids_index_the_sorted_edges():
    for mesh in (build_uniform(3), refine(refine(build_uniform(2)))):
        np.testing.assert_array_equal(mesh.edges[mesh.boundary_edge_ids],
                                      np.sort(mesh.boundary_edges, axis=1))


def test_edge_sharing():
    mesh = build_uniform(4)
    edges = mesh.edges
    tri_edges = mesh.tri_edges
    use = np.bincount(tri_edges.ravel(), minlength=len(edges))
    boundary = set(map(tuple, np.sort(mesh.boundary_edges, axis=1)))
    for eid, (count, edge) in enumerate(zip(use, edges)):
        if tuple(edge) in boundary:
            assert count == 1
        else:
            assert count == 2


def test_refine_counts_and_tags():
    mesh = build_uniform(3)
    fine = refine(mesh)
    assert fine.num_triangles == 4 * mesh.num_triangles
    assert len(fine.boundary_edges) == 2 * len(mesh.boundary_edges)
    counts = np.bincount(fine.boundary_tags, minlength=5)
    assert counts[1:].tolist() == [6, 6, 6, 6]


def test_refine_reproduces_doubled_mesh():
    fine = refine(build_uniform(8))
    direct = build_uniform(16)
    assert fine.num_vertices == direct.num_vertices
    assert fine.num_triangles == direct.num_triangles
    a = np.array(sorted(map(tuple, np.round(fine.vertices, 12))))
    b = np.array(sorted(map(tuple, np.round(direct.vertices, 12))))
    np.testing.assert_array_equal(a, b)


def test_h_halves_under_refinement():
    mesh = build_uniform(4)
    np.testing.assert_allclose(mesh_size(refine(mesh)), mesh_size(mesh) / 2, rtol=1e-14)


def test_refined_areas_positive():
    mesh = refine(refine(build_uniform(2)))
    assert (signed_areas(mesh) > 0).all()


def test_build_uniform_rejects_bad_n():
    with pytest.raises(ValueError):
        build_uniform(0)


# ---------------------------------------------------------------------------
# the mesh is an immutable value
# ---------------------------------------------------------------------------

def jittered(n, seed=7):
    """build_uniform(n) with its interior vertices moved by up to h/4."""
    mesh = build_uniform(n)
    vertices = mesh.vertices.copy()
    inner = np.all((vertices > 1e-12) & (vertices < 1 - 1e-12), axis=1)
    rng = np.random.default_rng(seed)
    vertices[inner] += rng.uniform(-0.25 / n, 0.25 / n, size=(int(inner.sum()), 2))
    return TriMesh(vertices, mesh.triangles, mesh.boundary_edges, mesh.boundary_tags)


def test_mesh_arrays_are_read_only():
    mesh = build_uniform(3)
    for name in ("vertices", "triangles", "boundary_edges", "boundary_tags",
                 "edges", "tri_edges", "boundary_edge_ids"):
        array = getattr(mesh, name)
        with pytest.raises(ValueError, match="read-only"):
            array[0] = array[0]
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(mesh, name, array.copy())


def test_mesh_keeps_its_own_copy_of_the_arrays():
    source = build_uniform(3)
    vertices, tags = source.vertices.copy(), source.boundary_tags.copy()
    mesh = TriMesh(vertices, source.triangles, source.boundary_edges, tags)
    before = hash(mesh)
    vertices[5] += 0.05
    tags[0] = 4
    assert mesh == source and hash(mesh) == before == hash(source)
    np.testing.assert_array_equal(mesh.vertices, source.vertices)
    np.testing.assert_array_equal(mesh.boundary_tags, source.boundary_tags)


def test_meshes_are_equal_by_content():
    a, b = build_uniform(3), build_uniform(3)
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != build_uniform(4)
    vertices = a.vertices.copy()
    vertices[5] += 0.05  # same shapes, one vertex moved
    assert a != TriMesh(vertices, a.triangles, a.boundary_edges, a.boundary_tags)
    tags = a.boundary_tags.copy()
    tags[0] = TOP  # same shapes, one side tag changed
    assert a != TriMesh(a.vertices, a.triangles, a.boundary_edges, tags)
    assert a != TriMesh(a.vertices, a.triangles.astype(np.int32), a.boundary_edges,
                        a.boundary_tags)  # same values, another dtype


def lexicographic_edge_tables(mesh):
    """The edge tables by a lexicographic unique of the sorted vertex pairs."""
    tri = mesh.triangles
    pairs = np.sort(np.concatenate([tri[:, [1, 2]], tri[:, [2, 0]], tri[:, [0, 1]]]), axis=1)
    edges, inverse = np.unique(pairs, axis=0, return_inverse=True)
    nv = mesh.num_vertices
    keys = edges[:, 0] * nv + edges[:, 1]
    lo, hi = np.sort(mesh.boundary_edges, axis=1).T
    return edges, inverse.reshape(3, -1).T, np.searchsorted(keys, lo * nv + hi)


def test_edge_tables_match_the_lexicographic_formula():
    chain = [build_uniform(2)]
    for _ in range(3):
        chain.append(refine(chain[-1]))
    for mesh in [build_uniform(n) for n in range(1, 9)] + chain + [jittered(5)]:
        tables = (mesh.edges, mesh.tri_edges, mesh.boundary_edge_ids)
        for got, want in zip(tables, lexicographic_edge_tables(mesh)):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
