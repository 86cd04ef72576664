import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biotsplit.mesh import (
    BOTTOM,
    LEFT,
    RIGHT,
    TOP,
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
