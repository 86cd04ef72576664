"""Reference-element tests: quadrature, shape functions, dof maps, interpolation.

Exact monomial integrals over the unit right triangle come from
int x^a y^b dA = a! b! / (a+b+2)!, derived independently of the assembly code.
"""
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from biotsplit.assembly import PhysParams
from biotsplit.biot import LoadSet, build_system
from biotsplit.fem import (
    Space,
    affine_maps,
    edge_quadrature,
    eval_basis,
    interpolate,
    quadrature,
)
from biotsplit.mesh import DIRICHLET_TAGS, build_uniform, refine

from helpers import evaluate, signed_areas


def tri_monomial(a, b):
    return math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)


# pin a few values by hand as a sanity check on the formula itself
assert tri_monomial(0, 0) == 0.5
assert tri_monomial(2, 1) == pytest.approx(1 / 60)
assert tri_monomial(3, 2) == pytest.approx(1 / 420)


def quad_integral(rule, a, b):
    x, y = rule.points[:, 0], rule.points[:, 1]
    return float(rule.weights @ (x ** a * y ** b))


def test_quadrature_weights_sum_to_area():
    rule = quadrature()
    assert rule.weights.sum() == pytest.approx(0.5, abs=1e-15)
    assert (rule.weights > 0).all()


def test_quadrature_exact_to_declared_degree():
    rule = quadrature()
    assert rule.degree == 5
    for a in range(rule.degree + 1):
        for b in range(rule.degree + 1 - a):
            assert quad_integral(rule, a, b) == pytest.approx(
                tri_monomial(a, b), abs=1e-15), (a, b)


def test_quadrature_frozen_values():
    rule = quadrature()
    assert quad_integral(rule, 0, 0) == pytest.approx(0.5, abs=1e-15)
    assert quad_integral(rule, 2, 1) == pytest.approx(1 / 60, abs=1e-15)
    assert quad_integral(rule, 3, 2) == pytest.approx(1 / 420, abs=1e-15)


def test_default_rule_not_exact_beyond_degree_five():
    # x^6 integrates to 1/56; a degree-5 rule must miss it by a visible margin.
    rule = quadrature()
    assert abs(quad_integral(rule, 6, 0) - 1 / 56) > 1e-6


def test_edge_quadrature_exact_to_degree_nine():
    nodes, weights = edge_quadrature()
    assert nodes.min() > 0 and nodes.max() < 1
    for k in range(10):
        assert weights @ nodes ** k == pytest.approx(1 / (k + 1), abs=1e-15), k
    # degree 10 is beyond a 5-point Gauss rule
    assert abs(weights @ nodes ** 10 - 1 / 11) > 1e-10


def test_edge_quadrature_is_numpys_gauss_rule():
    # written out without numpy.polynomial, the rule keeps every bit of numpy's
    nodes, weights = np.polynomial.legendre.leggauss(5)
    got_nodes, got_weights = edge_quadrature()
    assert got_nodes.tobytes() == ((nodes + 1.0) / 2.0).tobytes()
    assert got_weights.tobytes() == (weights / 2.0).tobytes()


point_in_triangle = st.tuples(
    st.floats(0, 1), st.floats(0, 1)
).map(lambda t: (t[0], t[1] * (1 - t[0])))


@given(pt=point_in_triangle)
def test_partition_of_unity(pt):
    for kind in ("p1", "p2"):
        values, grads = eval_basis(kind, np.array([pt]))
        assert values.sum(axis=0) == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(grads.sum(axis=0), 0.0, atol=1e-12)


def test_basis_is_nodal():
    # shape function i equals 1 at node i, 0 at the others
    nodes_p1 = np.array([[0, 0], [1, 0], [0, 1]], dtype=float)
    nodes_p2 = np.vstack([nodes_p1, [[0.5, 0.5], [0.0, 0.5], [0.5, 0.0]]])
    for kind, nodes in (("p1", nodes_p1), ("p2", nodes_p2)):
        values, _ = eval_basis(kind, nodes)
        np.testing.assert_allclose(values, np.eye(len(nodes)), atol=1e-14)


@given(pt=point_in_triangle)
def test_p2_reproduces_quadratics(pt):
    def q(x, y):
        return 1.0 + 2 * x - 3 * y + 4 * x * x - 5 * x * y + 6 * y * y

    nodes = np.array([[0, 0], [1, 0], [0, 1], [0.5, 0.5], [0.0, 0.5], [0.5, 0.0]])
    coeffs = q(nodes[:, 0], nodes[:, 1])
    values, grads = eval_basis("p2", np.array([pt]))
    x, y = pt
    assert coeffs @ values[:, 0] == pytest.approx(q(x, y), abs=1e-12)
    assert coeffs @ grads[:, 0, 0] == pytest.approx(2 + 8 * x - 5 * y, abs=1e-12)
    assert coeffs @ grads[:, 0, 1] == pytest.approx(-3 - 5 * x + 12 * y, abs=1e-12)


def test_eval_basis_rejects_unknown_kind():
    with pytest.raises(ValueError):
        eval_basis("p3", np.array([[0.3, 0.3]]))


def test_affine_maps_geometry():
    mesh = build_uniform(3)
    jac, inv_t, det = affine_maps(mesh)
    assert (det > 0).all()
    np.testing.assert_allclose(det, 2 * signed_areas(mesh), atol=1e-15)
    # inv_t is the inverse transpose, so J^T @ inv_t = I
    prod = np.einsum("tji,tjk->tik", jac, inv_t)
    np.testing.assert_allclose(prod, np.broadcast_to(np.eye(2), prod.shape),
                               atol=1e-13)


def test_space_dof_counts():
    mesh = build_uniform(4)
    nv, ne = mesh.num_vertices, mesh.num_edges
    assert Space(mesh, "p1").num_dofs == nv
    assert Space(mesh, "p2").num_dofs == nv + ne
    assert Space(mesh, "p2-vector").num_dofs == 2 * (nv + ne)
    assert Space(mesh, "p2-vector").components == 2


def test_space_rejects_bad_inputs():
    mesh = build_uniform(2)
    with pytest.raises(ValueError):
        Space(mesh, "p7")


def test_p2_cell_dofs_layout():
    mesh = build_uniform(3)
    space = Space(mesh, "p2")
    dofs = space.cell_dofs()
    assert dofs.shape == (mesh.num_triangles, 6)
    np.testing.assert_array_equal(dofs[:, :3], mesh.triangles)
    np.testing.assert_array_equal(dofs[:, 3:], mesh.num_vertices + mesh.tri_edges)
    # every global dof appears in at least one cell
    assert np.unique(dofs).size == space.num_dofs


def test_p2_dof_coords_are_vertices_then_midpoints():
    mesh = build_uniform(2)
    coords = Space(mesh, "p2").dof_coords()
    np.testing.assert_array_equal(coords[: mesh.num_vertices], mesh.vertices)
    mids = 0.5 * (mesh.vertices[mesh.edges[:, 0]] + mesh.vertices[mesh.edges[:, 1]])
    np.testing.assert_allclose(coords[mesh.num_vertices:], mids, atol=1e-15)


def test_boundary_scalar_dofs_count():
    n = 4
    mesh = build_uniform(n)
    # one side: n+1 vertices for P1; plus n edge midpoints for P2
    assert Space(mesh, "p1").boundary_scalar_dofs((1,)).size == n + 1
    assert Space(mesh, "p2").boundary_scalar_dofs((1,)).size == 2 * n + 1
    # two opposite sides don't share nodes
    assert Space(mesh, "p2").boundary_scalar_dofs((1, 3)).size == 2 * (2 * n + 1)


def test_boundary_scalar_dofs_are_the_edge_map_entries():
    mesh = refine(build_uniform(3))
    for kind in ("p1", "p2"):
        space = Space(mesh, kind)
        coords = space.dof_coords()
        edge_dofs = space.boundary_edge_dofs()
        np.testing.assert_array_equal(edge_dofs[:, :2], mesh.boundary_edges)
        if kind == "p2":
            np.testing.assert_allclose(coords[edge_dofs[:, 2]],
                                       coords[edge_dofs[:, :2]].mean(axis=1), atol=1e-15)
        for tags in ((1,), (1, 3), (2, 4)):
            on = np.isin(mesh.boundary_tags, tags)
            np.testing.assert_array_equal(space.boundary_scalar_dofs(tags),
                                          np.unique(edge_dofs[on]))
        # the Dirichlet sides x = 0 and x = 1 hold exactly these nodes
        on_sides = np.flatnonzero((coords[:, 0] == 0.0) | (coords[:, 0] == 1.0))
        np.testing.assert_array_equal(space.boundary_scalar_dofs(DIRICHLET_TAGS), on_sides)

    system = build_system(mesh, PhysParams(), LoadSet())
    scalar = Space(mesh, "p2").boundary_scalar_dofs(DIRICHLET_TAGS)
    np.testing.assert_array_equal(
        system.bd_u, np.concatenate([scalar, scalar + system.V.num_scalar_dofs]))
    np.testing.assert_array_equal(system.bd_p,
                                  Space(mesh, "p1").boundary_scalar_dofs(DIRICHLET_TAGS))


def test_interpolate_scalar_exact_for_quadratic():
    mesh = build_uniform(3)
    space = Space(mesh, "p2")

    def q(x, y):
        return 0.5 - x + 2 * y + x * y - y * y

    field = interpolate(space, q)
    rng = np.random.default_rng(7)
    pts = rng.random((20, 2))
    np.testing.assert_allclose(evaluate(space, field, pts), q(pts[:, 0], pts[:, 1]),
                               atol=1e-12)


def test_interpolate_vector_layout_and_values():
    mesh = build_uniform(2)
    space = Space(mesh, "p2-vector")
    field = interpolate(space, lambda x, y: (x + y, x - y))
    coords = space.dof_coords()
    n = space.num_scalar_dofs
    np.testing.assert_allclose(field[:n], coords[:, 0] + coords[:, 1])
    np.testing.assert_allclose(field[n:], coords[:, 0] - coords[:, 1])
    np.testing.assert_allclose(field.reshape(2, -1)[1], field[n:])
    pts = np.array([[0.25, 0.7], [0.8, 0.1]])
    out = evaluate(space, field, pts)
    np.testing.assert_allclose(out[:, 0], pts[:, 0] + pts[:, 1], atol=1e-13)
    np.testing.assert_allclose(out[:, 1], pts[:, 0] - pts[:, 1], atol=1e-13)


def test_evaluate_outside_mesh_raises():
    space = Space(build_uniform(2), "p1")
    field = interpolate(space, lambda x, y: x)
    with pytest.raises(ValueError):
        evaluate(space, field, np.array([[1.5, 0.5]]))
