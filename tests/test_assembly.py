"""Assembly oracles: element matrices by hand, energies of polynomial fields.

All exact values are derived independently (hand integration or sympy), then
compared against the assembled sparse matrices.
"""
import numpy as np
import pytest
import scipy.io
import scipy.sparse.linalg as spla

from biotsplit.assembly import (
    BOUNDARY_FLUX,
    BOUNDARY_TRACTION,
    DIV_COUPLING,
    DIV_DIV,
    ELASTICITY,
    MASS,
    P_STIFFNESS,
    VOLUME_LOAD,
    PhysParams,
    assemble_form,
    assemble_functional,
    constrain_matrix,
    constrain_rhs,
    dirichlet_columns,
    dirichlet_values,
    export_matrix,
)
from biotsplit.fem import Space, interpolate
from biotsplit.mesh import BOTTOM, TOP, TriMesh, build_uniform


def unit_triangle():
    """Mesh holding only the reference triangle {(0,0), (1,0), (0,1)}."""
    return TriMesh(
        vertices=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
        triangles=np.array([[0, 1, 2]]),
        boundary_edges=np.array([[0, 1], [1, 2], [2, 0]]),
        boundary_tags=np.array([2, 1, 3]),
    )


def test_p1_mass_element_matrix():
    # area A = 1/2: M = A/12 * [[2,1,1],[1,2,1],[1,1,2]]
    space = Space(unit_triangle(), "p1")
    M = assemble_form(MASS, space, space).toarray()
    expect = np.array([[2, 1, 1], [1, 2, 1], [1, 1, 2]]) / 24.0
    np.testing.assert_allclose(M, expect, atol=1e-14)


def test_p1_stiffness_element_matrix():
    # gradients (-1,-1), (1,0), (0,1) and area 1/2
    space = Space(unit_triangle(), "p1")
    K = assemble_form(P_STIFFNESS, space, space).toarray()
    expect = np.array([[1.0, -0.5, -0.5], [-0.5, 0.5, 0.0], [-0.5, 0.0, 0.5]])
    np.testing.assert_allclose(K, expect, atol=1e-14)


def test_p2_mass_matches_symbolic_integration():
    import sympy as sp

    x, y = sp.symbols("x y")
    l0, l1, l2 = 1 - x - y, x, y
    basis = [l0 * (2 * l0 - 1), l1 * (2 * l1 - 1), l2 * (2 * l2 - 1),
             4 * l1 * l2, 4 * l2 * l0, 4 * l0 * l1]
    local = np.array([
        [float(sp.integrate(bi * bj, (y, 0, 1 - x), (x, 0, 1)))
         for bj in basis] for bi in basis])

    space = Space(unit_triangle(), "p2")
    M = assemble_form(MASS, space, space).toarray()
    dofs = space.cell_dofs()[0]
    np.testing.assert_allclose(M[np.ix_(dofs, dofs)], local, atol=1e-14)


def test_mass_total_sums_to_domain_area():
    mesh = build_uniform(3)
    for kind in ("p1", "p2"):
        space = Space(mesh, kind)
        M = assemble_form(MASS, space, space)
        assert M.sum() == pytest.approx(1.0, abs=1e-13)


def test_stiffness_annihilates_constants():
    space = Space(build_uniform(3), "p2")
    K = assemble_form(P_STIFFNESS, space, space)
    np.testing.assert_allclose(K @ np.ones(space.num_dofs), 0.0, atol=1e-13)


def test_elasticity_energy_of_quadratic_field():
    # u = (x^2, x*y): eps:eps = 5x^2 + y^2/2, integral over the square 11/6
    space = Space(build_uniform(4), "p2-vector")
    K = assemble_form(ELASTICITY, space, space)
    u = interpolate(space, lambda x, y: (x * x, x * y)).values
    assert u @ (K @ u) == pytest.approx(11 / 6, abs=1e-12)
    # u = (y, 0): eps:eps = 1/2
    v = interpolate(space, lambda x, y: (y, 0 * y)).values
    assert v @ (K @ v) == pytest.approx(0.5, abs=1e-13)


def test_elasticity_nullspace_contains_rigid_modes():
    space = Space(build_uniform(4), "p2-vector")
    K = assemble_form(ELASTICITY, space, space)
    modes = [lambda x, y: (np.ones_like(x), np.zeros_like(y)),
             lambda x, y: (np.zeros_like(x), np.ones_like(y)),
             lambda x, y: (-y, x)]
    for mode in modes:
        u = interpolate(space, mode).values
        assert np.abs(K @ u).max() < 1e-12


def test_div_div_energy():
    # div(x^2, x*y) = 3x, integral of (3x)^2 over the square is 3
    space = Space(build_uniform(4), "p2-vector")
    D = assemble_form(DIV_DIV, space, space)
    u = interpolate(space, lambda x, y: (x * x, x * y)).values
    assert u @ (D @ u) == pytest.approx(3.0, abs=1e-12)


def test_div_coupling_matches_divergence_pairing():
    mesh = build_uniform(4)
    vspace = Space(mesh, "p2-vector")
    qspace = Space(mesh, "p1")
    B = assemble_form(DIV_COUPLING, qspace, vspace)
    assert B.shape == (vspace.num_dofs, qspace.num_dofs)
    u = interpolate(vspace, lambda x, y: (x * x, x * y)).values
    q = interpolate(qspace, lambda x, y: x).values
    # integral of x * 3x over the square
    assert u @ (B @ q) == pytest.approx(1.0, abs=1e-13)


def test_divergence_theorem_for_linear_field():
    # with q = 1: u^T B 1 = integral of div u = boundary flux of u = (x, y)
    mesh = build_uniform(3)
    vspace = Space(mesh, "p2-vector")
    qspace = Space(mesh, "p1")
    B = assemble_form(DIV_COUPLING, qspace, vspace)
    u = interpolate(vspace, lambda x, y: (x, y)).values
    assert u @ (B @ np.ones(qspace.num_dofs)) == pytest.approx(2.0, abs=1e-13)


def test_scalar_energies_for_p2_fields():
    mesh = build_uniform(4)
    space = Space(mesh, "p2")
    M = assemble_form(MASS, space, space)
    S = assemble_form(P_STIFFNESS, space, space)
    q = interpolate(space, lambda x, y: x * y).values
    assert q @ (M @ q) == pytest.approx(1 / 9, abs=1e-13)
    r = interpolate(space, lambda x, y: x * x - y).values
    assert r @ (S @ r) == pytest.approx(7 / 3, abs=1e-12)


def test_form_validation():
    mesh = build_uniform(2)
    p1, p2 = Space(mesh, "p1"), Space(mesh, "p2")
    vec = Space(mesh, "p2-vector")
    with pytest.raises(ValueError):
        assemble_form("bending", p1, p1)
    with pytest.raises(ValueError):
        assemble_form(MASS, p1, p2)  # mismatched elements
    with pytest.raises(ValueError):
        assemble_form(MASS, vec, vec)  # scalar form on vector space
    with pytest.raises(ValueError):
        assemble_form(ELASTICITY, p2, p2)
    with pytest.raises(ValueError):
        assemble_form(DIV_COUPLING, vec, vec)
    with pytest.raises(ValueError):
        assemble_form(MASS, p1, Space(build_uniform(2), "p1"))  # different meshes


def test_flipped_triangle_rejected():
    mesh = unit_triangle()
    mesh.triangles = mesh.triangles[:, ::-1].copy()  # clockwise
    space = Space(mesh, "p1")
    with pytest.raises(ValueError, match="non-positive area"):
        assemble_form(MASS, space, space)


def test_volume_load_pairs_exactly():
    # F_i = int f phi_i, so F . q = int f q_h for q_h in the space
    mesh = build_uniform(4)
    space = Space(mesh, "p2")
    F = assemble_functional(VOLUME_LOAD, space, lambda x, y: x)
    q = interpolate(space, lambda x, y: x * y).values
    assert F @ q == pytest.approx(1 / 6, abs=1e-14)
    assert F.sum() == pytest.approx(0.5, abs=1e-14)  # pairing with 1


def test_vector_volume_load_pairs_exactly():
    mesh = build_uniform(4)
    space = Space(mesh, "p2-vector")
    F = assemble_functional(VOLUME_LOAD, space, lambda x, y: (y, x ** 3))
    u = interpolate(space, lambda x, y: (x, y * y)).values
    # int (y*x + x^3 y^2) = 1/4 + 1/12
    assert F @ u == pytest.approx(1 / 3, abs=1e-14)


def test_boundary_flux_constant_sums_to_side_length():
    mesh = build_uniform(5)
    for kind in ("p1", "p2"):
        space = Space(mesh, kind)
        F = assemble_functional(BOUNDARY_FLUX, space,
                                lambda x, y, n: np.ones_like(x), tags=(BOTTOM,))
        assert F.sum() == pytest.approx(1.0, abs=1e-14)


def test_boundary_flux_pairs_exactly():
    mesh = build_uniform(4)
    space = Space(mesh, "p2")
    F = assemble_functional(BOUNDARY_FLUX, space, lambda x, y, n: x * x,
                            tags=(BOTTOM,))
    q = interpolate(space, lambda x, y: x).values
    # int over the bottom side of x^2 * x
    assert F @ q == pytest.approx(0.25, abs=1e-14)


def test_boundary_traction_pairs_exactly():
    mesh = build_uniform(4)
    space = Space(mesh, "p2-vector")
    seen = []

    def data(x, y, normal):
        seen.append(tuple(normal))
        return np.zeros_like(x), x

    F = assemble_functional(BOUNDARY_TRACTION, space, data, tags=(TOP,))
    u = interpolate(space, lambda x, y: (y, x * x)).values
    # int over the top side of x * x^2
    assert F @ u == pytest.approx(0.25, abs=1e-14)
    assert set(seen) == {(0.0, 1.0)}  # outward normal of y = 1


def test_functional_validation():
    mesh = build_uniform(2)
    p1 = Space(mesh, "p1")
    vec = Space(mesh, "p2-vector")
    with pytest.raises(ValueError):
        assemble_functional("point-load", p1, lambda x, y: x)
    with pytest.raises(ValueError):
        assemble_functional(BOUNDARY_TRACTION, p1, lambda x, y, n: (x, y))
    with pytest.raises(ValueError):
        assemble_functional(BOUNDARY_FLUX, vec, lambda x, y, n: x)
    with pytest.raises(ValueError):
        assemble_functional(BOUNDARY_FLUX, p1, lambda x, y, n: x, tags=(7,))


def test_constrain_matrix_pins_and_stays_symmetric():
    space = Space(build_uniform(3), "p2")
    K = assemble_form(P_STIFFNESS, space, space)
    dofs = space.boundary_scalar_dofs((1, 3))
    C = constrain_matrix(K, dofs).toarray()
    np.testing.assert_allclose(C, C.T, atol=1e-14)
    np.testing.assert_allclose(C[np.ix_(dofs, dofs)], np.eye(dofs.size), atol=1e-15)
    free = np.setdiff1d(np.arange(space.num_dofs), dofs)
    assert np.abs(C[np.ix_(dofs, free)]).max() == 0.0


def test_apply_dirichlet_reproduces_linear_solution():
    # Laplace with u = x on the vertical sides and natural top/bottom: u = x
    mesh = build_uniform(4)
    space = Space(mesh, "p2", dirichlet_tags=(1, 3))
    K = assemble_form(P_STIFFNESS, space, space)
    dofs = space.dirichlet_dofs()
    A = constrain_matrix(K, dofs)
    b = constrain_rhs(dirichlet_columns(K, dofs), np.zeros(space.num_dofs), dofs,
                      dirichlet_values(space, lambda x, y: x))
    u = spla.spsolve(A.tocsc(), b)
    np.testing.assert_allclose(u, space.dof_coords()[:, 0], atol=1e-12)


def test_dirichlet_values_vector_layout():
    mesh = build_uniform(3)
    space = Space(mesh, "p2-vector", dirichlet_tags=(1,))
    vals = dirichlet_values(space, lambda x, y: (x + y * 2.0, y))
    coords = space.dof_coords()[space.boundary_scalar_dofs((1,))]
    expect = np.concatenate([coords[:, 0] + 2.0 * coords[:, 1], coords[:, 1]])
    np.testing.assert_allclose(vals, expect, atol=1e-15)


def test_phys_params_lame_constants():
    p = PhysParams(E=1.0, nu=0.3)
    assert p.mu == pytest.approx(5 / 13, abs=1e-15)
    assert p.lam == pytest.approx(15 / 26, abs=1e-15)
    assert p.contraction_factor == pytest.approx(26 / 41, abs=1e-15)
    # near-incompressible: lam blows up, contraction factor approaches 0
    q = PhysParams(E=1.0, nu=0.499)
    assert q.lam > 100
    assert q.contraction_factor < 0.01


def test_phys_params_validation():
    for bad in (dict(E=0.0), dict(nu=0.5), dict(nu=0.0), dict(alpha=0.0),
                dict(c0=-1.0), dict(K=0.0), dict(dt=0.0), dict(dt=0.1, T=0.01),
                dict(E=np.nan), dict(E=np.inf), dict(nu=np.nan), dict(alpha=np.inf),
                dict(c0=np.nan), dict(c0=np.inf), dict(K=np.nan), dict(K=np.inf),
                dict(dt=np.nan), dict(T=np.nan), dict(T=np.inf)):
        with pytest.raises(ValueError):
            PhysParams(**bad)


def test_export_matrix_roundtrip(tmp_path):
    space = Space(build_uniform(2), "p1")
    M = assemble_form(MASS, space, space)
    path = tmp_path / "mass.mtx"
    export_matrix(M, str(path))
    back = scipy.io.mmread(str(path))
    np.testing.assert_allclose(back.toarray(), M.toarray(), atol=1e-15)
