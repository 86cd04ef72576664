"""Assembly oracles: element matrices by hand, energies of polynomial fields.

All exact values are derived independently (hand integration or sympy), then
compared against the assembled sparse matrices.
"""
import math

import numpy as np
import pytest
import scipy.io
import scipy.sparse as sparse
import scipy.sparse.linalg as spla

from biotsplit import linalg
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
    dirichlet_columns,
    export_matrix,
)
from biotsplit.benchmark import benchmark_loads, compute_errors, make_case
from biotsplit.biot import BiotState, LoadSet, build_system, discretize
from biotsplit.fem import Space, affine_maps, eval_basis, interpolate, quadrature
from biotsplit.mesh import (DIRICHLET_TAGS, NEUMANN_TAGS, TriMesh, build_uniform,
                            dissection_keys)
from helpers import block_matrix, scipy_form, superlu_calling


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
    M = assemble_form(MASS, space, space).tocsr().toarray()
    expect = np.array([[2, 1, 1], [1, 2, 1], [1, 1, 2]]) / 24.0
    np.testing.assert_allclose(M, expect, atol=1e-14)


def test_p1_stiffness_element_matrix():
    # gradients (-1,-1), (1,0), (0,1) and area 1/2
    space = Space(unit_triangle(), "p1")
    K = assemble_form(P_STIFFNESS, space, space).tocsr().toarray()
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
    M = assemble_form(MASS, space, space).tocsr().toarray()
    dofs = space.cell_dofs()[0]
    np.testing.assert_allclose(M[np.ix_(dofs, dofs)], local, atol=1e-14)


def test_mass_total_sums_to_domain_area():
    mesh = build_uniform(3)
    for kind in ("p1", "p2"):
        space = Space(mesh, kind)
        M = assemble_form(MASS, space, space)
        assert M.tocsr().sum() == pytest.approx(1.0, abs=1e-13)


def test_stiffness_annihilates_constants():
    space = Space(build_uniform(3), "p2")
    K = assemble_form(P_STIFFNESS, space, space)
    np.testing.assert_allclose(K @ np.ones(space.num_dofs), 0.0, atol=1e-13)


def test_elasticity_energy_of_quadratic_field():
    # u = (x^2, x*y): eps:eps = 5x^2 + y^2/2, integral over the square 11/6
    space = Space(build_uniform(4), "p2-vector")
    K = assemble_form(ELASTICITY, space, space)
    u = interpolate(space, lambda x, y: (x * x, x * y))
    assert u @ (K @ u) == pytest.approx(11 / 6, abs=1e-12)
    # u = (y, 0): eps:eps = 1/2
    v = interpolate(space, lambda x, y: (y, 0 * y))
    assert v @ (K @ v) == pytest.approx(0.5, abs=1e-13)


def test_elasticity_nullspace_contains_rigid_modes():
    space = Space(build_uniform(4), "p2-vector")
    K = assemble_form(ELASTICITY, space, space)
    modes = [lambda x, y: (np.ones_like(x), np.zeros_like(y)),
             lambda x, y: (np.zeros_like(x), np.ones_like(y)),
             lambda x, y: (-y, x)]
    for mode in modes:
        u = interpolate(space, mode)
        assert np.abs(K @ u).max() < 1e-12


def test_div_div_energy():
    # div(x^2, x*y) = 3x, integral of (3x)^2 over the square is 3
    space = Space(build_uniform(4), "p2-vector")
    D = assemble_form(DIV_DIV, space, space)
    u = interpolate(space, lambda x, y: (x * x, x * y))
    assert u @ (D @ u) == pytest.approx(3.0, abs=1e-12)


def test_div_coupling_matches_divergence_pairing():
    mesh = build_uniform(4)
    vspace = Space(mesh, "p2-vector")
    qspace = Space(mesh, "p1")
    B = assemble_form(DIV_COUPLING, qspace, vspace)
    assert B.shape == (vspace.num_dofs, qspace.num_dofs)
    u = interpolate(vspace, lambda x, y: (x * x, x * y))
    q = interpolate(qspace, lambda x, y: x)
    # integral of x * 3x over the square
    assert u @ (B @ q) == pytest.approx(1.0, abs=1e-13)


def test_divergence_theorem_for_linear_field():
    # with q = 1: u^T B 1 = integral of div u = boundary flux of u = (x, y)
    mesh = build_uniform(3)
    vspace = Space(mesh, "p2-vector")
    qspace = Space(mesh, "p1")
    B = assemble_form(DIV_COUPLING, qspace, vspace)
    u = interpolate(vspace, lambda x, y: (x, y))
    assert u @ (B @ np.ones(qspace.num_dofs)) == pytest.approx(2.0, abs=1e-13)


def test_scalar_energies_for_p2_fields():
    mesh = build_uniform(4)
    space = Space(mesh, "p2")
    M = assemble_form(MASS, space, space)
    S = assemble_form(P_STIFFNESS, space, space)
    q = interpolate(space, lambda x, y: x * y)
    assert q @ (M @ q) == pytest.approx(1 / 9, abs=1e-13)
    r = interpolate(space, lambda x, y: x * x - y)
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
    ccw = unit_triangle()
    mesh = TriMesh(ccw.vertices, ccw.triangles[:, ::-1], ccw.boundary_edges,
                   ccw.boundary_tags)  # clockwise
    space = Space(mesh, "p1")
    with pytest.raises(ValueError, match="non-positive area"):
        assemble_form(MASS, space, space)


def test_volume_load_pairs_exactly():
    # F_i = int f phi_i, so F . q = int f q_h for q_h in the space
    mesh = build_uniform(4)
    space = Space(mesh, "p2")
    F = assemble_functional(VOLUME_LOAD, space, lambda x, y: x)
    q = interpolate(space, lambda x, y: x * y)
    assert F @ q == pytest.approx(1 / 6, abs=1e-14)
    assert F.sum() == pytest.approx(0.5, abs=1e-14)  # pairing with 1


def test_vector_volume_load_pairs_exactly():
    mesh = build_uniform(4)
    space = Space(mesh, "p2-vector")
    F = assemble_functional(VOLUME_LOAD, space, lambda x, y: (y, x ** 3))
    u = interpolate(space, lambda x, y: (x, y * y))
    # int (y*x + x^3 y^2) = 1/4 + 1/12
    assert F @ u == pytest.approx(1 / 3, abs=1e-14)


def test_boundary_flux_constant_sums_to_side_length():
    mesh = build_uniform(5)
    for kind in ("p1", "p2"):
        space = Space(mesh, kind)
        bottom = assemble_functional(BOUNDARY_FLUX, space,
                                     lambda x, y, n: np.full(x.shape, float(n[1] < 0)))
        assert bottom.sum() == pytest.approx(1.0, abs=1e-14)
        # both Neumann sides, bottom and top
        F = assemble_functional(BOUNDARY_FLUX, space, lambda x, y, n: np.ones_like(x))
        assert F.sum() == pytest.approx(2.0, abs=1e-14)
        dirichlet_only = np.setdiff1d(space.boundary_scalar_dofs(DIRICHLET_TAGS),
                                      space.boundary_scalar_dofs(NEUMANN_TAGS))
        assert dirichlet_only.size > 0
        assert not F[dirichlet_only].any()


def test_boundary_flux_pairs_exactly():
    mesh = build_uniform(4)
    space = Space(mesh, "p2")
    F = assemble_functional(BOUNDARY_FLUX, space, lambda x, y, n: x * x * (n[1] < 0))
    q = interpolate(space, lambda x, y: x)
    # int over the bottom side of x^2 * x
    assert F @ q == pytest.approx(0.25, abs=1e-14)


def test_boundary_traction_pairs_exactly():
    mesh = build_uniform(4)
    space = Space(mesh, "p2-vector")
    seen = []

    def data(x, y, normal):
        seen.append(tuple(normal))
        return np.zeros_like(x), x * (normal[1] > 0)

    F = assemble_functional(BOUNDARY_TRACTION, space, data)
    u = interpolate(space, lambda x, y: (y, x * x))
    # int over the top side of x * x^2
    assert F @ u == pytest.approx(0.25, abs=1e-14)
    assert set(seen) == {(0.0, -1.0), (0.0, 1.0)}  # outward normals of y = 0, y = 1


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


def test_constrain_matrix_pins_and_stays_symmetric():
    space = Space(build_uniform(3), "p2")
    K = assemble_form(P_STIFFNESS, space, space)
    dofs = space.boundary_scalar_dofs((1, 3))
    C = constrain_matrix(K.tocoo(), dofs, np.arange(space.num_dofs)).tocsr().toarray()
    np.testing.assert_allclose(C, C.T, atol=1e-14)
    np.testing.assert_allclose(C[np.ix_(dofs, dofs)], np.eye(dofs.size), atol=1e-15)
    free = np.setdiff1d(np.arange(space.num_dofs), dofs)
    assert np.abs(C[np.ix_(dofs, free)]).max() == 0.0


def test_apply_dirichlet_reproduces_linear_solution():
    # Laplace with u = x on the vertical sides and natural top/bottom: u = x
    mesh = build_uniform(4)
    space = Space(mesh, "p2")
    K = assemble_form(P_STIFFNESS, space, space)
    dofs = space.boundary_scalar_dofs((1, 3))
    A = constrain_matrix(K.tocoo(), dofs, np.arange(space.num_dofs))
    g = interpolate(space, lambda x, y: x)[dofs]
    b = -dirichlet_columns(K.tocoo(), dofs).rmatvec(g)
    b[dofs] = g
    u = spla.spsolve(A.tocsr(), b)
    np.testing.assert_allclose(u, space.dof_coords()[:, 0], atol=1e-12)


def test_phys_params_lame_constants():
    p = PhysParams(E=1.0, nu=0.3)
    assert p.mu == pytest.approx(5 / 13, abs=1e-15)
    assert p.lam == pytest.approx(15 / 26, abs=1e-15)
    assert p.c_p == pytest.approx(41 / 15, abs=1e-15)
    assert p.c_xi == pytest.approx(26 / 15, abs=1e-15)
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
                dict(dt=np.nan), dict(T=np.nan), dict(T=np.inf),
                # finite inputs whose derived numbers overflow or vanish
                dict(dt=1e-320, T=1.0), dict(dt=1e-300, T=1e10), dict(alpha=1e300),
                dict(c0=1e308, alpha=1e154), dict(E=1e-320), dict(E=1e-310),
                dict(K=1e300, dt=1e10, T=1e10), dict(c0=0.0, alpha=1e-170),
                dict(E=1e-300, nu=1e-30)):
        with pytest.raises(ValueError):
            PhysParams(**bad)
    # extreme, but every coefficient is finite: such a run solves, marked tainted
    for E in (1e-300, 1e300):
        assert math.isfinite(PhysParams(E=E).c_p)


@pytest.mark.parametrize("bad, message", [
    (dict(alpha=1e300), "c_p must be positive and finite, which fails for "
                        "c0=1.0, alpha=1e+300, E=1.0, nu=0.3"),
    (dict(E=1e-310), "1/lam must be positive and finite, which fails for E=1e-310, nu=0.3"),
    (dict(K=1e300, dt=1e10, T=1e10), "K*dt must be positive and finite, which fails for "
                                     "K=1e+300, dt=10000000000.0"),
    (dict(dt=1e-320, T=1.0), "T/dt must be positive and finite, which fails for T=1.0, dt=1e-320")],
    ids=["c_p", "inv_lam", "K_dt", "T_dt"])
def test_derived_parameter_error_names_the_quantity_and_its_inputs(bad, message):
    with pytest.raises(ValueError) as info:
        PhysParams(**bad)
    assert str(info.value) == message


def test_export_matrix_roundtrip(tmp_path):
    space = Space(build_uniform(2), "p1")
    M = assemble_form(MASS, space, space)
    path = tmp_path / "mass.mtx"
    export_matrix(M, str(path))
    back = scipy.io.mmread(str(path))
    np.testing.assert_allclose(back.toarray(), M.tocsr().toarray(), atol=1e-15)


# ---------------------------------------------------------------------------
# entrywise oracle on a distorted mesh: per-point quadrature, no shortcuts
# ---------------------------------------------------------------------------

def distorted_mesh():
    """build_uniform(4) with interior vertices moved by up to h/4 per coordinate:
    no two triangles share a Jacobian, and only the corner triangle whose
    vertices all lie on the boundary keeps a diagonal one."""
    mesh = build_uniform(4)
    vertices = mesh.vertices.copy()
    inner = np.all((vertices > 1e-12) & (vertices < 1 - 1e-12), axis=1)
    rng = np.random.default_rng(20)
    vertices[inner] += rng.uniform(-0.25 / 4, 0.25 / 4, size=(int(inner.sum()), 2))
    return TriMesh(vertices, mesh.triangles, mesh.boundary_edges, mesh.boundary_tags)


def pointwise_geometry(mesh):
    """Degree-5 rule, Jacobians, inverse-transpose Jacobians and determinants
    computed from the vertices alone."""
    corners = mesh.vertices[mesh.triangles]  # (nt, 3, 2)
    jac = np.stack([corners[:, 1] - corners[:, 0], corners[:, 2] - corners[:, 0]], axis=-1)
    return quadrature(), jac, np.linalg.inv(jac).transpose(0, 2, 1), np.linalg.det(jac)


def brute_force_matrix(kind, trial, test):
    """Dense matrix of a form from physical gradients at every quadrature point."""
    rule, _, inv_t, det = pointwise_geometry(trial.mesh)
    w = rule.weights
    vals_q, grads_q = eval_basis(trial.scalar_kind, rule.points)
    vals_t, grads_t = eval_basis(test.scalar_kind, rule.points)
    gq = np.einsum("tab,iqb->tiqa", inv_t, grads_q)  # d/dx_a of shape i at point q
    gt = np.einsum("tab,iqb->tiqa", inv_t, grads_t)
    # local[t, c, i, d, j]: test shape i of component c, trial shape j of component d
    if kind == MASS:
        local = np.einsum("q,iq,jq,t->tij", w, vals_t, vals_q, det)[:, None, :, None, :]
    elif kind == P_STIFFNESS:
        local = np.einsum("q,tiqa,tjqa,t->tij", w, gt, gq, det)[:, None, :, None, :]
    elif kind == DIV_DIV:  # div(phi_i e_c) = d/dx_c phi_i
        local = np.einsum("q,tiqc,tjqd,t->tcidj", w, gt, gq, det)
    elif kind == DIV_COUPLING:
        local = np.einsum("q,tiqc,jq,t->tcij", w, gt, vals_q, det)[..., None, :]
    else:  # ELASTICITY: eps(phi_i e_c)[r, s] = (delta_rc g_s + delta_sc g_r) / 2
        def strain(g):
            outer = np.einsum("cr,tiqs->tiqcrs", np.eye(2), g)
            return 0.5 * (outer + np.swapaxes(outer, -1, -2))
        local = np.einsum("q,tiqcrs,tjqdrs,t->tcidj", w, strain(gt), strain(gq), det)
    dense = np.zeros((test.num_dofs, trial.num_dofs))
    tdofs, qdofs = test.cell_dofs(), trial.cell_dofs()
    for c in range(test.components):
        for d in range(trial.components):
            rows = tdofs[:, :, None] + c * test.num_scalar_dofs
            cols = qdofs[:, None, :] + d * trial.num_scalar_dofs
            np.add.at(dense, (np.broadcast_to(rows, local[:, c, :, d].shape),
                              np.broadcast_to(cols, local[:, c, :, d].shape)),
                      local[:, c, :, d])
    return dense


@pytest.fixture(scope="module")
def distorted():
    mesh = distorted_mesh()
    _, jac, _, det = pointwise_geometry(mesh)
    assert det.min() > 0
    assert np.count_nonzero(jac[:, 0, 1] * jac[:, 1, 0] == 0) < len(jac) // 4
    assert len(np.unique(np.round(jac.reshape(len(jac), 4), 12), axis=0)) == len(jac)
    return mesh


@pytest.mark.parametrize("kind, trial_kind, test_kind", [
    (ELASTICITY, "p2-vector", "p2-vector"),
    (DIV_DIV, "p2-vector", "p2-vector"),
    (DIV_COUPLING, "p1", "p2-vector"),
    (MASS, "p2", "p2"),
    (P_STIFFNESS, "p2", "p2"),
    (P_STIFFNESS, "p1", "p1"),
])
def test_forms_match_pointwise_quadrature_on_distorted_mesh(distorted, kind, trial_kind,
                                                            test_kind):
    trial, test = Space(distorted, trial_kind), Space(distorted, test_kind)
    A = assemble_form(kind, trial, test)
    assert A.tocsr().has_canonical_format
    expect = brute_force_matrix(kind, trial, test)
    assert np.abs(A.tocsr().toarray() - expect).max() <= 1e-13 * np.abs(expect).max()


@pytest.mark.parametrize("kind", ["p1", "p2"])
def test_mass_matrix_is_the_element_order_sum(distorted, kind):
    # a lexsort of all (row, col) contributions, then one reduceat per entry
    # in triangle order: the mass matrix must keep exactly these bits
    space = Space(distorted, kind)
    rule = quadrature()
    vals, _ = eval_basis(kind, rule.points)
    _, _, det = affine_maps(distorted)
    ke = np.einsum("q,iq,jq->ij", rule.weights, vals, vals)[None] * det[:, None, None]
    dofs = space.cell_dofs()
    rows = np.repeat(dofs, dofs.shape[1], axis=1).ravel()
    cols = np.tile(dofs, (1, dofs.shape[1])).ravel()
    order = np.lexsort((cols, rows))
    rows, cols, data = rows[order], cols[order], ke.ravel()[order]
    starts = np.flatnonzero(np.r_[True, (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])])
    expect = np.zeros((space.num_dofs, space.num_dofs))
    expect[rows[starts], cols[starts]] = np.add.reduceat(data, starts)
    assert np.array_equal(assemble_form(MASS, space, space).tocsr().toarray(), expect)


def test_errors_match_pointwise_loop_on_distorted_mesh(distorted):
    case = make_case("nu03")
    t = 0.5
    tf = case.time_factor(t)
    rng = np.random.default_rng(21)
    system = build_system(distorted, case.params, LoadSet())
    spaces, fields = (system.V, system.M, system.M), []
    for space, exact in zip(spaces, (case.u_profile, case.xi_profile, case.p_profile)):
        field = interpolate(space, lambda x, y: tf * exact(x, y))
        field += 0.05 * rng.standard_normal(field.shape)
        fields.append(field)
    got = compute_errors(system, BiotState(*fields, t), case).as_tuple()

    rule, jac, inv_t, det = pointwise_geometry(distorted)
    origin = distorted.vertices[distorted.triangles[:, 0]]
    expect = []
    for space, field, exact, grad in zip(spaces, fields,
                                         (case.u_profile, case.xi_profile, case.p_profile),
                                         (case.grad_u_profile, case.grad_xi_profile,
                                          case.grad_p_profile)):
        vals, grads = eval_basis(space.scalar_kind, rule.points)
        l2sq = h1sq = 0.0
        for tri, dofs in enumerate(space.cell_dofs()):
            for q, (ref, w) in enumerate(zip(rule.points, rule.weights)):
                x, y = origin[tri] + jac[tri] @ ref
                value = np.reshape(tf * exact(np.array(x), np.array(y)), (space.components,))
                gradient = np.reshape(tf * grad(np.array(x), np.array(y)),
                                      (space.components, 2))
                for c in range(space.components):
                    coeff = field.reshape(space.components, -1)[c][dofs]
                    l2sq += w * det[tri] * (coeff @ vals[:, q] - value[c]) ** 2
                    h1sq += w * det[tri] * np.sum(
                        (inv_t[tri] @ (coeff @ grads[:, q, :]) - gradient[c]) ** 2)
        expect += [np.sqrt(l2sq), np.sqrt(l2sq + h1sq)]
    np.testing.assert_allclose(got, expect, rtol=1e-12, atol=0)


@pytest.mark.parametrize("name", ["coupled", "stokes", "pressure", "mass"])
def test_block_orders_factor_on_distorted_mesh(distorted, name):
    # off the grid the keys still order every row once, and the factor solves
    case = make_case("nu03")
    system = build_system(distorted, case.params, benchmark_loads(case))
    order = system.discretization.orders[name]
    n = system._block(name)[0].shape[0]
    assert np.array_equal(np.sort(order), np.arange(n))
    system.solve(name, np.ones(n), 1.0)
    assert system.max_residual < 1e-11


@pytest.mark.parametrize("where", ["distorted", "uniform-16"])
def test_one_stable_sort_numbers_every_block(distorted, where):
    # the Stokes and P1 orders are the stable sorts of their own keys, and
    # every order is one read-only intp array (numpy casts any other index
    # type on every gather and scatter), pressure and mass the same
    mesh = distorted if where == "distorted" else build_uniform(16)
    d = discretize(mesh)
    kv = dissection_keys(mesh, d.V.dof_coords())
    km = kv[:mesh.num_vertices]
    assert np.array_equal(d.orders["stokes"], np.argsort(np.concatenate([kv, kv, km]),
                                                         kind="stable"))
    assert np.array_equal(d.orders["pressure"], np.argsort(km, kind="stable"))
    assert d.orders["mass"] is d.orders["pressure"]
    for order in d.orders.values():
        assert order.dtype == np.intp and not order.flags.writeable


def product_elimination(A, dofs):
    """``constrain_matrix`` by its defining formula: P A P + diag(pinned),
    explicit zeros dropped, indices sorted."""
    keep = np.ones(A.shape[0])
    keep[dofs] = 0.0
    P = sparse.diags(keep)
    out = (P @ A @ P + sparse.diags(1.0 - keep)).tocsr()
    out.eliminate_zeros()
    out.sort_indices()
    return out


def in_factor_order(C, order):
    """``C[order][:, order]`` as a canonical CSR."""
    out = C[order][:, order]
    out.sort_indices()
    return out


def assert_same_bits(got, expect):
    assert got.format == expect.format and got.shape == expect.shape
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(expect, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def assert_eliminates_like_the_formulas(block, dofs, order, A):
    # block is a raw COO block and A its matrix, by the bmat formula
    assert_same_bits(sparse.coo_matrix((block.data, (block.row, block.col)),
                                       shape=block.shape).tocsr(), A)
    expect = product_elimination(A, dofs)
    assert_same_bits(constrain_matrix(block, dofs, order), in_factor_order(expect, order))
    # in the natural order it is the matrix that --dump-matrix writes
    assert_same_bits(constrain_matrix(block, dofs, np.arange(A.shape[0])), expect)
    # the columns are kept as the CSR of their transpose: the CSC's arrays
    columns, expect = dirichlet_columns(block, dofs), sparse.csc_matrix(A)[:, dofs]
    assert_same_bits(columns, expect.T)
    values = np.random.default_rng(3).standard_normal(len(dofs))
    assert columns.rmatvec(values).tobytes() == (expect @ values).tobytes()


def assert_same_products(got, expect, rng):
    """``A @ x`` and ``A.T @ x`` of the library's CSR and of scipy's, bit for bit."""
    x, y = rng.standard_normal(expect.shape[1]), rng.standard_normal(expect.shape[0])
    assert (got @ x).tobytes() == (expect @ x).tobytes()
    assert got.rmatvec(y).tobytes() == (expect.T @ y).tobytes()


@pytest.mark.parametrize("preset", ["nu03", "nu0499"])
def test_library_matrices_are_the_ones_scipy_sparse_builds(preset):
    # the library's CSR runs scipy's own kernels on the same arrays, so the
    # forms, the eliminations, the Dirichlet columns and the products keep
    # every bit of what scipy.sparse builds from the same inputs
    rng = np.random.default_rng(32)
    case = make_case(preset)
    system = build_system(build_uniform(8), case.params, benchmark_loads(case))
    V, M = system.V, system.M
    for name, kind, trial, test in [("elasticity", ELASTICITY, V, V),
                                    ("div_coupling", DIV_COUPLING, M, V),
                                    ("mass", MASS, M, M), ("stiffness", P_STIFFNESS, M, M)]:
        form, expect = getattr(system, name), scipy_form(kind, trial, test)
        assert_same_bits(form, expect)
        assert_same_products(form, expect, rng)
    # the (p, p) block adds the values of M and S on their one pattern
    for array in ("indptr", "indices"):
        assert np.array_equal(getattr(system.mass, array), getattr(system.stiffness, array))
    for name in ("coupled", "stokes", "pressure", "mass"):
        block, dofs, _ = system._block(name)
        A, order = block_matrix(system, name)[0], system.discretization.orders[name]
        assert_eliminates_like_the_formulas(block, dofs, order, A)
        assert_same_products(constrain_matrix(block, dofs, order),
                             in_factor_order(product_elimination(A, dofs), order), rng)


@pytest.mark.parametrize("name", ["coupled", "stokes", "pressure", "mass"])
def test_one_pass_elimination_matches_the_formulas(distorted, name):
    case = make_case("nu03")
    system = build_system(distorted, case.params, benchmark_loads(case))
    assert_eliminates_like_the_formulas(*system._block(name)[:2],
                                        system.discretization.orders[name],
                                        block_matrix(system, name)[0])


@pytest.mark.parametrize("name", ["coupled", "stokes", "pressure", "mass"])
@pytest.mark.parametrize("preset", ["nu03", "c00"])
@pytest.mark.parametrize("n", [4, 16, 32])
def test_elimination_matches_the_formulas_on_uniform_meshes(n, preset, name):
    case = make_case(preset)
    system = build_system(build_uniform(n), case.params, benchmark_loads(case))
    assert_eliminates_like_the_formulas(*system._block(name)[:2],
                                        system.discretization.orders[name],
                                        block_matrix(system, name)[0])


def test_one_pass_elimination_without_a_stored_diagonal():
    # pinned row 1 stores no diagonal entry, pinned row 2 an explicit zero
    # there; free row 3 stores an explicit zero on its diagonal; the COO
    # entries are in no row or column order
    block = sparse.coo_matrix((
        np.array([6.0, 0.0, 1.0, 2.0, 4.0, 5.0, 3.0, 1.0, 0.0, 1.0, 2.0, 3.0, 5.0, 1.0]),
        (np.array([4, 3, 1, 3, 0, 4, 2, 0, 2, 4, 0, 1, 3, 1]),
         np.array([4, 3, 4, 0, 0, 3, 1, 1, 2, 1, 3, 2, 4, 0]))), shape=(5, 5))
    dofs = np.array([1, 2])
    A = sparse.csr_matrix((
        np.array([4.0, 1.0, 2.0, 1.0, 3.0, 1.0, 3.0, 0.0, 2.0, 0.0, 5.0, 1.0, 5.0, 6.0]),
        np.array([0, 1, 3, 0, 2, 4, 1, 2, 0, 3, 4, 1, 3, 4]),
        np.array([0, 3, 6, 8, 11, 14])), shape=(5, 5))
    assert_eliminates_like_the_formulas(block, dofs, np.array([3, 1, 4, 0, 2]), A)
    C = constrain_matrix(block, dofs, np.arange(5))
    np.testing.assert_array_equal(C.tocsr().toarray()[np.ix_(dofs, dofs)], np.eye(2))
    assert C.indices[C.indptr[3]:C.indptr[4]].tolist() == [0, 4]


@pytest.mark.parametrize("name", ["coupled", "stokes", "pressure", "mass"])
@pytest.mark.parametrize("where", ["distorted", "uniform-16"])
def test_superlu_gets_the_permuted_elimination(distorted, monkeypatch, where, name):
    # the kept matrix is bit for bit the elimination permuted into the factor
    # order, and SuperLU gets its arrays, read as the CSC of its transpose
    mesh = distorted if where == "distorted" else build_uniform(16)
    case = make_case("nu03")
    system = build_system(mesh, case.params, benchmark_loads(case))
    factored = []

    def keep(n, nnz, data, indices, indptr, **kwargs):
        factored.append((n, nnz, data, indices, indptr))

    monkeypatch.setattr(linalg, "_superlu", superlu_calling(keep))
    A, dofs = block_matrix(system, name)
    system.solve(name, np.zeros(A.shape[0]), 0.0)
    order = system.discretization.orders[name]
    kept = system.factors[name].matrix
    # gstrf reads its arrays as a CSC: values, row indices, column pointers
    assert len(factored) == 1 and factored[0][:2] == (kept.shape[0], kept.nnz)
    for array, given in zip(("data", "indices", "indptr"), factored[0][2:]):
        assert np.shares_memory(given, getattr(kept, array)), array
    assert_same_bits(kept, in_factor_order(product_elimination(A, dofs), order))
