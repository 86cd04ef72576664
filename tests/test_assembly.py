"""Assembly oracles: element matrices by hand, energies of polynomial fields.

All exact values are derived independently (hand integration or sympy), then
compared against the assembled sparse matrices.
"""
import numpy as np
import pytest
import scipy.io
import scipy.sparse as sparse
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
    export_matrix,
)
from biotsplit.benchmark import benchmark_loads, compute_errors, make_case
from biotsplit.biot import BiotState, LoadSet, build_system
from biotsplit.fem import Space, affine_maps, eval_basis, interpolate, quadrature
from biotsplit.mesh import DIRICHLET_TAGS, NEUMANN_TAGS, TriMesh, build_uniform


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
    C = constrain_matrix(K, dofs, np.arange(space.num_dofs)).toarray()
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
    A = constrain_matrix(K, dofs, np.arange(space.num_dofs))
    b = constrain_rhs(dirichlet_columns(K, dofs), np.zeros(space.num_dofs), dofs,
                      interpolate(space, lambda x, y: x)[dofs])
    u = spla.spsolve(A, b)
    np.testing.assert_allclose(u, space.dof_coords()[:, 0], atol=1e-12)


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
    assert A.has_canonical_format
    expect = brute_force_matrix(kind, trial, test)
    assert np.abs(A.toarray() - expect).max() <= 1e-13 * np.abs(expect).max()


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
    assert np.array_equal(assemble_form(MASS, space, space).toarray(), expect)


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
    A, dofs = system._block(name)
    assert np.array_equal(np.sort(order), np.arange(A.shape[0]))
    system.solve(name, np.ones(len(order)), np.ones(len(dofs)))
    assert system.factors[name].max_rel_residual < 1e-11


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


def assert_same_bits(got, expect):
    assert got.format == expect.format and got.shape == expect.shape
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(expect, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def assert_eliminates_like_the_formulas(A, dofs, order):
    expect = product_elimination(A, dofs)
    assert_same_bits(constrain_matrix(A, dofs, order), expect[order][:, order].tocsc())
    # in the natural order it is the matrix that --dump-matrix writes
    natural = constrain_matrix(A, dofs, np.arange(A.shape[0]))
    assert_same_bits(natural.tocsr(), expect)
    columns, expect = dirichlet_columns(A, dofs), sparse.csc_matrix(A)[:, dofs]
    assert_same_bits(columns, expect)
    values = np.random.default_rng(3).standard_normal(len(dofs))
    assert (columns @ values).tobytes() == (expect @ values).tobytes()


@pytest.mark.parametrize("name", ["coupled", "stokes", "pressure"])
def test_one_pass_elimination_matches_the_formulas(distorted, name):
    case = make_case("nu03")
    system = build_system(distorted, case.params, benchmark_loads(case))
    assert_eliminates_like_the_formulas(*system._block(name), system.discretization.orders[name])


def test_one_pass_elimination_without_a_stored_diagonal():
    # pinned row 1 stores no diagonal entry, pinned row 2 an explicit zero
    # there; free row 3 stores an explicit zero on its diagonal
    A = sparse.csr_matrix((
        np.array([4.0, 1.0, 2.0, 1.0, 3.0, 1.0, 3.0, 0.0, 2.0, 0.0, 5.0, 1.0, 5.0, 6.0]),
        np.array([0, 1, 3, 0, 2, 4, 1, 2, 0, 3, 4, 1, 3, 4]),
        np.array([0, 3, 6, 8, 11, 14])), shape=(5, 5))
    dofs = np.array([1, 2])
    assert_eliminates_like_the_formulas(A, dofs, np.array([3, 1, 4, 0, 2]))
    C = constrain_matrix(A, dofs, np.arange(5)).tocsr()
    np.testing.assert_array_equal(C.toarray()[np.ix_(dofs, dofs)], np.eye(2))
    assert C.indices[C.indptr[3]:C.indptr[4]].tolist() == [0, 4]


@pytest.mark.parametrize("name", ["coupled", "stokes", "pressure", "mass"])
@pytest.mark.parametrize("where", ["distorted", "uniform-16"])
def test_superlu_gets_the_permuted_elimination(distorted, monkeypatch, where, name):
    # the matrix handed to SuperLU is bit for bit the elimination permuted
    # into the factor order, as the copies it replaced computed it
    mesh = distorted if where == "distorted" else build_uniform(16)
    case = make_case("nu03")
    system = build_system(mesh, case.params, benchmark_loads(case))
    factored = []
    splu = spla.splu

    def keep(A, *args, **kwargs):
        factored.append(A)
        return splu(A, *args, **kwargs)

    monkeypatch.setattr(spla, "splu", keep)
    A, dofs = system._block(name)
    system.solve(name, np.zeros(A.shape[0]), np.zeros(len(dofs)))
    order = system.discretization.orders[name]
    assert len(factored) == 1 and factored[0] is system.factors[name].matrix
    assert_same_bits(factored[0], product_elimination(A, dofs)[order][:, order].tocsc())
