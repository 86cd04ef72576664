"""Reference computations that only the tests use: mesh geometry, point
evaluation of a finite-element field, the raw block systems, the strong-form
residual of the manufactured solution, and the power bound and exact rate of
the split iteration."""
import numpy as np
import scipy.sparse as sparse

from biotsplit.benchmark import PI
from biotsplit.biot import BiotState, sweep
from biotsplit.fem import affine_maps, eval_basis


def signed_areas(mesh) -> np.ndarray:
    """Signed area of every triangle (positive for counterclockwise)."""
    p0 = mesh.vertices[mesh.triangles[:, 0]]
    p1 = mesh.vertices[mesh.triangles[:, 1]]
    p2 = mesh.vertices[mesh.triangles[:, 2]]
    a, b = p1 - p0, p2 - p0
    return 0.5 * (a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0])


def mesh_size(mesh) -> float:
    """Mesh size: length of the longest edge."""
    d = mesh.vertices[mesh.edges[:, 0]] - mesh.vertices[mesh.edges[:, 1]]
    return float(np.sqrt((d * d).sum(axis=1)).max())


def evaluate(space, values, points) -> np.ndarray:
    """Evaluate the field with coefficient array ``values`` on ``space`` at
    physical points (brute-force element search).

    Returns an array of shape (npts,) for scalar fields and (npts, 2) for
    vector fields.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    mesh = space.mesh
    _, inv_t, _ = affine_maps(mesh)
    inv = np.transpose(inv_t, (0, 2, 1))
    p0 = mesh.vertices[mesh.triangles[:, 0]]
    cell_dofs = space.cell_dofs()
    component = np.reshape(values, (space.components, -1))

    out = np.empty((len(points), space.components))
    for ip, pt in enumerate(points):
        local = np.einsum("tij,tj->ti", inv, pt[None, :] - p0)
        bary_min = np.minimum(local.min(axis=1), 1.0 - local.sum(axis=1))
        it = int(np.argmax(bary_min))
        if bary_min[it] < -1e-10:
            raise ValueError(f"point {pt} lies outside the mesh")
        basis, _ = eval_basis(space.scalar_kind, local[it])
        for c in range(space.components):
            out[ip, c] = component[c][cell_dofs[it]] @ basis[:, 0]
    return out[:, 0] if space.components == 1 else out


def block_matrix(system, name):
    """The raw block system ``name`` of ``system`` and its Dirichlet dofs, by
    the ``bmat`` formula as a CSR: the reference that ``DiscreteSystem._block``
    and the elimination are checked against."""
    p = system.params
    c_p, c_xi = p.c_p, p.c_xi
    E, B, M, S = system.elasticity, system.div_coupling, system.mass, system.stiffness
    if name == "coupled":
        return sparse.bmat([
            [2 * p.mu * E, -B, None],
            [-B.T, -(1 / p.lam) * M, c_xi * M],
            [None, c_xi * M, -(c_p * M + p.K * p.dt * S)],
        ], format="csr"), np.concatenate([system.bd_u, system.offsets[2] + system.bd_p])
    if name == "stokes":
        return sparse.bmat([[2 * p.mu * E, -B], [-B.T, -(1 / p.lam) * M]],
                           format="csr"), system.bd_u
    if name == "pressure":
        return (c_p * M + p.K * p.dt * S).tocsr(), system.bd_p
    if name == "mass":
        return M.tocsr(), np.array([], dtype=np.int64)
    raise ValueError(f"unknown block system {name!r}")


def strong_form_residual(case, x, y, t):
    """Pointwise residuals of the momentum and mass-balance equations.

    Returns (r_mom1, r_mom2, r_mass) for the fields of the manufactured
    ``case``; all should vanish identically for the closed-form fields, so
    any nonzero value beyond roundoff flags a transcription error in them.
    """
    p = case.params
    ml = p.mu + p.lam
    tf = case.time_factor(t)
    S = np.sin(PI * x) * np.sin(PI * y)
    CC = np.cos(PI * x) * np.cos(PI * y)
    # div(eps(u)) from the analytic second derivatives
    dive1 = (-2 * PI ** 2 * np.sin(2 * PI * y) * (2 * np.cos(2 * PI * x) - 1.0)
             - 1.5 * PI ** 2 * S / ml + 0.5 * PI ** 2 * CC / ml)
    dive2 = (-2 * PI ** 2 * np.sin(2 * PI * x) * (1.0 - 2 * np.cos(2 * PI * y))
             - 1.5 * PI ** 2 * S / ml + 0.5 * PI ** 2 * CC / ml)
    gxi = case.grad_xi_profile(x, y)
    f = case.volume_force_profile(x, y)
    r_mom1 = tf * (-2 * p.mu * dive1 + gxi[0] - f[0])
    r_mom2 = tf * (-2 * p.mu * dive2 + gxi[1] - f[1])
    # d/dt (c0 p + alpha div u) - K lap(p) - Q_s
    lap_p = -2 * PI ** 2 * S
    r_mass = tf * (-(p.c0 * case.p_profile(x, y) + p.alpha * case.div_u_profile(x, y))
                   - p.K * lap_p - case.mass_source_profile(x, y))
    return r_mom1, r_mom2, r_mass


def power_bound_margins(report) -> np.ndarray:
    """rho^i * ||e_xi^0|| - ||e_xi^i|| for i >= 1 of a ``ContractionReport``
    (nonnegative iff the bound holds)."""
    i = np.arange(1, len(report.xi_errors))
    return report.rho ** i * report.xi_errors[0] - report.xi_errors[1:]


def split_rate(system) -> float:
    """Exact rate of the split iteration on ``system``: the spectral radius of
    its linear part T.  The iteration is affine in xi, and on zero data
    (``system`` built with ``LoadSet()``, zero state) it is T itself, so T is
    built column by column from one sweep per unit xi."""
    m = system.M.num_dofs
    zero = BiotState(np.zeros(system.V.num_dofs), np.zeros(m), np.zeros(m), 0.0)
    T = np.column_stack([sweep(system, zero, unit).xi for unit in np.eye(m)])
    return float(np.abs(np.linalg.eigvals(T)).max())
