"""Reference computations that only the tests use: mesh geometry, point
evaluation of a finite-element field, the raw block systems, the strong-form
residual of the manufactured solution, the power bound and exact rate of the
split iteration, criterion 02's best-approximation oracles and decision, and
a stand-in for scipy's SuperLU module, and the forms as ``scipy.sparse`` builds them."""
import types

import numpy as np
import scipy.sparse as sparse
from scipy.sparse.linalg import splu

from biotsplit import linalg
from biotsplit.assembly import MASS, P_STIFFNESS, _element_blocks, assemble_form
from biotsplit.benchmark import PI
from biotsplit.biot import BiotState, sweep
from biotsplit.fem import Space, affine_maps, eval_basis, quadrature
from biotsplit.mesh import build_uniform, refine


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


def scipy_form(kind, trial, test):
    """``assemble_form`` by ``scipy.sparse``: each component block a canonical
    ``csr_matrix`` on the sorted scalar pattern, the blocks stitched by
    ``sparse.bmat``; the reference that the library's CSR is checked against."""
    nsq = trial.num_scalar_dofs
    key = (test.cell_dofs()[:, :, None].astype(np.int64) * nsq
           + trial.cell_dofs()[:, None, :]).ravel()
    order = np.argsort(key, kind="stable")
    key = key[order]
    starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    pattern = key[starts]
    indptr = np.searchsorted(pattern, np.arange(test.num_scalar_dofs + 1) * nsq)
    grid = [[None] * trial.components for _ in range(test.components)]
    for (c, d), ke in _element_blocks(kind, trial, test).items():
        grid[c][d] = sparse.csr_matrix(
            (np.add.reduceat(ke.reshape(-1)[order], starts), pattern % nsq, indptr),
            shape=(test.num_scalar_dofs, nsq))
    return sparse.bmat(grid, format="csr")


def block_matrix(system, name):
    """The raw block system ``name`` of ``system`` and its Dirichlet dofs, by
    the ``bmat`` formula as a CSR: the reference that ``DiscreteSystem._block``
    and the elimination are checked against."""
    p = system.params
    c_p, c_xi = p.c_p, p.c_xi
    E, B, M, S = (form.tocsr() for form in (system.elasticity, system.div_coupling,
                                            system.mass, system.stiffness))
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


def superlu_calling(hook):
    """A stand-in for scipy's SuperLU module, for ``linalg._superlu``: its
    ``gstrf`` calls ``hook(n, nnz, data, indices, indptr, **kwargs)`` and then
    the real one."""
    gstrf = linalg._superlu.gstrf

    def hooked(*args, **kwargs):
        hook(*args, **kwargs)
        return gstrf(*args, **kwargs)
    return types.SimpleNamespace(gstrf=hooked)


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


#: Criterion 02: each H1 error may exceed its best approximation by this factor.
H1_BAND = 1.25

#: Roundoff allowance of the best-approximation lower bound; measured and
#: oracle errors come from the same degree-5 rule, so the bound is exact.
FLOOR_RTOL = 1e-8



def _projection_errors(space, fields):
    """Best-approximation errors of ``fields`` on the scalar ``space``.

    ``fields`` holds ``(f, grad_f)`` callables of physical coordinates;
    ``grad_f`` returns a ``(2, ...)`` stack.  For each field, returns the
    squared L2 error of its L2 projection and the squared full-H1 error of its
    full-H1 projection.  Right-hand sides and errors use the degree-5 rule of
    the assembled matrices and of ``compute_errors``, so each projection
    minimizes exactly the quadrature norm that the measured errors are taken in.
    """
    mesh = space.mesh
    rule = quadrature()
    vals, grads_ref = eval_basis(space.scalar_kind, rule.points)
    _, inv_t, det = affine_maps(mesh)
    grads = np.einsum("tab,iqb->tiqa", inv_t, grads_ref)
    bary = np.column_stack([1.0 - rule.points.sum(axis=1), rule.points])
    xq, yq = np.einsum("qk,tkd->dtq", bary, mesh.vertices[mesh.triangles])
    wdet = np.outer(det, rule.weights)
    dofs = space.cell_dofs()

    mass = assemble_form(MASS, space, space).tocsr()
    mass_lu = splu(mass.tocsc())
    h1_lu = splu((mass + assemble_form(P_STIFFNESS, space, space).tocsr()).tocsc())

    def load(element_vectors):
        return np.bincount(dofs.ravel(), element_vectors.ravel(),
                           minlength=space.num_dofs)

    out = []
    for f, grad_f in fields:
        fq, gq = f(xq, yq), np.moveaxis(grad_f(xq, yq), 0, -1)
        b_val = load(np.einsum("iq,tq,tq->ti", vals, fq, wdet))
        b_grad = load(np.einsum("tiqa,tqa,tq->ti", grads, gq, wdet))

        def squared_errors(coeffs):
            C = coeffs[dofs]
            l2 = np.sum(wdet * (C @ vals - fq) ** 2)
            grad = np.sum(wdet[..., None]
                          * (np.einsum("ti,tiqa->tqa", C, grads) - gq) ** 2)
            return l2, grad

        l2_of_l2_projection, _ = squared_errors(mass_lu.solve(b_val))
        l2, grad = squared_errors(h1_lu.solve(b_val + b_grad))
        out.append((l2_of_l2_projection, l2 + grad))
    return out


def best_approximation_errors(case, n0: int, levels: int) -> np.ndarray:
    """Per-level oracle rows (columns as ErrorSet) at the final time.

    L2 columns hold the error of the L2 projection, H1 columns that of the
    full-H1 projection, of the exact fields onto the *unconstrained* P2
    vector and P1 spaces of ``build_uniform(n0)`` and its refinements.  Those
    spaces contain the constrained ones a solver works in, so each entry is
    a lower bound on the corresponding error of any discrete solution.  Both
    norms split over the displacement components, so each component is
    projected onto the scalar P2 space.
    """
    tf = case.time_factor(case.params.T)
    fields_u = [(lambda x, y, c=c: tf * case.u_profile(x, y)[c],
                 lambda x, y, c=c: tf * case.grad_u_profile(x, y)[c])
                for c in range(2)]
    fields_xi_p = [(lambda x, y: tf * case.xi_profile(x, y),
                    lambda x, y: tf * case.grad_xi_profile(x, y)),
                   (lambda x, y: tf * case.p_profile(x, y),
                    lambda x, y: tf * case.grad_p_profile(x, y))]
    rows = []
    mesh = build_uniform(n0)
    for level in range(levels):
        if level:
            mesh = refine(mesh)
        u = np.sum(_projection_errors(Space(mesh, "p2"), fields_u), axis=0)
        xi, p = _projection_errors(Space(mesh, "p1"), fields_xi_p)
        rows.append(np.sqrt([*u, *xi, *p]))
    return np.array(rows)


def error_magnitude_check(measured, oracle) -> tuple[bool, str]:
    """Criterion 02's decision on per-level error rows (columns as ErrorSet).

    Every error must be at least its best-approximation oracle, up to
    roundoff, and every H1 error at most ``H1_BAND`` times it.  The L2
    columns get no upper bound: nothing documented fixes their constant, and
    criterion 01 checks their rates.  Every comparison is false for a NaN, so
    a NaN on either side fails the check.
    """
    measured = np.asarray(measured, dtype=float)
    oracle = np.asarray(oracle, dtype=float)
    above_floor = measured >= oracle * (1.0 - FLOOR_RTOL)
    in_band = measured[:, 1::2] <= H1_BAND * oracle[:, 1::2]
    ok = bool(above_floor.all() and in_band.all())
    ratios = measured / oracle
    detail = (f"{int(above_floor.sum())}/{above_floor.size} errors >= their "
              f"best approximation, {int(in_band.sum())}/{in_band.size} H1 "
              f"errors <= {H1_BAND} x it (measured/oracle per level: "
              + " | ".join(", ".join(f"{r:.3f}" for r in row) for row in ratios)
              + ")")
    return ok, detail
