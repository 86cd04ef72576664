"""Assembly of the bilinear forms and load functionals of the poroelastic system.

Every volume term uses the same degree-5 triangle rule; boundary terms use a
5-point Gauss rule per edge.  Matrices are returned as ``scipy.sparse`` CSR
with sorted column indices; duplicate (row, col) element contributions are
summed in element order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.io
import scipy.sparse as sparse

from . import fem
from .fem import P1, P2_VECTOR, Space, affine_maps, edge_quadrature, eval_basis, quadrature
from .mesh import NEUMANN_TAGS, SIDE_NORMALS, TriMesh

ELASTICITY = "elasticity"      # (eps(u), eps(v)) on the vector space
DIV_COUPLING = "div-coupling"  # (q, div v), trial scalar, test vector
MASS = "mass"                  # (p, q) scalar L2 pairing
P_STIFFNESS = "p-stiffness"    # (grad p, grad q) scalar
DIV_DIV = "div-div"            # (div u, div v) on the vector space

VOLUME_LOAD = "volume-load"
BOUNDARY_TRACTION = "boundary-traction"
BOUNDARY_FLUX = "boundary-flux"


@dataclass(frozen=True)
class PhysParams:
    """Material and stepping parameters.

    The Lame constants are derived from (E, nu) on construction:
    lam = E*nu/((1+nu)(1-2nu)), mu = E/(2(1+nu)).
    """

    E: float = 1.0
    nu: float = 0.3
    alpha: float = 1.0
    c0: float = 1.0
    K: float = 1.0
    dt: float = 1e-3
    T: float = 0.01
    mu: float = field(init=False)
    lam: float = field(init=False)

    def __post_init__(self):
        for name in ("E", "nu", "alpha", "c0", "K", "dt", "T"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {name}={getattr(self, name)}")
        if self.E <= 0:
            raise ValueError(f"Young modulus must be positive, got E={self.E}")
        if not 0.0 < self.nu < 0.5:
            raise ValueError(f"Poisson ratio must lie in (0, 0.5), got nu={self.nu}")
        if self.alpha <= 0:
            raise ValueError(f"Biot coefficient must be positive, got alpha={self.alpha}")
        if self.c0 < 0:
            raise ValueError(f"storage coefficient must be nonnegative, got c0={self.c0}")
        if self.K <= 0:
            raise ValueError(f"permeability must be positive, got K={self.K}")
        if self.dt <= 0:
            raise ValueError(f"time step must be positive, got dt={self.dt}")
        if self.T < self.dt:
            raise ValueError(f"final time T={self.T} is smaller than dt={self.dt}")
        object.__setattr__(self, "mu", self.E / (2.0 * (1.0 + self.nu)))
        object.__setattr__(
            self, "lam", self.E * self.nu / ((1.0 + self.nu) * (1.0 - 2.0 * self.nu)))

    @property
    def contraction_factor(self) -> float:
        """Fixed-point rate (alpha^2/lam) / (c0 + alpha^2/lam) of the split iteration."""
        s = self.alpha ** 2 / self.lam
        return s / (self.c0 + s)


def _physical_gradients(inv_t, grads_ref):
    # (nt, nb, nq, 2): grad of shape i at quad point q on element t
    return np.einsum("tab,iqb->tiqa", inv_t, grads_ref)


def assemble_form(kind: str, trial: Space, test: Space) -> sparse.csr_matrix:
    """Assemble a unit-coefficient bilinear form into a CSR matrix.

    Rows correspond to test-space dofs, columns to trial-space dofs.  Physical
    coefficients (2*mu, 1/lam, K*dt, ...) are applied by the caller, keeping
    one assembly per block reusable across algorithms and time steps.
    """
    if trial.mesh is not test.mesh:
        raise ValueError("trial and test spaces must share a mesh")
    mesh = trial.mesh
    rule = quadrature(fem.DEFAULT_DEGREE)
    w = rule.weights
    _, inv_t, det = affine_maps(mesh)
    if np.any(det <= 0):
        bad = int(np.argmax(det <= 0))
        raise ValueError(f"triangle {bad} has non-positive area")

    if kind == MASS:
        _require_scalar(kind, trial, test)
        vals, _ = eval_basis(trial.scalar_kind, rule.points)
        ref = np.einsum("q,iq,jq->ij", w, vals, vals)
        rows, cols, data = _scatter_scalar(ref[None, :, :] * det[:, None, None],
                                           trial, test)

    elif kind == P_STIFFNESS:
        _require_scalar(kind, trial, test)
        _, grads_ref = eval_basis(trial.scalar_kind, rule.points)
        g = _physical_gradients(inv_t, grads_ref)
        ke = np.einsum("q,tiqa,tjqa,t->tij", w, g, g, det)
        rows, cols, data = _scatter_scalar(ke, trial, test)

    elif kind in (ELASTICITY, DIV_DIV):
        if trial.kind != P2_VECTOR or test.kind != P2_VECTOR:
            raise ValueError(f"{kind} requires vector trial and test spaces")
        _, grads_ref = eval_basis(trial.scalar_kind, rule.points)
        g = _physical_gradients(inv_t, grads_ref)
        # G[t,i,j,a,b] = sum_q w_q g_i,a g_j,b |det|
        G = np.einsum("q,tiqa,tjqb,t->tijab", w, g, g, det)
        rows, cols, data = _scatter_vector_blocks(G, kind, test)

    elif kind == DIV_COUPLING:
        if trial.components != 1 or test.kind != P2_VECTOR:
            raise ValueError("div-coupling pairs a scalar trial with a vector test space")
        tvals, _ = eval_basis(trial.scalar_kind, rule.points)
        _, grads_ref = eval_basis(test.scalar_kind, rule.points)
        g = _physical_gradients(inv_t, grads_ref)
        # ke[t,c,i,j] = integral of (trial_j * d/dx_c test_i)
        ke = np.einsum("q,jq,tiqc,t->tcij", w, tvals, g, det)
        tdofs, qdofs = test.cell_dofs(), trial.cell_dofs()
        nsc = test.num_scalar_dofs
        nb_t, nb_q = tdofs.shape[1], qdofs.shape[1]
        rows = np.concatenate([np.repeat(tdofs + c * nsc, nb_q, axis=1).ravel()
                               for c in range(2)])
        cols = np.tile(np.tile(qdofs, (1, nb_t)).ravel(), 2)
        data = np.concatenate([ke[:, c].reshape(mesh.num_triangles, -1).ravel()
                               for c in range(2)])

    else:
        raise ValueError(f"unknown form kind {kind!r}")

    # Sum duplicate (row, col) entries ourselves with a stable sort, so they
    # add in element order: the rounded matrix is then fixed by the mesh
    # numbering alone, not by the order in which scipy's duplicate summation
    # happens to visit them (which it does not document).
    order = np.lexsort((cols, rows))
    rows, cols, data = rows[order], cols[order], data[order]
    first = np.ones(rows.size, dtype=bool)
    first[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
    starts = np.flatnonzero(first)
    indptr = np.zeros(test.num_dofs + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows[starts], minlength=test.num_dofs), out=indptr[1:])
    return sparse.csr_matrix(
        (np.add.reduceat(data, starts), cols[starts], indptr),
        shape=(test.num_dofs, trial.num_dofs))


def _require_scalar(kind, trial, test):
    if trial.components != 1 or test.components != 1:
        raise ValueError(f"{kind} requires scalar trial and test spaces")
    if trial.scalar_kind != test.scalar_kind:
        raise ValueError(f"{kind} requires matching trial/test elements")


def _scatter_scalar(ke, trial, test):
    tdofs, qdofs = test.cell_dofs(), trial.cell_dofs()
    nb_t, nb_q = tdofs.shape[1], qdofs.shape[1]
    rows = np.repeat(tdofs, nb_q, axis=1).ravel()
    cols = np.tile(qdofs, (1, nb_t)).ravel()
    return rows, cols, ke.reshape(len(ke), -1).ravel()


def _scatter_vector_blocks(G, kind, test):
    sdofs = test.cell_dofs()
    nsc = test.num_scalar_dofs
    nel, nb = sdofs.shape
    trace = G[..., 0, 0] + G[..., 1, 1]
    rows, cols, data = [], [], []
    for c in range(2):
        for d in range(2):
            if kind == ELASTICITY:
                # sym(e_c x grad_i) : sym(e_d x grad_j)
                ke = 0.5 * G[..., d, c]
                if c == d:
                    ke = ke + 0.5 * trace
            else:  # DIV_DIV
                ke = G[..., c, d]
            rows.append(np.repeat(sdofs + c * nsc, nb, axis=1).ravel())
            cols.append(np.tile(sdofs + d * nsc, (1, nb)).ravel())
            data.append(ke.reshape(nel, -1).ravel())
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(data)


def assemble_functional(kind: str, test: Space, data, tags=NEUMANN_TAGS) -> np.ndarray:
    """Assemble a load functional into a dense vector over test-space dofs.

    ``data`` is evaluated vectorized: volume loads as ``data(x, y)``, boundary
    terms as ``data(x, y, normal)`` with the outward unit normal of the tagged
    side.  Vector-valued data returns a stack ``(f_x, f_y)``.
    """
    if kind == VOLUME_LOAD:
        return _volume_load(test, data)
    if kind in (BOUNDARY_TRACTION, BOUNDARY_FLUX):
        if kind == BOUNDARY_TRACTION and test.kind != P2_VECTOR:
            raise ValueError("boundary traction needs a vector test space")
        if kind == BOUNDARY_FLUX and test.components != 1:
            raise ValueError("boundary flux needs a scalar test space")
        for tag in tags:
            if tag not in SIDE_NORMALS:
                raise ValueError(f"unknown boundary tag {tag}")
        return _boundary_load(test, data, tuple(tags))
    raise ValueError(f"unknown functional kind {kind!r}")


def _volume_load(test: Space, data) -> np.ndarray:
    mesh = test.mesh
    rule = quadrature(fem.DEFAULT_DEGREE)
    vals, _ = eval_basis(test.scalar_kind, rule.points)
    _, _, det = affine_maps(mesh)
    p0 = mesh.vertices[mesh.triangles[:, 0]]
    p1 = mesh.vertices[mesh.triangles[:, 1]]
    p2 = mesh.vertices[mesh.triangles[:, 2]]
    # physical quadrature points, (nt, nq)
    xq = np.multiply.outer(p0[:, 0], 1 - rule.points[:, 0] - rule.points[:, 1]) \
        + np.multiply.outer(p1[:, 0], rule.points[:, 0]) \
        + np.multiply.outer(p2[:, 0], rule.points[:, 1])
    yq = np.multiply.outer(p0[:, 1], 1 - rule.points[:, 0] - rule.points[:, 1]) \
        + np.multiply.outer(p1[:, 1], rule.points[:, 0]) \
        + np.multiply.outer(p2[:, 1], rule.points[:, 1])

    out = np.zeros(test.num_dofs)
    sdofs = test.cell_dofs()
    f = data(xq, yq)
    components = (f,) if test.components == 1 else (f[0], f[1])
    for c, fc in enumerate(components):
        fe = np.einsum("q,iq,tq,t->ti", rule.weights, vals,
                       np.broadcast_to(fc, xq.shape), det)
        np.add.at(out, (sdofs + c * test.num_scalar_dofs).ravel(), fe.ravel())
    return out


def _boundary_load(test: Space, data, tags) -> np.ndarray:
    mesh = test.mesh
    s, w = edge_quadrature()
    if test.scalar_kind == P1:
        trace = np.stack([1 - s, s])  # (nb_edge, ns)
    else:
        trace = np.stack([(1 - s) * (1 - 2 * s), s * (2 * s - 1), 4 * s * (1 - s)])

    out = np.zeros(test.num_dofs)
    nsc = test.num_scalar_dofs
    for (a, b), tag in zip(mesh.boundary_edges, mesh.boundary_tags):
        if tag not in tags:
            continue
        a, b = int(a), int(b)
        pa, pb = mesh.vertices[a], mesh.vertices[b]
        length = float(np.hypot(*(pb - pa)))
        x = pa[0] + s * (pb[0] - pa[0])
        y = pa[1] + s * (pb[1] - pa[1])
        normal = SIDE_NORMALS[tag]
        if test.scalar_kind == P1:
            dofs = np.array([a, b])
        else:
            dofs = np.array([a, b, mesh.num_vertices + mesh.edge_index(a, b)])
        f = data(x, y, normal)
        if test.components == 1:
            fe = np.einsum("s,ks,s->k", w, trace, np.broadcast_to(f, x.shape)) * length
            out[dofs] += fe
        else:
            for c in range(2):
                fc = np.broadcast_to(f[c], x.shape)
                fe = np.einsum("s,ks,s->k", w, trace, fc) * length
                out[dofs + c * nsc] += fe
    return out


def constrain_matrix(A: sparse.spmatrix, dofs: np.ndarray) -> sparse.csr_matrix:
    """Eliminate rows and columns: identity on constrained dofs.

    Symmetry of the input is preserved (row and column elimination together).
    """
    n = A.shape[0]
    keep = np.ones(n)
    keep[dofs] = 0.0
    P = sparse.diags(keep)
    pinned = np.zeros(n)
    pinned[dofs] = 1.0
    out = (P @ A @ P + sparse.diags(pinned)).tocsr()
    out.eliminate_zeros()
    out.sort_indices()
    return out


def constrain_rhs(columns: sparse.spmatrix, b: np.ndarray, dofs: np.ndarray,
                  values: np.ndarray) -> np.ndarray:
    """Right-hand side matching :func:`constrain_matrix`.

    ``columns`` is the unconstrained matrix's column slice from
    :func:`dirichlet_columns`.  Moves the known boundary values through it
    (b <- b - A[:, dofs] @ values) and pins the constrained entries.
    """
    out = b - columns @ values
    out[dofs] = values
    return out


def dirichlet_columns(A: sparse.spmatrix, dofs: np.ndarray) -> sparse.csc_matrix:
    """Column slice A[:, dofs] used for boundary-value elimination (precomputable)."""
    return sparse.csc_matrix(A)[:, dofs]


def dirichlet_values(space: Space, g) -> np.ndarray:
    """Evaluate a ``g(x, y)`` profile at the constrained nodes.

    Vector data come back as component blocks; ``g=None`` gives zeros.
    """
    scalar = space.boundary_scalar_dofs(space.dirichlet_tags)
    if g is None:
        return np.zeros(space.components * len(scalar))
    coords = space.dof_coords()[scalar]
    out = g(coords[:, 0], coords[:, 1])
    if space.components == 1:
        return np.broadcast_to(np.asarray(out, dtype=float), scalar.shape).copy()
    gx, gy = out
    return np.concatenate([
        np.broadcast_to(np.asarray(gx, dtype=float), scalar.shape),
        np.broadcast_to(np.asarray(gy, dtype=float), scalar.shape),
    ])


def export_matrix(A: sparse.spmatrix, path: str) -> None:
    """Write a matrix in Matrix Market coordinate format."""
    scipy.io.mmwrite(path, sparse.coo_matrix(A))
