"""Assembly of the bilinear forms and load functionals of the poroelastic system.

Every volume term uses the same degree-5 triangle rule; boundary terms use a
5-point Gauss rule per edge.  Element matrices are reference tensors contracted
with each triangle's affine geometry (Kirby & Logg, ACM TOMS 32, 2006).  The
scalar (test, trial) pattern is sorted once per form; matrices are returned as
canonical ``scipy.sparse`` CSR, duplicate element contributions summed in
element order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np
import scipy.sparse as sparse

from .fem import (P1, P2_VECTOR, Space, affine_maps, edge_quadrature, eval_basis,
                  physical_points, quadrature)
from .mesh import NEUMANN_TAGS, SIDE_NORMALS

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
        for f in fields(self):
            if f.init and not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite, got {f.name}={getattr(self, f.name)}")
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


def assemble_form(kind: str, trial: Space, test: Space) -> sparse.csr_matrix:
    """Assemble a unit-coefficient bilinear form into a CSR matrix.

    Rows correspond to test-space dofs, columns to trial-space dofs.  Physical
    coefficients (2*mu, 1/lam, K*dt, ...) are applied by the caller, keeping
    one assembly per block reusable across algorithms and time steps.
    """
    if trial.mesh is not test.mesh:
        raise ValueError("trial and test spaces must share a mesh")
    tdofs, qdofs = test.cell_dofs(), trial.cell_dofs()
    nsq = trial.num_scalar_dofs
    key = (tdofs[:, :, None].astype(np.int64) * nsq + qdofs[:, None, :]).ravel()

    # Sum duplicate (row, col) entries ourselves with a stable sort, so they
    # add in element order: the rounded matrix is then fixed by the mesh
    # numbering alone, not by the order in which scipy's duplicate summation
    # happens to visit them (which it does not document).  Every component
    # block shares the scalar pattern, so one sort serves them all.
    order = np.argsort(key, kind="stable")
    key = key[order]
    starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    pattern = key[starts]
    indptr = np.searchsorted(pattern, np.arange(test.num_scalar_dofs + 1) * nsq)
    grid = [[None] * trial.components for _ in range(test.components)]
    # built after the sort, so the element blocks never share memory with it
    for (c, d), ke in _element_blocks(kind, trial, test).items():
        data = np.add.reduceat(ke.reshape(-1)[order], starts)
        grid[c][d] = sparse.csr_matrix((data, pattern % nsq, indptr),
                                       shape=(test.num_scalar_dofs, nsq))
    return sparse.bmat(grid, format="csr")


def _element_blocks(kind: str, trial: Space, test: Space) -> dict:
    """Element matrices of a form as ``{(c, d): ke}``: ``ke[t, i, j]`` pairs
    test shape i of component c with trial shape j of component d on triangle t."""
    rule = quadrature()
    w = rule.weights
    _, inv_t, det = affine_maps(trial.mesh)
    if np.any(det <= 0):
        bad = int(np.argmax(det <= 0))
        raise ValueError(f"triangle {bad} has non-positive area")
    tvals, tgrads = eval_basis(trial.scalar_kind, rule.points)
    _, grads = eval_basis(test.scalar_kind, rule.points)
    # R[c, d, i, j] = sum_q w_q d/dx_c phi_i * d/dx_d phi_j on the reference triangle
    R = np.einsum("q,iqc,jqd->cdij", w, grads, tgrads)

    if kind == MASS:
        _require_scalar(kind, trial, test)
        ref = np.einsum("q,iq,jq->ij", w, tvals, tvals)
        return {(0, 0): ref[None, :, :] * det[:, None, None]}

    if kind == P_STIFFNESS:
        _require_scalar(kind, trial, test)
        return {(0, 0): _contract(np.einsum("tac,tad,t->tcd", inv_t, inv_t, det), R)}

    if kind in (ELASTICITY, DIV_DIV):
        if trial.kind != P2_VECTOR or test.kind != P2_VECTOR:
            raise ValueError(f"{kind} requires vector trial and test spaces")
        # G[t,a,b,i,j] = integral of d/dx_a phi_i * d/dx_b phi_j over triangle t
        G = _contract(inv_t[:, :, None, :, None] * inv_t[:, None, :, None, :]
                      * det[:, None, None, None, None], R)
        if kind == DIV_DIV:
            return {(c, d): G[:, c, d] for c in range(2) for d in range(2)}
        # sym(e_c x grad_i) : sym(e_d x grad_j)
        blocks = {(c, d): 0.5 * G[:, d, c] for c in range(2) for d in range(2)}
        half_trace = 0.5 * (G[:, 0, 0] + G[:, 1, 1])
        for c in range(2):
            blocks[c, c] = blocks[c, c] + half_trace
        return blocks

    if kind == DIV_COUPLING:
        if trial.components != 1 or test.kind != P2_VECTOR:
            raise ValueError("div-coupling pairs a scalar trial with a vector test space")
        # ke[t,c,i,j] = integral of (trial_j * d/dx_c test_i)
        ke = _contract(inv_t * det[:, None, None], np.einsum("q,jq,iqa->aij", w, tvals, grads))
        return {(c, 0): ke[:, c] for c in range(2)}

    raise ValueError(f"unknown form kind {kind!r}")


def _contract(geo, ref):
    """Sum ``geo[t, ..., k] * ref[k, i, j]`` over the reference axes k (the
    trailing axes of the per-triangle geometry) as one matrix product."""
    k = ref.ndim - 2
    size = math.prod(ref.shape[:k])
    return (geo.reshape(-1, size) @ ref.reshape(size, -1)).reshape(geo.shape[:-k] + ref.shape[k:])


def _require_scalar(kind, trial, test):
    if trial.components != 1 or test.components != 1:
        raise ValueError(f"{kind} requires scalar trial and test spaces")
    if trial.scalar_kind != test.scalar_kind:
        raise ValueError(f"{kind} requires matching trial/test elements")


def assemble_functional(kind: str, test: Space, data) -> np.ndarray:
    """Assemble a load functional into a dense vector over test-space dofs.

    ``data`` is evaluated vectorized: volume loads as ``data(x, y)`` over the
    whole domain, boundary terms as ``data(x, y, normal)`` on each Neumann
    side (``NEUMANN_TAGS``) with its outward unit normal.  Vector-valued data
    returns a stack ``(f_x, f_y)``.
    """
    if kind == VOLUME_LOAD:
        return _volume_load(test, data)
    if kind in (BOUNDARY_TRACTION, BOUNDARY_FLUX):
        if kind == BOUNDARY_TRACTION and test.kind != P2_VECTOR:
            raise ValueError("boundary traction needs a vector test space")
        if kind == BOUNDARY_FLUX and test.components != 1:
            raise ValueError("boundary flux needs a scalar test space")
        return _boundary_load(test, data)
    raise ValueError(f"unknown functional kind {kind!r}")


def _volume_load(test: Space, data) -> np.ndarray:
    mesh = test.mesh
    rule = quadrature()
    vals, _ = eval_basis(test.scalar_kind, rule.points)
    _, _, det = affine_maps(mesh)
    xq, yq = physical_points(mesh, rule.points)

    out = np.zeros(test.num_dofs)
    sdofs = test.cell_dofs()
    f = data(xq, yq)
    components = (f,) if test.components == 1 else (f[0], f[1])
    for c, fc in enumerate(components):
        fe = np.einsum("q,iq,tq,t->ti", rule.weights, vals,
                       np.broadcast_to(fc, xq.shape), det)
        np.add.at(out, (sdofs + c * test.num_scalar_dofs).ravel(), fe.ravel())
    return out


def _boundary_load(test: Space, data) -> np.ndarray:
    mesh = test.mesh
    s, w = edge_quadrature()
    if test.scalar_kind == P1:
        trace = np.stack([1 - s, s])  # (nb_edge, ns)
    else:
        trace = np.stack([(1 - s) * (1 - 2 * s), s * (2 * s - 1), 4 * s * (1 - s)])

    out = np.zeros(test.num_dofs)
    edge_dofs = test.boundary_edge_dofs()
    for tag in NEUMANN_TAGS:
        dofs = edge_dofs[mesh.boundary_tags == tag]  # end vertices first
        pa, pb = mesh.vertices[dofs[:, 0]], mesh.vertices[dofs[:, 1]]  # (ne, 2) each
        length = np.hypot(*(pb - pa).T)
        x = pa[:, :1] + s * (pb[:, :1] - pa[:, :1])  # (ne, ns)
        y = pa[:, 1:] + s * (pb[:, 1:] - pa[:, 1:])
        f = data(x, y, SIDE_NORMALS[tag])
        components = (f,) if test.components == 1 else (f[0], f[1])
        for c, fc in enumerate(components):
            fe = np.einsum("s,ks,es->ek", w, trace, np.broadcast_to(fc, x.shape))
            np.add.at(out, dofs + c * test.num_scalar_dofs, fe * length[:, None])
    return out


def constrain_matrix(A: sparse.spmatrix, dofs: np.ndarray,
                     order: np.ndarray) -> sparse.csc_matrix:
    """Eliminate rows and columns, identity on constrained dofs, and number
    the result in ``order``: row and column k of the returned canonical CSC
    are row and column ``order[k]`` of the constrained matrix.

    Symmetry of the input is preserved (row and column elimination together).
    One pass over the CSR data keeps the nonzero entries of free rows and
    columns and relabels their columns; a row gather and one transposition
    put them in factor order, and each constrained dof gets its 1.0 on the
    diagonal.  For a canonical A the result is bit for bit
    ``C[order][:, order].tocsc()`` with C the canonical
    ``P @ A @ P + diag(pinned)``.  ``order`` must be a permutation of the rows.
    """
    A = sparse.csr_matrix(A)
    if not A.has_canonical_format:
        A = A.copy()
        A.sum_duplicates()
    n = A.shape[0]
    free = np.ones(n, dtype=bool)
    free[dofs] = False
    position = np.empty(n, dtype=A.indices.dtype)
    position[order] = np.arange(n, dtype=A.indices.dtype)
    keep = np.repeat(free, np.diff(A.indptr))
    keep &= free[A.indices]
    keep &= A.data != 0
    indptr = np.concatenate([[0], np.cumsum(keep)])[A.indptr].astype(A.indptr.dtype)
    B = sparse.csr_matrix((A.data[keep], position[A.indices[keep]], indptr),
                          shape=A.shape)[order].tocsc()
    # a constrained column of B keeps no entry of A: its one entry is the 1.0
    # on the diagonal
    pinned = ~free[order]
    at = B.indptr[:-1][pinned]
    rows = np.flatnonzero(pinned).astype(B.indices.dtype)
    indptr = B.indptr + np.concatenate([[0], np.cumsum(pinned)]).astype(B.indptr.dtype)
    return sparse.csc_matrix((np.insert(B.data, at, 1.0), np.insert(B.indices, at, rows), indptr),
                             shape=A.shape)


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
    """Column slice A[:, dofs] of distinct ``dofs``, used for boundary-value
    elimination (precomputable).  Gathered in one pass over the CSR data, it
    is bit for bit ``csc_matrix(A)[:, dofs]``, so its product adds in
    increasing column order.
    """
    A = sparse.csr_matrix(A)
    column = np.full(A.shape[1], -1)
    column[dofs] = np.arange(len(dofs))
    at = np.flatnonzero(column[A.indices] >= 0)
    rows = np.searchsorted(A.indptr, at, side="right") - 1
    cols = column[A.indices[at]]
    by_column = np.argsort(cols, kind="stable")  # rows stay ascending in each column
    indptr = np.concatenate([[0], np.cumsum(np.bincount(cols, minlength=len(dofs)))])
    return sparse.csc_matrix((A.data[at][by_column], rows[by_column].astype(A.indices.dtype),
                              indptr.astype(A.indptr.dtype)), shape=(A.shape[0], len(dofs)))


def export_matrix(A: sparse.spmatrix, path: str) -> None:
    """Write a matrix in Matrix Market coordinate format to ``path``, with
    ``.mtx`` appended as ``scipy.io.mmwrite`` appends it.  The file is opened
    here, because ``mmwrite`` writes nothing and raises nothing on a bad path."""
    import scipy.io  # here, so that importing the package loads no file readers

    with open(path if path.endswith(".mtx") else path + ".mtx", "wb") as f:
        scipy.io.mmwrite(f, sparse.coo_matrix(A))
