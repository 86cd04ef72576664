"""Assembly of the bilinear forms and load functionals of the poroelastic system.

Every volume term uses the same degree-5 triangle rule; boundary terms use a
5-point Gauss rule per edge.  Element matrices are reference tensors contracted
with each triangle's affine geometry (Kirby & Logg, ACM TOMS 32, 2006).  The
scalar (test, trial) pattern is sorted once per form; matrices are returned as
canonical ``linalg.CSR``, duplicate element contributions summed in element
order, and a vector form's component blocks written side by side into it.
"""
from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .fem import (P1, P2_VECTOR, Space, affine_maps, edge_quadrature, eval_basis,
                  physical_points, quadrature)
from .linalg import COO, CSR
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
    """Material and stepping parameters, and the numbers derived from them.

    lam = E*nu/((1+nu)(1-2nu)) and mu = E/(2(1+nu)) are set on construction,
    which rejects inputs whose derived numbers vanish or overflow.
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
        derived = (
            ("mu", "E nu", lambda: self.mu), ("1/lam", "E nu", lambda: 1 / self.lam),
            ("c_p", "c0 alpha E nu", lambda: self.c_p), ("c_xi", "alpha E nu", lambda: self.c_xi),
            ("K*dt", "K dt", lambda: self.K * self.dt), ("T/dt", "T dt", lambda: self.T / self.dt))
        for name, inputs, value in derived:
            with contextlib.suppress(ArithmeticError):  # a float's alpha ** 2 raises on overflow
                if 0.0 < value() < math.inf:
                    continue
            given = ", ".join(f"{k}={getattr(self, k)}" for k in inputs.split())
            raise ValueError(f"{name} must be positive and finite, which fails for {given}")

    @property
    def c_p(self) -> float:
        """Coefficient c0 + alpha^2/lam of p in the mass balance."""
        return self.c0 + self.alpha ** 2 / self.lam

    @property
    def c_xi(self) -> float:
        """Coefficient alpha/lam of xi in the mass balance."""
        return self.alpha / self.lam

    @property
    def contraction_factor(self) -> float:
        """Fixed-point rate (alpha^2/lam) / c_p of the split iteration."""
        return self.alpha ** 2 / self.lam / self.c_p


def assemble_form(kind: str, trial: Space, test: Space) -> CSR:
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
    ns, nnz = test.num_scalar_dofs, len(pattern)
    nc, nd = test.components, trial.components
    # Stitched row r of test component c holds row r of the blocks (c, 0),
    # ..., (c, nd - 1) side by side, block d's columns offset by d * nsq: entry
    # e of a scalar block, in its row r, goes to e + (nd - 1) * indptr[r]
    # + d * width[r] (``at + d * step``) of block row c.
    indptr = np.searchsorted(pattern, np.arange(ns + 1) * nsq)
    width = np.diff(indptr)
    row = np.repeat(np.arange(ns), width)
    at = np.arange(nnz) + (nd - 1) * indptr[row]
    step = width[row]
    indices = np.empty(nd * nnz, dtype=np.int32)
    for d in range(nd):
        indices[at + d * step] = pattern % nsq + d * nsq
    data = np.empty(nc * nd * nnz)
    # built after the sort, so the element blocks never share memory with it
    for (c, d), ke in _element_blocks(kind, trial, test).items():
        data[c * nd * nnz + at + d * step] = np.add.reduceat(ke.reshape(-1)[order], starts)
    stitched = np.zeros(nc * ns + 1, dtype=np.int32)
    np.cumsum(np.tile(nd * width, nc), out=stitched[1:])
    return CSR((nc * ns, nd * nsq), data, np.tile(indices, nc), stitched)


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


def constrain_matrix(A: COO, dofs: np.ndarray, order: np.ndarray) -> CSR:
    """Eliminate rows and columns ``dofs`` of the square COO matrix A,
    identity on constrained dofs, and number the result in ``order``: row and
    column k of the returned canonical CSR are row and column ``order[k]`` of
    the constrained matrix.

    Symmetry of the system is preserved (row and column elimination
    together).  A's kept entries (free row, free column, nonzero) are mapped
    to their factor-order row and column, a 1.0 is appended on the diagonal
    of each constrained dof, and the lot is converted once to CSR.  The
    result is bit for bit the canonical ``C[order][:, order]`` with C the
    canonical ``P @ A @ P + diag(pinned)``.  A holds no duplicate entries,
    and ``order`` is a permutation of ``0..n-1``.
    """
    n = A.shape[0]
    free = np.ones(n, dtype=bool)
    free[dofs] = False
    position = np.empty(n, dtype=np.int32)
    position[order] = np.arange(n, dtype=np.int32)
    kept = free[A.row] & free[A.col] & (A.data != 0)
    pinned = np.flatnonzero(~free[order]).astype(np.int32)
    rows = np.concatenate([position[A.row[kept]], pinned])
    cols = np.concatenate([position[A.col[kept]], pinned])
    values = np.concatenate([A.data[kept], np.ones(len(pinned))])
    return CSR.from_coo((n, n), rows, cols, values)


def dirichlet_columns(A: COO, dofs: np.ndarray) -> CSR:
    """Column slice A[:, dofs] of distinct ``dofs``, with A a COO matrix
    holding no duplicate entries, used for boundary-value elimination
    (precomputable), as the CSR of its transpose: ``rmatvec`` is its product.
    Its arrays are bit for bit those of ``csc_matrix(A)[:, dofs]`` (stored
    zeros included), so the product adds in increasing column order.
    """
    column = np.full(A.shape[1], -1, dtype=np.int32)
    column[dofs] = np.arange(len(dofs), dtype=np.int32)
    c = column[A.col]
    at = np.flatnonzero(c >= 0)
    return CSR.from_coo((len(dofs), A.shape[0]), c[at], A.row[at], A.data[at])


def export_matrix(A: CSR, path: str) -> None:
    """Write a matrix in Matrix Market coordinate format to ``path``, with
    ``.mtx`` appended as ``scipy.io.mmwrite`` appends it.  The file is opened
    here, because ``mmwrite`` writes nothing and raises nothing on a bad path."""
    # here, so that importing the package loads neither scipy's sparse
    # package nor its file readers
    import scipy.io
    import scipy.sparse as sparse

    with open(path if path.endswith(".mtx") else path + ".mtx", "wb") as f:
        scipy.io.mmwrite(f, sparse.coo_matrix(A.tocsr()))
