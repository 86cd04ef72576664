"""Lagrange elements on triangles: P1/P2 scalar spaces and the P2 vector space.

Reference element is the unit right triangle {(0,0), (1,0), (0,1)} with
barycentric coordinates (l0, l1, l2) = (1-x-y, x, y).  Local node order is
vertices first, then edge midpoints, with midpoint k opposite vertex k.
Vector fields use component-major dof blocks: all x-dofs, then all y-dofs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .mesh import TriMesh

P1 = "p1"
P2 = "p2"
P2_VECTOR = "p2-vector"

_KINDS = (P1, P2, P2_VECTOR)


class QuadratureRule(NamedTuple):
    """Reference-triangle quadrature; weights include the triangle area 1/2."""

    points: np.ndarray   # (nq, 2)
    weights: np.ndarray  # (nq,)
    degree: int


def quadrature() -> QuadratureRule:
    """Symmetric degree-5 triangle rule, used for every volume integral in the
    package (mass, stiffness, loads, error norms alike) to keep them consistent."""
    # centroid (weight 9/40) plus two 3-point orbits at (9 +/- 2*sqrt(15))/21
    # with weights (155 +/- sqrt(15))/1200
    s15 = math.sqrt(15.0)
    pts = [(1 / 3, 1 / 3)]
    wts = [9 / 40]
    for a, w in (((9 - 2 * s15) / 21, (155 + s15) / 1200),
                 ((9 + 2 * s15) / 21, (155 - s15) / 1200)):
        b = (1 - a) / 2
        pts += [(a, b), (b, a), (b, b)]
        wts += [w, w, w]
    return QuadratureRule(np.array(pts), 0.5 * np.array(wts), 5)


def edge_quadrature() -> tuple[np.ndarray, np.ndarray]:
    """5-point Gauss rule on the parameter interval [0, 1]."""
    nodes, weights = np.polynomial.legendre.leggauss(5)
    return (nodes + 1.0) / 2.0, weights / 2.0


def eval_basis(kind: str, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate local shape functions at reference points.

    Parameters
    ----------
    kind : "p1" or "p2"
        Scalar element kind (vector fields reuse the scalar basis per
        component).
    points : (nq, 2) array
        Reference coordinates.

    Returns
    -------
    values : (nb, nq) array
    grads : (nb, nq, 2) array
        Gradients with respect to reference coordinates.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    x, y = points[:, 0], points[:, 1]
    l0, l1, l2 = 1.0 - x - y, x, y
    one, zero = np.ones_like(x), np.zeros_like(x)
    if kind == P1:
        values = np.stack([l0, l1, l2])
        grads = np.stack([
            np.stack([-one, -one], axis=-1),
            np.stack([one, zero], axis=-1),
            np.stack([zero, one], axis=-1),
        ])
        return values, grads
    if kind == P2:
        values = np.stack([
            l0 * (2 * l0 - 1), l1 * (2 * l1 - 1), l2 * (2 * l2 - 1),
            4 * l1 * l2, 4 * l2 * l0, 4 * l0 * l1,
        ])
        # d/dx, d/dy of the six shape functions
        gl = {0: (-one, -one), 1: (one, zero), 2: (zero, one)}
        g = []
        for i, li in enumerate((l0, l1, l2)):
            gx, gy = gl[i]
            g.append(np.stack([(4 * li - 1) * gx, (4 * li - 1) * gy], axis=-1))
        for i, j in ((1, 2), (2, 0), (0, 1)):
            li, lj = (l0, l1, l2)[i], (l0, l1, l2)[j]
            gix, giy = gl[i]
            gjx, gjy = gl[j]
            g.append(np.stack([4 * (li * gjx + lj * gix),
                               4 * (li * gjy + lj * giy)], axis=-1))
        return values, np.stack(g)
    raise ValueError(f"unknown element kind {kind!r}")


@dataclass
class Space:
    """A finite-element space over a mesh, without boundary conditions (the Dirichlet
    and Neumann sides are ``mesh.DIRICHLET_TAGS`` and ``mesh.NEUMANN_TAGS``)."""

    mesh: TriMesh
    kind: str

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown space kind {self.kind!r}")

    @property
    def scalar_kind(self) -> str:
        return P1 if self.kind == P1 else P2

    @property
    def components(self) -> int:
        return 2 if self.kind == P2_VECTOR else 1

    @property
    def num_scalar_dofs(self) -> int:
        if self.scalar_kind == P1:
            return self.mesh.num_vertices
        return self.mesh.num_vertices + self.mesh.num_edges

    @property
    def num_dofs(self) -> int:
        return self.components * self.num_scalar_dofs

    def cell_dofs(self) -> np.ndarray:
        """(nt, nb) global scalar dof indices per triangle.

        Vector spaces share the scalar layout; component c adds the offset
        c * num_scalar_dofs.
        """
        mesh = self.mesh
        if self.scalar_kind == P1:
            return mesh.triangles
        return np.hstack([mesh.triangles, mesh.num_vertices + mesh.tri_edges])

    def dof_coords(self) -> np.ndarray:
        """(num_scalar_dofs, 2) coordinates of the Lagrange nodes."""
        mesh = self.mesh
        if self.scalar_kind == P1:
            return mesh.vertices
        mids = 0.5 * (mesh.vertices[mesh.edges[:, 0]] + mesh.vertices[mesh.edges[:, 1]])
        return np.vstack([mesh.vertices, mids])

    def boundary_edge_dofs(self) -> np.ndarray:
        """(nb, 2) or (nb, 3) scalar dofs of each boundary edge: its two end
        vertices, then its midpoint for P2."""
        mesh = self.mesh
        if self.scalar_kind == P1:
            return mesh.boundary_edges
        return np.column_stack([mesh.boundary_edges, mesh.num_vertices + mesh.boundary_edge_ids])

    def boundary_scalar_dofs(self, tags) -> np.ndarray:
        """Sorted scalar dofs whose nodes lie on boundary edges with the given tags."""
        return np.unique(self.boundary_edge_dofs()[np.isin(self.mesh.boundary_tags, tags)])


def affine_maps(mesh: TriMesh):
    """Per-triangle affine geometry: Jacobians, inverse-transpose, determinants.

    Returns
    -------
    jac : (nt, 2, 2), inv_t : (nt, 2, 2), det : (nt,)
        det is twice the (positive) triangle area.
    """
    p0 = mesh.vertices[mesh.triangles[:, 0]]
    p1 = mesh.vertices[mesh.triangles[:, 1]]
    p2 = mesh.vertices[mesh.triangles[:, 2]]
    jac = np.stack([p1 - p0, p2 - p0], axis=-1)  # columns are edge vectors
    det = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
    inv = np.empty_like(jac)
    inv[:, 0, 0] = jac[:, 1, 1]
    inv[:, 0, 1] = -jac[:, 0, 1]
    inv[:, 1, 0] = -jac[:, 1, 0]
    inv[:, 1, 1] = jac[:, 0, 0]
    inv /= det[:, None, None]
    inv_t = np.transpose(inv, (0, 2, 1))
    return jac, inv_t, det


def physical_points(mesh: TriMesh, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Images of reference points on every triangle: ``(x, y)``, each (nt, nq)."""
    p0 = mesh.vertices[mesh.triangles[:, 0]]
    p1 = mesh.vertices[mesh.triangles[:, 1]]
    p2 = mesh.vertices[mesh.triangles[:, 2]]
    l1, l2 = points[:, 0], points[:, 1]
    l0 = 1.0 - l1 - l2
    return tuple(np.outer(p0[:, k], l0) + np.outer(p1[:, k], l1) + np.outer(p2[:, k], l2)
                 for k in range(2))


def interpolate(space: Space, f: Callable) -> np.ndarray:
    """Nodal interpolation onto the space: its coefficient array.

    ``f(x, y)`` receives coordinate arrays; scalar spaces expect an array of
    values, the vector space a pair/stack ``(f_x, f_y)``.
    """
    coords = space.dof_coords()
    out = f(coords[:, 0], coords[:, 1])
    if space.components == 1:
        return np.broadcast_to(np.asarray(out, dtype=float), (space.num_dofs,)).copy()
    fx, fy = out
    n = space.num_scalar_dofs
    return np.concatenate([np.broadcast_to(np.asarray(c, dtype=float), (n,)) for c in (fx, fy)])
