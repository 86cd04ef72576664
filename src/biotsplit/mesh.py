"""Structured triangulations of the unit square with tagged boundary edges.

The mesh type is deliberately plain: vertex coordinates, triangle connectivity,
and a list of boundary edges carrying integer side tags.  Side tags follow the
unit-square convention used throughout the package:

    1: right  (x = 1)      2: bottom (y = 0)
    3: left   (x = 0)      4: top    (y = 1)

``build_uniform`` splits every grid square along the lower-right to upper-left
diagonal; ``refine`` performs red (regular) refinement, so refining the uniform
n-mesh reproduces the uniform 2n-mesh up to vertex/triangle ordering.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

RIGHT, BOTTOM, LEFT, TOP = 1, 2, 3, 4

# Orientation of the diagonal that splits each grid cell of a uniform mesh;
# recorded in benchmark reports so runs are reproducible from their metadata.
CELL_SPLIT = "lower-right to upper-left"
DIRICHLET_TAGS = (RIGHT, LEFT)
NEUMANN_TAGS = (BOTTOM, TOP)

# Outward unit normal of each tagged side of the unit square.
SIDE_NORMALS = {
    RIGHT: np.array([1.0, 0.0]),
    BOTTOM: np.array([0.0, -1.0]),
    LEFT: np.array([-1.0, 0.0]),
    TOP: np.array([0.0, 1.0]),
}


@dataclass(frozen=True, eq=False)
class TriMesh:
    """Conforming triangle mesh, an immutable value.

    The mesh keeps read-only copies of the four arrays it is built from, and
    builds its edge tables once.  Two meshes are equal when their four arrays
    have the same dtype, shape and bytes; equal meshes hash alike.

    Attributes
    ----------
    vertices : (nv, 2) float array
        Vertex coordinates.
    triangles : (nt, 3) int array
        Vertex indices per triangle, counterclockwise.
    boundary_edges : (nb, 2) int array
        Vertex index pairs of boundary edges.
    boundary_tags : (nb,) int array
        Side tag (1-4) per boundary edge.
    edges, tri_edges, boundary_edge_ids : int arrays
        Built on construction: the (ne, 2) unique edges as sorted vertex pairs,
        lexicographically ordered; the (nt, 3) edge of each triangle opposite
        its local vertex k; the (nb,) edge of each boundary edge.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    boundary_edges: np.ndarray
    boundary_tags: np.ndarray
    edges: np.ndarray = field(init=False, repr=False)
    tri_edges: np.ndarray = field(init=False, repr=False)
    boundary_edge_ids: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        def freeze(name, array):
            array = np.array(array, order="C")
            array.flags.writeable = False
            object.__setattr__(self, name, array)

        for name in ("vertices", "triangles", "boundary_edges", "boundary_tags"):
            freeze(name, getattr(self, name))
        tri, nv = self.triangles, self.num_vertices
        # local edge k connects vertices (k+1, k+2) mod 3; the key lo * nv + hi
        # sorts the edges as (lo, hi) pairs
        pairs = np.concatenate([tri[:, [1, 2]], tri[:, [2, 0]], tri[:, [0, 1]]])
        lo, hi = np.sort(pairs, axis=1).astype(np.int64).T
        keys, inverse = np.unique(lo * nv + hi, return_inverse=True)
        freeze("edges", np.column_stack(np.divmod(keys, nv)).astype(tri.dtype))
        freeze("tri_edges", inverse.reshape(3, -1).T)
        lo, hi = np.sort(self.boundary_edges, axis=1).astype(np.int64).T
        freeze("boundary_edge_ids", np.searchsorted(keys, lo * nv + hi))

    def _content(self) -> tuple:
        return tuple((a.dtype.str, a.shape, a.tobytes()) for a in (
            self.vertices, self.triangles, self.boundary_edges, self.boundary_tags))

    def __eq__(self, other) -> bool:
        if not isinstance(other, TriMesh):
            return NotImplemented
        return self._content() == other._content()

    def __hash__(self) -> int:
        return hash(self._content())

    @property
    def num_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def num_triangles(self) -> int:
        return self.triangles.shape[0]

    @property
    def num_edges(self) -> int:
        return self.edges.shape[0]


def dissection_keys(mesh: TriMesh, points: np.ndarray) -> np.ndarray:
    """Nested-dissection keys of the nodes ``points`` of a space on ``mesh``.

    Sorting by key orders every box "left part, right part, separator",
    recursively.  Coordinates are snapped to units of half the grid step (the
    shortest edge), so grid lines are the even values.  Each node's box starts
    as the bounding box of all points; level by level, the wider side of the
    box (y if it is square) is cut at its middle grid line, and the node
    appends the base-3 digit 0 (below the cut), 1 (above it) or 2 (on it,
    and stops).  A box one cell wide stops all of its nodes.  No triangle of a grid mesh crosses a grid
    line, so every cut is a vertex separator of every P1 and P2 block, and the
    order's fill grows as O(n log n) (George, SIAM J. Numer. Anal. 10, 1973).
    Keys depend on a node's coordinates alone, so the vertices of a P2 space
    carry the keys of the P1 space.
    """
    d = mesh.vertices[mesh.edges[:, 0]] - mesh.vertices[mesh.edges[:, 1]]
    half_step = 0.5 * float(np.sqrt((d * d).sum(axis=1)).min())
    x, y = np.rint((points - points.min(axis=0)) / half_step).astype(np.int64).T
    # each node's box [x0, x1] x [y0, y1], its sides on grid lines
    x0, y0 = np.zeros_like(x), np.zeros_like(y)
    x1 = np.full_like(x, x.max() + x.max() % 2)
    y1 = np.full_like(y, y.max() + y.max() % 2)
    keys = np.zeros(len(x), dtype=np.int64)
    active = np.ones(len(x), dtype=bool)
    while active.any():
        if keys.max() > np.iinfo(np.int64).max // 3:  # rank keys, keeping their order
            keys = np.unique(keys, return_inverse=True)[1].reshape(-1)
        on_x = x1 - x0 > y1 - y0  # a square box is cut by a line y = c
        lo = np.where(on_x, x0, y0)
        width = np.where(on_x, x1, y1) - lo
        cut = lo + 2 * (width // 4)
        side = np.where(on_x, x, y)
        digit = np.where(side < cut, 0, np.where(side > cut, 1, 2))
        digit[width <= 2] = 2
        digit[~active] = 0
        keys = 3 * keys + digit
        below, above = digit == 0, digit == 1
        x1 = np.where(below & on_x, cut, x1)
        y1 = np.where(below & ~on_x, cut, y1)
        x0 = np.where(above & on_x, cut, x0)
        y0 = np.where(above & ~on_x, cut, y0)
        active &= digit != 2
    return keys


def build_uniform(n: int) -> TriMesh:
    """Uniform triangulation of [0,1]^2 with n cells per side.

    Vertices are numbered row by row (y-major); every square cell is split
    along the diagonal joining its lower-right and upper-left corners,
    giving 2*n^2 triangles.
    """
    if n < 1:
        raise ValueError(f"cells per side must be >= 1, got {n}")
    side = np.linspace(0.0, 1.0, n + 1)
    xx, yy = np.meshgrid(side, side)  # row index = y
    vertices = np.column_stack([xx.ravel(), yy.ravel()])

    def vid(ix, iy):
        return iy * (n + 1) + ix

    i = np.arange(n, dtype=np.int64)
    cell = vid(i[None, :], i[:, None]).ravel()  # lower-left vertex of each cell, row by row
    triangles = np.column_stack([
        cell, cell + 1, cell + n + 1,            # below the diagonal
        cell + 1, cell + n + 2, cell + n + 1,    # above the diagonal
    ]).reshape(-1, 3)
    # for each i, edge i of the right, bottom, left and top sides
    starts = np.column_stack([vid(n, i), vid(i, 0), vid(0, i), vid(i, n)])
    ends = np.column_stack([vid(n, i + 1), vid(i + 1, 0), vid(0, i + 1), vid(i + 1, n)])
    return TriMesh(
        vertices=vertices,
        triangles=triangles,
        boundary_edges=np.stack([starts, ends], axis=-1).reshape(-1, 2),
        boundary_tags=np.tile(np.array([RIGHT, BOTTOM, LEFT, TOP], dtype=np.int64), n),
    )


def refine(mesh: TriMesh) -> TriMesh:
    """Red refinement: each triangle is split into four via edge midpoints.

    Boundary children inherit their parent's side tag.  New vertices are
    appended after the parent ones, one per parent edge.
    """
    nv = mesh.num_vertices
    edges = mesh.edges
    midpoints = 0.5 * (mesh.vertices[edges[:, 0]] + mesh.vertices[edges[:, 1]])
    vertices = np.vstack([mesh.vertices, midpoints])

    tri = mesh.triangles
    m = nv + mesh.tri_edges  # (nt, 3) midpoint vertex ids, m[:,k] opposite vertex k
    children = np.concatenate(
        [
            np.column_stack([tri[:, 0], m[:, 2], m[:, 1]]),
            np.column_stack([tri[:, 1], m[:, 0], m[:, 2]]),
            np.column_stack([tri[:, 2], m[:, 1], m[:, 0]]),
            np.column_stack([m[:, 0], m[:, 1], m[:, 2]]),
        ]
    )

    # each boundary edge (a, b) becomes (a, mid), (mid, b), in parent order
    a, b = mesh.boundary_edges.T
    mid = nv + mesh.boundary_edge_ids
    bedges = np.column_stack([a, mid, mid, b]).reshape(-1, 2)

    return TriMesh(
        vertices=vertices,
        triangles=children,
        boundary_edges=bedges,
        boundary_tags=np.repeat(mesh.boundary_tags, 2),
    )

