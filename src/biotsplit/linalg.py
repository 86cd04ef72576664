"""Sparse direct factorization in a given symmetric order, with per-solve
residual tracking.

The caller supplies the order (``biot`` numbers every block system by nested
dissection of its mesh).  SuperLU keeps it because the pivots stay on the
diagonal: the block systems are symmetric quasi-definite or SPD, and those
factor stably with diagonal pivots in any symmetric order (Vanderbei, SIAM J.
Optim. 5, 1995).

Every solve records its relative residual ``||Ax - b|| / ||b||`` so a run can
prove after the fact that no linear system was solved sloppily; the benchmark
marks its report tainted if any residual exceeded 1e-9.  A NaN residual sticks
in the log, so it cannot hide behind a later finite one.
"""
from __future__ import annotations

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as spla


class SingularMatrixError(RuntimeError):
    """Factorization hit a singular pivot."""


#: Phrases of SuperLU's allocator failures, as they appear in ``splu`` errors.
_OUT_OF_MEMORY = ("SUPERLU_MALLOC", "Can't expand MemType")


class Factorization:
    """Reusable sparse LU factorization of ``A[perm][:, perm]`` with a residual log."""

    def __init__(self, matrix: sparse.csr_matrix, lu, perm: np.ndarray):
        self._matrix = matrix
        self._lu = lu
        self._perm = perm
        self.num_solves = 0
        self.max_rel_residual = 0.0

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve Ax = b; records the relative residual of this solve."""
        b = np.asarray(b, dtype=float)
        x = np.empty_like(b)
        x[self._perm] = self._lu.solve(b[self._perm])
        r = self._matrix @ x - b
        bnorm = float(np.linalg.norm(b))
        rel = float(np.linalg.norm(r)) / bnorm if bnorm > 0 else float(np.linalg.norm(r))
        self.num_solves += 1
        if np.isnan(rel) or rel > self.max_rel_residual:
            self.max_rel_residual = rel
        return x


def lu_factor(A: sparse.spmatrix, order: np.ndarray) -> Factorization:
    """Factor a square sparse matrix with SuperLU in the symmetric order ``order``.

    ``order`` is a permutation of ``0..n-1``; row and column ``order[k]`` of A
    become the k-th of the factored matrix, and SuperLU keeps that order
    (``NATURAL``, ``SymmetricMode``).  A diagonal entry is taken as the pivot
    unless it is smaller than 1e-3 times the largest entry of its column, in
    which case SuperLU pivots off the diagonal, so the factorization stays a
    general LU.  Every system this library builds is symmetric quasi-definite
    or SPD, and such a matrix factors with diagonal pivots in any symmetric
    order (Vanderbei, SIAM J. Optim. 5, 1995), so the fill is the fill of the
    order.  The residual of every solve is taken against A itself.

    Raises
    ------
    ValueError
        If A is not square or ``order`` is not a permutation of its rows.
    SingularMatrixError
        If the matrix is structurally or numerically singular; structurally
        empty rows/columns are named explicitly.
    MemoryError
        If SuperLU reports that its allocator failed.
    RuntimeError
        If SuperLU rejects its own arguments, which it does when it runs out
        of memory at some stages.
    """
    A = sparse.csr_matrix(A)
    n, m = A.shape
    if n != m:
        raise ValueError(f"matrix must be square, got {n}x{m}")
    order = np.asarray(order)
    if (order.shape != (n,) or not np.issubdtype(order.dtype, np.integer)
            or not np.array_equal(np.sort(order), np.arange(n))):
        raise ValueError(f"order must be a permutation of 0..{n - 1}")
    row_counts = np.diff(A.indptr)
    if np.any(row_counts == 0):
        row = int(np.argmin(row_counts))
        raise SingularMatrixError(f"matrix is structurally singular: row {row} is empty")
    col_counts = np.bincount(A.indices, minlength=n)
    if np.any(col_counts == 0):
        col = int(np.argmin(col_counts))
        raise SingularMatrixError(f"matrix is structurally singular: column {col} is empty")
    what = f"sparse LU of a {n}x{n} matrix with {A.nnz} nonzeros"
    try:
        lu = spla.splu(A[order][:, order].tocsc(), permc_spec="NATURAL",
                       diag_pivot_thresh=1e-3, options=dict(SymmetricMode=True))
    except SystemError as exc:
        raise RuntimeError(f"{what} failed: {exc} (SuperLU may have run out of memory)") from exc
    except RuntimeError as exc:  # SuperLU reports numeric singularity this way
        if any(key in str(exc) for key in _OUT_OF_MEMORY):
            raise MemoryError(f"{what} ran out of memory: {exc}") from exc
        raise SingularMatrixError(f"sparse LU failed: {exc}") from exc
    return Factorization(A, lu, order)

