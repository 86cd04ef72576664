"""Sparse direct factorization and CG, with per-solve residual tracking.

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


class ConvergenceError(RuntimeError):
    """Iterative solve exhausted its iteration budget."""

    def __init__(self, message, iterations, residual, history=None):
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual
        self.history = history


class Factorization:
    """Reusable sparse LU factorization with a residual log."""

    def __init__(self, matrix: sparse.csr_matrix, lu):
        self._matrix = matrix
        self._lu = lu
        self.num_solves = 0
        self.max_rel_residual = 0.0

    @property
    def shape(self):
        return self._matrix.shape

    def solve(self, b: np.ndarray, return_residual: bool = False):
        """Solve Ax = b; records the relative residual of this solve."""
        b = np.asarray(b, dtype=float)
        x = self._lu.solve(b)
        r = self._matrix @ x - b
        bnorm = float(np.linalg.norm(b))
        rel = float(np.linalg.norm(r)) / bnorm if bnorm > 0 else float(np.linalg.norm(r))
        self.num_solves += 1
        if np.isnan(rel) or rel > self.max_rel_residual:
            self.max_rel_residual = rel
        return (x, r) if return_residual else x


def lu_factor(A: sparse.spmatrix) -> Factorization:
    """Factor a square sparse matrix with SuperLU (COLAMD ordering, deterministic).

    Raises
    ------
    SingularMatrixError
        If the matrix is structurally or numerically singular; structurally
        empty rows/columns are named explicitly.
    """
    A = sparse.csr_matrix(A)
    n, m = A.shape
    if n != m:
        raise ValueError(f"matrix must be square, got {n}x{m}")
    row_counts = np.diff(A.indptr)
    if np.any(row_counts == 0):
        row = int(np.argmin(row_counts))
        raise SingularMatrixError(f"matrix is structurally singular: row {row} is empty")
    col_counts = np.diff(sparse.csc_matrix(A).indptr)
    if np.any(col_counts == 0):
        col = int(np.argmin(col_counts))
        raise SingularMatrixError(f"matrix is structurally singular: column {col} is empty")
    try:
        lu = spla.splu(A.tocsc(), permc_spec="COLAMD")
    except RuntimeError as exc:  # SuperLU reports numeric singularity this way
        raise SingularMatrixError(f"sparse LU failed: {exc}") from exc
    return Factorization(A, lu)


def cg_solve(A: sparse.spmatrix, b: np.ndarray, tol: float = 1e-10,
             maxit: int = 1000) -> tuple[np.ndarray, int]:
    """Conjugate gradients for SPD systems.

    Returns (x, iterations).  b = 0 returns the zero vector in 0 iterations.

    Raises
    ------
    ConvergenceError
        After ``maxit`` iterations without reaching the relative residual
        ``tol``; carries the iteration count, final residual, and history.
    """
    b = np.asarray(b, dtype=float)
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return np.zeros_like(b), 0
    x = np.zeros_like(b)
    r = b.copy()
    d = r.copy()
    rr = float(r @ r)
    history = []
    for it in range(1, maxit + 1):
        Ad = A @ d
        alpha = rr / float(d @ Ad)
        x += alpha * d
        r -= alpha * Ad
        rr_new = float(r @ r)
        rel = np.sqrt(rr_new) / bnorm
        history.append(rel)
        if rel <= tol:
            return x, it
        d = r + (rr_new / rr) * d
        rr = rr_new
    raise ConvergenceError(
        f"CG did not reach tol={tol:g} in {maxit} iterations "
        f"(final relative residual {history[-1]:.3e})",
        iterations=maxit, residual=history[-1], history=history)
