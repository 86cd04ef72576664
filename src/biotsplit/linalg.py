"""Sparse direct factorization, and the residual of every solve.

``lu_factor`` factors the CSR matrix it is given and ``Factorization.solve``
solves with it; neither knows how the caller numbered the system (``biot``
writes every block system in a nested-dissection order of its mesh, and
gathers and scatters through it).  SuperLU factors the transpose: the CSR
arrays of A, read as a CSC, are the matrix of A^T, so it gets them without a
copy, and each solve is SuperLU's transposed solve.  That is the reason for
the transposed solve; it measured no faster than the plain one.  SuperLU
keeps the order because the pivots stay on the diagonal: the block systems
are symmetric quasi-definite or SPD, and those factor stably with diagonal
pivots in any symmetric order (Vanderbei, SIAM J. Optim. 5, 1995).
Each factorization first returns the allocator's free heap pages to the OS
(glibc's ``malloc_trim``; nothing is called where the C library lacks it).
SuperLU's panel workspace, about 16 B per unknown per panel column, is freed
only when the factorization ends, which is where the process peak lies, so
the panel is 8 columns wide rather than scipy's 20.

SuperLU is called through scipy's extension module
``scipy.sparse.linalg._dsolve._superlu``, with the ``gstrf`` call that
``scipy.sparse.linalg.splu`` makes, so the factor is the one ``splu`` returns.
The extension is loaded from its file without importing
``scipy.sparse.linalg``, whose ``__init__`` also loads the iterative, eigen
and matrix-function solvers and ``scipy.linalg``'s LAPACK and ARPACK
extensions: 77 modules and about 8.5 MB resident in every process (RSS after
``import biotsplit`` 62.3 against 53.6 MB with scipy 1.17.1), which are also
resident at every factorization's peak.  A later ``import scipy.sparse.linalg``
reuses the one extension module.

Every solve returns its relative residual ``||Ax - b|| / ||b||``, so the
caller can prove after the fact that no linear system was solved sloppily;
a factorization keeps no state that a solve changes.  That norm, like every
norm and energy that the reports print, is summed by numpy (``inner``), not
by the BLAS, whose threaded dot product rounds differently for each thread
count.
"""
from __future__ import annotations

import ctypes
import importlib.machinery
import importlib.util
import math
import os
import sys

import numpy as np
import scipy.sparse as sparse


class SingularMatrixError(RuntimeError):
    """Factorization hit a singular pivot."""


def _find_malloc_trim():
    """glibc's ``int malloc_trim(size_t pad)``, or None where there is none:
    the C library lacks the symbol (macOS, musl) or ``CDLL(None)`` cannot
    open the running program (Windows raises TypeError there)."""
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):
        return None
    trim.argtypes = [ctypes.c_size_t]
    trim.restype = ctypes.c_int
    return trim


#: Resolved once at import; ``lu_factor`` calls it when it is not None.
_malloc_trim = _find_malloc_trim()

#: scipy's SuperLU extension, which ``scipy.sparse.linalg.splu`` calls.
_SUPERLU = "scipy.sparse.linalg._dsolve._superlu"


def _find_superlu():
    """scipy's SuperLU extension module, loaded without ``scipy.sparse.linalg``.

    That package's ``__init__`` also loads its iterative, eigen and
    matrix-function solvers and ``scipy.linalg``'s LAPACK and ARPACK
    extensions, none of which this library calls.  So the extension is taken
    from ``sys.modules`` when something has imported it already, or else is
    loaded from its file and registered under its own name, so that a later
    ``import scipy.sparse.linalg`` reuses this one module; where the file is
    not found, it is imported the ordinary way.
    """
    if _SUPERLU in sys.modules:
        return sys.modules[_SUPERLU]
    where = os.path.join(os.path.dirname(sparse.__file__), "linalg", "_dsolve")
    spec = importlib.machinery.PathFinder.find_spec(_SUPERLU, [where])
    if spec is None:
        return importlib.import_module(_SUPERLU)
    module = importlib.util.module_from_spec(spec)
    sys.modules[_SUPERLU] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:
        del sys.modules[_SUPERLU]
        raise
    return module


#: Resolved once at import; ``lu_factor`` calls its ``gstrf``.
_superlu = _find_superlu()

#: Columns in SuperLU's factorization panel (scipy's default is 20).  The
#: panel workspace, about 16 B per unknown per column, is freed only when the
#: factorization returns, so it sits on top of the finished L and U, where the
#: process peak lies: at 20 columns about 13 MB on the coupled system at
#: 1/h = 64 (n = 41.7k).  8 keeps the fill, the pivots and the factor time;
#: narrower panels save a few MB more but factor more slowly.
_PANEL_SIZE = 8

#: Phrases of SuperLU's allocator failures, as they appear in ``splu`` errors.
_OUT_OF_MEMORY = ("SUPERLU_MALLOC", "Can't expand MemType")


class Factorization:
    """Reusable sparse LU factorization of ``matrix``, a square CSR.

    ``lu`` factors the transpose of ``matrix`` (the same arrays); ``matrix``
    is kept for the residuals and is the only copy of the system.
    """

    def __init__(self, matrix: sparse.csr_matrix, lu):
        self.matrix = matrix
        self._lu = lu

    def solve(self, b: np.ndarray) -> tuple[np.ndarray, float]:
        """Solve the system for b; returns the solution and its relative
        residual, taken against ``matrix`` by a CSR product (NaN if the
        solution or b holds a NaN)."""
        b = np.asarray(b, dtype=float)
        x = self._lu.solve(b, trans="T")
        return x, _relative_residual(self.matrix @ x - b, b)


def _relative_residual(r: np.ndarray, b: np.ndarray) -> float:
    """``||r|| / ||b||``, or ``||r||`` when b is zero."""
    scale, (rnorm, bnorm) = scaled_norms(
        lambda r, b: (math.sqrt(inner(r, r)), math.sqrt(inner(b, b))), r, b)
    return rnorm / bnorm if bnorm > 0 else rnorm / scale


def inner(x: np.ndarray, y: np.ndarray) -> float:
    """``sum(x * y)`` by numpy's pairwise summation.  ``x @ y`` on vectors and
    ``np.linalg.norm`` call the BLAS ``ddot``, whose threaded path splits the
    sum by the thread count, so their last bits depend on it; this does not."""
    return float(np.sum(x * y))


def scaled_norms(norms, *arrays) -> tuple[float, tuple]:
    """``(s, norms(*(s * a for a in arrays)))``, where ``norms`` returns square
    roots of sums of squares of the arrays' entries.  s is 1 unless a square
    overflows or underflows (entries beyond about 1e154 or below 1e-154), so
    that a result is not finite or is zero while an entry is not; then it is
    the power of two that brings the largest entry into [1/2, 1), which is exact."""
    with np.errstate(over="ignore", under="ignore"):
        out = norms(*arrays)
        if all(0.0 < v < math.inf for v in out):
            return 1.0, out
        top = float(np.max([np.abs(a).max(initial=0.0) for a in arrays]))
        if not 0.0 < top < math.inf:  # all zero, or a non-finite entry
            return 1.0, out
        scale = math.ldexp(1.0, -math.frexp(top)[1])
        return scale, norms(*(scale * a for a in arrays))


def lu_factor(A: sparse.csr_matrix) -> Factorization:
    """Factor a square CSR matrix with SuperLU, in the order it is given.

    SuperLU factors ``A.T``, the CSC of A^T on the same arrays, with no copy,
    and keeps its order (``NATURAL``, ``SymmetricMode``); the solves are
    transposed solves, so they solve A x = b.  A diagonal entry is taken as
    the pivot unless it is smaller than 1e-3 times the largest entry of its
    column of A^T (its row of A), in which case SuperLU pivots off the
    diagonal, so the factorization stays a general LU.  On the symmetric
    quasi-definite and SPD systems of this library the pivots stay on the
    diagonal, so the fill is the fill of the order the caller numbered A in.
    The panel is ``_PANEL_SIZE`` columns wide: SuperLU's workspace takes about
    16 B per unknown per panel column and is freed only when the factorization
    ends, on top of the finished factor, where the process peak lies.

    Raises
    ------
    ValueError
        If A is not a square CSR matrix, or its indices do not fit SuperLU's
        C int.
    SingularMatrixError
        If the matrix is structurally or numerically singular; structurally
        empty rows/columns are named explicitly, by their index in A.
    MemoryError
        If SuperLU reports that its allocator failed.
    RuntimeError
        If SuperLU rejects its own arguments, which it does when it runs out
        of memory at some stages.
    """
    if not (sparse.issparse(A) and A.format == "csr"):
        raise ValueError(f"lu_factor takes a CSR matrix, got {type(A).__name__}")
    n, m = A.shape
    if n != m:
        raise ValueError(f"matrix must be square, got {n}x{m}")
    row_counts = np.diff(A.indptr)
    if np.any(row_counts == 0):
        row = int(np.argmin(row_counts))
        raise SingularMatrixError(f"matrix is structurally singular: row {row} is empty")
    col_counts = np.bincount(A.indices, minlength=n)
    if np.any(col_counts == 0):
        col = int(np.argmin(col_counts))
        raise SingularMatrixError(f"matrix is structurally singular: column {col} is empty")
    what = f"sparse LU of a {n}x{n} matrix with {A.nnz} nonzeros"
    # SuperLU gets what ``splu(A.T, ...)`` would pass it: the canonical arrays
    # (summed and sorted in place, a no-op here), a floating-point type and C
    # int indices (no copies for float64 data and int32 indices)
    if max(n, A.nnz) > np.iinfo(np.intc).max:
        raise ValueError(f"{what} has indices too large for SuperLU")
    A.sum_duplicates()
    data = A.data.astype(np.result_type(A.dtype, np.float32), copy=False)
    indices, indptr = (a.astype(np.intc, copy=False) for a in (A.indices, A.indptr))
    # The factor grows without reusing the heap's freed blocks (left by earlier
    # levels, load functionals and the elimination's temporaries), so they would
    # stay resident beside it; the peak RSS falls inside the largest factorization.
    if _malloc_trim is not None:
        _malloc_trim(0)
    try:
        lu = _superlu.gstrf(n, A.nnz, data, indices, indptr,
                            csc_construct_func=sparse.csc_array, ilu=False,
                            options=dict(ColPerm="NATURAL", DiagPivotThresh=1e-3,
                                         PanelSize=_PANEL_SIZE, Relax=None,
                                         SymmetricMode=True))
    except SystemError as exc:
        raise RuntimeError(f"{what} failed: {exc} (SuperLU may have run out of memory)") from exc
    except RuntimeError as exc:  # SuperLU reports numeric singularity this way
        if any(key in str(exc) for key in _OUT_OF_MEMORY):
            raise MemoryError(f"{what} ran out of memory: {exc}") from exc
        raise SingularMatrixError(f"sparse LU failed: {exc}") from exc
    return Factorization(A, lu)
