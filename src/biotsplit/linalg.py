"""Sparse matrices, and their direct factorization with the residual of every solve.

``CSR`` is the library's sparse matrix, a canonical CSR (sorted column
indices, no duplicates, int32 indices) that nothing writes to once it is
built, and ``COO`` holds the raw triplets that a block system is stitched
from (``bmat``).  A ``CSR`` is built and multiplied by scipy's compiled
kernels, the ones that ``scipy.sparse`` calls for ``csr_matrix((v, (i, j)))``
(``coo_tocsr``, then the canonical-format check, sort and duplicate sum),
``A @ x`` (``csr_matvec``) and ``A.T @ x`` (``csc_matvec``), on the same
arrays, so every value is the one ``scipy.sparse`` computes.  The library
thus relies on the signatures of those private kernels, which
``tests/test_assembly.py`` pins bit for bit against ``scipy.sparse``.
``CSR.tocsr`` and ``CSR.T`` hand a matrix to scipy (a file writer, or
``splu`` in the tests), and import ``scipy.sparse`` only then.

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
That extension and the kernels' module ``scipy.sparse._sparsetools`` are
loaded from their files without importing any scipy package: ``scipy.sparse``
loads ``scipy._lib``, whose array-API layer reads every attribute of numpy and
so loads all of numpy's lazy submodules (``f2py``, ``testing``, ``ma``,
``polynomial``, ``random``, ``fft``), and ``scipy.sparse.linalg`` adds its
iterative, eigen and matrix-function solvers and ``scipy.linalg``'s LAPACK
and ARPACK extensions.  With scipy 1.17.1 and numpy 2.4.6, ``import
biotsplit`` loads 227 modules and holds 31 MB resident, against 543 modules
and 52.5 MB with ``scipy.sparse`` and 619 modules and 62.3 MB with
``scipy.sparse.linalg``, and all of that is also resident at every
factorization's peak.  A later ``import scipy.sparse`` or
``scipy.sparse.linalg`` reuses the two modules.

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

#: scipy's extension modules that this library calls: the sparse kernels of
#: ``scipy.sparse`` and SuperLU, which ``scipy.sparse.linalg.splu`` calls.
_SPARSETOOLS = "scipy.sparse._sparsetools"
_SUPERLU = "scipy.sparse.linalg._dsolve._superlu"


def _load_extension(name):
    """scipy's extension module ``name``, loaded without importing a scipy package.

    The module is taken from ``sys.modules`` when something has imported it
    already, or else is loaded from its file under scipy's directory (which
    ``importlib.util.find_spec`` locates without importing scipy) and
    registered under its own name, so that a later import of its package
    reuses this one module; where the file is not found, it is imported the
    ordinary way.
    """
    if name in sys.modules:
        return sys.modules[name]
    scipy = importlib.util.find_spec("scipy")
    spec = None
    if scipy is not None and scipy.submodule_search_locations:
        where = os.path.join(scipy.submodule_search_locations[0], *name.split(".")[1:-1])
        spec = importlib.machinery.PathFinder.find_spec(name, [where])
    if spec is None:
        return importlib.import_module(name)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:
        del sys.modules[name]
        raise
    return module


#: Resolved once at import: ``CSR`` and ``COO`` call the kernels, ``lu_factor``
#: calls ``gstrf``.
_sparsetools = _load_extension(_SPARSETOOLS)
_superlu = _load_extension(_SUPERLU)


class CSR:
    """A sparse matrix in canonical compressed sparse row form, a value that
    nothing writes to once it is built.

    Row i holds ``data[indptr[i]:indptr[i + 1]]`` in the columns
    ``indices[indptr[i]:indptr[i + 1]]``, sorted and without duplicates; the
    index arrays are int32.  The same arrays read as a CSC are the matrix of
    A^T, which is how SuperLU gets them and how ``rmatvec`` multiplies.
    """

    __slots__ = ("shape", "data", "indices", "indptr")
    format = "csr"

    def __init__(self, shape, data, indices, indptr):
        self.shape, self.data, self.indices, self.indptr = tuple(shape), data, indices, indptr

    @property
    def nnz(self) -> int:
        return int(self.indptr[-1])

    @classmethod
    def from_coo(cls, shape, row, col, data) -> CSR:
        """``scipy.sparse.csr_matrix((data, (row, col)), shape)``, by its kernels:
        the entries in row order, each row sorted and its duplicates summed."""
        m, n = shape
        if max(m, n, len(data)) > np.iinfo(np.int32).max:
            raise ValueError(f"a {m}x{n} matrix with {len(data)} entries needs int64 indices")
        # the kernels index with these unchecked, as scipy's COO checks them first
        if not len(row) == len(col) == len(data):
            raise ValueError("row, col and data must have one length")
        for index, size in ((row, m), (col, n)):
            if len(index) and not 0 <= index.min() <= index.max() < size:
                raise ValueError(f"an entry lies outside the {m}x{n} matrix")
        indptr = np.empty(m + 1, dtype=np.int32)
        indices = np.empty(len(data), dtype=np.int32)
        values = np.empty_like(data)
        _sparsetools.coo_tocsr(m, n, len(data), row.astype(np.int32, copy=False),
                               col.astype(np.int32, copy=False), data, indptr, indices, values)
        if not _sparsetools.csr_has_canonical_format(m, indptr, indices):
            if not _sparsetools.csr_has_sorted_indices(m, indptr, indices):
                _sparsetools.csr_sort_indices(m, indptr, indices, values)
            _sparsetools.csr_sum_duplicates(m, n, indptr, indices, values)
            indices, values = indices[:indptr[-1]], values[:indptr[-1]]
        return cls((m, n), values, indices, indptr)

    def tocoo(self) -> COO:
        """The entries as triplets, in row order; ``col`` and ``data`` are this
        matrix's arrays."""
        row = np.empty(self.nnz, dtype=np.int32)
        _sparsetools.expandptr(self.shape[0], self.indptr, row)
        return COO(self.shape, row, self.indices, self.data)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        """``A @ x`` for a vector x (``csr_matvec``)."""
        return self._product(_sparsetools.csr_matvec, self.shape, x)

    def rmatvec(self, x: np.ndarray) -> np.ndarray:
        """``A.T @ x`` for a vector x: the arrays read as the CSC of A^T (``csc_matvec``)."""
        return self._product(_sparsetools.csc_matvec, self.shape[::-1], x)

    def _product(self, kernel, shape, x):
        m, n = shape
        x = np.asarray(x)
        if x.shape != (n,):
            raise ValueError(f"a {m}x{n} matrix cannot multiply an array of shape {x.shape}")
        y = np.zeros(m, dtype=np.result_type(self.data, x))
        kernel(m, n, self.indptr, self.indices, self.data, x, y)
        return y

    def tocsr(self, copy: bool = False):
        """This matrix as scipy's ``csr_array`` on the same arrays (on copies if
        ``copy``); imports ``scipy.sparse``, for callers that hand it to scipy."""
        from scipy.sparse import csr_array

        return csr_array((self.data, self.indices, self.indptr), shape=self.shape, copy=copy)

    @property
    def T(self):
        """A^T as scipy's ``csc_array`` on the same arrays (see ``tocsr``)."""
        return self.tocsr().T


class COO:
    """Sparse matrix entries as triplets: ``data[k]`` at ``(row[k], col[k])``.

    Scaling, negation and ``T`` make new values on the same index arrays.
    """

    __slots__ = ("shape", "row", "col", "data")

    def __init__(self, shape, row, col, data):
        self.shape, self.row, self.col, self.data = tuple(shape), row, col, data

    @property
    def T(self) -> COO:
        return COO(self.shape[::-1], self.col, self.row, self.data)

    def __rmul__(self, scale: float) -> COO:
        return COO(self.shape, self.row, self.col, scale * self.data)

    def __neg__(self) -> COO:
        return COO(self.shape, self.row, self.col, -self.data)


def bmat(blocks) -> COO:
    """The block matrix of ``blocks``, rows of COO blocks with None for a zero
    block, as ``scipy.sparse.bmat(blocks, format="coo")`` builds it: each
    block's entries in row-major block order, offset by the rows and columns
    of the blocks before it."""
    heights = [next(b.shape[0] for b in row if b is not None) for row in blocks]
    widths = [next(row[j].shape[1] for row in blocks if row[j] is not None)
              for j in range(len(blocks[0]))]
    first_row, first_col = np.cumsum([0] + heights).tolist(), np.cumsum([0] + widths).tolist()
    parts = [(b, first_row[i], first_col[j])
             for i, row in enumerate(blocks) for j, b in enumerate(row) if b is not None]
    nnz = sum(len(b.data) for b, _, _ in parts)
    row, col, data = np.empty(nnz, dtype=np.int32), np.empty(nnz, dtype=np.int32), np.empty(nnz)
    at = 0
    for b, r, c in parts:
        part = slice(at, at + len(b.data))
        np.add(b.row, r, out=row[part], dtype=np.int32)
        np.add(b.col, c, out=col[part], dtype=np.int32)
        data[part] = b.data
        at = part.stop
    return COO((first_row[-1], first_col[-1]), row, col, data)


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

    def __init__(self, matrix: CSR, lu):
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


def _csc_array(*args, **kwargs):
    """scipy's ``csc_array``, which SuperLU builds L and U with: imported when a
    caller first reads ``L`` or ``U`` of a factor, which no solve does."""
    from scipy.sparse import csc_array

    return csc_array(*args, **kwargs)


def lu_factor(A: CSR) -> Factorization:
    """Factor a square CSR matrix with SuperLU, in the order it is given.

    A is a ``CSR``, or any CSR with the same arrays, such as scipy's
    ``csr_matrix``, which is summed and sorted in place first, as ``splu``
    does.

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
    if getattr(A, "format", None) != "csr":
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
    # (a ``CSR`` is canonical), a floating-point type and C int indices (no
    # copies for float64 data and int32 indices)
    if max(n, A.nnz) > np.iinfo(np.intc).max:
        raise ValueError(f"{what} has indices too large for SuperLU")
    if not isinstance(A, CSR):
        A.sum_duplicates()
    data = A.data.astype(np.result_type(A.data, np.float32), copy=False)
    indices, indptr = (a.astype(np.intc, copy=False) for a in (A.indices, A.indptr))
    # The factor grows without reusing the heap's freed blocks (left by earlier
    # levels, load functionals and the elimination's temporaries), so they would
    # stay resident beside it; the peak RSS falls inside the largest factorization.
    if _malloc_trim is not None:
        _malloc_trim(0)
    try:
        lu = _superlu.gstrf(n, A.nnz, data, indices, indptr,
                            csc_construct_func=_csc_array, ilu=False,
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
