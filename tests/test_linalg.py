"""Direct solver contracts."""
import ctypes
import importlib.util
import os
import subprocess
import sys
import tracemalloc
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sparse
import scipy.sparse.linalg as spla

from biotsplit import linalg
from biotsplit.assembly import constrain_matrix
from biotsplit.benchmark import benchmark_loads, make_case, run_study
from biotsplit.biot import build_system
from biotsplit.linalg import SingularMatrixError, lu_factor
from biotsplit.mesh import TriMesh, build_uniform, dissection_keys, refine
from helpers import block_matrix, superlu_calling


def random_spd(n, rng):
    B = rng.standard_normal((n, n))
    return sparse.csr_matrix(B @ B.T + n * np.eye(n))


def test_lu_identity():
    fact = lu_factor(sparse.eye(5, format="csr"))
    b = np.arange(5.0)
    x, residual = fact.solve(b)
    np.testing.assert_allclose(x, b, atol=1e-15)
    assert residual == 0.0


def test_lu_two_by_two():
    A = sparse.csr_matrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
    x, _ = lu_factor(A).solve(np.array([3.0, 3.0]))
    np.testing.assert_allclose(x, [1.0, 1.0], atol=1e-14)


def test_lu_random_spd_residual(rng):
    A = random_spd(40, rng)
    b = rng.standard_normal(40)
    fact = lu_factor(A)
    state = dict(vars(fact))
    x, residual = fact.solve(b)
    assert residual == np.linalg.norm(A @ x - b) / np.linalg.norm(b)
    assert residual < 1e-11
    assert vars(fact) == state  # a solve changes nothing on the factorization


@pytest.mark.parametrize("row, col", [([0, 2], [0, 1]), ([0, 1], [0, -1]),
                                      ([0, 2 ** 32], [0, 1]), ([0], [0, 1])],
                         ids=["row-past-end", "negative-col", "wraps-int32", "lengths"])
def test_csr_from_coo_rejects_entries_outside_the_matrix(row, col):
    # the compiled kernels would write outside their arrays
    with pytest.raises(ValueError):
        linalg.CSR.from_coo((2, 2), np.array(row), np.array(col), np.ones(2))


def test_csr_multiplies_only_vectors_of_its_size():
    A = linalg.CSR.from_coo((2, 3), np.array([0, 1]), np.array([2, 0]), np.ones(2))
    for x in (np.ones(2), np.ones((3, 1))):
        with pytest.raises(ValueError):
            A @ x
    with pytest.raises(ValueError):
        A.rmatvec(np.ones(3))


def test_lu_rejects_nonsquare():
    with pytest.raises(ValueError):
        lu_factor(sparse.csr_matrix(np.ones((2, 3))))


def test_lu_takes_only_csr(rng):
    # SuperLU gets the transpose of a CSR without a copy; any other format
    # would reach it only through a hidden copy
    with pytest.raises(ValueError, match="CSR"):
        lu_factor(random_spd(4, rng).tocsc())


def test_lu_names_empty_row_and_column():
    A = np.eye(4)
    A[2, 2] = 0.0
    with pytest.raises(SingularMatrixError, match="row 2"):
        lu_factor(sparse.csr_matrix(A))
    B = np.zeros((3, 3))
    B[0, 0] = B[1, 1] = 1.0
    B[0, 2] = 1.0  # row 2 empty stays reported first; make column 2 nonempty
    with pytest.raises(SingularMatrixError, match="row 2"):
        lu_factor(sparse.csr_matrix(B))
    C = np.zeros((3, 3))
    C[0, 0] = C[1, 1] = 1.0
    C[2, 0] = 1.0  # rows all nonempty, column 2 empty
    with pytest.raises(SingularMatrixError, match="column 2"):
        lu_factor(sparse.csr_matrix(C))


def test_lu_numerically_singular():
    # structurally full but rank-deficient
    A = sparse.csr_matrix(np.array([[1.0, 2.0], [2.0, 4.0]]))
    with pytest.raises(SingularMatrixError):
        lu_factor(A)


def test_nan_residual_sticks_in_the_log(rng, nu03_case):
    # the factorization returns a NaN residual as NaN, not as 0; the log of
    # its system keeps it through later finite solves
    fact = lu_factor(random_spd(6, rng))
    b = rng.standard_normal(6)
    b[2] = np.nan
    assert np.isnan(fact.solve(b)[1])
    assert fact.solve(rng.standard_normal(6))[1] < 1e-12
    system = build_system(build_uniform(2), nu03_case.params, benchmark_loads(nu03_case))
    system.solve("mass", np.full(system.M.num_dofs, np.nan), 0.0)
    system.solve("mass", np.ones(system.M.num_dofs), 0.0)
    assert np.isnan(system.max_residual)


@pytest.mark.parametrize("exponent", [600, -600])
def test_residual_of_a_system_scaled_by_a_power_of_two(rng, exponent):
    # ||b||^2 overflows (underflows) at entries beyond 1e154 (below 1e-154);
    # scaling A and b by 2**k changes neither the solution nor the residual
    A, b = random_spd(30, rng), rng.standard_normal(30)
    scale = 2.0 ** exponent
    x, residual = lu_factor(A).solve(b)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x_scaled, residual_scaled = lu_factor(sparse.csr_matrix(scale * A)).solve(scale * b)
    assert np.array_equal(x_scaled, x)
    assert 0.0 < residual_scaled == residual


def permuted_nonsymmetric(rng):
    # rows of a nonsymmetric, diagonally dominant matrix in random order: most
    # diagonal entries are structurally zero, so pivots must leave the diagonal
    n = 60
    D = sparse.random(n, n, density=0.1, random_state=rng) + 10.0 * sparse.eye(n)
    return sparse.csr_matrix(sparse.eye(n, format="csr")[rng.permutation(n)] @ D)


def coupled_swap_blocks(rng):
    # [[0, 1], [1, 0]] blocks on the diagonal, weakly coupled to their neighbours
    k = 30
    swap = sparse.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    chain = sparse.diags([np.ones(k - 1), np.ones(k - 1)], [-1, 1])
    return sparse.csr_matrix(sparse.kron(sparse.eye(k), swap)
                             + 0.1 * sparse.kron(chain, sparse.eye(2)))


@pytest.mark.parametrize("make", [permuted_nonsymmetric, coupled_swap_blocks])
def test_lu_solves_matrices_with_zero_diagonal(make, rng):
    A = make(rng)
    assert np.count_nonzero(A.diagonal()) < A.shape[0] // 2
    b = rng.standard_normal(A.shape[0])
    x, residual = lu_factor(A).solve(b)
    assert np.linalg.norm(A @ x - b) <= 1e-12 * np.linalg.norm(b)
    assert residual < 1e-12


def test_lu_solves_the_system_and_not_its_transpose(rng):
    # SuperLU factors A^T; its transposed solve must give A x = b
    A = permuted_nonsymmetric(rng)
    b = rng.standard_normal(A.shape[0])
    x, _ = lu_factor(A).solve(b)
    assert np.linalg.norm(A @ x - b) <= 1e-10 * np.linalg.norm(b)
    assert np.linalg.norm(A.T @ x - b) > 0.1 * np.linalg.norm(b)


def _fill(lu):
    return lu.L.nnz + lu.U.nnz


@pytest.fixture(scope="module", params=["nu03", "nu0499"])
def systems_32(request):
    case = make_case(request.param)
    return build_system(build_uniform(32), case.params, benchmark_loads(case))


@pytest.mark.parametrize("name, bound", [("stokes", 0.6), ("coupled", 0.75)])
def test_lu_fill_is_below_colamd(systems_32, name, bound):
    # the symmetric order keeps its fill only with diagonal pivots; a pivot
    # threshold of 1e-2 already leaves the diagonal on nu0499 and loses it
    A, dofs, _ = systems_32._block(name)
    n = A.shape[0]
    fact = lu_factor(constrain_matrix(A, dofs, systems_32.discretization.orders[name]))
    colamd = spla.splu(constrain_matrix(A, dofs, np.arange(n)).tocsr().tocsc(),
                       permc_spec="COLAMD")
    assert _fill(fact._lu) <= bound * _fill(colamd)
    assert fact.solve(np.ones(n))[1] < 1e-11


@pytest.mark.parametrize("name", ["stokes", "coupled", "pressure"])
def test_lu_panel_width_keeps_the_fill_and_the_diagonal_pivots(systems_32, name):
    # the narrow panel only saves workspace: the factor has the fill of
    # scipy's default panel, and every pivot stays on the diagonal
    block, dofs, _ = systems_32._block(name)
    n = block.shape[0]
    A = constrain_matrix(block, dofs, systems_32.discretization.orders[name])
    fact = lu_factor(A)
    default = spla.splu(A.T, permc_spec="NATURAL", diag_pivot_thresh=1e-3,
                        options=dict(SymmetricMode=True))
    assert fact._lu.nnz == default.nnz
    assert np.array_equal(fact._lu.perm_r, np.arange(n))


@pytest.mark.parametrize("name", ["coupled", "stokes"])
def test_lu_factor_is_the_factor_that_splu_returns(name):
    # lu_factor makes the gstrf call that splu makes with these options; if a
    # scipy upgrade changes that private call, the factors part here
    case = make_case("nu03")
    system = build_system(build_uniform(16), case.params, benchmark_loads(case))
    block, dofs, _ = system._block(name)
    A = constrain_matrix(block, dofs, system.discretization.orders[name])
    ours = lu_factor(A)._lu
    theirs = spla.splu(A.T, permc_spec="NATURAL", diag_pivot_thresh=1e-3,
                       panel_size=linalg._PANEL_SIZE, options=dict(SymmetricMode=True))
    assert ours.nnz == theirs.nnz
    assert np.array_equal(ours.perm_r, theirs.perm_r)
    assert np.array_equal(ours.perm_c, theirs.perm_c)
    b = np.random.default_rng(0).standard_normal(A.shape[0])
    assert np.array_equal(ours.solve(b, trans="T"), theirs.solve(b, trans="T"))


def _run_python(code):
    """stdout of ``code`` run by a fresh interpreter that imports this biotsplit."""
    env = {**os.environ, "PYTHONPATH": str(Path(linalg.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


#: numpy's lazily loaded submodules that ``scipy.sparse`` loads through its
#: array-API layer, and that no part of a study needs
NUMPY_EXTRAS = ("numpy.f2py", "numpy.testing", "numpy.ma", "numpy.polynomial", "numpy.random")


def test_import_and_a_study_load_two_scipy_extensions_and_no_scipy_package():
    # scipy.sparse, scipy._lib and numpy's extra submodules are about 300
    # modules and 20 MB that would sit under every factorization's peak
    out = _run_python(
        "import sys\n"
        "import biotsplit\n"
        "from biotsplit import make_case, run_study\n"
        "run_study('coupled', make_case('nu03'), levels=2, n0=4)\n"
        "run_study('iterative', make_case('nu03'), levels=2, n0=4, iters=2)\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
        "print(sorted(m for m in sys.modules\n"
        f"             if '.'.join(m.split('.')[:2]) in {NUMPY_EXTRAS!r}))\n")
    scipy_modules, numpy_extras = out.split("\n")[:2]
    assert scipy_modules == repr(sorted([linalg._SPARSETOOLS, linalg._SUPERLU]))
    assert numpy_extras == "[]"


def test_scipy_sparse_imported_later_shares_both_extension_modules():
    out = _run_python(
        "import sys\n"
        "import numpy as np\n"
        "from biotsplit import linalg\n"
        "A = linalg.CSR.from_coo((2, 2), np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1]),\n"
        "                        np.array([2.0, 1.0, 1.0, 2.0]))\n"
        "fact = linalg.lu_factor(A)\n"
        "import scipy.sparse as sparse\n"
        "import scipy.sparse._sparsetools as sparsetools\n"
        "print(sparsetools is linalg._sparsetools,\n"
        "      sys.modules[linalg._SPARSETOOLS] is linalg._sparsetools)\n"
        "B = sparse.csr_array(np.array([[2.0, 1.0], [1.0, 2.0]]))\n"
        "print((B @ np.array([1.0, 1.0])).tolist())\n"
        "import scipy.sparse.linalg as spla\n"
        "print(spla.SuperLU is type(fact._lu), sys.modules[linalg._SUPERLU] is linalg._superlu)\n"
        "print(spla.splu(B.tocsc()).solve(np.array([3.0, 3.0])).tolist())\n")
    assert out.split("\n")[:4] == ["True True", "[3.0, 3.0]", "True True", "[1.0, 1.0]"]


def test_scipy_sparse_linalg_imported_later_shares_the_superlu_module():
    out = _run_python(
        "import sys\n"
        "import numpy as np\n"
        "import scipy.sparse as sparse\n"
        "from biotsplit import linalg\n"
        "A = sparse.csr_matrix(np.array([[2.0, 1.0], [1.0, 2.0]]))\n"
        "fact = linalg.lu_factor(A)\n"
        "import scipy.sparse.linalg as spla\n"
        "print(spla.SuperLU is type(fact._lu), sys.modules[linalg._SUPERLU] is linalg._superlu)\n"
        "print(spla.splu(A.tocsc()).solve(np.array([3.0, 3.0])).tolist())\n")
    assert out.split("\n")[:2] == ["True True", "[1.0, 1.0]"]


def test_extensions_are_imported_the_ordinary_way_where_their_files_are_not_found(monkeypatch):
    scipy_dir = os.path.dirname(importlib.util.find_spec("scipy").origin)
    searched, imported = [], []
    module = types.SimpleNamespace(gstrf=None)

    def find_spec(name, path):
        searched.append((name, path))

    def import_module(name):
        imported.append(name)
        return module

    # a module table without the extensions, and an import system that finds
    # scipy's directory but no file in it
    monkeypatch.setattr(linalg, "sys", types.SimpleNamespace(modules={}))
    monkeypatch.setattr(linalg, "importlib", types.SimpleNamespace(
        util=types.SimpleNamespace(find_spec=importlib.util.find_spec),
        machinery=types.SimpleNamespace(PathFinder=types.SimpleNamespace(find_spec=find_spec)),
        import_module=import_module))
    names = [linalg._SPARSETOOLS, linalg._SUPERLU]
    assert [linalg._load_extension(name) for name in names] == [module, module]
    assert searched == [(linalg._SPARSETOOLS, [os.path.join(scipy_dir, "sparse")]),
                        (linalg._SUPERLU,
                         [os.path.join(scipy_dir, "sparse", "linalg", "_dsolve")])]
    assert imported == names


def test_coupled_fill_at_64_is_below_the_minimum_degree_fill():
    # a minimum-degree order (MMD on A + A^T after an RCM numbering) fills
    # this matrix with 13.38M nnz; nested dissection on grid lines with 8.41M
    case = make_case("nu03")
    system = build_system(refine(refine(build_uniform(16))), case.params,
                          benchmark_loads(case))
    A, dofs, _ = system._block("coupled")
    n = A.shape[0]
    fact = lu_factor(constrain_matrix(A, dofs, system.discretization.orders["coupled"]))
    assert _fill(fact._lu) <= 0.8 * 13.38e6
    assert fact.solve(np.ones(n))[1] < 1e-11


def _digits(keys):
    """Base-3 digits of each key, most significant first: (len(keys), ndigits)."""
    ndigits = len(np.base_repr(int(keys.max()), 3))
    return keys[:, None] // 3 ** np.arange(ndigits - 1, -1, -1) % 3


def _cut_crossings(pattern, keys):
    """Nonzeros (i, j) whose keys part at a cut with one side each (digits 0 and 1)."""
    rows, cols = pattern.nonzero()
    digits = _digits(keys)
    di, dj = digits[rows], digits[cols]
    differ = di != dj
    first = np.argmax(differ, axis=1)
    a, b = di[np.arange(len(rows)), first], dj[np.arange(len(rows)), first]
    return int(np.count_nonzero(differ.any(axis=1) & (a + b == 1)))


@pytest.fixture(scope="module")
def small_case_8():
    case = make_case("nu03")
    mesh = build_uniform(8)
    return mesh, build_system(mesh, case.params, benchmark_loads(case))


def test_grid_line_cuts_separate_the_coupled_system(small_case_8):
    mesh, system = small_case_8
    nv = mesh.num_vertices
    kv = dissection_keys(mesh, system.V.dof_coords())
    keys = np.concatenate([kv, kv, kv[:nv], kv[:nv]])
    pattern = block_matrix(system, "coupled")[0]
    assert _cut_crossings(pattern, keys) == 0
    assert np.array_equal(np.argsort(keys, kind="stable"), system.discretization.orders["coupled"])
    # one more node half a step left of the square moves every cut onto the
    # half-grid lines through edge midpoints, which triangles cross
    shifted = np.vstack([system.V.dof_coords(), [[-1 / 16, 0.0]]])
    kv = dissection_keys(mesh, shifted)[:-1]
    keys = np.concatenate([kv, kv, kv[:nv], kv[:nv]])
    assert _cut_crossings(pattern, keys) > 0


def test_dissection_keys_keep_their_order_past_int64():
    # a 1e-12 edge gives about 80 levels of cuts: 3**80 does not fit in int64
    tiny = TriMesh(np.array([[0.0, 0.0], [1e-12, 0.0], [0.0, 1.0]]), np.array([[0, 1, 2]]),
                   np.zeros((0, 2), dtype=np.int64), np.zeros(0, dtype=np.int64))
    points = build_uniform(8).vertices
    order = np.argsort(dissection_keys(tiny, points), kind="stable")
    # the first cut is y = 1/2: nodes below it, then above it, then on it
    y = points[order, 1]
    below, above = np.count_nonzero(y < 0.5), np.count_nonzero(y > 0.5)
    assert np.all(y[:below] < 0.5)
    assert np.all(y[below:below + above] > 0.5)
    assert np.all(y[below + above:] == 0.5)


def test_factorization_reuse_is_bit_identical(rng):
    A = random_spd(30, rng)
    fact = lu_factor(A)
    b = rng.standard_normal(30)
    assert np.array_equal(fact.solve(b)[0], fact.solve(b)[0])


def _superlu_raising(exc):
    """A stand-in for scipy's SuperLU module whose ``gstrf`` raises ``exc``."""
    def gstrf(*args, **kwargs):
        raise exc
    return types.SimpleNamespace(gstrf=gstrf)


@pytest.mark.parametrize("message", [
    "SUPERLU_MALLOC fails for buf in intCalloc() at line 149 in file memory.c",
    "Can't expand MemType 1: jcol 7",
])
def test_lu_reports_superlu_out_of_memory(monkeypatch, rng, message):
    monkeypatch.setattr(linalg, "_superlu", _superlu_raising(RuntimeError(message)))
    A = random_spd(12, rng)
    with pytest.raises(MemoryError,
                       match="12x12 matrix with 144 nonzeros ran out of memory") as info:
        lu_factor(A)
    assert message in str(info.value)
    assert not isinstance(info.value, SingularMatrixError)


def test_lu_wraps_superlu_system_error(monkeypatch, rng):
    # seen under a ulimit -v cap: SuperLU then rejects its own arguments
    exc = SystemError("gstrf was called with invalid arguments")
    monkeypatch.setattr(linalg, "_superlu", _superlu_raising(exc))
    with pytest.raises(RuntimeError, match="may have run out of memory") as info:
        lu_factor(random_spd(12, rng))
    assert "12x12" in str(info.value) and "gstrf" in str(info.value)
    assert not isinstance(info.value, SingularMatrixError)


def test_lu_exactly_singular_stays_singular(monkeypatch, rng):
    exc = RuntimeError("Factor is exactly singular")
    monkeypatch.setattr(linalg, "_superlu", _superlu_raising(exc))
    with pytest.raises(SingularMatrixError, match="Factor is exactly singular"):
        lu_factor(random_spd(12, rng))


def test_lu_returns_the_free_heap_before_superlu(monkeypatch, rng):
    events = []
    monkeypatch.setattr(linalg, "_malloc_trim", lambda pad: events.append(("trim", pad)))

    def recorded(*args, options, **kwargs):
        events.append(("gstrf", options["PanelSize"]))

    monkeypatch.setattr(linalg, "_superlu", superlu_calling(recorded))
    lu_factor(random_spd(12, rng))
    # a narrow panel: SuperLU's workspace grows with it and lives to the end
    assert events == [("trim", 0), ("gstrf", 8)]


def test_lu_factors_where_the_c_library_has_no_malloc_trim(monkeypatch, rng):
    cases = [(sparse.csr_matrix(np.array([[2.0, 1.0], [1.0, 2.0]])), np.array([3.0, 3.0])),
             (random_spd(40, rng), rng.standard_normal(40))]
    trimmed = [lu_factor(A).solve(b) for A, b in cases]
    monkeypatch.setattr(linalg, "_malloc_trim", None)
    untrimmed = [lu_factor(A).solve(b) for A, b in cases]
    for (x, residual), (y, same) in zip(trimmed, untrimmed):
        assert np.array_equal(x, y) and residual == same
    np.testing.assert_allclose(untrimmed[0][0], [1.0, 1.0], atol=1e-14)
    assert untrimmed[1][1] < 1e-11


class _NoMallocTrim:
    """A C library without ``malloc_trim``."""


def _cdll_raising(exc):
    def cdll(name, *args, **kwargs):
        raise exc
    return cdll


@pytest.mark.parametrize("cdll", [_cdll_raising(TypeError("argument of type 'NoneType' "
                                                           "is not iterable")),
                                  _cdll_raising(OSError("cannot open the program")),
                                  lambda name, *args, **kwargs: _NoMallocTrim()],
                         ids=["windows", "no-program-handle", "no-symbol"])
def test_linalg_imports_without_malloc_trim(monkeypatch, rng, cdll):
    # a fresh copy of the module runs the import-time lookup under the
    # patched ctypes; it must neither fail nor warn (warnings are errors here)
    monkeypatch.setattr(ctypes, "CDLL", cdll)
    spec = importlib.util.spec_from_file_location("_linalg_without_trim", linalg.__file__)
    module = importlib.util.module_from_spec(spec)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        spec.loader.exec_module(module)
    assert module._malloc_trim is None
    A, b = random_spd(12, rng), rng.standard_normal(12)
    assert module.lu_factor(A).solve(b)[1] < 1e-12


def test_malloc_trim_is_declared_with_its_c_signature():
    if linalg._malloc_trim is None:
        pytest.skip("the C library has no malloc_trim")
    assert linalg._malloc_trim.argtypes == [ctypes.c_size_t]
    assert linalg._malloc_trim.restype is ctypes.c_int


def test_run_study_names_out_of_memory(monkeypatch):
    exc = RuntimeError("SUPERLU_MALLOC fails for buf in intCalloc()")
    monkeypatch.setattr(linalg, "_superlu", _superlu_raising(exc))
    with pytest.raises(RuntimeError, match=r"level 1 \(1/h=4\) failed: .*out of memory"):
        run_study("coupled", make_case("nu03", T=1e-3), levels=2, n0=4)


def test_splu_gets_the_only_copy_of_the_system(monkeypatch):
    # the raw block and its elimination's temporaries are gone when SuperLU
    # starts: the numpy memory allocated by the first solve is the factored
    # matrix, its Dirichlet columns and a few vectors of its dimension (a raw
    # block kept alive would more than double it)
    case = make_case("nu03")
    seen = {}

    def probe(n, nnz, data, indices, indptr, **kwargs):
        numpy_domain = tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)
        traces = tracemalloc.take_snapshot().filter_traces([numpy_domain]).traces
        seen["live"] = sum(trace.size for trace in traces)
        seen["matrix"] = data.nbytes + indices.nbytes + indptr.nbytes

    monkeypatch.setattr(linalg, "_superlu", superlu_calling(probe))
    for name in ("stokes", "coupled"):
        system = build_system(build_uniform(32), case.params, benchmark_loads(case))
        tracemalloc.start()
        try:
            system.solve(name, np.zeros(len(system.discretization.orders[name])), 0.0)
        finally:
            tracemalloc.stop()
        assert seen["live"] <= 1.1 * seen["matrix"], name
