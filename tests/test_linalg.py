"""Direct solver contracts."""
import tracemalloc

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


def random_spd(n, rng):
    B = rng.standard_normal((n, n))
    return sparse.csc_matrix(B @ B.T + n * np.eye(n))


def test_lu_identity():
    fact = lu_factor(sparse.eye(5, format="csc"), np.arange(5))
    b = np.arange(5.0)
    np.testing.assert_allclose(fact.solve(b), b, atol=1e-15)


def test_lu_two_by_two():
    A = sparse.csc_matrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
    x = lu_factor(A, np.arange(2)).solve(np.array([3.0, 3.0]))
    np.testing.assert_allclose(x, [1.0, 1.0], atol=1e-14)


def test_lu_random_spd_residual(rng):
    A = random_spd(40, rng)
    b = rng.standard_normal(40)
    order = rng.permutation(40)
    fact = lu_factor(A[order][:, order].tocsc(), order)
    x = fact.solve(b)
    assert np.linalg.norm(A @ x - b) / np.linalg.norm(b) < 1e-11
    assert fact.num_solves == 1
    assert fact.max_rel_residual < 1e-11


def test_lu_rejects_nonsquare():
    with pytest.raises(ValueError):
        lu_factor(sparse.csc_matrix(np.ones((2, 3))), np.arange(2))


def test_lu_takes_only_csc(rng):
    # any other format would reach SuperLU only through a hidden copy
    with pytest.raises(ValueError, match="CSC"):
        lu_factor(random_spd(4, rng).tocsr(), np.arange(4))


@pytest.mark.parametrize("order", [
    [0, 1, 2],            # too short
    [0, 1, 2, 3, 3],      # too long
    [0, 1, 2, 2],         # a duplicate
    [0, 1, 2, 4],         # out of range
    [-1, 0, 1, 2],        # negative
    [0.0, 1.0, 2.0, 3.0],  # not integers
], ids=["short", "long", "duplicate", "out-of-range", "negative", "float"])
def test_lu_rejects_an_order_that_is_not_a_permutation(order, rng):
    with pytest.raises(ValueError, match="permutation of 0..3"):
        lu_factor(random_spd(4, rng), np.array(order))


def test_lu_names_empty_row_and_column():
    A = np.eye(4)
    A[2, 2] = 0.0
    with pytest.raises(SingularMatrixError, match="row 2"):
        lu_factor(sparse.csc_matrix(A), np.arange(4))
    # named by their index in the system, not in the factor order
    order = np.array([3, 2, 0, 1])
    with pytest.raises(SingularMatrixError, match="row 2"):
        lu_factor(sparse.csc_matrix(A[np.ix_(order, order)]), order)
    B = np.zeros((3, 3))
    B[0, 0] = B[1, 1] = 1.0
    B[0, 2] = 1.0  # row 2 empty stays reported first; make column 2 nonempty
    with pytest.raises(SingularMatrixError, match="row 2"):
        lu_factor(sparse.csc_matrix(B), np.arange(3))
    C = np.zeros((3, 3))
    C[0, 0] = C[1, 1] = 1.0
    C[2, 0] = 1.0  # rows all nonempty, column 2 empty
    with pytest.raises(SingularMatrixError, match="column 2"):
        lu_factor(sparse.csc_matrix(C), np.arange(3))


def test_lu_numerically_singular():
    # structurally full but rank-deficient
    A = sparse.csc_matrix(np.array([[1.0, 2.0], [2.0, 4.0]]))
    with pytest.raises(SingularMatrixError):
        lu_factor(A, np.arange(2))


def test_nan_residual_sticks_in_the_log(rng):
    fact = lu_factor(random_spd(6, rng), np.arange(6))
    fact.solve(rng.standard_normal(6))
    b = rng.standard_normal(6)
    b[2] = np.nan
    fact.solve(b)
    assert np.isnan(fact.max_rel_residual)
    fact.solve(rng.standard_normal(6))  # a later finite residual must not mask it
    assert np.isnan(fact.max_rel_residual)
    assert fact.num_solves == 3


def permuted_nonsymmetric(rng):
    # rows of a nonsymmetric, diagonally dominant matrix in random order: most
    # diagonal entries are structurally zero, so pivots must leave the diagonal
    n = 60
    D = sparse.random(n, n, density=0.1, random_state=rng) + 10.0 * sparse.eye(n)
    return sparse.csc_matrix(sparse.eye(n, format="csr")[rng.permutation(n)] @ D)


def coupled_swap_blocks(rng):
    # [[0, 1], [1, 0]] blocks on the diagonal, weakly coupled to their neighbours
    k = 30
    swap = sparse.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    chain = sparse.diags([np.ones(k - 1), np.ones(k - 1)], [-1, 1])
    return sparse.csc_matrix(sparse.kron(sparse.eye(k), swap)
                             + 0.1 * sparse.kron(chain, sparse.eye(2)))


@pytest.mark.parametrize("make", [permuted_nonsymmetric, coupled_swap_blocks])
def test_lu_solves_matrices_with_zero_diagonal(make, rng):
    A = make(rng)
    assert np.count_nonzero(A.diagonal()) < A.shape[0] // 2
    b = rng.standard_normal(A.shape[0])
    fact = lu_factor(A, np.arange(A.shape[0]))
    fact.solve(b)
    assert fact.max_rel_residual < 1e-12


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
    A, dofs = systems_32._block(name)
    order = systems_32.discretization.orders[name]
    fact = lu_factor(constrain_matrix(A, dofs, order), order)
    colamd = spla.splu(constrain_matrix(A, dofs, np.arange(A.shape[0])), permc_spec="COLAMD")
    assert _fill(fact._lu) <= bound * _fill(colamd)
    b = np.ones(A.shape[0])
    fact.solve(b)
    assert fact.max_rel_residual < 1e-11


def test_coupled_fill_at_64_is_below_the_minimum_degree_fill():
    # a minimum-degree order (MMD on A + A^T after an RCM numbering) fills
    # this matrix with 13.38M nnz; nested dissection on grid lines with 8.41M
    case = make_case("nu03")
    system = build_system(refine(refine(build_uniform(16))), case.params,
                          benchmark_loads(case))
    A, dofs = system._block("coupled")
    order = system.discretization.orders["coupled"]
    fact = lu_factor(constrain_matrix(A, dofs, order), order)
    assert _fill(fact._lu) <= 0.8 * 13.38e6
    fact.solve(np.ones(A.shape[0]))
    assert fact.max_rel_residual < 1e-11


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
    pattern = system._block("coupled")[0]
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
    fact = lu_factor(A, np.arange(30))
    b = rng.standard_normal(30)
    x1 = fact.solve(b)
    x2 = fact.solve(b)
    assert np.array_equal(x1, x2)
    assert fact.num_solves == 2


def _splu_raising(exc):
    def splu(*args, **kwargs):
        raise exc
    return splu


@pytest.mark.parametrize("message", [
    "SUPERLU_MALLOC fails for buf in intCalloc() at line 149 in file memory.c",
    "Can't expand MemType 1: jcol 7",
])
def test_lu_reports_superlu_out_of_memory(monkeypatch, rng, message):
    monkeypatch.setattr(linalg.spla, "splu", _splu_raising(RuntimeError(message)))
    A = random_spd(12, rng)
    with pytest.raises(MemoryError,
                       match="12x12 matrix with 144 nonzeros ran out of memory") as info:
        lu_factor(A, np.arange(12))
    assert message in str(info.value)
    assert not isinstance(info.value, SingularMatrixError)


def test_lu_wraps_superlu_system_error(monkeypatch, rng):
    # seen under a ulimit -v cap: SuperLU then rejects its own arguments
    exc = SystemError("gstrf was called with invalid arguments")
    monkeypatch.setattr(linalg.spla, "splu", _splu_raising(exc))
    with pytest.raises(RuntimeError, match="may have run out of memory") as info:
        lu_factor(random_spd(12, rng), np.arange(12))
    assert "12x12" in str(info.value) and "gstrf" in str(info.value)
    assert not isinstance(info.value, SingularMatrixError)


def test_lu_exactly_singular_stays_singular(monkeypatch, rng):
    exc = RuntimeError("Factor is exactly singular")
    monkeypatch.setattr(linalg.spla, "splu", _splu_raising(exc))
    with pytest.raises(SingularMatrixError, match="Factor is exactly singular"):
        lu_factor(random_spd(12, rng), np.arange(12))


def test_run_study_names_out_of_memory(monkeypatch):
    exc = RuntimeError("SUPERLU_MALLOC fails for buf in intCalloc()")
    monkeypatch.setattr(linalg.spla, "splu", _splu_raising(exc))
    with pytest.raises(RuntimeError, match=r"level 1 \(1/h=4\) failed: .*out of memory"):
        run_study("coupled", make_case("nu03", T=1e-3), levels=2, n0=4)


def test_splu_gets_the_only_copy_of_the_system(monkeypatch):
    # the raw and the natural-order constrained matrix are gone when SuperLU
    # starts: the numpy memory allocated since the system was built is the
    # factored matrix and a few vectors of its dimension
    case = make_case("nu03")
    system = build_system(build_uniform(32), case.params, benchmark_loads(case))
    seen = {}
    splu = spla.splu

    def probe(A, *args, **kwargs):
        numpy_domain = tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)
        traces = tracemalloc.take_snapshot().filter_traces([numpy_domain]).traces
        seen["live"] = sum(trace.size for trace in traces)
        seen["matrix"] = A.data.nbytes + A.indices.nbytes + A.indptr.nbytes
        return splu(A, *args, **kwargs)

    monkeypatch.setattr(linalg.spla, "splu", probe)
    tracemalloc.start()
    try:
        system.solve("stokes", np.zeros(system.offsets[2]), np.zeros(system.bd_u.size))
    finally:
        tracemalloc.stop()
    assert seen["live"] <= 1.2 * seen["matrix"]
