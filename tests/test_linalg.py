"""Direct and iterative solver contracts."""
import numpy as np
import pytest
import scipy.sparse as sparse

from biotsplit.assembly import MASS, P_STIFFNESS, assemble_form, constrain_matrix
from biotsplit.fem import Space
from biotsplit.linalg import (
    ConvergenceError,
    SingularMatrixError,
    cg_solve,
    lu_factor,
)
from biotsplit.mesh import build_uniform


def random_spd(n, rng):
    B = rng.standard_normal((n, n))
    return sparse.csr_matrix(B @ B.T + n * np.eye(n))


def test_lu_identity():
    fact = lu_factor(sparse.eye(5, format="csr"))
    b = np.arange(5.0)
    np.testing.assert_allclose(fact.solve(b), b, atol=1e-15)


def test_lu_two_by_two():
    A = sparse.csr_matrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
    x = lu_factor(A).solve(np.array([3.0, 3.0]))
    np.testing.assert_allclose(x, [1.0, 1.0], atol=1e-14)


def test_lu_random_spd_residual(rng):
    A = random_spd(40, rng)
    b = rng.standard_normal(40)
    fact = lu_factor(A)
    x, r = fact.solve(b, return_residual=True)
    assert np.linalg.norm(A @ x - b) / np.linalg.norm(b) < 1e-11
    np.testing.assert_allclose(r, A @ x - b, atol=1e-15)
    assert fact.num_solves == 1
    assert fact.max_rel_residual < 1e-11


def test_lu_rejects_nonsquare():
    with pytest.raises(ValueError):
        lu_factor(sparse.csr_matrix(np.ones((2, 3))))


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


def test_nan_residual_sticks_in_the_log(rng):
    fact = lu_factor(random_spd(6, rng))
    fact.solve(rng.standard_normal(6))
    b = rng.standard_normal(6)
    b[2] = np.nan
    fact.solve(b)
    assert np.isnan(fact.max_rel_residual)
    fact.solve(rng.standard_normal(6))  # a later finite residual must not mask it
    assert np.isnan(fact.max_rel_residual)
    assert fact.num_solves == 3


def test_factorization_reuse_is_bit_identical(rng):
    A = random_spd(30, rng)
    fact = lu_factor(A)
    b = rng.standard_normal(30)
    x1 = fact.solve(b)
    x2 = fact.solve(b)
    assert np.array_equal(x1, x2)
    assert fact.num_solves == 2


def test_cg_zero_rhs_is_zero_iterations():
    A = sparse.eye(7, format="csr")
    x, its = cg_solve(A, np.zeros(7))
    assert its == 0
    assert np.array_equal(x, np.zeros(7))


def test_cg_matches_lu_on_fem_matrix():
    space = Space(build_uniform(6), "p1")
    M = assemble_form(MASS, space, space)
    rng = np.random.default_rng(3)
    b = rng.standard_normal(space.num_dofs)
    x_cg, its = cg_solve(M, b, tol=1e-12)
    x_lu = lu_factor(M).solve(b)
    assert 0 < its < 200
    np.testing.assert_allclose(x_cg, x_lu, atol=1e-10)


def test_cg_solves_constrained_stiffness():
    space = Space(build_uniform(5), "p2", dirichlet_tags=(1, 3))
    K = constrain_matrix(assemble_form(P_STIFFNESS, space, space),
                         space.dirichlet_dofs())
    rng = np.random.default_rng(11)
    b = rng.standard_normal(space.num_dofs)
    x, _ = cg_solve(K, b, tol=1e-12, maxit=2000)
    assert np.linalg.norm(K @ x - b) / np.linalg.norm(b) < 1e-11


def test_cg_convergence_error_carries_history(rng):
    A = random_spd(50, rng)
    b = rng.standard_normal(50)
    with pytest.raises(ConvergenceError) as info:
        cg_solve(A, b, tol=1e-15, maxit=3)
    err = info.value
    assert err.iterations == 3
    assert len(err.history) == 3
    assert err.residual == err.history[-1]
