"""Time-stepper cross-validation and the analysis-backed diagnostics."""
import math

import numpy as np
import pytest

from biotsplit.benchmark import homogeneous_loads
from biotsplit.biot import (
    MAX_SWEEPS,
    ConvergenceFailure,
    LoadSet,
    advance,
    build_system,
    contraction_monitor,
    energy_check,
    korn_check,
    step_coupled,
    step_iterative,
    step_te_decoupled,
)
from biotsplit.mesh import build_uniform


def zero_state(system):
    return system.state(np.zeros(system.V.num_dofs), np.zeros(system.M.num_dofs),
                        np.zeros(system.M.num_dofs), 0.0)


def max_field_diff(a, b):
    return max(np.abs(getattr(a, n).values - getattr(b, n).values).max()
               for n in ("u", "xi", "p"))


def test_zero_data_stays_zero(nu03_case):
    system = build_system(build_uniform(3), nu03_case.params, LoadSet())
    state = zero_state(system)
    for algorithm, kw in (("coupled", {}), ("te", {}), ("iterative", {"iters": 3})):
        out = advance(system, state, 2, algorithm, **kw)
        assert max_field_diff(out, state) < 1e-13, algorithm
        assert out.t == pytest.approx(2 * nu03_case.params.dt)


def test_iterative_with_tight_tol_matches_coupled(small_system, small_initial):
    coupled = step_coupled(small_system, small_initial)
    split, increments = step_iterative(small_system, small_initial, tol=1e-12)
    assert max_field_diff(split, coupled) < 1e-10
    assert increments == sorted(increments, reverse=True)  # monotone decrease
    assert increments[-1] <= 1e-12


def test_te_differs_from_coupled_at_first_order(small_system, small_initial):
    # the extrapolated step lags the pressure, so it is close but not equal
    coupled = step_coupled(small_system, small_initial)
    te = step_te_decoupled(small_system, small_initial)
    diff = max_field_diff(te, coupled)
    assert 1e-6 < diff < 0.5


def test_fixed_iteration_count_interpolates(small_system, small_initial):
    # more inner iterations pull the split step toward the coupled one
    coupled = step_coupled(small_system, small_initial)
    diffs = []
    for iters in (1, 3, 10):
        state, increments = step_iterative(small_system, small_initial, iters=iters)
        assert len(increments) == iters
        diffs.append(max_field_diff(state, coupled))
    assert diffs[0] > diffs[1] > diffs[2]


def test_step_iterative_argument_validation(small_system, small_initial):
    with pytest.raises(ValueError):
        step_iterative(small_system, small_initial)
    with pytest.raises(ValueError):
        step_iterative(small_system, small_initial, iters=3, tol=1e-8)
    with pytest.raises(ValueError):
        step_iterative(small_system, small_initial, iters=0)
    for tol in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            step_iterative(small_system, small_initial, tol=tol)


def test_unreachable_tolerance_raises(small_system, small_initial):
    with pytest.raises(ConvergenceFailure) as info:
        step_iterative(small_system, small_initial, tol=1e-300)
    assert len(info.value.history) == MAX_SWEEPS


def test_advance_keep_states(small_system, small_initial):
    states = advance(small_system, small_initial, 3, "coupled", keep_states=True)
    assert len(states) == 4
    ts = [s.t for s in states]
    np.testing.assert_allclose(np.diff(ts), small_system.params.dt)
    with pytest.raises(ValueError):
        advance(small_system, small_initial, 1, "adi")


def test_contraction_ratios_stay_below_rho(small_system, small_initial):
    report = contraction_monitor(small_system, small_initial, imax=10)
    assert report.rho == pytest.approx(26 / 41, abs=1e-15)
    assert report.max_ratio <= report.rho * (1 + 1e-9)
    assert (report.power_bound_margins() >= -1e-12 * report.scale).all()
    assert report.pressure_bound_ok()
    assert report.strain_bound_ok()


def test_vanishing_storage_still_contracts(c00_system, c00_initial):
    # c0 = 0 pushes the contraction factor to 1; the measured iteration
    # still decreases strictly on the discrete problem
    report = contraction_monitor(c00_system, c00_initial, imax=25)
    assert report.rho == 1.0
    assert report.max_ratio < 1.0
    errors = report.xi_errors
    assert (np.diff(errors) <= 1e-12 * report.scale).all()
    assert errors[-1] <= 1e-4 * errors[0]


def test_energy_identity_along_coupled_trajectory(nu03_case):
    system = build_system(build_uniform(8), nu03_case.params,
                          homogeneous_loads(nu03_case))
    states = advance(system, zero_state(system), 10, "coupled", keep_states=True)
    report = energy_check(system, states)
    assert report.max_defect <= 1e-9
    assert report.S[0] == 0.0
    assert len(report.J) == 11


def test_korn_bound_on_random_fields(small_system):
    max_ratio, violations = korn_check(small_system, num_fields=100, seed=1)
    assert violations == 0
    assert 0.0 < max_ratio < np.sqrt(2.0)


def test_projected_total_pressure_satisfies_constraint(small_system, nu03_case):
    from biotsplit.fem import interpolate

    params = nu03_case.params
    u = interpolate(small_system.V, nu03_case.u_profile).values
    p = interpolate(small_system.M, nu03_case.p_profile).values
    xi = small_system.project_total_pressure(u, p)
    residual = (small_system.mass @ xi - params.alpha * (small_system.mass @ p)
                + params.lam * (small_system.div_coupling.T @ u))
    assert np.abs(residual).max() < 1e-12
    # and it approximates the closed-form total pressure
    xi_exact = interpolate(small_system.M, nu03_case.xi_profile).values
    assert small_system.l2_p1(xi - xi_exact) < 0.1


def test_dirichlet_data_is_the_nodal_interpolant(small_system, nu03_case):
    coords = small_system.V.dof_coords()
    scalar = small_system.bd_u[:small_system.bd_u.size // 2]
    ux, uy = nu03_case.u_profile(coords[scalar, 0], coords[scalar, 1])
    np.testing.assert_allclose(small_system.gu_profile, np.concatenate([ux, uy]),
                               rtol=1e-15, atol=1e-15)
    pc = small_system.M.dof_coords()[small_system.bd_p]
    np.testing.assert_allclose(small_system.gp_profile, nu03_case.p_profile(pc[:, 0], pc[:, 1]),
                               rtol=1e-15, atol=1e-15)
    bare = build_system(small_system.mesh, small_system.params, LoadSet())
    np.testing.assert_array_equal(bare.gu_profile, np.zeros(bare.bd_u.size))
    np.testing.assert_array_equal(bare.gp_profile, np.zeros(bare.bd_p.size))


def test_solver_residuals_are_tracked(small_system, small_initial):
    advance(small_system, small_initial, 2, "coupled")
    r = small_system.max_solver_residual()
    assert 0.0 < r < 1e-9


def test_nan_solve_shows_in_max_solver_residual(nu03_case):
    # the P1 mass solve of project_total_pressure is logged like every other
    system = build_system(build_uniform(2), nu03_case.params, LoadSet())
    advance(system, zero_state(system), 1, "coupled")
    assert system.max_solver_residual() == 0.0
    u = np.full(system.V.num_dofs, np.nan)
    system.project_total_pressure(u, np.zeros(system.M.num_dofs))
    assert np.isnan(system.max_solver_residual())
