"""Time-stepper cross-validation and the analysis-backed diagnostics."""
import itertools
import math

import numpy as np
import pytest

from biotsplit import biot
from biotsplit.benchmark import (benchmark_loads, homogeneous_loads, initial_state, make_case,
                                 run_study)
from biotsplit.biot import (
    BiotState,
    ConvergenceFailure,
    LoadSet,
    advance,
    build_system,
    contraction_monitor,
    discretize,
    energy_check,
    korn_check,
    step_coupled,
    step_iterative,
    step_te_decoupled,
)
from biotsplit.fem import interpolate
from biotsplit.linalg import lu_factor
from biotsplit.mesh import TriMesh, build_uniform, refine

from helpers import power_bound_margins, split_rate


def zero_state(system):
    return BiotState(np.zeros(system.V.num_dofs), np.zeros(system.M.num_dofs),
                     np.zeros(system.M.num_dofs), 0.0)


def max_field_diff(a, b):
    return max(np.abs(getattr(a, n) - getattr(b, n)).max()
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


def test_unreachable_tolerance_raises(small_system, small_initial, monkeypatch):
    # two sweeps leave the increment eight orders of magnitude above tol
    monkeypatch.setattr(biot, "MAX_SWEEPS", 2)
    with pytest.raises(ConvergenceFailure) as info:
        step_iterative(small_system, small_initial, tol=1e-10)
    assert len(info.value.history) == 2
    assert info.value.history[-1] > 1e-3


def test_non_finite_increment_stops_tol_mode_at_once(nu03_case):
    # a NaN source makes the first increment NaN; no later sweep can reach tol
    loads = LoadSet(mass_source=lambda x, y: np.full_like(x, np.nan))
    system = build_system(build_uniform(4), nu03_case.params, loads)
    with pytest.raises(ConvergenceFailure, match="not finite") as info:
        step_iterative(system, zero_state(system), tol=1e-10)
    assert len(info.value.history) == 1


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
    assert (power_bound_margins(report) >= -1e-12 * report.scale).all()
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


#: The parameter grid of the exact-rate test: a preset and its overrides.
RATE_GRID = [
    ("nu03", {}), ("nu0499", {}), ("c00", {}), ("lowk", {}),
    ("nu03", dict(dt=0.1, T=0.1)), ("nu03", dict(c0=1e-3)), ("nu03", dict(nu=0.01)),
    ("nu0499", dict(c0=0.0)), ("nu03", dict(alpha=10.0)), ("nu03", dict(nu=0.4999999)),
]


@pytest.mark.parametrize("preset, overrides", RATE_GRID,
                         ids=[p + "".join(f"-{k}={v:.10g}" for k, v in o.items())
                              for p, o in RATE_GRID])
def test_split_rate_is_below_rho_at_every_mesh(preset, overrides):
    # the paper's claim: the split iteration contracts whatever the physical
    # parameters; its exact rate r(T) stays below rho, below 1 even where
    # c0 = 0 makes rho = 1, and converges as h shrinks
    params = make_case(preset, **overrides).params
    r4, r8, r16 = (split_rate(build_system(build_uniform(n), params, LoadSet()))
                   for n in (4, 8, 16))
    rho = params.contraction_factor
    assert max(r4, r8, r16) <= rho * (1 + 1e-9), (r4, r8, r16, rho)
    if params.c0 == 0.0:
        assert r16 < 1.0
    assert r16 < r8 + abs(r8 - r4), (r4, r8, r16)


def sweep_counts(mesh, case, steps, tol):
    """Sweeps of each ``tol``-mode step, and each step's bound
    1 + log(tol / first increment) / log(rho)."""
    system = build_system(mesh, case.params, benchmark_loads(case))
    state = initial_state(system, case)
    counts, bounds = [], []
    for _ in range(steps):
        state, increments = step_iterative(system, state, tol=tol)
        counts.append(len(increments))
        bounds.append(1 + math.log(tol / increments[0]) / math.log(case.params.contraction_factor))
    return counts, bounds


#: Largest difference of the per-step sweep counts between 1/h = 16 and 32,
#: fixed from the measured counts 20, 19, 19 and 17, 19, 19.
SWEEP_COUNT_MARGIN = 3


def test_sweep_count_does_not_grow_with_refinement(nu03_case):
    # the split iteration contracts by rho = 26/41 whatever the mesh, so a
    # finer mesh needs no more sweeps per step to reach the same tolerance
    coarse, coarse_bounds = sweep_counts(build_uniform(16), nu03_case, 3, 1e-10)
    fine, fine_bounds = sweep_counts(refine(build_uniform(16)), nu03_case, 3, 1e-10)
    assert all(abs(a - b) <= SWEEP_COUNT_MARGIN for a, b in zip(coarse, fine)), (coarse, fine)
    for count, bound in zip(coarse + fine, coarse_bounds + fine_bounds):
        assert count <= bound, (coarse, coarse_bounds, fine, fine_bounds)


def test_energy_identity_along_coupled_trajectory(nu03_case):
    system = build_system(build_uniform(8), nu03_case.params,
                          homogeneous_loads(nu03_case))
    states = advance(system, zero_state(system), 10, "coupled", keep_states=True)
    report = energy_check(system, states)
    assert report.max_defect <= 1e-9
    assert report.S[0] == 0.0
    assert len(report.J) == 11


#: The parameter rows of the energy-decay test: a preset and its overrides.
DECAY_GRID = [
    ("nu03", {}), ("nu0499", {}), ("c00", {}), ("nu0499", dict(c0=0.0)),
    ("nu03", dict(alpha=10.0)), ("nu03", dict(nu=0.01)), ("nu03", dict(K=1e-8)),
]
#: Scheme label -> (algorithm, sweeps); te is the one expected to gain energy.
DECAY_SCHEMES = {"coupled": ("coupled", None), "iter1": ("iterative", 1),
                 "iter2": ("iterative", 2), "iter5": ("iterative", 5), "te": ("te", None)}


def test_energy_decays_for_the_stable_schemes_and_rises_for_te():
    # the paper's title claim: with no loads the energy J^n of the coupled and
    # of the iteratively decoupled scheme, at any sweep count, never grows,
    # whatever the parameters, time step and mesh; te's can, which shows that
    # the bound tells a stable scheme from an unstable one
    worst = dict.fromkeys(DECAY_SCHEMES, -math.inf)
    for (preset, overrides), dt, n in itertools.product(
            DECAY_GRID, (1e-6, 1e-4, 1e-2, 1.0, 100.0), (4, 8)):
        case = make_case(preset, dt=dt, T=20 * dt, **overrides)
        system = build_system(build_uniform(n), case.params, LoadSet())
        u0 = interpolate(system.V, case.u_profile)
        u0[system.bd_u] = 0.0
        p0 = interpolate(system.M, case.p_profile)
        p0[system.bd_p] = 0.0
        start = BiotState(u0, system.project_total_pressure(u0, p0), p0, 0.0)
        for label, (algorithm, iters) in DECAY_SCHEMES.items():
            states = advance(system, start, 20, algorithm, iters=iters, keep_states=True)
            J = energy_check(system, states).J
            worst[label] = max(worst[label], float(np.max(J[1:] / J[:-1] - 1.0)))
        assert system.max_residual <= 1e-9, (preset, overrides, dt, n)
    for label in ("coupled", "iter1", "iter2", "iter5"):
        assert worst[label] <= 1e-12, (label, worst)
    assert worst["te"] > 1e-12, worst


def test_dropped_factors_are_factored_again_to_the_same_bits(nu03_case, monkeypatch, rng):
    # ``factors`` is a cache: a solve after clearing it factors the block
    # anew and returns the first solve's solution and residual
    calls = []
    monkeypatch.setattr(biot, "lu_factor", lambda A: calls.append(A) or lu_factor(A))
    system = build_system(build_uniform(4), nu03_case.params, benchmark_loads(nu03_case))
    for name, n in (("coupled", system.offsets[3]), ("stokes", system.offsets[2]),
                    ("pressure", system.M.num_dofs), ("mass", system.M.num_dofs)):
        b = rng.standard_normal(n)
        runs = []
        for _ in range(2):
            system.factors.clear()
            system.max_residual = 0.0
            runs.append((system.solve(name, b, 0.5), system.max_residual))
        (first, residual), (again, residual_again) = runs
        np.testing.assert_array_equal(again, first)
        assert residual_again == residual <= 1e-9, name
    assert len(calls) == 8


def test_korn_bound_on_random_fields(small_system):
    max_ratio, violations = korn_check(small_system, num_fields=100, seed=1)
    assert violations == 0
    assert 0.0 < max_ratio < np.sqrt(2.0)


def test_projected_total_pressure_satisfies_constraint(small_system, nu03_case):
    params = nu03_case.params
    u = interpolate(small_system.V, nu03_case.u_profile)
    p = interpolate(small_system.M, nu03_case.p_profile)
    xi = small_system.project_total_pressure(u, p)
    residual = (small_system.mass @ xi - params.alpha * (small_system.mass @ p)
                + params.lam * small_system.div_coupling.rmatvec(u))
    assert np.abs(residual).max() < 1e-12
    # and it approximates the closed-form total pressure
    xi_exact = interpolate(small_system.M, nu03_case.xi_profile)
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
    # each block carries its Dirichlet dofs together with their values
    s = small_system
    expect = {"coupled": (np.concatenate([s.bd_u, s.offsets[2] + s.bd_p]),
                          np.concatenate([s.gu_profile, s.gp_profile])),
              "stokes": (s.bd_u, s.gu_profile), "pressure": (s.bd_p, s.gp_profile),
              "mass": (np.zeros(0), np.zeros(0))}
    for name, (dofs, profile) in expect.items():
        got_dofs, got_profile = s._block(name)[1:]
        np.testing.assert_array_equal(got_dofs, dofs)
        np.testing.assert_array_equal(got_profile, profile)
        assert got_dofs.shape == got_profile.shape


def test_solver_residuals_are_tracked(small_system, small_initial):
    advance(small_system, small_initial, 2, "coupled")
    assert 0.0 < small_system.max_residual < 1e-9


def test_nan_solve_shows_in_max_solver_residual(nu03_case):
    # the P1 mass solve of project_total_pressure is logged like every other
    system = build_system(build_uniform(2), nu03_case.params, LoadSet())
    advance(system, zero_state(system), 1, "coupled")
    assert system.max_residual == 0.0
    u = np.full(system.V.num_dofs, np.nan)
    system.project_total_pressure(u, np.zeros(system.M.num_dofs))
    assert np.isnan(system.max_residual)


def test_equal_meshes_share_one_discretization(nu03_case):
    a = build_system(build_uniform(3), nu03_case.params, LoadSet())
    b = build_system(build_uniform(3), make_case("c00").params, LoadSet())
    assert b.discretization is a.discretization
    assert b.elasticity is a.elasticity and b.bd_p is a.bd_p
    step_te_decoupled(a, zero_state(a))
    step_te_decoupled(b, zero_state(b))
    assert b.factors["stokes"] is not a.factors["stokes"]  # no factor is shared


def test_the_discretization_holds_the_callers_mesh(nu03_case):
    biot.discretize.cache_clear()
    mesh = build_uniform(3)
    system = build_system(mesh, nu03_case.params, LoadSet())
    assert system.mesh is mesh and system.discretization.mesh is mesh
    # an equal mesh built afresh finds it
    assert build_system(build_uniform(3), nu03_case.params, LoadSet()).mesh is mesh


def test_moved_vertices_get_their_own_discretization(nu03_case):
    mesh = build_uniform(3)
    vertices = mesh.vertices.copy()
    vertices[5] += 0.05  # the interior vertex (1/3, 1/3)
    moved = TriMesh(vertices, mesh.triangles, mesh.boundary_edges, mesh.boundary_tags)
    a = build_system(mesh, nu03_case.params, LoadSet())
    b = build_system(moved, nu03_case.params, LoadSet())
    assert b.discretization is not a.discretization
    assert not np.array_equal(a.mass.data, b.mass.data)


def test_shared_arrays_are_read_only(small_system):
    for array in (small_system.elasticity.data, small_system.div_coupling.indices,
                  small_system.mass.indptr, small_system.stiffness.data,
                  small_system.bd_u, small_system.mesh.vertices,
                  small_system.discretization.orders["coupled"]):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = array[0]


def test_table_keeps_the_most_recent_meshes(monkeypatch):
    case = make_case("nu03", T=1e-3)
    for n0 in (2, 3, 4, 5, 6):
        run_study("coupled", case, levels=2, n0=n0)
    assert biot.discretize.cache_info().currsize == biot.TABLE_SIZE == 4
    # the last two chains are kept: looking them up builds nothing
    monkeypatch.setattr(biot, "Discretization", None)
    for n0 in (5, 6):
        discretize(build_uniform(n0))
        discretize(refine(build_uniform(n0)))
