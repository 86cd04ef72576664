"""Acceptance gate: ten go/no-go checks at the published benchmark scale.

Each criterion test prints exactly one ``[criterion NN] PASS/FAIL`` line and
asserts it.  The reference error table and rate targets are frozen here; studies
run at 1/h = 16..128 and are shared across criteria through module-scoped
fixtures, so the whole gate costs about a minute of CPU.

Criterion 02 judges absolute error magnitudes against best-approximation
oracles, computed in ``helpers`` from the exact solution on the same mesh
chain (L2 and full-H1 projections onto unconstrained P2 vector / P1 spaces):
every error must lie on or above its oracle, and every H1 error within 25% of
it.  The frozen
table is printed as a diagnostic only, since its H1 columns lie below what any
discrete field on these meshes can attain.  One cheap test at 1/h <= 8 checks
that decision on its own.
"""
import math

import numpy as np
import pytest

from biotsplit.assembly import MASS, P_STIFFNESS, assemble_form
from biotsplit.benchmark import (
    ErrorSet,
    benchmark_loads,
    homogeneous_loads,
    initial_state,
    make_case,
    run_study,
)
from biotsplit.biot import (
    BiotState,
    advance,
    build_system,
    contraction_monitor,
    energy_check,
    korn_check,
    step_iterative,
)
from biotsplit.fem import Space, interpolate, quadrature
from biotsplit.mesh import TriMesh, build_uniform, refine

from helpers import best_approximation_errors, error_magnitude_check, strong_form_residual

# Reference coupled error table (levels 16/32/64/128; columns as ErrorSet).
# Kept as the published record; criterion 02 prints measured/reference ratios
# as a diagnostic but decides against best-approximation oracles instead.
# Two findings make the table unattainable in the norms ErrorSet documents:
# - its h1_u column matches the H1 error of a *single* displacement component
#   of the coupled solution (within 1% at 1/h = 16..64), not the full H1 norm
#   of the vector field;
# - its h1_u and h1_p entries lie below the full-H1 projection error of the
#   exact fields onto any P2 vector / P1 field on these meshes (attainable /
#   reference = 1.40 for h1_u at every level, 1.25..1.27 for h1_p), so no
#   discrete solution can come within 25% of them.
REFERENCE_ERRORS = np.array([
    [1.063e-03, 7.114e-02, 5.297e-03, 4.733e-01, 6.091e-03, 1.698e-01],
    [2.320e-04, 1.800e-02, 1.267e-03, 2.347e-01, 1.530e-03, 8.476e-02],
    [5.503e-05, 4.528e-03, 3.097e-04, 1.168e-01, 3.792e-04, 4.243e-02],
    [1.296e-05, 1.135e-03, 7.515e-05, 5.825e-02, 9.078e-05, 2.123e-02],
])

#: Final-row convergence rates of the reference table.
TARGET_RATES = {"l2_u": 2.09, "h1_u": 2.00, "l2_xi": 2.04,
                "h1_xi": 1.00, "l2_p": 2.06, "h1_p": 1.00}

RHO_NU03 = 26 / 41  # (alpha^2/lam) / (c0 + alpha^2/lam) at nu=0.3, E=alpha=c0=1


def report(num: int, ok: bool, detail: str) -> None:
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def coupled_study():
    return run_study("coupled", make_case("nu03"), levels=4, n0=16)


@pytest.fixture(scope="module")
def te_study():
    return run_study("te", make_case("nu03"), levels=4, n0=16)


@pytest.fixture(scope="module")
def iter5_study():
    return run_study("iterative", make_case("nu03", dt=5e-3), levels=4, n0=16,
                     iters=5)


@pytest.fixture(scope="module")
def iter10_study():
    return run_study("iterative", make_case("nu03", dt=1e-2), levels=4, n0=16,
                     iters=10)


@pytest.fixture(scope="module")
def c00_study():
    return run_study("iterative", make_case("c00", dt=1e-2), levels=4, n0=16,
                     iters=10)


def test_criterion_01_coupled_rate_reproduction(coupled_study):
    finest = coupled_study.rates()[-1]
    deviations = {k: finest[k] - TARGET_RATES[k] for k in TARGET_RATES}
    ok = all(abs(d) <= 0.2 for d in deviations.values())
    report(1, ok, "coupled finest rates "
           + ", ".join(f"{k}={finest[k]:.2f}" for k in ErrorSet.COLUMNS)
           + " within +/-0.2 of targets "
           + ", ".join(f"{TARGET_RATES[k]:.2f}" for k in ErrorSet.COLUMNS))


def test_criterion_02_error_magnitude_reproduction(coupled_study):
    measured = np.array([row.errors.as_tuple() for row in coupled_study.rows])
    oracle = best_approximation_errors(coupled_study.case, n0=16, levels=4)
    ok, detail = error_magnitude_check(measured, oracle)
    reference = measured / REFERENCE_ERRORS
    report(2, ok, detail + "; diagnostic measured/reference per level: "
           + " | ".join(", ".join(f"{r:.2f}" for r in row) for row in reference))


def test_criterion_03_te_instability_signature(te_study, coupled_study):
    te_rate = te_study.rates()[-1]["l2_u"]
    coupled_rate = coupled_study.rates()[-1]["l2_u"]
    ok = te_rate <= 0.5 and coupled_rate >= 1.9
    report(3, ok, f"finest L2(u) rate: te={te_rate:.2f} (<= 0.5 expected), "
           f"coupled={coupled_rate:.2f} (>= 1.9 expected)")


def test_te_step_is_first_order_in_dt():
    """On a fixed mesh the te solution differs from the coupled one by O(dt).

    Criterion 03 only asks that the finest te rate collapse, which a te step
    that fails to converge passes too.  Here the largest of the xi and p L2
    differences and the strain difference at T = 0.016 must halve with dt:
    measured ratios 1.94, 2.03, 2.01 at 1/h = 16; a te step whose Stokes solve
    drops the lagged pressure gives 1.00.
    """
    mesh = build_uniform(16)
    gaps = []
    for dt in (4e-3, 2e-3, 1e-3, 5e-4):
        case = make_case("nu03", dt=dt, T=0.016)
        steps = round(case.params.T / dt)
        finals = []
        for algorithm in ("te", "coupled"):
            system = build_system(mesh, case.params, benchmark_loads(case))
            finals.append(advance(system, initial_state(system, case), steps, algorithm))
        te, coupled = finals
        gaps.append(max(system.l2_p1(te.xi - coupled.xi),
                        system.l2_p1(te.p - coupled.p),
                        system.strain_norm(te.u - coupled.u)))
    ratios = np.array(gaps[:-1]) / np.array(gaps[1:])
    print(f"te - coupled at dt = 4e-3 .. 5e-4: {gaps}, ratios {ratios}")
    assert np.all((1.8 <= ratios) & (ratios <= 2.2)), ratios


def test_criterion_04_iterative_restoration(iter5_study, iter10_study):
    r5 = iter5_study.rates()[-1]
    r10 = iter10_study.rates()[-1]
    energy_ok = all(r10[k] >= 0.9 for k in ("h1_u", "h1_xi", "h1_p"))
    dominates = all(r10[k] >= r5[k] - 0.02 for k in ErrorSet.COLUMNS)
    ok = r10["l2_u"] >= 2.5 and energy_ok and dominates
    report(4, ok, f"iter=10 finest L2(u) rate {r10['l2_u']:.2f} (>= 2.5), "
           f"H1 rates {r10['h1_u']:.2f}/{r10['h1_xi']:.2f}/{r10['h1_p']:.2f} "
           f"(>= 0.9), dominate iter=5 rates "
           + ", ".join(f"{r5[k]:.2f}" for k in ErrorSet.COLUMNS))


def test_criterion_05_contraction_bound():
    case = make_case("nu03")
    system = build_system(build_uniform(16), case.params, benchmark_loads(case))
    rep = contraction_monitor(system, initial_state(system, case), imax=25)
    bounds_ok = rep.pressure_bound_ok() and rep.strain_bound_ok()
    ok = (len(rep.ratios) >= 20 and rep.max_ratio <= RHO_NU03 + 1e-8
          and bounds_ok)
    report(5, ok, f"max ratio {rep.max_ratio:.4f} <= rho={RHO_NU03:.6f} over "
           f"{len(rep.ratios)} measured iterations; pressure/strain companion "
           f"bounds {'hold' if bounds_ok else 'VIOLATED'}")


def test_criterion_06_degenerate_storage(c00_study):
    case = make_case("c00")
    system = build_system(build_uniform(16), case.params, benchmark_loads(case))
    rep = contraction_monitor(system, initial_state(system, case), imax=80)
    e = rep.xi_errors
    nonincreasing = bool(np.all(np.diff(e) <= 1e-12 * rep.scale))
    reached = bool(e[-1] <= 1e-8 * e[0])
    first = int(np.argmax(e <= 1e-8 * e[0])) if reached else -1
    rate = c00_study.rates()[-1]["l2_u"]
    pattern_ok = abs(rate - 2.78) <= 0.3 and rate >= 2.0
    ok = nonincreasing and reached and pattern_ok
    report(6, ok, f"c0=0 split errors non-increasing={nonincreasing}, below "
           f"1e-8 of initial after {first} iterations; iter=10 finest L2(u) "
           f"rate {rate:.2f} (target 2.78 +/- 0.3 and >= 2)")


def test_criterion_07_energy_identity():
    case = make_case("nu03")
    system = build_system(build_uniform(16), case.params,
                          homogeneous_loads(case))
    u0 = interpolate(system.V, case.u_profile)
    u0[system.bd_u] = 0.0
    p0 = interpolate(system.M, case.p_profile)
    p0[system.bd_p] = 0.0
    xi0 = system.project_total_pressure(u0, p0)
    states = advance(system, BiotState(u0, xi0, p0, 0.0),
                     10, "coupled", keep_states=True)
    rep = energy_check(system, states)
    ok = rep.max_defect <= 1e-9
    report(7, ok, f"energy identity relative defect {rep.max_defect:.3e} "
           "<= 1e-9 over 10 steps at 1/h=16")


def test_criterion_08_divergence_strain_bound():
    case = make_case("nu03")
    from biotsplit.biot import LoadSet

    mesh = build_uniform(16)
    worst, total_violations = 0.0, 0
    for _ in range(2):
        system = build_system(mesh, case.params, LoadSet())
        max_ratio, violations = korn_check(system, num_fields=1000,
                                           seed=20260819)
        worst = max(worst, max_ratio)
        total_violations += violations
        mesh = refine(mesh)
    ok = total_violations == 0
    report(8, ok, f"||div u_h|| <= sqrt(2)||eps(u_h)||: 2000 random fields on "
           f"two levels, {total_violations} violations, max ratio "
           f"{worst:.4f} < {math.sqrt(2):.4f}")


def test_criterion_09_fixed_point_reaches_coupled():
    worst = 0.0
    for preset in ("nu03", "nu0499", "lowk", "c00"):
        case = make_case(preset)
        system = build_system(build_uniform(16), case.params,
                              benchmark_loads(case))
        state_c = state_i = initial_state(system, case)
        for _ in range(round(case.params.T / case.params.dt)):
            from biotsplit.biot import step_coupled

            state_c = step_coupled(system, state_c)
            state_i, _ = step_iterative(system, state_i, tol=1e-12)
            diff = max(np.abs(getattr(state_i, f)
                              - getattr(state_c, f)).max()
                       for f in ("u", "xi", "p"))
            worst = max(worst, diff)
    ok = worst <= 1e-9
    report(9, ok, f"tol=1e-12 split iteration vs coupled solve: max field "
           f"difference {worst:.3e} <= 1e-9 over all presets, steps, fields")


def test_criterion_10_unit_oracles():
    tri = TriMesh(vertices=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                  triangles=np.array([[0, 1, 2]]),
                  boundary_edges=np.array([[0, 1], [1, 2], [2, 0]]),
                  boundary_tags=np.array([2, 1, 3]))
    space = Space(tri, "p1")
    mass_err = np.abs(assemble_form(MASS, space, space).tocsr().toarray()
                      - np.array([[2, 1, 1], [1, 2, 1], [1, 1, 2]]) / 24).max()
    stiff_err = np.abs(assemble_form(P_STIFFNESS, space, space).tocsr().toarray()
                       - np.array([[1.0, -0.5, -0.5], [-0.5, 0.5, 0.0],
                                   [-0.5, 0.0, 0.5]])).max()

    rule = quadrature()
    quad_err = max(
        abs(float(rule.weights @ (rule.points[:, 0] ** a * rule.points[:, 1] ** b))
            - math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2))
        for a in range(6) for b in range(6 - a))

    case = make_case("nu03")
    rng = np.random.default_rng(20260819)
    pts = rng.random((100, 2))
    ts = rng.random(100) * case.params.T
    residual = max(max(abs(float(r)) for r in
                       strong_form_residual(case, x, y, float(t)))
                   for (x, y), t in zip(pts, ts))

    ok = mass_err <= 1e-14 and stiff_err <= 1e-14 and quad_err <= 1e-14 \
        and residual <= 1e-8
    report(10, ok, f"P1 element matrices to {max(mass_err, stiff_err):.1e} "
           f"(<= 1e-14), quadrature exact to degree 5 ({quad_err:.1e}), "
           f"strong-form residual {residual:.2e} <= 1e-8 at 100 samples")


# Last: its 1/h = 4, 8 study would evict the gate studies' meshes from biot.discretize.
def test_error_magnitude_check_rejects_off_oracle_errors():
    """Criterion 02's decision on a coarse study (1/h = 4, 8) and perturbations."""
    study = run_study("coupled", make_case("nu03"), levels=2, n0=4)
    measured = np.array([row.errors.as_tuple() for row in study.rows])
    oracle = best_approximation_errors(study.case, n0=4, levels=2)
    assert error_magnitude_check(measured, oracle)[0]

    per_component = measured.copy()
    per_component[:, ErrorSet.COLUMNS.index("h1_u")] /= math.sqrt(2)
    nan_entry = measured.copy()
    nan_entry[1, ErrorSet.COLUMNS.index("l2_p")] = np.nan
    for bad in (per_component, 1.3 * measured, nan_entry):
        assert not error_magnitude_check(bad, oracle)[0]
