"""Benchmark harness: presets, error norms, studies, CSV/JSON reports."""
import collections
import copy
import dataclasses
import json
import math

import numpy as np
import pytest

from biotsplit import benchmark, biot
from biotsplit.benchmark import (
    CSV_HEADER,
    ErrorSet,
    PRESETS,
    compute_errors,
    initial_state,
    make_case,
    run_study,
    study_csv,
    study_report,
    write_csv,
    write_json,
)
from biotsplit.biot import BiotState, LoadSet, build_system
from biotsplit.fem import interpolate
from biotsplit.linalg import SingularMatrixError
from biotsplit.mesh import build_uniform

# Rows of study_csv(run_study(..., levels=3, n0=4)) on nu03, frozen: a change
# to the arithmetic of assembly, solves or error norms shows up here as
# changed digits, which run-to-run determinism alone cannot catch.
PINNED_CSV = {
    "coupled": (
        "1,4,5.871e-02,,1.421e+00,,7.360e-02,,1.785e+00,,6.723e-02,,8.867e-01,\n"
        "2,8,7.365e-03,2.99,3.911e-01,1.86,1.494e-02,2.30,8.145e-01,1.13,1.758e-02,1.94,4.346e-01,1.03\n"
        "3,16,1.038e-03,2.83,1.006e-01,1.96,3.508e-03,2.09,3.988e-01,1.03,4.459e-03,1.98,2.162e-01,1.01\n"),
    "te": (
        "1,4,5.867e-02,,1.421e+00,,7.384e-02,,1.788e+00,,6.752e-02,,8.905e-01,\n"
        "2,8,7.332e-03,3.00,3.911e-01,1.86,1.486e-02,2.31,8.150e-01,1.13,1.755e-02,1.94,4.352e-01,1.03\n"
        "3,16,9.896e-04,2.89,1.006e-01,1.96,3.368e-03,2.14,3.989e-01,1.03,4.355e-03,2.01,2.163e-01,1.01\n"),
    "iterative-iters3": (
        "1,4,5.874e-02,,1.421e+00,,7.294e-02,,1.783e+00,,6.495e-02,,8.771e-01,\n"
        "2,8,7.360e-03,3.00,3.911e-01,1.86,1.481e-02,2.30,8.143e-01,1.13,1.724e-02,1.91,4.340e-01,1.01\n"
        "3,16,1.052e-03,2.81,1.007e-01,1.96,3.598e-03,2.04,3.989e-01,1.03,4.713e-03,1.87,2.166e-01,1.00\n"),
    "iterative-tol1e-10": (
        "1,4,5.871e-02,,1.421e+00,,7.360e-02,,1.785e+00,,6.723e-02,,8.867e-01,\n"
        "2,8,7.365e-03,2.99,3.911e-01,1.86,1.494e-02,2.30,8.145e-01,1.13,1.758e-02,1.94,4.346e-01,1.03\n"
        "3,16,1.038e-03,2.83,1.006e-01,1.96,3.508e-03,2.09,3.988e-01,1.03,4.459e-03,1.98,2.162e-01,1.01\n"),
}


def test_presets_resolve_to_expected_params():
    case = make_case("nu03")
    p = case.params
    assert (p.E, p.nu, p.alpha, p.c0, p.K) == (1.0, 0.3, 1.0, 1.0, 1.0)
    assert (p.dt, p.T) == (1e-3, 0.01)
    assert make_case("c00").params.c0 == 0.0
    assert make_case("lowk").params.K == 1e-6
    assert make_case("nu0499").params.nu == 0.499
    # overrides win over the preset
    assert make_case("nu03", dt=5e-3).params.dt == 5e-3
    assert set(PRESETS) == {"nu03", "nu0499", "lowk", "c00"}
    with pytest.raises(ValueError):
        make_case("nu05")


def test_initial_state_is_nodal_interpolation(small_system, nu03_case):
    state = initial_state(small_system, nu03_case)
    assert state.t == 0.0
    coords = small_system.M.dof_coords()
    np.testing.assert_allclose(state.xi,
                               nu03_case.xi_profile(coords[:, 0], coords[:, 1]),
                               atol=1e-14)
    vcoords = small_system.V.dof_coords()
    u = nu03_case.u_profile(vcoords[:, 0], vcoords[:, 1])
    n = small_system.V.num_scalar_dofs
    np.testing.assert_allclose(state.u[:n], u[0], atol=1e-14)
    np.testing.assert_allclose(state.u[n:], u[1], atol=1e-14)


def interpolant_state(case, n, t):
    """A system on the uniform n-mesh and the interpolant of the exact fields at t."""
    system = build_system(build_uniform(n), case.params, LoadSet())
    tf = case.time_factor(t)
    u = interpolate(system.V, lambda x, y: tf * case.u_profile(x, y))
    xi = interpolate(system.M, lambda x, y: tf * case.xi_profile(x, y))
    p = interpolate(system.M, lambda x, y: tf * case.p_profile(x, y))
    return system, BiotState(u, xi, p, t)


def test_error_norms_converge_at_interpolation_rates(nu03_case):
    # against its own interpolant the error is pure interpolation error:
    # O(h^3) for u in L2, O(h^2) in H1; O(h^2)/O(h) for the P1 fields
    t = 0.004
    e0 = compute_errors(*interpolant_state(nu03_case, 8, t), nu03_case)
    e1 = compute_errors(*interpolant_state(nu03_case, 16, t), nu03_case)
    rates = {k: np.log2(a / b) for k, a, b in
             zip(ErrorSet.COLUMNS, e0.as_tuple(), e1.as_tuple())}
    assert rates["l2_u"] == pytest.approx(3.0, abs=0.4)
    assert rates["h1_u"] == pytest.approx(2.0, abs=0.3)
    assert rates["l2_p"] == pytest.approx(2.0, abs=0.3)
    assert rates["h1_p"] == pytest.approx(1.0, abs=0.3)
    assert rates["l2_xi"] == pytest.approx(2.0, abs=0.3)
    assert rates["h1_xi"] == pytest.approx(1.0, abs=0.3)


def test_error_of_exact_nodal_data_is_small_but_nonzero(nu03_case):
    errors = compute_errors(*interpolant_state(nu03_case, 8, 0.0), nu03_case)
    for value in errors.as_tuple():
        assert 0.0 < value < 1.0


@pytest.mark.parametrize("field", ["u", "xi", "p"])
def test_compute_errors_rejects_a_field_of_the_wrong_length(nu03_case, field):
    # two entries too many or too few still split into two u components, so
    # only the length check stops a silently shifted field
    system, state = interpolant_state(nu03_case, 2, 0.0)
    values = getattr(state, field)
    for wrong in (np.append(values, [0.0, 0.0]), values[:-2]):
        with pytest.raises(ValueError, match=f"space has {values.size} dofs"):
            compute_errors(system, dataclasses.replace(state, **{field: wrong}), nu03_case)


def test_run_study_validation(nu03_case):
    with pytest.raises(ValueError):
        run_study("coupled", nu03_case, levels=1)
    with pytest.raises(ValueError):
        run_study("splitstep", nu03_case, levels=2)
    with pytest.raises(ValueError):
        run_study("iterative", nu03_case, levels=2)  # missing iters/tol
    with pytest.raises(ValueError):
        run_study("coupled", make_case("nu03", dt=3e-3), levels=2)  # T/dt not integral
    # iteration settings are rejected before any level runs (a level's
    # failure would arrive as RuntimeError)
    for settings in ({"iters": 0}, {"tol": -1.0}, {"tol": math.nan}, {"tol": math.inf},
                     {"iters": 3, "tol": 1e-8}):
        with pytest.raises(ValueError):
            run_study("iterative", nu03_case, levels=2, n0=2, **settings)
    # and given to an algorithm that does not iterate, they are rejected too
    for algorithm in ("coupled", "te"):
        for settings in ({"iters": 3}, {"tol": 1e-8}, {"iters": 0, "tol": math.nan}):
            with pytest.raises(ValueError, match="iterative algorithm only"):
                run_study(algorithm, nu03_case, levels=2, n0=2, **settings)


def test_run_study_names_failing_level(nu03_case, monkeypatch):
    def failing_factor(A, order):
        raise SingularMatrixError("forced")

    monkeypatch.setattr(biot, "lu_factor", failing_factor)
    with pytest.raises(RuntimeError, match=r"level 1 \(1/h=4\) failed: forced"):
        run_study("iterative", make_case("nu03", T=1e-3), levels=2, n0=4, iters=2)


@pytest.fixture(scope="module")
def tiny_study():
    return run_study("coupled", make_case("nu03", T=2e-3), levels=2, n0=4)


def test_study_errors_decrease_under_refinement(tiny_study):
    e0 = np.array(tiny_study.rows[0].errors.as_tuple())
    e1 = np.array(tiny_study.rows[1].errors.as_tuple())
    assert (e1 < e0).all()
    assert [r.inv_h for r in tiny_study.rows] == [4, 8]
    assert [r.steps for r in tiny_study.rows] == [2, 2]
    assert not tiny_study.tainted
    assert tiny_study.max_residual < 1e-9


def test_coupled_study_rates_on_coarse_chain():
    study = run_study("coupled", make_case("nu03"), levels=2, n0=8)
    rate = study.rates()[1]
    assert rate["l2_u"] == pytest.approx(2.8, abs=0.5)
    assert rate["h1_u"] == pytest.approx(2.0, abs=0.3)
    assert rate["l2_p"] == pytest.approx(2.0, abs=0.3)
    assert rate["h1_p"] == pytest.approx(1.0, abs=0.3)


def test_csv_layout(tiny_study):
    text = study_csv(tiny_study)
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3
    assert text.endswith("\n")
    first = lines[1].split(",")
    assert first[0] == "1" and first[1] == "4"
    # first level has no rates: every rate cell empty
    assert [first[i] for i in range(3, 15, 2)] == [""] * 6
    second = lines[2].split(",")
    assert all(cell != "" for cell in second)
    float(second[2])  # errors parse as numbers


@pytest.mark.parametrize("name", sorted(PINNED_CSV))
def test_csv_matches_pinned_report(name):
    algorithm, _, setting = name.partition("-")
    kwargs = {"": {}, "iters3": {"iters": 3}, "tol1e-10": {"tol": 1e-10}}[setting]
    study = run_study(algorithm, make_case("nu03"), levels=3, n0=4, **kwargs)
    assert study_csv(study) == CSV_HEADER + "\n" + PINNED_CSV[name]


def test_csv_bytes_deterministic_across_runs():
    case = make_case("nu03", T=2e-3)
    a = study_csv(run_study("coupled", case, levels=2, n0=4))
    b = study_csv(run_study("coupled", case, levels=2, n0=4))
    assert a == b


@pytest.mark.parametrize("level", [0, 1])
def test_nan_residual_taints_the_study(tiny_study, level):
    study = copy.deepcopy(tiny_study)
    study.rows[level].max_residual = float("nan")
    assert math.isnan(study.max_residual)
    assert study.tainted
    assert study_report(study)["solver"]["tainted"] is True


def counting(monkeypatch, calls, module, name):
    """Rebind ``module.name`` to count its calls in ``calls[name]``."""
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)
    monkeypatch.setattr(module, name, counted)


def test_run_study_calls_the_module_level_names(monkeypatch):
    # The traced benchmark wraps these names on their modules, so run_study
    # must look each one up when it calls it.
    calls = collections.Counter()
    for name in ("step_coupled", "step_te_decoupled", "step_iterative", "lu_factor"):
        counting(monkeypatch, calls, biot, name)
    counting(monkeypatch, calls, benchmark, "build_system")
    case = make_case("nu03", T=2e-3)  # two steps per level, two levels
    expected = {
        "coupled": {"build_system": 2, "lu_factor": 2, "step_coupled": 4},
        "te": {"build_system": 2, "lu_factor": 4, "step_te_decoupled": 4},
        "iterative": {"build_system": 2, "lu_factor": 4, "step_iterative": 4},
    }
    for algorithm, want in expected.items():
        calls.clear()
        run_study(algorithm, case, levels=2, n0=2,
                  iters=2 if algorithm == "iterative" else None)
        assert calls == want, algorithm


def test_a_second_study_on_the_chain_assembles_no_form(monkeypatch):
    calls = collections.Counter()
    for name in ("assemble_form", "lu_factor"):
        counting(monkeypatch, calls, biot, name)
    biot.discretize.cache_clear()
    run_study("te", make_case("nu03", T=2e-3), levels=2, n0=3)
    assert calls == {"assemble_form": 8, "lu_factor": 4}
    calls.clear()
    run_study("te", make_case("c00", dt=2e-3, T=4e-3), levels=2, n0=3)
    assert calls == {"lu_factor": 4}


def test_reports_do_not_depend_on_the_shared_discretizations():
    def reports():
        study = run_study("te", make_case("nu03"), levels=3, n0=4)
        return study_csv(study), json.dumps(study_report(study), sort_keys=True)

    biot.discretize.cache_clear()
    cold = reports()
    run_study("iterative", make_case("c00"), levels=3, n0=4, iters=2)
    assert reports() == cold
    assert cold[0] == CSV_HEADER + "\n" + PINNED_CSV["te"]


def test_report_structure(tiny_study):
    report = study_report(tiny_study, config_echo={"preset": "nu03"},
                          checks={"korn": {"ok": True}})
    assert report["algorithm"] == "coupled"
    assert report["params"]["mu"] == pytest.approx(5 / 13)
    assert report["mesh"] == {"family": "uniform",
                              "cell_split": "lower-right to upper-left"}
    assert len(report["levels"]) == 2
    assert report["levels"][0]["rates"] is None
    assert set(report["levels"][1]["errors"]) == set(ErrorSet.COLUMNS)
    assert report["solver"]["tainted"] is False
    assert report["config"] == {"preset": "nu03"}
    assert report["checks"]["korn"]["ok"] is True
    assert report["failures"] == []
    json.dumps(report)  # JSON-serializable as-is


def test_write_csv_and_json(tmp_path, tiny_study):
    csv_path, json_path = tmp_path / "errors.csv", tmp_path / "report.json"
    write_csv(tiny_study, str(csv_path))
    write_json(study_report(tiny_study), str(json_path))
    assert csv_path.read_text() == study_csv(tiny_study)
    loaded = json.loads(json_path.read_text())
    assert loaded["levels"][1]["inv_h"] == 8
