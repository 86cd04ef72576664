"""Command-line front end: studies, reports, and self-checks.

Usage sketch::

    biotsplit --algorithm coupled --preset nu03 --dt 1e-3 --levels 4 \
              --out-csv table.csv --out-json report.json
    biotsplit --preset nu03 --check contraction --check energy

Exit status is 0 when the study ran and every requested check passed, 1 when
a check failed or a level failed to solve, and 2 for a configuration error.
A flat key=value config file (--config) supplies defaults; explicit flags
override it.  The effective configuration is echoed verbatim into the JSON
report.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .assembly import constrain_matrix, export_matrix
from .benchmark import (PRESETS, benchmark_loads, homogeneous_loads, initial_state,
                        make_case, run_study, study_csv, study_report, write_csv,
                        write_json)
from .biot import (STEPPERS, LoadSet, advance, build_system, contraction_monitor,
                   energy_check, korn_check)
from .fem import interpolate
from .mesh import build_uniform, refine

CHECK_NAMES = ("energy", "contraction", "korn", "rates")

#: Finest-level rate floors for the coupled algorithm (order matches ErrorSet).
RATE_FLOORS = {"l2_u": 1.8, "h1_u": 1.8, "l2_xi": 1.8, "h1_xi": 0.9,
               "l2_p": 1.8, "h1_p": 0.9}


@dataclass
class RunConfig:
    algorithm: str = "coupled"
    preset: Optional[str] = None
    E: Optional[float] = None
    nu: Optional[float] = None
    alpha: Optional[float] = None
    c0: Optional[float] = None
    K: Optional[float] = None
    dt: Optional[float] = None
    T: Optional[float] = None
    n0: int = 16
    levels: int = 4
    iter: Optional[int] = None
    tol: Optional[float] = None
    checks: tuple = ()
    out_csv: Optional[str] = None
    out_json: Optional[str] = None
    dump_matrix: Optional[str] = None


class ConfigError(ValueError):
    pass


_FLOAT_KEYS = ("E", "nu", "alpha", "c0", "K", "dt", "T", "tol")
_INT_KEYS = ("n0", "levels", "iter")
_STR_KEYS = ("algorithm", "preset", "out_csv", "out_json", "dump_matrix")


def _parse_file(path: str) -> dict:
    """Flat key=value config file; '#' starts a comment; unknown keys rejected."""
    values = {}
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        try:
            if key in _FLOAT_KEYS:
                values[key] = float(value)
            elif key in _INT_KEYS:
                values[key] = int(value)
            elif key in _STR_KEYS:
                values[key] = value
            elif key == "check":
                values["checks"] = tuple(v.strip() for v in value.split(",") if v.strip())
            else:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        except ValueError as exc:
            if isinstance(exc, ConfigError):
                raise
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {value!r}") from exc
    return values


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="biotsplit",
        description="Convergence benchmark and self-checks for the three-field "
                    "poroelasticity solver (coupled / time-extrapolated / "
                    "iteratively decoupled).")
    p.add_argument("--algorithm", choices=tuple(STEPPERS))
    p.add_argument("--preset", choices=sorted(PRESETS))
    p.add_argument("--E", type=float, help="Young's modulus")
    p.add_argument("--nu", type=float, help="Poisson ratio, in (0, 0.5)")
    p.add_argument("--alpha", type=float, help="Biot-Willis coefficient")
    p.add_argument("--c0", type=float, help="storage coefficient, >= 0")
    p.add_argument("--K", type=float, help="permeability, > 0")
    p.add_argument("--dt", type=float, help="time step")
    p.add_argument("--T", type=float, help="final time")
    p.add_argument("--n0", type=int, help="initial cells per side (default 16)")
    p.add_argument("--levels", type=int, help="number of mesh levels (default 4)")
    p.add_argument("--iter", type=int, help="fixed iteration count (iterative)")
    p.add_argument("--tol", type=float, help="increment tolerance (iterative)")
    p.add_argument("--check", action="append", choices=CHECK_NAMES, dest="checks",
                   help="self-check to run (repeatable)")
    p.add_argument("--out-csv", dest="out_csv", help="write the error table here")
    p.add_argument("--out-json", dest="out_json", help="write the full report here")
    p.add_argument("--dump-matrix", dest="dump_matrix",
                   help="write the coupled system matrix (Matrix Market) here")
    p.add_argument("--config", help="flat key=value config file; flags override it")
    return p


def parse_config(argv) -> RunConfig:
    """Merge defaults < config file < explicit flags into a RunConfig."""
    ns = _build_parser().parse_args(argv)
    config = RunConfig()
    if ns.config:
        for key, value in _parse_file(ns.config).items():
            setattr(config, key, value)
    for key in (*_FLOAT_KEYS, *_INT_KEYS, *_STR_KEYS):
        value = getattr(ns, key)
        if value is not None:
            setattr(config, key, value)
    config.checks = tuple(dict.fromkeys((*config.checks, *(ns.checks or ()))))
    for check in config.checks:
        if check not in CHECK_NAMES:
            raise ConfigError(f"unknown check {check!r} (have {CHECK_NAMES})")
    if config.n0 < 1:
        raise ConfigError(f"--n0 must be >= 1, got {config.n0}")
    if config.levels < 2:
        raise ConfigError(f"--levels must be >= 2 (rates need two levels), "
                          f"got {config.levels}")
    return config


def _effective_case(config: RunConfig):
    overrides = {k: getattr(config, k) for k in ("E", "nu", "alpha", "c0", "K", "dt", "T")
                 if getattr(config, k) is not None}
    return make_case(config.preset, **overrides)


# ---------------------------------------------------------------------------
# self-checks
# ---------------------------------------------------------------------------

def _check_rates(study) -> tuple[bool, dict]:
    finest = study.rates()[-1]
    bad = {k: finest[k] for k, floor in RATE_FLOORS.items() if not finest[k] >= floor}
    detail = {"finest_rates": finest, "floors": RATE_FLOORS, "violations": bad}
    return not bad, detail


def _check_energy(case, n0: int) -> tuple[bool, dict]:
    system = build_system(build_uniform(n0), case.params, homogeneous_loads(case))
    u0 = interpolate(system.V, case.u_profile)
    u0.values[system.bd_u] = 0.0
    p0 = interpolate(system.M, case.p_profile)
    p0.values[system.bd_p] = 0.0
    xi0 = system.project_total_pressure(u0.values, p0.values)
    state0 = system.state(u0.values, xi0, p0.values, 0.0)
    steps = round(case.params.T / case.params.dt)
    states = advance(system, state0, steps, "coupled", keep_states=True)
    report = energy_check(system, states)
    ok = report.max_defect <= 1e-9
    return ok, {"max_defect": report.max_defect, "steps": steps,
                "J0": report.J[0], "J_final": report.J[-1]}


def _check_contraction(case, n0: int) -> tuple[bool, dict]:
    params = case.params
    system = build_system(build_uniform(n0), params, benchmark_loads(case))
    imax = 25 if params.c0 > 0 else 80
    report = contraction_monitor(system, initial_state(system, case), imax=imax)
    detail = {"rho": report.rho, "max_ratio": report.max_ratio,
              "num_ratios": len(report.ratios),
              "pressure_bound_ok": report.pressure_bound_ok(),
              "strain_bound_ok": report.strain_bound_ok()}
    if params.c0 > 0:
        # a fast contraction (nu near 1/2) reaches the noise floor in a few sweeps
        measured = len(report.ratios) >= 20 or bool(report.xi_errors[-1] <= report.floor)
        ok = (report.max_ratio <= report.rho + 1e-8 and measured
              and report.pressure_bound_ok() and report.strain_bound_ok())
    else:
        e = report.xi_errors
        nonincreasing = bool(np.all(np.diff(e) <= 1e-12 * max(e[0], 1.0)))
        reached = bool(e[-1] <= 1e-8 * e[0]) if e[0] > 0 else True
        first = int(np.argmax(e <= 1e-8 * e[0])) if reached else -1
        detail.update({"nonincreasing": nonincreasing,
                       "reduction_reached_at": first})
        ok = nonincreasing and reached
    return ok, detail


def _check_korn(case, n0: int) -> tuple[bool, dict]:
    detail, ok = {}, True
    mesh = build_uniform(n0)
    for label in ("coarse", "fine"):
        system = build_system(mesh, case.params, LoadSet())
        max_ratio, violations = korn_check(system, num_fields=1000, seed=20260819)
        detail[label] = {"triangles": mesh.num_triangles, "max_ratio": max_ratio,
                         "violations": violations}
        ok = ok and violations == 0
        mesh = refine(mesh)
    return ok, detail


def run(config: RunConfig) -> int:
    """Execute the configured study and checks; write reports; return exit code."""
    try:
        case = _effective_case(config)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    iters = config.iter
    if config.algorithm == "iterative" and iters is None and config.tol is None:
        print("error: iterative algorithm needs --iter or --tol", file=sys.stderr)
        return 2

    try:
        study = run_study(config.algorithm, case, config.levels, n0=config.n0,
                          iters=iters, tol=config.tol)
    except ValueError as exc:  # the settings, rejected before any level runs
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:  # a level failed
        print(f"error: {exc}", file=sys.stderr)
        return 1

    checks, failures = {}, []
    for name in config.checks:
        if name == "rates":
            ok, detail = _check_rates(study)
        elif name == "energy":
            ok, detail = _check_energy(case, config.n0)
        elif name == "contraction":
            ok, detail = _check_contraction(case, config.n0)
        else:
            ok, detail = _check_korn(case, config.n0)
        checks[name] = {"passed": ok, **detail}
        if not ok:
            failures.append({"check": name, "detail": detail})

    sys.stdout.write(study_csv(study))
    for name in config.checks:
        print(f"check {name}: {'PASS' if checks[name]['passed'] else 'FAIL'}")
    if study.tainted:
        print(f"warning: solver residual {study.max_residual:.3e} exceeded 1e-9; "
              f"report marked tainted", file=sys.stderr)

    if config.out_csv:
        _write_artifact(write_csv, study, config.out_csv)
    if config.out_json:
        report = study_report(study, config_echo=asdict(config), checks=checks,
                              failures=failures)
        _write_artifact(write_json, report, config.out_json)
    if config.dump_matrix:
        system = build_system(build_uniform(config.n0), case.params,
                              benchmark_loads(case))
        A, dofs = system._block("coupled")
        natural = constrain_matrix(A, dofs, np.arange(A.shape[0])).tocsr()
        _write_artifact(export_matrix, natural, config.dump_matrix)

    return 0 if not failures else 1


def _write_artifact(writer, payload, path: str) -> None:
    try:
        writer(payload, path)
    except OSError as exc:
        raise SystemExit(f"error: cannot write {path}: {exc}")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if not argv:
        _build_parser().print_usage(sys.stderr)
        print("error: no arguments given; see --help", file=sys.stderr)
        return 2
    try:
        config = parse_config(argv)
    except ValueError as exc:  # ConfigError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return run(config)


if __name__ == "__main__":
    raise SystemExit(main())
