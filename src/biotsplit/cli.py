"""Command-line front end: studies, reports, and self-checks.

Usage sketch::

    biotsplit --algorithm coupled --preset nu03 --dt 1e-3 --levels 4 \
              --out-csv table.csv --out-json report.json
    biotsplit --preset nu03 --check contraction --check energy

Exit status is 0 when the study ran and every requested check passed, 1 when
a check failed, a level failed to solve, a solve missed the residual limit
(the report is still written, marked tainted, with a ``warning:`` line) or a
report could not be written, and 2 for a configuration error; an error is
reported as one ``error:`` line.
The argument parser is the one declaration of the run settings: a flat
``key = value`` config file (--config) is read as the flags ``--key=value``
ahead of the command line, so explicit flags override it.  The parser checks
each setting's type; the library checks its value.  The effective
configuration is echoed verbatim into the JSON report.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import fields

import numpy as np

from .assembly import PhysParams, constrain_matrix, export_matrix
from .benchmark import (PRESETS, TAINT_LIMIT, benchmark_loads, homogeneous_loads,
                        initial_state, make_case, run_study, study_csv, study_report,
                        write_csv, write_json)
from .biot import (STEPPERS, BiotState, LoadSet, advance, build_system,
                   contraction_monitor, energy_check, korn_check)
from .fem import interpolate
from .mesh import build_uniform, refine

#: Finest-level rate floors for the coupled algorithm (order matches ErrorSet).
RATE_FLOORS = {"l2_u": 1.8, "h1_u": 1.8, "l2_xi": 1.8, "h1_xi": 0.9,
               "l2_p": 1.8, "h1_p": 0.9}


class ConfigError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _path(value: str) -> str:
    """A file path flag's value: an empty one is an error, not "no file"."""
    if not value:
        raise argparse.ArgumentTypeError("empty path")
    return value


def _build_parser() -> _Parser:
    p = _Parser(
        prog="biotsplit", allow_abbrev=False,
        description="Convergence benchmark and self-checks for the three-field "
                    "poroelasticity solver (coupled / time-extrapolated / "
                    "iteratively decoupled).")
    p.add_argument("--algorithm", default="coupled",
                   help=f"one of {', '.join(STEPPERS)} (default coupled)")
    p.add_argument("--preset", help=f"parameter preset, one of {', '.join(sorted(PRESETS))}")
    p.add_argument("--E", type=float, help="Young's modulus")
    p.add_argument("--nu", type=float, help="Poisson ratio, in (0, 0.5)")
    p.add_argument("--alpha", type=float, help="Biot-Willis coefficient")
    p.add_argument("--c0", type=float, help="storage coefficient, >= 0")
    p.add_argument("--K", type=float, help="permeability, > 0")
    p.add_argument("--dt", type=float, help="time step")
    p.add_argument("--T", type=float, help="final time")
    p.add_argument("--n0", type=int, default=16, help="initial cells per side (default 16)")
    p.add_argument("--levels", type=int, default=4,
                   help="number of mesh levels (default 4)")
    p.add_argument("--iter", type=int, help="fixed iteration count (iterative)")
    p.add_argument("--tol", type=float, help="increment tolerance (iterative)")
    p.add_argument("--check", action="append", choices=CHECKS, dest="checks",
                   help="self-check to run (repeatable)")
    p.add_argument("--out-csv", dest="out_csv", type=_path, help="write the error table here")
    p.add_argument("--out-json", dest="out_json", type=_path,
                   help="write the full report here")
    p.add_argument("--dump-matrix", dest="dump_matrix", type=_path,
                   help="write the coupled system matrix (Matrix Market) here")
    p.add_argument("--config", type=_path,
                   help="flat key=value config file; flags override it")
    return p


def _file_args(parser: _Parser, path: str) -> list:
    """The lines of a config file as flags: ``key = value`` is ``--key=value``
    with '_' for '-' in the key, and ``check = a, b`` is two ``--check``;
    '#' starts a comment.  A key needs a value.  Each line is checked by
    ``parser`` on its own, so an error names its file and line."""
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    args = []
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = (part.strip() for part in line.partition("="))
        values = value.replace(",", " ").split() if key == "check" else [value]
        line_args = [f"--{key.replace('_', '-')}={v}" for v in values]
        try:
            if not value or not values:
                raise ConfigError(f"empty value for key {key!r}")
            if "-" in key or key == "config" or parser.parse_known_args(line_args)[1]:
                raise ConfigError(f"unknown key {key!r}")
        except ConfigError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from None
        args += line_args
    return args


def parse_config(argv) -> argparse.Namespace:
    """Parse defaults < config file < explicit flags into the run settings."""
    parser = _build_parser()
    config = parser.parse_args(argv)
    if config.config:
        config = parser.parse_args([*_file_args(parser, config.config), *argv])
    del config.config
    config.checks = tuple(dict.fromkeys(config.checks or ()))
    return config


def _effective_case(config: argparse.Namespace):
    overrides = {f.name: getattr(config, f.name) for f in fields(PhysParams)
                 if f.init and getattr(config, f.name) is not None}
    return make_case(config.preset, **overrides)


# ---------------------------------------------------------------------------
# self-checks: each takes (study, case, n0) and returns (passed, detail)
# ---------------------------------------------------------------------------

def _check_rates(study, case, n0: int) -> tuple[bool, dict]:
    finest = study.rates()[-1]
    bad = {k: finest[k] for k, floor in RATE_FLOORS.items() if not finest[k] >= floor}
    detail = {"finest_rates": finest, "floors": RATE_FLOORS, "violations": bad}
    return not bad, detail


def _check_energy(study, case, n0: int) -> tuple[bool, dict]:
    system = build_system(build_uniform(n0), case.params, homogeneous_loads(case))
    u0 = interpolate(system.V, case.u_profile)
    u0[system.bd_u] = 0.0
    p0 = interpolate(system.M, case.p_profile)
    p0[system.bd_p] = 0.0
    state0 = BiotState(u0, system.project_total_pressure(u0, p0), p0, 0.0)
    steps = round(case.params.T / case.params.dt)
    states = advance(system, state0, steps, "coupled", keep_states=True)
    report = energy_check(system, states)
    ok = report.max_defect <= 1e-9
    return ok, {"max_defect": report.max_defect, "steps": steps,
                "J0": report.J[0], "J_final": report.J[-1]}


def _check_contraction(study, case, n0: int) -> tuple[bool, dict]:
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
        nonincreasing = bool(np.all(np.diff(e) <= 1e-12 * report.scale))
        reached = bool(e[-1] <= 1e-8 * e[0]) if e[0] > 0 else True
        first = int(np.argmax(e <= 1e-8 * e[0])) if reached else -1
        detail.update({"nonincreasing": nonincreasing,
                       "reduction_reached_at": first})
        ok = nonincreasing and reached
    return ok, detail


def _check_korn(study, case, n0: int) -> tuple[bool, dict]:
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


CHECKS = {"energy": _check_energy, "contraction": _check_contraction, "korn": _check_korn,
          "rates": _check_rates}


def run(config: argparse.Namespace) -> int:
    """Execute the configured study and checks; write reports; return exit code."""
    try:
        case = _effective_case(config)
        study = run_study(config.algorithm, case, config.levels, n0=config.n0,
                          iters=config.iter, tol=config.tol)
    except ValueError as exc:  # the case or the settings, rejected before any level runs
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:  # a level failed
        print(f"error: {exc}", file=sys.stderr)
        return 1

    checks, failures = {}, []
    for name in config.checks:
        ok, detail = CHECKS[name](study, case, config.n0)
        checks[name] = {"passed": ok, **detail}
        if not ok:
            failures.append({"check": name, "detail": detail})

    sys.stdout.write(study_csv(study))
    for name in config.checks:
        print(f"check {name}: {'PASS' if checks[name]['passed'] else 'FAIL'}")
    if study.tainted:
        print(f"warning: solver residual {study.max_residual:.3e} exceeded {TAINT_LIMIT:g}; "
              f"report marked tainted", file=sys.stderr)

    if config.out_csv and not _write_artifact(write_csv, study, config.out_csv):
        return 1
    if config.out_json:
        report = study_report(study, config_echo=vars(config), checks=checks,
                              failures=failures)
        if not _write_artifact(write_json, report, config.out_json):
            return 1
    if config.dump_matrix:
        system = build_system(build_uniform(config.n0), case.params,
                              benchmark_loads(case))
        A, dofs, _ = system._block("coupled")
        natural = constrain_matrix(A, dofs, np.arange(A.shape[0]))
        if not _write_artifact(export_matrix, natural, config.dump_matrix):
            return 1

    return 1 if failures or study.tainted else 0


def _write_artifact(writer, payload, path: str) -> bool:
    """Write one report; on failure print one ``error:`` line and return False."""
    try:
        writer(payload, path)
    except OSError as exc:
        print(f"error: cannot write {path}: {exc}", file=sys.stderr)
        return False
    return True


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
