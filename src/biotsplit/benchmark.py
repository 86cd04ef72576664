"""Manufactured-solution convergence benchmark on the unit square.

Exact fields (all scaled by e^{-t}):

    u1 = sin(2 pi y)(cos(2 pi x) - 1) + sin(pi x) sin(pi y)/(mu + lam)
    u2 = sin(2 pi x)(1 - cos(2 pi y)) + sin(pi x) sin(pi y)/(mu + lam)
    p  = sin(pi x) sin(pi y)

with div u = pi sin(pi(x+y))/(mu+lam) and xi = alpha p - lam div u.  Dirichlet
data for u and p are imposed on the left/right sides, traction and flux data
on the bottom/top.  Errors are measured at the terminal time in the L2 norm
and the full H1 norm by element quadrature, and rates across a refinement
chain as log2(e_h / e_{h/2}).
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .assembly import PhysParams
from .biot import (STEPPERS, BiotState, DiscreteSystem, LoadSet, advance, build_system,
                   check_iteration_settings)
from .fem import affine_maps, eval_basis, interpolate, physical_points, quadrature
from .mesh import CELL_SPLIT, build_uniform, refine

#: Named parameter presets; unlisted values fall back to PhysParams defaults.
PRESETS = {
    "nu03": dict(nu=0.3, c0=1.0, K=1.0),
    "nu0499": dict(nu=0.499, c0=1.0, K=1.0),
    "lowk": dict(nu=0.3, c0=1.0, K=1e-6),
    "c00": dict(nu=0.3, c0=0.0, K=1.0),
}

PI = math.pi


def make_case(preset: str | None = None, **overrides) -> "ManufacturedCase":
    """Build a case from a preset name and/or explicit parameter overrides."""
    if preset is not None and preset not in PRESETS:
        raise ValueError(f"unknown preset {preset!r} (have {sorted(PRESETS)})")
    return ManufacturedCase(PhysParams(**{**PRESETS.get(preset, {}), **overrides}))


@dataclass(frozen=True)
class ManufacturedCase:
    """Closed-form solution, forcing, and boundary data, time-separable.

    Spatial profiles are the t = 0 fields; multiply by ``time_factor(t)``
    (= e^{-t}) for the field at time t.  All profile methods are vectorized
    over coordinate arrays.
    """

    params: PhysParams

    @staticmethod
    def time_factor(t: float) -> float:
        return math.exp(-t)

    # -- primary fields ----------------------------------------------------

    def u_profile(self, x, y):
        ml = self.params.mu + self.params.lam
        bump = np.sin(PI * x) * np.sin(PI * y) / ml
        return np.stack([
            np.sin(2 * PI * y) * (np.cos(2 * PI * x) - 1.0) + bump,
            np.sin(2 * PI * x) * (1.0 - np.cos(2 * PI * y)) + bump,
        ])

    def p_profile(self, x, y):
        return np.sin(PI * x) * np.sin(PI * y)

    def div_u_profile(self, x, y):
        return PI * np.sin(PI * (x + y)) / (self.params.mu + self.params.lam)

    def xi_profile(self, x, y):
        p = self.params
        return p.alpha * self.p_profile(x, y) - p.lam * self.div_u_profile(x, y)

    # -- gradients (profile part) ------------------------------------------

    def grad_u_profile(self, x, y):
        """(2, 2, ...) array, entry [i, j] = d u_i / d x_j."""
        ml = self.params.mu + self.params.lam
        cs = PI * np.cos(PI * x) * np.sin(PI * y) / ml
        sc = PI * np.sin(PI * x) * np.cos(PI * y) / ml
        return np.stack([
            np.stack([-2 * PI * np.sin(2 * PI * x) * np.sin(2 * PI * y) + cs,
                      2 * PI * np.cos(2 * PI * y) * (np.cos(2 * PI * x) - 1.0) + sc]),
            np.stack([2 * PI * np.cos(2 * PI * x) * (1.0 - np.cos(2 * PI * y)) + cs,
                      2 * PI * np.sin(2 * PI * x) * np.sin(2 * PI * y) + sc]),
        ])

    def grad_p_profile(self, x, y):
        return np.stack([PI * np.cos(PI * x) * np.sin(PI * y),
                         PI * np.sin(PI * x) * np.cos(PI * y)])

    def grad_xi_profile(self, x, y):
        p = self.params
        wave = p.lam * PI ** 2 * np.cos(PI * (x + y)) / (p.mu + p.lam)
        gp = self.grad_p_profile(x, y)
        return np.stack([p.alpha * gp[0] - wave, p.alpha * gp[1] - wave])

    # -- forcing and boundary data ------------------------------------------

    def volume_force_profile(self, x, y):
        p = self.params
        ml = p.mu + p.lam
        f1 = (4 * p.mu * PI ** 2 * np.sin(2 * PI * y) * (2 * np.cos(2 * PI * x) - 1.0)
              + (2 * p.mu * PI ** 2 / ml * np.sin(PI * x)
                 + p.alpha * PI * np.cos(PI * x)) * np.sin(PI * y)
              - PI ** 2 * np.cos(PI * (x + y)))
        f2 = (4 * p.mu * PI ** 2 * np.sin(2 * PI * x) * (1.0 - 2 * np.cos(2 * PI * y))
              + (2 * p.mu * PI ** 2 / ml * np.sin(PI * y)
                 + p.alpha * PI * np.cos(PI * y)) * np.sin(PI * x)
              - PI ** 2 * np.cos(PI * (x + y)))
        return np.stack([f1, f2])

    def mass_source_profile(self, x, y):
        p = self.params
        return ((-p.c0 + 2 * PI ** 2 * p.K) * np.sin(PI * x) * np.sin(PI * y)
                - p.alpha * PI * np.sin(PI * (x + y)) / (p.mu + p.lam))

    def traction_profile(self, x, y, normal):
        """(2 mu eps(u) - xi I) n on a side with outward normal n."""
        p = self.params
        g = self.grad_u_profile(x, y)
        xi = self.xi_profile(x, y)
        e11, e22 = g[0, 0], g[1, 1]
        e12 = 0.5 * (g[0, 1] + g[1, 0])
        t1 = (2 * p.mu * e11 - xi) * normal[0] + 2 * p.mu * e12 * normal[1]
        t2 = 2 * p.mu * e12 * normal[0] + (2 * p.mu * e22 - xi) * normal[1]
        return np.stack([t1, t2])

    def flux_profile(self, x, y, normal):
        """K grad(p) . n on a side with outward normal n."""
        gp = self.grad_p_profile(x, y)
        return self.params.K * (gp[0] * normal[0] + gp[1] * normal[1])


def benchmark_loads(case: ManufacturedCase) -> LoadSet:
    """Full manufactured data set: loads, Neumann data, Dirichlet profiles."""
    return LoadSet(
        volume_force=case.volume_force_profile,
        traction=case.traction_profile,
        mass_source=case.mass_source_profile,
        flux=case.flux_profile,
        displacement_bc=case.u_profile,
        pressure_bc=case.p_profile,
        time_factor=case.time_factor,
    )


def homogeneous_loads(case: ManufacturedCase) -> LoadSet:
    """Zero boundary data, static volume loads: the energy-identity setting."""
    return LoadSet(volume_force=case.volume_force_profile,
                   mass_source=case.mass_source_profile)


def initial_state(sys: DiscreteSystem, case: ManufacturedCase) -> BiotState:
    """Nodal interpolation of the exact fields at t = 0 (xi via its formula)."""
    u0 = interpolate(sys.V, case.u_profile)
    xi0 = interpolate(sys.M, case.xi_profile)
    p0 = interpolate(sys.M, case.p_profile)
    return BiotState(u0, xi0, p0, 0.0)


@dataclass(frozen=True)
class ErrorSet:
    """L2 and full-H1 errors of the three fields at the terminal time."""

    l2_u: float
    h1_u: float
    l2_xi: float
    h1_xi: float
    l2_p: float
    h1_p: float

    COLUMNS = ("l2_u", "h1_u", "l2_xi", "h1_xi", "l2_p", "h1_p")

    def as_tuple(self):
        return (self.l2_u, self.h1_u, self.l2_xi, self.h1_xi, self.l2_p, self.h1_p)


def compute_errors(sys: DiscreteSystem, state: BiotState, case: ManufacturedCase) -> ErrorSet:
    """Element-quadrature L2/H1 errors of (u, xi, p) against the exact fields.

    Raises ``ValueError`` if a field's length is not the dimension of its space.
    """
    mesh = sys.mesh
    tf = case.time_factor(state.t)
    rule = quadrature()
    _, inv_t, det = affine_maps(mesh)
    inv = np.transpose(inv_t, (0, 2, 1))
    weights = np.outer(det, rule.weights)
    xq, yq = physical_points(mesh, rule.points)

    def errors(space, values, exact, grad_exact):
        # exact[c] (nt, nq) and grad_exact[c] (2, nt, nq) belong to component c
        if np.shape(values) != (space.num_dofs,):
            raise ValueError(f"coefficient array has shape {np.shape(values)}, "
                             f"space has {space.num_dofs} dofs")
        vals, grads_ref = eval_basis(space.scalar_kind, rule.points)
        sdofs = space.cell_dofs()
        l2sq = gradsq = 0.0
        for c, coefficients in enumerate(np.reshape(values, (space.components, -1))):
            C = coefficients[sdofs]
            diff = C @ vals - exact[c]
            # gradients in reference coordinates (nt, nq, 2), mapped once per triangle
            grads = (C @ grads_ref.reshape(len(grads_ref), -1)).reshape(len(C), -1, 2) @ inv
            gdiff = grads - np.moveaxis(grad_exact[c], 0, -1)
            l2sq += float(np.sum(weights * diff ** 2))
            gradsq += float(np.sum(weights[:, :, None] * gdiff ** 2))
        return np.sqrt(l2sq), np.sqrt(l2sq + gradsq)

    l2u, h1u = errors(sys.V, state.u, tf * case.u_profile(xq, yq),
                      tf * case.grad_u_profile(xq, yq))
    l2xi, h1xi = errors(sys.M, state.xi, [tf * case.xi_profile(xq, yq)],
                        [tf * case.grad_xi_profile(xq, yq)])
    l2p, h1p = errors(sys.M, state.p, [tf * case.p_profile(xq, yq)],
                      [tf * case.grad_p_profile(xq, yq)])
    return ErrorSet(l2u, h1u, l2xi, h1xi, l2p, h1p)


@dataclass
class LevelResult:
    level: int              # 1-based level index
    inv_h: int              # cells per side (reciprocal grid spacing)
    errors: ErrorSet
    max_residual: float     # worst relative solver residual on this level
    steps: int


@dataclass
class StudyResult:
    algorithm: str
    case: ManufacturedCase
    rows: list
    iters: Optional[int] = None
    tol: Optional[float] = None

    def rates(self) -> list:
        """Per-level rate dict (None on the first level)."""
        out = [None]
        for prev, cur in zip(self.rows[:-1], self.rows[1:]):
            e0, e1 = prev.errors.as_tuple(), cur.errors.as_tuple()
            out.append({k: math.log2(a / b)
                        for k, a, b in zip(ErrorSet.COLUMNS, e0, e1)})
        return out

    @property
    def max_residual(self) -> float:
        """Worst per-level residual; NaN if any level logged a NaN."""
        return float(np.max([r.max_residual for r in self.rows]))

    @property
    def tainted(self) -> bool:
        return not self.max_residual <= 1e-9


def run_study(algorithm: str, case: ManufacturedCase, levels: int, n0: int = 16,
              iters: int | None = None, tol: float | None = None) -> StudyResult:
    """Time-march the benchmark on a refinement chain and collect errors.

    ``levels`` counts mesh levels (>= 2 for rates); the initial mesh has
    ``n0`` cells per side and each level halves h.  ``iters``/``tol`` apply
    to the iterative algorithm only, and giving either to another algorithm
    is an error.  Invalid settings raise ``ValueError`` before any level is
    built; a failing level raises ``RuntimeError``.
    """
    if levels < 2:
        raise ValueError(f"need at least 2 levels for rates, got {levels}")
    if algorithm not in STEPPERS:
        raise ValueError(f"unknown algorithm {algorithm!r} (have {tuple(STEPPERS)})")
    if algorithm == "iterative":
        check_iteration_settings(iters, tol)
    elif iters is not None or tol is not None:
        raise ValueError(f"iters and tol apply to the iterative algorithm only, "
                         f"not to {algorithm!r}")
    params = case.params
    num_steps = round(params.T / params.dt)
    if abs(num_steps * params.dt - params.T) > 1e-12 * max(params.T, 1.0):
        raise ValueError(f"T={params.T} is not an integer multiple of dt={params.dt}")

    loads = benchmark_loads(case)
    rows = []
    mesh = build_uniform(n0)
    for level in range(1, levels + 1):
        try:
            sys = build_system(mesh, params, loads)
            state = initial_state(sys, case)
            state = advance(sys, state, num_steps, algorithm, iters=iters, tol=tol)
        except Exception as exc:
            raise RuntimeError(
                f"level {level} (1/h={n0 * 2 ** (level - 1)}) failed: {exc}") from exc
        rows.append(LevelResult(level=level, inv_h=n0 * 2 ** (level - 1),
                                errors=compute_errors(sys, state, case),
                                max_residual=sys.max_solver_residual(),
                                steps=num_steps))
        if level < levels:
            mesh = refine(mesh)
    return StudyResult(algorithm=algorithm, case=case, rows=rows,
                       iters=iters, tol=tol)


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------

CSV_HEADER = ("level,inv_h,"
              "err_L2_u,rate_L2_u,err_H1_u,rate_H1_u,"
              "err_L2_xi,rate_L2_xi,err_H1_xi,rate_H1_xi,"
              "err_L2_p,rate_L2_p,err_H1_p,rate_H1_p")


def study_csv(study: StudyResult) -> str:
    """Render the error table: 4-significant-digit errors, 2-decimal rates."""
    lines = [CSV_HEADER]
    rates = study.rates()
    for row, rate in zip(study.rows, rates):
        cells = [str(row.level), str(row.inv_h)]
        for key, err in zip(ErrorSet.COLUMNS, row.errors.as_tuple()):
            cells.append(f"{err:.3e}")
            cells.append("" if rate is None else f"{rate[key]:.2f}")
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def study_report(study: StudyResult, config_echo: dict | None = None,
                 checks: dict | None = None, failures: list | None = None) -> dict:
    """JSON-ready report with full run metadata and solver statistics."""
    rates = study.rates()
    return {
        "algorithm": study.algorithm,
        "params": asdict(study.case.params),
        "mesh": {"family": "uniform", "cell_split": CELL_SPLIT},
        "iter": study.iters,
        "tol": study.tol,
        "levels": [
            {
                "level": row.level,
                "inv_h": row.inv_h,
                "steps": row.steps,
                "errors": dict(zip(ErrorSet.COLUMNS, row.errors.as_tuple())),
                "rates": rates[i],
                "max_rel_residual": row.max_residual,
            }
            for i, row in enumerate(study.rows)
        ],
        "solver": {"max_rel_residual": study.max_residual,
                   "tainted": study.tainted},
        "config": config_echo or {},
        "checks": checks or {},
        "failures": failures or [],
    }


def write_csv(study: StudyResult, path: str) -> None:
    with open(path, "w") as f:
        f.write(study_csv(study))


def write_json(report: dict, path: str) -> None:
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"  # no partial file on a bad value
    with open(path, "w") as f:
        f.write(text)
