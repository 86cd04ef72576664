"""Time stepping for quasi-static poroelasticity in total-pressure form.

Unknowns per time level: displacement u (P2 vector), total pressure
xi = alpha*p - lam*div(u) (P1), fluid pressure p (P1).  Backward Euler in
time; three interchangeable update strategies over one set of assembled
blocks:

* ``step_coupled``      -- monolithic 3x3 block solve,
* ``step_te_decoupled`` -- generalized Stokes with the lagged pressure,
                           then the reaction-diffusion pressure update,
* ``step_iterative``    -- within each step, alternate the pressure solve
                           and the Stokes solve to a fixed count or an
                           increment tolerance.

The block systems are assembled in a symmetric signed form (mass-balance and
pressure rows multiplied by -1) so row/column Dirichlet elimination keeps
them symmetric.  All coefficient blocks are time-independent, so each
algorithm factors its matrix once and reuses it for every step/iteration;
loads and boundary data are separable profiles scaled by a time factor.
The parameter-free part of a system (spaces, unit forms, Dirichlet dofs,
block orders) is built once per mesh and shared by every system on an equal
mesh; factors are not shared.  Block systems are stitched from the forms as
raw triplets (``linalg.bmat``) and eliminated into the library's own CSR
(``linalg.CSR``), so no part of a solve imports ``scipy.sparse``.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .assembly import (BOUNDARY_FLUX, BOUNDARY_TRACTION, DIV_COUPLING, DIV_DIV,
                       ELASTICITY, MASS, P_STIFFNESS, VOLUME_LOAD, PhysParams,
                       assemble_form, assemble_functional, constrain_matrix,
                       dirichlet_columns)
from .fem import P1, P2_VECTOR, Space, interpolate
from .linalg import COO, Factorization, bmat, inner, lu_factor
from .mesh import DIRICHLET_TAGS, TriMesh, dissection_keys


def _static_time_factor(t: float) -> float:
    return 1.0


@dataclass
class LoadSet:
    """Problem data as spatial profiles times a shared scalar time factor.

    Any entry may be None (treated as zero).  Volume data are called as
    ``f(x, y)``, boundary data as ``f(x, y, normal)``, Dirichlet profiles as
    ``g(x, y)``; the actual datum at time t is profile * time_factor(t).
    """

    volume_force: Optional[Callable] = None
    traction: Optional[Callable] = None
    mass_source: Optional[Callable] = None
    flux: Optional[Callable] = None
    displacement_bc: Optional[Callable] = None
    pressure_bc: Optional[Callable] = None
    time_factor: Callable[[float], float] = _static_time_factor


@dataclass
class BiotState:
    """Discrete solution triple at one time level, as coefficient arrays: u
    component-major on the P2 vector space ``V``, xi and p on the P1 space
    ``M`` of its system."""

    u: np.ndarray
    xi: np.ndarray
    p: np.ndarray
    t: float


class Discretization:
    """The parameter-free part of every system on one mesh.

    ``V`` is the P2 vector space of u, ``M`` the one P1 space of xi and p;
    ``bd_u``/``bd_p`` are the dofs of u and p on the sides ``DIRICHLET_TAGS``
    (xi has none); ``orders`` holds the nested-dissection order of each
    block system (``pressure`` and ``mass`` share one array).

    Forms (unit coefficients, scaled on use):
      elasticity  (eps(u), eps(v))     vector x vector
      div_coupling (q, div v)          rows: vector dofs, cols: P1 dofs
      mass        (p, q)               P1 x P1
      stiffness   (grad p, grad q)     P1 x P1

    Every system on an equal mesh shares one instance (see ``discretize``),
    so its arrays are read-only.
    """

    def __init__(self, mesh: TriMesh):
        self.mesh = mesh
        self.V = V = Space(mesh, P2_VECTOR)
        self.M = M = Space(mesh, P1)
        self.elasticity = assemble_form(ELASTICITY, V, V)
        self.div_coupling = assemble_form(DIV_COUPLING, M, V)
        self.mass = assemble_form(MASS, M, M)
        self.stiffness = assemble_form(P_STIFFNESS, M, M)
        self.offsets = (0, V.num_dofs, V.num_dofs + M.num_dofs, V.num_dofs + 2 * M.num_dofs)
        bd = V.boundary_scalar_dofs(DIRICHLET_TAGS)
        self.bd_u = np.concatenate([bd, bd + V.num_scalar_dofs])
        self.bd_p = M.boundary_scalar_dofs(DIRICHLET_TAGS)
        # The coupled rows (u_x, u_y, xi, p) sorted by the keys of their nodes
        # (a P1 node's key is its P2 vertex's).  The sort is stable, so the
        # Stokes order is this one without the p rows and the P1 order its p rows.
        kv = dissection_keys(mesh, V.dof_coords())
        km = kv[:mesh.num_vertices]
        coupled = np.argsort(np.concatenate([kv, kv, km, km]), kind="stable")
        p_rows = coupled >= self.offsets[2]
        p1 = coupled[p_rows] - self.offsets[2]
        self.orders = {"coupled": coupled, "stokes": coupled[~p_rows], "pressure": p1, "mass": p1}

        arrays = [self.bd_u, self.bd_p, *self.orders.values()]
        for form in (self.elasticity, self.div_coupling, self.mass, self.stiffness):
            arrays += [form.data, form.indices, form.indptr]
        for array in arrays:
            array.flags.writeable = False


#: How many meshes ``discretize`` keeps: one 1/h = 16..128 refinement chain.
TABLE_SIZE = 4


@functools.lru_cache(maxsize=TABLE_SIZE)
def discretize(mesh: TriMesh) -> Discretization:
    """The shared ``Discretization`` of ``mesh``.

    Meshes are values, so an equal mesh built afresh (every study builds its
    refinement chain anew) finds the same instance.  The ``TABLE_SIZE`` most
    recently used meshes are kept, so longer chains get no sharing.
    """
    return Discretization(mesh)


class DiscreteSystem:
    """One case on one mesh: operators, load profiles, and solver caches.

    ``mesh``, ``V``, ``M``, the four forms, ``bd_u``/``bd_p`` and
    ``offsets`` are those of the mesh's shared ``Discretization``.
    ``gu_profile``/``gp_profile`` are the nodal interpolants of the
    Dirichlet profiles at ``bd_u``/``bd_p``.

    ``_block`` gives a block system with its Dirichlet dofs and profile, and
    ``solve`` is the one block solve: a block is factored in its nested-dissection
    order on its first solve and kept in ``factors`` (never shared between
    systems), its Dirichlet values at time t are its profile times
    ``time_factor(t)``, and every solve enters ``max_residual``, the worst
    relative residual of any solve on this system so far (NaN once any was NaN).
    """

    def __init__(self, mesh: TriMesh, params: PhysParams, loads: LoadSet):
        self.discretization = d = discretize(mesh)
        self.params = params
        self.loads = loads
        self.mesh, self.V, self.M = d.mesh, d.V, d.M
        self.elasticity, self.div_coupling = d.elasticity, d.div_coupling
        self.mass, self.stiffness = d.mass, d.stiffness
        self.offsets, self.bd_u, self.bd_p = d.offsets, d.bd_u, d.bd_p

        self.fu_profile = np.zeros(self.V.num_dofs)
        if loads.volume_force is not None:
            self.fu_profile += assemble_functional(VOLUME_LOAD, self.V, loads.volume_force)
        if loads.traction is not None:
            self.fu_profile += assemble_functional(BOUNDARY_TRACTION, self.V, loads.traction)
        self.fq_profile = np.zeros(self.M.num_dofs)
        if loads.mass_source is not None:
            self.fq_profile += assemble_functional(VOLUME_LOAD, self.M, loads.mass_source)
        if loads.flux is not None:
            self.fq_profile += assemble_functional(BOUNDARY_FLUX, self.M, loads.flux)

        self.gu_profile = _nodal_values(self.V, loads.displacement_bc, self.bd_u)
        self.gp_profile = _nodal_values(self.M, loads.pressure_bc, self.bd_p)
        self.factors: dict[str, Factorization] = {}
        self._boundary: dict[str, tuple] = {}  # name -> (dofs, columns, profile) of _block
        self.max_residual = 0.0

    # -- block systems ------------------------------------------------------

    def _block(self, name: str):
        """One block system as ``(A, dofs, profile)``: the raw matrix (a ``COO``
        with the entries ``scipy.sparse.bmat`` would stitch), its Dirichlet dofs and their profile (``[gu; gp]``, ``gu``, ``gp``, or
        empty for ``mass``).  The (p, p) block is the one form ``c_p*M + K*dt*S``,
        summed entry by entry on the P1 pattern that M and S share."""
        p = self.params
        M = self.mass.tocoo()
        if name == "mass":
            return M, np.array([], dtype=np.int64), np.zeros(0)
        reaction = COO(M.shape, M.row, M.col, p.c_p * M.data + p.K * p.dt * self.stiffness.data)
        if name == "pressure":
            return reaction, self.bd_p, self.gp_profile
        E, B = self.elasticity.tocoo(), self.div_coupling.tocoo()
        stokes = [[2 * p.mu * E, -B], [-B.T, -(1 / p.lam) * M]]
        if name == "stokes":
            return bmat(stokes), self.bd_u, self.gu_profile
        if name == "coupled":
            A = bmat([stokes[0] + [None], stokes[1] + [p.c_xi * M],
                      [None, p.c_xi * M, -reaction]])
            return (A, np.concatenate([self.bd_u, self.offsets[2] + self.bd_p]),
                    np.concatenate([self.gu_profile, self.gp_profile]))
        raise ValueError(f"unknown block system {name!r}")

    def solve(self, name: str, b: np.ndarray, t: float) -> np.ndarray:
        """Solve the ``coupled``, ``stokes``, ``pressure`` or ``mass`` system for
        the raw right-hand side ``b`` at time ``t``: the Dirichlet values are the
        block's profile (see ``_block``) times ``time_factor(t)``.

        The first solve builds the raw block with ``_block``, keeps its
        Dirichlet dofs, columns and profile in ``_boundary`` and eliminates it
        straight into its factor order (``discretization.orders``), as the CSR
        that is factored; the raw block is dropped before the factorization, so
        the factored matrix, kept for the residuals, is the one copy.  Each
        solve moves the known values through those columns, pins them, gathers
        the result into the factor order, solves there and scatters it back.
        """
        order = self.discretization.orders[name]
        if name not in self.factors:
            A, dofs, profile = self._block(name)
            self._boundary[name] = dofs, dirichlet_columns(A, dofs), profile
            constrained = constrain_matrix(A, dofs, order)
            del A
            self.factors[name] = lu_factor(constrained)
        dofs, columns, profile = self._boundary[name]
        values = self.loads.time_factor(t) * profile
        b = b - columns.rmatvec(values)
        b[dofs] = values
        y, residual = self.factors[name].solve(b.take(order))
        self.max_residual = float(np.maximum(self.max_residual, residual))  # NaN sticks
        x = np.empty_like(y)
        x[order] = y
        return x

    # -- norms and diagnostics --------------------------------------------

    def l2_p1(self, values: np.ndarray) -> float:
        """L2 norm of a P1 coefficient vector."""
        return float(np.sqrt(max(inner(values, self.mass @ values), 0.0)))

    def strain_norm(self, u_values: np.ndarray) -> float:
        """L2 norm of the symmetric gradient of a vector coefficient field."""
        return float(np.sqrt(max(inner(u_values, self.elasticity @ u_values), 0.0)))

    def project_total_pressure(self, u_values: np.ndarray,
                               p_values: np.ndarray) -> np.ndarray:
        """xi = alpha*p - lam*Pi(div u) with Pi the L2 projection onto P1.

        This makes the mass-balance constraint equation hold exactly at the
        initial level, which the discrete energy identity requires.
        """
        p = self.params
        rhs = p.alpha * (self.mass @ p_values) - p.lam * self.div_coupling.rmatvec(u_values)
        return self.solve("mass", rhs, 0.0)

    # -- shared right-hand-side pieces ------------------------------------

    def _pressure_rhs_base(self, state: BiotState, t: float) -> np.ndarray:
        """dt*(Q_s + g2 terms) + c_p*M p_prev - c_xi*M xi_prev."""
        p = self.params
        return (p.dt * self.loads.time_factor(t) * self.fq_profile + p.c_p * (self.mass @ state.p)
                - p.c_xi * (self.mass @ state.xi))


def _nodal_values(space: Space, g, dofs: np.ndarray) -> np.ndarray:
    """The nodal interpolant of a ``g(x, y)`` profile at ``dofs``; zeros if g is None."""
    return np.zeros(len(dofs)) if g is None else interpolate(space, g)[dofs]


build_system = DiscreteSystem  # the name that studies call, so a profiler can rebind it


def step_coupled(sys: DiscreteSystem, state: BiotState) -> BiotState:
    """One backward-Euler step of the monolithic three-field system."""
    t = state.t + sys.params.dt
    b = np.concatenate([sys.loads.time_factor(t) * sys.fu_profile,
                        np.zeros(sys.offsets[2] - sys.offsets[1]),
                        -sys._pressure_rhs_base(state, t)])
    u, xi, p = np.split(sys.solve("coupled", b, t), sys.offsets[1:3])
    return BiotState(u, xi, p, t)


def _solve_stokes(sys: DiscreteSystem, p_values: np.ndarray, t: float):
    """Generalized Stokes solve for (u, xi) given a pressure field."""
    b = np.concatenate([sys.loads.time_factor(t) * sys.fu_profile,
                        -sys.params.c_xi * (sys.mass @ p_values)])
    return np.split(sys.solve("stokes", b, t), [sys.offsets[1]])


def _solve_pressure(sys: DiscreteSystem, state: BiotState, xi: np.ndarray,
                    t: float) -> np.ndarray:
    """Reaction-diffusion solve for p of the step after ``state`` given a
    total-pressure field."""
    return sys.solve("pressure",
                     sys._pressure_rhs_base(state, t) + sys.params.c_xi * (sys.mass @ xi), t)


def step_te_decoupled(sys: DiscreteSystem, state: BiotState) -> BiotState:
    """One time-extrapolated decoupled step: Stokes with the lagged pressure,
    then the reaction-diffusion update with the fresh total pressure."""
    t = state.t + sys.params.dt
    u, xi = _solve_stokes(sys, state.p, t)
    return BiotState(u, xi, _solve_pressure(sys, state, xi, t), t)


def check_iteration_settings(iters: int | None, tol: float | None) -> None:
    """Require exactly one of a count ``iters >= 1`` or a tolerance ``0 < tol < inf``."""
    if (iters is None) == (tol is None):
        raise ValueError("give exactly one of iters or tol")
    if iters is not None and iters < 1:
        raise ValueError(f"iteration count must be >= 1, got {iters}")
    if tol is not None and not 0.0 < tol < math.inf:
        raise ValueError(f"tolerance must be positive and finite, got {tol}")


#: Sweep budget of one step in ``tol`` mode.
MAX_SWEEPS = 500


def step_iterative(sys: DiscreteSystem, state: BiotState, iters: int | None = None,
                   tol: float | None = None):
    """One time step of the iteratively decoupled algorithm.

    Alternates the SPD pressure solve (source term (alpha/lam)*(xi_prev_iter -
    xi_prev_step)) with the Stokes solve, starting from the previous time
    level.  Exactly one of ``iters`` (fixed count) or ``tol`` (stop when the
    total-pressure increment drops below it, within ``MAX_SWEEPS`` sweeps)
    must be given; ``tol`` mode raises ``ConvergenceFailure`` when the budget
    runs out or an increment is not finite.

    Returns (state_n, increments) where increments[i] is the L2 norm of
    xi^{n,i+1} - xi^{n,i}.
    """
    check_iteration_settings(iters, tol)
    it_state = state
    increments: list[float] = []
    for _ in range(iters if iters is not None else MAX_SWEEPS):
        xi_i = it_state.xi
        it_state = sweep(sys, state, xi_i)
        increments.append(sys.l2_p1(it_state.xi - xi_i))
        if tol is not None and not math.isfinite(increments[-1]):
            raise ConvergenceFailure(
                f"decoupling increment is not finite ({increments[-1]}) at "
                f"iteration {len(increments)}", increments)
        if tol is not None and increments[-1] <= tol:
            break
    else:
        if tol is not None:
            raise ConvergenceFailure(
                f"decoupling iteration did not reach tol={tol:g} within "
                f"{MAX_SWEEPS} iterations", increments)
    return it_state, increments


def sweep(sys: DiscreteSystem, state: BiotState, xi: np.ndarray) -> BiotState:
    """One split sweep of the step after ``state``, from the total-pressure
    iterate ``xi``: the te step's two half-steps in the other order."""
    t = state.t + sys.params.dt
    p = _solve_pressure(sys, state, xi, t)
    u, xi = _solve_stokes(sys, p, t)
    return BiotState(u, xi, p, t)


class ConvergenceFailure(RuntimeError):
    """Tol-mode iteration ran out of budget or met a non-finite increment;
    carries the increment history."""

    def __init__(self, message, history):
        super().__init__(message)
        self.history = history


#: Algorithm name -> one time step as ``(sys, state, iters, tol) -> state``.
#: Each entry looks its stepper up when called, so rebinding ``step_coupled``
#: and its siblings on this module reaches ``advance`` too.
STEPPERS = {
    "coupled": lambda sys, state, iters, tol: step_coupled(sys, state),
    "te": lambda sys, state, iters, tol: step_te_decoupled(sys, state),
    "iterative": lambda sys, state, iters, tol: step_iterative(
        sys, state, iters=iters, tol=tol)[0],
}


def advance(sys: DiscreteSystem, state: BiotState, num_steps: int,
            algorithm: str, iters: int | None = None,
            tol: float | None = None, keep_states: bool = False):
    """March ``num_steps`` steps; returns the final state (and all states if asked)."""
    if algorithm not in STEPPERS:
        raise ValueError(f"unknown algorithm {algorithm!r} (have {tuple(STEPPERS)})")
    step = STEPPERS[algorithm]
    states = [state]
    for _ in range(num_steps):
        state = step(sys, state, iters, tol)
        if keep_states:
            states.append(state)
    return states if keep_states else state


# ---------------------------------------------------------------------------
# analysis checks: contraction of the split iteration, energy law, Korn-type
# divergence bound
# ---------------------------------------------------------------------------

@dataclass
class ContractionReport:
    """Per-iteration errors of the split iteration against the coupled oracle."""

    rho: float                    # (alpha^2/lam) / (c0 + alpha^2/lam)
    xi_errors: np.ndarray         # ||xi^{n,i} - xi^n||, i = 0..imax
    p_errors: np.ndarray          # ||p^{n,i} - p^n||, i = 1..imax
    strain_errors: np.ndarray     # ||eps(u^{n,i} - u^n)||, i = 1..imax
    mu: float
    alpha: float
    scale: float                  # ||xi^n||, sets the solver-noise floor

    @property
    def floor(self) -> float:
        """Noise floor of the direct solves: no xi error is measured below it."""
        return max(1e-13 * self.scale, 1e-300)

    @property
    def ratios(self) -> np.ndarray:
        """xi_errors[i] / xi_errors[i-1] while xi_errors[i-1] is above the floor."""
        e = self.xi_errors
        with np.errstate(divide="ignore", invalid="ignore"):
            return (e[1:] / e[:-1])[e[:-1] > self.floor]

    @property
    def max_ratio(self) -> float:
        return float(self.ratios.max()) if len(self.ratios) else 0.0

    def pressure_bound_ok(self) -> bool:
        """||e_p^i|| <= (rho/alpha) ||e_xi^{i-1}|| per iteration."""
        bound = (self.rho / self.alpha) * self.xi_errors[:-1]
        return bool(np.all(self.p_errors <= bound * (1 + 1e-9) + 1e-12 * self.scale))

    def strain_bound_ok(self) -> bool:
        """||eps(e_u^i)|| <= sqrt(2)/(2 mu) ||e_xi^i|| per iteration."""
        bound = (np.sqrt(2.0) / (2.0 * self.mu)) * self.xi_errors[1:]
        return bool(np.all(self.strain_errors <= bound * (1 + 1e-9) + 1e-12 * self.scale))


def contraction_monitor(sys: DiscreteSystem, state: BiotState,
                        imax: int = 25) -> ContractionReport:
    """Run the split iteration for one step and measure its errors.

    The coupled solve of the same step is the oracle; errors are L2 norms of
    iterate minus oracle.  The iteration starts from the previous time level,
    as the algorithm prescribes.
    """
    p = sys.params
    reference = step_coupled(sys, state)
    xi_errors = [sys.l2_p1(state.xi - reference.xi)]
    p_errors, strain_errors = [], []
    it_state = state
    for _ in range(imax):
        it_state = sweep(sys, state, it_state.xi)
        xi_errors.append(sys.l2_p1(it_state.xi - reference.xi))
        p_errors.append(sys.l2_p1(it_state.p - reference.p))
        strain_errors.append(sys.strain_norm(it_state.u - reference.u))
    return ContractionReport(rho=p.contraction_factor, xi_errors=np.array(xi_errors),
                             p_errors=np.array(p_errors), strain_errors=np.array(strain_errors),
                             mu=p.mu, alpha=p.alpha, scale=sys.l2_p1(reference.xi))


@dataclass
class EnergyReport:
    """Discrete energy balance J^l + S^l = J^0 along a coupled trajectory."""

    J: np.ndarray        # J[l], l = 0..N
    S: np.ndarray        # S[l], cumulative, S[0] = 0
    defects: np.ndarray  # |J[l] + S[l] - J[0]| / (|J[0]| + 1), l = 0..N

    @property
    def max_defect(self) -> float:
        return float(self.defects.max())


def energy_check(sys: DiscreteSystem, states: list[BiotState]) -> EnergyReport:
    """Evaluate the discrete energy identity along a trajectory.

    The identity is exact (up to solver residual) for trajectories produced
    by ``step_coupled`` with homogeneous Dirichlet data, time-independent
    loads, and an initial state whose total pressure satisfies the projected
    constraint (see ``DiscreteSystem.project_total_pressure``).

    J^l  = E(u^l, d^l, p^l) - (f, u^l) - <h, u^l>,  with d = alpha p - xi
    S^l  = dt * sum_{n<=l} [ dt E(d_t u^n, d_t d^n, d_t p^n)
           + K ||grad p^n||^2 - (Q_s, p^n) - <g2, p^n> ]
    E(u, d, p) = mu ||eps u||^2 + 1/(2 lam) ||d||^2 + c0/2 ||p||^2, the one form of both
    """
    p = sys.params

    def energy(u, d, q) -> float:
        return (p.mu * inner(u, sys.elasticity @ u) + 0.5 / p.lam * inner(d, sys.mass @ d)
                + 0.5 * p.c0 * inner(q, sys.mass @ q))

    Js = np.array([energy(s.u, p.alpha * s.p - s.xi, s.p)
                   - sys.loads.time_factor(s.t) * inner(sys.fu_profile, s.u) for s in states])
    S = np.zeros(len(states))
    total = 0.0
    for n in range(1, len(states)):
        cur, prev = states[n], states[n - 1]
        dissipation = energy((cur.u - prev.u) / p.dt,
                             (p.alpha * cur.p - cur.xi - p.alpha * prev.p + prev.xi) / p.dt,
                             (cur.p - prev.p) / p.dt)
        total += p.dt * (p.dt * dissipation
                         + p.K * inner(cur.p, sys.stiffness @ cur.p)
                         - sys.loads.time_factor(cur.t) * inner(sys.fq_profile, cur.p))
        S[n] = total
    defects = np.abs(Js + S - Js[0]) / (abs(Js[0]) + 1.0)
    return EnergyReport(J=Js, S=S, defects=defects)


def korn_check(sys: DiscreteSystem, num_fields: int = 1000, seed: int = 0):
    """Check ||div u_h|| <= sqrt(2) ||eps(u_h)|| over random coefficient fields.

    Returns (max_ratio, violations): the largest measured ||div|| / ||eps||
    and how many fields broke the bound beyond ``1e-12 * ||eps(u_h)||``.
    """
    rng = np.random.default_rng(seed)
    div_div = assemble_form(DIV_DIV, sys.V, sys.V)
    bound = np.sqrt(2.0)
    max_ratio, violations = 0.0, 0
    for _ in range(num_fields):
        u = rng.standard_normal(sys.V.num_dofs)
        dn = float(np.sqrt(max(inner(u, div_div @ u), 0.0)))
        en = sys.strain_norm(u)
        if en == 0.0:
            continue
        max_ratio = max(max_ratio, dn / en)
        if dn > bound * en + 1e-12 * en:
            violations += 1
    return max_ratio, violations
