"""Implicit time stepping of the coupled invasion system.

Each time step advances (u, c, p) by a blended explicit/implicit one-step
scheme and decouples the three equations with a relaxed fixed-point sweep:

  (a) solve for the new u with the previous sweep's c and u in the drift and
      logistic terms,
  (b) solve for the new c with the previous sweep's p in the degradation term,
  (c) solve for the new p with the just-computed u and c in the production term,
  (d) stop when all three l2 coefficient increments fall below tol_fp,
  (e) otherwise blend each iterate with its predecessor by the relaxation
      factor beta and sweep again.

Mass and stiffness matrices are assembled once per mesh; the coefficient-
dependent matrices and load vectors are reassembled every sweep.  Non-finite
iterates or magnitudes beyond the blowup threshold terminate the run
gracefully with a :class:`BreakdownReport`; exceeding the sweep budget raises
:class:`NonconvergenceError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import fem, linsolve
from .iocfg import RunConfig
from .linsolve import CsrMatrix
from .mesh import FeField, StructuredMesh
from .model import Parameters, SimState, interpolate_initial_state


class StepError(RuntimeError):
    """A linear solve failed inside a time step.

    Raised from :func:`simulate`, ``records`` holds the diagnostics of the
    steps committed before the failure.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report
        self.records: list[StepRecord] = []


class NonconvergenceError(RuntimeError):
    """The fixed-point sweep exhausted its iteration budget.

    Raised from :func:`simulate`, ``records`` holds the diagnostics of the
    steps committed before the failure.
    """

    def __init__(self, message, time, residual_history):
        super().__init__(message)
        self.time = time
        self.residual_history = residual_history
        self.records: list[StepRecord] = []


@dataclass(frozen=True)
class BreakdownReport:
    """Why and where a run stopped early."""

    time: float
    iteration: int
    field: str
    reason: str
    magnitude: float


@dataclass(frozen=True)
class FixedPointReport:
    """Outcome of one fixed-point sweep sequence."""

    iterations: int
    residuals: tuple[float, float, float]
    converged: bool
    breakdown: BreakdownReport | None = None


@dataclass(frozen=True)
class StepRecord:
    """Per-step diagnostics row."""

    time: float
    max_u: float
    min_u: float
    max_c: float
    min_c: float
    max_p: float
    min_p: float
    mass_u: float
    mass_c: float
    mass_p: float
    fp_iters: int
    breakdown: int
    warnings: tuple[str, ...] = ()


@dataclass
class RunResult:
    """Final state, per-step diagnostics, snapshots, optional breakdown."""

    state: SimState
    diagnostics: list[StepRecord]
    snapshots: list[tuple[float, SimState]]
    breakdown: BreakdownReport | None = None


class Operators:
    """Mesh-bound discrete operators shared by all steps of a run."""

    def __init__(self, mesh: StructuredMesh):
        self.mesh = mesh
        self.plan = fem.AssemblyPlan(mesh)
        self.mass = fem.assemble_mass(mesh, self.plan)
        self.stiffness = fem.assemble_stiffness(mesh, self.plan)
        # integral of each basis function; masses are dot products with this
        self.mass_vector = self.mass.matvec(np.ones(mesh.n_nodes))
        self._scaled_mass = None

    @cached_property
    def mass_inverse(self):
        """b -> M^-1 b, built on first use rather than with the operators."""
        return fem.mass_inverse(self.mesh)

    def scaled_mass(self, factor) -> CsrMatrix:
        """factor * M, held for the last factor asked for, so that the
        constant protease matrix and its scipy form are built once per run."""
        if self._scaled_mass is None or self._scaled_mass[0] != factor:
            m = self.mass
            self._scaled_mass = (
                factor, CsrMatrix(m.n, m.indptr, m.indices, factor * m.data)
            )
        return self._scaled_mass[1]

    def weighted_mass(self, w) -> CsrMatrix:
        return fem.assemble_weighted_mass(self.mesh, w, self.plan)

    def haptotaxis(self, c) -> CsrMatrix:
        return fem.assemble_haptotaxis(self.mesh, c, self.plan)

    def product_load(self, a, b) -> np.ndarray:
        return fem.assemble_product_load(self.mesh, a, b, self.plan)


def _u_system_matrix(ops, params, u_coeffs, c_coeffs, dt_factor) -> CsrMatrix:
    """M +- dtf * ((1/alpha) K - chi B(c) - mu (M - W(u))) with dtf = theta*dt
    on the implicit side and -(1-theta)*dt on the explicit side."""
    terms = [(1.0, ops.mass), (dt_factor / params.alpha, ops.stiffness)]
    if params.chi != 0.0:
        terms.append((-dt_factor * params.chi, ops.haptotaxis(c_coeffs)))
    if params.mu != 0.0:
        terms.append((-dt_factor * params.mu, ops.mass))
        terms.append((dt_factor * params.mu, ops.weighted_mass(u_coeffs)))
    return linsolve.combine(terms)


def _c_system_matrix(ops, params, p_coeffs, dt_factor) -> CsrMatrix:
    if dt_factor == 0.0:
        return ops.mass
    return linsolve.combine(
        [(1.0, ops.mass), (dt_factor, ops.weighted_mass(p_coeffs))]
    )


def step_u(u_prev, c_prev, u_iter, c_iter, params: Parameters, ops: Operators) -> FeField:
    """One linearized solve for the new cell density.

    ``u_prev, c_prev`` are the committed fields of the previous time level;
    ``u_iter, c_iter`` the current fixed-point iterates entering the drift
    and logistic terms.
    """
    for f in (u_prev, c_prev, u_iter, c_iter):
        if f.mesh is not ops.mesh:
            raise ValueError("fields must live on the operator mesh")
    rhs = _u_rhs(ops, params, u_prev.coeffs, c_prev.coeffs)
    return FeField(
        ops.mesh,
        _u_solve(ops, params, u_iter.coeffs, c_iter.coeffs, rhs, x0=u_prev.coeffs),
    )


def _u_rhs(ops, params, un, cn) -> np.ndarray:
    if params.theta == 1.0:  # no explicit contribution
        return ops.mass.matvec(un)
    rhs_matrix = _u_system_matrix(ops, params, un, cn, -(1.0 - params.theta) * params.dt)
    return rhs_matrix.matvec(un)


def _u_solve(ops, params, u_it, c_it, rhs, x0=None) -> np.ndarray:
    lhs = _u_system_matrix(ops, params, u_it, c_it, params.theta * params.dt)
    return _solve(lhs, rhs, params, x0=x0)


def step_c(c_prev, p_prev, p_iter, params: Parameters, ops: Operators) -> FeField:
    """One solve for the new matrix density, with the protease iterate frozen."""
    for f in (c_prev, p_prev, p_iter):
        if f.mesh is not ops.mesh:
            raise ValueError("fields must live on the operator mesh")
    rhs = _c_rhs(ops, params, c_prev.coeffs, p_prev.coeffs)
    return FeField(
        ops.mesh, _c_solve(ops, params, p_iter.coeffs, rhs, x0=c_prev.coeffs)
    )


def _c_rhs(ops, params, cn, pn) -> np.ndarray:
    if params.theta == 1.0:
        return ops.mass.matvec(cn)
    rhs_matrix = _c_system_matrix(ops, params, pn, -(1.0 - params.theta) * params.dt)
    return rhs_matrix.matvec(cn)


def _c_solve(ops, params, p_it, rhs, x0=None) -> np.ndarray:
    lhs = _c_system_matrix(ops, params, p_it, params.theta * params.dt)
    # M + theta dt W(p) is mass-dominated: M^-1 preconditions it on the Krylov path
    return _solve(lhs, rhs, params, x0=x0, precond=ops.mass_inverse)


def step_p(p_prev, u_prev, c_prev, u_iter, c_iter, params: Parameters, ops: Operators) -> FeField:
    """One solve for the new protease level from the production balance."""
    for f in (p_prev, u_prev, c_prev, u_iter, c_iter):
        if f.mesh is not ops.mesh:
            raise ValueError("fields must live on the operator mesh")
    rhs = _p_rhs_const(ops, params, p_prev.coeffs, u_prev.coeffs, c_prev.coeffs)
    return FeField(
        ops.mesh,
        _p_solve(ops, params, u_iter.coeffs, c_iter.coeffs, rhs, x0=p_prev.coeffs),
    )


def _p_rhs_const(ops, params, pn, un, cn) -> np.ndarray:
    """The part of the protease right-hand side frozen within a time step."""
    inv_eps = 1.0 / params.epsilon
    explicit = (1.0 - params.theta) * params.dt * inv_eps
    rhs = (1.0 - explicit) * ops.mass.matvec(pn)
    if explicit != 0.0:
        rhs = rhs + explicit * ops.product_load(un, cn)
    return rhs


def _p_solve(ops, params, u_it, c_it, rhs_const, x0=None) -> np.ndarray:
    inv_eps = 1.0 / params.epsilon
    implicit = params.theta * params.dt * inv_eps
    rhs = rhs_const
    if implicit != 0.0:
        rhs = rhs + implicit * ops.product_load(u_it, c_it)
    scale = 1.0 + implicit
    # the scaled mass matrix is symmetric positive definite, and its inverse
    # is known exactly
    return _solve(
        ops.scaled_mass(scale), rhs, params, x0=x0, spd=True,
        inverse=lambda b: ops.mass_inverse(b) / scale,
    )


def _solve(lhs, rhs, params, **kwargs) -> np.ndarray:
    try:
        return linsolve.solve(lhs, rhs, tol_lin=params.tol_lin, **kwargs)
    except linsolve.SolverFailure as exc:
        raise StepError(f"linear solve failed: {exc}") from exc


def _check_blowup(coeffs, name, params, time, iteration) -> BreakdownReport | None:
    if not np.isfinite(coeffs).all():
        return BreakdownReport(time, iteration, name, "non-finite values", float("nan"))
    magnitude = float(np.max(np.abs(coeffs))) if coeffs.size else 0.0
    if magnitude > params.blowup_threshold:
        return BreakdownReport(
            time, iteration, name,
            f"magnitude {magnitude:.3e} exceeds blowup threshold", magnitude,
        )
    return None


def fixed_point_advance(
    state: SimState, params: Parameters, ops: Operators, backtrack: bool = False
) -> tuple[SimState, FixedPointReport]:
    """Advance one time step with the relaxed fixed-point sweep.

    Returns the committed state and a report.  On breakdown the report
    carries a :class:`BreakdownReport` and the returned state holds the
    offending iterates flagged as artifacts.  ``backtrack=True`` starts at
    relaxation 1 and halves it whenever the residual grows.
    """
    un, cn, pn = state.u.coeffs, state.c.coeffs, state.p.coeffs
    t_new = state.t + params.dt

    rhs_u = _u_rhs(ops, params, un, cn)
    rhs_c = _c_rhs(ops, params, cn, pn)
    rhs_p_const = _p_rhs_const(ops, params, pn, un, cn)

    u_old, c_old, p_old = un, cn, pn  # sweep iterates, start at the old level
    warm_u, warm_c, warm_p = un, cn, pn  # raw solutions of the previous sweep
    beta = 1.0 if backtrack else params.beta
    history: list[tuple[float, float, float]] = []

    for k in range(1, int(params.max_fp_iters) + 1):
        try:
            u_new = _u_solve(ops, params, u_old, c_old, rhs_u, x0=warm_u)
            c_new = _c_solve(ops, params, p_old, rhs_c, x0=warm_c)
            p_new = _p_solve(ops, params, u_new, c_new, rhs_p_const, x0=warm_p)
        except fem.AssemblyError as exc:
            # iterates went non-finite between checks
            report = BreakdownReport(t_new, k, "iterate", str(exc), float("nan"))
            return _breakdown_state(state, t_new, u_old, c_old, p_old), FixedPointReport(
                k, history[-1] if history else (np.inf,) * 3, False, report
            )

        for name, vec in (("u", u_new), ("c", c_new), ("p", p_new)):
            report = _check_blowup(vec, name, params, t_new, k)
            if report is not None:
                return (
                    _breakdown_state(state, t_new, u_new, c_new, p_new),
                    FixedPointReport(
                        k, history[-1] if history else (np.inf,) * 3, False, report
                    ),
                )

        residuals = (
            float(np.linalg.norm(u_new - u_old)),
            float(np.linalg.norm(c_new - c_old)),
            float(np.linalg.norm(p_new - p_old)),
        )
        history.append(residuals)
        if max(residuals) < params.tol_fp:
            committed = SimState(
                t_new,
                FeField(ops.mesh, u_new),
                FeField(ops.mesh, c_new),
                FeField(ops.mesh, p_new),
            )
            return committed, FixedPointReport(k, residuals, True)

        warm_u, warm_c, warm_p = u_new, c_new, p_new
        # a plateau counts as failure to contract, so shrink on non-decrease
        if backtrack and len(history) > 1 and max(residuals) >= max(history[-2]):
            beta = 0.5 * beta
        u_old = beta * u_new + (1.0 - beta) * u_old
        c_old = beta * c_new + (1.0 - beta) * c_old
        p_old = beta * p_new + (1.0 - beta) * p_old

    raise NonconvergenceError(
        f"fixed-point sweep did not converge within {params.max_fp_iters} iterations "
        f"at t = {t_new} (last residuals {history[-1]})",
        t_new,
        history,
    )


def _breakdown_state(state, t_new, u, c, p) -> SimState:
    mesh = state.mesh
    return SimState(
        t_new,
        FeField(mesh, u, breakdown=True),
        FeField(mesh, c, breakdown=True),
        FeField(mesh, p, breakdown=True),
    )


def _record(state: SimState, ops: Operators, fp_iters: int, breakdown: int,
            warnings=()) -> StepRecord:
    masses = [
        float(np.dot(ops.mass_vector, f.coeffs)) for f in (state.u, state.c, state.p)
    ]
    extrema = []
    for f in (state.u, state.c, state.p):
        extrema.append(float(f.coeffs.max()))
        extrema.append(float(f.coeffs.min()))
    return StepRecord(
        state.t, *extrema, *masses, fp_iters, breakdown, tuple(warnings)
    )


def step_warnings(prev: SimState, new: SimState, params: Parameters) -> tuple[str, ...]:
    """Monitor flags for one committed step.

    * ``oscillation:<field>`` -- nodal undershoot below -1e-10; the continuous
      solution is nonnegative but the scheme does not enforce it.
    * ``c-max-increase`` -- the matrix maximum grew by more than 10*tol_fp
      although the protease stayed nonnegative; the continuous matrix density
      cannot exceed its running maximum under nonnegative protease.
    """
    flags = []
    for name, f in (("u", new.u), ("c", new.c), ("p", new.p)):
        if float(f.coeffs.min()) < -1e-10:
            flags.append(f"oscillation:{name}")
    p_nonneg = float(prev.p.coeffs.min()) >= 0.0 and float(new.p.coeffs.min()) >= 0.0
    if p_nonneg and float(new.c.coeffs.max()) > float(prev.c.coeffs.max()) + 10.0 * params.tol_fp:
        flags.append("c-max-increase")
    return tuple(flags)


def simulate(
    state0: SimState,
    params: Parameters,
    snapshot_times=(),
    ops: Operators | None = None,
    backtrack: bool = False,
    on_step=None,
) -> RunResult:
    """Run the time loop from an interpolated initial state.

    Snapshot times must land on step boundaries.  Diagnostics are recorded
    for the initial state and every completed step (diagnostics row ``n``
    belongs to step ``n``); on breakdown the partial results are returned
    together with the report.  A :class:`NonconvergenceError` or
    :class:`StepError` carries the records of the steps committed before it.
    ``on_step(step_index, state)``, when given, is called after every
    committed step.
    """
    ops = ops or Operators(state0.mesh)
    n_steps = int(round(params.t_final / params.dt))
    if abs(n_steps * params.dt - params.t_final) > 1e-9 * max(1.0, params.t_final):
        raise ValueError(
            f"t_final = {params.t_final} is not a whole number of steps of dt = {params.dt}"
        )
    snapshot_steps = {}
    for t in snapshot_times:
        step = int(round(t / params.dt))
        if abs(step * params.dt - t) > 1e-9 * max(1.0, abs(t)):
            raise ValueError(f"snapshot time {t} does not land on a step boundary")
        snapshot_steps[step] = t

    state = state0
    records = [_record(state, ops, 0, 0)]
    snapshots = []
    if 0 in snapshot_steps:
        snapshots.append((state.t, state.copy()))

    for n in range(1, n_steps + 1):
        try:
            new_state, report = fixed_point_advance(state, params, ops, backtrack=backtrack)
        except (NonconvergenceError, StepError) as exc:
            exc.records = records
            raise
        new_state.t = state0.t + n * params.dt  # drift-free step times
        if report.breakdown is not None:
            records.append(
                _record(new_state, ops, report.iterations, 1, ("breakdown",))
            )
            return RunResult(new_state, records, snapshots, report.breakdown)
        flags = step_warnings(state, new_state, params)
        records.append(_record(new_state, ops, report.iterations, 0, flags))
        if n in snapshot_steps:
            snapshots.append((new_state.t, new_state.copy()))
        if on_step is not None:
            on_step(n, new_state)
        state = new_state

    return RunResult(state, records, snapshots, None)


def run(config: RunConfig, backtrack: bool = False, on_step=None) -> RunResult:
    """Build the mesh and initial state from a config, then simulate."""
    mesh = config.build_mesh()
    state0 = interpolate_initial_state(config.initial_data(), mesh)
    return simulate(
        state0,
        config.params,
        snapshot_times=config.snapshots,
        backtrack=backtrack,
        on_step=on_step,
    )
