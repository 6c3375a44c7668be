"""Implicit time stepping of the coupled invasion system.

Each time step advances (u, c, p) by a blended explicit/implicit one-step
scheme and decouples the three equations with a fixed-point sweep.  One
sweep maps the iterate x = (u, c, p) to g(x):

  (a) solve for the new c with the iterate's p in the degradation term,
  (b) solve for the new u with the iterate's u in the logistic term and the
      just-computed c in the drift term,
  (c) solve for the new p with the just-computed u and c in the production term,
  (d) stop when all three l2 increments of f = g(x) - x fall below tol_fp and
      commit g(x), the raw output of the sweep,
  (e) otherwise take the next iterate and sweep again.  The first update is
      the relaxed step x + beta f; every later update is Anderson mixing of
      depth ANDERSON_DEPTH (Walker & Ni, SIAM J. Numer. Anal. 49(4), 2011):
      x = g - dG gamma, where gamma minimises |f - dF gamma| over the last
      ANDERSON_DEPTH differences dF, dG of the residuals f and the outputs g.
      The mixing keeps the fixed points of the sweep.

The first step starts the iterate and the warm starts of its first sweep
at the old level.  Every later step starts them at the linear extrapolation
2 x^n - x^(n-1) of the last two committed levels, a first-order better
guess (Hairer & Wanner, Solving ODEs II, 2nd ed., 1996, sec. IV.8).  The
explicit parts come from the old level either way, so the start changes
how many sweeps a step takes and, within tol_fp, which iterate it commits,
but not the fixed point.

The order c, u, p is the block nonlinear Gauss-Seidel order (Ortega &
Rheinboldt, Iterative Solution of Nonlinear Equations in Several Variables,
1970, sec. 7.4): c depends only on p, so u can use the c of the same sweep,
which saves sweeps where the drift couples u to c.  Its fixed points are
the solutions of the step's coupled equations.

Mass and stiffness matrices are assembled once per mesh; the coefficient-
dependent matrices and load vectors are reassembled every sweep.  The u
system is built in one array: it starts as (dtf/alpha) K, and the last axis
step of W and of B adds each form into its diagonals.  The protease system
is M itself, with the right-hand side divided by its scale.  The banded
LU factors of the u and c systems are kept from sweep to sweep and step to
step: a solve refines its warm start with them and factors its matrix only
when they no longer fit it (see :class:`haptosim.linsolve.BandLU`).  Non-finite
iterates or magnitudes beyond the blowup threshold terminate the run
gracefully with a :class:`BreakdownReport`; exceeding the sweep budget raises
:class:`NonconvergenceError`.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import lapack

from . import fem, linsolve
from .iocfg import RunConfig
from .linsolve import DiaMatrix
from .mesh import FeField, StructuredMesh
from .model import Parameters, SimState, interpolate_initial_state

ANDERSON_DEPTH = 5  # the differences that each Anderson update mixes


class StepError(RuntimeError):
    """A linear solve failed inside a time step.

    Raised from :func:`simulate`, ``records`` holds the diagnostics of the
    steps committed before the failure and ``state`` the last committed state.
    """

    def __init__(self, message):
        super().__init__(message)
        self.records: list[StepRecord] = []
        self.state: SimState | None = None


class NonconvergenceError(RuntimeError):
    """The fixed-point sweep exhausted its iteration budget.

    Raised from :func:`simulate`, ``records`` holds the diagnostics of the
    steps committed before the failure and ``state`` the last committed state.
    """

    def __init__(self, message, time, residual_history):
        super().__init__(message)
        self.time = time
        self.residual_history = residual_history
        self.records: list[StepRecord] = []
        self.state: SimState | None = None


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
    converged: bool
    breakdown: BreakdownReport | None = None
    history: tuple[tuple[float, float, float], ...] = ()  # residuals per sweep


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
    sweep_residuals: tuple[tuple[float, float, float], ...] = ()
    band_factorizations: tuple[int, int] = (0, 0)  # banded LUs of the u, c systems
    band_substitutions: tuple[int, int] = (0, 0)  # their solves from band factors


@dataclass
class RunResult:
    """Final state, per-step diagnostics, snapshots, optional breakdown."""

    state: SimState
    diagnostics: list[StepRecord]
    snapshots: list[tuple[float, SimState]]
    breakdown: BreakdownReport | None = None


class Operators:
    """Mesh-bound discrete operators shared by all steps of a run.

    Every matrix it holds or assembles is a :class:`DiaMatrix` with the
    offsets of its :class:`haptosim.fem.AssemblyPlan`, so the forms of the
    sweep's systems add into one another's diagonals.  The held mass and
    stiffness matrices are never written to.  It also holds the band factors
    of the u and c systems, so a run given the Operators of an earlier run
    starts from the factors that run left; its solves still meet tol_lin.
    """

    def __init__(self, mesh: StructuredMesh):
        self.mesh = mesh
        self.plan = fem.AssemblyPlan(mesh)
        self.mass = fem.assemble_mass(mesh, self.plan)
        self.stiffness = fem.assemble_stiffness(mesh, self.plan)
        # integral of each basis function; masses are dot products with this
        self.mass_vector = self.mass.matvec(np.ones(mesh.n_nodes))
        # the band factors of the u and c systems, kept from sweep to sweep
        self.u_band = linsolve.BandLU()
        self.c_band = linsolve.BandLU()

    @cached_property
    def mass_inverse(self):
        """b -> M^-1 b, built on first use rather than with the operators."""
        return fem.mass_inverse(self.plan)

    def band_counts(self) -> tuple[int, int, int, int]:
        """The banded LU factorizations of the u and c systems so far, then
        their solves from band factors."""
        u, c = self.u_band, self.c_band
        return u.factorizations, c.factorizations, u.substitutions, c.substitutions

    def weighted_mass(self, w, into: DiaMatrix | None = None) -> DiaMatrix:
        return fem.assemble_weighted_mass(self.mesh, w, self.plan, into)

    def haptotaxis(self, c, into: DiaMatrix | None = None) -> DiaMatrix:
        return fem.assemble_haptotaxis(self.mesh, c, self.plan, into)

    def product_load(self, a, b) -> np.ndarray:
        return fem.assemble_product_load(self.mesh, a, b, self.plan)


def _u_system_matrix(ops, params, u_coeffs, c_coeffs, dt_factor) -> DiaMatrix:
    """M +- dtf * ((1/alpha) K - chi B(c) - mu (M - W(u))) with dtf = theta*dt
    on the implicit side and -(1-theta)*dt on the explicit side.

    The mass terms fold into one weighted mass, M - dtf mu (M - W(u)) =
    W(1 + dtf mu (u - 1)): Q1 interpolates constants exactly and W is linear
    in its weight (mu > 0 in every :class:`Parameters`).  B is linear in c,
    so -dtf chi B(c) = B(-dtf chi c).  The matrix starts as (dtf/alpha) K,
    and the last axis step of each form adds W and B into its diagonals.
    """
    k = ops.stiffness
    system = DiaMatrix(k.n, k.offsets, (dt_factor / params.alpha) * k.data)
    ops.weighted_mass(1.0 + dt_factor * params.mu * (u_coeffs - 1.0), into=system)
    if params.chi != 0.0:
        ops.haptotaxis((-dt_factor * params.chi) * c_coeffs, into=system)
    return system


def _c_system_matrix(ops, params, p_coeffs, dt_factor) -> DiaMatrix:
    """M + dtf W(p) = W(1 + dtf p), as in :func:`_u_system_matrix`."""
    if dt_factor == 0.0:
        return ops.mass
    return ops.weighted_mass(1.0 + dt_factor * p_coeffs)


def _u_rhs(ops, params, un, cn) -> np.ndarray:
    if params.theta == 1.0:  # no explicit contribution
        return ops.mass.matvec(un)
    rhs_matrix = _u_system_matrix(ops, params, un, cn, -(1.0 - params.theta) * params.dt)
    return rhs_matrix.matvec(un)


def _u_solve(ops, params, u_it, c_it, rhs, x0=None) -> np.ndarray:
    lhs = _u_system_matrix(ops, params, u_it, c_it, params.theta * params.dt)
    return _solve(lhs, rhs, params, x0=x0, band=ops.u_band)


def _c_rhs(ops, params, cn, pn) -> np.ndarray:
    rhs_matrix = _c_system_matrix(ops, params, pn, -(1.0 - params.theta) * params.dt)
    return rhs_matrix.matvec(cn)


def _c_solve(ops, params, p_it, rhs, x0=None) -> np.ndarray:
    lhs = _c_system_matrix(ops, params, p_it, params.theta * params.dt)
    # M + theta dt W(p) is mass-dominated: M^-1 preconditions it on the Krylov path
    return _solve(lhs, rhs, params, x0=x0, precond=ops.mass_inverse, band=ops.c_band)


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
    # (1 + implicit) M p = rhs: M is symmetric positive definite, and its
    # inverse is known exactly
    return _solve(ops.mass, rhs / (1.0 + implicit), params, x0=x0, spd=True,
                  inverse=ops.mass_inverse)


def _solve(lhs, rhs, params, **kwargs) -> np.ndarray:
    try:
        return linsolve.solve(lhs, rhs, tol_lin=params.tol_lin, **kwargs)
    except linsolve.SolverFailure as exc:
        raise StepError(f"linear solve failed: {exc}") from exc


def _check_blowup(coeffs, name, params, time, iteration) -> BreakdownReport | None:
    # one reduction: a NaN or an infinity makes the largest magnitude non-finite
    magnitude = float(np.abs(coeffs).max(initial=0.0))
    if not math.isfinite(magnitude):
        return BreakdownReport(time, iteration, name, "non-finite values", float("nan"))
    if magnitude > params.blowup_threshold:
        return BreakdownReport(
            time, iteration, name,
            f"magnitude {magnitude:.3e} exceeds blowup threshold", magnitude,
        )
    return None


def fixed_point_advance(
    state: SimState, params: Parameters, ops: Operators, start=None
) -> tuple[SimState, FixedPointReport]:
    """Advance one time step with the fixed-point sweep.

    Each sweep solves c from the iterate's p, then u from the iterate's u
    and this c, then p from this u and c.  Each new c and u is checked for
    blowup before the next system is assembled from it.

    The first iterate, and the warm starts of the first sweep's solves, are
    ``start``, a stacked (u, c, p) vector that is only read, or the old level
    when it is None.  The explicit parts always come from the old level, so
    the step's fixed points do not depend on where the iterate starts.

    Returns the committed state and a report.  On breakdown the report
    carries a :class:`BreakdownReport` and the returned state holds the
    offending iterates flagged as artifacts.
    """
    un, cn, pn = _fields(state)
    t_new = state.t + params.dt

    history: list[tuple[float, float, float]] = []

    def stop(report, u, c, p):
        return (
            _breakdown_state(state, t_new, u, c, p),
            FixedPointReport(report.iteration, False, report, tuple(history)),
        )

    x = np.concatenate((un, cn, pn))  # the old level
    if not np.isfinite(x).all():  # an old state flagged as a breakdown artifact
        name = next(n for n, v in zip("ucp", (un, cn, pn)) if not np.isfinite(v).all())
        report = BreakdownReport(t_new, 1, name, "non-finite values in the old state",
                                 float("nan"))
        return stop(report, *_blocks(x))
    if start is not None:
        x = start
    u_old, c_old, p_old = _blocks(x)  # the sweep iterate
    # the warm starts: the first iterate, later the raw solutions of the previous sweep
    warm_u, warm_c, warm_p = u_old, c_old, p_old
    # rings of the last ANDERSON_DEPTH differences of the residuals f and the
    # outputs g; between sweeps, the slot that the next difference goes to
    # holds the last f and g
    d_f = np.empty((ANDERSON_DEPTH, x.size))
    d_g = np.empty((ANDERSON_DEPTH, x.size))

    for k in range(1, int(params.max_fp_iters) + 1):
        try:
            if k == 1:  # the explicit parts, frozen within the step
                rhs_u = _u_rhs(ops, params, un, cn)
                rhs_c = _c_rhs(ops, params, cn, pn)
                rhs_p_const = _p_rhs_const(ops, params, pn, un, cn)
            c_new = _c_solve(ops, params, p_old, rhs_c, x0=warm_c)
            # the u system is assembled from this c: a c beyond the threshold
            # is a breakdown of c, not a failed u solve
            report = _check_blowup(c_new, "c", params, t_new, k)
            if report is not None:
                return stop(report, u_old, c_new, p_old)
            u_new = _u_solve(ops, params, u_old, c_new, rhs_u, x0=warm_u)
            # and the p system from this u
            report = _check_blowup(u_new, "u", params, t_new, k)
            if report is not None:
                return stop(report, u_new, c_new, p_old)
            p_new = _p_solve(ops, params, u_new, c_new, rhs_p_const, x0=warm_p)
        except fem.AssemblyError as exc:
            # a mixed iterate overflowed, although what it mixes was finite;
            # the c and u that the later systems read have passed the check
            report = BreakdownReport(t_new, k, "iterate", str(exc), float("nan"))
            return stop(report, u_old, c_old, p_old)

        report = _check_blowup(p_new, "p", params, t_new, k)
        if report is not None:
            return stop(report, u_new, c_new, p_new)

        g = np.concatenate((u_new, c_new, p_new))
        f = g - x
        residuals = tuple(math.sqrt(block.dot(block)) for block in _blocks(f))
        history.append(residuals)
        if max(residuals) < params.tol_fp:
            committed = SimState(
                t_new,
                FeField(ops.mesh, u_new),
                FeField(ops.mesh, c_new),
                FeField(ops.mesh, p_new),
            )
            return committed, FixedPointReport(k, True, None, tuple(history))

        if k > 1:
            j = (k - 2) % ANDERSON_DEPTH
            np.subtract(f, d_f[j], out=d_f[j])
            np.subtract(g, d_g[j], out=d_g[j])
            h = min(ANDERSON_DEPTH, k - 1)
            x = g - _mixing_weights(d_f[:h], f) @ d_g[:h]
        else:
            x = params.beta * g + (1.0 - params.beta) * x
        d_f[(k - 1) % ANDERSON_DEPTH] = f
        d_g[(k - 1) % ANDERSON_DEPTH] = g
        u_old, c_old, p_old = _blocks(x)
        warm_u, warm_c, warm_p = _blocks(g)
        # what the next sweep's assembly finds in memory is x, g and the rings
        del u_new, c_new, p_new, f

    raise NonconvergenceError(
        f"fixed-point sweep did not converge within {params.max_fp_iters} iterations "
        f"at t = {t_new} (last residuals {history[-1]})",
        t_new,
        history,
    )


def _blocks(v):
    """The u, c and p parts of a stacked (u, c, p) vector, as views."""
    n = v.size // 3
    return v[:n], v[n:2 * n], v[2 * n:]


def _fields(state):
    """The u, c and p coefficient vectors of a state."""
    return state.u.coeffs, state.c.coeffs, state.p.coeffs


def _mixing_weights(d_f, f) -> np.ndarray:
    """gamma minimising |f - d_f^T gamma|, from the normal equations of the
    few stored differences, or by least squares when they are singular.

    LAPACK's dgesv is called directly: on a handful of unknowns the checks
    around ``np.linalg.solve`` cost five times the solve."""
    _, _, gamma, info = lapack.dgesv(d_f @ d_f.T, d_f @ f)
    if info == 0:
        return gamma
    return np.linalg.lstsq(d_f.T, f, rcond=None)[0]


def _breakdown_state(state, t_new, u, c, p) -> SimState:
    mesh = state.mesh
    return SimState(
        t_new,
        FeField(mesh, u, breakdown=True),
        FeField(mesh, c, breakdown=True),
        FeField(mesh, p, breakdown=True),
    )


def _record(state: SimState, ops: Operators, fp_iters: int, breakdown: int,
            warnings=(), sweep_residuals=(), band_factorizations=(0, 0),
            band_substitutions=(0, 0)) -> StepRecord:
    masses = [
        float(np.dot(ops.mass_vector, f.coeffs)) for f in (state.u, state.c, state.p)
    ]
    extrema = []
    for f in (state.u, state.c, state.p):
        extrema.append(float(f.coeffs.max()))
        extrema.append(float(f.coeffs.min()))
    return StepRecord(
        state.t, *extrema, *masses, fp_iters, breakdown, tuple(warnings),
        sweep_residuals, band_factorizations, band_substitutions,
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
    on_step=None,
) -> RunResult:
    """Run the time loop from an interpolated initial state.

    t_final and the snapshot times must land on step boundaries, or
    :meth:`Parameters.steps_to` raises.  Diagnostics are recorded for the
    initial state and every completed step (diagnostics row ``n`` belongs to
    step ``n``); on breakdown the partial results are returned
    together with the report.  A :class:`NonconvergenceError` or
    :class:`StepError` carries the records of the steps committed before it
    and the last committed state.
    ``on_step(step_index, state)``, when given, is called after every
    committed step.
    """
    n_steps = params.n_steps
    snapshot_steps = {params.steps_to(t, "snapshot time"): t for t in snapshot_times}
    ops = ops or Operators(state0.mesh)

    state = state0
    records = [_record(state, ops, 0, 0)]
    snapshots = []
    if 0 in snapshot_steps:
        snapshots.append((state.t, state.copy()))

    prev = None  # the committed level before state, once there is one
    start = None
    for n in range(1, n_steps + 1):
        if prev is not None:  # extrapolate the last two levels: 2 x^n - x^(n-1)
            if start is None:
                start = np.empty(3 * state.u.coeffs.size)
            for out, now, last in zip(_blocks(start), _fields(state), _fields(prev)):
                np.multiply(now, 2.0, out=out)
                out -= last
        before = ops.band_counts()
        try:
            new_state, report = fixed_point_advance(state, params, ops, start=start)
        except (NonconvergenceError, StepError) as exc:
            exc.records = records
            exc.state = state
            raise
        new_state.t = state0.t + n * params.dt  # drift-free step times
        counts = tuple(map(operator.sub, ops.band_counts(), before))
        factored, substituted = counts[:2], counts[2:]
        if report.breakdown is not None:
            records.append(
                _record(new_state, ops, report.iterations, 1, ("breakdown",),
                        report.history, factored, substituted)
            )
            return RunResult(new_state, records, snapshots, report.breakdown)
        flags = step_warnings(state, new_state, params)
        records.append(
            _record(new_state, ops, report.iterations, 0, flags, report.history,
                    factored, substituted)
        )
        if n in snapshot_steps:
            snapshots.append((new_state.t, new_state.copy()))
        if on_step is not None:
            on_step(n, new_state)
        prev, state = state, new_state

    return RunResult(state, records, snapshots, None)


def run(config: RunConfig, on_step=None) -> RunResult:
    """Build the mesh and initial state from a config, then simulate."""
    mesh = config.build_mesh()
    state0 = interpolate_initial_state(config.initial_data(), mesh)
    return simulate(
        state0,
        config.params,
        snapshot_times=config.snapshots,
        on_step=on_step,
    )
