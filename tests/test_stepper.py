import math

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from haptosim import iocfg, linsolve, stepper
from haptosim.mesh import build_structured_mesh, interpolate
from haptosim.model import Parameters, SimState
from haptosim.stepper import (
    NonconvergenceError,
    Operators,
    fixed_point_advance,
    run,
    simulate,
    step_c,
    step_p,
    step_u,
    step_warnings,
)

UNIT = ((0.0, 1.0), (0.0, 1.0))


def constant_state(mesh, u, c, p, t=0.0):
    return SimState(
        t,
        interpolate(lambda x: u, mesh),
        interpolate(lambda x: c, mesh),
        interpolate(lambda x: p, mesh),
    )


@pytest.fixture(scope="module")
def unit_mesh():
    return build_structured_mesh(2, UNIT, (2, 2), 0)


@pytest.fixture(scope="module")
def unit_ops(unit_mesh):
    return Operators(unit_mesh)


def test_step_u_preserves_constants_without_reaction(unit_mesh, unit_ops):
    params = Parameters(chi=0.0, mu=1e-300, theta=0.5, dt=1.0)
    state = constant_state(unit_mesh, 0.75, 1.0, 0.0)
    new_u = step_u(state.u, state.c, state.u, state.c, params, unit_ops)
    np.testing.assert_allclose(new_u.coeffs, 0.75, atol=1e-11)


def test_step_u_scalar_recurrence(unit_mesh, unit_ops):
    # theta=1, dt=1, mu=1, u_prev = u_iter = 0.5:
    # (1 - theta dt mu (1 - u_iter)) u_new = u_prev  ->  0.5 u_new = 0.5
    params = Parameters(chi=0.0, mu=1.0, theta=1.0, dt=1.0)
    state = constant_state(unit_mesh, 0.5, 1.0, 0.0)
    new_u = step_u(state.u, state.c, state.u, state.c, params, unit_ops)
    np.testing.assert_allclose(new_u.coeffs, 1.0, atol=1e-11)


def test_step_c_scalar_recurrence(unit_mesh, unit_ops):
    # p_prev = p_iter = 1, c_prev = 1, theta = 0.5, dt = 1: 1.5 c = 0.5
    params = Parameters(chi=0.0, mu=1.0, theta=0.5, dt=1.0)
    state = constant_state(unit_mesh, 0.0, 1.0, 1.0)
    new_c = step_c(state.c, state.p, state.p, params, unit_ops)
    np.testing.assert_allclose(new_c.coeffs, 1.0 / 3.0, atol=1e-11)


def test_step_c_no_protease_keeps_matrix(unit_mesh, unit_ops):
    params = Parameters(chi=0.0, theta=0.5, dt=1.0)
    state = constant_state(unit_mesh, 0.3, 0.8, 0.0)
    new_c = step_c(state.c, state.p, state.p, params, unit_ops)
    np.testing.assert_allclose(new_c.coeffs, 0.8, atol=1e-12)


def test_step_c_linear_in_previous_matrix(unit_mesh, unit_ops):
    params = Parameters(chi=0.0, theta=0.5, dt=1.0)
    state = constant_state(unit_mesh, 0.0, 1.0, 0.7)
    single = step_c(state.c, state.p, state.p, params, unit_ops)
    doubled_state = constant_state(unit_mesh, 0.0, 2.0, 0.7)
    doubled = step_c(doubled_state.c, state.p, state.p, params, unit_ops)
    np.testing.assert_allclose(doubled.coeffs, 2.0 * single.coeffs, rtol=1e-12)


def test_step_p_scalar_recurrence(unit_mesh, unit_ops):
    # frozen u = c = 1, p_prev = 0, theta = 0.5, dt = 1, eps = 0.2:
    # 3.5 p = 2.5 + 2.5  ->  p = 10/7
    params = Parameters(chi=0.0, epsilon=0.2, theta=0.5, dt=1.0)
    state = constant_state(unit_mesh, 1.0, 1.0, 0.0)
    new_p = step_p(state.p, state.u, state.c, state.u, state.c, params, unit_ops)
    np.testing.assert_allclose(new_p.coeffs, 10.0 / 7.0, atol=1e-11)


def test_step_p_zero_sources_stay_zero(unit_mesh, unit_ops):
    params = Parameters(chi=0.0, epsilon=0.2, theta=0.5, dt=1.0)
    state = constant_state(unit_mesh, 0.0, 1.0, 0.0)
    new_p = step_p(state.p, state.u, state.c, state.u, state.c, params, unit_ops)
    np.testing.assert_allclose(new_p.coeffs, 0.0, atol=1e-13)


def test_step_p_fully_implicit_reduction(unit_mesh, unit_ops):
    # theta = 1: (1 + dt/eps) p_new = p_prev + (dt/eps) u c  for constants
    params = Parameters(chi=0.0, epsilon=0.5, theta=1.0, dt=1.0)
    u, c, p_prev = 0.8, 0.6, 0.3
    state = constant_state(unit_mesh, u, c, p_prev)
    new_p = step_p(state.p, state.u, state.c, state.u, state.c, params, unit_ops)
    expected = (p_prev + 2.0 * u * c) / 3.0
    np.testing.assert_allclose(new_p.coeffs, expected, atol=1e-12)


def test_fixed_point_stationary_decoupled_state_converges_immediately(
    unit_mesh, unit_ops
):
    # nothing moves: the first sweep reproduces the old level exactly
    params = Parameters(chi=0.0, mu=1e-300, theta=0.5, dt=1.0)
    state = constant_state(unit_mesh, 0.7, 0.0, 0.0)
    new_state, report = fixed_point_advance(state, params, unit_ops)
    assert report.converged
    assert report.iterations == 1
    np.testing.assert_allclose(new_state.u.coeffs, 0.7, atol=1e-10)


def test_fixed_point_decoupled_linear_regime_converges_second_sweep(unit_mesh):
    # with no haptotaxis and no growth the u-solve ignores the sweep iterates,
    # so the unrelaxed second sweep reproduces the first exactly
    ops = Operators(unit_mesh)
    params = Parameters(chi=0.0, mu=1e-300, theta=0.5, dt=1.0, beta=1.0)
    state = SimState(
        0.0,
        interpolate(lambda x: math.exp(-float(np.dot(x, x))), unit_mesh),
        interpolate(lambda x: 0.0, unit_mesh),
        interpolate(lambda x: 0.0, unit_mesh),
    )
    new_state, report = fixed_point_advance(state, params, ops)
    assert report.converged
    assert report.iterations == 2
    assert not np.allclose(new_state.u.coeffs, state.u.coeffs)


@pytest.mark.parametrize("beta", [0.25, 0.5])
def test_fixed_point_logistic_limit_is_relaxation_independent(unit_mesh, unit_ops, beta):
    # theta=1, dt=1, mu=1, u_prev=0.5: the sweep limit solves u^2 = 0.5.
    # (the unrelaxed sweep cycles with period two here, its linearization has
    # slope -1 at the limit, so beta=1 is checked in the milder case below)
    params = Parameters(chi=0.0, mu=1.0, theta=1.0, dt=1.0, beta=beta)
    state = constant_state(unit_mesh, 0.5, 0.0, 0.0)
    new_state, report = fixed_point_advance(state, params, unit_ops)
    assert report.converged
    np.testing.assert_allclose(
        new_state.u.coeffs, math.sqrt(0.5), atol=1e-7
    )


def test_fixed_point_limit_beta_independent_blended_scheme(unit_mesh, unit_ops):
    committed = {}
    for beta in (0.5, 1.0):
        params = Parameters(chi=0.0, mu=1.0, theta=0.5, dt=1.0, beta=beta)
        state = constant_state(unit_mesh, 0.5, 0.0, 0.0)
        new_state, report = fixed_point_advance(state, params, unit_ops)
        assert report.converged
        committed[beta] = new_state.u.coeffs
    np.testing.assert_allclose(committed[0.5], committed[1.0], atol=1e-7)


def test_fixed_point_report_residuals_below_tolerance(unit_mesh, unit_ops):
    params = Parameters(chi=0.0, mu=1.0, theta=0.5, dt=1.0)
    state = constant_state(unit_mesh, 0.5, 0.9, 0.1)
    _, report = fixed_point_advance(state, params, unit_ops)
    assert report.converged
    assert max(report.residuals) < params.tol_fp
    assert report.iterations <= params.max_fp_iters


def test_nonconvergence_raises_with_history(unit_mesh, unit_ops):
    params = Parameters(chi=0.0, mu=1.0, theta=1.0, dt=1.0, max_fp_iters=2)
    state = constant_state(unit_mesh, 0.5, 0.0, 0.0)
    with pytest.raises(NonconvergenceError) as err:
        fixed_point_advance(state, params, unit_ops)
    assert len(err.value.residual_history) == 2
    assert err.value.time == 1.0


def test_blowup_threshold_triggers_breakdown(unit_mesh, unit_ops):
    params = Parameters(chi=0.0, mu=1.0, theta=0.5, dt=1.0, blowup_threshold=0.3)
    state = constant_state(unit_mesh, 0.5, 0.9, 0.1)
    new_state, report = fixed_point_advance(state, params, unit_ops)
    assert not report.converged
    assert report.breakdown is not None
    assert "threshold" in report.breakdown.reason
    assert new_state.u.breakdown


def test_constant_data_stays_constant_and_obeys_theta_relation(unit_mesh):
    params = Parameters(
        chi=0.0, mu=0.5, epsilon=0.2, theta=0.5, dt=0.5, t_final=3.0
    )
    state0 = constant_state(unit_mesh, 0.5, 1.0, 0.25)
    result = simulate(state0, params)
    assert result.breakdown is None
    # spatial constancy at every level
    u_prev, c_prev, p_prev = 0.5, 1.0, 0.25
    for rec in result.diagnostics[1:]:
        assert rec.max_u - rec.min_u <= 1e-11
        assert rec.max_c - rec.min_c <= 1e-11
        assert rec.max_p - rec.min_p <= 1e-11
        u, c, p = rec.max_u, rec.max_c, rec.max_p
        dt, th, mu, eps = params.dt, params.theta, params.mu, params.epsilon
        # committed values satisfy the one-step blended relations up to the
        # sweep tolerance
        assert abs(
            u - u_prev - dt * (th * mu * u * (1 - u) + (1 - th) * mu * u_prev * (1 - u_prev))
        ) < 5e-8
        assert abs(c - c_prev + dt * (th * p * c + (1 - th) * p_prev * c_prev)) < 5e-8
        assert abs(
            p - p_prev - dt / eps * (th * (u * c - p) + (1 - th) * (u_prev * c_prev - p_prev))
        ) < 5e-8
        u_prev, c_prev, p_prev = u, c, p


def test_simulate_zero_steps_returns_initial_data(unit_mesh):
    state0 = constant_state(unit_mesh, 0.3, 0.6, 0.1)
    result = simulate(
        state0, Parameters(chi=0.0, dt=1.0, t_final=0.0), snapshot_times=(0.0,)
    )
    assert len(result.diagnostics) == 1
    assert result.snapshots[0][0] == 0.0
    np.testing.assert_array_equal(result.state.u.coeffs, state0.u.coeffs)
    np.testing.assert_array_equal(
        result.snapshots[0][1].u.coeffs, state0.u.coeffs
    )


def test_simulate_fractional_final_time_rejected(unit_mesh):
    state0 = constant_state(unit_mesh, 0.3, 0.6, 0.1)
    with pytest.raises(ValueError):
        simulate(state0, Parameters(chi=0.0, dt=1.0, t_final=0.5))


def test_simulate_snapshot_off_grid_rejected(unit_mesh):
    params = Parameters(chi=0.0, dt=1.0, t_final=2.0)
    state0 = constant_state(unit_mesh, 0.3, 0.6, 0.1)
    with pytest.raises(ValueError):
        simulate(state0, params, snapshot_times=(0.5,))


def test_beta_independence_on_small_invasion_problem():
    mesh = build_structured_mesh(2, ((0.0, 20.0), (0.0, 20.0)), (1, 1), 3)
    from haptosim.model import corner_gaussian_initial_data, interpolate_initial_state

    state0 = interpolate_initial_state(corner_gaussian_initial_data(), mesh)
    committed = {}
    for beta in (0.25, 1.0):
        params = Parameters(chi=0.01, mu=0.5, beta=beta, t_final=2.0)
        result = simulate(state0.copy(), params)
        committed[beta] = result.state
    du = np.max(np.abs(committed[0.25].u.coeffs - committed[1.0].u.coeffs))
    dc = np.max(np.abs(committed[0.25].c.coeffs - committed[1.0].c.coeffs))
    dp = np.max(np.abs(committed[0.25].p.coeffs - committed[1.0].p.coeffs))
    assert max(du, dc, dp) < 1e-7


def test_backtracking_converges_to_same_limit(unit_mesh, unit_ops):
    params = Parameters(chi=0.0, mu=1.0, theta=1.0, dt=1.0)
    state = constant_state(unit_mesh, 0.5, 0.0, 0.0)
    plain, _ = fixed_point_advance(state, params, unit_ops, backtrack=False)
    tracked, report = fixed_point_advance(state, params, unit_ops, backtrack=True)
    assert report.converged
    np.testing.assert_allclose(
        tracked.u.coeffs, plain.u.coeffs, atol=1e-7
    )


def test_step_warning_flags():
    mesh = build_structured_mesh(2, UNIT, (1, 1), 0)
    params = Parameters(chi=0.0)
    prev = constant_state(mesh, 0.5, 1.0, 0.2)
    wobbly = SimState(
        1.0,
        interpolate(lambda x: -1e-6, mesh),
        interpolate(lambda x: 1.0, mesh),
        interpolate(lambda x: 0.2, mesh),
    )
    flags = step_warnings(prev, wobbly, params)
    assert "oscillation:u" in flags

    grew = constant_state(mesh, 0.5, 1.1, 0.2, t=1.0)
    assert "c-max-increase" in step_warnings(prev, grew, params)
    # negative protease disables the matrix-maximum monitor
    neg_p = SimState(
        1.0,
        interpolate(lambda x: 0.5, mesh),
        interpolate(lambda x: 1.1, mesh),
        interpolate(lambda x: -1e-6, mesh),
    )
    assert "c-max-increase" not in step_warnings(prev, neg_p, params)


def test_run_from_config_produces_snapshots_and_expected_steps():
    from haptosim.iocfg import parse_config

    config = parse_config(
        "refinements = 2\nchi = 0.01\nmu = 0.5\nt_final = 6\nsnapshots = 2, 4, 6\n"
    )
    result = run(config)
    assert result.breakdown is None
    assert [t for t, _ in result.snapshots] == [2.0, 4.0, 6.0]
    assert len(result.diagnostics) == 7
    assert result.diagnostics[0].fp_iters == 0
    assert all(rec.fp_iters >= 1 for rec in result.diagnostics[1:])


def test_strong_drift_oscillates_by_t5_on_reference_grid():
    # the strong-haptotaxis setting violates nodal nonnegativity early even
    # though the sweeps still converge
    from haptosim.iocfg import parse_config

    config = parse_config("chi = 1.25\nmu = 0.01\nt_final = 5\nsnapshots =\n")
    result = run(config)
    assert any(
        "oscillation:u" in rec.warnings for rec in result.diagnostics if rec.time <= 5.0
    )
    assert min(rec.min_u for rec in result.diagnostics) < -1e-3


def test_mass_diagnostics_match_field_integral(unit_mesh):
    params = Parameters(chi=0.0, dt=1.0, t_final=1.0)
    state0 = constant_state(unit_mesh, 2.0, 1.0, 0.5)
    result = simulate(state0, params)
    first = result.diagnostics[0]
    assert first.mass_u == pytest.approx(2.0, rel=1e-12)  # |domain| = 1
    assert first.mass_c == pytest.approx(1.0, rel=1e-12)
    assert first.mass_p == pytest.approx(0.5, rel=1e-12)


def _bump_state(mesh):
    def bump(x):
        return float(np.exp(-np.dot(x, x)))

    return SimState(
        0.0,
        interpolate(bump, mesh),
        interpolate(lambda x: 1.0 - 0.5 * bump(x), mesh),
        interpolate(lambda x: 0.5 * bump(x), mesh),
    )


def test_p_solve_matches_sparse_lu_of_scaled_mass():
    mesh = build_structured_mesh(2, ((0.0, 20.0), (0.0, 20.0)), (1, 1), 5)
    ops = Operators(mesh)
    params = Parameters(mu=0.5, chi=0.01, epsilon=0.2, theta=0.5, dt=1.0)
    s = _bump_state(mesh)
    un, cn, pn = s.u.coeffs, s.c.coeffs, s.p.coeffs
    rhs_const = stepper._p_rhs_const(ops, params, pn, un, cn)
    x = stepper._p_solve(ops, params, un, cn, rhs_const)

    implicit = params.theta * params.dt / params.epsilon
    rhs = rhs_const + implicit * ops.product_load(un, cn)
    lu = spla.splu(((1.0 + implicit) * ops.mass.to_scipy()).tocsc())
    ref = lu.solve(rhs)
    assert np.max(np.abs(x - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_c_solve_converges_with_mass_inverse_preconditioner(monkeypatch):
    mesh = build_structured_mesh(2, ((0.0, 20.0), (0.0, 20.0)), (1, 1), 3)
    ops = Operators(mesh)
    params = Parameters(mu=1.0, chi=1.0, epsilon=0.2, theta=0.5, dt=1.0)
    s = _bump_state(mesh)
    lhs = stepper._c_system_matrix(ops, params, s.p.coeffs, params.theta * params.dt)
    rhs = stepper._c_rhs(ops, params, s.c.coeffs, s.p.coeffs)

    def no_factorization(*args, **kwargs):
        raise AssertionError("the preconditioned Krylov solve fell back to LU")

    iterations = []
    bicgstab = spla.bicgstab

    def counted(*args, **kwargs):
        iterations.append(0)

        def tick(xk):
            iterations[-1] += 1

        return bicgstab(*args, callback=tick, **kwargs)

    monkeypatch.setattr(linsolve.spla, "splu", no_factorization)
    monkeypatch.setattr(linsolve.spla, "bicgstab", counted)
    x = linsolve.solve(
        lhs, rhs, tol_lin=params.tol_lin, method="iterative",
        precond=ops.mass_inverse,
    )
    assert np.linalg.norm(lhs.matvec(x) - rhs) / np.linalg.norm(rhs) <= params.tol_lin
    assert len(iterations) == 1  # converged on the first attempt, no retry
    jacobi = linsolve.solve(lhs, rhs, tol_lin=params.tol_lin, method="iterative")
    assert np.linalg.norm(lhs.matvec(jacobi) - rhs) / np.linalg.norm(rhs) <= params.tol_lin
    assert iterations[0] < iterations[-1]  # fewer iterations than Jacobi's


def test_mass_inverse_solves_reproduce_the_factored_path(monkeypatch):
    """2D reference run to t = 5: the exact p solve and the M^-1-preconditioned
    c solve commit the same sweep counts as the all-factorization path, and
    fields within tol_fp."""
    config = iocfg.parse_config("t_final = 5\nsnapshots =\n")
    new = run(config)

    solve = linsolve.solve

    def factored(a, b, inverse=None, precond=None, **kwargs):
        return solve(a, b, **kwargs)

    monkeypatch.setattr(linsolve, "solve", factored)
    old = run(config)

    assert [r.fp_iters for r in new.diagnostics] == [r.fp_iters for r in old.diagnostics]
    for name in ("u", "c", "p"):
        a = getattr(new.state, name).coeffs
        b = getattr(old.state, name).coeffs
        assert np.max(np.abs(a - b)) <= config.params.tol_fp
