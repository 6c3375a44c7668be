import math
import types

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from haptosim import fem, iocfg, linsolve, stepper
from haptosim.mesh import build_structured_mesh, interpolate
from haptosim.model import Parameters, SimState, interpolate_initial_state
from haptosim.stepper import (
    NonconvergenceError,
    Operators,
    fixed_point_advance,
    run,
    simulate,
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


# One solve of each equation as the sweep makes it, with the iterates
# entering the coefficients equal to the previous time level.
def u_step(ops, params, s):
    un, cn = s.u.coeffs, s.c.coeffs
    return stepper._u_solve(ops, params, un, cn, stepper._u_rhs(ops, params, un, cn))


def c_step(ops, params, s):
    cn, pn = s.c.coeffs, s.p.coeffs
    return stepper._c_solve(ops, params, pn, stepper._c_rhs(ops, params, cn, pn))


def p_step(ops, params, s):
    un, cn, pn = s.u.coeffs, s.c.coeffs, s.p.coeffs
    rhs_const = stepper._p_rhs_const(ops, params, pn, un, cn)
    return stepper._p_solve(ops, params, un, cn, rhs_const)


def test_step_u_preserves_constants_without_reaction(unit_mesh, unit_ops):
    params = Parameters(chi=0.0, mu=1e-300, theta=0.5, dt=1.0)
    state = constant_state(unit_mesh, 0.75, 1.0, 0.0)
    new_u = u_step(unit_ops, params, state)
    np.testing.assert_allclose(new_u, 0.75, atol=1e-11)


def test_step_u_scalar_recurrence(unit_mesh, unit_ops):
    # theta=1, dt=1, mu=1, u_prev = u_iter = 0.5:
    # (1 - theta dt mu (1 - u_iter)) u_new = u_prev  ->  0.5 u_new = 0.5
    params = Parameters(chi=0.0, mu=1.0, theta=1.0, dt=1.0)
    state = constant_state(unit_mesh, 0.5, 1.0, 0.0)
    new_u = u_step(unit_ops, params, state)
    np.testing.assert_allclose(new_u, 1.0, atol=1e-11)


def test_step_c_scalar_recurrence(unit_mesh, unit_ops):
    # p_prev = p_iter = 1, c_prev = 1, theta = 0.5, dt = 1: 1.5 c = 0.5
    params = Parameters(chi=0.0, mu=1.0, theta=0.5, dt=1.0)
    state = constant_state(unit_mesh, 0.0, 1.0, 1.0)
    new_c = c_step(unit_ops, params, state)
    np.testing.assert_allclose(new_c, 1.0 / 3.0, atol=1e-11)


def test_step_c_no_protease_keeps_matrix(unit_mesh, unit_ops):
    params = Parameters(chi=0.0, theta=0.5, dt=1.0)
    state = constant_state(unit_mesh, 0.3, 0.8, 0.0)
    new_c = c_step(unit_ops, params, state)
    np.testing.assert_allclose(new_c, 0.8, atol=1e-12)


def test_step_c_linear_in_previous_matrix(unit_mesh, unit_ops):
    params = Parameters(chi=0.0, theta=0.5, dt=1.0)
    single = c_step(unit_ops, params, constant_state(unit_mesh, 0.0, 1.0, 0.7))
    doubled = c_step(unit_ops, params, constant_state(unit_mesh, 0.0, 2.0, 0.7))
    np.testing.assert_allclose(doubled, 2.0 * single, rtol=1e-12)


def test_step_p_scalar_recurrence(unit_mesh, unit_ops):
    # frozen u = c = 1, p_prev = 0, theta = 0.5, dt = 1, eps = 0.2:
    # 3.5 p = 2.5 + 2.5  ->  p = 10/7
    params = Parameters(chi=0.0, epsilon=0.2, theta=0.5, dt=1.0)
    state = constant_state(unit_mesh, 1.0, 1.0, 0.0)
    new_p = p_step(unit_ops, params, state)
    np.testing.assert_allclose(new_p, 10.0 / 7.0, atol=1e-11)


def test_step_p_zero_sources_stay_zero(unit_mesh, unit_ops):
    params = Parameters(chi=0.0, epsilon=0.2, theta=0.5, dt=1.0)
    state = constant_state(unit_mesh, 0.0, 1.0, 0.0)
    new_p = p_step(unit_ops, params, state)
    np.testing.assert_allclose(new_p, 0.0, atol=1e-13)


def test_step_p_fully_implicit_reduction(unit_mesh, unit_ops):
    # theta = 1: (1 + dt/eps) p_new = p_prev + (dt/eps) u c  for constants
    params = Parameters(chi=0.0, epsilon=0.5, theta=1.0, dt=1.0)
    u, c, p_prev = 0.8, 0.6, 0.3
    state = constant_state(unit_mesh, u, c, p_prev)
    new_p = p_step(unit_ops, params, state)
    expected = (p_prev + 2.0 * u * c) / 3.0
    np.testing.assert_allclose(new_p, expected, atol=1e-12)


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
        interpolate(lambda x: np.array([math.exp(-r) for r in (x * x).sum(axis=1)]),
                    unit_mesh),
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
    # (the unrelaxed sweep cycles with period two here, its linearization has slope -1
    # at the limit; beta = 1 is checked under Anderson mixing further below)
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
    assert max(report.history[-1]) < params.tol_fp
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
    # c is solved and checked first; the report names it and its largest value
    magnitude = float(np.max(np.abs(new_state.c.coeffs)))
    assert report.breakdown.field == "c" and report.breakdown.magnitude == magnitude
    assert report.breakdown.reason == f"magnitude {magnitude:.3e} exceeds blowup threshold"


THRESHOLD = Parameters().blowup_threshold
# the values a sweep's blowup check must report: non-finite ones, and
# magnitudes one float beyond the threshold
BAD_VALUES = {
    "nan": np.nan,
    "+inf": np.inf,
    "-inf": -np.inf,
    "above": np.nextafter(THRESHOLD, np.inf),
    "-above": -np.nextafter(THRESHOLD, np.inf),
}


def assert_reports(report, field, value, iteration=1, time=1.0):
    assert report is not None
    assert (report.field, report.iteration, report.time) == (field, iteration, time)
    if math.isfinite(value):
        assert report.magnitude == abs(value)
        assert report.reason == f"magnitude {abs(value):.3e} exceeds blowup threshold"
    else:
        assert report.reason == "non-finite values" and math.isnan(report.magnitude)


@pytest.mark.parametrize("value", BAD_VALUES.values(), ids=BAD_VALUES.keys())
@pytest.mark.parametrize("field", ["u", "c", "p"])
def test_blowup_check_reports_field_reason_and_magnitude(field, value):
    params = Parameters()
    coeffs = np.array([0.5, -0.25, value, 1.0])
    assert_reports(stepper._check_blowup(coeffs, field, params, 1.0, 1), field, value)
    # the threshold itself is no breakdown
    edge = np.array([0.5, -THRESHOLD, THRESHOLD])
    assert stepper._check_blowup(edge, field, params, 1.0, 1) is None


@pytest.mark.parametrize(
    "field, value",
    [(f, v) for f in "cup" for v in BAD_VALUES.values()],
    ids=[f"{f}-{k}" for f in "cup" for k in BAD_VALUES],
)
def test_sweep_breakdown_names_the_field_that_blew_up(unit_mesh, unit_ops, monkeypatch,
                                                     field, value):
    # one node of one solution is replaced
    solve = getattr(stepper, f"_{field}_solve")

    def poisoned(*args, **kwargs):
        x = solve(*args, **kwargs).copy()
        x[1] = value
        return x

    monkeypatch.setattr(stepper, f"_{field}_solve", poisoned)
    params = Parameters(chi=1.0, mu=1.0, theta=0.5, dt=1.0)
    new_state, report = fixed_point_advance(
        constant_state(unit_mesh, 0.5, 0.9, 0.1), params, unit_ops
    )
    assert not report.converged and report.iterations == 1
    assert_reports(report.breakdown, field, value)
    flagged = getattr(new_state, field)
    assert flagged.breakdown
    np.testing.assert_array_equal(flagged.coeffs[1], value)


@pytest.mark.parametrize("theta", [0.5, 1.0], ids=["theta0.5", "theta1"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("field", ["u", "c", "p"])
def test_nonfinite_old_state_gives_a_breakdown_report(unit_mesh, unit_ops, field, value,
                                                       theta):
    # theta < 1: the explicit right-hand sides assemble from the old state.
    # theta = 1 and chi = 0: no assembly reads the old state, but the
    # right-hand sides M u, M c, M p are non-finite and would reach the solves
    params = Parameters(theta=theta, chi=0.0 if theta == 1.0 else Parameters().chi, dt=1.0)
    state = constant_state(unit_mesh, 0.5, 0.9, 0.1)
    getattr(state, field).coeffs[4] = value
    new_state, report = fixed_point_advance(state, params, unit_ops)
    assert not report.converged and report.iterations == 1
    breakdown = report.breakdown
    assert (breakdown.field, breakdown.iteration, breakdown.time) == (field, 1, 1.0)
    assert breakdown.reason == "non-finite values in the old state"
    assert math.isnan(breakdown.magnitude)
    flagged = getattr(new_state, field)
    assert flagged.breakdown
    np.testing.assert_array_equal(flagged.coeffs[4], value)


def test_stop_errors_carry_the_last_committed_state(unit_mesh):
    params = Parameters(chi=0.0, mu=1.0, theta=1.0, dt=1.0, t_final=2.0, max_fp_iters=2)
    state0 = constant_state(unit_mesh, 0.5, 0.0, 0.0)
    with pytest.raises(NonconvergenceError) as err:
        simulate(state0, params)
    assert err.value.state is state0
    assert [r.time for r in err.value.records] == [0.0]


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
    from haptosim.model import corner_gaussian, interpolate_initial_state

    state0 = interpolate_initial_state(corner_gaussian, mesh)
    committed = {}
    for beta in (0.25, 1.0):
        params = Parameters(chi=0.01, mu=0.5, beta=beta, t_final=2.0)
        result = simulate(state0.copy(), params)
        committed[beta] = result.state
    du = np.max(np.abs(committed[0.25].u.coeffs - committed[1.0].u.coeffs))
    dc = np.max(np.abs(committed[0.25].c.coeffs - committed[1.0].c.coeffs))
    dp = np.max(np.abs(committed[0.25].p.coeffs - committed[1.0].p.coeffs))
    assert max(du, dc, dp) < 1e-7


def test_peaks_config_keeps_its_sweep_counts():
    # on the published-peaks configuration the sweep takes these sweeps per
    # step to t = 5; from step 2 on it starts at the extrapolated level,
    # which gave [7, 8, 6, 6, 6] when every step started at the old level
    config = iocfg.parse_config("mu = 1e-10\nchi = 0.01\nt_final = 5\nsnapshots =\n")
    result = run(config)
    assert [r.fp_iters for r in result.diagnostics[1:]] == [7, 8, 7, 6, 6]


def test_published_peaks_run_keeps_its_sweep_total():
    # all 50 steps; 246 sweeps when every step started at the old level
    config = iocfg.parse_config("mu = 1e-10\nchi = 0.01\nsnapshots =\n")
    result = run(config)
    assert len(result.diagnostics) == 51
    assert sum(r.fp_iters for r in result.diagnostics) == 224


def small_invasion_state():
    mesh = build_structured_mesh(2, ((0.0, 20.0), (0.0, 20.0)), (1, 1), 3)
    from haptosim.model import corner_gaussian

    return interpolate_initial_state(corner_gaussian, mesh)


def test_steps_after_the_first_start_from_the_extrapolated_level(monkeypatch):
    calls = []  # the old level and a copy of the start of each step
    advance = stepper.fixed_point_advance

    def spy(state, params, ops, start=None):
        calls.append((state, None if start is None else start.copy()))
        return advance(state, params, ops, start=start)

    monkeypatch.setattr(stepper, "fixed_point_advance", spy)
    state0 = small_invasion_state()
    result = simulate(state0, Parameters(chi=0.01, mu=0.5, t_final=4.0))
    assert result.breakdown is None
    assert len(calls) == 4
    assert calls[0][0] is state0 and calls[0][1] is None
    # step n + 1 gets 2 x^n - x^(n-1), stacked as (u, c, p), of the committed levels
    for (last, _), (now, start) in zip(calls, calls[1:]):
        expected = [2.0 * getattr(now, f).coeffs - getattr(last, f).coeffs for f in "ucp"]
        np.testing.assert_array_equal(start, np.concatenate(expected))


def test_one_step_run_commits_the_sweep_from_the_old_level():
    state0 = small_invasion_state()
    params = Parameters(chi=0.01, mu=0.5, t_final=1.0)
    direct, _ = fixed_point_advance(state0, params, Operators(state0.mesh))
    result = simulate(state0, params, ops=Operators(state0.mesh))
    for name in "ucp":
        np.testing.assert_array_equal(getattr(result.state, name).coeffs,
                                      getattr(direct, name).coeffs)


EQUAL_RATES_TO_5 = "mu = 1\nchi = 1\nt_final = 5\nsnapshots =\n"


def test_gauss_seidel_sweep_keeps_its_sweep_counts(monkeypatch):
    # the sweep solves c first and u with that c; with strong drift this
    # takes fewer sweeps than solving u with the iterate's c, which gave
    # [19, 20, 21, 20, 21] here
    factored = []
    dgbtrf = linsolve.lapack.dgbtrf

    def counted(*args, **kwargs):
        factored.append(1)
        return dgbtrf(*args, **kwargs)

    monkeypatch.setattr(linsolve.lapack, "dgbtrf", counted)
    result = run(iocfg.parse_config(EQUAL_RATES_TO_5))
    sweeps = [r.fp_iters for r in result.diagnostics[1:]]
    assert sweeps == [12, 13, 13, 13, 13]
    # 32^2: every u and c solve is a band solve, refined from the factors
    # that Operators holds; the step records count the same factorizations
    assert len(factored) < 2 * sum(sweeps)
    assert sum(sum(r.band_factorizations) for r in result.diagnostics) == len(factored)


def test_held_band_factors_keep_the_fresh_factor_trajectory(monkeypatch):
    held = run(iocfg.parse_config(EQUAL_RATES_TO_5))
    monkeypatch.setattr(linsolve, "REFINE_MIN_KL", math.inf)  # factor every solve
    fresh = run(iocfg.parse_config(EQUAL_RATES_TO_5))
    assert [r.fp_iters for r in held.diagnostics] == [r.fp_iters for r in fresh.diagnostics]
    assert all(r.band_factorizations == (r.fp_iters, r.fp_iters) for r in fresh.diagnostics)
    for name in "ucp":
        diff = getattr(held.state, name).coeffs - getattr(fresh.state, name).coeffs
        assert np.max(np.abs(diff)) <= 1e-10


def test_each_sweep_solves_c_then_u_with_that_c_then_p(monkeypatch):
    mesh = build_structured_mesh(2, ((0.0, 20.0), (0.0, 20.0)), (1, 1), 3)
    from haptosim.model import corner_gaussian

    state0 = interpolate_initial_state(corner_gaussian, mesh)
    calls = []

    def spy(name, solve):
        def wrapped(*args, **kwargs):
            out = solve(*args, **kwargs)
            calls.append((name, args, out))
            return out
        return wrapped

    for name in "ucp":
        attr = f"_{name}_solve"
        monkeypatch.setattr(stepper, attr, spy(name, getattr(stepper, attr)))
    params = Parameters(chi=1.0, mu=1.0, dt=1.0)
    _, report = fixed_point_advance(state0, params, Operators(mesh))
    assert report.converged and report.iterations > 2
    assert [c[0] for c in calls] == list("cup") * report.iterations
    for (_, _, c_new), (_, u_args, u_new), (_, p_args, _) in zip(*[iter(calls)] * 3):
        _, _, _, c_it, _ = u_args  # (ops, params, u_it, c_it, rhs)
        assert c_it is c_new
        assert p_args[2] is u_new and p_args[3] is c_new


def test_c_blowup_stops_the_sweep_before_the_u_system(unit_mesh, unit_ops, monkeypatch):
    # the u system is assembled from the c of the same sweep: a c beyond the
    # threshold is a breakdown of c, not a failed u solve
    def huge_c(ops, params, p_it, rhs, x0=None):
        return np.full_like(rhs, 1e7)

    def no_u_solve(*args, **kwargs):
        raise AssertionError("the u system was solved with a blown-up c")

    monkeypatch.setattr(stepper, "_c_solve", huge_c)
    monkeypatch.setattr(stepper, "_u_solve", no_u_solve)
    params = Parameters(chi=1.0, mu=1.0, theta=0.5, dt=1.0)
    new_state, report = fixed_point_advance(
        constant_state(unit_mesh, 0.5, 0.9, 0.1), params, unit_ops
    )
    assert not report.converged and report.iterations == 1
    assert report.breakdown.field == "c" and report.breakdown.iteration == 1
    assert "threshold" in report.breakdown.reason
    assert report.breakdown.magnitude == 1e7
    assert new_state.c.breakdown
    np.testing.assert_array_equal(new_state.c.coeffs, 1e7)


@pytest.mark.parametrize("value", [np.nan, 1e7], ids=["nan", "1e7"])
def test_u_blowup_stops_the_sweep_before_the_p_system(unit_mesh, unit_ops, monkeypatch,
                                                      value):
    # the p system is assembled from the u of the same sweep: a u beyond the
    # threshold, or not finite, is a breakdown of u, not of the p assembly
    def bad_u(ops, params, u_it, c_new, rhs, x0=None):
        return np.full_like(rhs, value)

    def no_p_solve(*args, **kwargs):
        raise AssertionError("the p system was solved with a blown-up u")

    monkeypatch.setattr(stepper, "_u_solve", bad_u)
    monkeypatch.setattr(stepper, "_p_solve", no_p_solve)
    params = Parameters(chi=1.0, mu=1.0, theta=0.5, dt=1.0)
    new_state, report = fixed_point_advance(
        constant_state(unit_mesh, 0.5, 0.9, 0.1), params, unit_ops
    )
    assert not report.converged and report.iterations == 1
    assert_reports(report.breakdown, "u", value)
    assert new_state.u.breakdown
    np.testing.assert_array_equal(new_state.u.coeffs, value)
    # p stays the old iterate, as no p was solved
    np.testing.assert_array_equal(new_state.p.coeffs, 0.1)


def test_sweep_commits_the_state_of_a_tighter_tolerance():
    # stopping at the default tol_fp = 1e-8 commits the states of a run to
    # tol_fp = 1e-12 within 1e-7
    mesh = build_structured_mesh(2, ((0.0, 20.0), (0.0, 20.0)), (1, 1), 3)
    from haptosim.model import corner_gaussian, interpolate_initial_state

    state0 = interpolate_initial_state(corner_gaussian, mesh)
    results = {}
    for tol_fp in (1e-8, 1e-12):
        params = Parameters(chi=0.01, mu=0.5, tol_fp=tol_fp, t_final=2.0)
        results[tol_fp] = simulate(state0.copy(), params)
    for f in ("u", "c", "p"):
        a = getattr(results[1e-8].state, f).coeffs
        b = getattr(results[1e-12].state, f).coeffs
        assert np.max(np.abs(a - b)) < 1e-7


def test_accel_ring_wraps_and_keeps_the_limit(unit_mesh, unit_ops):
    # the ring holds ANDERSON_DEPTH differences; from the update after sweep
    # ANDERSON_DEPTH + 2 on, each mixes a difference written over the oldest
    params = Parameters(chi=0.0, mu=1.0, theta=1.0, dt=1.0)
    state = constant_state(unit_mesh, 0.5, 0.0, 0.0)
    new_state, report = fixed_point_advance(state, params, unit_ops)
    assert report.converged
    assert report.iterations > stepper.ANDERSON_DEPTH + 2
    np.testing.assert_allclose(new_state.u.coeffs, math.sqrt(0.5), atol=1e-7)


def test_accel_converges_where_the_unrelaxed_sweep_cycles(unit_mesh, unit_ops):
    # the slope -1 logistic case: the plain sweep (beta = 1, no mixing)
    # cycles with period two, the mixed one reaches the limit u^2 = 0.5
    state = constant_state(unit_mesh, 0.5, 0.0, 0.0)
    accelerated = Parameters(chi=0.0, mu=1.0, theta=1.0, dt=1.0, beta=1.0)
    new_state, report = fixed_point_advance(state, accelerated, unit_ops)
    assert report.converged
    np.testing.assert_allclose(new_state.u.coeffs, math.sqrt(0.5), atol=1e-7)


def test_accelerated_sweep_failure_paths(unit_mesh, unit_ops):
    # the budget is checked after the first Anderson update (sweep 3)
    params = Parameters(chi=0.0, mu=1.0, theta=1.0, dt=1.0, max_fp_iters=3)
    state = constant_state(unit_mesh, 0.5, 0.0, 0.0)
    with pytest.raises(NonconvergenceError) as err:
        fixed_point_advance(state, params, unit_ops)
    assert len(err.value.residual_history) == 3
    assert err.value.time == 1.0

    params = Parameters(chi=0.0, mu=1.0, theta=0.5, dt=1.0, blowup_threshold=0.3)
    new_state, report = fixed_point_advance(constant_state(unit_mesh, 0.5, 0.9, 0.1),
                                            params, unit_ops)
    assert not report.converged
    assert "threshold" in report.breakdown.reason
    assert new_state.u.breakdown and new_state.c.breakdown and new_state.p.breakdown

    # a non-finite old state is a breakdown that names its field, not a crash
    bad = constant_state(unit_mesh, 0.5, 0.0, 0.0)
    bad.u.coeffs[0] = np.nan
    params = Parameters(theta=1.0)  # no assembly before the sweep
    new_state, report = fixed_point_advance(bad, params, unit_ops)
    assert report.breakdown is not None and report.breakdown.field == "u"
    assert report.iterations == 1 and new_state.u.breakdown


def test_report_carries_the_sweep_residual_history(unit_mesh, unit_ops):
    params = Parameters(chi=0.0, mu=1.0, theta=0.5, dt=1.0)
    _, report = fixed_point_advance(constant_state(unit_mesh, 0.5, 0.9, 0.1),
                                    params, unit_ops)
    assert len(report.history) == report.iterations
    assert all(len(r) == 3 for r in report.history)


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
        return np.exp(-(x * x).sum(axis=1))

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
    mass = sp.dia_matrix((ops.mass.data, ops.mass.offsets), shape=(ops.mass.n,) * 2)
    lu = spla.splu(((1.0 + implicit) * mass).tocsc())
    ref = lu.solve(rhs)
    assert np.max(np.abs(x - ref)) <= 1e-14 * np.max(np.abs(ref))


U_SYSTEM_MESHES = {
    "2d-4x3": (2, ((0.0, 4.0), (0.0, 1.5)), (4, 3)),
    "3d-3x4x5": (3, ((0.0, 1.0), (-1.0, 1.5), (2.0, 6.0)), (3, 4, 5)),
    "3d-2x1x3": (3, ((0.0, 1.0), (-1.0, 1.5), (2.0, 6.0)), (2, 1, 3)),  # merged offsets
}


@pytest.mark.parametrize("dt_factor", [0.7, -0.3])
@pytest.mark.parametrize("mu, chi", [(0.0, 0.0), (0.5, 0.0), (0.0, 1.0), (1.0, 1.0)])
@pytest.mark.parametrize("case", U_SYSTEM_MESHES.values(), ids=U_SYSTEM_MESHES.keys())
def test_u_system_accumulated_in_place_is_the_combination(case, mu, chi, dt_factor):
    """W(w) and B(-sigma c) added into kappa K give combine's u system, and
    the held mass and stiffness matrices stay as they were.  Parameters
    rejects mu = 0, so a plain namespace carries it: W(1) is then M."""
    dim, extents, cells = case
    ops = Operators(build_structured_mesh(dim, extents, cells, 0))
    params = types.SimpleNamespace(mu=mu, chi=chi, alpha=3.0)
    rng = np.random.default_rng(21)
    u, c = rng.uniform(0.0, 2.0, (2, ops.mesh.n_nodes))
    mass, stiffness = ops.mass.data.copy(), ops.stiffness.data.copy()

    a = stepper._u_system_matrix(ops, params, u, c, dt_factor)

    w = 1.0 + dt_factor * mu * (u - 1.0)
    ref = linsolve.combine([
        (1.0, fem.assemble_weighted_mass(ops.mesh, w) if mu != 0.0 else ops.mass),
        (dt_factor / params.alpha, ops.stiffness),
        (-dt_factor * chi, fem.assemble_haptotaxis(ops.mesh, c)),
    ])
    assert a.offsets is ops.plan.offsets
    assert np.max(np.abs(a.data - ref.data)) <= 1e-14 * np.max(np.abs(ref.data))
    assert ops.mass.data.tobytes() == mass.tobytes()
    assert ops.stiffness.data.tobytes() == stiffness.tobytes()


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
    monkeypatch.setattr(linsolve, "DIRECT_LIMIT", 0)  # the Krylov path
    x = linsolve.solve(lhs, rhs, tol_lin=params.tol_lin, precond=ops.mass_inverse)
    assert np.linalg.norm(lhs.matvec(x) - rhs) / np.linalg.norm(rhs) <= params.tol_lin
    assert len(iterations) == 1  # converged on the first attempt, no retry
    jacobi = linsolve.solve(lhs, rhs, tol_lin=params.tol_lin)
    assert np.linalg.norm(lhs.matvec(jacobi) - rhs) / np.linalg.norm(rhs) <= params.tol_lin
    assert iterations[0] < iterations[-1]  # fewer iterations than Jacobi's


@pytest.mark.parametrize(
    "text",
    [
        "t_final = 5\nsnapshots =\n",
        "dim = 3\nbase_cells = 12\nrefinements = 0\nt_final = 3\nsnapshots =\n",
    ],
    ids=["2d", "3d"],
)
def test_mass_inverse_solves_reproduce_the_factored_path(monkeypatch, text):
    """2D reference run to t = 5, and a 3D 12^3 run to t = 3 whose 2,197
    unknowns take the Krylov path: the production solves (the exact p solve
    and the M^-1-preconditioned c solve) commit the same sweep counts as the
    all-factorization path, banded LU on every system, and fields within
    tol_fp."""
    config = iocfg.parse_config(text)
    new = run(config)

    solve = linsolve.solve

    def factored(a, b, inverse=None, precond=None, **kwargs):
        return solve(a, b, **kwargs)

    monkeypatch.setattr(linsolve, "solve", factored)
    monkeypatch.setattr(linsolve, "DIRECT_LIMIT", 10_000)
    old = run(config)

    assert [r.fp_iters for r in new.diagnostics] == [r.fp_iters for r in old.diagnostics]
    for name in ("u", "c", "p"):
        a = getattr(new.state, name).coeffs
        b = getattr(old.state, name).coeffs
        assert np.max(np.abs(a - b)) <= config.params.tol_fp


@pytest.mark.parametrize("chi, mu, theta", [(0.0, 0.5, 0.5), (1.0, 1.0, 0.5), (0.01, 1e-10, 1.0)])
def test_form_calls_per_sweep(monkeypatch, chi, mu, theta):
    """The assembly calls per sweep that the benchmark's traced run counts.

    perfbench/tracing.py wraps these module attributes, and perfbench/checks.py
    expects per sweep two weighted masses, a haptotaxis matrix if chi != 0
    and a product load, and the same once more per step
    for the explicit side when theta < 1; building the operators makes none.
    The forms add straight into the u system, so the sweep calls no combine.
    """
    calls = {}

    def count(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        calls[name] = 0
        monkeypatch.setattr(module, name, counted)

    for name in ("AssemblyPlan", "assemble_weighted_mass", "assemble_haptotaxis",
                 "assemble_product_load"):
        count(fem, name)
    count(linsolve, "combine")
    config = iocfg.parse_config(
        f"refinements = 2\nchi = {chi}\nmu = {mu}\ntheta = {theta}\nt_final = 3\n"
    )
    mesh = config.build_mesh()
    ops = Operators(mesh)
    assert calls == {**dict.fromkeys(calls, 0), "AssemblyPlan": 1}

    state0 = interpolate_initial_state(config.initial_data(), mesh)
    result = simulate(state0, config.params, ops=ops)
    steps = len(result.diagnostics) - 1
    n = sum(r.fp_iters for r in result.diagnostics) + (steps if theta < 1.0 else 0)
    assert steps == 3
    assert calls == {
        "AssemblyPlan": 1,
        "assemble_weighted_mass": 2 * n,
        "assemble_haptotaxis": n if chi != 0.0 else 0,
        "assemble_product_load": n,
        "combine": 0,  # W and B add into the u system, W(1 + dtf p) is the c system
    }
