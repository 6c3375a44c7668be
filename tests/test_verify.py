import numpy as np
import pytest

from haptosim import fem
from haptosim.iocfg import parse_config
from haptosim.linsolve import DiaMatrix
from haptosim.model import Parameters
from haptosim.verify import (
    OracleError,
    StudyError,
    element_matrix_crosscheck,
    ode_oracle,
    oracle_self_consistency,
    scaling_equivalence,
    temporal_order_study,
    write_order_study_csv,
)

REACTION = dict(mu=0.5, epsilon=0.2, chi=0.0)


def test_oracle_zero_cells_equilibrium():
    params = Parameters(**REACTION)
    traj = ode_oracle(params, (0.0, 0.0, 0.0), 5.0, 100)
    np.testing.assert_array_equal(traj.states[:, 0], 0.0)
    np.testing.assert_array_equal(traj.states[:, 1], 0.0)
    np.testing.assert_array_equal(traj.states[:, 2], 0.0)


def test_oracle_logistic_equilibrium_and_protease_decay():
    # u stays at carrying capacity; with c = 0 the protease decays exactly
    # exponentially on the epsilon time scale
    params = Parameters(mu=1.0, epsilon=0.2, chi=0.0)
    traj = ode_oracle(params, (1.0, 0.0, 0.8), 2.0, 4000)
    np.testing.assert_allclose(traj.states[:, 0], 1.0, atol=1e-13)
    expected = 0.8 * np.exp(-traj.times / 0.2)
    np.testing.assert_allclose(traj.states[:, 2], expected, atol=1e-12)


def test_oracle_matrix_decay_closed_form():
    # u = 0: p(t) = p0 exp(-t/eps) and c(t) = c0 exp(-p0 eps (1 - exp(-t/eps)))
    eps, p0, c0 = 0.5, 0.75, 1.25
    params = Parameters(mu=1.0, epsilon=eps, chi=0.0)
    traj = ode_oracle(params, (0.0, c0, p0), 3.0, 4000)
    expected_c = c0 * np.exp(-p0 * eps * (1.0 - np.exp(-traj.times / eps)))
    np.testing.assert_allclose(traj.states[:, 1], expected_c, rtol=1e-11)


def test_oracle_self_consistency_under_halving():
    params = Parameters(**REACTION)
    drift = oracle_self_consistency(params, (1.0, 1.0, 0.5), 5.0, 2000)
    assert drift < 1e-12


def test_oracle_rejects_bad_input():
    params = Parameters(**REACTION)
    with pytest.raises(StudyError):
        ode_oracle(params, (1.0, 1.0, 0.5), 1.0, 0)
    with pytest.raises(StudyError):
        ode_oracle(params, (1.0, 1.0), 1.0, 10)
    with pytest.raises(OracleError):
        # violent blow-up of the logistic term under a huge negative state
        ode_oracle(Parameters(mu=5.0, epsilon=0.01, chi=0.0), (-1e150, 1.0, 0.0), 1.0, 4)


def _numpy_rk4(params, y0, t_end, substeps):
    """RK4 on numpy 3-vectors, in the expression order of ode_oracle's
    Python-float loop, which must give the same bits."""

    def rhs(y):
        u, c, p = y
        return np.array([params.mu * u * (1.0 - u), -p * c, (u * c - p) / params.epsilon])

    h = t_end / substeps
    y = np.asarray(y0, dtype=float)
    times, states = [0.0], [y]
    for n in range(substeps):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * h * k1)
        k3 = rhs(y + 0.5 * h * k2)
        k4 = rhs(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        times.append((n + 1) * h)
        states.append(y)
    return np.array(times), np.array(states)


@pytest.mark.parametrize(
    "params,y0,t_end,substeps",
    [
        (Parameters(**REACTION), (0.5, 1.0, 0.25), 1.0, 4000),
        (Parameters(**REACTION), (1.0, 1.0, 0.5), 5.0, 2000),
        (Parameters(**REACTION), (1.0, 1.0, 0.5), 5.0, 4000),
        # coarse steps with rates that are not powers of two, where a
        # reordered sum or product moves the last bit of some state
        (Parameters(mu=0.7, epsilon=0.3, chi=0.0), (0.3, 1.25, 0.75), 3.0, 30),
        (Parameters(mu=3.0, epsilon=0.07, chi=0.0), (0.1, 2.0, 3.0), 2.0, 100),
        (Parameters(mu=2.3, epsilon=0.13, chi=0.0), (0.05, 1.7, 0.9), 4.0, 40),
    ],
)
def test_oracle_is_the_numpy_rk4_bit_for_bit(params, y0, t_end, substeps):
    traj = ode_oracle(params, y0, t_end, substeps)
    times, states = _numpy_rk4(params, y0, t_end, substeps)
    assert traj.times.tobytes() == times.tobytes()
    assert traj.states.tobytes() == states.tobytes()


def test_temporal_order_blended_scheme_second_order():
    study = temporal_order_study(0.5, (0.1, 0.05, 0.025, 0.0125))
    assert abs(study.estimated_order - 2.0) <= 0.1


def test_temporal_order_implicit_scheme_first_order():
    study = temporal_order_study(1.0, (0.1, 0.05, 0.025, 0.0125))
    assert abs(study.estimated_order - 1.0) <= 0.1


def test_order_study_rejects_degenerate_step_lists():
    with pytest.raises(StudyError):
        temporal_order_study(0.5, (0.1, 0.1))
    with pytest.raises(StudyError):
        temporal_order_study(0.5, (0.1,))
    with pytest.raises(StudyError):
        temporal_order_study(0.5, (0.1, 0.03))  # t_end not a multiple


def test_order_study_csv(tmp_path):
    study = temporal_order_study(0.5, (0.1, 0.05))
    path = tmp_path / "order.csv"
    write_order_study_csv(study, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "dt,error,estimated_order"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert float(first[0]) == 0.1
    assert first[2] == ""
    second = lines[2].split(",")
    assert abs(float(second[2]) - 2.0) < 0.3


def test_scaling_equivalence_identity_is_exact():
    cfg = parse_config(
        "chi = 1\nepsilon = 1\nmu = 1\nt_final = 2\nsnapshots = 1,2\nrefinements = 2\n"
    )
    check = scaling_equivalence(cfg)
    assert check.max_difference == 0.0


def test_scaling_equivalence_single_step_constant_regime():
    # one element, one step: both runs reduce to the same scalar recurrences
    cfg = parse_config(
        "chi = 4\nepsilon = 0.5\nmu = 0.5\ndt = 0.5\nt_final = 0.5\n"
        "snapshots = 0.5\nrefinements = 0\ndomain_max = 1\n"
        "tol_fp = 1e-13\n"
    )
    check = scaling_equivalence(cfg)
    assert check.max_difference <= 1e-12


def test_scaling_equivalence_small_invasion_problem():
    cfg = parse_config("refinements = 3\nt_final = 4\nsnapshots = 1,2,3,4\n")
    check = scaling_equivalence(cfg)
    assert check.max_difference <= 1e-7
    assert len(check.per_time) == 4


def test_element_crosscheck_against_independent_quadrature():
    report = element_matrix_crosscheck(n_random=50)
    assert report.worst <= 1e-13
    assert report.mass <= 1e-13
    assert report.stiffness <= 1e-13
    assert report.weighted_mass <= 1e-13
    assert report.haptotaxis <= 1e-13
    assert report.load <= 1e-13


def test_element_crosscheck_checks_the_assembly_the_stepper_calls(monkeypatch):
    original = fem.assemble_haptotaxis

    def perturbed(*args, **kwargs):
        m = original(*args, **kwargs)
        return DiaMatrix(m.n, m.offsets, m.data * (1.0 + 1e-6))

    monkeypatch.setattr(fem, "assemble_haptotaxis", perturbed)
    report = element_matrix_crosscheck(n_random=5)
    assert report.haptotaxis > 1e-13
    assert report.mass <= 1e-13


def test_scheme_matches_oracle_on_fine_steps():
    # constant-data run against the reference integrator: the committed
    # trajectory tracks the reaction ODEs
    from haptosim.mesh import build_structured_mesh
    from haptosim.stepper import simulate
    from haptosim.verify import constant_initial_data
    from haptosim.model import interpolate_initial_state

    mesh = build_structured_mesh(2, ((0.0, 1.0), (0.0, 1.0)), (1, 1), 0)
    y0 = (0.5, 1.0, 0.25)
    params = Parameters(
        chi=0.0, mu=0.5, epsilon=0.2, theta=0.5, dt=1e-3, t_final=1.0,
        tol_fp=1e-12, beta=1.0,
    )
    state0 = interpolate_initial_state(constant_initial_data(*y0), mesh)
    result = simulate(state0, params)
    reference = ode_oracle(params, y0, 1.0, 4000).endpoint
    endpoint = np.array(
        [result.state.u.coeffs[0], result.state.c.coeffs[0], result.state.p.coeffs[0]]
    )
    assert np.max(np.abs(endpoint - reference)) <= 1e-5
