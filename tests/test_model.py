import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from haptosim.mesh import InterpolationError, build_structured_mesh, interpolate
from haptosim.model import (
    MeshMismatchError,
    NonnegativityWarning,
    ParameterError,
    Parameters,
    SimState,
    corner_gaussian,
    interpolate_initial_state,
    rescale_to_unit_chi_eps,
)

UNIT = ((0.0, 1.0), (0.0, 1.0))


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(theta=1.5),
        dict(theta=-0.1),
        dict(beta=0.0),
        dict(beta=1.2),
        dict(dt=0.0),
        dict(mu=-1.0),
        dict(chi=-0.5),
        dict(epsilon=0.0),
        dict(tol_fp=0.0),
        dict(max_fp_iters=0),
        dict(t_final=-2.0),
        dict(alpha=math.inf),
        dict(tol_lin=0.0),
        dict(blowup_threshold=-1.0),
        dict(chi=math.inf),
    ],
)
def test_parameter_validation(kwargs):
    with pytest.raises(ParameterError):
        Parameters(**kwargs)


def test_parameter_defaults_match_documented_setup():
    p = Parameters()
    assert (p.alpha, p.epsilon, p.theta, p.dt, p.t_final, p.beta) == (
        10.0, 0.2, 0.5, 1.0, 50.0, 0.5,
    )
    assert p.tol_fp == 1e-8
    assert p.max_fp_iters == 100


def test_ringing_number_is_the_explicit_share_of_the_protease_decay():
    # the default scheme weights the old protease by 1 - 2.5 = -1.5
    assert Parameters().ringing_number == 2.5
    assert Parameters(theta=1.0).ringing_number == 0.0
    assert Parameters(theta=0.0, dt=0.1, epsilon=0.2).ringing_number == 0.5


def test_initial_data_at_origin_and_far_field():
    assert [f.tolist() for f in corner_gaussian(np.zeros((1, 2)))] == [[1.0], [0.5], [0.5]]
    u0, c0, p0 = corner_gaussian(np.array([[40.0, 40.0]]))
    assert u0[0] == pytest.approx(0.0, abs=1e-300)
    assert c0[0] == 1.0
    assert p0[0] == pytest.approx(0.0, abs=1e-300)


@given(
    x=st.floats(-5, 5), y=st.floats(-5, 5), z=st.floats(-5, 5),
    three_d=st.booleans(),
)
@settings(max_examples=50, deadline=None)
def test_initial_data_pointwise_identities(x, y, z, three_d):
    u0, c0, p0 = corner_gaussian(np.array([x, y, z] if three_d else [x, y]))
    assert c0 == 1.0 - p0
    assert p0 == 0.5 * u0


@pytest.mark.parametrize("dim", [2, 3])
def test_corner_gaussian_nodes_equal_the_per_point_formula(dim):
    # extents whose node coordinates round, so |x|^2 depends on the order
    # and fusion of its operations; the profiles take all nodes at once
    mesh = build_structured_mesh(dim, [(-1.3, 2.9)] * dim, (3,) * dim, 2)
    state = interpolate_initial_state(corner_gaussian, mesh)
    gauss = np.array([math.exp(-float(np.dot(x, x))) for x in mesh.node_coords()])
    assert state.u.coeffs.tobytes() == gauss.tobytes()
    assert state.c.coeffs.tobytes() == np.array([1.0 - 0.5 * g for g in gauss]).tobytes()
    assert state.p.coeffs.tobytes() == np.array([0.5 * g for g in gauss]).tobytes()


def test_interpolate_initial_state_warns_on_negative_data():
    mesh = build_structured_mesh(2, UNIT, (1, 1), 0)
    with pytest.warns(NonnegativityWarning, match="initial u"):
        state = interpolate_initial_state(lambda x: (-1.0, 1.0, 0.0), mesh)
    assert state.t == 0.0


def test_interpolate_initial_state_builds_the_nodes_once_and_calls_the_profile_once(
    monkeypatch,
):
    mesh = build_structured_mesh(3, ((0.0, 1.0),) * 3, (2, 2, 2), 0)
    node_coords = type(mesh).node_coords
    calls = {"node_coords": 0, "profile": 0}

    def counted_node_coords(self):
        calls["node_coords"] += 1
        return node_coords(self)

    def profile(x):
        calls["profile"] += 1
        return corner_gaussian(x)

    monkeypatch.setattr(type(mesh), "node_coords", counted_node_coords)
    interpolate_initial_state(profile, mesh)
    assert calls == {"node_coords": 1, "profile": 1}


@pytest.mark.parametrize("field", ["u", "c", "p"])
def test_nonfinite_initial_profile_names_field_node_and_point(field):
    mesh = build_structured_mesh(2, UNIT, (1, 1), 0)

    def profile(x):
        # nan at node 1, the corner x = (1, 0), in one field only
        bad = np.where((x[:, 0] == 1.0) & (x[:, 1] == 0.0), math.nan, 0.5)
        return tuple(bad if name == field else 0.5 for name in "ucp")

    message = rf"initial profile of {field} .* nan at node 1, x=\(1\.0, 0\.0\)"
    with pytest.raises(InterpolationError, match=message):
        interpolate_initial_state(profile, mesh)


def test_sim_state_requires_shared_mesh():
    mesh_a = build_structured_mesh(2, UNIT, (1, 1), 0)
    mesh_b = build_structured_mesh(2, UNIT, (1, 1), 0)
    u = interpolate(lambda x: 1.0, mesh_a)
    c = interpolate(lambda x: 1.0, mesh_a)
    p = interpolate(lambda x: 1.0, mesh_b)
    with pytest.raises(MeshMismatchError):
        SimState(0.0, u, c, p)


def test_rescaling_identity_when_already_unit():
    params = Parameters(alpha=10.0, chi=1.0, mu=1.0, epsilon=1.0)
    extents = ((0.0, 20.0), (0.0, 20.0))
    scaled = rescale_to_unit_chi_eps(params, extents, corner_gaussian)
    assert scaled.params == params
    assert scaled.extents == extents
    x = np.array([1.3, 2.7])
    assert scaled.profile(x) == corner_gaussian(x)


def test_rescaling_documented_example():
    params = Parameters(alpha=10.0, chi=0.01, mu=0.5, epsilon=0.2, dt=1.0, t_final=50.0)
    extents = ((0.0, 20.0), (0.0, 20.0))
    scaled = rescale_to_unit_chi_eps(params, extents, corner_gaussian)
    assert scaled.params.alpha == pytest.approx(0.5, rel=1e-15)
    assert scaled.params.mu == pytest.approx(0.1, rel=1e-15)
    assert scaled.params.chi == 1.0
    assert scaled.params.epsilon == 1.0
    assert scaled.params.dt == pytest.approx(5.0, rel=1e-15)
    assert scaled.params.t_final == pytest.approx(250.0, rel=1e-15)
    assert scaled.extents[0][1] == pytest.approx(200.0, rel=1e-15)


def test_rescaling_requires_positive_chi():
    params = Parameters(chi=0.0)
    with pytest.raises(ParameterError):
        rescale_to_unit_chi_eps(params, ((0.0, 1.0), (0.0, 1.0)), corner_gaussian)


def test_rescaled_initial_data_formulas():
    params = Parameters(chi=4.0, epsilon=0.5)
    scaled = rescale_to_unit_chi_eps(params, ((0.0, 2.0), (0.0, 2.0)), corner_gaussian)
    x = np.array([0.7, 0.3])
    u0, c0, p0 = corner_gaussian(2.0 * x)
    # stretched coordinates carry sqrt(chi), amplitudes carry epsilon
    assert scaled.profile(x) == (u0, 0.5 * c0, 0.5 * p0)


def test_rescaled_profile_is_called_once_per_call():
    calls = []

    def profile(x):
        calls.append(x.copy())
        return 1.0, 2.0, 3.0

    scaled = rescale_to_unit_chi_eps(Parameters(chi=4.0, epsilon=0.5), UNIT, profile)
    assert scaled.profile(np.array([[0.5, 0.25]])) == (1.0, 1.0, 1.5)
    assert len(calls) == 1 and calls[0].tolist() == [[1.0, 0.5]]
