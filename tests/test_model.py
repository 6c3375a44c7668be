import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from haptosim.mesh import build_structured_mesh, interpolate
from haptosim.model import (
    InitialData,
    MeshMismatchError,
    NonnegativityWarning,
    ParameterError,
    Parameters,
    SimState,
    corner_gaussian_initial_data,
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
    data = corner_gaussian_initial_data()
    origin = np.zeros(2)
    assert data.u0(origin) == 1.0
    assert data.c0(origin) == 0.5
    assert data.p0(origin) == 0.5
    far = np.array([40.0, 40.0])
    assert data.u0(far) == pytest.approx(0.0, abs=1e-300)
    assert data.c0(far) == 1.0
    assert data.p0(far) == pytest.approx(0.0, abs=1e-300)


@given(
    x=st.floats(-5, 5), y=st.floats(-5, 5), z=st.floats(-5, 5),
    three_d=st.booleans(),
)
@settings(max_examples=50, deadline=None)
def test_initial_data_pointwise_identities(x, y, z, three_d):
    data = corner_gaussian_initial_data()
    point = np.array([x, y, z] if three_d else [x, y])
    assert data.c0(point) == 1.0 - data.p0(point)
    assert data.p0(point) == 0.5 * data.u0(point)


@pytest.mark.parametrize("dim", [2, 3])
def test_corner_gaussian_nodes_equal_the_per_point_formula(dim):
    # extents whose node coordinates round, so |x|^2 depends on the order
    # and fusion of its operations; the profiles take all nodes at once
    mesh = build_structured_mesh(dim, [(-1.3, 2.9)] * dim, (3,) * dim, 2)
    state = interpolate_initial_state(corner_gaussian_initial_data(), mesh)
    gauss = np.array([math.exp(-float(np.dot(x, x))) for x in mesh.node_coords()])
    assert state.u.coeffs.tobytes() == gauss.tobytes()
    assert state.c.coeffs.tobytes() == np.array([1.0 - 0.5 * g for g in gauss]).tobytes()
    assert state.p.coeffs.tobytes() == np.array([0.5 * g for g in gauss]).tobytes()


def test_interpolate_initial_state_warns_on_negative_data():
    mesh = build_structured_mesh(2, UNIT, (1, 1), 0)
    data = InitialData(lambda x: -1.0, lambda x: 1.0, lambda x: 0.0)
    with pytest.warns(NonnegativityWarning):
        state = interpolate_initial_state(data, mesh)
    assert state.t == 0.0


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
    initial = corner_gaussian_initial_data()
    extents = ((0.0, 20.0), (0.0, 20.0))
    scaled = rescale_to_unit_chi_eps(params, extents, initial)
    assert scaled.params == params
    assert scaled.extents == extents
    x = np.array([1.3, 2.7])
    assert scaled.initial.u0(x) == initial.u0(x)
    assert scaled.initial.c0(x) == initial.c0(x)


def test_rescaling_documented_example():
    params = Parameters(alpha=10.0, chi=0.01, mu=0.5, epsilon=0.2, dt=1.0, t_final=50.0)
    extents = ((0.0, 20.0), (0.0, 20.0))
    scaled = rescale_to_unit_chi_eps(params, extents, corner_gaussian_initial_data())
    assert scaled.params.alpha == pytest.approx(0.5, rel=1e-15)
    assert scaled.params.mu == pytest.approx(0.1, rel=1e-15)
    assert scaled.params.chi == 1.0
    assert scaled.params.epsilon == 1.0
    assert scaled.params.dt == pytest.approx(5.0, rel=1e-15)
    assert scaled.extents[0][1] == pytest.approx(200.0, rel=1e-15)
    assert scaled.time_factor == pytest.approx(5.0, rel=1e-15)


def test_rescaling_requires_positive_chi():
    params = Parameters(chi=0.0)
    with pytest.raises(ParameterError):
        rescale_to_unit_chi_eps(params, ((0.0, 1.0), (0.0, 1.0)),
                                corner_gaussian_initial_data())


def test_rescaled_initial_data_formulas():
    params = Parameters(chi=4.0, epsilon=0.5)
    initial = corner_gaussian_initial_data()
    scaled = rescale_to_unit_chi_eps(params, ((0.0, 2.0), (0.0, 2.0)), initial)
    x = np.array([0.7, 0.3])
    # stretched coordinates carry sqrt(chi), amplitudes carry epsilon
    assert scaled.initial.u0(x) == pytest.approx(initial.u0(2.0 * x), rel=1e-15)
    assert scaled.initial.c0(x) == pytest.approx(0.5 * initial.c0(2.0 * x), rel=1e-15)
    assert scaled.initial.p0(x) == pytest.approx(0.5 * initial.p0(2.0 * x), rel=1e-15)
