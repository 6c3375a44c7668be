"""Self-tests of the benchmark's checks.

Each check must pass on a real result of the program and fail on a copy of
it perturbed just past the check's tolerance.  Run from the repository root
(about 15 s):

    PYTHONPATH=src python3 -m pytest perfbench/selftest_checks.py
"""

import copy

import numpy as np
import pytest
from haptosim import verify
from haptosim.model import Parameters

import checks
import tracing
import workloads


def _member(text, out, initial=None):
    member = workloads.run_member(workloads.Round(), text, out, initial)
    assert member is not None
    return member


@pytest.fixture(scope="module")
def peaks_run(tmp_path_factory):
    """The peaks2d configuration up to the last published time, t = 35."""
    text = workloads.PEAKS2D.replace("t_final = 50", "t_final = 35")
    return _member(text, tmp_path_factory.mktemp("peaks2d"))


def test_peaks_fail_two_percent_off(peaks_run):
    real = workloads.peaks(peaks_run.csv_path)
    assert checks.check_peaks(real) == []
    for t in checks.PUBLISHED_PEAKS:
        for factor in (1.02, 0.98):
            assert checks.check_peaks({**real, t: real[t] * factor})


def test_mass_fails_on_a_drift_of_1e_6(peaks_run):
    mesh = peaks_run.result.state.mesh
    series = list(peaks_run.u_series)
    assert checks.check_mass(series, mesh.cells_per_axis, mesh.spacing) == []
    series[-1] = series[-1] * (1.0 + 1e-6)
    assert checks.check_mass(series, mesh.cells_per_axis, mesh.spacing)


def test_trapezoid_weights_integrate_q1_exactly():
    # x*y on [0,2]x[0,3] integrates to 9; bilinear, so the rule is exact
    cells, spacing = (4, 6), (0.5, 0.5)
    x = np.arange(cells[0] + 1) * spacing[0]
    y = np.arange(cells[1] + 1) * spacing[1]
    values = np.multiply.outer(y, x).ravel()  # first axis fastest
    assert checks.trapezoid_weights(cells, spacing) @ values == pytest.approx(9.0, abs=1e-13)


def _assert_symmetry_check_catches_one_node(state):
    cells = state.mesh.cells_per_axis
    real = workloads.fields(state)
    assert checks.check_axis_symmetry(real, cells) == []
    node = 3 + (cells[0] + 1) * 1  # (x, y) = (3, 1)h, off every diagonal
    for name in real:
        bent = copy.deepcopy(real)
        bent[name][node] += 1e-8
        assert checks.check_axis_symmetry(bent, cells)


def test_2d_symmetry_fails_on_one_node_off_by_1e_8(peaks_run):
    _assert_symmetry_check_catches_one_node(peaks_run.result.state)


def test_3d_symmetry_fails_on_one_node_off_by_1e_8(tmp_path):
    # invasion3d's configuration on a 4^3 grid for one step
    text = workloads.INVASION3D.replace("refinements = 5", "refinements = 2")
    n = workloads.INVASION3D_STEPS
    text = text.replace(f"t_final = {n}\nsnapshots = {n}\n", "t_final = 1\nsnapshots = 1\n")
    _assert_symmetry_check_catches_one_node(_member(text, tmp_path).result.state)


@pytest.fixture(scope="module")
def order_csvs(tmp_path_factory):
    out = tmp_path_factory.mktemp("order_study")
    assert workloads.order_study(out).failed == 0
    return workloads.order_csv_paths(out)


def test_slope_check_fails_on_a_fitted_order_of_1_8(order_csvs):
    real = workloads.order_slopes(order_csvs)
    assert checks.check_slopes(real) == []
    assert checks.check_slopes({**real, 0.5: 1.8})
    assert checks.check_slopes({**real, 1.0: 1.2})


def test_reference_endpoint_agrees_with_the_rk4_oracle():
    params = Parameters(mu=0.5, epsilon=0.2, chi=0.0)
    rk4 = verify.ode_oracle(params, workloads.ORDER_Y0, 1.0, 4000).endpoint
    reference = checks.reaction_endpoint(workloads.ORDER_Y0, 0.5, 0.2, 1.0)
    assert np.max(np.abs(reference - rk4)) < 1e-12


def test_trace_consistency_fails_on_a_miscount(tmp_path):
    tracer = tracing.Tracer()
    with tracer.installed():
        rnd = workloads.order_study(tmp_path)
    assert rnd.failures == []
    real = tracing.layer_metrics(tracer.spans, rnd.sweeps_per_step, rnd.vtk_bytes)
    assert checks.check_trace_consistency("order_study", real, rnd.members) == []
    assert real["linsolve.dense_solves"] == real["linsolve.solves"]
    for key in ("linsolve.solves", "fem.weighted_mass_calls", "fem.product_load_calls",
                "fem.haptotaxis_calls", "linsolve.krylov_solves"):
        assert checks.check_trace_consistency(
            "order_study", {**real, key: real[key] + 1}, rnd.members
        )
    assert checks.check_trace_consistency(
        "invasion3d", {**real, "linsolve.lu_factorizations": 1}, rnd.members
    )
