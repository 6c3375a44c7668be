"""The three benchmark workloads, one per path of ``linsolve.solve``.

A round is one run of a workload, from the config text to the last output
file written; it returns its timings, the counts the trace checks need and
the failures of its correctness checks.  The workloads use no random input.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from haptosim import iocfg, model, stepper, verify

import checks
from hostspeed import clock

REFERENCE_2D = """\
dim = 2
domain_min = 0
domain_max = 20
base_cells = 1
refinements = 5
alpha = 10
epsilon = 0.2
theta = 0.5
dt = 1
beta = 0.5
tol_fp = 1e-8
max_fp_iters = 100
tol_lin = 1e-12
"""

# Criterion 1's run: 32x32 cells, 1089 unknowns, so every solve is a sparse LU.
PEAKS2D = REFERENCE_2D + """\
chi = 0.01
mu = 1e-10
t_final = 50
snapshots = 5, 15, 25, 35
"""

# Criterion 8's run cut to its first steps: 32^3 cells, 35,937 unknowns,
# above DIRECT_LIMIT, so the solves take the Krylov path.
INVASION3D_STEPS = 1
INVASION3D = REFERENCE_2D.replace("dim = 2", "dim = 3") + f"""\
chi = 1
mu = 1
t_final = {INVASION3D_STEPS}
snapshots = {INVASION3D_STEPS}
"""

# Criterion 5's order study: one element, 4 unknowns, so the dense path.
ORDER_Y0 = (0.5, 1.0, 0.25)
ORDER_DTS = (0.1, 0.05, 0.025, 0.0125)
ORDER_THETAS = (0.5, 1.0)
ORDER_STUDY = """\
dim = 2
domain_min = 0
domain_max = 1
base_cells = 1
refinements = 0
chi = 0
mu = 0.5
epsilon = 0.2
t_final = 1
beta = 1
tol_fp = 1e-12
max_fp_iters = 500
snapshots =
theta = {theta}
dt = {dt}
"""


@dataclass
class Round:
    """Measurements and check outcomes of one run of a workload."""

    wall_s: float = 0.0
    setup_s: list[float] = field(default_factory=list)
    step_s: list[float] = field(default_factory=list)
    sweeps_per_step: list[int] = field(default_factory=list)
    members: list[tuple] = field(default_factory=list)  # (theta, chi, mu, steps, sweeps)
    finals: list[np.ndarray] = field(default_factory=list)
    vtk_bytes: int = 0
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)  # of the failed operations
    failures: list[str] = field(default_factory=list)  # of the checks

    @property
    def sweeps(self) -> int:
        return sum(self.sweeps_per_step)


def setup(text: str, initial=None):
    """Parse the config, build the mesh, interpolate u, c, p, build Operators."""
    config = iocfg.parse_config(text)
    mesh = config.build_mesh()
    state0 = model.interpolate_initial_state(initial or config.initial_data(), mesh)
    return config, state0, stepper.Operators(mesh)


class Member(NamedTuple):
    """What one completed configuration leaves for the checks."""

    wall_s: float
    result: stepper.RunResult
    u_series: list[np.ndarray]  # u of the initial and every committed state
    csv_path: Path


def run_member(rnd: Round, text: str, out: Path, initial=None) -> Member | None:
    """Set up, simulate and write the outputs of one configuration.

    Timings and counts go into ``rnd``; a failed operation returns None.
    """
    rnd.attempted += 1
    t0 = clock()
    config, state0, ops = setup(text, initial)
    marks = [clock()]
    u_series = [state0.u.coeffs]

    def on_step(n, state):
        marks.append(clock())
        u_series.append(state.u.coeffs)

    try:
        result = stepper.simulate(
            state0, config.params, snapshot_times=config.snapshots, ops=ops, on_step=on_step
        )
    except (stepper.NonconvergenceError, stepper.StepError) as exc:
        rnd.failed += 1
        rnd.errors.append(f"{type(exc).__name__}: {exc}")
        return None
    vtk_paths = [out / f"snapshot_t{t:g}.vtk" for t, _ in result.snapshots]
    for path, (_, state) in zip(vtk_paths, result.snapshots):
        iocfg.write_vtk(state, path)
    csv_path = out / "diagnostics.csv"
    iocfg.write_diagnostics_csv(result.diagnostics, csv_path)
    t_end = clock()

    rnd.setup_s.append(marks[0] - t0)
    rnd.step_s.extend(np.diff(marks).tolist())
    fp = [r.fp_iters for r in result.diagnostics[1:]]
    rnd.sweeps_per_step.extend(fp)
    p = config.params
    rnd.members.append((p.theta, p.chi, p.mu, len(fp), sum(fp)))
    rnd.finals.extend(fields(result.state).values())
    rnd.vtk_bytes += sum(path.stat().st_size for path in vtk_paths)
    if result.breakdown is not None:
        rnd.failures.append(f"breakdown: {result.breakdown}")
    if len(fp) != config.n_steps:
        rnd.failures.append(f"{len(fp)} of {config.n_steps} steps committed")
    return Member(t_end - t0, result, u_series, csv_path)


def fields(state) -> dict[str, np.ndarray]:
    return {"u": state.u.coeffs, "c": state.c.coeffs, "p": state.p.coeffs}


def peaks(csv_path: Path) -> dict[float, float]:
    """Max u at the published times, read from a diagnostics CSV."""
    rows = checks.read_csv(csv_path)
    return {r["time"]: r["max_u"] for r in rows if r["time"] in checks.PUBLISHED_PEAKS}


def peaks2d(out: Path) -> Round:
    rnd = Round()
    member = run_member(rnd, PEAKS2D, out)
    if member is None:
        return rnd
    rnd.wall_s = member.wall_s
    mesh = member.result.state.mesh
    rnd.failures += checks.check_peaks(peaks(member.csv_path))
    rnd.failures += checks.check_mass(member.u_series, mesh.cells_per_axis, mesh.spacing)
    rnd.failures += checks.check_axis_symmetry(
        fields(member.result.state), mesh.cells_per_axis
    )
    return rnd


def invasion3d(out: Path) -> Round:
    rnd = Round()
    member = run_member(rnd, INVASION3D, out)
    if member is None:
        return rnd
    rnd.wall_s = member.wall_s
    state = member.result.state
    rnd.failures += checks.check_axis_symmetry(fields(state), state.mesh.cells_per_axis)
    return rnd


def order_study(out: Path) -> Round:
    rnd = Round()
    initial = verify.constant_initial_data(*ORDER_Y0)
    t0 = clock()
    for (theta, dt), csv_path in order_csv_paths(out).items():
        csv_path.parent.mkdir(parents=True, exist_ok=True)
        run_member(rnd, ORDER_STUDY.format(theta=theta, dt=dt), csv_path.parent, initial)
    rnd.wall_s = clock() - t0
    if not rnd.failed:
        rnd.failures += checks.check_slopes(order_slopes(order_csv_paths(out)))
    return rnd


def order_csv_paths(out: Path) -> dict[tuple[float, float], Path]:
    """Where the order study writes the diagnostics of each (theta, dt)."""
    return {
        (theta, dt): out / f"theta{theta:g}_dt{dt:g}" / "diagnostics.csv"
        for theta in ORDER_THETAS
        for dt in ORDER_DTS
    }


def order_slopes(csv_paths: dict[tuple[float, float], Path]) -> dict[float, float]:
    """Fitted temporal order per theta, from each member's last CSV row.

    On one element with constant data the fields stay spatially constant,
    so the row's max columns are the endpoint (u, c, p).
    """
    params = iocfg.parse_config(ORDER_STUDY.format(theta=1, dt=1)).params
    reference = checks.reaction_endpoint(ORDER_Y0, params.mu, params.epsilon, params.t_final)
    slopes = {}
    for theta in ORDER_THETAS:
        errors = []
        for dt in ORDER_DTS:
            last = checks.read_csv(csv_paths[theta, dt])[-1]
            got = np.array([last["max_u"], last["max_c"], last["max_p"]])
            errors.append(float(np.max(np.abs(got - reference))))
        slopes[theta] = checks.fitted_slope(ORDER_DTS, errors)
    return slopes


WORKLOADS = {
    "peaks2d": (PEAKS2D, None, peaks2d),
    "invasion3d": (INVASION3D, None, invasion3d),
    "order_study": (
        ORDER_STUDY.format(theta=0.5, dt=ORDER_DTS[-1]),
        verify.constant_initial_data(*ORDER_Y0),
        order_study,
    ),
}
