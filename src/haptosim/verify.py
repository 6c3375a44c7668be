"""Independent oracles and study harnesses.

Four checks certify the solver from the outside:

* a classical fourth-order one-step integrator for the spatially constant
  reduction of the system (the reaction ODEs), used as the reference for
  temporal-order measurements;
* a temporal-order study fitting the error-vs-step-size slope;
* an exact-equivalence check of the parameter rescaling on the fully
  discrete level;
* a cross-check of the assembled forms, on single-element meshes, against
  an independently coded high-order quadrature.

The order study starts from :func:`constant_initial_data`, the initial
profile with the same (u, c, p) at every point; the rescaling check starts
from a config's own profile and from its rescaled twin.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import fem
from .iocfg import RunConfig
from .mesh import build_structured_mesh
from .model import Parameters, interpolate_initial_state, rescale_to_unit_chi_eps
from .stepper import run, simulate


class OracleError(RuntimeError):
    """The reference integrator produced a non-finite state."""


class StudyError(RuntimeError):
    """A study harness received degenerate input or a run failed."""


@dataclass(frozen=True)
class OdeTrajectory:
    """Reference trajectory of the spatially constant reduction."""

    times: np.ndarray
    states: np.ndarray  # (n_times, 3) columns u, c, p

    @property
    def endpoint(self) -> np.ndarray:
        return self.states[-1]


def ode_oracle(params: Parameters, y0, t_end, substeps) -> OdeTrajectory:
    """Integrate the constant-in-space reduction with classical RK4.

    For spatially constant states the diffusion and drift terms vanish and
    the system reduces to three coupled scalar ODEs.  They are stepped in
    Python floats: on three unknowns numpy's per-call overhead would
    dominate, and the float operations are the same IEEE ones.
    """
    substeps = int(substeps)
    if substeps < 1:
        raise StudyError(f"substeps must be >= 1, got {substeps}")
    h = float(t_end) / substeps
    y = np.asarray(y0, dtype=float)
    if y.shape != (3,):
        raise StudyError(f"initial state must be (u, c, p), got shape {y.shape}")
    mu, eps = float(params.mu), float(params.epsilon)

    def rhs(u, c, p):
        return mu * u * (1.0 - u), -p * c, (u * c - p) / eps

    half, sixth = 0.5 * h, h / 6.0
    u, c, p = y.tolist()
    states = [(u, c, p)]
    for n in range(1, substeps + 1):
        u1, c1, p1 = rhs(u, c, p)
        u2, c2, p2 = rhs(u + half * u1, c + half * c1, p + half * p1)
        u3, c3, p3 = rhs(u + half * u2, c + half * c2, p + half * p2)
        u4, c4, p4 = rhs(u + h * u3, c + h * c3, p + h * p3)
        u = u + sixth * (u1 + 2.0 * u2 + 2.0 * u3 + u4)
        c = c + sixth * (c1 + 2.0 * c2 + 2.0 * c3 + c4)
        p = p + sixth * (p1 + 2.0 * p2 + 2.0 * p3 + p4)
        if not (math.isfinite(u) and math.isfinite(c) and math.isfinite(p)):
            raise OracleError(f"non-finite reference state at t = {n * h}")
        states.append((u, c, p))
    return OdeTrajectory(np.arange(substeps + 1) * h, np.array(states))


def constant_initial_data(u0: float, c0: float, p0: float):
    """The initial profile with the same (u0, c0, p0) at every point."""
    return lambda x: (u0, c0, p0)


@dataclass(frozen=True)
class OrderStudy:
    """Endpoint errors against the reference integrator per step size."""

    theta: float
    dts: tuple[float, ...]
    errors: tuple[float, ...]
    estimated_order: float


# the order study's problem: constant data (u, c, p) = ORDER_Y0 integrated
# to ORDER_T_END without drift; the reference takes ORDER_REFERENCE_SUBSTEPS
ORDER_Y0 = (0.5, 1.0, 0.25)
ORDER_T_END = 1.0
ORDER_MU = 0.5
ORDER_EPSILON = 0.2
ORDER_REFERENCE_SUBSTEPS = 4000


def temporal_order_study(theta, dts) -> OrderStudy:
    """Measure the temporal order on spatially constant data.

    Runs the full scheme on a single-element mesh (where it reduces to the
    nodal reaction ODEs), compares endpoints against the reference
    integrator, and fits the log-log slope by least squares.  A step size
    that does not divide ORDER_T_END raises StudyError when its run is
    reached.
    """
    dts = tuple(float(dt) for dt in dts)
    if len(dts) < 2 or len(set(dts)) != len(dts):
        raise StudyError(f"need at least two distinct step sizes, got {dts}")

    mesh = build_structured_mesh(2, ((0.0, 1.0), (0.0, 1.0)), (1, 1), 0)
    profile = constant_initial_data(*ORDER_Y0)
    reference = ode_oracle(
        Parameters(mu=ORDER_MU, epsilon=ORDER_EPSILON, chi=0.0), ORDER_Y0, ORDER_T_END,
        ORDER_REFERENCE_SUBSTEPS,
    ).endpoint

    errors = []
    for dt in dts:
        # beta = 1: the committed limit is relaxation-independent and the
        # unrelaxed sweep converges fastest on constant data
        params = Parameters(
            chi=0.0, mu=ORDER_MU, epsilon=ORDER_EPSILON, theta=theta, dt=dt,
            t_final=ORDER_T_END, tol_fp=1e-12, max_fp_iters=500, beta=1.0,
        )
        state0 = interpolate_initial_state(profile, mesh)
        try:
            result = simulate(state0, params)
        except Exception as exc:
            raise StudyError(f"run with dt = {dt} failed: {exc}") from exc
        endpoint = np.array(
            [
                result.state.u.coeffs[0],
                result.state.c.coeffs[0],
                result.state.p.coeffs[0],
            ]
        )
        errors.append(float(np.max(np.abs(endpoint - reference))))

    log_dt = np.log(np.asarray(dts))
    log_err = np.log(np.asarray(errors))
    slope = float(np.polyfit(log_dt, log_err, 1)[0])
    return OrderStudy(theta, dts, tuple(errors), slope)


def write_order_study_csv(study: OrderStudy, path) -> None:
    """Emit an order study as CSV with columns dt, error, estimated_order.

    The order column holds the pairwise estimate between consecutive step
    sizes (blank for the first row).
    """
    with open(path, "w", encoding="ascii") as fh:
        fh.write("dt,error,estimated_order\n")
        for k, (dt, err) in enumerate(zip(study.dts, study.errors)):
            if k == 0:
                order = ""
            else:
                order = repr(
                    float(
                        np.log(study.errors[k - 1] / err)
                        / np.log(study.dts[k - 1] / dt)
                    )
                )
            fh.write(f"{dt!r},{err!r},{order}\n")


@dataclass(frozen=True)
class ScalingCheck:
    """Largest nodal discrepancy between a run and its rescaled twin."""

    max_difference: float
    per_time: tuple[tuple[float, float], ...]  # (snapshot time, max diff)


def scaling_equivalence(config: RunConfig) -> ScalingCheck:
    """Run a problem and its unit-chi/unit-epsilon transform; compare nodally.

    The two grids are index-aligned (same topology, coordinates shrunk by
    1/sqrt(chi)), the transformed run uses time step dt/epsilon, and the
    matrix/protease fields are mapped back by the factor 1/epsilon.  The
    fully discrete equations transform exactly, so the committed solutions
    agree up to fixed-point tolerances.
    """
    params = config.params
    result = run(config)
    if result.breakdown is not None:
        raise StudyError(f"original run broke down: {result.breakdown}")

    scaled = rescale_to_unit_chi_eps(params, config.extents, config.initial_data())
    mesh2 = build_structured_mesh(
        config.dim, scaled.extents, config.base_cells, config.refinements
    )
    if mesh2.n_nodes != result.state.mesh.n_nodes:
        raise StudyError("transformed grid topology does not match the original")
    # times divide by epsilon and c, p carry a factor epsilon in the transform
    back = 1.0 / params.epsilon
    result2 = simulate(
        interpolate_initial_state(scaled.profile, mesh2), scaled.params,
        snapshot_times=tuple(t * back for t in config.snapshots),
    )
    if result2.breakdown is not None:
        raise StudyError(f"transformed run broke down: {result2.breakdown}")

    if len(result.snapshots) != len(result2.snapshots):
        raise StudyError("snapshot counts differ between the two runs")
    per_time = []
    for (t1, s1), (_, s2) in zip(result.snapshots, result2.snapshots):
        diff = max(
            float(np.max(np.abs(s1.u.coeffs - s2.u.coeffs))),
            float(np.max(np.abs(s1.c.coeffs - back * s2.c.coeffs))),
            float(np.max(np.abs(s1.p.coeffs - back * s2.p.coeffs))),
        )
        per_time.append((t1, diff))
    overall = max((d for _, d in per_time), default=0.0)
    return ScalingCheck(overall, tuple(per_time))


# --- element-integral cross-check ------------------------------------------

def _oracle_gauss_1d(n):
    return np.polynomial.legendre.leggauss(n)


def _reference_corners(dim):
    """Reference-cell corners in the canonical local vertex ordering of
    :mod:`haptosim.mesh`."""
    base = ((0, 0), (1, 0), (1, 1), (0, 1))
    if dim == 2:
        return np.array(base, dtype=float)
    if dim == 3:
        return np.array(
            [(x, y, 0) for x, y in base] + [(x, y, 1) for x, y in base], dtype=float
        )
    raise StudyError(f"dim must be 2 or 3, got {dim}")


def _oracle_basis(dim, point):
    """Independently coded Q1 basis values and gradients at one point."""
    corners = _reference_corners(dim)
    nl = corners.shape[0]
    vals = np.ones(nl)
    grads = np.ones((nl, dim))
    for l in range(nl):
        for d in range(dim):
            xi = point[d]
            f = xi if corners[l, d] == 1.0 else 1.0 - xi
            df = 1.0 if corners[l, d] == 1.0 else -1.0
            vals[l] *= f
            for g in range(dim):
                grads[l, g] *= df if g == d else f
    return vals, grads


def _oracle_integrate(dim, sizes, kernel, n_gauss=5):
    """Tensor Gauss integration of ``kernel(values, physical_grads)`` over an
    axis-aligned element, written as plain loops independent of the assembly
    path."""
    x1, w1 = _oracle_gauss_1d(n_gauss)
    x1 = 0.5 * (x1 + 1.0)
    w1 = 0.5 * w1
    total = None
    ranges = [range(n_gauss)] * dim
    for multi in itertools.product(*ranges):
        point = np.array([x1[i] for i in multi])
        weight = float(np.prod([w1[i] for i in multi])) * float(np.prod(sizes))
        vals, ref_grads = _oracle_basis(dim, point)
        phys_grads = ref_grads / np.asarray(sizes)[None, :]
        contribution = weight * kernel(vals, phys_grads)
        total = contribution if total is None else total + contribution
    return total


@dataclass(frozen=True)
class CrosscheckReport:
    """Largest deviations between the assembled element forms and the oracle."""

    mass: float
    stiffness: float
    weighted_mass: float
    haptotaxis: float
    load: float

    @property
    def worst(self) -> float:
        return max(self.mass, self.stiffness, self.weighted_mass,
                   self.haptotaxis, self.load)


def _haptotaxis_kernel(v, g, c):
    grad_c = g.T @ c  # physical gradient of the interpolant
    return np.outer(g @ grad_c, v)  # row = test index


_ORACLE_KERNELS = {
    "mass": lambda v, g: np.outer(v, v),
    "stiffness": lambda v, g: g @ g.T,
    "weighted_mass": lambda v, g, w: float(v @ w) * np.outer(v, v),
    "haptotaxis": _haptotaxis_kernel,
    "load": lambda v, g, a, b: float(v @ a) * float(v @ b) * v,
}


def oracle_form(name, sizes, *coefficients) -> np.ndarray:
    """The element form ``name`` (a :class:`CrosscheckReport` field) on an
    axis-aligned element with the given edge lengths, by the independent
    5-point rule; ``coefficients`` are nodal values in local order."""
    kernel = _ORACLE_KERNELS[name]
    return _oracle_integrate(
        len(sizes), sizes, lambda v, g: kernel(v, g, *coefficients)
    )


def element_form(assemble, sizes, *coefficients) -> np.ndarray:
    """``assemble(mesh, *coefficients)`` on the one-element mesh
    [0, s_1] x ... x [0, s_dim], read back in the canonical local vertex
    ordering.  On that mesh the global matrix (or load vector) is the element
    one; ``coefficients`` are nodal values in local order."""
    dim = len(sizes)
    mesh = build_structured_mesh(dim, [(0.0, s) for s in sizes], (1,) * dim, 0)
    local = mesh.elements()[0]  # local-to-global map, e.g. [0, 1, 3, 2] in 2D
    nodal = []
    for values in coefficients:
        v = np.empty(mesh.n_nodes)
        v[local] = values
        nodal.append(v)
    form = assemble(mesh, *nodal)
    if isinstance(form, np.ndarray):
        return form[local]
    columns = [form.matvec(e) for e in np.eye(mesh.n_nodes)]  # exact: A e_j
    return np.column_stack(columns)[np.ix_(local, local)]


def element_matrix_crosscheck(n_random=50, seed=20260809) -> CrosscheckReport:
    """Compare every assembled form against the independent 5-point rule on
    random axis-aligned single-element meshes with random coefficients, in
    2D and 3D.  The forms are the ``fem.assemble_*`` functions the stepper
    calls."""
    rng = np.random.default_rng(seed)
    dev = {"mass": 0.0, "stiffness": 0.0, "weighted_mass": 0.0,
           "haptotaxis": 0.0, "load": 0.0}

    for dim in (2, 3):
        nl = 2**dim
        cases = [np.ones(dim)] + [
            rng.uniform(0.1, 3.0, size=dim) for _ in range(n_random)
        ]
        for sizes in cases:
            w = rng.uniform(-2.0, 2.0, size=nl)
            c = rng.uniform(-2.0, 2.0, size=nl)
            a = rng.uniform(-2.0, 2.0, size=nl)
            b = rng.uniform(-2.0, 2.0, size=nl)
            for name, assemble, coefficients in (
                ("mass", fem.assemble_mass, ()),
                ("stiffness", fem.assemble_stiffness, ()),
                ("weighted_mass", fem.assemble_weighted_mass, (w,)),
                ("haptotaxis", fem.assemble_haptotaxis, (c,)),
                ("load", fem.assemble_product_load, (a, b)),
            ):
                assembled = element_form(assemble, sizes, *coefficients)
                ref = oracle_form(name, sizes, *coefficients)
                dev[name] = max(dev[name], float(np.max(np.abs(assembled - ref))))

    return CrosscheckReport(**dev)


def oracle_self_consistency(params: Parameters, y0, t_end, substeps) -> float:
    """Relative endpoint change when halving the reference step count."""
    coarse = ode_oracle(params, y0, t_end, substeps).endpoint
    fine = ode_oracle(params, y0, t_end, 2 * substeps).endpoint
    scale = max(float(np.max(np.abs(fine))), 1e-30)
    return float(np.max(np.abs(fine - coarse))) / scale
