"""Correctness checks for the benchmark workloads.

Every check compares a result with a value computed here, apart from the
program (published peaks, a trapezoid rule, axis symmetry of the grid, a
closed-form logistic curve and a DOP853 solution), never with a stored copy
of an earlier output.  Each returns a list of failure messages; an empty
list means the check passed.
"""

from __future__ import annotations

import csv
import itertools
import math

import numpy as np

# Peak cell density (max nodal u) of the mu = 1e-10, chi = 0.01 reference run.
PUBLISHED_PEAKS = {5.0: 0.3106, 15.0: 0.1348, 25.0: 0.08619, 35.0: 0.06333}
PEAK_RTOL = 0.01
# The zero-flux Galerkin scheme conserves int u up to the logistic source,
# which changes it by about mu * t = 5e-9 over the run.
MASS_RTOL = 1e-7
SYMMETRY_TOL = 1e-10
EXPECTED_ORDER = {0.5: 2.0, 1.0: 1.0}
ORDER_TOL = 0.1


def read_csv(path) -> list[dict[str, float]]:
    """Rows of a diagnostics CSV as dicts of floats."""
    with open(path, newline="", encoding="ascii") as fh:
        return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]


def check_peaks(peaks: dict[float, float]) -> list[str]:
    """Max u at each published time lies within PEAK_RTOL of the paper."""
    failures = []
    for t, ref in PUBLISHED_PEAKS.items():
        got = peaks.get(t)
        if got is None:
            failures.append(f"no max u at t = {t:g}")
        elif not abs(got - ref) <= PEAK_RTOL * ref:
            failures.append(f"max u at t = {t:g} is {got:.6g}, published {ref:.6g}")
    return failures


def trapezoid_weights(cells, spacing) -> np.ndarray:
    """Nodal weights of the tensor trapezoid rule, first axis fastest.

    The rule is exact for functions linear in each coordinate on every cell,
    so it integrates a Q1 field on a uniform grid exactly.
    """
    weights = np.ones(1)
    for n, h in zip(cells, spacing):
        w = np.full(n + 1, h)
        w[0] = w[-1] = 0.5 * h
        weights = np.multiply.outer(w, weights)  # later axes vary slowest
    return weights.ravel()


def check_mass(u_series, cells, spacing) -> list[str]:
    """int u of every state stays within MASS_RTOL of its initial value."""
    w = trapezoid_weights(cells, spacing)
    m0 = float(w @ u_series[0])
    worst = max(abs(float(w @ u) - m0) for u in u_series) / abs(m0)
    if not worst <= MASS_RTOL:
        return [f"int u drifts by {worst:.3e} relative (limit {MASS_RTOL:g})"]
    return []


def check_axis_symmetry(fields: dict[str, np.ndarray], cells) -> list[str]:
    """Each field on a cube grid is invariant under every axis permutation."""
    if len(set(cells)) != 1:
        return [f"grid {cells} is not a cube"]
    shape = tuple(n + 1 for n in reversed(cells))
    failures = []
    for name, values in fields.items():
        grid = np.asarray(values).reshape(shape)
        worst = max(
            float(np.max(np.abs(grid - grid.transpose(perm))))
            for perm in itertools.permutations(range(grid.ndim))
        )
        if not worst <= SYMMETRY_TOL:
            failures.append(
                f"{name} breaks axis symmetry by {worst:.3e} (limit {SYMMETRY_TOL:g})"
            )
    return failures


def logistic(u0: float, mu: float, t: float) -> float:
    """Closed-form solution of u' = mu u (1 - u)."""
    g = math.exp(mu * t)
    return u0 * g / (1.0 - u0 + u0 * g)


def reaction_endpoint(y0, mu: float, epsilon: float, t_end: float) -> np.ndarray:
    """(u, c, p) at t_end of the spatially constant reduction.

    u is the closed-form logistic curve; c' = -p c and p' = (u c - p)/epsilon
    are integrated with DOP853 at rtol 1e-13.
    """
    from scipy.integrate import solve_ivp

    u0, c0, p0 = y0

    def rhs(t, y):
        c, p = y
        return [-p * c, (logistic(u0, mu, t) * c - p) / epsilon]

    sol = solve_ivp(rhs, (0.0, t_end), [c0, p0], method="DOP853", rtol=1e-13, atol=1e-16)
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    return np.array([logistic(u0, mu, t_end), *sol.y[:, -1]])


def fitted_slope(dts, errors) -> float:
    """Least-squares slope of log(error) against log(dt)."""
    return float(np.polyfit(np.log(dts), np.log(errors), 1)[0])


def check_slopes(slopes: dict[float, float]) -> list[str]:
    """The fitted order of each theta lies within ORDER_TOL of its theory."""
    failures = []
    for theta, expected in EXPECTED_ORDER.items():
        got = slopes.get(theta)
        if got is None or not abs(got - expected) <= ORDER_TOL:
            failures.append(f"theta = {theta:g}: fitted order {got}, expected {expected:g}")
    return failures


def expected_form_calls(members) -> dict[str, int]:
    """Assembly calls the fixed-point scheme makes, from steps and sweeps.

    Each member is (theta, chi, mu, steps, sweeps) with 0 < theta <= 1.
    Every sweep assembles the implicit side of the u system (haptotaxis if
    chi != 0, weighted mass if mu != 0), the c system (weighted mass) and the
    p load (product load).  With theta < 1 every step also assembles the
    same forms once more for its explicit side.
    """
    calls = {"haptotaxis": 0, "weighted_mass": 0, "product_load": 0}
    for theta, chi, mu, steps, sweeps in members:
        n = sweeps + (steps if theta < 1.0 else 0)
        calls["haptotaxis"] += n if chi != 0.0 else 0
        calls["weighted_mass"] += n * (2 if mu != 0.0 else 1)
        calls["product_load"] += n
    return calls


def check_trace_consistency(workload: str, layer: dict[str, float], members) -> list[str]:
    """The traced counts match the scheme and the path the workload takes."""
    sweeps = sum(m[4] for m in members)
    expected = {"linsolve.solves": 3 * sweeps}
    for form, n in expected_form_calls(members).items():
        expected[f"fem.{form}_calls"] = n
    if workload == "invasion3d":
        expected["linsolve.lu_factorizations"] = 0
    else:
        expected["linsolve.krylov_solves"] = 0
    return [
        f"{name} = {layer[name]:g}, expected {want}"
        for name, want in expected.items()
        if layer[name] != want
    ]
