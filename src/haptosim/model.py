"""Model constants, the initial profile and the exact parameter rescaling.

The simulated system couples three fields on a box domain with zero-flux
boundaries: cell density u (diffusion 1/alpha, haptotactic drift of strength
chi up the gradient of the matrix density, logistic growth mu), matrix
density c (degraded at rate p, no transport of its own), and protease p
(produced where cells meet matrix and decaying, both on time scale epsilon).

An initial profile is one function of the (n, dim) array of points that
returns (u0, c0, p0), each the n values of its field or one scalar for all
of them; the paper's runs start from :func:`corner_gaussian`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .mesh import FeField, StructuredMesh, nodal_values


class ParameterError(ValueError):
    """A model or scheme constant violates its admissible range."""


class MeshMismatchError(ValueError):
    """Fields that must share a mesh do not."""


class NonnegativityWarning(UserWarning):
    """Initial data is negative somewhere; the run proceeds regardless."""


@dataclass(frozen=True)
class Parameters:
    """All model and scheme constants for one run."""

    alpha: float = 10.0          # inverse diffusion: 1/alpha multiplies the Laplacian
    chi: float = 0.01            # haptotactic coefficient, >= 0
    mu: float = 0.5              # logistic proliferation rate, > 0
    epsilon: float = 0.2         # protease reaction time scale, > 0
    theta: float = 0.5           # time-scheme blend, 0 explicit .. 1 implicit
    dt: float = 1.0
    t_final: float = 50.0
    beta: float = 0.5            # relaxation of the first fixed-point update, in (0, 1]
    tol_fp: float = 1e-8         # fixed-point stopping tolerance (l2 increments)
    max_fp_iters: int = 100
    tol_lin: float = 1e-12       # linear-solve relative residual tolerance
    blowup_threshold: float = 1e6  # breakdown cutoff on any field's max magnitude

    def __post_init__(self):
        positive = (
            ("alpha", self.alpha),
            ("mu", self.mu),
            ("epsilon", self.epsilon),
            ("dt", self.dt),
            ("tol_fp", self.tol_fp),
            ("tol_lin", self.tol_lin),
            ("blowup_threshold", self.blowup_threshold),
        )
        for name, value in positive:
            if not (value > 0.0) or not math.isfinite(value):
                raise ParameterError(f"{name} must be positive and finite, got {value}")
        # t_final = 0 is allowed: a zero-step run emits the initial data
        if not (self.t_final >= 0.0) or not math.isfinite(self.t_final):
            raise ParameterError(
                f"t_final must be >= 0 and finite, got {self.t_final}"
            )
        if not (self.chi >= 0.0) or not math.isfinite(self.chi):
            raise ParameterError(f"chi must be >= 0, got {self.chi}")
        if not 0.0 <= self.theta <= 1.0:
            raise ParameterError(f"theta must lie in [0, 1], got {self.theta}")
        if not 0.0 < self.beta <= 1.0:
            raise ParameterError(f"beta must lie in (0, 1], got {self.beta}")
        if int(self.max_fp_iters) < 1:
            raise ParameterError(
                f"max_fp_iters must be a positive integer, got {self.max_fp_iters}"
            )

    def steps_to(self, t, what="time") -> int:
        """The number of steps of dt from 0 to t.

        Raises ParameterError unless t / dt is a finite whole number to a
        relative 1e-12, that is unless t lands on a step boundary.
        """
        ratio = t / self.dt
        if not (math.isfinite(ratio)
                and abs(ratio - round(ratio)) <= 1e-12 * max(1.0, abs(ratio))):
            raise ParameterError(
                f"{what} = {t} is not a whole number of steps of dt = {self.dt}: "
                "it does not land on a step boundary"
            )
        return int(round(ratio))

    @property
    def ringing_number(self) -> float:
        """(1 - theta) dt / epsilon, the explicit share of the protease decay.

        Above 1 the old protease enters the update with the negative weight
        1 - (1 - theta) dt / epsilon, so p rings from step to step and the
        matrix maximum can grow although the continuous model forbids it.
        """
        return (1.0 - self.theta) * self.dt / self.epsilon

    @property
    def n_steps(self) -> int:
        """The number of steps to t_final; see :meth:`steps_to`."""
        return self.steps_to(self.t_final, "t_final")


def _gaussian(x) -> np.ndarray:
    """exp(-|x|^2) at each row of x.

    |x|^2 is a row-times-column matmul per point, the dot product that
    ``np.dot`` computes for one point, and the exponential is ``math.exp``
    per point: ``np.exp`` differs from it in the last bit on some nodes.
    """
    squares = (x[..., None, :] @ x[..., :, None]).ravel()
    return np.array([math.exp(-r) for r in squares.tolist()])


def corner_gaussian(x):
    """Gaussian cluster of cells seeded at the corner origin.

    u0 = exp(-|x|^2),  c0 = 1 - 0.5 exp(-|x|^2),  p0 = 0.5 exp(-|x|^2):
    the matrix is intact away from the seed and half degraded underneath it,
    with protease proportional to the cell density.
    """
    g = _gaussian(x)
    return g, 1.0 - 0.5 * g, 0.5 * g


@dataclass
class SimState:
    """The (u, c, p) triple at one time level, on a shared mesh."""

    t: float
    u: FeField
    c: FeField
    p: FeField

    def __post_init__(self):
        if self.u.mesh is not self.c.mesh or self.u.mesh is not self.p.mesh:
            raise MeshMismatchError("u, c, p must live on one mesh")
        if self.t < 0.0:
            raise ValueError(f"time must be >= 0, got {self.t}")

    @property
    def mesh(self) -> StructuredMesh:
        return self.u.mesh

    def copy(self) -> "SimState":
        return SimState(self.t, self.u.copy(), self.c.copy(), self.p.copy())


def interpolate_initial_state(profile, mesh: StructuredMesh) -> SimState:
    """Nodal interpolation of an initial profile, with a nonnegativity check.

    ``profile`` is called once, with the (n_nodes, dim) array of node
    coordinates, and returns (u0, c0, p0): each the n_nodes nodal values of
    its field, or one scalar for every node.  A non-finite value raises
    :class:`InterpolationError` naming its field.  Negative nodal values only
    raise :class:`NonnegativityWarning`: runs with out-of-theory data stay
    permitted.
    """
    coords = mesh.node_coords()
    u, c, p = profile(coords)
    fields = []
    for name, values in (("u", u), ("c", c), ("p", p)):
        coeffs = nodal_values(values, coords, f"initial profile of {name}")
        worst = float(coeffs.min())
        if worst < 0.0:
            warnings.warn(
                f"initial {name} is negative (min {worst:.3e}); "
                "nonnegative data is assumed by the underlying theory",
                NonnegativityWarning,
                stacklevel=2,
            )
        fields.append(FeField(mesh, coeffs))
    return SimState(0.0, *fields)


@dataclass(frozen=True)
class RescaledProblem:
    """An equivalent problem with unit haptotactic rate and unit time scale.

    Positions map as  x_new = x / sqrt(chi),  times as  t_new = t / epsilon,
    and the matrix/protease amplitudes carry a factor epsilon, the epsilon
    of the original problem.
    """

    params: Parameters
    extents: tuple[tuple[float, float], ...]
    profile: Callable


def rescale_to_unit_chi_eps(params: Parameters, extents, profile) -> RescaledProblem:
    """Map a problem with arbitrary chi > 0, epsilon > 0 to an exactly
    equivalent one with chi = epsilon = 1.

    The transformed diffusion and growth rates are alpha*chi/epsilon and
    epsilon*mu; the domain shrinks by 1/sqrt(chi); the time step and final
    time divide by epsilon; and the initial profile is read at the
    stretched coordinates, with its matrix and protease scaled by epsilon.
    """
    if params.chi <= 0.0:
        raise ParameterError("rescaling is undefined for chi = 0")
    chi, eps = params.chi, params.epsilon
    new_params = replace(
        params,
        alpha=params.alpha * chi / eps,
        chi=1.0,
        mu=eps * params.mu,
        epsilon=1.0,
        dt=params.dt / eps,
        t_final=params.t_final / eps,
    )
    root = math.sqrt(chi)
    new_extents = tuple((lo / root, hi / root) for lo, hi in extents)

    def new_profile(x):
        u, c, p = profile(root * np.asarray(x, dtype=float))
        return u, eps * c, eps * p

    return RescaledProblem(new_params, new_extents, new_profile)
