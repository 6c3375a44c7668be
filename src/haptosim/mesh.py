"""Structured quadrilateral/hexahedral meshes on axis-aligned boxes.

A mesh is its axes: it holds the node coordinates along each axis and the
node and element counts.  The node coordinates and the connectivity are
derived from the axes when asked for, by one formula in 2D and 3D.

Node numbering is lexicographic with the first axis running fastest.  The
local vertex ordering of every element is fixed:

* 2D: counterclockwise starting from the lower-left corner,
  i.e. (lo,lo), (hi,lo), (hi,hi), (lo,hi);
* 3D: bottom face counterclockwise (seen from +z), then the top face in the
  same rotational order.

This matches the reference-cell corner ordering of the independent element
oracle in :mod:`haptosim.verify` and the VTK quad/hexahedron conventions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


class MeshError(ValueError):
    """Invalid mesh construction request."""


class InterpolationError(ValueError):
    """An interpolated function produced a non-finite nodal value."""


@dataclass(frozen=True)
class StructuredMesh:
    """Uniform tensor-product mesh of an axis-aligned box.

    ``axis_nodes`` holds the read-only node coordinates along each axis,
    first axis first: node (i_1, ..., i_dim) sits at the i_d-th coordinate
    of each axis d.
    """

    dim: int
    extents: tuple[tuple[float, float], ...]
    cells_per_axis: tuple[int, ...]
    axis_nodes: tuple[np.ndarray, ...]
    n_nodes: int
    n_elements: int

    @property
    def nodes_per_element(self) -> int:
        return 2 ** self.dim

    @property
    def spacing(self) -> tuple[float, ...]:
        return tuple(
            (hi - lo) / nc for (lo, hi), nc in zip(self.extents, self.cells_per_axis)
        )

    def node_coords(self) -> np.ndarray:
        """A new (n_nodes, dim) array of the node coordinates."""
        # on the grid with the last axis first, the first axis runs fastest
        grids = np.meshgrid(*self.axis_nodes[::-1], indexing="ij", copy=False)
        return np.stack(grids[::-1], axis=-1).reshape(self.n_nodes, self.dim)

    def elements(self) -> np.ndarray:
        """A new (n_elements, 2**dim) int64 array of each element's nodes
        in the local vertex ordering: its lower corner node plus the offset
        of each corner."""
        nv = [nc + 1 for nc in self.cells_per_axis]
        # node numbers on their grid, last axis first; a lower corner is
        # a node that is last along no axis
        grid = np.arange(self.n_nodes, dtype=np.int64).reshape(nv[::-1])
        lower = grid[(slice(-1),) * self.dim].ravel()
        quad = np.array([0, 1, 1 + nv[0], nv[0]])
        corners = quad if self.dim == 2 else np.concatenate([quad, quad + nv[0] * nv[1]])
        return lower[:, None] + corners


@dataclass
class FeField:
    """Nodal coefficient vector of a Q1 function on a structured mesh."""

    mesh: StructuredMesh
    coeffs: np.ndarray
    breakdown: bool = field(default=False)

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        if self.coeffs.shape != (self.mesh.n_nodes,):
            raise ValueError(
                f"coefficient vector has length {self.coeffs.shape}, "
                f"mesh has {self.mesh.n_nodes} nodes"
            )
        if not self.breakdown and not np.isfinite(self.coeffs).all():
            raise ValueError(
                "non-finite coefficients in a field not flagged as a breakdown artifact"
            )

    def copy(self) -> "FeField":
        return FeField(self.mesh, self.coeffs.copy(), self.breakdown)


def build_structured_mesh(dim, extents, base_cells_per_axis, refinements=0):
    """Build a uniform quad (2D) or hex (3D) mesh of an axis-aligned box.

    ``extents`` is a per-axis sequence of (lo, hi) intervals and
    ``base_cells_per_axis`` the per-axis cell count of the coarsest grid;
    each uniform refinement doubles the cell count along every axis.
    """
    if dim not in (2, 3):
        raise MeshError(f"dim must be 2 or 3, got {dim}")
    extents = tuple((float(lo), float(hi)) for lo, hi in extents)
    if len(extents) != dim:
        raise MeshError(f"expected {dim} extent intervals, got {len(extents)}")
    for lo, hi in extents:
        if not (np.isfinite(lo) and np.isfinite(hi)) or hi <= lo:
            raise MeshError(f"empty or invalid interval [{lo}, {hi}]")
    base = tuple(int(b) for b in base_cells_per_axis)
    if len(base) != dim or any(b < 1 for b in base):
        raise MeshError(f"base cell counts must be >= 1 per axis, got {base}")
    refinements = int(refinements)
    if refinements < 0:
        raise MeshError(f"refinements must be >= 0, got {refinements}")

    cells = tuple(b * 2**refinements for b in base)
    axis_nodes = tuple(np.linspace(lo, hi, nc + 1) for (lo, hi), nc in zip(extents, cells))
    for x in axis_nodes:
        x.flags.writeable = False
    return StructuredMesh(
        dim, extents, cells, axis_nodes,
        math.prod(nc + 1 for nc in cells), math.prod(cells),
    )


def nodal_values(values, coords, source="function") -> np.ndarray:
    """A new array of the n_nodes nodal values of ``values``, an array of
    them or one scalar for every node.

    A non-finite value raises :class:`InterpolationError` naming ``source``,
    the node and its coordinates ``coords[node]``.
    """
    values = np.broadcast_to(np.asarray(values, dtype=float), coords.shape[:1]).copy()
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        i = bad[0]
        raise InterpolationError(
            f"{source} returned non-finite value {values[i]} at node {i}, "
            f"x={tuple(coords[i].tolist())}"
        )
    return values


def interpolate(f, mesh: StructuredMesh) -> FeField:
    """Lagrange-interpolate a function into a nodal field.

    ``f`` is called once, with the (n_nodes, dim) array of node coordinates,
    and returns the n_nodes nodal values, or one scalar for every node; all
    of them must be finite.
    """
    coords = mesh.node_coords()
    return FeField(mesh, nodal_values(f(coords), coords))
