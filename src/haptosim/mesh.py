"""Structured quadrilateral/hexahedral meshes on axis-aligned boxes.

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

from dataclasses import dataclass, field

import numpy as np


class MeshError(ValueError):
    """Invalid mesh construction request."""


class InterpolationError(ValueError):
    """An interpolated function produced a non-finite nodal value."""


@dataclass(frozen=True)
class StructuredMesh:
    """Uniform tensor-product mesh of an axis-aligned box."""

    dim: int
    extents: tuple[tuple[float, float], ...]
    cells_per_axis: tuple[int, ...]
    node_coords: np.ndarray  # (n_nodes, dim)
    elements: np.ndarray     # (n_elements, 2**dim), int64

    @property
    def n_nodes(self) -> int:
        return self.node_coords.shape[0]

    @property
    def n_elements(self) -> int:
        return self.elements.shape[0]

    @property
    def nodes_per_element(self) -> int:
        return 2 ** self.dim

    @property
    def spacing(self) -> tuple[float, ...]:
        return tuple(
            (hi - lo) / nc for (lo, hi), nc in zip(self.extents, self.cells_per_axis)
        )

    def domain_volume(self) -> float:
        vol = 1.0
        for lo, hi in self.extents:
            vol *= hi - lo
        return vol

    def element_sizes(self) -> np.ndarray:
        """Per-element edge lengths, shape (n_elements, dim).

        Computed from the coordinates of the lower corner (local vertex 0)
        and the diagonally opposite corner (local vertex 2 in 2D, 6 in 3D).
        """
        opposite = 2 if self.dim == 2 else 6
        lo = self.node_coords[self.elements[:, 0]]
        hi = self.node_coords[self.elements[:, opposite]]
        return hi - lo

    def axis_nodes(self) -> list[np.ndarray]:
        """The node coordinates along each axis, first axis first: node
        (i_1, ..., i_dim) sits at the i_d-th coordinate of each axis d."""
        coords = []
        stride = 1
        for d, nc in enumerate(self.cells_per_axis):
            coords.append(self.node_coords[np.arange(nc + 1) * stride, d])
            stride *= nc + 1
        return coords


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
    axes = [np.linspace(lo, hi, nc + 1) for (lo, hi), nc in zip(extents, cells)]
    grids = np.meshgrid(*axes, indexing="ij")
    # ravel with the first axis fastest
    coords = np.column_stack([g.ravel(order="F") for g in grids])

    nv = [nc + 1 for nc in cells]
    if dim == 2:
        nx, ny = cells
        ex, ey = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
        ex = ex.ravel(order="F")
        ey = ey.ravel(order="F")
        n00 = ex + nv[0] * ey
        elements = np.column_stack([n00, n00 + 1, n00 + 1 + nv[0], n00 + nv[0]])
    else:
        nx, ny, nz = cells
        ex, ey, ez = np.meshgrid(
            np.arange(nx), np.arange(ny), np.arange(nz), indexing="ij"
        )
        ex = ex.ravel(order="F")
        ey = ey.ravel(order="F")
        ez = ez.ravel(order="F")
        n000 = ex + nv[0] * (ey + nv[1] * ez)
        sx, sxy = nv[0], nv[0] * nv[1]
        bottom = [n000, n000 + 1, n000 + 1 + sx, n000 + sx]
        elements = np.column_stack(bottom + [b + sxy for b in bottom])

    coords = np.ascontiguousarray(coords, dtype=float)
    elements = np.ascontiguousarray(elements, dtype=np.int64)
    coords.flags.writeable = False
    elements.flags.writeable = False
    return StructuredMesh(dim, extents, cells, coords, elements)


def interpolate(f, mesh: StructuredMesh) -> FeField:
    """Lagrange-interpolate a function into a nodal field.

    ``f`` is called once, with the (n_nodes, dim) array of node coordinates,
    and returns the n_nodes nodal values, or one scalar for every node; all
    of them must be finite.
    """
    values = np.asarray(f(mesh.node_coords), dtype=float)
    values = np.broadcast_to(values, (mesh.n_nodes,)).copy()
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        i = bad[0]
        raise InterpolationError(
            f"function returned non-finite value {values[i]} at node {i}, "
            f"x={tuple(mesh.node_coords[i])}"
        )
    return FeField(mesh, values)
