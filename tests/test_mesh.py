import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from haptosim.mesh import (
    FeField,
    InterpolationError,
    MeshError,
    build_structured_mesh,
    interpolate,
)

UNIT_SQUARE = ((0.0, 1.0), (0.0, 1.0))
BOX_2D = ((0.0, 20.0), (0.0, 20.0))
BOX_3D = ((0.0, 20.0),) * 3


def test_five_refinements_give_published_dof_count():
    mesh = build_structured_mesh(2, BOX_2D, (1, 1), 5)
    assert mesh.cells_per_axis == (32, 32)
    assert mesh.n_nodes == 1089
    assert mesh.n_elements == 1024


def test_3d_five_refinements_element_count():
    mesh = build_structured_mesh(3, BOX_3D, (1, 1, 1), 5)
    assert mesh.n_elements == 32768
    assert mesh.n_nodes == 33**3


def test_single_cell_base_case():
    mesh = build_structured_mesh(2, UNIT_SQUARE, (1, 1), 0)
    assert mesh.n_elements == 1
    assert mesh.n_nodes == 4
    # counterclockwise from the lower-left corner
    expected = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
    np.testing.assert_array_equal(mesh.node_coords()[mesh.elements()[0]], expected)


def test_3d_local_ordering_bottom_then_top():
    mesh = build_structured_mesh(3, ((0, 1), (0, 1), (0, 1)), (1, 1, 1), 0)
    corners = mesh.node_coords()[mesh.elements()[0]]
    expected = [
        (0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0),
        (0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1),
    ]
    np.testing.assert_array_equal(corners, expected)


@pytest.mark.parametrize("dim,refs", [(2, 0), (2, 1), (2, 3), (3, 0), (3, 2)])
def test_elements_tile_domain(dim, refs):
    extents = ((0.0, 2.0), (1.0, 4.0), (-1.0, 1.5))[:dim]
    mesh = build_structured_mesh(dim, extents, (2,) * dim, refs)
    # edge lengths from the lower corner to the diagonally opposite one
    coords, elements = mesh.node_coords(), mesh.elements()
    sizes = coords[elements[:, 2 if dim == 2 else 6]] - coords[elements[:, 0]]
    volumes = np.prod(sizes, axis=1)
    domain_volume = math.prod(hi - lo for lo, hi in extents)
    assert abs(volumes.sum() - domain_volume) <= 1e-12 * domain_volume
    assert np.all(volumes > 0)


def test_interior_node_shared_by_2_pow_dim_elements():
    for dim in (2, 3):
        mesh = build_structured_mesh(dim, ((0.0, 1.0),) * dim, (2,) * dim, 1)
        counts = np.bincount(mesh.elements().ravel(), minlength=mesh.n_nodes)
        coords = mesh.node_coords()
        interior = np.all((coords > 0.0) & (coords < 1.0), axis=1)
        assert np.all(counts[interior] == 2**dim)
        assert counts.max() == 2**dim


def test_construction_is_deterministic_byte_for_byte():
    a = build_structured_mesh(2, BOX_2D, (1, 1), 3)
    b = build_structured_mesh(2, BOX_2D, (1, 1), 3)
    for x, y in zip(a.axis_nodes, b.axis_nodes, strict=True):
        assert x.tobytes() == y.tobytes()
    # derived on every call, from the axes alone
    assert a.node_coords().tobytes() == b.node_coords().tobytes() == a.node_coords().tobytes()
    assert a.elements().tobytes() == b.elements().tobytes() == a.elements().tobytes()


def _stored_construction(mesh):
    """The node coordinates and connectivity as the mesh once built and
    stored them: a meshgrid of the axes stacked into columns, and one
    connectivity block per dimension."""
    cells = mesh.cells_per_axis
    axes = [np.linspace(lo, hi, nc + 1) for (lo, hi), nc in zip(mesh.extents, cells)]
    grids = np.meshgrid(*axes, indexing="ij")
    coords = np.column_stack([g.ravel(order="F") for g in grids])
    nv = [nc + 1 for nc in cells]
    if mesh.dim == 2:
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
    return (np.ascontiguousarray(coords, dtype=float),
            np.ascontiguousarray(elements, dtype=np.int64))


@pytest.mark.parametrize(
    "extents,cells",
    [
        (UNIT_SQUARE, (1, 1)),
        (((-1.5, 2.0), (3.0, 4.25)), (3, 2)),
        (((0.0, 1.0), (-1.0, 1.5), (2.0, 6.0)), (2, 1, 3)),
        (((0.0, 1.0), (-1.0, 1.5), (2.0, 6.0)), (3, 4, 5)),
    ],
)
def test_derived_geometry_equals_the_stored_construction(extents, cells):
    mesh = build_structured_mesh(len(cells), extents, cells, 0)
    coords, elements = _stored_construction(mesh)
    for derived, stored in ((mesh.node_coords(), coords), (mesh.elements(), elements)):
        assert derived.dtype == stored.dtype
        assert derived.shape == stored.shape
        assert derived.flags.c_contiguous
        assert derived.tobytes() == stored.tobytes()
    assert (mesh.n_nodes, mesh.n_elements) == (len(coords), len(elements))


def test_built_mesh_holds_only_its_axes():
    cells = (64, 64, 64)
    tracemalloc.start()
    try:
        mesh = build_structured_mesh(3, BOX_3D, (1, 1, 1), 6)
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert mesh.cells_per_axis == cells and mesh.n_nodes == 65**3
    # per-node coordinates and connectivity would take 23.4 MB at 64^3
    assert kept <= 64 * 1024
    longest = max(cells) + 1
    for value in vars(mesh).values():
        for item in value if isinstance(value, tuple) else (value,):
            assert not isinstance(item, np.ndarray) or item.size <= longest


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(dim=1, extents=((0, 1),), base_cells_per_axis=(1,)),
        dict(dim=4, extents=((0, 1),) * 4, base_cells_per_axis=(1,) * 4),
        dict(dim=2, extents=((0, 1), (1, 1)), base_cells_per_axis=(1, 1)),
        dict(dim=2, extents=((0, 1), (2, 1)), base_cells_per_axis=(1, 1)),
        dict(dim=2, extents=((0, 1), (0, 1)), base_cells_per_axis=(0, 1)),
        dict(dim=2, extents=((0, 1), (0, 1)), base_cells_per_axis=(1, 1), refinements=-1),
        dict(dim=2, extents=((0, 1),), base_cells_per_axis=(1, 1)),
    ],
)
def test_invalid_construction_rejected(kwargs):
    with pytest.raises(MeshError):
        build_structured_mesh(**kwargs)


def test_interpolate_constant():
    mesh = build_structured_mesh(2, BOX_2D, (1, 1), 2)
    f = interpolate(lambda x: 1.0, mesh)
    assert np.all(f.coeffs == 1.0)


def test_interpolate_gaussian_values():
    mesh = build_structured_mesh(2, BOX_2D, (1, 1), 2)
    f = interpolate(lambda x: np.exp(-(x * x).sum(axis=1)), mesh)
    coords = mesh.node_coords()
    origin = np.where((coords == 0).all(axis=1))[0][0]
    assert f.coeffs[origin] == 1.0
    g = interpolate(lambda x: 1.0 - 0.5 * np.exp(-(x * x).sum(axis=1)), mesh)
    far = np.where((coords == 20.0).all(axis=1))[0][0]
    # 1 - 0.5 exp(-800) is exactly 1.0 at double precision
    assert g.coeffs[far] == 1.0


@given(a=st.floats(-3, 3), b=st.floats(-3, 3))
@settings(max_examples=25, deadline=None)
def test_interpolate_is_linear(a, b):
    mesh = build_structured_mesh(2, UNIT_SQUARE, (2, 2), 0)

    def f(x):
        return np.sin(x[:, 0]) + x[:, 1]

    def g(x):
        return x[:, 0] * x[:, 1] - 0.5

    combined = interpolate(lambda x: a * f(x) + b * g(x), mesh)
    split = a * interpolate(f, mesh).coeffs + b * interpolate(g, mesh).coeffs
    np.testing.assert_array_equal(combined.coeffs, split)


def test_interpolate_nonfinite_names_node():
    mesh = build_structured_mesh(2, UNIT_SQUARE, (1, 1), 0)

    def bad(x):
        return np.where((x[:, 0] == 1.0) & (x[:, 1] == 0.0), math.inf, 0.0)

    with pytest.raises(InterpolationError, match="node 1"):
        interpolate(bad, mesh)
    # the first non-finite node is named when there are several
    with pytest.raises(InterpolationError, match="node 2"):
        interpolate(lambda x: np.where(x[:, 1] == 1.0, math.nan, 0.0), mesh)


def test_fe_field_length_check():
    mesh = build_structured_mesh(2, UNIT_SQUARE, (1, 1), 0)
    with pytest.raises(ValueError):
        FeField(mesh, np.zeros(3))


def test_fe_field_rejects_nonfinite_unless_flagged():
    mesh = build_structured_mesh(2, UNIT_SQUARE, (1, 1), 0)
    values = np.array([0.0, 1.0, np.nan, 2.0])
    with pytest.raises(ValueError):
        FeField(mesh, values)
    artifact = FeField(mesh, values, breakdown=True)
    assert artifact.breakdown


def test_mesh_arrays_are_immutable():
    mesh = build_structured_mesh(2, UNIT_SQUARE, (1, 1), 0)
    with pytest.raises(ValueError):
        mesh.axis_nodes[0][0] = 5.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        mesh.n_nodes = 5
    # the derived arrays are new on every call, so writing to one leaves
    # the mesh as it was
    coords, elements = mesh.node_coords(), mesh.elements()
    coords[0, 0] = 5.0
    elements[0, 0] = 3
    assert mesh.node_coords()[0, 0] == 0.0
    assert mesh.elements()[0, 0] == 0
