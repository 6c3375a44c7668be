import time
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from haptosim import fem, linsolve
from haptosim.fem import (
    AssemblyError,
    AssemblyPlan,
    assemble_haptotaxis,
    assemble_mass,
    assemble_product_load,
    assemble_stiffness,
    assemble_weighted_mass,
    mass_inverse,
)
from haptosim.mesh import MeshError, build_structured_mesh, interpolate
from haptosim.verify import element_form, oracle_form


def dense(a) -> np.ndarray:
    """The dense form of a DiaMatrix, by scipy's DIA conversion."""
    return sp.dia_matrix((a.data, a.offsets), shape=(a.n, a.n)).toarray()

# symbolic reference values on the unit square, canonical ordering
MASS_UNIT = np.array(
    [[4, 2, 1, 2], [2, 4, 2, 1], [1, 2, 4, 2], [2, 1, 2, 4]]
) / 36.0
STIFF_UNIT = np.array(
    [[4, -1, -2, -1], [-1, 4, -1, -2], [-2, -1, 4, -1], [-1, -2, -1, 4]]
) / 6.0
# int phi_i d_x phi_j, rows indexed by i
DX_TENSOR = np.array(
    [
        [-1 / 6, 1 / 6, 1 / 12, -1 / 12],
        [-1 / 6, 1 / 6, 1 / 12, -1 / 12],
        [-1 / 12, 1 / 12, 1 / 6, -1 / 6],
        [-1 / 12, 1 / 12, 1 / 6, -1 / 6],
    ]
)
# int w_h phi_i phi_j with nodal weights (1, 0, 0, 0)
WEIGHTED_UNIT = np.array(
    [
        [1 / 16, 1 / 48, 1 / 144, 1 / 48],
        [1 / 48, 1 / 48, 1 / 144, 1 / 144],
        [1 / 144, 1 / 144, 1 / 144, 1 / 144],
        [1 / 48, 1 / 144, 1 / 144, 1 / 48],
    ]
)

UNIT = ((0.0, 1.0), (0.0, 1.0))
box_sizes = st.lists(st.floats(0.05, 4.0), min_size=2, max_size=2)


def test_mass_unit_square_symbolic():
    assert np.max(np.abs(element_form(assemble_mass, (1.0, 1.0)) - MASS_UNIT)) < 1e-14


def test_mass_scales_with_area():
    h = 0.37
    scaled = element_form(assemble_mass, (h, h))
    assert np.max(np.abs(scaled - h * h * MASS_UNIT)) < 1e-14


def test_mass_row_sums_partition_of_unity():
    m = element_form(assemble_mass, (1.0, 1.0))
    np.testing.assert_allclose(m.sum(axis=1), 0.25, atol=1e-15)
    assert abs(m.sum() - 1.0) < 1e-15


def test_stiffness_unit_square_symbolic():
    k = element_form(assemble_stiffness, (1.0, 1.0))
    assert np.max(np.abs(k - STIFF_UNIT)) < 1e-14


def test_stiffness_rows_annihilate_constants():
    k = element_form(assemble_stiffness, (1.0, 1.0))
    np.testing.assert_allclose(k.sum(axis=1), 0.0, atol=1e-15)


@given(h=st.floats(0.05, 8.0))
@settings(max_examples=30, deadline=None)
def test_stiffness_2d_scale_invariant(h):
    scaled = element_form(assemble_stiffness, (h, h))
    assert np.max(np.abs(scaled - STIFF_UNIT)) < 1e-14


@given(sizes=box_sizes)
@settings(max_examples=30, deadline=None)
def test_mass_and_stiffness_symmetric(sizes):
    m = element_form(assemble_mass, sizes)
    k = element_form(assemble_stiffness, sizes)
    assert np.max(np.abs(m - m.T)) < 1e-15
    assert np.max(np.abs(k - k.T)) < 1e-15
    # mass is positive definite, stiffness positive semi-definite
    assert np.all(np.linalg.eigvalsh(m) > 0)
    assert np.linalg.eigvalsh(k).min() > -1e-14


def test_weighted_mass_constant_weight_reduces_to_mass():
    m = element_form(assemble_mass, (1.0, 1.0))
    w = element_form(assemble_weighted_mass, (1.0, 1.0), np.full(4, 3.25))
    assert np.max(np.abs(w - 3.25 * m)) < 1e-14
    zero = element_form(assemble_weighted_mass, (1.0, 1.0), np.zeros(4))
    assert np.all(zero == 0.0)


def test_weighted_mass_single_node_weight_symbolic():
    w = element_form(assemble_weighted_mass, (1.0, 1.0), (1.0, 0.0, 0.0, 0.0))
    assert np.max(np.abs(w - WEIGHTED_UNIT)) < 1e-15
    assert np.max(np.abs(w - w.T)) < 1e-15


def test_haptotaxis_constant_density_vanishes():
    b = element_form(assemble_haptotaxis, (1.0, 1.0), np.full(4, 0.8))
    assert np.max(np.abs(b)) < 1e-15


def test_haptotaxis_linear_density_symbolic():
    # c = x1 has nodal values (0, 1, 1, 0); rows are test indices, so the
    # result is the transpose of the (i, j)-indexed tensor
    b = element_form(assemble_haptotaxis, (1.0, 1.0), (0.0, 1.0, 1.0, 0.0))
    assert np.max(np.abs(b - DX_TENSOR.T)) < 1e-15


def test_haptotaxis_linear_in_density():
    rng = np.random.default_rng(7)
    c = rng.standard_normal(4)
    base = element_form(assemble_haptotaxis, (1.0, 1.0), c)
    # scaling by a power of two is exact in floating point
    np.testing.assert_array_equal(
        element_form(assemble_haptotaxis, (1.0, 1.0), 4.0 * c), 4.0 * base
    )
    general = element_form(assemble_haptotaxis, (1.0, 1.0), 1.7 * c)
    assert np.max(np.abs(general - 1.7 * base)) < 1e-14


def test_load_product_constant_factors():
    f = element_form(assemble_product_load, (1.0, 1.0), np.ones(4), np.ones(4))
    np.testing.assert_allclose(f, 0.25, atol=1e-15)
    zero = element_form(assemble_product_load, (1.0, 1.0), np.zeros(4), np.ones(4))
    assert np.all(zero == 0.0)


def test_load_product_linear_factors_symbolic():
    # a = b = x1: entries int x^2 phi_j = (1/24, 1/8, 1/8, 1/24)
    f = element_form(assemble_product_load, (1.0, 1.0), (0, 1, 1, 0), (0, 1, 1, 0))
    assert np.max(np.abs(f - np.array([1 / 24, 1 / 8, 1 / 8, 1 / 24]))) < 1e-15


def test_cube_mass_row_sums():
    m = element_form(assemble_mass, (1.0, 1.0, 1.0))
    np.testing.assert_allclose(m.sum(axis=1), 1 / 8, atol=1e-15)


@pytest.mark.parametrize(
    "call",
    [
        lambda: element_form(assemble_mass, (0.0, 1.0)),
        lambda: element_form(assemble_mass, (1.0, -2.0)),
        lambda: element_form(assemble_mass, (np.nan, 1.0)),
        lambda: element_form(assemble_stiffness, (1.0,)),
        lambda: element_form(
            assemble_weighted_mass, (1.0, 1.0), (1.0, np.inf, 0.0, 0.0)
        ),
        lambda: element_form(assemble_haptotaxis, (1.0, 1.0), (np.nan,) * 4),
        lambda: element_form(
            assemble_product_load, (1.0, 1.0), np.ones(4), np.full(4, np.nan)
        ),
        lambda: assemble_weighted_mass(
            build_structured_mesh(2, UNIT, (1, 1), 0), np.ones(3)
        ),
    ],
)
def test_degenerate_inputs_rejected(call):
    # degenerate element sizes and dim 1 are rejected by the mesh, bad
    # coefficients by the assembly
    with pytest.raises((MeshError, AssemblyError)):
        call()


# --- global assembly --------------------------------------------------------


def test_assembled_mass_sums_to_domain_volume():
    for dim in (2, 3):
        mesh = build_structured_mesh(dim, ((0.0, 20.0),) * dim, (1,) * dim, 2)
        m = assemble_mass(mesh)
        vol = 20.0**dim
        assert abs(m.data.sum() - vol) <= 1e-12 * vol


def test_assembled_stiffness_rows_sum_to_zero():
    mesh = build_structured_mesh(2, ((0.0, 20.0), (0.0, 20.0)), (1, 1), 3)
    k = assemble_stiffness(mesh)
    row_sums = k.matvec(np.ones(mesh.n_nodes))
    assert np.max(np.abs(row_sums)) <= 1e-12


def _brute_force_scatter(mesh, element_matrices):
    n = mesh.n_nodes
    dense = np.zeros((n, n))
    for idx, mat in zip(mesh.elements(), element_matrices):
        for j, gj in enumerate(idx):
            for i, gi in enumerate(idx):
                dense[gj, gi] += mat[j, i]
    return dense


# The brute-force meshes: the second and third have unequal extents and cell
# counts per axis, so that a mix-up of axes, of offsets or of the diagonals
# they land in shows; a single element cannot.  The last two have one cell
# along an axis other than the last, so two neighbour offsets share one
# diagonal.
BRUTE_FORCE_MESHES = [
    (2, ((0.0, 1.0), (0.0, 1.0)), (2, 2)),
    (2, ((0.0, 2.0), (0.0, 3.0)), (2, 2)),
    (2, ((0.0, 2.0), (-1.0, 0.5)), (6, 4)),
    (3, ((0.0, 1.0), (-1.0, 1.5), (2.0, 6.0)), (3, 4, 5)),
    (2, ((0.0, 0.5), (0.0, 3.0)), (1, 3)),
    (3, ((0.0, 1.0), (-1.0, 1.5), (2.0, 6.0)), (2, 1, 3)),
]


@lru_cache(maxsize=None)
def _oracle_unit_forms(name, size):
    """The oracle element form of each unit coefficient vector, stacked."""
    unit = np.eye(2 ** len(size))
    return np.array([oracle_form(name, np.array(size), e) for e in unit])


def _element_sizes(mesh):
    """Each element's edge lengths, from the coordinates of its lower corner
    (local vertex 0) to those of the diagonally opposite one (local vertex 2
    in 2D, 6 in 3D)."""
    coords, elements = mesh.node_coords(), mesh.elements()
    return coords[elements[:, 2 if mesh.dim == 2 else 6]] - coords[elements[:, 0]]


def _brute_force_form(mesh, name, *coefficients):
    sizes = _element_sizes(mesh)
    if not coefficients:
        return _brute_force_scatter(mesh, [oracle_form(name, s) for s in sizes])
    # the element forms are linear in the element's coefficients
    (v,) = coefficients
    return _brute_force_scatter(mesh, [
        np.tensordot(v[idx], _oracle_unit_forms(name, tuple(size)), axes=1)
        for idx, size in zip(mesh.elements(), sizes)
    ])


def test_assembled_mass_matches_brute_force_scatter():
    # and the stiffness, the other form without coefficients
    for dim, extents, cells in BRUTE_FORCE_MESHES:
        mesh = build_structured_mesh(dim, extents, cells, 0)
        for name, form in (("mass", assemble_mass), ("stiffness", assemble_stiffness)):
            matrix = dense(form(mesh))
            assert np.max(np.abs(matrix - _brute_force_form(mesh, name))) < 1e-14, (cells, name)


@given(seed=st.integers(0, 2**31))
@settings(max_examples=15, deadline=None)
def test_assembled_coefficient_forms_match_brute_force(seed):
    rng = np.random.default_rng(seed)
    for dim, extents, cells in BRUTE_FORCE_MESHES:
        mesh = build_structured_mesh(dim, extents, cells, 0)
        plan = AssemblyPlan(mesh)
        c = rng.uniform(-1, 1, mesh.n_nodes)
        w = rng.uniform(-1, 1, mesh.n_nodes)
        b = dense(assemble_haptotaxis(mesh, c, plan))
        wm = dense(assemble_weighted_mass(mesh, w, plan))
        assert np.max(np.abs(b - _brute_force_form(mesh, "haptotaxis", c))) < 1e-14, cells
        assert np.max(np.abs(wm - _brute_force_form(mesh, "weighted_mass", w))) < 1e-14, cells


def test_assembled_load_matches_brute_force():
    # the load runs through the plan's diagonals, merged on the last two meshes
    rng = np.random.default_rng(3)
    for dim, extents, cells in BRUTE_FORCE_MESHES:
        mesh = build_structured_mesh(dim, extents, cells, 0)
        a = rng.uniform(-1, 1, mesh.n_nodes)
        b = rng.uniform(-1, 1, mesh.n_nodes)
        ref = np.zeros(mesh.n_nodes)
        for idx, size in zip(mesh.elements(), _element_sizes(mesh)):
            ref[idx] += oracle_form("load", size, a[idx], b[idx])
        assert np.max(np.abs(assemble_product_load(mesh, a, b) - ref)) < 1e-14, cells


def test_sparsity_pattern_is_element_adjacency():
    mesh = build_structured_mesh(2, ((0.0, 1.0), (0.0, 1.0)), (2, 2), 0)
    m = dense(assemble_mass(mesh))
    adjacent = set()
    for elem in mesh.elements():
        for j in elem:
            for i in elem:
                adjacent.add((int(j), int(i)))
    stored = set(zip(*m.nonzero()))
    assert stored == adjacent


@pytest.mark.parametrize(
    "cells", [(1, 1), (1, 3), (3, 1), (1, 1, 1), (2, 1, 3), (299, 1, 1), (3, 4, 5)],
)
def test_plan_merges_coinciding_offsets_once(cells):
    # one cell along an axis other than the last gives two neighbour offsets
    # one composite offset; the plan lists each once, in increasing order,
    # and every form's diagonals hold exactly the entries of its matrix
    dim = len(cells)
    mesh = build_structured_mesh(dim, tuple((0.0, float(n)) for n in cells), cells, 0)
    plan = AssemblyPlan(mesh)
    assert np.all(np.diff(plan.offsets) > 0)
    assert plan.merge.size == 3**dim
    w = np.random.default_rng(16).uniform(0.5, 1.5, mesh.n_nodes)
    for form in (assemble_mass(mesh, plan), assemble_stiffness(mesh, plan),
                 assemble_weighted_mass(mesh, w, plan), assemble_haptotaxis(mesh, w, plan)):
        assert form.offsets is plan.offsets
        assert form.data.shape == (plan.offsets.size, mesh.n_nodes)
        columns = np.column_stack([form.matvec(e) for e in np.eye(mesh.n_nodes)])
        assert np.array_equal(columns, dense(form))


def test_assembly_is_bitwise_deterministic():
    mesh = build_structured_mesh(2, ((0.0, 20.0), (0.0, 20.0)), (1, 1), 3)
    rng = np.random.default_rng(11)
    c = rng.uniform(0, 1, mesh.n_nodes)
    plan = AssemblyPlan(mesh)
    a = assemble_haptotaxis(mesh, c, plan)
    b = assemble_haptotaxis(mesh, c, plan)
    assert a.data.tobytes() == b.data.tobytes()
    assert assemble_mass(mesh).data.tobytes() == assemble_mass(mesh).data.tobytes()


def test_assembly_memory_is_linear_in_the_nodes():
    # 10,000 nodes, 5,000 of them along the first axis: a plan that held a
    # dense (axis x axis) table per axis would need gigabytes here; the
    # per-axis steps need well under 1 kB per node
    mesh = build_structured_mesh(2, ((0.0, 4999.0), (0.0, 1.0)), (4999, 1), 0)
    w = np.random.default_rng(2).uniform(0, 1, mesh.n_nodes)
    tracemalloc.start()
    try:
        plan = AssemblyPlan(mesh)
        forms = [assemble_mass(mesh, plan), assemble_stiffness(mesh, plan),
                 assemble_weighted_mass(mesh, w, plan), assemble_haptotaxis(mesh, w, plan)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(f.offsets is plan.offsets and f.data.shape == forms[0].data.shape
               for f in forms)
    assert peak <= 2000 * mesh.n_nodes


def test_assemble_rejects_mesh_mismatch():
    mesh = build_structured_mesh(2, UNIT, (1, 1), 0)
    other = build_structured_mesh(2, UNIT, (1, 1), 1)
    field_other = interpolate(lambda x: 1.0, other)
    with pytest.raises(AssemblyError):
        assemble_weighted_mass(mesh, field_other)
    with pytest.raises(AssemblyError):
        assemble_product_load(mesh, interpolate(lambda x: 1.0, mesh), field_other)


def test_weighted_mass_symmetry_assembled():
    rng = np.random.default_rng(5)
    for dim, extents, cells, refinements in (
        (2, ((0.0, 1.0), (0.0, 1.0)), (2, 2), 1),
        (3, ((0.0, 1.0), (-1.0, 1.5), (2.0, 6.0)), (3, 4, 5), 0),
    ):
        mesh = build_structured_mesh(dim, extents, cells, refinements)
        w = rng.uniform(-1, 1, mesh.n_nodes)
        mat = dense(assemble_weighted_mass(mesh, w))
        assert np.max(np.abs(mat - mat.T)) < 1e-15, cells


@pytest.mark.parametrize(
    "dim, extents, cells, refinements",
    [
        (2, ((0.0, 20.0), (0.0, 20.0)), (1, 1), 5),  # the 32x32 reference box
        (3, ((0.0, 1.0), (-1.0, 1.5), (2.0, 6.0)), (3, 4, 5), 0),  # unequal axes
        (2, ((0.0, 1.0), (0.0, 1.0)), (1, 1), 0),  # single element
        (3, ((0.0, 1.0), (0.0, 1.0), (0.0, 1.0)), (1, 1, 1), 0),
    ],
)
def test_mass_inverse_inverts_assembled_mass(dim, extents, cells, refinements):
    mesh = build_structured_mesh(dim, extents, cells, refinements)
    m = assemble_mass(mesh)
    apply = mass_inverse(AssemblyPlan(mesh))
    rng = np.random.default_rng(7)
    for b in (rng.standard_normal(mesh.n_nodes), m.matvec(rng.uniform(0.0, 1.0, mesh.n_nodes))):
        x = apply(b)
        assert x.shape == b.shape
        assert np.linalg.norm(m.matvec(x) - b) / np.linalg.norm(b) <= 1e-14


# one axis longer than fem.MASS_DENSE_MAX nodes, in each position
LONG_AXIS_MESHES = {
    "1999x1": (1999, 1),
    "3x400": (3, 400),
    "300x2x3": (300, 2, 3),
    "2x300x3": (2, 300, 3),
    "3x2x300": (3, 2, 300),
}


@pytest.mark.parametrize("cells", LONG_AXIS_MESHES.values(), ids=LONG_AXIS_MESHES)
def test_mass_inverse_solves_long_axes_by_lines(cells):
    mesh = build_structured_mesh(len(cells), [(0.0, float(n)) for n in cells], cells, 0)
    assert min(cells) + 1 <= fem.MASS_DENSE_MAX < max(cells) + 1
    m = assemble_mass(mesh)
    apply = mass_inverse(AssemblyPlan(mesh))
    b = np.random.default_rng(8).standard_normal(mesh.n_nodes)
    x = apply(m.matvec(b))
    assert x.shape == b.shape
    assert np.max(np.abs(x - b)) <= 1e-12 * np.max(np.abs(b))
    assert np.linalg.norm(m.matvec(apply(b)) - b) / np.linalg.norm(b) <= 1e-14


def test_mass_inverse_of_a_long_axis_builds_in_linear_time_and_memory():
    # a dense inverse of the 2,000-node axis took 0.61 s and 64 MB to build
    mesh = build_structured_mesh(2, ((0.0, 1999.0), (0.0, 1.0)), (1999, 1), 0)
    plan = AssemblyPlan(mesh)
    seconds = []
    for _ in range(3):
        start = time.perf_counter()
        mass_inverse(plan)
        seconds.append(time.perf_counter() - start)
    tracemalloc.start()
    try:
        mass_inverse(plan)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert min(seconds) < 0.01
    assert peak < 1_000_000


KERNEL_MESHES = {
    "2d-one-element": (2, ((0.0, 1.0), (0.0, 1.0)), (1, 1), 0),
    "2d-32x32": (2, ((0.0, 20.0), (0.0, 20.0)), (1, 1), 5),
    "3d-3x2x4": (3, ((0.0, 1.0), (-1.0, 1.5), (2.0, 6.0)), (3, 2, 4), 0),
    "3d-2x1x3": (3, ((0.0, 1.0), (-1.0, 1.5), (2.0, 6.0)), (2, 1, 3), 0),
}


@pytest.mark.parametrize("form", ["weighted_mass", "haptotaxis"])
@pytest.mark.parametrize("case", KERNEL_MESHES.values(), ids=KERNEL_MESHES.keys())
def test_kernel_contract_is_the_scipy_step_loop_bit_for_bit(case, form):
    # the axis steps go through the compiled kernel behind scipy's `@`; a
    # renamed or changed kernel fails here
    mesh = build_structured_mesh(*case)
    steps = getattr(AssemblyPlan(mesh), f"{form}_steps")
    v = np.random.default_rng(12).uniform(-1.0, 1.0, mesh.n_nodes)
    ours = fem._contract(steps, v)
    ref = v
    for step in steps:
        ref = step @ ref.reshape(step.shape[1], -1)
    assert ours.dtype == ref.dtype and ours.shape == ref.shape
    assert ours.tobytes() == ref.tobytes()


def test_kernel_contract_rejects_a_wrong_length_before_any_call(monkeypatch):
    class NoKernel:
        def __getattr__(self, name):
            raise AssertionError(f"kernel {name} reached with a wrong operand")

    mesh = build_structured_mesh(2, UNIT, (2, 3), 0)
    steps = AssemblyPlan(mesh).haptotaxis_steps
    monkeypatch.setattr(linsolve, "_sparsetools", NoKernel())
    for n in (mesh.n_nodes - 1, mesh.n_nodes + 1, 2 * mesh.n_nodes + 1):
        with pytest.raises(ValueError):
            fem._contract(steps, np.ones(n))


@pytest.mark.parametrize("case", KERNEL_MESHES.values(), ids=KERNEL_MESHES.keys())
def test_kernel_forms_add_into_a_matrix_of_the_plans_offsets(case, monkeypatch):
    # the last axis step adds into the given matrix; from zero it is the
    # plain form bit for bit
    mesh = build_structured_mesh(*case)
    plan = AssemblyPlan(mesh)
    v = np.random.default_rng(13).uniform(-1.0, 1.0, mesh.n_nodes)
    for form in (assemble_weighted_mass, assemble_haptotaxis):
        into = plan.matrix(np.zeros((plan.offsets.size, mesh.n_nodes)))
        assert form(mesh, v, plan, into) is into
        assert into.data.tobytes() == form(mesh, v, plan).data.tobytes()

    class NoKernel:
        def __getattr__(self, name):
            raise AssertionError(f"kernel {name} reached with a foreign matrix")

    monkeypatch.setattr(linsolve, "_sparsetools", NoKernel())
    other = AssemblyPlan(build_structured_mesh(2, UNIT, (5, 7), 0))
    n = mesh.n_nodes
    foreign = [
        linsolve.DiaMatrix(n, plan.offsets + 1, np.zeros((plan.offsets.size, n))),
        linsolve.DiaMatrix(n, plan.offsets[1:], np.zeros((plan.offsets.size - 1, n))),
        other.matrix(np.zeros((other.offsets.size, other.mesh.n_nodes))),
    ]
    for into in foreign:
        for form in (assemble_weighted_mass, assemble_haptotaxis):
            with pytest.raises(ValueError, match="offsets"):
                form(mesh, v, plan, into)
