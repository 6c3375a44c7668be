import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from haptosim.fem import (
    AssemblyError,
    AssemblyPlan,
    assemble,
    assemble_haptotaxis,
    assemble_mass,
    assemble_product_load,
    assemble_stiffness,
    assemble_weighted_mass,
    element_haptotaxis,
    element_load_product,
    element_mass,
    element_stiffness,
    element_weighted_mass,
    gauss_rule,
    mass_inverse,
)
from haptosim.mesh import build_structured_mesh

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

box_sizes = st.lists(st.floats(0.05, 4.0), min_size=2, max_size=2)


def test_quadrature_weights_sum_to_reference_volume():
    for dim in (2, 3):
        for n in (2, 5):
            rule = gauss_rule(dim, n)
            assert abs(rule.weights.sum() - 1.0) < 1e-14
            assert np.all(rule.weights > 0)


def test_mass_unit_square_symbolic():
    assert np.max(np.abs(element_mass((1.0, 1.0)) - MASS_UNIT)) < 1e-14


def test_mass_scales_with_area():
    h = 0.37
    scaled = element_mass((h, h))
    assert np.max(np.abs(scaled - h * h * MASS_UNIT)) < 1e-14


def test_mass_row_sums_partition_of_unity():
    m = element_mass((1.0, 1.0))
    np.testing.assert_allclose(m.sum(axis=1), 0.25, atol=1e-15)
    assert abs(m.sum() - 1.0) < 1e-15


def test_stiffness_unit_square_symbolic():
    assert np.max(np.abs(element_stiffness((1.0, 1.0)) - STIFF_UNIT)) < 1e-14


def test_stiffness_rows_annihilate_constants():
    k = element_stiffness((1.0, 1.0))
    np.testing.assert_allclose(k.sum(axis=1), 0.0, atol=1e-15)


@given(h=st.floats(0.05, 8.0))
@settings(max_examples=30, deadline=None)
def test_stiffness_2d_scale_invariant(h):
    scaled = element_stiffness((h, h))
    assert np.max(np.abs(scaled - STIFF_UNIT)) < 1e-14


@given(sizes=box_sizes)
@settings(max_examples=30, deadline=None)
def test_mass_and_stiffness_symmetric(sizes):
    m = element_mass(sizes)
    k = element_stiffness(sizes)
    assert np.max(np.abs(m - m.T)) < 1e-15
    assert np.max(np.abs(k - k.T)) < 1e-15
    # mass is positive definite, stiffness positive semi-definite
    assert np.all(np.linalg.eigvalsh(m) > 0)
    assert np.linalg.eigvalsh(k).min() > -1e-14


def test_weighted_mass_constant_weight_reduces_to_mass():
    m = element_mass((1.0, 1.0))
    w = element_weighted_mass((1.0, 1.0), np.full(4, 3.25))
    assert np.max(np.abs(w - 3.25 * m)) < 1e-14
    zero = element_weighted_mass((1.0, 1.0), np.zeros(4))
    assert np.all(zero == 0.0)


def test_weighted_mass_single_node_weight_symbolic():
    w = element_weighted_mass((1.0, 1.0), (1.0, 0.0, 0.0, 0.0))
    assert np.max(np.abs(w - WEIGHTED_UNIT)) < 1e-15
    assert np.max(np.abs(w - w.T)) < 1e-15


def test_haptotaxis_constant_density_vanishes():
    b = element_haptotaxis((1.0, 1.0), np.full(4, 0.8))
    assert np.max(np.abs(b)) < 1e-15


def test_haptotaxis_linear_density_symbolic():
    # c = x1 has nodal values (0, 1, 1, 0); rows are test indices, so the
    # result is the transpose of the (i, j)-indexed tensor
    b = element_haptotaxis((1.0, 1.0), (0.0, 1.0, 1.0, 0.0))
    assert np.max(np.abs(b - DX_TENSOR.T)) < 1e-15


def test_haptotaxis_linear_in_density():
    rng = np.random.default_rng(7)
    c = rng.standard_normal(4)
    base = element_haptotaxis((1.0, 1.0), c)
    # scaling by a power of two is exact in floating point
    np.testing.assert_array_equal(element_haptotaxis((1.0, 1.0), 4.0 * c), 4.0 * base)
    general = element_haptotaxis((1.0, 1.0), 1.7 * c)
    assert np.max(np.abs(general - 1.7 * base)) < 1e-14


def test_load_product_constant_factors():
    f = element_load_product((1.0, 1.0), np.ones(4), np.ones(4))
    np.testing.assert_allclose(f, 0.25, atol=1e-15)
    zero = element_load_product((1.0, 1.0), np.zeros(4), np.ones(4))
    assert np.all(zero == 0.0)


def test_load_product_linear_factors_symbolic():
    # a = b = x1: entries int x^2 phi_j = (1/24, 1/8, 1/8, 1/24)
    f = element_load_product((1.0, 1.0), (0, 1, 1, 0), (0, 1, 1, 0))
    assert np.max(np.abs(f - np.array([1 / 24, 1 / 8, 1 / 8, 1 / 24]))) < 1e-15


def test_cube_mass_row_sums():
    m = element_mass((1.0, 1.0, 1.0))
    np.testing.assert_allclose(m.sum(axis=1), 1 / 8, atol=1e-15)


@pytest.mark.parametrize(
    "call",
    [
        lambda: element_mass((0.0, 1.0)),
        lambda: element_mass((1.0, -2.0)),
        lambda: element_mass((np.nan, 1.0)),
        lambda: element_stiffness((1.0,)),
        lambda: element_weighted_mass((1.0, 1.0), (1.0, np.inf, 0.0, 0.0)),
        lambda: element_haptotaxis((1.0, 1.0), (np.nan,) * 4),
        lambda: element_load_product((1.0, 1.0), np.ones(4), np.full(4, np.nan)),
        lambda: element_weighted_mass((1.0, 1.0), np.ones(3)),
    ],
)
def test_degenerate_inputs_rejected(call):
    with pytest.raises(AssemblyError):
        call()


# --- global assembly --------------------------------------------------------


def test_assembled_mass_sums_to_domain_volume():
    for dim in (2, 3):
        mesh = build_structured_mesh(dim, ((0.0, 20.0),) * dim, (1,) * dim, 2)
        m = assemble_mass(mesh)
        vol = mesh.domain_volume()
        assert abs(m.data.sum() - vol) <= 1e-12 * vol


def test_assembled_stiffness_rows_sum_to_zero():
    mesh = build_structured_mesh(2, ((0.0, 20.0), (0.0, 20.0)), (1, 1), 3)
    k = assemble_stiffness(mesh)
    row_sums = k.matvec(np.ones(mesh.n_nodes))
    assert np.max(np.abs(row_sums)) <= 1e-12


def _brute_force_scatter(mesh, element_matrices):
    n = mesh.n_nodes
    dense = np.zeros((n, n))
    for e, mat in enumerate(element_matrices):
        idx = mesh.elements[e]
        for j, gj in enumerate(idx):
            for i, gi in enumerate(idx):
                dense[gj, gi] += mat[j, i]
    return dense


def test_assembled_mass_matches_brute_force_scatter():
    mesh = build_structured_mesh(2, ((0.0, 1.0), (0.0, 1.0)), (2, 2), 0)
    sizes = mesh.element_sizes()
    ref = _brute_force_scatter(
        mesh, [element_mass(sizes[e]) for e in range(mesh.n_elements)]
    )
    assert np.max(np.abs(assemble_mass(mesh).toarray() - ref)) < 1e-14


@given(seed=st.integers(0, 2**31))
@settings(max_examples=15, deadline=None)
def test_assembled_coefficient_forms_match_brute_force(seed):
    mesh = build_structured_mesh(2, ((0.0, 2.0), (0.0, 3.0)), (2, 2), 0)
    rng = np.random.default_rng(seed)
    c = rng.uniform(-1, 1, mesh.n_nodes)
    w = rng.uniform(-1, 1, mesh.n_nodes)
    sizes = mesh.element_sizes()
    ref_b = _brute_force_scatter(
        mesh,
        [
            element_haptotaxis(sizes[e], c[mesh.elements[e]])
            for e in range(mesh.n_elements)
        ],
    )
    ref_w = _brute_force_scatter(
        mesh,
        [
            element_weighted_mass(sizes[e], w[mesh.elements[e]])
            for e in range(mesh.n_elements)
        ],
    )
    assert np.max(np.abs(assemble_haptotaxis(mesh, c).toarray() - ref_b)) < 1e-14
    assert np.max(np.abs(assemble_weighted_mass(mesh, w).toarray() - ref_w)) < 1e-14


def test_assembled_load_matches_brute_force():
    mesh = build_structured_mesh(2, ((0.0, 1.0), (0.0, 1.0)), (2, 2), 0)
    rng = np.random.default_rng(3)
    a = rng.uniform(0, 1, mesh.n_nodes)
    b = rng.uniform(0, 1, mesh.n_nodes)
    sizes = mesh.element_sizes()
    ref = np.zeros(mesh.n_nodes)
    for e in range(mesh.n_elements):
        idx = mesh.elements[e]
        fe = element_load_product(sizes[e], a[idx], b[idx])
        for j, gj in enumerate(idx):
            ref[gj] += fe[j]
    assert np.max(np.abs(assemble_product_load(mesh, a, b) - ref)) < 1e-14


def test_sparsity_pattern_is_element_adjacency():
    mesh = build_structured_mesh(2, ((0.0, 1.0), (0.0, 1.0)), (2, 2), 0)
    m = assemble_mass(mesh).to_scipy()
    adjacent = set()
    for elem in mesh.elements:
        for j in elem:
            for i in elem:
                adjacent.add((int(j), int(i)))
    stored = set(zip(*m.nonzero()))
    assert stored == adjacent


def test_assembly_is_bitwise_deterministic():
    mesh = build_structured_mesh(2, ((0.0, 20.0), (0.0, 20.0)), (1, 1), 3)
    rng = np.random.default_rng(11)
    c = rng.uniform(0, 1, mesh.n_nodes)
    plan = AssemblyPlan(mesh)
    a = assemble_haptotaxis(mesh, c, plan)
    b = assemble_haptotaxis(mesh, c, plan)
    assert a.data.tobytes() == b.data.tobytes()
    assert assemble_mass(mesh).data.tobytes() == assemble_mass(mesh).data.tobytes()


def test_assemble_dispatch_and_mesh_mismatch():
    mesh = build_structured_mesh(2, ((0.0, 1.0), (0.0, 1.0)), (1, 1), 0)
    other = build_structured_mesh(2, ((0.0, 1.0), (0.0, 1.0)), (1, 1), 1)
    m = assemble("mass", mesh)
    assert m.n == mesh.n_nodes
    from haptosim.mesh import interpolate

    field_other = interpolate(lambda x: 1.0, other)
    with pytest.raises(AssemblyError):
        assemble("weighted_mass", mesh, w=field_other)
    with pytest.raises(AssemblyError):
        assemble("nonsense", mesh)
    with pytest.raises(AssemblyError):
        assemble_weighted_mass(mesh, np.ones(3))


def test_weighted_mass_symmetry_assembled():
    mesh = build_structured_mesh(2, ((0.0, 1.0), (0.0, 1.0)), (2, 2), 1)
    rng = np.random.default_rng(5)
    w = rng.uniform(-1, 1, mesh.n_nodes)
    mat = assemble_weighted_mass(mesh, w).toarray()
    assert np.max(np.abs(mat - mat.T)) < 1e-15


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
    m = assemble_mass(mesh).to_scipy()
    apply = mass_inverse(mesh)
    rng = np.random.default_rng(7)
    for b in (rng.standard_normal(mesh.n_nodes), m @ rng.uniform(0.0, 1.0, mesh.n_nodes)):
        x = apply(b)
        assert x.shape == b.shape
        assert np.linalg.norm(m @ x - b) / np.linalg.norm(b) <= 1e-14
