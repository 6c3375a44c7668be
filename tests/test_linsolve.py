import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from haptosim import linsolve
from haptosim.fem import assemble_mass
from haptosim.linsolve import (
    CsrMatrix,
    SolverFailure,
    SparseFormatError,
    axpy,
    combine,
    from_coo,
    from_dense,
    norm2,
    solve,
    spmv,
)
from haptosim.mesh import build_structured_mesh


def test_solve_identity():
    a = from_dense(np.eye(4))
    b = np.array([3.0, -1.0, 0.5, 2.0])
    np.testing.assert_array_equal(solve(a, b), b)


def test_solve_hand_eliminated_2x2():
    a = from_dense([[2.0, 1.0], [1.0, 2.0]])
    x = solve(a, np.array([3.0, 3.0]))
    np.testing.assert_allclose(x, [1.0, 1.0], atol=1e-14)


def test_solve_mass_matrix_constructed_rhs():
    mesh = build_structured_mesh(2, ((0.0, 1.0), (0.0, 1.0)), (2, 2), 0)
    m = assemble_mass(mesh)
    ones = np.ones(mesh.n_nodes)
    x = solve(m, m.matvec(ones))
    assert np.max(np.abs(x - 1.0)) <= 1e-12


@pytest.mark.parametrize("method", ["direct", "iterative"])
def test_solve_contract_on_both_paths(method):
    mesh = build_structured_mesh(2, ((0.0, 1.0), (0.0, 1.0)), (4, 4), 0)
    m = assemble_mass(mesh)
    rng = np.random.default_rng(0)
    b = rng.standard_normal(m.n)
    x = solve(m, b, method=method)
    assert norm2(m.matvec(x) - b) / norm2(b) <= 1e-12


def test_solve_zero_rhs():
    a = from_dense([[2.0, 1.0], [1.0, 2.0]])
    np.testing.assert_array_equal(solve(a, np.zeros(2)), np.zeros(2))


def test_singular_matrix_raises_with_residual():
    a = from_dense([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(SolverFailure) as err:
        solve(a, np.array([1.0, 0.0]))
    assert hasattr(err.value, "residual")


def test_nonfinite_inputs_rejected():
    a = from_dense([[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        solve(a, np.array([np.nan, 0.0]))
    bad = CsrMatrix(2, a.indptr, a.indices, np.array([np.inf, 1.0]))
    with pytest.raises(ValueError):
        solve(bad, np.ones(2))
    with pytest.raises(ValueError):
        solve(a, np.ones(3))


def test_spmv_basics():
    a = from_dense([[1.0, 2.0], [0.0, 3.0]])
    np.testing.assert_array_equal(spmv(a, np.zeros(2)), np.zeros(2))
    eye = from_dense(np.eye(3))
    x = np.array([1.0, -2.0, 4.0])
    np.testing.assert_array_equal(spmv(eye, x), x)
    with pytest.raises(ValueError):
        spmv(a, np.ones(3))


@given(seed=st.integers(0, 2**31))
@settings(max_examples=30, deadline=None)
def test_spmv_matches_dense_oracle(seed):
    rng = np.random.default_rng(seed)
    dense = rng.standard_normal((5, 5))
    dense[rng.random((5, 5)) < 0.5] = 0.0
    a = from_dense(dense)
    x = rng.standard_normal(5)
    assert np.max(np.abs(spmv(a, x) - dense @ x)) <= 1e-14


def test_axpy_and_norm_helpers():
    x = np.array([1.0, 2.0])
    y = np.array([10.0, 20.0])
    np.testing.assert_array_equal(axpy(2.0, x, y), [12.0, 24.0])
    assert norm2(np.array([3.0, 4.0])) == 5.0
    assert linsolve.norm_inf(np.array([-7.0, 2.0])) == 7.0
    with pytest.raises(ValueError):
        axpy(1.0, x, np.ones(3))


def test_validate_catches_structural_defects():
    good = from_dense([[1.0, 2.0], [0.0, 3.0]])
    good.validate()
    # out-of-range column
    bad = CsrMatrix(2, good.indptr, np.array([0, 5, 1]), good.data)
    with pytest.raises(SparseFormatError):
        bad.validate()
    # non-increasing columns within a row
    bad2 = CsrMatrix(
        2,
        np.array([0, 2, 3]),
        np.array([1, 0, 1]),
        np.array([1.0, 2.0, 3.0]),
    )
    with pytest.raises(SparseFormatError):
        bad2.validate()
    bad3 = CsrMatrix(2, np.array([0, 2, 3]), good.indices, np.array([1.0, np.nan, 1.0]))
    with pytest.raises(SparseFormatError):
        bad3.validate()


def test_from_coo_sums_duplicates():
    a = from_coo(2, [0, 0, 1], [1, 1, 0], [1.0, 2.0, 4.0])
    a.validate()
    dense = a.toarray()
    np.testing.assert_array_equal(dense, [[0.0, 3.0], [4.0, 0.0]])


def test_combine_same_pattern():
    mesh = build_structured_mesh(2, ((0.0, 1.0), (0.0, 1.0)), (2, 2), 0)
    from haptosim.fem import AssemblyPlan, assemble_stiffness

    plan = AssemblyPlan(mesh)
    m = assemble_mass(mesh, plan)
    k = assemble_stiffness(mesh, plan)
    c = combine([(2.0, m), (-0.5, k)])
    ref = 2.0 * m.toarray() - 0.5 * k.toarray()
    assert np.max(np.abs(c.toarray() - ref)) < 1e-14
    other = assemble_mass(mesh)  # fresh plan, equal pattern content
    combine([(1.0, m), (1.0, other)])  # array-equal patterns are accepted
    with pytest.raises(ValueError):
        combine([])


@given(seed=st.integers(0, 2**31))
@settings(max_examples=20, deadline=None)
def test_solve_spmv_round_trip_on_mass(seed):
    mesh = build_structured_mesh(2, ((0.0, 1.0), (0.0, 1.0)), (2, 2), 0)
    m = assemble_mass(mesh)
    rng = np.random.default_rng(seed)
    x = rng.uniform(-5, 5, m.n)
    back = solve(m, m.matvec(x))
    assert np.max(np.abs(back - x)) <= 1e-9  # tol_lin times mild conditioning


def test_solve_is_deterministic():
    mesh = build_structured_mesh(2, ((0.0, 1.0), (0.0, 1.0)), (4, 4), 0)
    m = assemble_mass(mesh)
    rng = np.random.default_rng(42)
    b = rng.standard_normal(m.n)
    x1 = solve(m, b, method="iterative")
    x2 = solve(m, b, method="iterative")
    assert x1.tobytes() == x2.tobytes()
    y1 = solve(m, b)
    y2 = solve(m, b)
    assert y1.tobytes() == y2.tobytes()


def test_warm_start_still_meets_contract():
    mesh = build_structured_mesh(2, ((0.0, 1.0), (0.0, 1.0)), (4, 4), 0)
    m = assemble_mass(mesh)
    rng = np.random.default_rng(1)
    b = rng.standard_normal(m.n)
    exact = solve(m, b)
    warm = solve(m, b, method="iterative", x0=exact + 1e-3, spd=True)
    assert norm2(m.matvec(warm) - b) / norm2(b) <= 1e-12


def _mass_system(cells):
    mesh = build_structured_mesh(2, ((0.0, 1.0), (0.0, 1.0)), (cells, cells), 0)
    m = assemble_mass(mesh)
    b = np.random.default_rng(3).standard_normal(m.n)
    return m, b


def test_exact_inverse_is_used_without_factoring(monkeypatch):
    m, b = _mass_system(8)
    dense_inv = np.linalg.inv(m.toarray())

    def no_factorization(*args, **kwargs):
        raise AssertionError("an exact inverse should need no factorization")

    monkeypatch.setattr(linsolve.spla, "splu", no_factorization)
    x = solve(m, b, inverse=lambda v: dense_inv @ v)
    np.testing.assert_array_equal(x, dense_inv @ b)


@pytest.mark.parametrize("cells, method", [(4, "auto"), (8, "direct"), (12, "iterative")])
@pytest.mark.parametrize(
    "wrong",
    [lambda v: v, lambda v: np.zeros_like(v), lambda v: np.full_like(v, np.nan)],
    ids=["identity", "zero", "nan"],
)
def test_wrong_inverse_falls_through_to_contract(cells, method, wrong):
    m, b = _mass_system(cells)
    x = solve(m, b, tol_lin=1e-12, method=method, inverse=wrong)
    assert norm2(m.matvec(x) - b) / norm2(b) <= 1e-12


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # zero breaks Krylov
@pytest.mark.parametrize(
    "wrong", [lambda v: v, lambda v: np.zeros_like(v), lambda v: -v],
    ids=["identity", "zero", "negated"],
)
@pytest.mark.parametrize("spd", [False, True])
def test_wrong_preconditioner_still_meets_contract(wrong, spd):
    m, b = _mass_system(12)
    x = solve(m, b, tol_lin=1e-12, method="iterative", spd=spd, precond=wrong)
    assert norm2(m.matvec(x) - b) / norm2(b) <= 1e-12


def test_scipy_form_is_built_once_per_matrix():
    m, _ = _mass_system(2)
    assert m.to_scipy() is m.to_scipy()
