import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import lapack

from haptosim import linsolve
from haptosim.fem import (
    AssemblyPlan, assemble_haptotaxis, assemble_mass, assemble_stiffness,
    assemble_weighted_mass, mass_inverse,
)
from haptosim.linsolve import BandLU, DiaMatrix, SolverFailure, combine, solve
from haptosim.mesh import build_structured_mesh


def dia(a) -> DiaMatrix:
    """The DiaMatrix of a dense matrix: one diagonal per offset that holds a
    nonzero, in increasing order, indexed by column."""
    full = np.asarray(a, dtype=float)
    n = full.shape[0]
    rows, cols = np.nonzero(full)
    offsets = np.unique(cols - rows)
    data = np.zeros((offsets.size, n))
    for k, offset in enumerate(offsets):
        j = np.arange(max(offset, 0), min(n + offset, n))
        data[k, j] = full[j - offset, j]
    return DiaMatrix(n, offsets, data)


def scipy_form(a: DiaMatrix) -> sp.dia_matrix:
    return sp.dia_matrix((a.data, a.offsets), shape=(a.n, a.n))


def dense(a: DiaMatrix) -> np.ndarray:
    return scipy_form(a).toarray()


def relative_residual(a, x, b) -> float:
    return np.linalg.norm(a.matvec(x) - b) / np.linalg.norm(b)


def take_path(monkeypatch, method):
    """Send the solves of a test down one path: "iterative" (one Krylov
    solve) by lowering DIRECT_LIMIT below every system; "direct" and "auto"
    leave it, so the systems they are used with (at most 9 x 9 nodes) take
    the banded LU."""
    if method == "iterative":
        monkeypatch.setattr(linsolve, "DIRECT_LIMIT", 0)


def test_solve_identity():
    a = dia(np.eye(4))
    b = np.array([3.0, -1.0, 0.5, 2.0])
    np.testing.assert_array_equal(solve(a, b), b)


def test_solve_hand_eliminated_2x2():
    a = dia([[2.0, 1.0], [1.0, 2.0]])
    x = solve(a, np.array([3.0, 3.0]))
    np.testing.assert_allclose(x, [1.0, 1.0], atol=1e-14)


def test_solve_mass_matrix_constructed_rhs():
    mesh = build_structured_mesh(2, ((0.0, 1.0), (0.0, 1.0)), (2, 2), 0)
    m = assemble_mass(mesh)
    ones = np.ones(mesh.n_nodes)
    x = solve(m, m.matvec(ones))
    assert np.max(np.abs(x - 1.0)) <= 1e-12


@pytest.mark.parametrize("method", ["direct", "iterative"])
def test_solve_contract_on_both_paths(method, monkeypatch):
    take_path(monkeypatch, method)
    mesh = build_structured_mesh(2, ((0.0, 1.0), (0.0, 1.0)), (4, 4), 0)
    m = assemble_mass(mesh)
    rng = np.random.default_rng(0)
    b = rng.standard_normal(m.n)
    x = solve(m, b)
    assert relative_residual(m, x, b) <= 1e-12


def test_solve_zero_rhs():
    a = dia([[2.0, 1.0], [1.0, 2.0]])
    np.testing.assert_array_equal(solve(a, np.zeros(2)), np.zeros(2))


def test_singular_matrix_raises_with_residual():
    a = dia([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(SolverFailure) as err:
        solve(a, np.array([1.0, 0.0]))
    assert hasattr(err.value, "residual")


@pytest.mark.parametrize("cells, method", [(1, "auto"), (4, "direct"), (4, "iterative")])
def test_unreachable_tolerance_raises_on_every_path(cells, method, monkeypatch):
    take_path(monkeypatch, method)
    m, b = _mass_system(cells)
    with pytest.raises(SolverFailure) as err:
        solve(m, b, tol_lin=1e-30)
    assert 1e-30 < err.value.residual < 1e-12




@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_band_solve_matches_dense_oracle(data):
    # nonsymmetric and diagonally dominant, with unequal lower and upper widths
    n = data.draw(st.integers(5, 40))
    narrow = data.draw(st.integers(0, n - 2))
    wide = data.draw(st.integers(narrow + 1, n - 1))
    kl, ku = (narrow, wide) if data.draw(st.booleans()) else (wide, narrow)
    seed = data.draw(st.integers(0, 2**31))
    rng = np.random.default_rng(seed)
    i, j = np.indices((n, n))
    full = np.where((i - j <= kl) & (j - i <= ku), rng.uniform(-1.0, 1.0, (n, n)), 0.0)
    full[(i - j == kl) | (j - i == ku)] += 2.0  # the outer diagonals are stored
    np.fill_diagonal(full, np.abs(full).sum(axis=1) + 1.0)
    a = dia(full)
    b = rng.standard_normal(n)
    x = solve(a, b, tol_lin=1e-12)
    assert relative_residual(a, x, b) <= 1e-12
    oracle = np.linalg.solve(full, b)
    assert np.max(np.abs(x - oracle)) <= 1e-12 * np.max(np.abs(oracle))


def _u_system(cells, lengths=None):
    """The u system M + 0.5 K - 0.5 B(c) on a box of the given cell counts,
    with edge ``lengths`` (default: unit cells)."""
    lengths = lengths or cells
    mesh = build_structured_mesh(len(cells), [(0.0, float(n)) for n in lengths], cells, 0)
    plan = AssemblyPlan(mesh)
    c = 1.0 - 0.5 * np.exp(-np.sum(mesh.node_coords()**2, axis=1) / 25.0)
    return combine([
        (1.0, assemble_mass(mesh, plan)),
        (0.5, assemble_stiffness(mesh, plan)),
        (-0.5, assemble_haptotaxis(mesh, c, plan)),
    ])


def _u_system_2d():
    return _u_system((32, 32), (20.0, 20.0))


def _mass_stiffness_3d():
    mesh = build_structured_mesh(3, ((0.0, 1.0),) * 3, (8, 8, 8), 0)
    plan = AssemblyPlan(mesh)
    return combine([
        (1.0, assemble_mass(mesh, plan)), (0.01, assemble_stiffness(mesh, plan))
    ])


def spy_on_band(monkeypatch):
    """Count the calls of LAPACK's banded LU factorization; the calls still
    factor."""
    calls = []
    dgbtrf = linsolve.lapack.dgbtrf

    def counted(*args, **kwargs):
        calls.append(1)
        return dgbtrf(*args, **kwargs)

    monkeypatch.setattr(linsolve.lapack, "dgbtrf", counted)
    return calls


def spy_on_substitutions(monkeypatch):
    """Count the solves from band factors by either route: a ``dgbtrs``
    call, or the pair of BLAS triangular solves, counted at its L solve.
    Returns the lists of the two routes' calls; the calls still solve."""
    routes = {"dgbtrs": [], "triangles": []}
    dgbtrs, dtbsv = linsolve.lapack.dgbtrs, linsolve.blas.dtbsv

    def counted_dgbtrs(*args, **kwargs):
        routes["dgbtrs"].append(1)
        return dgbtrs(*args, **kwargs)

    def counted_dtbsv(*args, **kwargs):
        if kwargs.get("lower"):
            routes["triangles"].append(1)
        return dtbsv(*args, **kwargs)

    monkeypatch.setattr(linsolve.lapack, "dgbtrs", counted_dgbtrs)
    monkeypatch.setattr(linsolve.blas, "dtbsv", counted_dtbsv)
    return routes


def forbid(monkeypatch, module, name):
    def forbidden(*args, **kwargs):
        raise AssertionError(f"this solve should not reach {name}")

    monkeypatch.setattr(module, name, forbidden)


@pytest.mark.parametrize("system", [_u_system_2d, _mass_stiffness_3d], ids=["u2d", "3d"])
def test_auto_path_solves_mesh_systems_without_splu(monkeypatch, system):
    # 32^2 (1,089 unknowns) and 8^3 (729) stay on the band: perfbench/checks.py
    # requires the peaks2d workload, a 32^2 run, to make no Krylov solve
    a = system()
    b = np.random.default_rng(5).standard_normal(a.n)
    ref = spla.splu(scipy_form(a).tocsc()).solve(b)
    bands = spy_on_band(monkeypatch)
    forbid(monkeypatch, linsolve.spla, "splu")
    x = solve(a, b)
    assert len(bands) == 1
    assert np.max(np.abs(x - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize(
    "cells",
    [(4999, 1), (69, 69, 1), (256, 32), (linsolve.DIRECT_LIMIT // 4 - 1, 1, 1)],
    ids=["4999x1", "69x69x1", "256x32", "widest-band-at-limit"],
)
def test_wide_bands_take_krylov_above_the_limit(monkeypatch, cells):
    # the first axis is numbered fastest, so a mesh long in it gives a band
    # far wider than its stored entries: 1.2 GB of band storage at 4999 x 1.
    # Above DIRECT_LIMIT these systems take Krylov and no LU at all; the
    # widest band below it, nx x 1 x 1 with 4 (nx + 1) = DIRECT_LIMIT nodes,
    # still takes the banded LU
    dim = len(cells)
    mesh = build_structured_mesh(dim, tuple((0.0, float(n)) for n in cells), cells, 0)
    plan = AssemblyPlan(mesh)  # unit cells
    a = combine([
        (1.0, assemble_mass(mesh, plan)), (0.5, assemble_stiffness(mesh, plan))
    ])
    b = np.random.default_rng(6).standard_normal(a.n)
    forbid(monkeypatch, linsolve.spla, "splu")
    if a.n > linsolve.DIRECT_LIMIT:
        forbid(monkeypatch, linsolve.lapack, "dgbtrf")
        x = solve(a, b)
    else:
        bands = spy_on_band(monkeypatch)
        kl = 3 * cells[0] + 4  # (nx+1)(ny+1) + nx + 2 with ny = 1
        band_bytes = (3 * kl + 1) * a.n * 8  # LAPACK's band, with room for fill
        tracemalloc.start()
        try:
            x = solve(a, b)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(bands) == 1
        assert band_bytes <= peak <= 1.1 * band_bytes
    assert relative_residual(a, x, b) <= 1e-12


def test_krylov_solves_a_mesh_with_coinciding_offsets(monkeypatch):
    # one cell along the first axis merges two pairs of diagonals; at
    # 1 x 600 cells (1,202 unknowns) the system takes Krylov, which meets
    # tol_lin without the sparse-LU fallback
    a = _u_system((1, 600))
    assert a.n == 1202 > linsolve.DIRECT_LIMIT
    b = np.random.default_rng(15).standard_normal(a.n)
    forbid(monkeypatch, linsolve.spla, "splu")
    forbid(monkeypatch, linsolve.lapack, "dgbtrf")
    x = solve(a, b)
    assert relative_residual(a, x, b) <= 1e-12
    oracle = np.linalg.solve(dense(a), b)
    assert np.max(np.abs(x - oracle)) <= 1e-10 * np.max(np.abs(oracle))


def _u_systems_2d(weights):
    """32^2 u systems W(w) + 0.5 K - 0.5 B(c) on one plan, one per weight w."""
    mesh = build_structured_mesh(2, ((0.0, 20.0), (0.0, 20.0)), (32, 32), 0)
    plan = AssemblyPlan(mesh)
    bump = np.exp(-np.sum(mesh.node_coords()**2, axis=1) / 25.0)
    stiffness = assemble_stiffness(mesh, plan)
    drift = assemble_haptotaxis(mesh, 1.0 - 0.5 * bump, plan)
    return [
        combine([
            (1.0, assemble_weighted_mass(mesh, w * (1.0 + bump), plan)),
            (0.5, stiffness), (-0.5, drift),
        ])
        for w in weights
    ]


def forbid_scipy_matrices(monkeypatch):
    """Make every scipy sparse matrix or array constructor, and splu, raise."""
    for fmt in ("bsr", "coo", "csc", "csr", "dia", "dok", "lil"):
        for kind in ("matrix", "array"):
            forbid(monkeypatch, sp, f"{fmt}_{kind}")
    forbid(monkeypatch, spla, "splu")


def test_band_path_builds_no_scipy_form(monkeypatch):
    m, b16 = _mass_system(16)  # 289 unknowns: banded LU, residual from the diagonals
    # nor does a refined band solve, a p-style solve through an exact inverse
    # or a product; the assembly, which builds its axis steps with scipy,
    # runs first
    a, nearby = _u_systems_2d([1.0, 1.0 + 1e-3])
    b = np.random.default_rng(11).standard_normal(a.n)
    mesh = build_structured_mesh(2, ((0.0, 20.0), (0.0, 20.0)), (32, 32), 0)
    plan = AssemblyPlan(mesh)
    mass = assemble_mass(mesh, plan)
    inverse = mass_inverse(plan)
    forbid_scipy_matrices(monkeypatch)
    x = solve(m, b16)
    assert relative_residual(m, x, b16) <= 1e-12
    factored = spy_on_band(monkeypatch)
    band = BandLU()
    y = solve(nearby, b, x0=solve(a, b, band=band), band=band)
    assert len(factored) == band.factorizations == 1  # the second was refined
    z = solve(mass, b, inverse=inverse)
    assert len(factored) == 1  # the inverse met the contract
    mass.matvec(z)
    assert relative_residual(nearby, y, b) <= 1e-12
    assert relative_residual(mass, z, b) <= 1e-12


def test_held_factors_refine_slowly_changing_systems(monkeypatch):
    # the weight drifts by 1e-3 per solve, as the u system does between
    # sweeps: the first system is factored, the others are refined from it
    systems = _u_systems_2d([1.0 + 1e-3 * k for k in range(10)])
    b = np.random.default_rng(7).standard_normal(systems[0].n)
    factored = spy_on_band(monkeypatch)
    band = BandLU()
    x = None
    for a in systems:
        x = solve(a, b, tol_lin=1e-12, x0=x, band=band)
        assert relative_residual(a, x, b) <= 1e-12
    assert len(factored) == band.factorizations == 1


def test_held_factors_of_a_far_matrix_are_replaced(monkeypatch):
    a, doubled = _u_systems_2d([1.0, 2.0])
    b = np.random.default_rng(8).standard_normal(a.n)
    factored = spy_on_band(monkeypatch)
    band = BandLU()
    x = solve(a, b, band=band)
    routes = spy_on_substitutions(monkeypatch)
    y = solve(doubled, b, x0=x, band=band)
    assert relative_residual(doubled, y, b) <= 1e-12
    assert len(factored) == band.factorizations == 2
    # the first refinement step stalls, and the new factors solve once
    substitutions = routes["dgbtrs"] + routes["triangles"]
    assert len(substitutions) == band.substitutions - 1 == 2


def _c_system_2d():
    """The 32^2 c system M + 0.5 W(p), with a protease bump p."""
    mesh = build_structured_mesh(2, ((0.0, 20.0), (0.0, 20.0)), (32, 32), 0)
    plan = AssemblyPlan(mesh)
    p = np.exp(-np.sum(mesh.node_coords()**2, axis=1) / 25.0)
    return combine([
        (1.0, assemble_mass(mesh, plan)), (0.5, assemble_weighted_mass(mesh, p, plan))
    ])


def lapack_band(a: DiaMatrix):
    """LAPACK's band array of a (with the kl rows of room for fill-in), built
    from the dense matrix, and its kl and ku."""
    full = dense(a)
    rows, cols = np.nonzero(full)
    kl = int(np.max(rows - cols))
    ku = int(np.max(cols - rows))
    ab = np.zeros((2 * kl + ku + 1, a.n), order="F")
    ab[kl + ku + rows - cols, cols] = full[rows, cols]
    return ab, kl, ku


@pytest.mark.parametrize(
    "system", [_u_system_2d, _c_system_2d, lambda: _u_system((8, 8, 8))],
    ids=["u-32x32", "c-32x32", "u-8x8x8"],
)
def test_kernel_triangular_solves_equal_dgbtrs_bit_for_bit(monkeypatch, system):
    # without row interchanges the BLAS triangular solves of L and U make
    # the operations of dgbtrs in its order, so they return its bits
    a = system()
    ab, kl, ku = lapack_band(a)
    lu, ipiv, info = lapack.dgbtrf(ab, kl, ku)
    assert info == 0 and np.array_equal(ipiv, np.arange(a.n))  # no interchange
    assert kl >= linsolve.REFINE_MIN_KL
    rng = np.random.default_rng(12)
    rhs = [rng.standard_normal(a.n) for _ in range(4)]
    oracle = [lapack.dgbtrs(lu, kl, ku, b, ipiv)[0] for b in rhs]
    routes = spy_on_substitutions(monkeypatch)
    band = BandLU()
    # the solve after factoring, then solves from the held factors: from a
    # zero start one refinement step, x = 0 + LU^-1 b, meets tol_lin
    solved = [solve(a, rhs[0], band=band)]
    solved += [solve(a, b, x0=np.zeros(a.n), band=band) for b in rhs[1:]]
    assert [x.tobytes() for x in solved] == [x.tobytes() for x in oracle]
    assert band.factorizations == 1
    assert len(routes["triangles"]) == band.substitutions == len(rhs)
    assert routes["dgbtrs"] == []


def test_pivoted_band_factors_refine_through_dgbtrs(monkeypatch):
    # a band of half-widths 24 whose diagonal is small against the rest of
    # its row, so that dgbtrf interchanges rows: its L is no plain band, and
    # every solve from its factors takes dgbtrs
    n, k = 300, 24
    rng = np.random.default_rng(13)
    i, j = np.indices((n, n))
    full = np.where(np.abs(i - j) <= k, rng.uniform(-1.0, 1.0, (n, n)), 0.0)
    np.fill_diagonal(full, 1e-3 * np.diag(full))
    a = dia(full)
    _, ipiv, info = lapack.dgbtrf(*lapack_band(a))
    assert info == 0 and not np.array_equal(ipiv, np.arange(n))
    shifted = a.data.copy()
    shifted[a.offsets == 0] += 1e-9
    nearby = DiaMatrix(n, a.offsets, shifted)  # same offsets: the factors are kept
    b = rng.standard_normal(n)
    routes = spy_on_substitutions(monkeypatch)
    band = BandLU()
    x = solve(a, b, band=band)
    y = solve(nearby, b, x0=x, band=band)
    assert band.kl >= linsolve.REFINE_MIN_KL
    assert band.factorizations == 1  # the second solve was refined
    assert len(routes["dgbtrs"]) == band.substitutions >= 2
    assert routes["triangles"] == []
    assert relative_residual(a, x, b) <= 1e-12
    assert relative_residual(nearby, y, b) <= 1e-12


def test_refinement_from_held_factors_allocates_no_band_array():
    # the triangular solves read the factors in place: a refined 32^2 solve
    # allocates a few vectors, where the band array takes 103 of them
    a, nearby = _u_systems_2d([1.0, 1.0 + 1e-3])
    b = np.random.default_rng(14).standard_normal(a.n)
    band = BandLU()
    x = solve(a, b, band=band)
    tracemalloc.start()
    try:
        y = solve(nearby, b, x0=x, band=band)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert band.factorizations == 1 and band.substitutions >= 2
    assert relative_residual(nearby, y, b) <= 1e-12
    assert peak <= 8 * a.n * 8, peak


# one cell along an axis other than the last: two neighbour offsets share a
# diagonal, which the plan merges
COINCIDING = {
    "one-element-3d": (1, 1, 1),
    "1x3": (1, 3),
    "299x1x1": (linsolve.DIRECT_LIMIT // 4 - 1, 1, 1),
}


@pytest.mark.parametrize(
    "system",
    [_u_system_2d, _mass_stiffness_3d, lambda: _mass_system(1)[0],
     *[lambda cells=cells: _u_system(cells) for cells in COINCIDING.values()]],
    ids=["u2d", "3d", "one-element", *COINCIDING],
)
def test_band_solve_without_holder_equals_dgbsv(system):
    # dgbsv is dgbtrf followed by dgbtrs; the oracle builds its own band
    # array from the dense matrix
    a = system()
    b = np.random.default_rng(9).standard_normal(a.n)
    ab, kl, ku = lapack_band(a)
    _, _, oracle, info = lapack.dgbsv(kl, ku, ab, b)
    assert info == 0
    assert solve(a, b).tobytes() == oracle.tobytes()


def test_band_solves_below_the_gate_factor_every_call(monkeypatch):
    m, b = _mass_system(4)  # kl = 6
    fresh = solve(m, b)
    factored = spy_on_band(monkeypatch)
    band = BandLU()
    x = None
    for _ in range(3):
        x = solve(m, b, x0=x, band=band)
        assert x.tobytes() == fresh.tobytes()
    assert band.kl < linsolve.REFINE_MIN_KL
    assert len(factored) == band.factorizations == 3


def test_held_factors_of_another_pattern_are_not_reused(monkeypatch):
    a = _u_system_2d()
    b = np.random.default_rng(10).standard_normal(a.n)
    # the same matrix with a diagonal of zeros stored at offset 2: the held
    # factors would solve it exactly, but its offsets are other ones
    pos = np.searchsorted(a.offsets, 2)
    assert a.offsets[pos] != 2
    padded = DiaMatrix(
        a.n, np.insert(a.offsets, pos, 2), np.insert(a.data, pos, 0.0, axis=0)
    )
    factored = spy_on_band(monkeypatch)
    band = BandLU()
    x = solve(a, b, band=band)
    y = solve(padded, b, x0=x, band=band)
    assert relative_residual(padded, y, b) <= 1e-12
    assert len(factored) == band.factorizations == 2


@pytest.mark.parametrize("info", [1, -10], ids=["stagnated", "breakdown"])
def test_failed_krylov_raises_after_one_call(monkeypatch, info):
    # a BiCGSTAB that returns its start, as a stagnated or broken-down solve
    # can, is not tried again, and nothing else runs after it
    m, b = _mass_system(4)
    calls = []

    def failed(a, b, **kwargs):
        calls.append(kwargs["rtol"])
        return np.zeros_like(b), info

    monkeypatch.setattr(linsolve.spla, "bicgstab", failed)
    forbid(monkeypatch, linsolve.spla, "cg")
    forbid_scipy_matrices(monkeypatch)
    take_path(monkeypatch, "iterative")
    with pytest.raises(SolverFailure) as err:
        solve(m, b)
    assert len(calls) == 1
    assert err.value.residual == (1.0 if info > 0 else np.inf)


def test_nonfinite_inputs_rejected():
    a = dia([[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        solve(a, np.array([np.nan, 0.0]))
    bad = DiaMatrix(2, a.offsets, np.array([[np.inf, 1.0]]))
    with pytest.raises(ValueError):
        solve(bad, np.ones(2))
    with pytest.raises(ValueError):
        solve(a, np.ones(3))


def test_spmv_basics():
    a = dia([[1.0, 2.0], [0.0, 3.0]])
    np.testing.assert_array_equal(a.matvec(np.zeros(2)), np.zeros(2))
    eye = dia(np.eye(3))
    x = np.array([1.0, -2.0, 4.0])
    np.testing.assert_array_equal(eye.matvec(x), x)
    with pytest.raises(ValueError):
        a.matvec(np.ones(3))


def _random_dia(n, scale, seed):
    """A random n x n DiaMatrix with 7 diagonals, the main one among them,
    values scaled by ``scale``; the slots off the matrix hold values too,
    which no product may read."""
    rng = np.random.default_rng(seed)
    others = rng.choice(np.delete(np.arange(1 - n, n), n - 1), 6, replace=False)
    offsets = np.sort(np.append(others, 0))
    return DiaMatrix(n, offsets, scale * rng.standard_normal((7, n))), rng


@pytest.mark.parametrize(
    "n, scale, stride",
    [(4, 1.0, 1), (1089, 1.0, 1), (1089, 1.0, 3), (1089, 1e150, 1)],
    ids=["4", "1089", "strided", "near-1e150"],
)
def test_kernel_matvec_is_scipy_matmul_bit_for_bit(n, scale, stride):
    # DiaMatrix.matvec calls the compiled kernel behind scipy's
    # `dia_matrix @` directly; a renamed or changed kernel fails here
    a, rng = _random_dia(n, scale, seed=n + stride)
    x = scale * rng.standard_normal(n * stride)[::stride]
    ours = a.matvec(x)
    ref = scipy_form(a) @ x
    assert ours.dtype == ref.dtype and ours.shape == ref.shape == (n,)
    assert ours.tobytes() == ref.tobytes()


@pytest.mark.parametrize(
    "cells", [(32, 32), (1, 1), (1, 3), (3, 4, 5), (2, 1, 3)],
    ids=["32x32", "one-element", "1x3", "3x4x5", "2x1x3"],
)
def test_kernel_dia_product_is_the_csr_product_bit_for_bit(cells):
    # each row sums its entries in increasing column order, as scipy's CSR
    # kernel does, and the zero slots add exact zeros: an assembled matrix
    # gives the products of its CSR form
    a = _u_system(cells)
    x = np.random.default_rng(14).standard_normal(a.n)
    ref = scipy_form(a).tocsr()
    ref.sort_indices()
    assert a.matvec(x).tobytes() == (ref @ x).tobytes()


def test_kernel_rejects_wrong_operands_before_any_call(monkeypatch):
    class NoKernel:
        def __getattr__(self, name):
            raise AssertionError(f"kernel {name} reached with a wrong operand")

    a, _ = _random_dia(4, 1.0, seed=1)
    m = scipy_form(a).tocsr()
    monkeypatch.setattr(linsolve, "_sparsetools", NoKernel())
    for x in (np.ones(3), np.ones(5), np.ones((4, 1)), np.ones(()), [1.0, 2.0]):
        with pytest.raises(ValueError):
            a.matvec(x)
    with pytest.raises(ValueError):
        DiaMatrix(4, a.offsets[1:], a.data).matvec(np.ones(4))
    with pytest.raises(TypeError):
        DiaMatrix(4, a.offsets, a.data.astype(np.float32)).matvec(np.ones(4))
    product = lambda data, x: linsolve.csr_product(m.indptr, m.indices, data, a.n, x)
    for x in (np.ones((5, 2)), np.ones((3, 1)), np.ones((4, 2, 1)), np.ones(())):
        with pytest.raises(ValueError):
            product(m.data, x)
    with pytest.raises(TypeError):
        product(m.data.astype(np.float32), np.ones(4))
    # an array to add the product into must take it in place
    into = lambda out, x=np.ones((4, 2)): linsolve.csr_product(
        m.indptr, m.indices, m.data, a.n, x, out=out)
    for out in (np.zeros(7), np.zeros((4, 3)), np.zeros(16)[::2], np.zeros((2, 4)).T):
        with pytest.raises(ValueError):
            into(out)
    with pytest.raises(ValueError):
        into(np.zeros(5), np.ones(4))
    for out in (np.zeros(8, dtype=np.float32), np.zeros(8, dtype=complex)):
        with pytest.raises(TypeError):
            into(out)


@pytest.mark.parametrize("k", [1, 3])
def test_kernel_product_adds_into_out(k):
    a, rng = _random_dia(6, 1.0, seed=k)
    m = scipy_form(a).tocsr()
    x = rng.standard_normal((6, k))
    fresh = linsolve.csr_product(m.indptr, m.indices, m.data, a.n, x)
    out = np.zeros(6 * k)  # any shape of the right size
    assert linsolve.csr_product(m.indptr, m.indices, m.data, a.n, x, out=out) is out
    assert out.tobytes() == fresh.tobytes()  # the kernel starts from y = 0
    base = rng.standard_normal((6, k))
    out = base.copy()
    linsolve.csr_product(m.indptr, m.indices, m.data, a.n, x, out=out)
    assert np.max(np.abs(out - (base + m @ x))) <= 1e-15 * np.max(np.abs(out))


@given(seed=st.integers(0, 2**31))
@settings(max_examples=30, deadline=None)
def test_spmv_matches_dense_oracle(seed):
    rng = np.random.default_rng(seed)
    full = rng.standard_normal((5, 5))
    full[rng.random((5, 5)) < 0.5] = 0.0
    a = dia(full)
    x = rng.standard_normal(5)
    assert np.max(np.abs(a.matvec(x) - full @ x)) <= 1e-14


def test_combine_same_pattern():
    mesh = build_structured_mesh(2, ((0.0, 1.0), (0.0, 1.0)), (2, 2), 0)
    plan = AssemblyPlan(mesh)
    m = assemble_mass(mesh, plan)
    k = assemble_stiffness(mesh, plan)
    c = combine([(2.0, m), (-0.5, k)])
    ref = 2.0 * dense(m) - 0.5 * dense(k)
    assert np.max(np.abs(dense(c) - ref)) < 1e-14
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


def test_solve_is_deterministic(monkeypatch):
    mesh = build_structured_mesh(2, ((0.0, 1.0), (0.0, 1.0)), (4, 4), 0)
    m = assemble_mass(mesh)
    rng = np.random.default_rng(42)
    b = rng.standard_normal(m.n)
    y1 = solve(m, b)
    y2 = solve(m, b)
    assert y1.tobytes() == y2.tobytes()
    take_path(monkeypatch, "iterative")
    x1 = solve(m, b)
    x2 = solve(m, b)
    assert x1.tobytes() == x2.tobytes()


def test_warm_start_still_meets_contract(monkeypatch):
    mesh = build_structured_mesh(2, ((0.0, 1.0), (0.0, 1.0)), (4, 4), 0)
    m = assemble_mass(mesh)
    rng = np.random.default_rng(1)
    b = rng.standard_normal(m.n)
    exact = solve(m, b)
    take_path(monkeypatch, "iterative")
    warm = solve(m, b, x0=exact + 1e-3, spd=True)
    assert relative_residual(m, warm, b) <= 1e-12


def _mass_system(cells):
    mesh = build_structured_mesh(2, ((0.0, 1.0), (0.0, 1.0)), (cells, cells), 0)
    m = assemble_mass(mesh)
    b = np.random.default_rng(3).standard_normal(m.n)
    return m, b


def test_exact_inverse_is_used_without_factoring(monkeypatch):
    m, b = _mass_system(8)
    dense_inv = np.linalg.inv(dense(m))

    forbid(monkeypatch, linsolve.spla, "splu")
    forbid(monkeypatch, linsolve.lapack, "dgbtrf")
    x = solve(m, b, inverse=lambda v: dense_inv @ v)
    np.testing.assert_array_equal(x, dense_inv @ b)


@pytest.mark.parametrize("cells, method", [(4, "auto"), (8, "direct"), (12, "iterative")])
@pytest.mark.parametrize(
    "wrong",
    [lambda v: v, lambda v: np.zeros_like(v), lambda v: np.full_like(v, np.nan)],
    ids=["identity", "zero", "nan"],
)
def test_wrong_inverse_falls_through_to_contract(cells, method, wrong, monkeypatch):
    take_path(monkeypatch, method)
    m, b = _mass_system(cells)
    x = solve(m, b, tol_lin=1e-12, inverse=wrong)
    assert relative_residual(m, x, b) <= 1e-12


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # zero breaks Krylov
@pytest.mark.parametrize(
    "wrong, converges",
    [(lambda v: v, True), (lambda v: np.zeros_like(v), False), (lambda v: -v, True)],
    ids=["identity", "zero", "negated"],
)
@pytest.mark.parametrize("spd", [False, True])
def test_wrong_preconditioner_still_meets_contract(wrong, converges, spd, monkeypatch):
    # a zero preconditioner breaks the Krylov solve down: no x is returned,
    # so none above tol_lin
    take_path(monkeypatch, "iterative")
    m, b = _mass_system(12)
    if not converges:
        with pytest.raises(SolverFailure):
            solve(m, b, tol_lin=1e-12, spd=spd, precond=wrong)
        return
    x = solve(m, b, tol_lin=1e-12, spd=spd, precond=wrong)
    assert relative_residual(m, x, b) <= 1e-12


def same_float(a, b) -> bool:
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def numpy_relative_residual(ax, b) -> float:
    """The residual of the solve contract, written with np.linalg.norm."""
    return float(np.linalg.norm(ax - b)) / max(float(np.linalg.norm(b)), np.finfo(float).eps)


_RNG = np.random.default_rng(11)
# entries near 1e155 square past the largest float: both norms overflow to inf
NORM_VECTORS = {
    "random": _RNG.standard_normal(1000),
    "4-entry": _RNG.standard_normal(4),
    "1e150": 1e150 * _RNG.standard_normal(4),
    "1e155-overflows": 1e155 * _RNG.standard_normal(64),
}


@pytest.mark.parametrize("v", NORM_VECTORS.values(), ids=NORM_VECTORS.keys())
def test_norms_are_numpy_norms_bit_for_bit(v):
    ax = v * (1.0 + 1e-3 * np.random.default_rng(12).standard_normal(v.size))
    with np.errstate(over="ignore"):
        bnorm = float(np.linalg.norm(v))
        assert same_float(linsolve._norm(v), bnorm)
        assert same_float(linsolve._relative_residual(ax, v, bnorm),
                          numpy_relative_residual(ax, v))
        # refinement takes the norm of b - A x, the same float as that of A x - b
        assert same_float(linsolve._norm(v - ax), float(np.linalg.norm(ax - v)))
    assert (bnorm == np.inf) == (np.abs(v).max() > 1e154)


def _strided(n):
    return np.random.default_rng(13).standard_normal(2 * n)[::2]


@pytest.mark.parametrize(
    "system, scale",
    [(_u_system_2d, 1.0), (lambda: _mass_system(1)[0], 1.0),
     (lambda: _mass_system(1)[0], 1e150), (lambda: _mass_system(1)[0], 1e155)],
    ids=["u2d", "4-entry", "1e150", "1e155-overflows"],
)
@pytest.mark.parametrize("layout", ["contiguous", "strided"])
def test_solve_residual_is_the_numpy_norm_formula(monkeypatch, system, scale, layout):
    a = system()
    b = scale * _strided(a.n)
    if layout == "contiguous":
        b = b.copy()
    seen = []
    band_solve = BandLU.solve

    def spy(self, a, b, bnorm, tol_lin, x0=None):
        x, ax = band_solve(self, a, b, bnorm, tol_lin, x0)
        seen.append((bnorm, ax))
        return x, ax

    monkeypatch.setattr(BandLU, "solve", spy)
    # no residual meets a negative tolerance, so solve reports the one it computed
    with np.errstate(over="ignore"), pytest.raises(SolverFailure) as err:
        solve(a, b, tol_lin=-1.0)
    ((bnorm, ax),) = seen
    with np.errstate(over="ignore"):
        assert same_float(bnorm, float(np.linalg.norm(b)))
        assert same_float(err.value.residual, numpy_relative_residual(ax, b))


@pytest.mark.parametrize(
    "v, finite",
    [([1.0, -2.0], True), ([1e200, -1e300], True), ([], True), ([1e200, np.nan], False),
     ([1.0, np.inf], False), ([-np.inf, 1.0], False), ([np.inf, -np.inf], False)],
    ids=["plain", "squares-overflow", "empty", "nan", "+inf", "-inf", "inf-minus-inf"],
)
def test_all_finite_tests_the_entries_when_the_squares_overflow(v, finite):
    with np.errstate(over="ignore"):
        assert linsolve.all_finite(np.array(v, dtype=float)) is finite
