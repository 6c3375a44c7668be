"""Sparse CSR storage and the linear-solve contract for the implicit steps.

The module holds what the time stepper calls and nothing else: the
:class:`CsrMatrix` that :mod:`haptosim.fem` assembles, :func:`combine` for
linear combinations of matrices that share one pattern, and :func:`solve`.

``solve`` guarantees a relative residual  ||Ax - b|| / max(||b||, eps)  below
``tol_lin`` or raises :class:`SolverFailure`.  The mechanisms behind the
contract, in the order they are tried:

* a caller-supplied exact inverse (``inverse=``; the stepper passes the
  Kronecker-factored inverse of the scaled mass matrix for the protease
  system), accepted when its result meets the contract;
* up to ``DIRECT_LIMIT`` unknowns, LAPACK's banded LU with partial pivoting
  (``dgbsv``).  The structured meshes number their nodes lexicographically,
  first axis fastest, so every assembled matrix is a band whose half-width
  is set by the first axis (the first two in 3D): nx + 2 on an nx x ny mesh
  and (nx+1)(ny+1) + nx + 2 on an nx x ny x nz mesh, so N + 2 on a square
  N x N mesh and (N+1)^2 + N + 2 on a cubic N^3 mesh.  LAPACK stores it in
  3 half-widths + 1 rows of n values: 0.9 MB at 32x32 and 36 MB at 16^3.
  A band whose storage exceeds ``BAND_LIMIT`` times the stored entries, as
  a mesh much longer in its first axis gives, goes to sparse LU (``splu``)
  instead: it is faster there and its fill a fraction of the band;
* above that, preconditioned BiCGSTAB (CG with ``spd=True``) with one
  tighter retry and a sparse LU fallback (``splu``; a band would be about
  1 GB at 32^3).  The preconditioner is Jacobi unless the caller supplies
  one (``precond=``; the stepper passes the inverse mass matrix for the
  matrix-density system).  The systems produced by the time stepper are
  mass-dominated, so this path converges in a few dozen iterations.

Every path ends in the same explicit residual check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

DIRECT_LIMIT = 10_000
# band storage over stored entries above which sparse LU is the direct solve.
# Measured on u systems, splu takes 1.05x the band's time at 128x64 (44) and
# 0.38x at 256x32 (88); 3D meshes cross over near 100.  Square meshes up to
# DIRECT_LIMIT stay on the band (99^2: 34), cubic ones up to 18^3 (47)
BAND_LIMIT = 48
_EPS = float(np.finfo(float).eps)


class SolverFailure(RuntimeError):
    """Linear solve missed the residual tolerance."""

    def __init__(self, message, residual):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class CsrMatrix:
    """Square sparse matrix in compressed-sparse-row form.

    Column indices are strictly increasing within each row and carry no
    duplicates; all stored values are finite.
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    @property
    def nnz(self) -> int:
        return len(self.data)

    def to_scipy(self) -> sp.csr_matrix:
        """The scipy form, built on first use and then shared (the matrix is
        immutable), so a matrix reused across solves converts once."""
        return self._scipy

    @cached_property
    def _scipy(self) -> sp.csr_matrix:
        return sp.csr_matrix(
            (self.data, self.indices, self.indptr), shape=(self.n, self.n)
        )

    def matvec(self, x) -> np.ndarray:
        """Sparse matrix-vector product."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise ValueError(f"vector has shape {x.shape}, matrix is {self.n}x{self.n}")
        return self.to_scipy() @ x


def combine(terms) -> CsrMatrix:
    """Linear combination  sum_k  coeff_k * A_k  of same-pattern matrices.

    All matrices must share one sparsity pattern (as produced by a single
    :class:`haptosim.fem.AssemblyPlan`); only the value arrays are combined.
    """
    terms = list(terms)
    if not terms:
        raise ValueError("empty combination")
    _, first = terms[0]
    data = np.zeros_like(first.data)
    for coeff, mat in terms:
        if mat.n != first.n or mat.indptr is not first.indptr and not np.array_equal(
            mat.indptr, first.indptr
        ):
            raise ValueError("matrices do not share a sparsity pattern")
        if mat.indices is not first.indices and not np.array_equal(
            mat.indices, first.indices
        ):
            raise ValueError("matrices do not share a sparsity pattern")
        if coeff != 0.0:
            data += coeff * mat.data
    return CsrMatrix(first.n, first.indptr, first.indices, data)


def _relative_residual(ax, b, bnorm) -> float:
    return float(np.linalg.norm(ax - b)) / max(bnorm, _EPS)


def _solve_direct(a: CsrMatrix, b):
    """x and A x, from LAPACK's banded LU of A, or from sparse LU when the band
    is wide; the band path sums A x from the CSR arrays, so it builds no scipy
    form."""
    # array methods and slicing, not np.diff and np.repeat: on the tiny systems
    # of single-element meshes their Python-level checks cost more than the solve
    rows = np.arange(a.n).repeat(a.indptr[1:] - a.indptr[:-1])
    offsets = rows - a.indices
    kl = int(offsets.max(initial=0))
    ku = int(-offsets.min(initial=0))
    if (2 * kl + ku + 1) * a.n > BAND_LIMIT * len(a.data):
        a_op = a.to_scipy()
        x = _solve_lu(a_op, b)
        return x, a_op @ x
    # LAPACK band storage: A[i, j] at ab[kl + ku + i - j, j]; the first kl
    # rows are room for the fill-in of the pivoting
    ab = np.zeros((2 * kl + ku + 1, a.n), order="F")
    ab[kl + ku + offsets, a.indices] = a.data
    _, _, x, info = lapack.dgbsv(kl, ku, ab, b, overwrite_ab=1)
    if info > 0:
        raise SolverFailure(
            f"banded LU factorization failed: pivot {info} is exactly zero", np.inf
        )
    return x, np.bincount(rows, a.data * x[a.indices], minlength=a.n)


def _solve_lu(a_scipy, b):
    try:
        lu = spla.splu(a_scipy.tocsc(), permc_spec="MMD_AT_PLUS_A")
    except RuntimeError as exc:  # exactly singular
        raise SolverFailure(f"sparse LU factorization failed: {exc}", np.inf)
    return lu.solve(b)


def _solve_krylov(a_scipy, b, tol_lin, x0=None, spd=False, precond=None):
    if precond is None:  # Jacobi
        diag = a_scipy.diagonal()
        if np.any(diag == 0.0):
            return None
        precond = lambda v, d=1.0 / diag: d * v
    krylov = spla.cg if spd else spla.bicgstab
    x, info = krylov(
        a_scipy, b, x0=x0, rtol=max(tol_lin * 0.2, 1e-14), atol=0.0,
        maxiter=400, M=spla.LinearOperator(a_scipy.shape, matvec=precond),
    )
    if info < 0 or not np.isfinite(x).all():
        return None
    return x


def solve(
    a: CsrMatrix, b, tol_lin=1e-12, x0=None, spd=False, inverse=None, precond=None,
) -> np.ndarray:
    """Solve A x = b to relative residual <= tol_lin.

    Up to DIRECT_LIMIT unknowns the solve is direct (banded LU, or sparse LU
    for a band wider than BAND_LIMIT allows), above it Krylov with a sparse
    LU fallback.  ``x0`` warm-starts the Krylov path; ``spd=True`` selects
    conjugate gradients there.  ``inverse`` (a function b -> A^-1 b) is tried
    before any other path; ``precond`` (a function approximating
    v -> A^-1 v) replaces Jacobi as the Krylov preconditioner.  None of these
    affects the residual contract: a result that misses tol_lin falls through
    to the next path.
    """
    b = np.asarray(b, dtype=float)
    if b.shape != (a.n,):
        raise ValueError(f"right-hand side has shape {b.shape}, matrix is {a.n}x{a.n}")
    if not np.isfinite(a.data).all():
        raise ValueError("matrix contains non-finite entries")
    if not np.isfinite(b).all():
        raise ValueError("right-hand side contains non-finite entries")

    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return np.zeros(a.n)

    if inverse is not None:
        x = inverse(b)
        if np.isfinite(x).all() and _relative_residual(a.to_scipy() @ x, b, bnorm) <= tol_lin:
            return x

    if a.n > DIRECT_LIMIT:
        a_op = a.to_scipy()
        for tol in (tol_lin, tol_lin * 1e-2):  # one tighter retry before LU
            x = _solve_krylov(a_op, b, tol, x0=x0, spd=spd, precond=precond)
            if x is not None and _relative_residual(a_op @ x, b, bnorm) <= tol_lin:
                return x
        x = _solve_lu(a_op, b)
        ax = a_op @ x
    else:
        x, ax = _solve_direct(a, b)
    residual = _relative_residual(ax, b, bnorm)
    if not np.isfinite(x).all() or residual > tol_lin:
        raise SolverFailure(
            f"linear solve reached relative residual {residual:.3e} > {tol_lin:.1e}",
            residual,
        )
    return x
