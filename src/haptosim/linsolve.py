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
  kl is set by the first axis (the first two in 3D): nx + 2 on an nx x ny
  mesh and (nx+1)(ny+1) + nx + 2 on an nx x ny x nz mesh.  LAPACK stores it
  in 3 kl + 1 rows of n values: 0.9 MB at 32x32.  The widest band under the
  limit is that of a 299 x 1 x 1 mesh (kl = 901, 26 MB);
* above that, preconditioned BiCGSTAB (CG with ``spd=True``) with one
  tighter retry.  The preconditioner is Jacobi unless the caller supplies
  one (``precond=``; the stepper passes the inverse mass matrix for the
  matrix-density system).  The systems produced by the time stepper are
  mass-dominated and warm-started from the previous sweep, so this path
  converges in a few dozen iterations; in a run it beats the band, whose
  cost grows as n kl^2, on every mesh measured above the limit;
* sparse LU (``splu``), only when both Krylov attempts miss the contract.

Every path ends in the same explicit residual check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

# largest system solved on the band.  A cold single u solve is faster on the band in 2D
# up to about 40^2 (1,681 unknowns) and on Krylov in 3D from 9^3 (1,000);
# in a run, warm-started Krylov is faster on both from a few hundred.  The
# limit keeps the 32^2 reference mesh (1,089) on the band
DIRECT_LIMIT = 1_200
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
    coeff, first = terms[0]
    data = coeff * first.data
    for coeff, mat in terms[1:]:
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


def _solve_band(a: CsrMatrix, b):
    """x and A x, from LAPACK's banded LU of A; A x is summed from the CSR
    arrays, so the band path builds no scipy form."""
    # array methods and slicing, not np.diff and np.repeat: on the tiny systems
    # of single-element meshes their Python-level checks cost more than the solve
    rows = np.arange(a.n).repeat(a.indptr[1:] - a.indptr[:-1])
    offsets = rows - a.indices
    kl = int(offsets.max(initial=0))
    ku = int(-offsets.min(initial=0))
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

    Up to DIRECT_LIMIT unknowns the solve is a banded LU (the widest band
    there is 26 MB), above it Krylov with one tighter retry and then sparse
    LU as the fallback.  ``x0`` warm-starts the Krylov path; ``spd=True``
    selects conjugate gradients there.  ``inverse`` (a function
    b -> A^-1 b) is tried before any other path; ``precond`` (a function
    approximating v -> A^-1 v) replaces Jacobi as the Krylov preconditioner.
    None of these affects the residual contract: a result that misses
    tol_lin falls through to the next path.
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

    if a.n <= DIRECT_LIMIT:
        x, ax = _solve_band(a, b)
    else:
        a_op = a.to_scipy()
        for tol in (tol_lin, tol_lin * 1e-2):  # one tighter retry before LU
            x = _solve_krylov(a_op, b, tol, x0=x0, spd=spd, precond=precond)
            if x is not None and _relative_residual(a_op @ x, b, bnorm) <= tol_lin:
                return x
        try:
            lu = spla.splu(a_op.tocsc(), permc_spec="MMD_AT_PLUS_A")
        except RuntimeError as exc:  # exactly singular
            raise SolverFailure(f"sparse LU factorization failed: {exc}", np.inf)
        x = lu.solve(b)
        ax = a_op @ x
    residual = _relative_residual(ax, b, bnorm)
    if not np.isfinite(x).all() or residual > tol_lin:
        raise SolverFailure(
            f"linear solve reached relative residual {residual:.3e} > {tol_lin:.1e}",
            residual,
        )
    return x
