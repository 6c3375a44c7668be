"""Sparse CSR storage and the linear-solve contract for the implicit steps.

``solve`` guarantees a relative residual  ||Ax - b|| / max(||b||, eps)  below
``tol_lin`` or raises :class:`SolverFailure`.  The mechanisms behind the
contract, in the order they are tried:

* a caller-supplied exact inverse (``inverse=``; the stepper passes the
  Kronecker-factored inverse of the scaled mass matrix for the protease
  system), accepted when its result meets the contract;
* dense elimination for systems up to ``DENSE_LIMIT`` unknowns;
* a sparse LU factorization up to ``DIRECT_LIMIT`` unknowns;
* above that, preconditioned BiCGSTAB (CG with ``spd=True``) with one
  tighter retry and an LU fallback.  The preconditioner is Jacobi unless the
  caller supplies one (``precond=``; the stepper passes the inverse mass
  matrix for the matrix-density system).  The systems produced by the time
  stepper are mass-dominated, so this path converges in a few dozen
  iterations.

Every path verifies the residual explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

DENSE_LIMIT = 64
DIRECT_LIMIT = 10_000
_EPS = float(np.finfo(float).eps)


class SparseFormatError(ValueError):
    """Structurally invalid CSR data."""


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

    def validate(self) -> None:
        if self.indptr.shape != (self.n + 1,) or self.indptr[0] != 0:
            raise SparseFormatError("row offsets must have length n+1 and start at 0")
        if self.indptr[-1] != len(self.indices) or len(self.indices) != len(self.data):
            raise SparseFormatError("offsets, indices and values are inconsistent")
        if np.any(np.diff(self.indptr) < 0):
            raise SparseFormatError("row offsets must be nondecreasing")
        if len(self.indices) and (
            self.indices.min() < 0 or self.indices.max() >= self.n
        ):
            raise SparseFormatError("column index out of range")
        for i in range(self.n):
            cols = self.indices[self.indptr[i] : self.indptr[i + 1]]
            if np.any(np.diff(cols) <= 0):
                raise SparseFormatError(
                    f"row {i}: column indices not strictly increasing"
                )
        if not np.isfinite(self.data).all():
            raise SparseFormatError("non-finite stored value")

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
        return spmv(self, x)

    def diagonal(self) -> np.ndarray:
        return self.to_scipy().diagonal()

    def toarray(self) -> np.ndarray:
        return self.to_scipy().toarray()


def from_coo(n, rows, cols, values) -> CsrMatrix:
    """Build a CSR matrix from triplets, summing duplicate entries."""
    m = sp.coo_matrix((values, (rows, cols)), shape=(n, n)).tocsr()
    m.sum_duplicates()
    m.sort_indices()
    return CsrMatrix(n, m.indptr.copy(), m.indices.copy(), m.data.copy())


def from_dense(a) -> CsrMatrix:
    a = np.asarray(a, dtype=float)
    m = sp.csr_matrix(a)
    m.sort_indices()
    return CsrMatrix(a.shape[0], m.indptr.copy(), m.indices.copy(), m.data.copy())


def spmv(a: CsrMatrix, x) -> np.ndarray:
    """Sparse matrix-vector product."""
    x = np.asarray(x, dtype=float)
    if x.shape != (a.n,):
        raise ValueError(f"vector has shape {x.shape}, matrix is {a.n}x{a.n}")
    return a.to_scipy() @ x


def axpy(alpha, x, y) -> np.ndarray:
    """alpha*x + y."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {y.shape}")
    return alpha * x + y


def norm2(x) -> float:
    return float(np.linalg.norm(np.asarray(x, dtype=float)))


def norm_inf(x) -> float:
    x = np.asarray(x, dtype=float)
    return float(np.max(np.abs(x))) if x.size else 0.0


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


def _relative_residual(a_scipy, x, b, bnorm) -> float:
    return float(np.linalg.norm(a_scipy @ x - b)) / max(bnorm, _EPS)


def _solve_direct(a_scipy, b):
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
    a: CsrMatrix, b, tol_lin=1e-12, method="auto", x0=None, spd=False,
    inverse=None, precond=None,
) -> np.ndarray:
    """Solve A x = b to relative residual <= tol_lin.

    ``method`` is "auto" (direct below DIRECT_LIMIT unknowns, otherwise
    Krylov with direct fallback), "direct", or "iterative".  ``x0`` warm-
    starts the Krylov path; ``spd=True`` selects conjugate gradients there.
    ``inverse`` (a function b -> A^-1 b) is tried before any other path;
    ``precond`` (a function approximating v -> A^-1 v) replaces Jacobi as
    the Krylov preconditioner.  None of these affects the residual contract:
    a result that misses tol_lin falls through to the next path.
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
        if np.isfinite(x).all() and _relative_residual(a.to_scipy(), x, b, bnorm) <= tol_lin:
            return x

    if method == "auto" and a.n <= DENSE_LIMIT:
        # tiny systems (single-element meshes, unit tests): dense elimination
        dense = np.zeros((a.n, a.n))
        for i in range(a.n):
            cols = a.indices[a.indptr[i] : a.indptr[i + 1]]
            dense[i, cols] = a.data[a.indptr[i] : a.indptr[i + 1]]
        try:
            x = np.linalg.solve(dense, b)
        except np.linalg.LinAlgError:
            raise SolverFailure("dense solve failed: singular matrix", np.inf)
        residual = float(np.linalg.norm(dense @ x - b)) / max(bnorm, _EPS)
        if not np.isfinite(x).all() or residual > tol_lin:
            raise SolverFailure(
                f"linear solve reached relative residual {residual:.3e} > {tol_lin:.1e}",
                residual,
            )
        return x

    a_scipy = a.to_scipy()
    if method == "auto":
        method = "direct" if a.n <= DIRECT_LIMIT else "iterative"
    if method == "iterative":
        x = _solve_krylov(a_scipy, b, tol_lin, x0=x0, spd=spd, precond=precond)
        if x is not None and _relative_residual(a_scipy, x, b, bnorm) <= tol_lin:
            return x
        # one tighter Krylov retry before paying for a sparse factorization
        x = _solve_krylov(a_scipy, b, tol_lin * 1e-2, x0=x0, spd=spd, precond=precond)
        if x is not None and _relative_residual(a_scipy, x, b, bnorm) <= tol_lin:
            return x
        method = "direct"  # fallback
    x = _solve_direct(a_scipy, b)
    residual = _relative_residual(a_scipy, x, b, bnorm)
    if not np.isfinite(x).all() or residual > tol_lin:
        raise SolverFailure(
            f"linear solve reached relative residual {residual:.3e} > {tol_lin:.1e}",
            residual,
        )
    return x
