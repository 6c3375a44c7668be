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
* dense elimination for systems up to ``DENSE_LIMIT`` unknowns;
* a sparse LU factorization up to ``DIRECT_LIMIT`` unknowns;
* above that, preconditioned BiCGSTAB (CG with ``spd=True``) with one
  tighter retry and an LU fallback.  The preconditioner is Jacobi unless the
  caller supplies one (``precond=``; the stepper passes the inverse mass
  matrix for the matrix-density system).  The systems produced by the time
  stepper are mass-dominated, so this path converges in a few dozen
  iterations.

Every path ends in the same explicit residual check.
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
        # tiny systems (single-element meshes, unit tests): dense elimination,
        # with no scipy form built
        a_op = np.zeros((a.n, a.n))
        a_op[np.repeat(np.arange(a.n), np.diff(a.indptr)), a.indices] = a.data
        try:
            x = np.linalg.solve(a_op, b)
        except np.linalg.LinAlgError:
            raise SolverFailure("dense solve failed: singular matrix", np.inf)
    else:
        a_op = a.to_scipy()
        if method == "auto":
            method = "direct" if a.n <= DIRECT_LIMIT else "iterative"
        if method == "iterative":
            x = _solve_krylov(a_op, b, tol_lin, x0=x0, spd=spd, precond=precond)
            if x is not None and _relative_residual(a_op, x, b, bnorm) <= tol_lin:
                return x
            # one tighter Krylov retry before paying for a sparse factorization
            x = _solve_krylov(a_op, b, tol_lin * 1e-2, x0=x0, spd=spd, precond=precond)
            if x is not None and _relative_residual(a_op, x, b, bnorm) <= tol_lin:
                return x
        x = _solve_direct(a_op, b)  # also the Krylov fallback
    residual = _relative_residual(a_op, x, b, bnorm)
    if not np.isfinite(x).all() or residual > tol_lin:
        raise SolverFailure(
            f"linear solve reached relative residual {residual:.3e} > {tol_lin:.1e}",
            residual,
        )
    return x
