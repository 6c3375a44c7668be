"""Sparse diagonal storage and the linear-solve contract for the implicit steps.

The module holds what the time stepper calls: the :class:`DiaMatrix` that
:mod:`haptosim.fem` assembles, :func:`csr_product` for the axis steps of the
assembly, which can add a form into the diagonals of a system being built,
and :func:`solve`.  :func:`combine`, linear combinations of matrices that
share one offsets array, is not on the sweep path; the tests build
reference systems with it.

``solve`` guarantees a relative residual  ||Ax - b|| / max(||b||, eps)  below
``tol_lin`` or raises :class:`SolverFailure`.  The mechanisms behind the
contract, in the order they are tried:

* a caller-supplied exact inverse (``inverse=``; the stepper solves the
  protease system as M x = b / (1 + theta dt / epsilon) and passes the
  Kronecker-factored inverse of M), accepted when its result meets the
  contract;
* up to ``DIRECT_LIMIT`` unknowns, LAPACK's banded LU with partial pivoting
  (``dgbtrf``, then ``dgbtrs``).  The structured meshes number their nodes
  lexicographically, first axis fastest, so every assembled matrix is a band
  whose half-width kl is set by the first axis (the first two in 3D): nx + 2
  on an nx x ny mesh and (nx+1)(ny+1) + nx + 2 on an nx x ny x nz mesh.
  LAPACK stores it in 3 kl + 1 rows of n values: 0.9 MB at 32x32.  The
  widest band under the limit is that of a 299 x 1 x 1 mesh (kl = 901,
  26 MB).  A caller that solves a sequence of nearby matrices passes a
  :class:`BandLU`, which keeps the factors of the last matrix it factored;
  from kl = ``REFINE_MIN_KL`` on, ``x0`` is refined with those factors
  (iterative refinement, Higham, Accuracy and Stability of Numerical
  Algorithms, 2nd ed., 2002, ch. 12) and the matrix is factored again only
  when a refinement step stalls.  There, factors whose factorization
  interchanged no rows, as on every 2D mesh measured, are solved by two BLAS
  banded triangular solves (``dtbsv``) on views of the factors, with the
  bits of ``dgbtrs`` in about two thirds of its time;
* above that, one preconditioned BiCGSTAB solve (CG with ``spd=True``).
  The preconditioner is Jacobi unless the caller supplies one
  (``precond=``; the stepper passes the inverse mass matrix for the
  matrix-density system).  The systems produced by the time stepper are
  mass-dominated and warm-started from the previous sweep, so this path
  converges in a few dozen iterations; in a run it beats the band, whose
  cost grows as n kl^2, on every mesh measured above the limit.  A miss is
  not retried: BiCGSTAB restarted from the same x0 repeats its iterates.

Every path ends in the same explicit residual check.  Its product A x, and
every other product with a :class:`DiaMatrix`, inside the Krylov solvers
too, is ``dia_matvec`` of the private ``scipy.sparse._sparsetools``, the
compiled kernel behind scipy's ``dia_matrix @``, called directly.  The axis
steps of :mod:`haptosim.fem` go through :func:`csr_product`, which calls
``csr_matvec`` and ``csr_matvecs`` the same way.  No scipy matrix is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla
from scipy.linalg import blas, lapack
from scipy.sparse import _sparsetools

# largest system solved on the band.  With its factors held across sweeps
# the band wins whole runs up to 32^2 (1,089 unknowns) in 2D and 9^3 (1,000)
# in 3D, and warm-started Krylov wins from 40^2 (1,681) and 10^3 (1,331)
DIRECT_LIMIT = 1_200
# smallest lower half-width kl at which a band solve refines from held
# factors, and from which unpivoted factors are solved by BLAS triangular
# solves instead of dgbtrs.  Below it a refined solve, with its
# matrix-vector products and about three refinement steps, can cost more
# than factoring again: whole 2D runs gain 8-25 % from refining at
# kl = 14-21 (12^2-19^2), but on 3^3 (kl = 21) refinement stalls in a
# quarter of the solves and the run loses.  The narrower bands, among them
# the one-element systems, keep dgbtrs, whose bits the triangular solves
# equal only where no row was interchanged
REFINE_MIN_KL = 22
# a refinement step must shrink the residual by this factor, and at most
# REFINE_STEPS of them run; otherwise the matrix is factored again
REFINE_STALL = 100.0
REFINE_STEPS = 8
_EPS = float(np.finfo(float).eps)


class SolverFailure(RuntimeError):
    """Linear solve missed the residual tolerance."""

    def __init__(self, message, residual):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class DiaMatrix:
    """Square sparse matrix stored by its diagonals, as scipy's DIA format.

    ``data`` is (len(offsets), n) and indexed by column:
    data[k, j] = A[j - offsets[k], j]; the slots whose row falls off the
    matrix are never read.  The offsets are unique and increasing, so each
    row of a product sums its entries in increasing column order, as a CSR
    product does, and a slot holding a zero adds an exact zero.
    """

    n: int
    offsets: np.ndarray
    data: np.ndarray

    def matvec(self, x) -> np.ndarray:
        """A x, by the compiled kernel behind scipy's ``dia_matrix @``.  The
        kernel checks no lengths or types, so this does."""
        data = self.data
        if data.dtype != np.float64:
            raise TypeError(f"matrix values are {data.dtype}, not float64")
        if data.shape != (self.offsets.size, self.n):
            raise ValueError(f"{data.shape} diagonals for {self.offsets.size} offsets "
                             f"of a {self.n}x{self.n} matrix")
        x = np.ascontiguousarray(x, dtype=float)
        if x.shape != (self.n,):
            raise ValueError(f"vector has shape {x.shape}, matrix is {self.n}x{self.n}")
        y = np.zeros(self.n)
        _sparsetools.dia_matvec(self.n, self.n, self.offsets.size, self.n,
                                self.offsets, data, x, y)
        return y


def csr_product(indptr, indices, data, n_cols, x, out=None) -> np.ndarray:
    """The CSR matrix (indptr, indices, data) of n_cols columns times x, one
    vector of n_cols entries or an (n_cols, k) stack of k vectors.

    It calls the compiled kernels that scipy's ``@`` calls, in the same
    cases (``csr_matvec`` for one vector, ``csr_matvecs`` for more), so
    every sum runs in the same order and gives the same bits, without
    scipy's Python-level dispatch or a ``csr_matrix``.  The kernels compute
    y += A x: with ``out``, a C-contiguous float64 array of n_rows k values
    in any shape, the product is added into it and ``out`` is returned;
    without, y starts at zero.  The kernels check no lengths or types, so
    this does.
    """
    if data.dtype != np.float64:
        raise TypeError(f"matrix values are {data.dtype}, not float64")
    x = np.ascontiguousarray(x, dtype=float)
    if not 1 <= x.ndim <= 2 or x.shape[0] != n_cols:
        raise ValueError(f"operand has shape {x.shape}, matrix has {n_cols} columns")
    n_rows = indptr.size - 1
    k = 1 if x.ndim == 1 else x.shape[1]
    if out is None:
        y = np.zeros(n_rows if x.ndim == 1 else (n_rows, k))
    else:
        if out.dtype != np.float64:
            raise TypeError(f"output values are {out.dtype}, not float64")
        if not out.flags.c_contiguous:
            raise ValueError("output array is not C-contiguous")
        if out.size != n_rows * k:
            raise ValueError(f"output has {out.size} values, product has {n_rows} x {k}")
        y = out
    if k == 1:
        _sparsetools.csr_matvec(n_rows, n_cols, indptr, indices, data, x, y)
    else:
        _sparsetools.csr_matvecs(n_rows, n_cols, k, indptr, indices, data, x, y)
    return y


def combine(terms) -> DiaMatrix:
    """Linear combination  sum_k  coeff_k * A_k  of matrices with one offsets
    array (as produced by a single :class:`haptosim.fem.AssemblyPlan`); only
    the value arrays are combined.

    Not on the sweep path: the stepper adds its forms into the u system as
    it assembles them.  Tests build reference systems with it.
    """
    terms = list(terms)
    if not terms:
        raise ValueError("empty combination")
    coeff, first = terms[0]
    data = coeff * first.data
    for coeff, mat in terms[1:]:
        if mat.n != first.n or mat.offsets is not first.offsets and not np.array_equal(
            mat.offsets, first.offsets
        ):
            raise ValueError("matrices do not share their offsets")
        if coeff != 0.0:
            data += coeff * mat.data
    return DiaMatrix(first.n, first.offsets, data)


def all_finite(v) -> bool:
    """Whether every entry of a float vector is finite.  A finite v . v has
    no NaN or infinite term, so one product decides; only when the squares
    overflow are the entries tested one by one."""
    return math.isfinite(v.dot(v)) or bool(np.isfinite(v).all())


def _norm(v) -> float:
    """Euclidean norm of a contiguous float vector.  ``np.linalg.norm`` also
    returns sqrt(v . v), so the float is the same, without its Python-level
    dispatch, which costs more than the product on a few unknowns."""
    return math.sqrt(v.dot(v))


def _relative_residual(ax, b, bnorm) -> float:
    return _norm(ax - b) / max(bnorm, _EPS)


class BandLU:
    """Banded LU of the matrices of one offsets array, kept across solves.

    The holder works out the band layout of the offsets once: the
    half-widths kl and ku and the row of LAPACK's band array that takes each
    diagonal.  It keeps the ``dgbtrf`` factors of the last matrix it
    factored.  :func:`solve` refines a warm start with these factors when the
    new matrix is close to that one, and factors the new matrix when it is
    not.  A matrix with other offsets drops the layout and the factors.

    When ``dgbtrf`` interchanged no rows, L is a unit lower band of width kl
    and U an upper band of width ku, and from kl = ``REFINE_MIN_KL`` on each
    solve from the factors is two BLAS banded triangular solves (``dtbsv``)
    on views of the factors, with no copy: the same operations in the same
    order as ``dgbtrs``, whose U solve also runs over the kl fill-in rows,
    which then hold exact zeros.  Pivoted factors, and narrower bands, are
    solved by ``dgbtrs``.  ``factorizations`` counts the ``dgbtrf`` calls
    and ``substitutions`` the solves from factors, by either route.
    """

    def __init__(self):
        self.factorizations = 0
        self.substitutions = 0
        self._offsets = None  # the offsets of the layout
        self._factors = None  # (lu, ipiv) of the last matrix factored
        self._triangles = None  # (L, U) views of unpivoted factors, from REFINE_MIN_KL

    def _bind(self, a: DiaMatrix) -> None:
        # all matrices of one AssemblyPlan, and their combinations, share
        # one offsets array
        if self._offsets is a.offsets:
            return
        self.kl = int(-a.offsets.min(initial=0))
        self.ku = int(a.offsets.max(initial=0))
        # LAPACK band storage: A[i, j] at ab[kl + ku + i - j, j], so the
        # diagonal of offset j - i fills row kl + ku - offset, indexed by
        # column as ``data`` is; the first kl rows are room for the fill-in
        # of the pivoting
        self.ldab = 2 * self.kl + self.ku + 1
        self.rows = self.kl + self.ku - a.offsets
        self._offsets = a.offsets
        self._factors = self._triangles = None

    def solve(self, a: DiaMatrix, b, bnorm, tol_lin, x0=None):
        """x and A x.  From held factors and a warm start ``x0``, refinement
        steps x += LU^-1 (b - A x) run while each shrinks the residual by
        REFINE_STALL, to tol_lin; otherwise A is factored and kept."""
        self._bind(a)
        if self._factors is not None and x0 is not None and self.kl >= REFINE_MIN_KL:
            refined = self._refine(a, b, bnorm, tol_lin, x0)
            if refined is not None:
                return refined
        kl, ku, ldab, n = self.kl, self.ku, self.ldab, a.n
        # the band array, column by column, then one spare column, of which
        # the triangular solves need kl + ku entries: the Fortran arrays
        # shifted by kl and by kl + ku, of the same lda, are then the BLAS
        # band arrays of U (diagonal in row ku) and of L (diagonal in row 0)
        buffer = np.zeros((n + 1, ldab))
        ab = buffer[:n]
        ab[:, self.rows] = a.data.T
        lu, ipiv, info = lapack.dgbtrf(ab.T, kl, ku, overwrite_ab=1)
        self.factorizations += 1
        if info > 0:
            self._factors = self._triangles = None
            raise SolverFailure(
                f"banded LU factorization failed: pivot {info} is exactly zero", np.inf
            )
        self._factors = (lu, ipiv)
        unpivoted = kl >= REFINE_MIN_KL and np.array_equal(ipiv, np.arange(n))
        self._triangles = tuple(
            buffer.reshape(-1)[shift:shift + ldab * n].reshape(ldab, n, order="F")
            for shift in (kl + ku, kl)
        ) if unpivoted else None
        x = self._substitute(b)
        return x, a.matvec(x)

    def _substitute(self, r):
        """LU^-1 r from the held factors, in a new vector."""
        self.substitutions += 1
        if self._triangles is None:
            lu, ipiv = self._factors
            return lapack.dgbtrs(lu, self.kl, self.ku, r, ipiv)[0]
        lower, upper = self._triangles
        y = blas.dtbsv(self.kl, lower, r, lower=1, diag=1)
        return blas.dtbsv(self.ku, upper, y, overwrite_x=1)

    def _refine(self, a, b, bnorm, tol_lin, x0):
        x = np.array(x0, dtype=float)
        previous = np.inf
        for step in range(REFINE_STEPS + 1):
            ax = a.matvec(x)
            r = b - ax  # its norm is exactly that of A x - b
            residual = _norm(r) / max(bnorm, _EPS)
            if residual <= tol_lin:
                return x, ax
            if step == REFINE_STEPS or not residual * REFINE_STALL <= previous:
                return None
            previous = residual
            x += self._substitute(r)


def _solve_krylov(a: DiaMatrix, b, tol_lin, x0=None, spd=False, precond=None):
    if precond is None:  # Jacobi
        main = a.data[a.offsets == 0]
        if main.size == 0 or np.any(main == 0.0):
            raise SolverFailure("Krylov solve failed: a zero diagonal entry leaves no "
                                "Jacobi preconditioner", np.inf)
        precond = lambda v, d=1.0 / main[0]: d * v
    krylov = spla.cg if spd else spla.bicgstab
    # with their dtype given, scipy makes no probe product to find it
    x, info = krylov(
        spla.LinearOperator((a.n, a.n), matvec=a.matvec, dtype=float), b, x0=x0,
        rtol=max(tol_lin * 0.2, 1e-14), atol=0.0, maxiter=400,
        M=spla.LinearOperator((a.n, a.n), matvec=precond, dtype=float),
    )
    if info < 0 or not all_finite(x):
        raise SolverFailure(f"Krylov solve failed: {krylov.__name__} broke down", np.inf)
    return x


def solve(
    a: DiaMatrix, b, tol_lin=1e-12, x0=None, spd=False, inverse=None, precond=None,
    band: BandLU | None = None,
) -> np.ndarray:
    """Solve A x = b to relative residual <= tol_lin.

    Up to DIRECT_LIMIT unknowns the solve is a banded LU (the widest band
    there is 26 MB), above it one Krylov solve.  ``band`` is a
    :class:`BandLU` that keeps the band layout and factors across calls;
    from kl = REFINE_MIN_KL on, its held factors refine ``x0`` before A is
    factored again.  Without a holder every band solve factors A.  ``x0``
    also warm-starts the Krylov solve; ``spd=True`` selects conjugate
    gradients there.  ``inverse`` (a function b -> A^-1 b) is tried first,
    and a result of it that misses tol_lin falls through to the band or
    Krylov path; ``precond`` (a function approximating v -> A^-1 v) replaces
    Jacobi as the Krylov preconditioner.  A band or Krylov result that
    misses tol_lin, or a Krylov breakdown, raises SolverFailure.
    """
    b = np.ascontiguousarray(b, dtype=float)  # so that _norm(b) is np.linalg.norm(b)
    if b.shape != (a.n,):
        raise ValueError(f"right-hand side has shape {b.shape}, matrix is {a.n}x{a.n}")
    if not all_finite(a.data.ravel()):
        raise ValueError("matrix contains non-finite entries")
    bnorm = _norm(b)
    # a finite norm proves b finite; an infinite one may be an overflow
    if not math.isfinite(bnorm) and not all_finite(b):
        raise ValueError("right-hand side contains non-finite entries")
    if bnorm == 0.0:
        return np.zeros(a.n)

    if inverse is not None:
        x = inverse(b)
        if all_finite(x) and _relative_residual(a.matvec(x), b, bnorm) <= tol_lin:
            return x

    if a.n <= DIRECT_LIMIT:
        band = band if band is not None else BandLU()
        x, ax = band.solve(a, b, bnorm, tol_lin, x0)
    else:
        x = _solve_krylov(a, b, tol_lin, x0=x0, spd=spd, precond=precond)
        ax = a.matvec(x)
    residual = _relative_residual(ax, b, bnorm)
    if not all_finite(x) or residual > tol_lin:
        raise SolverFailure(
            f"linear solve reached relative residual {residual:.3e} > {tol_lin:.1e}",
            residual,
        )
    return x
