"""Deterministic sparse assembly of the Q1 forms.

The forms the implicit time steps need are the mass matrix M, the stiffness
matrix K, the nodal-weighted mass W(w), the haptotactic coupling matrix B(c)
and the product load.  On the structured meshes of :mod:`haptosim.mesh` a Q1
basis function is a product of 1D hat functions, so each matrix form is a
sum of Kronecker products of exact 1D integrals.  M and K are built from
the 1D mass and stiffness bands; :class:`AssemblyPlan` applies W and B to
the nodal coefficients axis by axis, one sparse product per axis (sum
factorization), in work linear in the nodes.  The product load is W(a) b:
with the Q1 interpolant of a as the weight it is exact, so every form comes
from the same exact 1D integrals.

Every matrix comes out as the diagonals of one global matrix, with the
plan's offsets (a :class:`haptosim.linsolve.DiaMatrix`), so that matrices
of one mesh add by their value arrays; W and B can be added straight into
the diagonals of a given matrix by their last axis step.  For the
haptotaxis matrix the row index is the test function, the column index the
trial function.  On a one-element mesh the global form is the element form,
which is where :func:`haptosim.verify.element_matrix_crosscheck` compares
these functions with an independent quadrature, in the canonical local
vertex ordering of :mod:`haptosim.mesh`.
"""

from __future__ import annotations

from functools import cached_property, partial, reduce

import numpy as np
import scipy.sparse as sp
from scipy.linalg import lapack

from .linsolve import DiaMatrix, all_finite, csr_product
from .mesh import FeField, StructuredMesh


class AssemblyError(ValueError):
    """Coefficient data from another mesh, of the wrong length or not
    finite; the mesh geometry is validated where the mesh is built."""


def _coefficients(values, mesh, name) -> np.ndarray:
    if isinstance(values, FeField):
        if values.mesh is not mesh:
            raise AssemblyError(f"{name} lives on a different mesh")
        v = values.coeffs
    else:
        v = np.asarray(values, dtype=float)
    if v.shape != (mesh.n_nodes,):
        raise AssemblyError(
            f"{name} has {v.shape} coefficients, mesh has {mesh.n_nodes} nodes"
        )
    if not all_finite(v):
        raise AssemblyError(f"non-finite coefficients in {name}")
    return v


# The exact 1D integrals in column b, as multiples of the length and the
# inverse length of the element left of b (hl, il) and right of it (hr, ir);
# the hat functions are linear on each.  Rows: T[o, q] and G[o, q] for the
# test node a = b - o and the coefficient node k = a + q, o and q in
# {-1, 0, 1} (row-major), then the mass and stiffness bands for a = b - o.
# With o != 0 the nodes a and b share the one element between them.
_INTEGRALS = np.array([
    # T = int phi_a phi_b phi_k
    [0, 0, 1 / 12, 0], [0, 0, 1 / 12, 0], [0, 0, 0, 0],
    [1 / 12, 0, 0, 0], [1 / 4, 0, 1 / 4, 0], [0, 0, 1 / 12, 0],
    [0, 0, 0, 0], [1 / 12, 0, 0, 0], [1 / 12, 0, 0, 0],
    # G = int phi'_a phi_b phi'_k
    [0, 0, 0, -1 / 2], [0, 0, 0, 1 / 2], [0, 0, 0, 0],
    [0, -1 / 2, 0, 0], [0, 1 / 2, 0, 1 / 2], [0, 0, 0, -1 / 2],
    [0, 0, 0, 0], [0, 1 / 2, 0, 0], [0, -1 / 2, 0, 0],
    # int phi_a phi_b and int phi'_a phi'_b
    [0, 0, 1 / 6, 0], [1 / 3, 0, 1 / 3, 0], [1 / 6, 0, 0, 0],
    [0, 0, 0, -1], [0, 1, 0, 1], [0, -1, 0, 0],
])


def _axis_integrals(x: np.ndarray):
    """Exact integrals of the 1D hat functions on the nodes ``x`` of one axis.

    Returns the (2, 3, 3, n) diagonals [T, G][o + 1, q + 1, b] of
    T = int phi_a phi_b phi_{a+q} and G = int phi'_a phi_b phi'_{a+q} with
    a = b - o (the derivative on the test function a), and the (3, n) bands
    [o + 1, b] of the 1D mass and stiffness matrices, all indexed by the
    column b as :class:`haptosim.linsolve.DiaMatrix` stores them.  An entry
    is nonzero exactly when its nodes share an element: the ones that reach
    off the axis, and T and G with |o - q| = 2, are zero.
    """
    n = x.size
    h = x[1:] - x[:-1]
    lengths = np.zeros((4, n))  # hl, il, hr, ir; 0 off the axis
    lengths[0, 1:] = lengths[2, :-1] = h
    lengths[1, 1:] = lengths[3, :-1] = 1.0 / h
    values = _INTEGRALS @ lengths
    return values[:18].reshape(2, 3, 3, n), values[18:21], values[21:]


def _axis_step(blocks, lines: int, targets=None) -> sp.csr_matrix:
    """The sparse matrix that contracts one array axis of a stack of arrays.

    Each array is viewed as ``lines`` consecutive lines of n nodes along the
    axis, input row (j, p, a) holding node a of line p of array j.
    ``blocks[i][j]`` is the (3, 3, n) table of :func:`_axis_integrals` that
    takes array j to array i: output row (i, o + 1, p, b) gets
    tab[o + 1, q + 1, b] times input row (j, p, b - o + q), so the offset o
    leads and the column b is last.  ``targets``, if given, renumbers the
    output lines (i, o + 1, p), and lines that get one number share their
    rows.  The zero entries of the tables, among them all that reach off the
    axis, are not stored.
    """
    tabs = np.array(blocks).transpose(0, 2, 4, 1, 3)  # (i, o, b, j, q)
    n_out, _, n, n_in, _ = tabs.shape
    keep = tabs != 0
    # the entries of line 0 per (i, o); line p repeats them, its columns
    # moved by p n
    cols = (np.arange(n_in)[:, None] * lines * n + np.arange(n)[:, None, None]
            - np.arange(-1, 2)[:, None, None, None] + np.arange(-1, 2))  # (o, b, j, q)
    shift = n * np.arange(lines)[:, None]
    groups = [(i, o) for i in range(n_out) for o in range(3)]
    vals = np.concatenate([np.tile(tabs[g][keep[g]], lines) for g in groups])
    cols = np.concatenate([(cols[g[1]][keep[g]] + shift).ravel() for g in groups])
    counts = np.broadcast_to(keep.sum(axis=(-2, -1))[:, :, None], (n_out, 3, lines, n))
    n_rows = counts.size
    if targets is not None:
        rows = (targets[:, None] * n + np.arange(n)).ravel().repeat(counts.ravel())
        # a stable sort keeps the entries of each row in their order above
        order = np.argsort(rows, kind="stable")
        vals, cols = vals[order], cols[order]
        n_rows = (targets.max() + 1) * n
        counts = np.bincount(rows, minlength=n_rows)
    indptr = np.zeros(n_rows + 1, dtype=cols.dtype)
    np.cumsum(counts, out=indptr[1:])
    return sp.csr_matrix((vals, cols, indptr), shape=(n_rows, n_in * lines * n))


def _contract(steps, v: np.ndarray, out=None) -> np.ndarray:
    """Apply the axis steps of a form to the nodal coefficients ``v``, each
    through :func:`haptosim.linsolve.csr_product`, the kernel of scipy's
    ``@`` without its dispatch.  With ``out`` the last step adds its result
    into that array."""
    for step in steps:
        cols = step.shape[1]
        v = csr_product(step.indptr, step.indices, step.data, cols, v.reshape(cols, -1),
                        out=out if step is steps[-1] else None)
    return v


def _form(plan, steps, v, into) -> DiaMatrix:
    """The matrix of the axis ``steps`` applied to ``v``, or ``into`` with
    it added to its diagonals by the last step's product."""
    if into is None:
        return plan.matrix(_contract(steps, v))
    if into.n != plan.mesh.n_nodes or into.offsets is not plan.offsets and not (
        np.array_equal(into.offsets, plan.offsets)
    ):
        raise ValueError("the matrix to add into does not have the plan's offsets")
    _contract(steps, v, out=into.data)
    return into


class AssemblyPlan:
    """Per-axis integral tables and the diagonal offsets of one mesh.

    A Q1 basis function is a product of 1D hat functions, one per axis, and
    so is every integrand of the matrix forms; each form is a sum of
    Kronecker products of 1D integrals, applied axis by axis to the nodal
    coefficients (sum factorization; Orszag, J. Comput. Phys. 37, 1980).  A
    node vector reshapes to the array ``grid`` = (n_z, n_y, n_x) in 3D and
    (n_y, n_x) in 2D, mesh axis 0 last.  Entry (b - o, b) of a form lands at
    [o_z + 1, o_y + 1, o_x + 1, b_z, b_y, b_x] of a (3, 3, 3, n_z, n_y, n_x)
    array: one row of n values per neighbour offset o in {-1, 0, 1}^dim,
    indexed by the column b.  That row is the diagonal of the composite
    offset o_z n_y n_x + o_y n_x + o_x, so the array is the ``data`` of a
    :class:`haptosim.linsolve.DiaMatrix`.  The entries whose row b - o
    leaves the mesh along an axis are zero.

    When an axis other than the last has one cell, two neighbour offsets
    give one composite offset, and their rows never hold a nonzero in the
    same column.  ``offsets`` lists the composite offsets once each, in
    increasing order, and ``merge`` maps each neighbour offset (in the
    order above) to its position there.

    Each axis step of W(w) and B(c) is a sparse matrix with 7 entries per
    node and 1D table (:func:`_axis_step`), so a form takes work and memory
    linear in the number of nodes.  The last step writes the merged
    diagonals directly, or adds them into those of a given matrix.  The
    steps are built on a form's first use; the mass and stiffness matrices
    need none.  The product load is W(a) b, by the steps of W.
    """

    def __init__(self, mesh: StructuredMesh):
        self.mesh = mesh
        dim = mesh.dim
        nodes = mesh.axis_nodes[::-1]
        self.grid = tuple(x.size for x in nodes)
        # per array axis, z (3D) or y first
        self.tables, self.mass_bands, self.stiff_bands = zip(*map(_axis_integrals, nodes))

        strides = np.cumprod((1,) + self.grid[:0:-1])[::-1]  # (n_y n_x, n_x, 1) in 3D
        o = np.indices((3,) * dim).reshape(dim, -1).T - 1  # (o_z, o_y, o_x), row-major
        self.offsets, self.merge = np.unique(o @ strides, return_inverse=True)
        self.offsets.flags.writeable = False

    def _axes(self):
        """(T, G, lines, targets) per array axis, in the order the steps
        contract them: mesh axis 0 (the last array axis) first.  The offsets
        of the axes done so far lead the lines, and the last step writes the
        merged diagonals."""
        dim = self.mesh.dim
        for m in reversed(range(dim)):
            t, g = self.tables[m]
            lines = 3 ** (dim - 1 - m) * int(np.prod(self.grid[:m]))
            yield t, g, lines, self.merge if m == 0 else None

    @cached_property
    def weighted_mass_steps(self) -> list[sp.csr_matrix]:
        """W(w) = T_z (x) T_y (x) T_x, one axis step each."""
        return [_axis_step([[t]], *rest) for t, _, *rest in self._axes()]

    @cached_property
    def haptotaxis_steps(self) -> list[sp.csr_matrix]:
        """B(c) = G_x T_y T_z + T_x G_y T_z + T_x T_y G_z (G_x T_y + T_x G_y
        in 2D).  Each step maps the pair (t, s), t with T on every axis so
        far and s the sum of the terms with G on one of them, to
        (T t, G t + T s); the first starts from c, the last keeps s."""
        steps = []
        for m, (t, g, *rest) in enumerate(self._axes()):
            if m == 0:
                blocks = [[t], [g]]
            elif m == self.mesh.dim - 1:
                blocks = [[g, t]]
            else:
                blocks = [[t, np.zeros_like(t)], [g, t]]
            steps.append(_axis_step(blocks, *rest))
        return steps

    def matrix(self, values) -> DiaMatrix:
        """The matrix whose diagonals, one per entry of ``offsets``, are the
        rows of ``values``."""
        return DiaMatrix(self.mesh.n_nodes, self.offsets,
                         values.reshape(self.offsets.size, self.mesh.n_nodes))

    def kronecker_sum(self, terms) -> DiaMatrix:
        """The sum over ``terms`` of the Kronecker products of their 1D
        bands, one (3, n) band per array axis, laid out as above."""
        dim = self.mesh.dim

        def factor(m, band):  # band [o + 1, b] on array axis m
            shape = [1] * (2 * dim)
            shape[m], shape[dim + m] = band.shape
            return band.reshape(shape)

        values = reduce(np.add, [
            reduce(np.multiply, [factor(m, b) for m, b in enumerate(bands)]) for bands in terms
        ]).reshape(3**dim, -1)
        if self.offsets.size < values.shape[0]:  # merge the coinciding diagonals
            grouped = np.argsort(self.merge, kind="stable")
            starts = np.searchsorted(self.merge[grouped], np.arange(self.offsets.size))
            values = np.add.reduceat(values[grouped], starts, axis=0)
        return self.matrix(values)


def assemble_mass(mesh: StructuredMesh, plan: AssemblyPlan | None = None) -> DiaMatrix:
    """M = the Kronecker product of the 1D mass matrices."""
    plan = plan or AssemblyPlan(mesh)
    return plan.kronecker_sum([plan.mass_bands])


def assemble_stiffness(mesh: StructuredMesh, plan: AssemblyPlan | None = None) -> DiaMatrix:
    """K = sum over axes d of K_d (x) the 1D mass matrices of the other axes."""
    plan = plan or AssemblyPlan(mesh)
    return plan.kronecker_sum([
        [s if m == d else b for m, (b, s) in enumerate(zip(plan.mass_bands, plan.stiff_bands))]
        for d in range(mesh.dim)
    ])


def assemble_weighted_mass(mesh, w, plan: AssemblyPlan | None = None,
                           into: DiaMatrix | None = None) -> DiaMatrix:
    """Global matrix of  int w_h phi_i phi_j;  with ``into``, that matrix
    plus W(w), written into its diagonals."""
    plan = plan or AssemblyPlan(mesh)
    wn = _coefficients(w, mesh, "weight field")
    return _form(plan, plan.weighted_mass_steps, wn, into)


def assemble_haptotaxis(mesh, c, plan: AssemblyPlan | None = None,
                        into: DiaMatrix | None = None) -> DiaMatrix:
    """Global matrix of  int phi_i (grad c_h . grad phi_j);  row = test index.
    With ``into``, that matrix plus B(c), written into its diagonals."""
    plan = plan or AssemblyPlan(mesh)
    cn = _coefficients(c, mesh, "matrix-density field")
    return _form(plan, plan.haptotaxis_steps, cn, into)


def assemble_product_load(mesh, a, b, plan: AssemblyPlan | None = None) -> np.ndarray:
    """Global load vector of  int a_h b_h phi_j, that is W(a) b: a_h is the
    Q1 interpolant W(a) weighs with, so the product is exact."""
    plan = plan or AssemblyPlan(mesh)
    an = _coefficients(a, mesh, "first factor")
    bn = _coefficients(b, mesh, "second factor")
    # the plan's contraction rather than assemble_weighted_mass, so that a
    # count of the weighted-mass assemblies leaves the load out
    return plan.matrix(_contract(plan.weighted_mass_steps, an)).matvec(bn)


# longest axis whose 1D mass matrix mass_inverse inverts as a dense matrix
MASS_DENSE_MAX = 256


def mass_inverse(plan: AssemblyPlan):
    """The inverse of the assembled mass matrix, as a function  b -> M^-1 b.

    On a tensor-product mesh the Q1 mass matrix is the Kronecker product of
    the 1D mass matrices of its axes, so its inverse is the Kronecker product
    of their inverses (fast diagonalization; Lynch, Rice & Thomas, Numer.
    Math. 6, 1964), here of the plan's mass bands.  Applying it takes one
    solve per axis on the reshaped vector.  On an axis of up to
    ``MASS_DENSE_MAX`` nodes that solve is one matmul with the small dense
    inverse, O(N n) work for N nodes and n nodes on the axis; on a longer
    axis the dense inverse would take O(n^2) memory and O(n^3) time to build,
    so the axis's tridiagonal matrix is factored once (LAPACK ``dpttrf``) and
    each apply solves all lines of the axis as one block (``dpttrs``), O(N).
    """
    shape = plan.grid
    dim = len(shape)
    steps = []  # one per mesh axis, in order; mesh axis d is array axis dim - 1 - d
    for d, band in enumerate(reversed(plan.mass_bands)):
        if band.shape[1] > MASS_DENSE_MAX:
            diagonal, offdiagonal, _ = lapack.dpttrf(band[1], band[0, :-1])
            steps.append(partial(_tridiagonal_lines, diagonal, offdiagonal, dim - 1 - d))
            continue
        inverse = np.linalg.inv(
            np.diag(band[1]) + np.diag(band[2, 1:], 1) + np.diag(band[0, :-1], -1)
        )
        # matmul contracts the second-to-last axis, mesh axis 1 in 2D and 3D
        # alike; mesh axis 0 is the last array axis and axis 2 leads in 3D
        if d == 0:
            steps.append(lambda x, inverse_t=np.ascontiguousarray(inverse.T): x @ inverse_t)
        elif d == 1:
            steps.append(lambda x, inverse=inverse: inverse @ x)
        else:
            steps.append(lambda x, inverse=inverse: inverse @ x.reshape(shape[0], -1))

    def apply(b) -> np.ndarray:
        x = np.reshape(b, shape)
        for step in steps:
            x = step(x)
        return x.reshape(-1)

    return apply


def _tridiagonal_lines(diagonal, offdiagonal, axis, x) -> np.ndarray:
    """The ``dpttrs`` solve, with the factors of ``dpttrf``, of every line of
    x along one array axis, as one block of right-hand sides."""
    lines = np.moveaxis(x, axis, 0)
    solved, _ = lapack.dpttrs(diagonal, offdiagonal, lines.reshape(lines.shape[0], -1))
    return np.moveaxis(solved.reshape(lines.shape), 0, axis)
