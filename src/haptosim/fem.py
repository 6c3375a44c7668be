"""Deterministic sparse assembly of the Q1 forms.

All bilinear forms and load vectors needed by the implicit time steps --
mass, stiffness, nodal-weighted mass, the haptotactic coupling matrix and
the product load -- are integrated with tensor-product 2-point Gauss
quadrature on the reference cell [0,1]^dim.  Every integrand is a product
of at most three per-axis-linear factors (degree <= 3 per axis), so this
rule is exact on axis-aligned elements up to rounding.

:class:`AssemblyPlan` holds the quadrature tables and the scatter pattern of
one mesh.  Each ``assemble_*`` function computes the contributions of all
elements at once, in the canonical local vertex ordering of
:mod:`haptosim.mesh`, and sums them into one global CSR matrix or vector.
For the haptotaxis matrix the row index is the test function, the column
index the trial function.  On a one-element mesh the global form is the
element form, which is where :func:`haptosim.verify.element_matrix_crosscheck`
compares these functions with an independent quadrature.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from .linsolve import CsrMatrix
from .mesh import FeField, StructuredMesh


class AssemblyError(ValueError):
    """Degenerate element geometry or invalid coefficient data."""


def reference_corners(dim: int) -> np.ndarray:
    """Reference-cell corners in the canonical local ordering."""
    base = ((0, 0), (1, 0), (1, 1), (0, 1))
    if dim == 2:
        return np.array(base, dtype=float)
    if dim == 3:
        return np.array(
            [(x, y, 0) for x, y in base] + [(x, y, 1) for x, y in base], dtype=float
        )
    raise AssemblyError(f"dim must be 2 or 3, got {dim}")


def shape_values(dim: int, points) -> np.ndarray:
    """Q1 shape functions at reference points; shape (n_points, 2^dim)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    corners = reference_corners(dim)
    vals = np.ones((pts.shape[0], corners.shape[0]))
    for d in range(dim):
        xi = pts[:, d][:, None]
        vals *= np.where(corners[None, :, d] == 1.0, xi, 1.0 - xi)
    return vals


def shape_gradients(dim: int, points) -> np.ndarray:
    """Reference gradients of the Q1 shape functions; (n_points, 2^dim, dim)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    corners = reference_corners(dim)
    nq, nl = pts.shape[0], corners.shape[0]
    grads = np.ones((nq, nl, dim))
    for d in range(dim):
        xi = pts[:, d][:, None]
        factor = np.where(corners[None, :, d] == 1.0, xi, 1.0 - xi)
        sign = np.where(corners[None, :, d] == 1.0, 1.0, -1.0)
        for g in range(dim):
            grads[:, :, g] *= sign if g == d else factor
    return grads


def gauss_rule(dim: int, points_per_axis: int = 2) -> tuple[np.ndarray, np.ndarray]:
    """points_per_axis-point Gauss-Legendre rule on the reference cell
    [0,1]^dim, tensorized over dim axes: (points (n, dim), weights (n,))."""
    x, w = np.polynomial.legendre.leggauss(points_per_axis)
    x01 = 0.5 * (x + 1.0)
    w01 = 0.5 * w
    grids = np.meshgrid(*([x01] * dim), indexing="ij")
    points = np.column_stack([g.ravel(order="F") for g in grids])
    wgrids = np.meshgrid(*([w01] * dim), indexing="ij")
    weights = np.prod(
        np.column_stack([g.ravel(order="F") for g in wgrids]), axis=1
    )
    return points, weights


@lru_cache(maxsize=None)
def _tables(dim: int, points_per_axis: int = 2):
    """Cached (weights, shape values, reference gradients) for one rule."""
    points, wq = gauss_rule(dim, points_per_axis)
    phi = shape_values(dim, points)
    dphi = shape_gradients(dim, points)
    wq.flags.writeable = False
    phi.flags.writeable = False
    dphi.flags.writeable = False
    return wq, phi, dphi


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
    if not np.isfinite(v).all():
        raise AssemblyError(f"non-finite coefficients in {name}")
    return v


class AssemblyPlan:
    """Precomputed scatter pattern and quadrature tables for one mesh.

    The global sparsity pattern couples exactly the node pairs that share an
    element.  Element contributions are accumulated with ``np.bincount`` in
    element-index order, so repeated assemblies are bitwise identical.
    """

    def __init__(self, mesh: StructuredMesh, points_per_axis: int = 2):
        self.mesh = mesh
        self.wq, self.phi, self.dphi = _tables(mesh.dim, points_per_axis)
        sizes = mesh.element_sizes()
        self.volumes = np.prod(sizes, axis=1)
        self.inv_sizes = 1.0 / sizes
        self.inv_sizes_sq = self.inv_sizes**2

        # contraction tables: all assemblies below reduce to single matmuls
        nq, nl = self.phi.shape
        dim = mesh.dim
        self.nl = nl
        # mass: vol_e * sum_q wq phi_qi phi_qj
        self.pairs_mass = np.einsum("q,qi,qj->qij", self.wq, self.phi, self.phi)
        self.ref_mass = self.pairs_mass.sum(axis=0)
        # stiffness: vol_e * sum_d inv_sq_ed * sum_q wq dphi_qid dphi_qjd
        self.ref_stiff_per_axis = np.einsum(
            "q,qid,qjd->dij", self.wq, self.dphi, self.dphi
        )
        # haptotaxis: row j = test; sum over (q, d) of
        #   [vol_e inv_ed gradc_eqd] * [wq dphi_qjd phi_qi]
        self.pairs_hapto = np.einsum(
            "q,qjd,qi->qdji", self.wq, self.dphi, self.phi
        ).reshape(nq * dim, nl * nl)
        # gradient evaluation: gradc_eqd = sum_l c_el dphi_qld inv_ed
        self.grad_table = self.dphi.transpose(1, 0, 2).reshape(nl, nq * dim)
        # load: sum_q (wq a_q b_q vol_e) phi_qj
        self.wphi = self.wq[:, None] * self.phi

        elems = mesh.elements
        nl = mesh.nodes_per_element
        rows = np.repeat(elems, nl, axis=1).ravel()
        cols = np.tile(elems, (1, nl)).ravel()
        order = np.lexsort((cols, rows))
        rs, cs = rows[order], cols[order]
        new_pair = np.empty(len(rs), dtype=bool)
        new_pair[0] = True
        new_pair[1:] = (rs[1:] != rs[:-1]) | (cs[1:] != cs[:-1])
        pair_id = np.cumsum(new_pair) - 1
        self.slot = np.empty(len(rows), dtype=np.int64)
        self.slot[order] = pair_id
        self.nnz = int(pair_id[-1]) + 1
        indptr = np.searchsorted(rs[new_pair], np.arange(mesh.n_nodes + 1))
        # keep the index arrays in the dtype scipy picks for this pattern, so
        # that the scipy form of every assembled matrix shares them
        pattern = sp.csr_matrix(
            (np.zeros(self.nnz), cs[new_pair], indptr),
            shape=(mesh.n_nodes, mesh.n_nodes),
        )
        self.indices, self.indptr = pattern.indices, pattern.indptr
        self.indices.flags.writeable = False
        self.indptr.flags.writeable = False

    def scatter_matrix(self, element_entries: np.ndarray) -> CsrMatrix:
        data = np.bincount(
            self.slot, weights=element_entries.ravel(), minlength=self.nnz
        )
        return CsrMatrix(self.mesh.n_nodes, self.indptr, self.indices, data)

    def scatter_vector(self, element_entries: np.ndarray) -> np.ndarray:
        return np.bincount(
            self.mesh.elements.ravel(),
            weights=element_entries.ravel(),
            minlength=self.mesh.n_nodes,
        )


def assemble_mass(mesh: StructuredMesh, plan: AssemblyPlan | None = None) -> CsrMatrix:
    plan = plan or AssemblyPlan(mesh)
    elem = plan.volumes[:, None, None] * plan.ref_mass[None, :, :]
    return plan.scatter_matrix(elem)


def assemble_stiffness(mesh: StructuredMesh, plan: AssemblyPlan | None = None) -> CsrMatrix:
    plan = plan or AssemblyPlan(mesh)
    nl = plan.nl
    factors = plan.volumes[:, None] * plan.inv_sizes_sq  # (ne, dim)
    elem = (factors @ plan.ref_stiff_per_axis.reshape(mesh.dim, nl * nl)).reshape(
        -1, nl, nl
    )
    return plan.scatter_matrix(elem)


def assemble_weighted_mass(mesh, w, plan: AssemblyPlan | None = None) -> CsrMatrix:
    """Global matrix of  int w_h phi_i phi_j."""
    plan = plan or AssemblyPlan(mesh)
    wn = _coefficients(w, mesh, "weight field")
    nq, nl = plan.phi.shape
    w_at = (wn[mesh.elements] @ plan.phi.T) * plan.volumes[:, None]  # (ne, nq)
    elem = (w_at @ plan.pairs_mass.reshape(nq, nl * nl)).reshape(-1, nl, nl)
    return plan.scatter_matrix(elem)


def assemble_haptotaxis(mesh, c, plan: AssemblyPlan | None = None) -> CsrMatrix:
    """Global matrix of  int phi_i (grad c_h . grad phi_j);  row = test index."""
    plan = plan or AssemblyPlan(mesh)
    cn = _coefficients(c, mesh, "matrix-density field")
    nq, nl = plan.phi.shape
    dim = mesh.dim
    # physical gradient of c at the quadrature points, (ne, nq, dim)
    grad_c = (cn[mesh.elements] @ plan.grad_table).reshape(-1, nq, dim)
    grad_c *= plan.inv_sizes[:, None, :]
    # second inverse-size factor belongs to the test gradient dphi_qjd
    weights = grad_c * (plan.volumes[:, None] * plan.inv_sizes)[:, None, :]
    elem = (weights.reshape(-1, nq * dim) @ plan.pairs_hapto).reshape(-1, nl, nl)
    return plan.scatter_matrix(elem)


def assemble_product_load(mesh, a, b, plan: AssemblyPlan | None = None) -> np.ndarray:
    """Global load vector of  int a_h b_h phi_j."""
    plan = plan or AssemblyPlan(mesh)
    an = _coefficients(a, mesh, "first factor")
    bn = _coefficients(b, mesh, "second factor")
    a_at = an[mesh.elements] @ plan.phi.T
    b_at = bn[mesh.elements] @ plan.phi.T
    elem = (a_at * b_at * plan.volumes[:, None]) @ plan.wphi
    return plan.scatter_vector(elem)


def mass_inverse(mesh: StructuredMesh):
    """The inverse of the assembled mass matrix, as a function  b -> M^-1 b.

    On a tensor-product mesh the Q1 mass matrix is the Kronecker product of
    the 1D mass matrices of its axes, so its inverse is the Kronecker product
    of their small dense inverses (fast diagonalization; Lynch, Rice & Thomas,
    Numer. Math. 6, 1964).  Applying it takes one matmul per axis on the
    reshaped vector: O(N n) work for N nodes and n nodes per axis.
    """
    counts = [nc + 1 for nc in mesh.cells_per_axis]
    inverses = []
    stride = 1
    for d, n in enumerate(counts):
        # the axis coordinates the elements were sized from
        h = np.diff(mesh.node_coords[np.arange(n) * stride, d])
        stride *= n
        diag = np.zeros(n)
        diag[:-1] += h / 3.0
        diag[1:] += h / 3.0
        m1 = np.diag(diag) + np.diag(h / 6.0, 1) + np.diag(h / 6.0, -1)
        inverses.append(np.linalg.inv(m1))
    shape = tuple(reversed(counts))  # row-major, so mesh axis d is array axis dim-1-d
    first_t = np.ascontiguousarray(inverses[0].T)

    def apply(b) -> np.ndarray:
        # axis 0 is the last array axis; matmul contracts axis 1 as the
        # second-to-last in 2D and 3D alike; axis 2 leads in 3D
        x = inverses[1] @ (np.reshape(b, shape) @ first_t)
        if mesh.dim == 3:
            x = inverses[2] @ x.reshape(shape[0], -1)
        return x.reshape(-1)

    return apply

