"""P1 finite element assembly on simplicial meshes.

Quadrature is the 3-point edge-midpoint rule on triangles (exact for
quadratics) and the 4-point degree-2 rule on tetrahedra. Coefficients given
as nodal fields are interpolated to the quadrature points; gradients of P1
functions are cellwise constant. Assembled matrices are immutable once
returned and solves on distinct systems may run concurrently.
"""

from __future__ import annotations

import weakref
from functools import cached_property
from typing import Callable

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import AssemblyError, DomainError, SolverFailure
from .fields import Control, Field, FieldKind
from .mesh import BoundaryTag, Mesh, cell_volumes, facet_measures

# quadrature in barycentric coordinates: (points, weights)
_QUAD = {
    2: (np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]]),
        np.array([1.0, 1.0, 1.0]) / 3.0),
    3: (np.array([
        [0.58541020, 0.13819660, 0.13819660, 0.13819660],
        [0.13819660, 0.58541020, 0.13819660, 0.13819660],
        [0.13819660, 0.13819660, 0.58541020, 0.13819660],
        [0.13819660, 0.13819660, 0.13819660, 0.58541020]]),
        np.array([0.25, 0.25, 0.25, 0.25])),
}

# facet mass matrices over the unit-measure reference facet, by mesh dimension
_FACET_MASS = {
    2: np.array([[2.0, 1.0], [1.0, 2.0]]) / 6.0,
    3: np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0,
}


class P1Geometry:
    """Precomputed per-cell data and the CSR pattern reused by all assembly
    routines.

    Holds the cell array but not the mesh itself, so that the cache below
    releases the geometry together with its mesh. The operators that depend
    on the mesh alone (the unit stiffness and the potential preconditioner)
    are built on first use and kept here.
    """

    def __init__(self, mesh: Mesh):
        self.cells = mesh.cells
        self.n_vertices = mesh.n_vertices
        self.dim = mesh.dim
        self.boundary_vertices = mesh.boundary_vertex_set()
        self.volumes = cell_volumes(mesh)
        self.grads = self._basis_gradients(mesh)          # (nc, d+1, d)
        # grad(lambda_i) . grad(lambda_j) |K|, the unit-weight cell stiffness
        self.grad_products = (np.einsum("cid,cjd->cij", self.grads, self.grads)
                              * self.volumes[:, None, None])
        bary, self.qweights = _QUAD[mesh.dim]
        self.qbary = bary                                 # (nq, d+1)
        # w @ weighted_qbary is sum_q qweights_q w_cq qbary_qi, (nc, d+1)
        self.weighted_qbary = self.qweights[:, None] * bary
        # qweights_q qbary_qi qbary_qj, (nq, d+1, d+1); sum_q w_cq of it times |K|
        # is the cell mass matrix of the weight w
        self.mass_products = np.einsum("q,qi,qj->qij", self.qweights, bary, bary)
        self.facet_measures = facet_measures(mesh)
        # canonical CSR pattern of the cell couplings; scatter sends every
        # entry of the (nc, d+1, d+1) cell matrices to its slot in the data
        n, k = self.n_vertices, mesh.dim + 1
        rows = np.repeat(mesh.cells, k, axis=1).ravel()
        cols = np.tile(mesh.cells, (1, k)).ravel()
        keys, self.scatter = np.unique(rows * n + cols, return_inverse=True)
        # built through scipy so that the index dtype is the one it keeps
        pattern = sp.csr_matrix((np.zeros(keys.size), keys % n,
                                 np.searchsorted(keys, np.arange(n + 1) * n)), shape=(n, n))
        self.indices, self.indptr = pattern.indices, pattern.indptr

    @staticmethod
    def _basis_gradients(mesh: Mesh) -> np.ndarray:
        v = mesh.vertices[mesh.cells]
        d = mesh.dim
        edges = v[:, 1:, :] - v[:, :1, :]                 # (nc, d, d)
        inv = np.linalg.inv(edges)                        # rows: grad lambda_1..d
        grads = np.empty((mesh.n_cells, d + 1, d))
        grads[:, 1:, :] = np.transpose(inv, (0, 2, 1))
        grads[:, 0, :] = -grads[:, 1:, :].sum(axis=1)
        return grads

    def cell_gradient(self, values: np.ndarray) -> np.ndarray:
        """Cellwise-constant gradient of a P1 nodal field, (nc, d)."""
        return np.einsum("ci,cid->cd", values[self.cells], self.grads)

    def at_quadrature(self, values: np.ndarray) -> np.ndarray:
        """P1 interpolant at the quadrature points, (nc, nq)."""
        return values[self.cells] @ self.qbary.T

    def matrix(self, local: np.ndarray) -> sp.csr_matrix:
        """Sum the (nc, d+1, d+1) cell matrices into the cached pattern.

        Every returned matrix owns its index arrays: in-place methods such
        as eliminate_zeros() must not reach the shared pattern.
        """
        data = np.bincount(self.scatter, weights=local.ravel(), minlength=self.indices.size)
        n = self.n_vertices
        return sp.csr_matrix((data, self.indices.copy(), self.indptr.copy()), shape=(n, n))

    def load(self, local: np.ndarray) -> np.ndarray:
        """Sum the (nc, d+1) cell vectors into a nodal vector."""
        return np.bincount(self.cells.ravel(), weights=local.ravel(),
                           minlength=self.n_vertices)

    @cached_property
    def stiffness(self) -> sp.csr_matrix:
        """The unit-weight stiffness K, shared by every caller on this mesh:
        its arrays are read-only."""
        K = self.matrix(self.grad_products)
        for array in (K.data, K.indices, K.indptr):
            array.flags.writeable = False
        return K

    @cached_property
    def potential_factor(self) -> spla.SuperLU:
        """Factor of K eliminated on the whole boundary, the potential's
        Dirichlet set: it preconditions every potential solve on this mesh."""
        return factor_spd(apply_dirichlet(self.stiffness, np.zeros(self.n_vertices),
                                          self.boundary_vertices, 0.0)[0])


_GEOMETRY_CACHE: "weakref.WeakKeyDictionary[Mesh, P1Geometry]" = weakref.WeakKeyDictionary()


def geometry(mesh: Mesh) -> P1Geometry:
    geom = _GEOMETRY_CACHE.get(mesh)
    if geom is None:
        geom = P1Geometry(mesh)
        _GEOMETRY_CACHE[mesh] = geom
    return geom


def _quad_weight(geom: P1Geometry, weight) -> np.ndarray:
    """Weight values at quadrature points, shape (nc, nq)."""
    nc, nq = geom.cells.shape[0], geom.qweights.shape[0]
    if isinstance(weight, Field):
        return geom.at_quadrature(weight.values)
    arr = np.asarray(weight, dtype=float)
    if arr.ndim == 0:
        return np.full((nc, nq), float(arr))
    if arr.shape == (geom.n_vertices,):
        return geom.at_quadrature(arr)
    if arr.shape == (nc, nq):
        return arr  # already sampled at the quadrature points
    raise AssemblyError(f"cannot interpret weight of shape {arr.shape}")


def assemble_weighted_stiffness(mesh: Mesh, weight=1.0) -> sp.csr_matrix:
    """A_ij = sum_cells integral w grad(lambda_i) . grad(lambda_j) dx.

    Raises AssemblyError when the weight is negative at a quadrature point
    (a conductivity evaluation bug upstream).
    """
    geom = geometry(mesh)
    w = _quad_weight(geom, weight)
    if np.any(w < 0):
        raise AssemblyError("negative weight at a quadrature point")
    wbar = w @ geom.qweights                              # (nc,)
    return geom.matrix(geom.grad_products * wbar[:, None, None])


def assemble_mass(mesh: Mesh, weight=1.0) -> sp.csr_matrix:
    """M_ij = sum_cells integral w lambda_i lambda_j dx (consistent mass)."""
    geom = geometry(mesh)
    w = _quad_weight(geom, weight)
    local = np.einsum("cq,qij->cij", w, geom.mass_products) * geom.volumes[:, None, None]
    return geom.matrix(local)


def load_vector(mesh: Mesh, weight=1.0) -> np.ndarray:
    """b_i = sum_cells integral w lambda_i dx."""
    geom = geometry(mesh)
    w = _quad_weight(geom, weight)
    local = w @ geom.weighted_qbary
    local *= geom.volumes[:, None]
    return geom.load(local)


def facet_mass(mesh: Mesh, weights: np.ndarray, facet_ids: np.ndarray) -> sp.csr_matrix:
    """Sparse sum over the listed boundary facets of w_f |f| (reference facet
    mass), the consistent mass of the P1 trace weighted facetwise by w."""
    scale = np.asarray(weights, dtype=float) * geometry(mesh).facet_measures[facet_ids]
    local = scale[:, None, None] * _FACET_MASS[mesh.dim]
    conn = mesh.boundary_facets[facet_ids]
    k = conn.shape[1]
    rows = np.repeat(conn, k, axis=1).ravel()
    cols = np.tile(conn, (1, k)).ravel()
    n = mesh.n_vertices
    return sp.coo_matrix((local.ravel(), (rows, cols)), shape=(n, n)).tocsr()


def facet_pairing(mesh: Mesh, facet_ids: np.ndarray, f: np.ndarray,
                  g: np.ndarray) -> np.ndarray:
    """integral over each listed facet of (P1 trace of f)(P1 trace of g) ds."""
    verts = mesh.boundary_facets[facet_ids]
    measures = geometry(mesh).facet_measures[facet_ids]
    return measures * np.einsum("fi,ij,fj->f", f[verts], _FACET_MASS[mesh.dim], g[verts])


def assemble_robin(mesh: Mesh, beta: Control, u1: Field) -> tuple[sp.csr_matrix, np.ndarray]:
    """Boundary terms of the Robin condition on the Robin facets.

    Returns (matrix, rhs): matrix adds beta * facet mass, rhs the moments
    integral beta u1 lambda_i ds, both with the consistent facet mass matrix.
    """
    if np.any(beta.values < 0) or np.any(beta.values > beta.m_cap):
        raise DomainError("control values outside [0, m_cap]")
    mat = facet_mass(mesh, beta.values, beta.facet_ids)
    return mat, mat @ u1.values


def assemble_joule_rhs_direct(mesh: Mesh, sigma_of_u: Callable, u: Field,
                              phi: Field) -> np.ndarray:
    """b_i = sum_cells sigma(u_h) |grad phi_h|^2 integral lambda_i.

    sigma_of_u maps temperature values to conductivity values; |grad phi_h|
    is cellwise constant for P1.
    """
    geom = geometry(mesh)
    s = np.asarray(sigma_of_u(geom.at_quadrature(u.values)), dtype=float)
    gphi2 = np.sum(geom.cell_gradient(phi.values) ** 2, axis=1)
    local = s @ geom.weighted_qbary
    local *= (gphi2 * geom.volumes)[:, None]
    return geom.load(local)


def assemble_joule_rhs_weak(mesh: Mesh, sigma_q: np.ndarray, phi: Field,
                            phi0: Field) -> np.ndarray:
    """Joule load in the transformed weak form:

        b_i = integral (phi0 - phi) sigma(u) grad(phi).grad(lambda_i)
            + integral sigma(u) (grad phi . grad phi0) lambda_i,

    with sigma_q the conductivity sigma(u) at the quadrature points,
    (nc, nq), as the caller evaluated it for the potential matrix.
    """
    geom = geometry(mesh)
    s = np.asarray(sigma_q, dtype=float)                                    # (nc, nq)
    diff = geom.at_quadrature(phi0.values - phi.values)                     # (nc, nq)
    gphi = geom.cell_gradient(phi.values)                                   # (nc, d)
    gphi0 = geom.cell_gradient(phi0.values)

    coeff1 = ((s * diff) @ geom.qweights) * geom.volumes                    # (nc,)
    term1 = np.einsum("c,cd,cid->ci", coeff1, gphi, geom.grads)

    dot = np.sum(gphi * gphi0, axis=1)                                      # (nc,)
    term2 = s @ geom.weighted_qbary
    term2 *= (dot * geom.volumes)[:, None]

    return geom.load(term1 + term2)


def lift_dirichlet(matrix: sp.spmatrix, rhs: np.ndarray, fixed: np.ndarray,
                   values) -> np.ndarray:
    """Right side of the eliminated system: rhs - A x_D, then x_D on `fixed`.

    x_D holds `values` (an array matching `fixed`, or a scalar) on the
    constrained vertices and zero elsewhere.
    """
    x = np.zeros(matrix.shape[0])
    x[fixed] = values
    lifted = rhs - matrix @ x
    lifted[fixed] = values
    return lifted


def apply_dirichlet(matrix: sp.spmatrix, rhs: np.ndarray, fixed: np.ndarray,
                    values) -> tuple[sp.csr_matrix, np.ndarray]:
    """Symmetric elimination of the distinct constrained vertices `fixed`,
    with `values` as in lift_dirichlet.

    Constrained rows and columns are zeroed with a unit diagonal; the right
    side absorbs the lifted values. Idempotent for repeated application.
    """
    A = matrix.tocsr(copy=True)
    A.sum_duplicates()
    n = A.shape[0]
    rhs = lift_dirichlet(A, rhs, fixed, values)
    mask = np.zeros(n, dtype=bool)
    mask[fixed] = True
    rows = np.repeat(np.arange(n), np.diff(A.indptr))
    hit = mask[rows] | mask[A.indices]
    A.data[hit] = 0.0
    diagonal = hit & (rows == A.indices)
    A.data[diagonal] = 1.0
    A.eliminate_zeros()
    # Every matrix built by P1Geometry.matrix (and the control blocks made of
    # them) stores all its diagonals, so only a matrix from elsewhere lacks
    # some; patching just those keeps the common path a pure in-place write.
    if np.count_nonzero(diagonal) < len(fixed):
        unit = mask.astype(float)
        unit[rows[diagonal]] = 0.0
        A = (A + sp.diags(unit)).tocsr()
    return A, rhs


def check_symmetric(matrix: sp.spmatrix, rtol: float = 1e-12) -> bool:
    d = abs(matrix - matrix.T)
    scale = max(1e-300, abs(matrix).max())
    return d.max() <= rtol * scale


def factor_spd(matrix: sp.spmatrix) -> spla.SuperLU:
    """Sparse LU of a symmetric positive definite matrix.

    Symmetric minimum-degree ordering on A^T + A and diagonal pivots keep
    the fill of a symmetric factorization (half of what COLAMD leaves on P1
    stiffness matrices). An exactly singular factor raises SolverFailure.
    """
    try:
        return spla.splu(matrix.tocsc(), permc_spec="MMD_AT_PLUS_A",
                         diag_pivot_thresh=0.0, options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise SolverFailure(f"sparse factorization failed ({exc})") from exc


def solve_spd_pcg(matrix: sp.spmatrix, rhs: np.ndarray, x0: np.ndarray,
                  precond: spla.SuperLU, pcg_rtol: float, max_iter: int,
                  rtol: float = 1e-10) -> tuple[np.ndarray, int, spla.SuperLU | None]:
    """SPD solve by conjugate gradients from x0, preconditioned by `precond`
    (a factor of a spectrally equivalent SPD matrix), to relative residual
    pcg_rtol. When CG reaches max_iter iterations the matrix is factored and
    solved directly instead, so max_iter = 0 is a direct solve. Returns the
    solution, the CG iterations and the new factor (None when CG converged).
    A nonsymmetric matrix raises SolverFailure; the contract is relative
    residual <= rtol.
    """
    if not check_symmetric(matrix):
        raise SolverFailure("matrix not symmetric")
    x = np.array(x0, dtype=float)
    r = rhs - matrix @ x
    stop = pcg_rtol * np.linalg.norm(rhs)
    p = np.zeros_like(x)
    rz = 1.0
    for iteration in range(max_iter + 1):
        if np.linalg.norm(r) <= stop:
            return checked_solution(matrix, rhs, x, rtol), iteration, None
        if iteration == max_iter:
            break
        z = precond.solve(r)
        rz, rz_prev = float(r @ z), rz
        p = z + (rz / rz_prev) * p
        q = matrix @ p
        alpha = rz / float(p @ q)
        x += alpha * p
        r -= alpha * q
    lu = factor_spd(matrix)
    return checked_solution(matrix, rhs, lu.solve(rhs), rtol), max_iter, lu


def solve_sparse(matrix: sp.spmatrix, rhs: np.ndarray, rtol: float = 1e-10) -> np.ndarray:
    x = spla.spsolve(matrix.tocsc(), rhs)
    return checked_solution(matrix, rhs, x, rtol)


def checked_solution(matrix, rhs, x, rtol=1e-10):
    """x itself, after checking that it is finite and that its relative
    residual is at most rtol; raises SolverFailure otherwise."""
    if not np.all(np.isfinite(x)):
        raise SolverFailure("sparse solve produced non-finite values "
                            "(singular or degenerate system)")
    ax = matrix @ x
    res = np.linalg.norm(ax - rhs)
    scale = max(np.linalg.norm(rhs), 1e-300)
    if res > rtol * max(scale, np.linalg.norm(ax)):
        raise SolverFailure(f"linear solve residual {res / scale:.3e} exceeds {rtol:.1e}")
    return x


class Norms:
    """Quadrature-exact norms of one P1 field."""

    def __init__(self, l2: float, h1_semi: float, linf: float):
        self.l2 = l2
        self.h1_semi = h1_semi
        self.h1 = float(np.hypot(l2, h1_semi))
        self.linf = linf


def norms(field: Field) -> Norms:
    geom = geometry(field.mesh)
    vq = geom.at_quadrature(field.values)
    l2sq = float(((vq ** 2) @ geom.qweights * geom.volumes).sum())
    g = geom.cell_gradient(field.values)
    h1sq = float((np.sum(g ** 2, axis=1) * geom.volumes).sum())
    return Norms(np.sqrt(max(l2sq, 0.0)), np.sqrt(max(h1sq, 0.0)),
                 float(np.max(np.abs(field.values))))


def boundary_l2(field: Field, tag: BoundaryTag) -> float:
    ids = field.mesh.facet_indices(tag)
    total = float(facet_pairing(field.mesh, ids, field.values, field.values).sum())
    return float(np.sqrt(max(total, 0.0)))


def max_cell_gradient(field: Field) -> float:
    """L-infinity proxy for |grad field| (max over cells)."""
    geom = geometry(field.mesh)
    g = geom.cell_gradient(field.values)
    return float(np.max(np.linalg.norm(g, axis=1))) if g.size else 0.0


def interpolate(mesh: Mesh, fn: Callable, kind: FieldKind) -> Field:
    """P1 interpolant of a coordinate function fn(points)->values."""
    vals = np.asarray(fn(mesh.vertices), dtype=float)
    if vals.ndim == 0:
        vals = np.full(mesh.n_vertices, float(vals))
    return Field(mesh, vals, kind)
