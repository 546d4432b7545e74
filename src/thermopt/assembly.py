"""P1 finite element assembly on simplicial meshes.

Quadrature is the 3-point edge-midpoint rule on triangles (exact for
quadratics) and the 4-point degree-2 rule on tetrahedra. Coefficients are
scalars or values at the quadrature points, (nc, nq); gradients of P1
functions are cellwise constant. Loads sum cell kernels and scatter them
once. Assembled matrices are immutable once returned. No command solves
concurrently: a SciPy 1.17 SuperLU factor (factor_spd's factor where it
does not band) must be freed on the thread that made it (30 of the 16^3
boundary-eliminated K made on a worker thread and dropped on the main one
grew the RSS from 78 to 212 MB; made and dropped on one thread, or only
solved on another, 78-80 MB), and factoring K beside K + R with the Poincare
estimate beside the Picard loop gained only 5-15 % in the 16^3 certificate's
median op time (4 paired runs) and raised its peak RSS from 121-123 to
126-127 MB.
"""

from __future__ import annotations

import math
import weakref
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import eigh, lapack

from .errors import AssemblyError, DomainError, SolverFailure
from .fields import Control, Field
from .mesh import Mesh, edge_cofactors, facet_measures, pair_slots

# the residual contract of every sparse solve: relative residual <= SOLVE_RTOL
SOLVE_RTOL = 1e-10
# a matrix is symmetric when max |A - A^T| <= SYMMETRY_RTOL max |A|
SYMMETRY_RTOL = 1e-12
# factor_spd bands a matrix of m rows and half-bandwidth b up to this b, and
# above it when m <= 64 b and b^2 <= 64 m. Time of one factor and 15 solves,
# banded / SuperLU, on the free blocks of K and K + R of box meshes (a shared
# 2-core machine, SciPy 1.17, 2 BLAS threads):
#   mesh  64^2   96^2  128^2  8^3   12^3  16^3  20^3  24^3
#   m/b  63-64    95    127     7    11    15    19    23
#   K     0.85  1.13   1.08  0.41  0.54  0.69  0.65  0.68
#   K + R 0.86  0.96   1.10  0.51  0.61  0.65  0.48  0.56
BANDED_MAX_HALF_WIDTH = 64

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
    on the mesh alone (K, the stiffness map, K's factor, and the free
    vertices and slot maps of `eliminated`) are built on first use and kept
    here.
    """

    def __init__(self, mesh: Mesh):
        self.cells = mesh.cells
        self.n_vertices = mesh.n_vertices
        self.dim = mesh.dim
        self.boundary_vertices = mesh.boundary_vertex_set()
        self.grid = mesh.grid
        # cell c of a box mesh is a translate of cell c mod d! (see Mesh.grid),
        # so its geometry is computed on those d! cells and repeated
        nc, k = mesh.cells.shape
        period = math.factorial(mesh.dim) if mesh.grid else nc
        # grad(lambda_i) = adj(E)_i / det(E) and |K| = det(E) / d!, E the edge matrix
        cof, det = edge_cofactors(mesh.vertices, mesh.cells[:period])
        volumes = det / math.factorial(mesh.dim)
        grads = np.empty((period, mesh.dim + 1, mesh.dim))
        grads[:, 1:, :] = cof / det[:, None, None]
        grads[:, 0, :] = -grads[:, 1:, :].sum(axis=1)
        self.volumes = _periodic(volumes, nc)
        self.grads = _periodic(grads, nc)                 # (nc, d+1, d)
        # grad(lambda_i) . grad(lambda_j) |K|, the unit-weight cell stiffness
        self.grad_products = _periodic(grads @ grads.transpose(0, 2, 1)
                                       * volumes[:, None, None], nc)
        bary, self.qweights = _QUAD[mesh.dim]
        self.qbary = bary                                 # (nq, d+1)
        # w @ weighted_qbary is sum_q qweights_q w_cq qbary_qi, (nc, d+1)
        self.weighted_qbary = self.qweights[:, None] * bary
        # qweights_q qbary_qi qbary_qj, (nq, d+1, d+1); sum_q w_cq of it times |K|
        # is the cell mass matrix of the weight w
        self.mass_products = np.einsum("q,qi,qj->qij", self.qweights, bary, bary)
        self.facet_measures = facet_measures(mesh)
        # the cell pattern is that of C^T C, C the (nc, n) cell-vertex incidence;
        # scatter sends every entry of the (nc, d+1, d+1) cell matrices to its slot
        incidence = sp.csr_matrix((np.ones(mesh.cells.size), mesh.cells.ravel(),
                                   np.arange(0, nc * k + 1, k)), shape=(nc, self.n_vertices))
        pattern = (incidence.T @ incidence).tocsr()
        pattern.sort_indices()
        pattern.indices.flags.writeable = pattern.indptr.flags.writeable = False
        self.pattern = pattern.indices, pattern.indptr   # read-only: csr() shares them
        # the slot of every vertex pair of each cell, raveled, and of each boundary
        # facet (a cell edge), (nf, d, d); ids in the index dtype need no conversion
        cells, facets = (ids.astype(pattern.indices.dtype)
                         for ids in (mesh.cells, mesh.boundary_facets))
        self.scatter = pair_slots(np.repeat(cells, k, axis=1), np.tile(cells, k),
                                  self.pattern)[0].ravel()
        self.facet_slots = pair_slots(np.repeat(facets, k - 1, axis=1), np.tile(facets, k - 1),
                                      self.pattern)[0].reshape(-1, k - 1, k - 1)
        self._free: dict[bytes, np.ndarray] = {}        # see free()
        self._eliminations: dict[tuple, tuple] = {}     # see eliminated()

    def cell_gradient(self, values: np.ndarray) -> np.ndarray:
        """Cellwise-constant gradient of a P1 nodal field, (nc, d)."""
        return np.einsum("ci,cid->cd", values[self.cells], self.grads)

    def at_quadrature(self, values: np.ndarray) -> np.ndarray:
        """P1 interpolant at the quadrature points, (nc, nq)."""
        return values[self.cells] @ self.qbary.T

    def moments(self, w_q: np.ndarray) -> np.ndarray:
        """|K| [w lambda_i] of a weight at the quadrature points, (nc, d+1)."""
        local = w_q @ self.weighted_qbary
        local *= self.volumes[:, None]
        return local

    def fluxes(self, c_q: np.ndarray, grad: np.ndarray) -> np.ndarray:
        """[c] |K| grad . grad(lambda_i) of a coefficient at the quadrature
        points and a cellwise gradient (nc, d), (nc, d+1)."""
        return np.einsum("c,cd,cid->ci", (c_q @ self.qweights) * self.volumes, grad, self.grads)

    def data(self, local: np.ndarray) -> np.ndarray:
        """Sum the (nc, d+1, d+1) cell matrices into data on the cached pattern."""
        return np.bincount(self.scatter, weights=local.ravel(), minlength=self.pattern[0].size)

    def csr(self, data: np.ndarray) -> sp.csr_matrix:
        """The matrix with `data` on the cached pattern, sharing its read-only
        index arrays; its copy() owns its arrays."""
        return sp.csr_matrix((data, *self.pattern), shape=(self.n_vertices,) * 2, copy=False)

    def load(self, local: np.ndarray) -> np.ndarray:
        """Sum the (nc, d+1) cell vectors into a nodal vector."""
        return np.bincount(self.cells.ravel(), weights=local.ravel(),
                           minlength=self.n_vertices)

    @cached_property
    def stiffness_map(self) -> sp.csr_matrix:
        """Read-only (pattern nnz, n_cells) matrix: row s holds the grad_products entries
        that scatter sends to slot s, cells ascending, so map @ w sums as data() does.
        Built column by column as CSC: its conversion is a counting sort."""
        M = sp.csc_matrix((self.grad_products.ravel(), self.scatter,
                           np.arange(0, self.scatter.size + 1, (self.dim + 1) ** 2)),
                          shape=(self.pattern[0].size, len(self.cells))).tocsr()
        M.data.flags.writeable = M.indices.flags.writeable = M.indptr.flags.writeable = False
        return M

    @cached_property
    def stiffness(self) -> sp.csr_matrix:
        """The unit-weight stiffness K, shared by every caller on this mesh:
        its arrays are read-only."""
        K = self.csr(self.data(self.grad_products))
        K.data.flags.writeable = False
        return K

    @cached_property
    def potential_factor(self) -> Factor:
        """Inverse of K eliminated on the whole boundary, the potential's
        Dirichlet set, which potential_preconditioner scales. A GridPoisson on
        a box mesh, else a factor."""
        return (GridPoisson(*self.grid) if self.grid else
                factor_spd(self.eliminated(self.stiffness.data, self.boundary_vertices)[0]))

    @cached_property
    def potential_diagonal(self) -> np.ndarray:
        """The diagonal of potential_factor's matrix."""
        return self.stiffness.diagonal()[self.free(self.boundary_vertices)]

    def potential_preconditioner(self, matrix: sp.spmatrix) -> ScaledInverse:
        """P = D^-1/2 K^-1 D^-1/2 for the free block S of a potential matrix,
        K^-1 the potential_factor and D = diag(S) / diag(K), sigma's nodal
        weight. A nonpositive diagonal entry of S raises SolverFailure."""
        ratio = matrix.diagonal() / self.potential_diagonal
        if not np.all(ratio > 0):
            raise SolverFailure("potential matrix with a nonpositive diagonal entry")
        return ScaledInverse(self.potential_factor, 1.0 / np.sqrt(ratio))

    def free(self, fixed: np.ndarray) -> np.ndarray:
        """The vertices off the distinct vertices `fixed`, ascending: a
        system's unknowns. Read-only, kept per `fixed`."""
        key = fixed.tobytes()
        if key not in self._free:
            mask = np.ones(self.n_vertices, dtype=bool)
            mask[fixed] = False
            self._free[key] = free = np.flatnonzero(mask)
            free.flags.writeable = False
        return self._free[key]

    def extend(self, x: np.ndarray, fixed: np.ndarray, values=0.0) -> np.ndarray:
        """The nodal vector with x on free(fixed) and `values` on `fixed`."""
        full = np.empty(self.n_vertices)
        full[fixed] = values
        full[self.free(fixed)] = x
        return full

    def eliminated(self, data: np.ndarray, fixed: np.ndarray, fixed_cols: np.ndarray | None = None
                   ) -> tuple[sp.csr_matrix, np.ndarray | None]:
        """The free block of the matrix with `data` on the cached pattern: rows
        off the distinct vertices `fixed`, columns off `fixed_cols` (default
        `fixed`), numbered as free() orders them, zeros of `data` kept; and for
        a square block the permutation of its data onto its transpose's (for
        check_symmetric), else None. Each pair of sets' slot map is kept."""
        key = fixed.tobytes(), None if fixed_cols is None else fixed_cols.tobytes()
        if key not in self._eliminations:
            indices, indptr = self.pattern
            rows = np.repeat(np.arange(self.n_vertices), np.diff(indptr))
            free_rows, free_cols = self.free(fixed), self.free(fixed if fixed_cols is None
                                                                else fixed_cols)
            number = np.full((2, self.n_vertices), -1, dtype=indices.dtype)
            number[0, free_rows], number[1, free_cols] = (np.arange(f.size) for f in
                                                          (free_rows, free_cols))
            # kept is sorted, so it maps the row pointers of the free rows too
            kept = np.flatnonzero((number[0, rows] >= 0) & (number[1, indices] >= 0))
            pattern = (number[1, indices[kept]],
                       np.searchsorted(kept, indptr[np.append(free_rows, self.n_vertices)]
                                       ).astype(indptr.dtype))
            for array in pattern:
                array.flags.writeable = False
            shape = free_rows.size, free_cols.size
            # the pattern is symmetric: its CSC order is its transpose's CSR order
            transpose = (None if fixed_cols is not None else
                         sp.csr_matrix((np.arange(kept.size), *pattern), shape=shape).tocsc().data)
            self._eliminations[key] = kept, pattern, shape, transpose
        kept, pattern, shape, transpose = self._eliminations[key]
        return sp.csr_matrix((data[kept], *pattern), shape=shape, copy=False), transpose


def _periodic(values: np.ndarray, n: int) -> np.ndarray:
    """The n rows whose row c is values[c mod len(values)], len(values) dividing n."""
    out = np.empty((n // len(values),) + values.shape)
    out[...] = values
    return out.reshape((n,) + values.shape[1:])


_GEOMETRY_CACHE: "weakref.WeakKeyDictionary[Mesh, P1Geometry]" = weakref.WeakKeyDictionary()


def geometry(mesh: Mesh) -> P1Geometry:
    geom = _GEOMETRY_CACHE.get(mesh)
    if geom is None:
        geom = P1Geometry(mesh)
        _GEOMETRY_CACHE[mesh] = geom
    return geom


def _quad_weight(geom: P1Geometry, weight) -> np.ndarray:
    """A scalar or (nc, nq) weight as its values at the quadrature points."""
    shape = (geom.cells.shape[0], geom.qweights.shape[0])
    arr = np.asarray(weight, dtype=float)
    if arr.ndim and arr.shape != shape:
        raise AssemblyError(f"cannot interpret weight of shape {arr.shape}")
    return np.broadcast_to(arr, shape)


def weighted_stiffness_data(mesh: Mesh, weight=1.0) -> np.ndarray:
    """Data of assemble_weighted_stiffness on geometry(mesh)'s pattern. A weight
    negative at a quadrature point (an upstream bug) raises AssemblyError."""
    geom = geometry(mesh)
    w = _quad_weight(geom, weight)
    if np.any(w < 0):
        raise AssemblyError("negative weight at a quadrature point")
    return geom.stiffness_map @ (w @ geom.qweights)


def assemble_weighted_stiffness(mesh: Mesh, weight=1.0) -> sp.csr_matrix:
    """A_ij = sum_cells integral w grad(lambda_i) . grad(lambda_j) dx."""
    return geometry(mesh).csr(weighted_stiffness_data(mesh, weight)).copy()


def assemble_mass(mesh: Mesh, weight=1.0) -> sp.csr_matrix:
    """M_ij = sum_cells integral w lambda_i lambda_j dx (consistent mass)."""
    geom = geometry(mesh)
    w = _quad_weight(geom, weight)
    # a scalar weight gives every cell the same sum over q, scaled by its |K|
    sums = np.einsum("cq,qij->cij", w[:1] if np.ndim(weight) == 0 else w, geom.mass_products)
    return geom.csr(geom.data(sums * geom.volumes[:, None, None])).copy()


def load_vector(mesh: Mesh, weight=1.0) -> np.ndarray:
    """b_i = sum_cells integral w lambda_i dx."""
    geom = geometry(mesh)
    return geom.load(geom.moments(_quad_weight(geom, weight)))


def facet_mass(mesh: Mesh, weights: np.ndarray, facet_ids: np.ndarray) -> sp.csr_matrix:
    """Sparse sum over the listed boundary facets of w_f |f| (reference facet
    mass), the consistent mass of the P1 trace weighted facetwise by w, on
    the cell pattern of geometry(mesh), whose read-only index arrays it
    shares: every facet coupling is a cell edge."""
    geom = geometry(mesh)
    scale = np.asarray(weights, dtype=float) * geom.facet_measures[facet_ids]
    data = np.bincount(geom.facet_slots[facet_ids].ravel(), minlength=geom.pattern[0].size,
                       weights=(scale[:, None, None] * _FACET_MASS[mesh.dim]).ravel())
    return geom.csr(data.astype(float, copy=False))   # bincount of no facet is int


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


def assemble_joule_rhs_weak(mesh: Mesh, sigma_q: np.ndarray, phi: Field,
                            phi0: Field) -> np.ndarray:
    """The package's one discrete Joule load sigma(u)|grad phi|^2, in the
    transformed weak form

        b_i = integral (phi0 - phi) sigma(u) grad(phi).grad(lambda_i)
            + integral sigma(u) (grad phi . grad phi0) lambda_i,

    with sigma_q the conductivity sigma(u) at the quadrature points,
    (nc, nq), as the caller evaluated it. q_c = grad_products[c] phi_c gives q_ci =
    |K| grad(phi).grad(lambda_i) and, by symmetry, q_c . phi0_c = |K| grad(phi).grad(phi0),
    so a cell adds [sigma (phi0 - phi)] q_c + (q_c . phi0_c) [sigma lambda_i], [.] its mean.
    """
    geom = geometry(mesh)
    q = np.einsum("cij,cj->ci", geom.grad_products, phi.values[geom.cells])
    c_bar = (sigma_q * geom.at_quadrature(phi0.values - phi.values)) @ geom.qweights
    dot = np.einsum("ci,ci->c", q, phi0.values[geom.cells])
    return geom.load(c_bar[:, None] * q + dot[:, None] * (sigma_q @ geom.weighted_qbary))


def lift_dirichlet(matrix: sp.spmatrix, rhs, fixed: np.ndarray, values,
                   free: np.ndarray) -> np.ndarray:
    """Right side of the free block: the rows `free` of rhs - A x_D, rhs a
    vector or a scalar.

    x_D holds `values` (an array matching `fixed`, or a scalar) on the
    constrained vertices and zero elsewhere.
    """
    x = np.zeros(matrix.shape[0])
    x[fixed] = values
    lifted = matrix @ x
    np.subtract(rhs, lifted, out=lifted)
    return lifted[free]


def check_symmetric(matrix: sp.spmatrix, transpose: np.ndarray | None = None) -> bool:
    """max |A - A^T| <= SYMMETRY_RTOL max |A|; with `transpose`, the permutation
    of the data of a symmetric pattern onto its transpose's, A^T is not formed."""
    data = matrix.data
    difference = (matrix - matrix.T).data if transpose is None else data - data[transpose]
    return (np.abs(difference).max(initial=0.0)
            <= SYMMETRY_RTOL * max(1e-300, np.abs(data).max(initial=0.0)))


class BandedCholesky:
    """Cholesky factor of an SPD matrix in LAPACK lower-band storage, as
    dpbtrf leaves it; solve takes a vector or an (n, k) block, as
    SuperLU.solve does, and modifies neither it nor the factor."""

    def __init__(self, band: np.ndarray):
        self.band = band

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        n = self.band.shape[1]
        if rhs.shape[0] != n:
            raise ValueError(f"right side of {rhs.shape[0]} rows for a factor of {n}")
        # dpbtrs rejects a block of no rows
        return lapack.dpbtrs(self.band, rhs, lower=1)[0] if rhs.size else rhs.copy()


class GridPoisson:
    """Inverse of prod h sum_k (x_{j != k} D_j) x (T_k + r h_k e e^T) / h_k^2 by
    fast diagonalization (Lynch, Rice & Thomas, Numer. Math. 6, 1964): T_k the
    Neumann 1D second difference, D_k = diag(1/2, 1, ..., 1/2), each end of
    ends[k] None (Dirichlet, the default: its grid layer is dropped) or a
    Robin r >= 0, each axis by eigh of its kept pencil (T_k + r h_k e e^T, D_k).
    On a box mesh that is K + R's free block off its Dirichlet faces, R lumped
    to one r per face; K exactly in 2D and on the 3D interior block, about 1 %
    off on a 3D box's faces (Kuhn cells weigh the edges along the box's edges
    1/6 and 2/6, not 1/4). solve is a factor's on the kept grid points (the
    free vertices) in C order: a vector or an (m, k) block."""

    def __init__(self, divisions: tuple[int, ...], extents: tuple[float, ...],
                 ends: list[tuple[float | None, float | None]] | None = None):
        h = np.asarray(extents) / divisions
        self.vectors, eigenvalues = [], []
        for n, hk, (lo, hi) in zip(divisions, h, ends or [(None, None)] * len(divisions)):
            keep = slice(int(lo is None), n + (hi is not None))
            mass = np.r_[0.5, np.ones(n - 1), 0.5]
            robin = hk * np.r_[lo or 0.0, np.zeros(n - 1), hi or 0.0]
            pencil = np.diag(2.0 * mass + robin) - np.eye(n + 1, k=1) - np.eye(n + 1, k=-1)
            lam, v = eigh(pencil[keep, keep], np.diag(mass[keep]))
            self.vectors.append((v, np.ascontiguousarray(v.T)))   # V_k and its transpose
            eigenvalues.append(lam)
        self.shape = tuple(lam.size for lam in eigenvalues)
        self.eigenvalues = sum(np.ix_(*[np.prod(h) / hk ** 2 * lam
                                        for lam, hk in zip(eigenvalues, h)]))

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        grid = rhs.reshape(self.shape + rhs.shape[1:])
        if rhs.ndim == 2:
            grid = np.moveaxis(grid, -1, 0)   # the block's columns first
        x = self._transform(self._transform(grid, True) / self.eigenvalues, False)
        return (np.moveaxis(x, 0, -1) if rhs.ndim == 2 else x).reshape(rhs.shape)

    def _transform(self, y: np.ndarray, transposed: bool) -> np.ndarray:
        """(V_1 x ... x V_d)^T y when transposed, else (V_1 x ... x V_d) y, over
        the last d axes, one matmul per axis."""
        shape = y.shape
        for axis, (v, vt) in enumerate(self.vectors, start=len(shape) - len(self.vectors)):
            lead, rest = math.prod(shape[:axis]), math.prod(shape[axis + 1:])
            right, left = (v, vt) if transposed else (vt, v)   # y @ right = (left @ y^T)^T
            y = (y.reshape(lead, shape[axis]) @ right if rest == 1
                 else left @ y.reshape(lead, shape[axis], rest))
        return y.reshape(shape)


def box_inverse(mesh: Mesh, beta: Control) -> GridPoisson | None:
    """The GridPoisson of K + R's free block off Gamma_D on a box mesh whose
    Gamma_D is a union of whole faces, each Robin face taking its
    facet-measure-weighted mean beta; None on any other mesh."""
    if mesh.grid is None:
        return None
    divisions, extents = mesh.grid
    # face 2k of a boundary facet is x_k = 0, face 2k + 1 is x_k = L_k
    index = np.unravel_index(mesh.boundary_facets, [n + 1 for n in divisions])
    faces = np.argmax([np.all(i == end, axis=1) for i, n in zip(index, divisions)
                       for end in (0, n)], axis=0)
    robin, measures = faces[beta.facet_ids], geometry(mesh).facet_measures[beta.facet_ids]
    count, robin_count = (np.bincount(f, minlength=2 * mesh.dim) for f in (faces, robin))
    if np.any((robin_count > 0) & (robin_count < count)):
        return None   # a face partly Dirichlet
    mean = (np.bincount(robin, measures * beta.values, 2 * mesh.dim)
            / np.maximum(np.bincount(robin, measures, 2 * mesh.dim), 1e-300))
    ends = [float(r) if k else None for k, r in zip(robin_count, mean)]
    return GridPoisson(divisions, extents, list(zip(ends[::2], ends[1::2])))


class ScaledInverse(NamedTuple):
    """D^-1/2 K^-1 D^-1/2 from K's inverse and scale = D^-1/2, as a factor."""
    inverse: Factor
    scale: np.ndarray

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        scale = self.scale if rhs.ndim == 1 else self.scale[:, None]
        return scale * self.inverse.solve(scale * rhs)


# the factor of an SPD matrix, as factor_spd returns it, or an inverse in its place
Factor = spla.SuperLU | BandedCholesky | GridPoisson | ScaledInverse


def factor_spd(matrix: sp.spmatrix) -> Factor:
    """Factor of a symmetric positive definite matrix; stored zeros are
    ignored, so a matrix with and without them gets the same factor.

    LAPACK's banded Cholesky (dpbtrf) in the matrix's own order when the
    half-bandwidth b of its lower triangle's nonzeros is at most the cap
    BANDED_MAX_HALF_WIDTH, or when its m rows have m <= cap b (the band's
    m b^2 flops undercut nested dissection's b^3) and b^2 <= cap m (bad
    orders fail it); dpbtrf reads the lower triangle alone: every caller's
    matrix is symmetric by construction or has passed check_symmetric.
    Otherwise sparse LU with a symmetric minimum-degree ordering on A^T + A
    and diagonal pivots, which keep the fill of a symmetric factorization
    (half of what COLAMD leaves on P1 stiffness matrices). An exactly
    singular factor or a nonpositive banded pivot raises SolverFailure.
    """
    csr = matrix.tocsr()
    m = csr.shape[0]
    cols = csr.indices
    offsets = np.repeat(np.arange(m, dtype=cols.dtype), np.diff(csr.indptr)) - cols
    lower = np.flatnonzero((offsets >= 0) & (csr.data != 0))
    cols, offsets, data = cols[lower], offsets[lower], csr.data[lower]
    b, cap = int(offsets.max(initial=0)), BANDED_MAX_HALF_WIDTH
    if b <= cap or (m <= cap * b and b ** 2 <= cap * m):
        return BandedCholesky(_band_factor(cols, offsets, data, m, b))
    csc = matrix.tocsc(copy=True)
    csc.eliminate_zeros()
    try:
        return spla.splu(csc, permc_spec="MMD_AT_PLUS_A",
                         diag_pivot_thresh=0.0, options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise SolverFailure(f"sparse factorization failed ({exc})") from exc


def _band_factor(cols, offsets, data, n, width):
    """dpbtrf of the n x n matrix of half-bandwidth `width` whose lower triangle
    holds `data` at (cols + offsets, cols), duplicates summed: A_ij at band[i - j, j].
    A band 2^k high, where dpbtrs is slow, stores one more diagonal, of zeros."""
    height = width + 1 + ((width + 1) & width == 0)
    slots = cols.astype(np.intp) * height + offsets
    band = np.bincount(slots, weights=data, minlength=height * n)
    band, info = lapack.dpbtrf(band.reshape((height, n), order="F"), lower=1, overwrite_ab=1)
    if info:
        raise SolverFailure(f"sparse factorization failed (banded Cholesky: leading minor "
                            f"{info} not positive, matrix singular or not positive definite)")
    return band


def solve_spd_pcg(matrix: sp.spmatrix, rhs: np.ndarray, x0: np.ndarray,
                  precond: Factor | None, pcg_rtol: float, max_iter: int,
                  transpose: np.ndarray | None = None, dirichlet_norm: float = 0.0
                  ) -> tuple[np.ndarray, int, Factor | None]:
    """SPD solve by scipy's conjugate gradients from x0, preconditioned by
    `precond` (a factor of a spectrally equivalent SPD matrix), to residual
    pcg_rtol times the norm of (rhs, the `dirichlet_norm` of the values a
    free block eliminated), as on the whole system. When CG has not
    converged within max_iter iterations the matrix is factored and solved
    directly instead, so max_iter = 0 is a direct solve and needs no
    `precond`. Returns the solution, the CG iterations and the new factor
    (None when CG converged), checked by checked_solution with the same
    `dirichlet_norm`. A nonsymmetric matrix raises SolverFailure
    (`transpose` as in check_symmetric).
    """
    if not check_symmetric(matrix, transpose=transpose):
        raise SolverFailure("matrix not symmetric")
    if max_iter > 0:
        steps = []   # cg hands every iterate to its callback
        atol = pcg_rtol * math.hypot(np.linalg.norm(rhs), dirichlet_norm)
        x, info = spla.cg(matrix, rhs, x0, rtol=0.0, atol=atol, maxiter=max_iter,
                          M=spla.LinearOperator(matrix.shape, precond.solve, dtype=float),
                          callback=steps.append)
        if info == 0:
            return checked_solution(matrix, rhs, x, dirichlet_norm), len(steps), None
    lu = factor_spd(matrix)
    return checked_solution(matrix, rhs, lu.solve(rhs), dirichlet_norm), max_iter, lu


def solve_sparse(matrix: sp.spmatrix, rhs: np.ndarray) -> np.ndarray:
    x = spla.spsolve(matrix.tocsc(), rhs)
    return checked_solution(matrix, rhs, x)


def checked_solution(matrix, rhs, x, dirichlet_norm: float = 0.0):
    """x itself, after checking that it is finite and that its residual is
    at most SOLVE_RTOL times the larger of hypot(||rhs||, d) and hypot(||A x||,
    d), d the `dirichlet_norm` of the values a free block eliminated: the whole
    system's scale, on which CG stops. Raises SolverFailure otherwise."""
    if not np.all(np.isfinite(x)):
        raise SolverFailure("sparse solve produced non-finite values "
                            "(singular or degenerate system)")
    ax = matrix @ x
    res = np.linalg.norm(ax - rhs)
    scale = max(math.hypot(np.linalg.norm(rhs), dirichlet_norm), 1e-300)
    if res > SOLVE_RTOL * max(scale, math.hypot(np.linalg.norm(ax), dirichlet_norm)):
        raise SolverFailure(f"linear solve residual {res / scale:.3e} exceeds {SOLVE_RTOL:.1e}")
    return x


def relative_defect(lhs: np.ndarray, rhs: np.ndarray, fixed: np.ndarray) -> float:
    """||lhs - rhs|| / max(1, ||lhs|| + ||rhs||) over the rows outside `fixed`."""
    lhs, rhs = np.delete(lhs, fixed), np.delete(rhs, fixed)
    scale = max(1.0, float(np.linalg.norm(lhs)) + float(np.linalg.norm(rhs)))
    return float(np.linalg.norm(lhs - rhs)) / scale


class Norms(NamedTuple):
    """Quadrature-exact norms of one P1 field, as Python floats."""
    l2: float
    h1_semi: float
    h1: float
    linf: float


def norms(field: Field) -> Norms:
    geom = geometry(field.mesh)
    vq = geom.at_quadrature(field.values)
    l2sq = float(((vq ** 2) @ geom.qweights * geom.volumes).sum())
    g = geom.cell_gradient(field.values)
    h1sq = float((np.sum(g ** 2, axis=1) * geom.volumes).sum())
    l2, h1_semi = math.sqrt(max(l2sq, 0.0)), math.sqrt(max(h1sq, 0.0))
    return Norms(l2, h1_semi, float(np.hypot(l2, h1_semi)), float(np.max(np.abs(field.values))))


def w1inf_proxy(field: Field) -> float:
    """W^{1,inf} proxy of a P1 field: the larger of max |field| and the
    largest |grad field| over the cells."""
    g = geometry(field.mesh).cell_gradient(field.values)
    return max(float(np.max(np.abs(field.values))),
               float(np.max(np.linalg.norm(g, axis=1))) if g.size else 0.0)


def interpolate(mesh: Mesh, fn: Callable) -> Field:
    """P1 interpolant of a coordinate function fn(points)->values."""
    vals = np.asarray(fn(mesh.vertices), dtype=float)
    if vals.ndim == 0:
        vals = np.full(mesh.n_vertices, float(vals))
    return Field(mesh, vals)
