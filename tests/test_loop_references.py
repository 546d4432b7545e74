"""Array implementations against the per-facet, per-edge and per-cell loops
and the general sparse operations they replaced, kept here as references.

Mesh arrays and sparsity patterns must match exactly; facet sums are
accumulated in another order and must agree to 1e-13 relative, cell sums
to 1e-14 relative. The closed-form conductivity quantities must agree with
the adaptive quadrature and root bracketing they replaced to 1e-10 relative.
Kernels that add the same products in the same order as the form they
replaced (sigma_n on its band, the stiffness map) must match it bit for bit,
and so must the one optimizer loop against the two it replaced.
"""

import itertools
import math
import weakref
from collections import Counter

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.integrate import quad
from scipy.optimize import brentq

from thermopt import reporting
from thermopt import assembly
from thermopt.assembly import (
    assemble_joule_rhs_weak,
    assemble_mass,
    assemble_robin,
    assemble_weighted_stiffness,
    facet_mass,
    facet_pairing,
    factor_spd,
    geometry,
    interpolate,
    lift_dirichlet,
    load_vector,
    solve_spd_pcg,
)
from thermopt.control import (
    ARMIJO_C,
    OptimizeResult,
    OptimizerOptions,
    _initial_control,
    _spectral_step,
    adjoint_system,
    objective,
    optimize,
    sensitivity_system,
    solve_adjoint,
    stationarity,
)
from thermopt.errors import CriticalityError, NonconvergenceError, SolverFailure
from thermopt.fields import Control, Field
from thermopt.materials import TruncatedModel, TruncatedPower
from thermopt.mesh import (
    BoundaryTag,
    build_rectangle_mesh,
    dirichlet_on_planes,
    facet_measures,
    refine_uniform,
)
from thermopt.reporting import write_vtk
from thermopt.state import ProblemSpec, StateSolution, solve_state
from thermopt.transform import TransformedState, _psi_sides, psi_checks, transform

D = BoundaryTag.DIRICHLET_TEMPERATURE
R = BoundaryTag.ROBIN_TEMPERATURE
RTOL = 1e-13

_EDGE_MASS = np.array([[2.0, 1.0], [1.0, 2.0]]) / 6.0
_TRI_MASS = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0


def solve_direct(matrix, rhs):
    """solve_spd_pcg with an iteration cap of 0: factor and solve directly."""
    return solve_spd_pcg(matrix, rhs, np.zeros(rhs.size), None, 0.0, 0)[0]


def ref_mass(mesh):
    return _EDGE_MASS if mesh.dim == 2 else _TRI_MASS


# ---- loop references -------------------------------------------------------

def extract_boundary_loop(cells, dim):
    npts = dim + 1
    local_facets = [tuple(j for j in range(npts) if j != i) for i in range(npts)]
    seen = {}
    for c, cell in enumerate(cells):
        for loc in local_facets:
            facet = tuple(cell[j] for j in loc)
            key = tuple(sorted(facet))
            if key in seen:
                seen[key] = None
            else:
                seen[key] = (facet, c)
    facets = [val[0] for val in seen.values() if val is not None]
    return np.asarray(facets, dtype=np.int64)


KUHN_PATHS = [
    [(0, 0, 0), tuple(np.eye(3, dtype=int)[p[0]]),
     tuple(np.eye(3, dtype=int)[p[0]] + np.eye(3, dtype=int)[p[1]]), (1, 1, 1)]
    for p in itertools.permutations(range(3), 2)
]


def orient_positively(vertices, cells):
    cells = cells.copy()
    v = vertices[cells]
    det = np.linalg.det(v[:, 1:, :] - v[:, :1, :])
    flip = det < 0
    cells[flip, 0], cells[flip, 2] = cells[flip, 2].copy(), cells[flip, 0].copy()
    return cells


def box_loop(extents, divisions):
    """Vertices and cells of the box mesh, built cell by cell."""
    axes = [np.linspace(0.0, extents[k], divisions[k] + 1) for k in range(len(extents))]
    if len(extents) == 2:
        nx, ny = divisions
        X, Y = np.meshgrid(axes[0], axes[1], indexing="ij")
        vertices = np.column_stack([X.ravel(), Y.ravel()])

        def vid(i, j):
            return i * (ny + 1) + j

        cells = []
        for i in range(nx):
            for j in range(ny):
                v00, v10 = vid(i, j), vid(i + 1, j)
                v01, v11 = vid(i, j + 1), vid(i + 1, j + 1)
                cells.append((v00, v10, v01))
                cells.append((v10, v11, v01))
        return vertices, np.asarray(cells, dtype=np.int64)
    nx, ny, nz = divisions
    X, Y, Z = np.meshgrid(axes[0], axes[1], axes[2], indexing="ij")
    vertices = np.column_stack([X.ravel(), Y.ravel(), Z.ravel()])

    def vid(i, j, k):
        return (i * (ny + 1) + j) * (nz + 1) + k

    cells = []
    for i in range(nx):
        for j in range(ny):
            for k in range(nz):
                for path in KUHN_PATHS:
                    cells.append(tuple(vid(i + c[0], j + c[1], k + c[2]) for c in path))
    cells = np.asarray(cells, dtype=np.int64)
    return vertices, orient_positively(vertices, cells)


def refine_loop(mesh):
    """(vertices, cells, facets, tags, parent_edges) of the regular refinement."""
    nv = mesh.n_vertices
    edge_index = {}
    new_edges = []

    def midpoint(a, b):
        key = (a, b) if a < b else (b, a)
        idx = edge_index.get(key)
        if idx is None:
            idx = nv + len(new_edges)
            edge_index[key] = idx
            new_edges.append(key)
        return idx

    cells = []
    if mesh.dim == 2:
        for a, b, c in mesh.cells:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            cells += [(a, ab, ca), (ab, b, bc), (ca, bc, c), (ab, bc, ca)]
    else:
        for x0, x1, x2, x3 in mesh.cells:
            m01, m02, m03 = midpoint(x0, x1), midpoint(x0, x2), midpoint(x0, x3)
            m12, m13, m23 = midpoint(x1, x2), midpoint(x1, x3), midpoint(x2, x3)
            cells += [
                (x0, m01, m02, m03), (m01, x1, m12, m13),
                (m02, m12, x2, m23), (m03, m13, m23, x3),
                (m01, m02, m03, m13), (m01, m02, m12, m13),
                (m02, m03, m13, m23), (m02, m12, m13, m23),
            ]
    cells = np.asarray(cells, dtype=np.int64)
    facets, tags = [], []
    for f, t in zip(mesh.boundary_facets, mesh.boundary_tags):
        if mesh.dim == 2:
            a, b = f
            m = midpoint(a, b)
            facets += [(a, m), (m, b)]
            tags += [t, t]
        else:
            a, b, c = f
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            facets += [(a, ab, ca), (ab, b, bc), (ca, bc, c), (ab, bc, ca)]
            tags += [t, t, t, t]
    parent_edges = np.asarray(new_edges, dtype=np.int64)
    mids = 0.5 * (mesh.vertices[parent_edges[:, 0]] + mesh.vertices[parent_edges[:, 1]])
    vertices = np.vstack([mesh.vertices, mids])
    if mesh.dim == 3:
        cells = orient_positively(vertices, cells)
    return (vertices, cells, np.asarray(facets, dtype=np.int64),
            np.asarray(tags, dtype=np.int8), parent_edges)


def robin_loop(mesh, beta, u1):
    n = mesh.n_vertices
    ref = ref_mass(mesh)
    measures = facet_measures(mesh)
    mat = np.zeros((n, n))
    rhs = np.zeros(n)
    for b, f in zip(beta.values, beta.facet_ids):
        verts = mesh.boundary_facets[f]
        local = b * measures[f] * ref
        mat[np.ix_(verts, verts)] += local
        rhs[verts] += local @ u1[verts]
    return mat, rhs


def boundary_moments_loop(mesh, weights, facet_ids, trace):
    ref = ref_mass(mesh)
    measures = facet_measures(mesh)
    out = np.zeros(mesh.n_vertices)
    for w, f in zip(weights, facet_ids):
        verts = mesh.boundary_facets[f]
        out[verts] += w * measures[f] * (ref @ trace[verts])
    return out


def facet_integral_loop(mesh, facet_id, f, g):
    verts = mesh.boundary_facets[facet_id]
    return float(facet_measures(mesh)[facet_id] * (f[verts] @ ref_mass(mesh) @ g[verts]))


def F_quad(model, u):
    """integral_0^u ds / sigma(s) by adaptive quadrature."""
    return quad(lambda s: 1.0 / float(model.sigma(s)), 0.0, u,
                epsrel=1e-10, epsabs=1e-14, limit=200)[0]


def F_inv_brentq(model, v):
    """The root of F_quad(u) = v, bracketed inside [0, u_star)."""
    if v == 0.0:
        return 0.0
    hi = 0.5 * model.u_star
    while F_quad(model, hi) < v:
        hi = 0.5 * (hi + model.u_star)
        if model.u_star - hi < 1e-15 * model.u_star:
            return hi
    return brentq(lambda u: F_quad(model, u) - v, 0.0, hi, xtol=1e-15, rtol=8.9e-16)


def a_brentq(model, v):
    return float(model.sigma(F_inv_brentq(model, v)))


def moment_quad(model, v):
    """integral_0^v ds / a(s), with a itself by root bracketing."""
    return quad(lambda s: 1.0 / a_brentq(model, s), 0.0, v,
                epsrel=1e-10, epsabs=1e-14, limit=200)[0]


# ---- conductivity ----------------------------------------------------------

@pytest.mark.parametrize("p", [2.0, 3.0, 4.5])
def test_closed_form_conductivity_matches_quadrature_reference(p):
    model = TruncatedPower(1.5, 2.0, p)
    for u in (0.1, 1.0, 1.9):
        assert float(model.F(u)) == pytest.approx(F_quad(model, u), rel=1e-10)
    for v in (0.3, 5.0, 200.0):
        assert float(model.F_inv(v)) == pytest.approx(F_inv_brentq(model, v), rel=1e-10)
        assert float(model.a(v)) == pytest.approx(a_brentq(model, v), rel=1e-10)
    for v in (0.5, 3.0):
        assert float(model.reciprocal_a_moment(v)) == pytest.approx(
            moment_quad(model, v), rel=1e-10)


def truncated_sigma_where(model, u):
    """sigma_n as np.where over the base, the blend and the floor, each
    evaluated at every point."""
    u = np.maximum(np.asarray(u, dtype=float), 0.0)
    n, d = model.n, model.delta
    sn, spn = float(model.base.sigma(n)), float(model.base.sigma_prime(n))
    t = np.clip((u - n) / d, 0.0, 1.0)
    blend = sn * (t ** 3 - 1.5 * t ** 2 + 1.0) + d * spn * t * (1.0 - t) ** 2
    out = np.where(u <= n, model.base.sigma(np.minimum(u, n)), blend)
    return np.where(u >= n + d, 0.5 * sn, out)


def truncated_sigma_prime_where(model, u):
    """sigma_n' in the np.where form of truncated_sigma_where."""
    u = np.maximum(np.asarray(u, dtype=float), 0.0)
    n, d = model.n, model.delta
    sn, spn = float(model.base.sigma(n)), float(model.base.sigma_prime(n))
    t = np.clip((u - n) / d, 0.0, 1.0)
    dblend = sn * (3.0 * t ** 2 - 3.0 * t) / d + spn * (1.0 - t) * (1.0 - 3.0 * t)
    out = np.where(u <= n, model.base.sigma_prime(np.minimum(u, n)), dblend)
    return np.where(u >= n + d, 0.0, out)


@pytest.mark.parametrize("p, n", [(2.0, 0.9), (3.0, 0.5)])
def test_truncated_sigma_matches_where_reference_bit_for_bit(p, n):
    model = TruncatedModel(TruncatedPower(1.0, 1.0, p), n)
    d = model.delta
    u = np.concatenate([np.linspace(-0.5, 1.5, 100_001),
                        np.nextafter(np.array([0.0, n, n + d, 1.0]), -np.inf),
                        [0.0, n, n + d, 1.0, 1e300]])
    u = np.concatenate([u, np.nextafter(u, np.inf)])
    points = [u, u.reshape(-1, 2), np.array(n + 0.5 * d), n + 0.5 * d, n, n + d, -1.0, 0.3,
              np.float64(n - d)]
    for actual, reference in ((model.sigma, truncated_sigma_where),
                              (model.sigma_prime, truncated_sigma_prime_where)):
        for x in points:
            a, b = actual(x), reference(model, x)
            assert type(a) is type(b) and a.shape == b.shape and a.dtype == b.dtype
            assert a.tobytes() == b.tobytes()


# ---- meshes ----------------------------------------------------------------

MESH_CASES = [
    ([1.0, 1.0], [3, 5], ("x=0", "y=1")),          # mixed tags
    ([2.0, 0.5], [1, 7], ("y=0",)),                # 1 x n strip
    ([1.0, 2.0, 0.5], [2, 3, 2], ("x=0", "z=0.5")),
    ([1.0, 1.0, 3.0], [1, 1, 5], ("z=0",)),        # 1 x 1 x n strip
]


def assert_same(actual, expected):
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert np.array_equal(actual, expected)


@pytest.mark.parametrize("extents, divisions, planes", MESH_CASES)
def test_box_mesh_matches_loop_reference(extents, divisions, planes):
    mesh = build_rectangle_mesh(extents, divisions, dirichlet_on_planes(*planes))
    vertices, cells = box_loop(extents, divisions)
    assert_same(mesh.vertices, vertices)
    assert_same(mesh.cells, cells)
    assert_same(mesh.boundary_facets, extract_boundary_loop(cells, len(extents)))
    assert mesh.facet_indices(D).size and mesh.facet_indices(R).size


@pytest.mark.parametrize("extents, divisions, planes", MESH_CASES)
def test_two_refinements_match_loop_reference(extents, divisions, planes):
    mesh = build_rectangle_mesh(extents, divisions, dirichlet_on_planes(*planes))
    for _ in range(2):
        vertices, cells, facets, tags, parent_edges = refine_loop(mesh)
        mesh = refine_uniform(mesh)
        assert_same(mesh.vertices, vertices)
        assert_same(mesh.cells, cells)
        assert_same(mesh.boundary_facets, facets)
        assert_same(mesh.boundary_tags, tags)
        assert_same(mesh.parent_edges, parent_edges)
        # the refined facets are exactly the boundary of the refined cells
        key = lambda rows: sorted(map(tuple, np.sort(rows, axis=1)))
        assert key(facets) == key(extract_boundary_loop(cells, mesh.dim))


# ---- facet sums ------------------------------------------------------------

FACET_CASES = [
    ([1.0, 1.0], [4, 3], ("x=0",)),
    ([1.0, 2.0, 0.5], [2, 3, 2], ("x=0", "z=0.5")),
    ([1.0, 1.0], [3, 3], ("x=0", "x=1", "y=0", "y=1")),   # no Robin facet
]


def close(actual, expected):
    scale = max(np.max(np.abs(expected)), 1e-300) if np.size(expected) else 1.0
    return np.max(np.abs(np.asarray(actual) - expected), initial=0.0) <= RTOL * scale


@pytest.mark.parametrize("extents, divisions, planes", FACET_CASES)
def test_facet_kernels_match_loop_reference(extents, divisions, planes):
    mesh = build_rectangle_mesh(extents, divisions, dirichlet_on_planes(*planes))
    rng = np.random.default_rng(7)
    n_robin = mesh.facet_indices(R).size
    beta = Control(mesh, rng.uniform(0.0, 2.0, n_robin), 2.0)
    f = rng.uniform(-1.0, 1.0, mesh.n_vertices)
    g = rng.uniform(-1.0, 1.0, mesh.n_vertices)

    mat, rhs = assemble_robin(mesh, beta, Field(mesh, f))
    mat_ref, rhs_ref = robin_loop(mesh, beta, f)
    assert close(mat.toarray(), mat_ref)
    assert close(rhs, rhs_ref)

    for tag in (D, R):
        ids = mesh.facet_indices(tag)
        w = rng.uniform(-1.0, 1.0, ids.size)
        assert close(facet_mass(mesh, w, ids) @ g, boundary_moments_loop(mesh, w, ids, g))
        pair_ref = np.array([facet_integral_loop(mesh, k, f, g) for k in ids])
        assert close(facet_pairing(mesh, ids, f, g), pair_ref)

    if n_robin == 0:
        assert mat.count_nonzero() == 0 and mat.dtype == float and not np.any(rhs)


# ---- cell assembly: COO and np.add.at references ---------------------------

CELL_RTOL = 1e-14


def accumulate_coo(conn, local, n):
    """COO assembly, converted (summed and sorted) on every call."""
    k = local.shape[1]
    rows = np.repeat(conn, k, axis=1).ravel()
    cols = np.tile(conn, (1, k)).ravel()
    return sp.coo_matrix((local.ravel(), (rows, cols)), shape=(n, n)).tocsr()


def add_at(mesh, local):
    b = np.zeros(mesh.n_vertices)
    np.add.at(b, mesh.cells, local)
    return b


def stiffness_coo(mesh, w):
    geom = geometry(mesh)
    wbar = geom.at_quadrature(w) @ geom.qweights
    gg = np.einsum("cid,cjd->cij", geom.grads, geom.grads)
    return accumulate_coo(mesh.cells, gg * (wbar * geom.volumes)[:, None, None],
                          mesh.n_vertices)


def mass_coo(mesh, w):
    geom = geometry(mesh)
    bb = np.einsum("q,qi,qj->qij", geom.qweights, geom.qbary, geom.qbary)
    local = np.einsum("cq,qij->cij", geom.at_quadrature(w), bb) * geom.volumes[:, None, None]
    return accumulate_coo(mesh.cells, local, mesh.n_vertices)


def load_add_at(mesh, w_q):
    geom = geometry(mesh)
    local = np.einsum("cq,q,qi->ci", w_q, geom.qweights, geom.qbary)
    return add_at(mesh, local * geom.volumes[:, None])


def joule_direct_add_at(mesh, s, phi):
    geom = geometry(mesh)
    gphi2 = np.sum(geom.cell_gradient(phi) ** 2, axis=1)
    local = np.einsum("cq,q,qi->ci", s, geom.qweights, geom.qbary)
    return add_at(mesh, local * (gphi2 * geom.volumes)[:, None])


def joule_weak_add_at(mesh, s, phi, phi0):
    geom = geometry(mesh)
    diff = geom.at_quadrature(phi0 - phi)
    gphi, gphi0 = geom.cell_gradient(phi), geom.cell_gradient(phi0)
    coeff1 = ((s * diff) @ geom.qweights) * geom.volumes
    term1 = np.einsum("c,cd,cid->ci", coeff1, gphi, geom.grads)
    term2 = np.einsum("cq,q,qi->ci", s, geom.qweights, geom.qbary)
    term2 *= (np.sum(gphi * gphi0, axis=1) * geom.volumes)[:, None]
    return add_at(mesh, term1 + term2)


def flux_add_at(mesh, coeff_q, w):
    geom = geometry(mesh)
    cbar = (coeff_q @ geom.qweights) * geom.volumes
    return add_at(mesh, np.einsum("c,cd,cid->ci", cbar, geom.cell_gradient(w), geom.grads))


def dirichlet_triple_product(matrix, rhs, fixed, values):
    """Constrained rows and columns zeroed by D A D + (I - D), D = diag(keep)."""
    A = matrix.tocsr()
    rhs = rhs.copy()
    x = np.zeros(A.shape[0])
    x[fixed] = values
    rhs -= A @ x
    keep = np.ones(A.shape[0])
    keep[fixed] = 0.0
    dk = sp.diags(keep)
    A = (dk @ A @ dk + sp.diags(1.0 - keep)).tocsr()
    rhs[fixed] = values
    return A, rhs


def same_pattern(actual, expected):
    return (np.array_equal(actual.indptr, expected.indptr)
            and np.array_equal(actual.indices, expected.indices))


def cell_close(actual, expected):
    return np.max(np.abs(actual - expected)) <= CELL_RTOL * np.max(np.abs(expected))


BOXES = [([1.0, 1.0], [5, 4]), ([1.0, 2.0, 0.5], [3, 2, 3])]


def random_mesh_fields(extents, divisions, seed=11):
    mesh = build_rectangle_mesh(extents, divisions, dirichlet_on_planes("x=0"))
    rng = np.random.default_rng(seed)
    w, phi, phi0 = (rng.uniform(0.2, 2.0, mesh.n_vertices) for _ in range(3))
    return mesh, w, phi, phi0


@pytest.mark.parametrize("extents, divisions", BOXES)
def test_pattern_assembly_matches_coo_reference(extents, divisions):
    mesh, w, _, _ = random_mesh_fields(extents, divisions)
    w_q = geometry(mesh).at_quadrature(w)
    for actual, expected in [
            (assemble_weighted_stiffness(mesh, w_q), stiffness_coo(mesh, w)),
            (assemble_weighted_stiffness(mesh, 1.0), stiffness_coo(mesh, np.ones_like(w))),
            (assemble_mass(mesh, w_q), mass_coo(mesh, w)),
            (assemble_mass(mesh, 1.0), mass_coo(mesh, np.ones_like(w)))]:
        assert same_pattern(actual, expected)
        assert cell_close(actual.data, expected.data)
    # a scalar weight sums over q once for all cells, as each cell would
    assert np.array_equal(assemble_mass(mesh, 0.37).data,
                          assemble_mass(mesh, np.full_like(w_q, 0.37)).data)


@pytest.mark.parametrize("extents, divisions", BOXES)
def test_bincount_loads_match_add_at_reference(extents, divisions):
    mesh, w, phi, phi0 = random_mesh_fields(extents, divisions)
    geom = geometry(mesh)
    sigma = lambda u: 1.0 / (1.0 + np.asarray(u) ** 2)
    w_q = geom.at_quadrature(w)
    s = sigma(w_q)
    phi_f = Field(mesh, phi)
    phi0_f = Field(mesh, phi0)
    assert cell_close(load_vector(mesh, w_q), load_add_at(mesh, w_q))
    assert cell_close(assemble_joule_rhs_weak(mesh, s, phi_f, phi0_f),
                      joule_weak_add_at(mesh, s, phi, phi0))
    assert cell_close(geom.load(geom.fluxes(s, geom.cell_gradient(phi0))),
                      flux_add_at(mesh, s, phi0))


KERNEL_BOXES = [([1.0, 1.0], [32, 32]), ([1.0, 1.0, 1.0], [16, 16, 16]),
                ([1.0, 1.0, 1.0], [9, 3, 2])]


def joule_einsum(mesh, sigma_q, phi, phi0):
    """The weak Joule load from two cell gradients, a flux and a moment kernel."""
    geom = geometry(mesh)
    gphi = geom.cell_gradient(phi)
    dot = np.sum(gphi * geom.cell_gradient(phi0), axis=1)
    return geom.load(geom.fluxes(sigma_q * geom.at_quadrature(phi0 - phi), gphi)
                     + geom.moments(sigma_q * dot[:, None]))


@pytest.mark.parametrize("extents, divisions", KERNEL_BOXES)
def test_stiffness_map_matches_bincount_bit_for_bit(extents, divisions):
    mesh = build_rectangle_mesh(extents, divisions, dirichlet_on_planes("x=0"))
    geom = geometry(mesh)
    stiffness_map = geom.stiffness_map
    assert geom.stiffness_map is stiffness_map
    for array in (stiffness_map.data, stiffness_map.indices, stiffness_map.indptr):
        assert not array.flags.writeable
    rng = np.random.default_rng(3)
    for _ in range(3):
        w = rng.uniform(0.0, 3.0, mesh.n_cells)
        w[rng.random(mesh.n_cells) < 0.2] = 0.0
        expected = np.bincount(geom.scatter, minlength=geom.pattern[0].size,
                               weights=(geom.grad_products * w[:, None, None]).ravel())
        assert (stiffness_map @ w).tobytes() == expected.tobytes()


@pytest.mark.parametrize("extents, divisions", KERNEL_BOXES)
def test_jacobian_potential_block_matches_bincount_bit_for_bit(extents, divisions):
    # S = [sigma] K of the state Jacobian and of its transpose (the adjoint's)
    # against the bincount of the cell matrices through geom.data, both
    # eliminated on the boundary
    mesh = build_rectangle_mesh(extents, divisions, dirichlet_on_planes("x=0"))
    geom, n = geometry(mesh), mesh.n_vertices
    rng = np.random.default_rng(7)
    spec = ProblemSpec(mesh=mesh, model=TruncatedPower(1.0, 1.0, 2.0),
                       u0=Field(mesh, np.zeros(n)),
                       u1=Field(mesh, rng.uniform(0.0, 0.2, n)),
                       phi0=Field(mesh, rng.uniform(-1.0, 1.0, n)),
                       m_cap=2.0)
    beta = Control.constant(mesh, 1.0, 2.0)
    u = rng.uniform(-0.05, 0.5, n)
    state = StateSolution(Field(mesh, u),
                          Field(mesh, rng.uniform(-1.0, 1.0, n)),
                          1, 0.0, 0.0, 0, None)
    sigma_q = spec.model.sigma(np.maximum(geom.at_quadrature(u), 0.0))
    cells = geom.grad_products * (sigma_q @ geom.qweights)[:, None, None]
    for blocks, local in ((sensitivity_system(spec, beta, state, beta)[0], cells),
                          (adjoint_system(spec, beta, state)[0], cells.swapaxes(1, 2))):
        actual = blocks[1][1]
        expected = geom.eliminated(geom.data(local), geom.boundary_vertices)[0]
        for got, want in ((actual.indptr, expected.indptr), (actual.indices, expected.indices),
                          (actual.data, expected.data)):
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("extents, divisions", KERNEL_BOXES)
def test_joule_load_matches_einsum_reference(extents, divisions):
    mesh = build_rectangle_mesh(extents, divisions, dirichlet_on_planes("x=0"))
    rng = np.random.default_rng(5)
    phi, phi0 = (rng.uniform(-1.0, 2.0, mesh.n_vertices) for _ in range(2))
    sigma_q = rng.uniform(0.0, 2.0, geometry(mesh).at_quadrature(phi).shape)
    expected = joule_einsum(mesh, sigma_q, phi, phi0)
    actual = assemble_joule_rhs_weak(mesh, sigma_q, Field(mesh, phi),
                                     Field(mesh, phi0))
    assert np.max(np.abs(actual - expected)) <= CELL_RTOL * np.max(np.abs(expected))


@pytest.mark.parametrize("extents, divisions", BOXES)
def test_psi_identity_rhs_matches_add_at_reference(extents, divisions):
    # a |grad phi|^2 - 2 div((phi - phi0) a grad phi0) - 2 a grad phi . grad phi0
    # tested against every basis function, with a = a(v) at the quadrature points
    mesh, w, phi, phi0 = random_mesh_fields(extents, divisions)
    geom = geometry(mesh)
    model = TruncatedPower(1.0, 1.0, 2.0)
    zero = Field(mesh, np.zeros(mesh.n_vertices))
    spec = ProblemSpec(mesh=mesh, model=model, u0=zero, u1=zero,
                       phi0=Field(mesh, phi0), m_cap=2.0)
    state = StateSolution(Field(mesh, 0.4 * w),
                          Field(mesh, phi), 1, 0.0, 0.0, 0, None)
    ts = transform(state, spec)
    _, rhs, _ = _psi_sides(ts, spec)

    a_q = model.a(np.maximum(geom.at_quadrature(ts.v.values), 0.0))
    dot = np.sum(geom.cell_gradient(phi) * geom.cell_gradient(phi0), axis=1)
    expected = (joule_direct_add_at(mesh, a_q, phi)
                + 2.0 * flux_add_at(mesh, a_q * geom.at_quadrature(phi - phi0), phi0)
                - 2.0 * load_add_at(mesh, a_q * dot[:, None]))
    assert cell_close(rhs, expected)


# The psi identity and inequality checks that psi_checks replaced, verbatim:
# two passes, each with its own S psi, grad phi0 and phi - phi0 flux.
def psi_identity_defect(ts: TransformedState, spec: ProblemSpec) -> float:
    return assembly.relative_defect(*_psi_identity_sides(ts, spec),
                                    geometry(spec.mesh).boundary_vertices)


def psi_inequality_margin(ts: TransformedState, spec: ProblemSpec) -> float:
    geom = geometry(spec.mesh)
    lhs = ts.stiffness @ ts.psi.values
    gphi0 = geom.cell_gradient(spec.phi0.values)
    diff_q = geom.at_quadrature(ts.phi.values - spec.phi0.values)
    rhs = geom.load(geom.moments(ts.a_q * np.sum(gphi0 ** 2, axis=1)[:, None])
                    - 2.0 * geom.fluxes(ts.a_q * diff_q, gphi0))
    return float(np.min(np.delete(rhs - lhs, geom.boundary_vertices), initial=math.inf))


def _psi_identity_sides(ts: TransformedState, spec: ProblemSpec):
    geom = geometry(spec.mesh)
    # integral div(a grad psi) lambda_i, weakly
    lhs = -(ts.stiffness @ ts.psi.values)
    gphi, gphi0 = geom.cell_gradient(ts.phi.values), geom.cell_gradient(spec.phi0.values)
    source = np.sum(gphi * gphi, axis=1) - 2.0 * np.sum(gphi * gphi0, axis=1)
    diff_q = geom.at_quadrature(ts.phi.values - spec.phi0.values)
    rhs = geom.load(geom.moments(ts.a_q * source[:, None])
                    + 2.0 * geom.fluxes(ts.a_q * diff_q, gphi0))
    return lhs, rhs


@pytest.mark.parametrize("extents, divisions", BOXES + [([1.0, 1.0], [1, 1])])
def test_psi_checks_match_the_two_pass_reference_bit_for_bit(extents, divisions):
    # the 1 x 1 box has no interior vertex, so its margin is +inf
    mesh, w, phi, phi0 = random_mesh_fields(extents, divisions)
    model = TruncatedPower(1.0, 1.0, 2.0)
    zero = Field(mesh, np.zeros(mesh.n_vertices))
    spec = ProblemSpec(mesh=mesh, model=model, u0=zero, u1=zero,
                       phi0=Field(mesh, phi0), m_cap=2.0)
    ts = transform(StateSolution(Field(mesh, 0.4 * w), Field(mesh, phi), 1, 0.0, 0.0, 0,
                                 None), spec)
    defect, margin = psi_checks(ts, spec)
    assert bits(defect) == bits(psi_identity_defect(ts, spec))
    assert bits(margin) == bits(psi_inequality_margin(ts, spec))
    assert (margin == math.inf) == (divisions == [1, 1])


def assert_same_system(actual, expected):
    (A, b), (A_ref, b_ref) = actual, expected
    assert same_pattern(A, A_ref)
    assert np.array_equal(A.data, A_ref.data)
    assert np.array_equal(b, b_ref)


@pytest.mark.parametrize("extents, divisions", BOXES)
def test_masked_dirichlet_matches_triple_product(extents, divisions):
    mesh, w, _, _ = random_mesh_fields(extents, divisions)
    rng = np.random.default_rng(5)
    K = assemble_weighted_stiffness(mesh, geometry(mesh).at_quadrature(w))
    rhs = rng.standard_normal(mesh.n_vertices)
    fixed = mesh.boundary_vertex_set()
    free = geometry(mesh).free(fixed)
    values = rng.uniform(-1.0, 1.0, fixed.size)
    A = geometry(mesh).eliminated(K.data, fixed)[0].copy()
    A.eliminate_zeros()
    # the free block is the triple product's on the free rows and columns
    A_ref, rhs_ref = dirichlet_triple_product(K, rhs, fixed, values)
    assert_same_system((A, lift_dirichlet(K, rhs, fixed, values, free)),
                       (A_ref[free][:, free], rhs_ref[free]))


def test_masked_dirichlet_matches_triple_product_on_adjoint_block():
    mesh = build_rectangle_mesh([1.0, 1.0], [6, 5], dirichlet_on_planes("x=0"))
    model = TruncatedPower(1.0, 1.0, 2.0)
    spec = ProblemSpec(mesh=mesh, model=model,
                       u0=interpolate(mesh, lambda p: np.zeros(p.shape[0])),
                       u1=interpolate(mesh, lambda p: 0.05 + 0 * p[:, 0]),
                       phi0=interpolate(mesh, lambda p: 1.0 * p[:, 0]),
                       m_cap=2.0)
    beta = Control.constant(mesh, 1.0, 2.0)
    state = solve_state(spec, beta)
    blocks, rhs = adjoint_system(spec, beta, state)
    block = sp.bmat(blocks, format="csr")
    block.eliminate_zeros()
    # the whole 2n system: the same blocks with no row or column taken out
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(assembly.P1Geometry, "eliminated",
                      lambda self, data, fixed, fixed_cols=None: (self.csr(data), None))
        full = sp.bmat(adjoint_system(spec, beta, state)[0], format="csr")
    # p vanishes on Gamma_D and q on the whole boundary: the free block
    # system is the triple product's on the other rows and columns
    n = mesh.n_vertices
    fixed = np.concatenate([mesh.boundary_vertex_set(D), mesh.boundary_vertex_set() + n])
    free = np.setdiff1d(np.arange(2 * n), fixed)
    assert block.shape == (free.size,) * 2
    A_ref, rhs_ref = dirichlet_triple_product(
        full, np.r_[-assembly.load_vector(mesh), np.zeros(n)], fixed, 0.0)
    assert_same_system((block, rhs), (A_ref[free][:, free], rhs_ref[free]))


@pytest.mark.parametrize("extents, divisions", BOXES)
def test_state_jacobian_matches_residual_differences(extents, divisions):
    # the block of sensitivity_system against central differences of the weak
    # residual map that solve_state solves, at a random state well below u_star
    mesh = build_rectangle_mesh(extents, divisions, dirichlet_on_planes("x=0"))
    n = mesh.n_vertices
    rng = np.random.default_rng(3)
    model = TruncatedPower(1.0, 1.0, 2.0)
    spec = ProblemSpec(mesh=mesh, model=model,
                       u0=Field(mesh, np.zeros(n)),
                       u1=Field(mesh, rng.uniform(0.0, 0.2, n)),
                       phi0=Field(mesh, rng.uniform(-1.0, 1.0, n)),
                       m_cap=2.0)
    beta = Control.constant(mesh, 1.0, 2.0)
    beta = beta.with_values(rng.uniform(0.0, 2.0, beta.values.size))
    u, phi = rng.uniform(0.05, 0.5, n), rng.uniform(-1.0, 1.0, n)
    state = StateSolution(Field(mesh, u),
                          Field(mesh, phi), 1, 0.0, 0.0, 0, None)
    K = assemble_weighted_stiffness(mesh, 1.0)
    R, robin_load = assemble_robin(mesh, beta, spec.u1)

    def residual(u, phi):
        sigma_q = model.sigma(geometry(mesh).at_quadrature(u))
        joule = assemble_joule_rhs_weak(mesh, sigma_q, Field(mesh, phi),
                                        spec.phi0)
        return np.concatenate([(K + R) @ u - joule - robin_load,
                               assemble_weighted_stiffness(mesh, sigma_q) @ phi])

    # the free block agrees with the Jacobian on the free rows and columns:
    # directions zero on Gamma_D and on the boundary, compared off them
    block = sp.bmat(sensitivity_system(spec, beta, state, beta)[0], format="csr")
    free_u, free_phi = (geometry(mesh).free(f) for f in (mesh.boundary_vertex_set(D),
                                                          mesh.boundary_vertex_set()))
    du, dphi = np.zeros((2, n))
    du[free_u], dphi[free_phi] = rng.standard_normal(free_u.size), rng.standard_normal(free_phi.size)
    h = 1e-5
    fd = (residual(u + h * du, phi + h * dphi) - residual(u - h * du, phi - h * dphi)) / (2 * h)
    jv = block @ np.concatenate([du[free_u], dphi[free_phi]])
    for got, want in ((jv[:free_u.size], fd[:n][free_u]), (jv[free_u.size:], fd[n:][free_phi])):
        assert np.linalg.norm(got - want) <= 1e-8 * np.linalg.norm(got)


@pytest.mark.parametrize("extents, divisions", BOXES)
def test_factor_spd_matches_spsolve(extents, divisions):
    mesh, w, _, _ = random_mesh_fields(extents, divisions)
    rng = np.random.default_rng(9)
    geom, fixed = geometry(mesh), mesh.boundary_vertex_set(D)
    K = assemble_weighted_stiffness(mesh, geom.at_quadrature(w))
    A = geom.eliminated(K.data, fixed)[0]
    rhs = lift_dirichlet(K, rng.standard_normal(mesh.n_vertices), fixed, 0.5, geom.free(fixed))
    x = factor_spd(A).solve(rhs)
    ref = spla.spsolve(A.tocsc(), rhs)
    assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert np.array_equal(solve_direct(A, rhs), x)


def pcg_loop(matrix, rhs, x0, precond, pcg_rtol, max_iter, dirichlet_norm):
    """The preconditioned conjugate-gradient loop that scipy's cg replaced in
    solve_spd_pcg: (x, iterations), with x None when the cap stops it; it
    stops at pcg_rtol times the norm of (rhs, the Dirichlet values)."""
    x = np.array(x0, dtype=float)
    r = rhs - matrix @ x
    stop = pcg_rtol * math.hypot(np.linalg.norm(rhs), dirichlet_norm)
    p = np.zeros_like(x)
    rz = 1.0
    for iteration in range(max_iter + 1):
        if np.linalg.norm(r) <= stop:
            return x, iteration
        if iteration == max_iter:
            break
        z = precond.solve(r)
        rz, rz_prev = float(r @ z), rz
        p = z + (rz / rz_prev) * p
        q = matrix @ p
        alpha = rz / float(p @ q)
        x += alpha * p
        r -= alpha * q
    return None, max_iter


def potential_system(extents, divisions):
    """The free block of the potential matrix sigma(u) at the converged
    state of phi0 = x, beta = 1, its right side, the start phi0 off the
    boundary, K's inverse and the norm of phi0 on the boundary."""
    mesh = build_rectangle_mesh(extents, divisions, dirichlet_on_planes("x=0"))
    model = TruncatedPower(1.0, 1.0, 2.0)
    spec = ProblemSpec(mesh=mesh, model=model,
                       u0=interpolate(mesh, lambda p: np.zeros(p.shape[0])),
                       u1=interpolate(mesh, lambda p: 0.05 + 0 * p[:, 0]),
                       phi0=interpolate(mesh, lambda p: 1.0 * p[:, 0]),
                       m_cap=2.0)
    geom = geometry(mesh)
    u = solve_state(spec, Control.constant(mesh, 1.0, 2.0)).u.values
    fixed, free = geom.boundary_vertices, geom.free(geom.boundary_vertices)
    S = assemble_weighted_stiffness(mesh, model.sigma(geom.at_quadrature(u)))
    values = spec.phi0.values[fixed]
    rhs = lift_dirichlet(S, np.zeros(mesh.n_vertices), fixed, values, free)
    return (geom.eliminated(S.data, fixed)[0], rhs, spec.phi0.values[free],
            geom.potential_factor, np.linalg.norm(values))


@pytest.mark.parametrize("extents, divisions", [([1.0, 1.0], [32, 32]),
                                                ([1.0, 1.0, 1.0], [6, 6, 6])])
def test_solve_spd_pcg_matches_cg_loop_reference(extents, divisions):
    A, rhs, x0, precond, norm = potential_system(extents, divisions)
    expected, iterations = pcg_loop(A, rhs, x0, precond, 1e-13, 20, norm)
    assert expected is not None and iterations > 2
    x, actual_iterations, lu = solve_spd_pcg(A, rhs, x0, precond, 1e-13, 20,
                                             dirichlet_norm=norm)
    assert np.array_equal(x, expected)
    assert actual_iterations == iterations and lu is None


def test_solve_spd_pcg_matches_cg_loop_reference_at_the_cap():
    A, rhs, x0, precond, norm = potential_system([1.0, 1.0], [32, 32])
    assert pcg_loop(A, rhs, x0, precond, 1e-13, 2, norm) == (None, 2)
    x, iterations, lu = solve_spd_pcg(A, rhs, x0, precond, 1e-13, 2, dirichlet_norm=norm)
    assert iterations == 2 and lu is not None
    assert np.array_equal(x, factor_spd(A).solve(rhs))


def test_singular_spd_systems_raise_solver_failure():
    # pure-Neumann P1 Laplacian of a 2D mesh: the round-off pivot passes the
    # factorization, the residual check rejects the solve
    mesh = build_rectangle_mesh([1.0, 1.0], [4, 4], dirichlet_on_planes("x=0"))
    K = assemble_weighted_stiffness(mesh, 1.0)
    rhs = np.random.default_rng(2).standard_normal(mesh.n_vertices)
    with pytest.raises(SolverFailure):
        solve_direct(K, rhs)
    # pure-Neumann Laplacian of a uniform 1D mesh: an exactly zero pivot
    n = 6
    path = sp.diags([-np.ones(n - 1), np.r_[1.0, 2.0 * np.ones(n - 2), 1.0],
                     -np.ones(n - 1)], [-1, 0, 1], format="csr")
    with pytest.raises(SolverFailure, match="singular"):
        factor_spd(path)
    with pytest.raises(SolverFailure):
        solve_direct(path, np.ones(n))


def test_assembled_matrices_own_their_index_arrays():
    mesh, w, _, _ = random_mesh_fields([1.0, 1.0, 1.0], [2, 2, 2])
    w_q = geometry(mesh).at_quadrature(w)
    for assemble, reference in ((assemble_weighted_stiffness, stiffness_coo),
                                (assemble_mass, mass_coo)):
        first = assemble(mesh, w_q)
        first.data[::2] = 0.0
        first.eliminate_zeros()   # rewrites indices and indptr in place
        second = assemble(mesh, w_q)
        assert first.nnz < second.nnz
        assert not np.shares_memory(first.indices, second.indices)
        assert same_pattern(second, reference(mesh, w))
        assert cell_close(second.data, reference(mesh, w).data)


def write_vtk_loop(field, path, name):
    """The line-by-line VTK writer that write_vtk replaced."""
    mesh = field.mesh
    with open(path, "w") as fh:
        fh.write("# vtk DataFile Version 3.0\n")
        fh.write(f"{name}\n")
        fh.write("ASCII\n")
        fh.write("DATASET UNSTRUCTURED_GRID\n")
        fh.write(f"POINTS {mesh.n_vertices} double\n")
        for v in mesh.vertices:
            coords = list(v) + [0.0] * (3 - mesh.dim)
            fh.write(" ".join(repr(float(c)) for c in coords) + "\n")
        k = mesh.dim + 1
        fh.write(f"CELLS {mesh.n_cells} {mesh.n_cells * (k + 1)}\n")
        for c in mesh.cells:
            fh.write(f"{k} " + " ".join(str(int(i)) for i in c) + "\n")
        fh.write(f"CELL_TYPES {mesh.n_cells}\n")
        ctype = {2: 5, 3: 10}[mesh.dim]
        for _ in range(mesh.n_cells):
            fh.write(f"{ctype}\n")
        fh.write(f"POINT_DATA {mesh.n_vertices}\n")
        fh.write(f"SCALARS {name} double 1\n")
        fh.write("LOOKUP_TABLE default\n")
        for val in field.values:
            fh.write(repr(float(val)) + "\n")


@pytest.mark.parametrize("extents, divisions", BOXES)
def test_vtk_writer_matches_loop_reference(tmp_path, extents, divisions):
    mesh, w, _, _ = random_mesh_fields(extents, divisions)
    # values of every magnitude and sign, and exact zeros
    values = w * np.geomspace(1e-300, 1e300, mesh.n_vertices) * np.cos(np.arange(mesh.n_vertices))
    values[::7] = 0.0
    field = Field(mesh, values)
    write_vtk(field, str(tmp_path / "a.vtk"), "u")
    write_vtk_loop(field, str(tmp_path / "b.vtk"), "u")
    assert (tmp_path / "a.vtk").read_bytes() == (tmp_path / "b.vtk").read_bytes()


def test_vtk_writer_formats_each_mesh_once(tmp_path, monkeypatch):
    mesh, w, phi, _ = random_mesh_fields([1.0, 1.0], [5, 4])
    formatted = []

    class CountingCache(weakref.WeakKeyDictionary):
        def __setitem__(self, key, value):
            formatted.append(key)
            super().__setitem__(key, value)

    monkeypatch.setattr(reporting, "_VTK_MESH_CACHE", CountingCache())
    fields = (Field(mesh, w), Field(mesh, phi))
    for field, name in zip(fields, ("u", "phi")):
        write_vtk(field, str(tmp_path / f"{name}.vtk"), name)
        write_vtk_loop(field, str(tmp_path / f"{name}_loop.vtk"), name)
        assert ((tmp_path / f"{name}.vtk").read_bytes()
                == (tmp_path / f"{name}_loop.vtk").read_bytes())
    assert formatted == [mesh]


# The projected-gradient loop that optimize's one loop replaced, with its
# counting helper.
def _count(work: Counter, state=None, adjoint=None) -> None:
    """Count a state solve and an adjoint solve, with their work, in `work`."""
    if state is not None:
        work.update(state_solves=1, cg_iterations=state.cg_iterations,
                    factorizations=state.factorizations)
    if adjoint is not None:
        work.update(adjoint_solves=1, adjoint_iterations=adjoint.iterations)


def _optimize_projected_gradient(spec: ProblemSpec,
                                 opts: OptimizerOptions) -> OptimizeResult:
    beta = _initial_control(spec, opts)
    measures = geometry(spec.mesh).facet_measures[beta.facet_ids]
    work = Counter()
    state = solve_state(spec, beta, opts.solver)
    adjoint = solve_adjoint(spec, beta, state)
    _count(work, state, adjoint)
    j = objective(spec.mesh, state.u, beta)
    history = []
    previous = None   # (control, gradient) of the last accepted iterate
    status, converged = "max_outer exceeded; best-J iterate returned", False
    for it in range(1, opts.max_outer + 1):
        g, _, resid = stationarity(spec, state, adjoint, beta)
        entry = {"iteration": it, "J": j.total, "integral_u": j.integral_u,
                 "integral_beta_sq": j.integral_beta_sq,
                 "optimality_residual": resid, "step": 0.0, "initial_step": 0.0,
                 "trials": 0, "failed_trials": 0}
        history.append(entry)
        # stationary also when the projection blocks the full step
        full_step = np.clip(beta.values - g, 0.0, spec.m_cap)
        if resid <= opts.tol or np.array_equal(full_step, beta.values):
            status, converged = "converged", True
            break
        step = entry["initial_step"] = _spectral_step(measures, previous, beta.values, g)
        previous = (beta.values, g)
        accepted = False
        for _ in range(opts.max_backtracks):
            candidate = np.clip(beta.values - step * g, 0.0, spec.m_cap)
            if np.array_equal(candidate, beta.values):
                break  # the step no longer moves beta: the search is exhausted
            cand = beta.with_values(candidate)
            entry["trials"] += 1
            try:
                cstate = solve_state(spec, cand, opts.solver)
            except (NonconvergenceError, CriticalityError) as exc:
                # an unreachable trial is a rejected step; it made u's factor and refactors
                entry["failed_trials"] += 1
                work.update(state_solves=1,
                            cg_iterations=sum(h["cg_iterations"] for h in exc.history),
                            factorizations=1 + sum(h["refactored"] for h in exc.history))
                step *= 0.5
                continue
            _count(work, cstate)
            cj = objective(spec.mesh, cstate.u, cand)
            decrease = float(np.sum(measures * g * (candidate - beta.values)))
            if cj.total <= j.total + ARMIJO_C * decrease:
                beta, state, j = cand, cstate, cj
                adjoint = solve_adjoint(spec, beta, state)
                _count(work, adjoint=adjoint)
                entry["step"] = step
                accepted = True
                break
            step *= 0.5
        if not accepted:
            status = "line search exhausted; current iterate returned"
            break
    resid = stationarity(spec, state, adjoint, beta)[2]
    return OptimizeResult(beta, state, adjoint, history, resid, converged, status, **work)


def control_spec(n, drive):
    """A fresh mesh each call, so no run reuses another's cached K factor."""
    mesh = build_rectangle_mesh([1.0, 1.0], [n, n], dirichlet_on_planes("x=0"))
    return ProblemSpec(
        mesh=mesh, model=TruncatedPower(1.0, 1.0, 2.0),
        u0=interpolate(mesh, lambda p: np.zeros(p.shape[0])),
        u1=interpolate(mesh, lambda p: np.full(p.shape[0], 0.05)),
        phi0=interpolate(mesh, lambda p: drive * p[:, 0]),
        m_cap=2.0)


def bits(values):
    return np.asarray(values, dtype=float).tobytes()


def assert_same_history(result, expected):
    """Each history value both runs carry equal bit for bit, and the same end."""
    assert len(result.history) == len(expected.history)
    for got, want in zip(result.history, expected.history):
        assert set(want) <= set(got)
        assert all(bits(got[key]) == bits(want[key]) for key in want)
    assert (result.converged, result.status) == (expected.converged, expected.status)


def assert_same_iterate(result, expected):
    """The returned beta, u, phi and residual equal bit for bit."""
    for got, want in ((result.beta, expected.beta), (result.state.u, expected.state.u),
                      (result.state.phi, expected.state.phi)):
        assert bits(got.values) == bits(want.values)
    assert bits(result.optimality_residual) == bits(expected.optimality_residual)


def assert_same_run(result, expected):
    """Equal bit for bit in the returned iterate, the history and the work counts."""
    assert_same_iterate(result, expected)
    assert_same_history(result, expected)
    for count in ("state_solves", "adjoint_solves", "adjoint_iterations",
                  "cg_iterations", "factorizations"):
        assert getattr(result, count) == getattr(expected, count), count


@pytest.mark.parametrize("n, drive", [(8, 0.1), (16, 1.0), (12, 0.986464), (16, 2.0)])
def test_optimizer_loop_matches_its_loop_reference(n, drive):
    opts = OptimizerOptions()
    expected = _optimize_projected_gradient(control_spec(n, drive), opts)
    result = optimize(control_spec(n, drive), opts)
    assert result.converged
    assert_same_run(result, expected)


def test_projected_gradient_at_max_outer_matches_loop_reference():
    opts = OptimizerOptions(max_outer=3)
    expected = _optimize_projected_gradient(control_spec(16, 1.0), opts)
    assert not expected.converged
    assert_same_run(optimize(control_spec(16, 1.0), opts), expected)
