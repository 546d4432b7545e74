"""Array implementations against the per-facet, per-edge and per-cell loops
and the general sparse operations they replaced, kept here as references.

Mesh arrays and sparsity patterns must match exactly; facet sums are
accumulated in another order and must agree to 1e-13 relative, cell sums
to 1e-14 relative. The closed-form conductivity quantities must agree with
the adaptive quadrature and root bracketing they replaced to 1e-10 relative.
"""

import itertools

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.integrate import quad
from scipy.optimize import brentq

from thermopt.assembly import (
    apply_dirichlet,
    assemble_joule_rhs_direct,
    assemble_joule_rhs_weak,
    assemble_mass,
    assemble_robin,
    assemble_weighted_stiffness,
    boundary_l2,
    facet_mass,
    facet_pairing,
    factor_spd,
    geometry,
    interpolate,
    load_vector,
    solve_spd_pcg,
)
from thermopt.control import adjoint_system, sensitivity_system
from thermopt.errors import SolverFailure
from thermopt.fields import Control, Field, FieldKind
from thermopt.materials import TruncatedPower
from thermopt.mesh import (
    BoundaryTag,
    build_rectangle_mesh,
    dirichlet_on_planes,
    facet_measures,
    refine_uniform,
)
from thermopt.reporting import write_vtk
from thermopt.state import ProblemSpec, StateSolution, solve_state
from thermopt.transform import _flux_load, energy_inequality_report, transform

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


def boundary_l2_loop(field, tag):
    mesh = field.mesh
    total = 0.0
    for f in mesh.facet_indices(tag):
        tr = field.values[mesh.boundary_facets[f]]
        total += facet_measures(mesh)[f] * float(tr @ ref_mass(mesh) @ tr)
    return float(np.sqrt(max(total, 0.0)))


def energy_boundary_term_loop(ts, model, spec, beta):
    mesh = spec.mesh
    m0 = model.reciprocal_a_moment(ts.m_threshold)
    boundary_term = 0.0
    measures = facet_measures(mesh)
    for b, f in zip(beta.values, beta.facet_ids):
        verts = mesh.boundary_facets[f]
        if float(np.mean(ts.psi.values[verts])) <= ts.m_threshold:
            continue
        xi_trace = np.maximum(
            np.asarray(model.reciprocal_a_moment(ts.psi_m.values[verts])) - m0, 0.0)
        f_inv = np.asarray(model.F_inv(np.maximum(ts.v.values[verts], 0.0)))
        integrand = xi_trace * (f_inv - spec.u1.values[verts])
        boundary_term += b * measures[f] * float(np.mean(integrand))
    return boundary_term


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

    mat, rhs = assemble_robin(mesh, beta, Field(mesh, f, FieldKind.TEMPERATURE))
    mat_ref, rhs_ref = robin_loop(mesh, beta, f)
    assert close(mat.toarray(), mat_ref)
    assert close(rhs, rhs_ref)

    for tag in (D, R):
        ids = mesh.facet_indices(tag)
        w = rng.uniform(-1.0, 1.0, ids.size)
        assert close(facet_mass(mesh, w, ids) @ g, boundary_moments_loop(mesh, w, ids, g))
        pair_ref = np.array([facet_integral_loop(mesh, k, f, g) for k in ids])
        assert close(facet_pairing(mesh, ids, f, g), pair_ref)
        field = Field(mesh, f, FieldKind.TEMPERATURE)
        assert abs(boundary_l2(field, tag) - boundary_l2_loop(field, tag)) \
            <= RTOL * boundary_l2_loop(field, tag)

    if n_robin == 0:
        assert mat.nnz == 0 and not np.any(rhs)
        assert boundary_l2(Field(mesh, f, FieldKind.TEMPERATURE), R) == 0.0


@pytest.mark.parametrize("extents, divisions", [([1.0, 1.0], [8, 8]),
                                                ([1.0, 1.0, 1.0], [3, 3, 3])])
def test_energy_boundary_term_matches_loop_reference(extents, divisions):
    mesh = build_rectangle_mesh(extents, divisions, dirichlet_on_planes("x=0"))
    model = TruncatedPower(1.0, 1.0, 2.0)
    zero = lambda p: np.zeros(p.shape[0])
    spec = ProblemSpec(mesh=mesh, model=model,
                       u0=interpolate(mesh, zero, FieldKind.TEMPERATURE),
                       u1=interpolate(mesh, lambda p: 0.05 * p[:, 1], FieldKind.TEMPERATURE),
                       phi0=interpolate(mesh, lambda p: 2.0 * p[:, 0], FieldKind.POTENTIAL),
                       m_cap=2.0)
    rng = np.random.default_rng(3)
    beta = Control(mesh, rng.uniform(0.5, 2.0, mesh.facet_indices(R).size), 2.0)
    sol = solve_state(spec, beta)
    # a threshold inside the range of psi on the Robin part makes some facets active
    psi = transform(sol, model, spec.phi0, m_threshold=0.0).psi.values
    ts = transform(sol, model, spec.phi0,
                   m_threshold=float(np.median(psi[mesh.boundary_vertex_set(R)])))

    report = energy_inequality_report(ts, model, spec, beta)
    bulk = energy_inequality_report(ts, model, spec, Control.constant(mesh, 0.0, 2.0))
    term = energy_boundary_term_loop(ts, model, spec, beta)
    assert report["gamma_m_active"] and not bulk["gamma_m_active"]
    assert term != 0.0
    assert abs(report["lhs"] - (bulk["lhs"] + term)) <= RTOL * abs(report["lhs"])
    assert report["rhs"] == bulk["rhs"]


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


def load_add_at(mesh, w):
    geom = geometry(mesh)
    local = np.einsum("cq,q,qi->ci", geom.at_quadrature(w), geom.qweights, geom.qbary)
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
    for actual, expected in [
            (assemble_weighted_stiffness(mesh, w), stiffness_coo(mesh, w)),
            (assemble_weighted_stiffness(mesh, 1.0), stiffness_coo(mesh, np.ones_like(w))),
            (assemble_mass(mesh, w), mass_coo(mesh, w))]:
        assert same_pattern(actual, expected)
        assert cell_close(actual.data, expected.data)


@pytest.mark.parametrize("extents, divisions", BOXES)
def test_bincount_loads_match_add_at_reference(extents, divisions):
    mesh, w, phi, phi0 = random_mesh_fields(extents, divisions)
    geom = geometry(mesh)
    sigma = lambda u: 1.0 / (1.0 + np.asarray(u) ** 2)
    s = sigma(geom.at_quadrature(w))
    u_f = Field(mesh, w, FieldKind.TEMPERATURE)
    phi_f = Field(mesh, phi, FieldKind.POTENTIAL)
    phi0_f = Field(mesh, phi0, FieldKind.POTENTIAL)
    assert cell_close(load_vector(mesh, w), load_add_at(mesh, w))
    assert cell_close(assemble_joule_rhs_direct(mesh, sigma, u_f, phi_f),
                      joule_direct_add_at(mesh, s, phi))
    assert cell_close(assemble_joule_rhs_weak(mesh, s, phi_f, phi0_f),
                      joule_weak_add_at(mesh, s, phi, phi0))
    assert cell_close(_flux_load(mesh, s, phi0_f), flux_add_at(mesh, s, phi0))


def assert_same_system(actual, expected):
    (A, b), (A_ref, b_ref) = actual, expected
    assert same_pattern(A, A_ref)
    assert np.array_equal(A.data, A_ref.data)
    assert np.array_equal(b, b_ref)


@pytest.mark.parametrize("extents, divisions", BOXES)
def test_masked_dirichlet_matches_triple_product(extents, divisions):
    mesh, w, _, _ = random_mesh_fields(extents, divisions)
    rng = np.random.default_rng(5)
    K = assemble_weighted_stiffness(mesh, w)
    rhs = rng.standard_normal(mesh.n_vertices)
    fixed = mesh.boundary_vertex_set()
    values = rng.uniform(-1.0, 1.0, fixed.size)
    assert_same_system(apply_dirichlet(K, rhs, fixed, values),
                       dirichlet_triple_product(K, rhs, fixed, values))
    # a constrained vertex whose diagonal is not stored
    off = (K - sp.diags(K.diagonal())).tocsr()
    off.eliminate_zeros()
    assert_same_system(apply_dirichlet(off, rhs, fixed, values),
                       dirichlet_triple_product(off, rhs, fixed, values))


def test_masked_dirichlet_matches_triple_product_on_adjoint_block():
    mesh = build_rectangle_mesh([1.0, 1.0], [6, 5], dirichlet_on_planes("x=0"))
    model = TruncatedPower(1.0, 1.0, 2.0)
    spec = ProblemSpec(mesh=mesh, model=model,
                       u0=interpolate(mesh, lambda p: np.zeros(p.shape[0]),
                                      FieldKind.TEMPERATURE),
                       u1=interpolate(mesh, lambda p: 0.05 + 0 * p[:, 0],
                                      FieldKind.TEMPERATURE),
                       phi0=interpolate(mesh, lambda p: 1.0 * p[:, 0], FieldKind.POTENTIAL),
                       m_cap=2.0)
    beta = Control.constant(mesh, 1.0, 2.0)
    block, rhs, fixed = adjoint_system(spec, beta, solve_state(spec, beta))
    assert block.shape == (2 * mesh.n_vertices,) * 2
    assert_same_system(apply_dirichlet(block, rhs, fixed, 0.0),
                       dirichlet_triple_product(block, rhs, fixed, 0.0))


@pytest.mark.parametrize("extents, divisions", BOXES)
def test_state_jacobian_matches_residual_differences(extents, divisions):
    # the block of sensitivity_system against central differences of the weak
    # residual map that solve_state solves, at a random state well below u_star
    mesh = build_rectangle_mesh(extents, divisions, dirichlet_on_planes("x=0"))
    n = mesh.n_vertices
    rng = np.random.default_rng(3)
    model = TruncatedPower(1.0, 1.0, 2.0)
    spec = ProblemSpec(mesh=mesh, model=model,
                       u0=Field(mesh, np.zeros(n), FieldKind.TEMPERATURE),
                       u1=Field(mesh, rng.uniform(0.0, 0.2, n), FieldKind.TEMPERATURE),
                       phi0=Field(mesh, rng.uniform(-1.0, 1.0, n), FieldKind.POTENTIAL),
                       m_cap=2.0)
    beta = Control.constant(mesh, 1.0, 2.0)
    beta = beta.with_values(rng.uniform(0.0, 2.0, beta.values.size))
    u, phi = rng.uniform(0.05, 0.5, n), rng.uniform(-1.0, 1.0, n)
    state = StateSolution(Field(mesh, u, FieldKind.TEMPERATURE),
                          Field(mesh, phi, FieldKind.POTENTIAL), 1, 0.0, 0.0, 0, None)
    K = assemble_weighted_stiffness(mesh, 1.0)
    R, robin_load = assemble_robin(mesh, beta, spec.u1)

    def residual(u, phi):
        sigma_q = model.sigma(geometry(mesh).at_quadrature(u))
        joule = assemble_joule_rhs_weak(mesh, sigma_q, Field(mesh, phi, FieldKind.POTENTIAL),
                                        spec.phi0)
        return np.concatenate([(K + R) @ u - joule - robin_load,
                               assemble_weighted_stiffness(mesh, sigma_q) @ phi])

    block, _, _ = sensitivity_system(spec, beta, state, beta)
    du, dphi = rng.standard_normal((2, n))
    h = 1e-5
    fd = (residual(u + h * du, phi + h * dphi) - residual(u - h * du, phi - h * dphi)) / (2 * h)
    jv = block @ np.concatenate([du, dphi])
    for half in (slice(0, n), slice(n, 2 * n)):
        assert np.linalg.norm(jv[half] - fd[half]) <= 1e-8 * np.linalg.norm(jv[half])


@pytest.mark.parametrize("extents, divisions", BOXES)
def test_factor_spd_matches_spsolve(extents, divisions):
    mesh, w, _, _ = random_mesh_fields(extents, divisions)
    rng = np.random.default_rng(9)
    A, rhs = apply_dirichlet(assemble_weighted_stiffness(mesh, w),
                             rng.standard_normal(mesh.n_vertices),
                             mesh.boundary_vertex_set(D), 0.5)
    x = factor_spd(A).solve(rhs)
    ref = spla.spsolve(A.tocsc(), rhs)
    assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert np.array_equal(solve_direct(A, rhs), x)


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
    for assemble, reference in ((assemble_weighted_stiffness, stiffness_coo),
                                (assemble_mass, mass_coo)):
        first = assemble(mesh, w)
        first.data[::2] = 0.0
        first.eliminate_zeros()   # rewrites indices and indptr in place
        second = assemble(mesh, w)
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
    field = Field(mesh, values, FieldKind.TEMPERATURE)
    write_vtk(field, str(tmp_path / "a.vtk"), "u")
    write_vtk_loop(field, str(tmp_path / "b.vtk"), "u")
    assert (tmp_path / "a.vtk").read_bytes() == (tmp_path / "b.vtk").read_bytes()
