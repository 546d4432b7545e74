import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from thermopt import assembly
from thermopt.assembly import (
    assemble_joule_rhs_weak,
    assemble_mass,
    assemble_robin,
    assemble_weighted_stiffness,
    check_symmetric,
    facet_pairing,
    factor_spd,
    geometry,
    interpolate,
    lift_dirichlet,
    load_vector,
    norms,
    P1Geometry,
    solve_sparse,
    solve_spd_pcg,
)
from thermopt.errors import AssemblyError, SolverFailure
from thermopt.fields import Control, Field
from thermopt.mesh import (
    BoundaryTag,
    Mesh,
    build_rectangle_mesh,
    dirichlet_on_planes,
    read_mesh_file,
    refine_uniform,
    write_mesh_file,
)

LEFT = dirichlet_on_planes("x=0")
ALL = dirichlet_on_planes("x=0", "x=1", "y=0", "y=1")


def solve_direct(matrix, rhs):
    """solve_spd_pcg with an iteration cap of 0: factor and solve directly."""
    return solve_spd_pcg(matrix, rhs, np.zeros(rhs.size), None, 0.0, 0)[0]


def dirichlet_system(mesh, matrix, rhs, fixed, values):
    """The free block of a matrix on the cell pattern of geometry(mesh), off
    the vertices `fixed`, and its right side: `values` lifted onto `rhs`."""
    geom = geometry(mesh)
    return (geom.eliminated(matrix.data, fixed)[0],
            lift_dirichlet(matrix, rhs, fixed, values, geom.free(fixed)))


def dirichlet_solve(mesh, matrix, rhs, fixed, values):
    """The nodal solution: the free block's direct solve, `values` on `fixed`."""
    return geometry(mesh).extend(solve_direct(*dirichlet_system(mesh, matrix, rhs, fixed, values)),
                                 fixed, values)


def unit_square(n, rule=LEFT):
    return build_rectangle_mesh([1.0, 1.0], [n, n], rule)


def single_triangle():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    cells = np.array([[0, 1, 2]])
    facets = np.array([[0, 1], [1, 2], [2, 0]])
    tags = np.array([0, 1, 1], dtype=np.int8)
    return Mesh(2, verts, cells, facets, tags)


def field(mesh, values):
    return Field(mesh, np.asarray(values, dtype=float))


def joule_direct(mesh, sigma, u, phi):
    """Direct Joule load: sigma(u_h) |grad phi_h|^2 tested against lambda_i."""
    geom = geometry(mesh)
    gphi2 = np.sum(geom.cell_gradient(phi.values) ** 2, axis=1)
    return load_vector(mesh, sigma(geom.at_quadrature(u.values)) * gphi2[:, None])


def test_local_stiffness_reference_triangle():
    # hand integration of P1 gradients on (0,0),(1,0),(0,1)
    mesh = single_triangle()
    K = assemble_weighted_stiffness(mesh, 1.0).toarray()
    expect = np.array([[1.0, -0.5, -0.5], [-0.5, 0.5, 0.0], [-0.5, 0.0, 0.5]])
    assert np.allclose(K, expect, atol=1e-14)


def test_interior_row_sums_vanish():
    mesh = unit_square(2)
    K = assemble_weighted_stiffness(mesh, 1.0)
    rowsums = np.asarray(K.sum(axis=1)).ravel()
    boundary = set(mesh.boundary_vertex_set().tolist())
    for i in range(mesh.n_vertices):
        if i not in boundary:
            assert abs(rowsums[i]) < 1e-14


def test_constant_weight_scales_linearly():
    mesh = unit_square(2)
    K1 = assemble_weighted_stiffness(mesh, 1.0)
    K3 = assemble_weighted_stiffness(mesh, 3.0)
    assert abs(K3 - 3.0 * K1).max() < 1e-14 * abs(K3).max()


def test_negative_weight_rejected():
    mesh = unit_square(2)
    with pytest.raises(AssemblyError):
        assemble_weighted_stiffness(mesh, -1.0)


def test_nodal_weight_rejected():
    # weights are a scalar or values at the quadrature points, (nc, nq)
    mesh = unit_square(2)
    with pytest.raises(AssemblyError, match="shape"):
        load_vector(mesh, np.ones(mesh.n_vertices))


def test_stiffness_m_matrix_offdiagonals():
    # nonobtuse right-triangle mesh: off-diagonals nonpositive
    mesh = unit_square(4)
    K = assemble_weighted_stiffness(mesh, 1.0).tocoo()
    off = K.data[K.row != K.col]
    assert np.all(off <= 1e-14)


def test_robin_zero_and_linearity():
    mesh = unit_square(2)
    u1 = field(mesh, np.ones(mesh.n_vertices))
    z = Control.constant(mesh, 0.0, 2.0)
    mat, rhs = assemble_robin(mesh, z, u1)
    assert abs(mat).max() == 0.0 and np.all(rhs == 0)
    b1 = Control.constant(mesh, 1.0, 4.0)
    b2 = Control.constant(mesh, 2.0, 4.0)
    m1, r1 = assemble_robin(mesh, b1, u1)
    m2, r2 = assemble_robin(mesh, b2, u1)
    assert abs(m2 - 2.0 * m1).max() < 1e-15
    assert np.allclose(r2, 2.0 * r1, atol=1e-15)


def test_robin_edge_moments():
    # single unit edge with beta = b, u1 = c gives nodal loads (bc/2, bc/2)
    mesh = single_triangle()  # Robin facets: (1,2) length sqrt2 and (2,0) length 1
    b, c = 3.0, 2.0
    beta = Control.constant(mesh, b, 5.0)
    u1 = field(mesh, np.full(3, c))
    mat, rhs = assemble_robin(mesh, beta, u1)
    # vertex 0 receives only from unit edge (2,0): b*c/2
    assert rhs[0] == pytest.approx(b * c / 2)
    # edge mass row sums are |e|/2 each
    assert rhs[2] == pytest.approx(b * c / 2 * (1.0 + np.sqrt(2.0)))


def test_joule_direct_constant_phi_is_zero():
    mesh = unit_square(3)
    u = field(mesh, np.zeros(mesh.n_vertices))
    phi = field(mesh, np.full(mesh.n_vertices, 2.5))
    b = joule_direct(mesh, lambda s: np.ones_like(s), u, phi)
    assert np.all(b == 0)


def test_joule_direct_partition_of_unity():
    mesh = unit_square(3)
    u = field(mesh, np.zeros(mesh.n_vertices))
    phi = field(mesh, mesh.vertices[:, 0])
    b = joule_direct(mesh, lambda s: np.ones_like(s), u, phi)
    assert b.sum() == pytest.approx(1.0, rel=1e-14)
    assert np.all(b >= 0)


def test_joule_direct_quadratic_scaling():
    mesh = unit_square(3)
    u = field(mesh, mesh.vertices[:, 1])
    sigma = lambda s: 1.0 / (1.0 + s) ** 2
    phi1 = field(mesh, mesh.vertices[:, 0])
    phi2 = field(mesh, 3.0 * mesh.vertices[:, 0])
    b1 = joule_direct(mesh, sigma, u, phi1)
    b2 = joule_direct(mesh, sigma, u, phi2)
    assert np.allclose(b2, 9.0 * b1, rtol=1e-14)


def test_joule_weak_equals_direct_when_phi_is_phi0():
    mesh = unit_square(3)
    u = field(mesh, 0.3 * mesh.vertices[:, 1])
    phi0 = field(mesh, 0.5 * mesh.vertices[:, 0])
    sigma = lambda s: np.exp(-s)
    bw = assemble_joule_rhs_weak(mesh, sigma(geometry(mesh).at_quadrature(u.values)),
                                 phi0, phi0)
    bd = joule_direct(mesh, sigma, u, phi0)
    assert np.allclose(bw, bd, atol=1e-15)


def test_joule_weak_zero_for_constants():
    mesh = unit_square(2)
    u = field(mesh, np.zeros(mesh.n_vertices))
    phi = field(mesh, np.full(mesh.n_vertices, 1.0))
    phi0 = field(mesh, np.full(mesh.n_vertices, 2.0))
    bw = assemble_joule_rhs_weak(mesh, np.ones_like(geometry(mesh).at_quadrature(u.values)),
                                 phi, phi0)
    assert np.all(bw == 0)


def _solve_phi(mesh, phi0_vals):
    K = assemble_weighted_stiffness(mesh, 1.0)
    fixed = mesh.boundary_vertex_set()
    return dirichlet_solve(mesh, K, np.zeros(mesh.n_vertices), fixed, phi0_vals[fixed])


def test_weak_vs_direct_difference_decreases_under_refinement():
    # evaluated at the discrete potential solution; Riesz L2 norm of the gap
    mesh = unit_square(4)
    gaps = []
    for _ in range(3):
        phi0 = field(mesh, mesh.vertices[:, 0] ** 2)
        phi = field(mesh, _solve_phi(mesh, phi0.values))
        u = field(mesh, np.zeros(mesh.n_vertices))
        sigma = lambda s: np.ones_like(s)
        bw = assemble_joule_rhs_weak(mesh, sigma(geometry(mesh).at_quadrature(u.values)),
                                     phi, phi0)
        bd = joule_direct(mesh, sigma, u, phi)
        M = assemble_mass(mesh)
        r = solve_sparse(M.tocsr(), bw - bd)
        gaps.append(float(np.sqrt(r @ (M @ r))))
        mesh = refine_uniform(mesh)
    assert gaps[1] < gaps[0]
    assert gaps[2] < gaps[1]
    rate = np.log2(gaps[1] / gaps[2])
    assert rate > 0.8  # at least O(h)


def test_eliminated_full_constraint_identity():
    # every vertex fixed: a free block of no rows, whose solve is empty
    mesh = unit_square(2)
    K = assemble_weighted_stiffness(mesh, 1.0)
    fixed = np.arange(mesh.n_vertices)
    A, rhs = dirichlet_system(mesh, K, np.zeros(mesh.n_vertices), fixed, fixed.astype(float))
    assert A.shape == (0, 0) and rhs.shape == (0,)
    assert np.array_equal(dirichlet_solve(mesh, K, np.zeros(mesh.n_vertices), fixed,
                                          fixed.astype(float)), fixed.astype(float))


def test_p1_reproduces_linear_dirichlet_data():
    mesh = unit_square(4, ALL)
    x = _solve_phi(mesh, mesh.vertices[:, 0])
    assert np.allclose(x, mesh.vertices[:, 0], atol=1e-12)


def test_solve_spd_identity_returns_rhs():
    rhs = np.array([3.0, -1.0, 2.5])
    x = solve_direct(sp.identity(3, format="csr"), rhs)
    assert np.array_equal(x, rhs)


def test_solve_spd_against_dense_oracle():
    rng = np.random.default_rng(7)
    B = rng.standard_normal((50, 50))
    A = B @ B.T + 50.0 * np.eye(50)
    rhs = rng.standard_normal(50)
    oracle = np.linalg.solve(A, rhs)
    x = solve_direct(sp.csr_matrix(A), rhs)
    assert np.allclose(x, oracle, atol=1e-9)


def test_solve_spd_rejects_nonsymmetric():
    A = sp.csr_matrix(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(SolverFailure):
        solve_direct(A, np.ones(2))


def test_norms_constant_and_linear():
    mesh = unit_square(4)
    one = field(mesh, np.ones(mesh.n_vertices))
    n1 = norms(one)
    assert n1.l2 == pytest.approx(1.0, rel=1e-13)
    assert n1.h1_semi == pytest.approx(0.0, abs=1e-13)
    assert n1.linf == 1.0
    fx = field(mesh, mesh.vertices[:, 0])
    assert norms(fx).h1_semi == pytest.approx(1.0, rel=1e-13)


def test_assembled_matrices_symmetric():
    mesh = unit_square(3)
    w = geometry(mesh).at_quadrature(1.0 + mesh.vertices[:, 0])
    assert check_symmetric(assemble_weighted_stiffness(mesh, w))
    assert check_symmetric(assemble_mass(mesh, w))
    beta = Control.constant(mesh, 1.5, 2.0)
    mat, _ = assemble_robin(mesh, beta, field(mesh, np.ones(mesh.n_vertices)))
    assert check_symmetric(mat)


def test_mass_integrates_polynomials_exactly():
    mesh = unit_square(3)
    M = assemble_mass(mesh)
    x = mesh.vertices[:, 0]
    # integral of x^2 over unit square via quadratic-exact quadrature
    assert x @ (M @ x) == pytest.approx(1.0 / 3.0, rel=1e-13)
    assert load_vector(mesh).sum() == pytest.approx(1.0, rel=1e-13)


def test_3d_p1_reproduces_linear_dirichlet_data():
    rule = dirichlet_on_planes("x=0", "x=1", "y=0", "y=1", "z=0", "z=1")
    mesh = build_rectangle_mesh([1, 1, 1], [3, 3, 3], rule)
    K = assemble_weighted_stiffness(mesh, 1.0)
    target = mesh.vertices @ np.array([1.0, -2.0, 0.5])
    fixed = mesh.boundary_vertex_set()
    x = dirichlet_solve(mesh, K, np.zeros(mesh.n_vertices), fixed, target[fixed])
    assert np.allclose(x, target, atol=1e-11)


def test_3d_norms_and_load():
    rule = dirichlet_on_planes("z=0")
    mesh = build_rectangle_mesh([1, 1, 1], [2, 2, 2], rule)
    one = field(mesh, np.ones(mesh.n_vertices))
    assert norms(one).l2 == pytest.approx(1.0, rel=1e-12)
    assert load_vector(mesh).sum() == pytest.approx(1.0, rel=1e-12)
    fx = field(mesh, mesh.vertices[:, 0])
    assert norms(fx).h1_semi == pytest.approx(1.0, rel=1e-12)
    ids = mesh.facet_indices(BoundaryTag.DIRICHLET_TEMPERATURE)
    assert facet_pairing(mesh, ids, one.values, one.values).sum() == pytest.approx(1.0)


def test_geometry_cache_and_interpolate():
    mesh = unit_square(2)
    g1 = geometry(mesh)
    g2 = geometry(mesh)
    assert g1 is g2
    f = interpolate(mesh, lambda p: p[:, 0] * 2.0)
    assert np.allclose(f.values, 2.0 * mesh.vertices[:, 0])


def test_geometry_keeps_unit_stiffness_and_potential_factor():
    mesh = unit_square(4)
    geom = geometry(mesh)
    K = geom.stiffness
    assert geom.stiffness is K
    ref = assemble_weighted_stiffness(mesh, 1.0)
    assert np.array_equal(K.indptr, ref.indptr) and np.array_equal(K.indices, ref.indices)
    assert np.array_equal(K.data, ref.data)
    with pytest.raises(ValueError):
        K.data[0] = 0.0
    fixed = mesh.boundary_vertex_set()
    A, rhs = dirichlet_system(mesh, K, np.ones(mesh.n_vertices), fixed, 0.5)
    assert np.allclose(geom.potential_factor.solve(rhs), solve_direct(A, rhs), rtol=1e-13)


@pytest.mark.parametrize("extents, divisions, refined", [
    ([1.0, 0.7], [6, 5], False), ([1.0, 0.7], [6, 5], True), ([1.0, 1.0, 1.3], [3, 4, 2], False),
    ([1.0, 1.0, 1.3], [3, 4, 2], True)], ids=["6x5", "6x5-refined", "3x4x2", "3x4x2-refined"])
def test_potential_preconditioner_is_the_scaled_inverse_of_k(extents, divisions, refined):
    # P = D^-1/2 K^-1 D^-1/2, D = diag(S) / diag(K), on a box (K's grid inverse)
    # and on its refined child (K's factor), for a vector and a block
    mesh = build_rectangle_mesh(extents, divisions, LEFT)
    mesh = refine_uniform(mesh) if refined else mesh
    geom = geometry(mesh)
    rng = np.random.default_rng(8)
    sigma_q = rng.uniform(0.05, 3.0, (mesh.n_cells, geom.qweights.size))
    S = geom.eliminated(assembly.weighted_stiffness_data(mesh, sigma_q),
                        geom.boundary_vertices)[0]
    K = geom.eliminated(geom.stiffness.data, geom.boundary_vertices)[0]
    scale = np.sqrt(K.diagonal() / S.diagonal())
    P = geom.potential_preconditioner(S)
    assert isinstance(geom.potential_factor, assembly.GridPoisson) != refined
    for rhs in (rng.standard_normal(S.shape[0]), rng.standard_normal((S.shape[0], 3))):
        given = rhs.copy()
        diagonal = scale if rhs.ndim == 1 else scale[:, None]
        ref = diagonal * np.linalg.solve(K.toarray(), diagonal * rhs)
        x = P.solve(rhs)
        assert x.shape == rhs.shape and np.array_equal(rhs, given)
        assert np.max(np.abs(x - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_potential_preconditioner_rejects_a_nonpositive_diagonal():
    mesh = unit_square(4)
    geom = geometry(mesh)
    # sigma vanishes on every cell around the centre vertex 12, an unknown
    sigma_q = np.ones((mesh.n_cells, geom.qweights.size))
    sigma_q[np.any(mesh.cells == 12, axis=1)] = 0.0
    S = geom.eliminated(assembly.weighted_stiffness_data(mesh, sigma_q),
                        geom.boundary_vertices)[0]
    with pytest.raises(SolverFailure, match="nonpositive diagonal"):
        geom.potential_preconditioner(S)


@pytest.mark.parametrize("extents, divisions", [
    ([1.0, 1.0], [8, 8]), ([2.0, 0.5], [7, 5]), ([1.0, 1.0, 1.0], [5, 5, 5]),
    ([1.0, 2.0, 0.7], [4, 6, 3]), ([1.0, 1.0, 1.0], [16, 16, 16]),
    ([1.0, 1.0, 1.0], [1, 4, 4])])
def test_grid_inverse_matches_spsolve_of_the_eliminated_stiffness(extents, divisions):
    # isotropic and anisotropic boxes, and one with no interior vertex
    mesh = build_rectangle_mesh(extents, divisions, LEFT)
    geom = geometry(mesh)
    inverse = geom.potential_factor
    assert isinstance(inverse, assembly.GridPoisson)
    K = geom.eliminated(geom.stiffness.data, geom.boundary_vertices)[0].tocsc()
    rng = np.random.default_rng(12)
    m = K.shape[0]
    for rhs in (rng.standard_normal(m), rng.standard_normal((m, 3))):
        given = rhs.copy()
        x, ref = inverse.solve(rhs), spla.spsolve(K, rhs)
        assert x.shape == rhs.shape and np.array_equal(rhs, given)
        assert np.max(np.abs(x - ref), initial=0.0) <= 1e-12 * np.max(np.abs(ref), initial=0.0)


def _sine_inverse(divisions, extents, rhs):
    """K's inverse on the interior of a box by the closed-form sines
    S_k = sqrt(2 / N_k) sin(pi i j / N_k), on a vector or a block of its
    interior grid points in C order."""
    h = np.asarray(extents) / divisions
    j = [np.arange(1, n) for n in divisions]
    sines = [math.sqrt(2.0 / n) * np.sin(np.pi * np.outer(jk, jk) / n)
             for jk, n in zip(j, divisions)]
    eigenvalues = sum(np.ix_(*[np.prod(h) / hk ** 2 * (2.0 - 2.0 * np.cos(np.pi * jk / n))
                               for jk, n, hk in zip(j, divisions, h)]))

    def sine(y):
        shape = y.shape
        for axis, s in enumerate(sines, start=len(shape) - len(sines)):
            lead, rest = math.prod(shape[:axis]), math.prod(shape[axis + 1:])
            y = (y.reshape(lead, shape[axis]) @ s if rest == 1
                 else s @ y.reshape(lead, shape[axis], rest))
        return y.reshape(shape)

    grid = rhs.reshape(tuple(n - 1 for n in divisions) + rhs.shape[1:])
    if rhs.ndim == 2:
        grid = np.moveaxis(grid, -1, 0)
    x = sine(sine(grid) / eigenvalues)
    return (np.moveaxis(x, 0, -1) if rhs.ndim == 2 else x).reshape(rhs.shape)


@pytest.mark.parametrize("extents, divisions", [
    ([1.0, 1.0], [8, 8]), ([2.0, 0.5], [7, 5]), ([1.0, 1.0, 1.0], [5, 5, 5]),
    ([1.0, 2.0, 0.7], [4, 6, 3]), ([1.0, 1.0, 1.0], [16, 16, 16]),
    ([1.0, 1.0, 1.0], [1, 4, 4])])
def test_grid_inverse_with_dirichlet_ends_keeps_the_closed_form_sines(extents, divisions):
    # eigh of each all-Dirichlet axis's pencil diagonalizes it as the sines do
    rng = np.random.default_rng(4)
    m = math.prod(k - 1 for k in divisions)
    default = assembly.GridPoisson(tuple(divisions), tuple(extents))
    inverse = assembly.GridPoisson(tuple(divisions), tuple(extents), [(None, None)] * len(divisions))
    for rhs in (rng.standard_normal(m), rng.standard_normal((m, 3))):
        x, ref = inverse.solve(rhs), _sine_inverse(divisions, extents, rhs)
        assert np.array_equal(default.solve(rhs), x)
        assert np.max(np.abs(x - ref), initial=0.0) <= 1e-12 * np.max(np.abs(ref), initial=0.0)


@pytest.mark.parametrize("extents, divisions, planes, ends", [
    ([1.0, 1.0], [8, 8], ("x=0",), [(None, 0.0), (0.0, 0.0)]),
    ([1.0, 1.0], [8, 8], ("x=0", "x=1"), [(None, None), (0.0, 0.0)]),
    ([2.0, 0.7], [7, 5], ("x=0",), [(None, 0.0), (0.0, 0.0)]),
    ([1.0, 1.0], [6, 1], ("y=0",), [(0.0, 0.0), (None, 0.0)]),
    ([1.0, 1.0], [1, 6], ("x=0",), [(None, 0.0), (0.0, 0.0)]),
    ([1.0, 1.0], [6, 1], ("x=0", "y=0"), [(None, 0.0), (None, 0.0)])])
def test_grid_inverse_with_neumann_faces_inverts_k_in_2d(extents, divisions, planes, ends):
    # K eliminated on whole faces of a rectangle, Neumann on the others
    # (r = 0), including an axis of one division
    mesh = build_rectangle_mesh(extents, divisions, dirichlet_on_planes(*planes))
    geom = geometry(mesh)
    K = geom.eliminated(geom.stiffness.data,
                        mesh.boundary_vertex_set(BoundaryTag.DIRICHLET_TEMPERATURE))[0].tocsc()
    inverse = assembly.GridPoisson(tuple(divisions), tuple(extents), ends)
    rng = np.random.default_rng(13)
    m = K.shape[0]
    for rhs in (rng.standard_normal(m), rng.standard_normal((m, 2))):
        given = rhs.copy()
        x, ref = inverse.solve(rhs), spla.spsolve(K, rhs)
        assert x.shape == rhs.shape and np.array_equal(rhs, given)
        assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_only_box_meshes_carry_a_grid(tmp_path, monkeypatch):
    # a refined child and a mesh read from a file keep the box's geometry
    # but not its vertex and cell order, so they factor K and compute the
    # cofactors of every cell, where the box computes those of its first box
    periods, cofactors = [], assembly.edge_cofactors

    def counted(vertices, cells):
        periods.append(len(cells))
        return cofactors(vertices, cells)

    monkeypatch.setattr(assembly, "edge_cofactors", counted)
    for extents, divisions in (((2.0, 1.0), (4, 3)), ((1.0, 2.0, 0.5), (2, 3, 1))):
        mesh = build_rectangle_mesh(extents, divisions, LEFT)
        assert mesh.grid == (divisions, extents)
        periods.clear()
        geometry(mesh)
        assert periods == [math.factorial(mesh.dim)]
        path = tmp_path / "mesh.txt"
        write_mesh_file(mesh, str(path))
        for other in (refine_uniform(mesh), read_mesh_file(str(path))):
            assert other.grid is None
            periods.clear()
            geom = geometry(other)
            assert periods == [other.n_cells]
            factor = geom.potential_factor
            assert isinstance(factor, assembly.BandedCholesky | spla.SuperLU)
            K = geom.eliminated(geom.stiffness.data, geom.boundary_vertices)[0]
            rhs = np.linspace(-1.0, 1.0, K.shape[0])
            assembly.checked_solution(K, rhs, factor.solve(rhs))


def test_checked_solution_scales_by_the_dirichlet_norm():
    # a residual between SOLVE_RTOL ||rhs|| and SOLVE_RTOL d passes only with the
    # Dirichlet norm d; a larger one raises with it too
    geom = geometry(unit_square(8))
    A = geom.eliminated(geom.stiffness.data, geom.boundary_vertices)[0]
    rhs = np.linspace(-1.0, 1.0, A.shape[0])
    x = solve_direct(A, rhs)
    d = 1e4 * np.linalg.norm(rhs)
    ones = np.ones(A.shape[0])
    # a step of residual norm one: A step = ones / ||ones||
    step = solve_direct(A, ones) / np.linalg.norm(ones)
    r = assembly.SOLVE_RTOL * np.linalg.norm(rhs)
    assembly.checked_solution(A, rhs, x)
    assembly.checked_solution(A, rhs, x, d)
    with pytest.raises(SolverFailure, match="residual"):
        assembly.checked_solution(A, rhs, x + 10 * r * step)
    assembly.checked_solution(A, rhs, x + 10 * r * step, d)
    for norm in (0.0, d):
        with pytest.raises(SolverFailure, match="residual"):
            assembly.checked_solution(A, rhs, x + 1e5 * r * step, norm)


def test_solve_spd_pcg_converges_or_refactors():
    mesh = unit_square(8)
    fixed = mesh.boundary_vertex_set()
    w = 1.0 + mesh.vertices[:, 0] ** 2
    A, rhs = dirichlet_system(mesh, assemble_weighted_stiffness(mesh, geometry(mesh).at_quadrature(w)),
                              np.zeros(mesh.n_vertices), fixed, mesh.vertices[fixed, 1])
    x0 = np.zeros(A.shape[0])
    precond = geometry(mesh).potential_factor
    x, iterations, lu = solve_spd_pcg(A, rhs, x0, precond, 1e-13, 50)
    assert 0 < iterations < 50 and lu is None
    assert np.allclose(x, solve_direct(A, rhs), rtol=0, atol=1e-12)
    # converged start: no iteration
    assert solve_spd_pcg(A, rhs, x, precond, 1e-13, 50)[1] == 0
    # at the cap the matrix is factored and solved directly
    y, iterations, lu = solve_spd_pcg(A, rhs, x0, precond, 1e-13, 1)
    assert iterations == 1 and lu is not None
    assert np.array_equal(y, solve_direct(A, rhs))
    with pytest.raises(SolverFailure, match="symmetric"):
        solve_spd_pcg(sp.csr_matrix(np.array([[2.0, 1.0], [0.0, 2.0]])),
                      np.ones(2), np.zeros(2), precond, 1e-13, 5)


def test_geometry_cache_releases_its_mesh():
    gc.collect()
    before = len(assembly._GEOMETRY_CACHE)
    mesh = unit_square(3)
    assemble_weighted_stiffness(mesh, 1.0)
    geometry(mesh).potential_factor
    assert len(assembly._GEOMETRY_CACHE) == before + 1
    alive = weakref.ref(mesh)
    del mesh
    gc.collect()
    assert alive() is None
    assert len(assembly._GEOMETRY_CACHE) == before


FIXED_PATTERN_BOXES = [([1.0, 1.0], [32, 32]), ([1.0, 1.0, 1.0], [16, 16, 16]),
                       ([3.0, 1.0, 0.5], [9, 3, 2])]


def sliced(matrix, fixed, fixed_cols=None):
    """Reference free block: the rows off `fixed` and the columns off
    `fixed_cols` (default `fixed`) of the matrix, by scipy's indexing,
    which keeps stored zeros."""
    rows, cols = (np.setdiff1d(np.arange(matrix.shape[0]), f)
                  for f in (fixed, fixed if fixed_cols is None else fixed_cols))
    return matrix.tocsr()[rows][:, cols]


def apply_dirichlet(matrix, rhs, fixed, values):
    """Reference unit-row elimination on the full matrix: D A D + (I - D)
    with D = diag(keep), the fixed rows and columns zeroed but for a unit
    diagonal, stored zeros dropped, and the right side rhs - A x_D with
    `values` on the fixed rows. Its free rows and columns are the free
    block, and its solution the free solution extended by `values`."""
    keep = np.ones(matrix.shape[0])
    keep[fixed] = 0.0
    A = (sp.diags(keep) @ matrix @ sp.diags(keep) + sp.diags(1.0 - keep)).tocsr()
    A.eliminate_zeros()
    x_d = np.zeros(matrix.shape[0])
    x_d[fixed] = values
    b = rhs - matrix @ x_d
    b[fixed] = values
    return A, b


def same_csr(A, B):
    """A and B store the same entries in the same slots, bit for bit."""
    return (A.shape == B.shape and np.array_equal(A.indptr, B.indptr)
            and np.array_equal(A.indices, B.indices) and np.array_equal(A.data, B.data))


@pytest.mark.parametrize("extents, divisions", FIXED_PATTERN_BOXES)
def test_eliminated_matches_apply_dirichlet(extents, divisions):
    # the potential's set (the boundary) with a weighted stiffness and the
    # temperature's (Gamma_D) with the Robin term added, as the state solve
    # builds them: eliminated is the free block of the unit-row system and
    # keeps the stored zeros, as slicing does; apply_dirichlet drops them
    mesh = build_rectangle_mesh(extents, divisions, LEFT)
    geom = geometry(mesh)
    n = mesh.n_vertices
    rng = np.random.default_rng(11)
    S = assemble_weighted_stiffness(mesh, geom.at_quadrature(rng.uniform(0.5, 2.0, n)))
    n_robin = mesh.facet_indices(BoundaryTag.ROBIN_TEMPERATURE).size
    beta = Control(mesh, rng.uniform(0.1, 2.0, n_robin), 2.0)
    R, _ = assemble_robin(mesh, beta, field(mesh, rng.uniform(0.0, 0.2, n)))
    gamma_d = mesh.boundary_vertex_set(BoundaryTag.DIRICHLET_TEMPERATURE)
    rhs = rng.standard_normal(n)
    for data, reference, fixed in ((S.data, S, geom.boundary_vertices),
                                   (S.data + R.data, S + R, gamma_d)):
        values = rng.uniform(-1.0, 1.0, fixed.size)
        free = geom.free(fixed)
        assert np.array_equal(free, np.setdiff1d(np.arange(n), fixed))
        assert geom.free(fixed.copy()) is free   # kept per set
        A, transpose = geom.eliminated(data, fixed)
        assert geom.eliminated(data, fixed)[1] is transpose   # the kept slot map
        assert same_csr(A, sliced(geom.csr(data), fixed))
        A_unit, rhs_unit = apply_dirichlet(reference, rhs, fixed, values)
        assert same_csr(A_unit[fixed], sp.eye(n, format="csr")[fixed])
        A_ref, rhs_ref = A_unit[free][:, free], rhs_unit[free]
        stored = A.copy()
        stored.eliminate_zeros()
        assert same_csr(stored, A_ref)
        assert np.array_equal(lift_dirichlet(geom.csr(data), rhs, fixed, values, free), rhs_ref)
        # factor_spd drops the stored zeros: the same factor
        x = factor_spd(A).solve(rhs_ref)
        assert np.array_equal(x, factor_spd(A_ref).solve(rhs_ref))
        # extended by the values, the free solution solves the unit-row system
        full = geom.extend(x, fixed, values)
        ref = solve_direct(A_unit, rhs_unit)
        assert np.max(np.abs(full - ref)) <= 1e-10 * np.max(np.abs(ref))
        # the cached permutation is the transpose, also of nonsymmetric data
        assert np.array_equal(A.data[transpose], A.T.tocsr().data)
        skew = sp.csr_matrix((np.arange(A.nnz, dtype=float), A.indices, A.indptr), shape=A.shape)
        assert np.array_equal(skew.data[transpose], skew.T.tocsr().data)
        with pytest.raises(ValueError):
            A.indices[0] = 0
        with pytest.raises(ValueError):
            free[0] = 0


@pytest.mark.parametrize("extents, divisions", FIXED_PATTERN_BOXES)
def test_rectangular_and_square_free_blocks_equal_the_sliced_matrix(extents, divisions):
    # every block the state Jacobian takes, on nonsymmetric data: A and S
    # square, B (rows off Gamma_D, columns off the boundary) and C the reverse
    mesh = build_rectangle_mesh(extents, divisions, LEFT)
    geom = geometry(mesh)
    data = np.random.default_rng(14).standard_normal(geom.pattern[0].size)
    data[::7] = 0.0   # stored zeros stay
    full = geom.csr(data)
    gamma_d = mesh.boundary_vertex_set(BoundaryTag.DIRICHLET_TEMPERATURE)
    for fixed, fixed_cols in ((gamma_d, None), (geom.boundary_vertices, None),
                              (gamma_d, geom.boundary_vertices),
                              (geom.boundary_vertices, gamma_d)):
        block, transpose = geom.eliminated(data, fixed, fixed_cols)
        assert same_csr(block, sliced(full, fixed, fixed_cols))
        assert (transpose is None) == (fixed_cols is not None)


def test_eliminated_potential_is_bit_identical_to_apply_dirichlet():
    # the free block of the unit-row system, and the sliced matrix
    mesh = unit_square(32)
    geom = geometry(mesh)
    w = geom.at_quadrature(1.0 + mesh.vertices[:, 0] ** 2)
    S = assemble_weighted_stiffness(mesh, w)
    fixed = geom.boundary_vertices
    free = geom.free(fixed)
    A_ref = apply_dirichlet(S, np.zeros(mesh.n_vertices), fixed, 0.0)[0][free][:, free]
    sliced_ref = sliced(S, fixed)
    sliced_ref.eliminate_zeros()
    assert same_csr(A_ref, sliced_ref)
    A, _ = geom.eliminated(S.data, fixed)
    assert (A != A_ref).nnz == 0
    assert np.array_equal(factor_spd(A).solve(np.ones(A.shape[0])),
                          factor_spd(A_ref).solve(np.ones(A.shape[0])))


def eliminated_systems(divisions, refined=False):
    """The two matrices that the state solve factors, with random weights: a
    weighted stiffness eliminated on the whole boundary (the potential) and
    K + R eliminated on Gamma_D (the temperature), on the unit box or its
    refine_uniform child."""
    mesh = build_rectangle_mesh([1.0] * len(divisions), divisions, LEFT)
    mesh = refine_uniform(mesh) if refined else mesh
    geom = geometry(mesh)
    rng = np.random.default_rng(5)
    S = assemble_weighted_stiffness(mesh, geom.at_quadrature(rng.uniform(0.5, 2.0,
                                                                         mesh.n_vertices)))
    n_robin = mesh.facet_indices(BoundaryTag.ROBIN_TEMPERATURE).size
    R, _ = assemble_robin(mesh, Control(mesh, rng.uniform(0.1, 2.0, n_robin), 2.0),
                          field(mesh, np.zeros(mesh.n_vertices)))
    gamma_d = mesh.boundary_vertex_set(BoundaryTag.DIRICHLET_TEMPERATURE)
    return [geom.eliminated(S.data, geom.boundary_vertices)[0],
            geom.eliminated(geom.stiffness.data + R.data, gamma_d)[0]]


def half_bandwidth(matrix):
    """The largest i - j over the nonzero entries of the lower triangle."""
    lower = sp.tril(matrix, format="coo")
    return int((lower.row - lower.col)[lower.data != 0].max(initial=0))


def band_height(width):
    """The rows of a factor's band storage: width + 1, and one more where
    that is a power of two."""
    return width + 1 + ((width + 1) & width == 0)


def band_matrix(n, width, diagonal=4.0):
    """diagonal I - E - E^T, E the ones at offset `width` below the diagonal."""
    return sp.diags([diagonal, -1.0, -1.0], [0, -width, width], shape=(n, n), format="csr")


@pytest.mark.parametrize("divisions", [[4, 4], [16, 16], [32, 32], [3, 3, 3], [8, 8, 8],
                                       [16, 16, 16]])
def test_banded_factor_matches_superlu(monkeypatch, divisions):
    # vector and (n, 3) block right sides: the Poincare estimate's LOBPCG
    # preconditions blocks; the 3D boxes from 8^3 on band above the cap
    rng = np.random.default_rng(6)
    for A in eliminated_systems(divisions):
        data = A.data.copy()
        banded = factor_spd(A)
        with monkeypatch.context() as patch:
            patch.setattr(assembly, "BANDED_MAX_HALF_WIDTH", -1)
            lu = factor_spd(A)
        assert isinstance(banded, assembly.BandedCholesky) and isinstance(lu, spla.SuperLU)
        assert banded.band.shape == (band_height(half_bandwidth(A)), A.shape[0])
        for rhs in (rng.standard_normal(A.shape[0]), rng.standard_normal((A.shape[0], 3))):
            given = rhs.copy()
            x, ref = banded.solve(rhs), lu.solve(rhs)
            assert x.shape == rhs.shape and np.array_equal(rhs, given)
            assert np.array_equal(banded.solve(rhs), x)
            for column, b in zip(x.reshape(A.shape[0], -1).T, rhs.reshape(A.shape[0], -1).T):
                assembly.checked_solution(A, b, column)
            assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert np.array_equal(A.data, data)
        with pytest.raises(ValueError):   # dpbtrs itself would solve the first n rows
            banded.solve(np.ones(A.shape[0] + 1))


def test_factor_spd_takes_the_banded_path_up_to_the_cap(monkeypatch):
    """Counted, not timed: half-bandwidth at the cap factors by dpbtrf, and
    stored zeros do not widen the band; above the cap the m rows of
    half-bandwidth b are banded while m <= cap b and b^2 <= cap m, else
    factored by splu with the MMD ordering."""
    calls = []
    splu, dpbtrf = spla.splu, assembly.lapack.dpbtrf

    def counting_splu(*args, **kwargs):
        calls.append(kwargs.get("permc_spec"))
        return splu(*args, **kwargs)

    def counting_dpbtrf(*args, **kwargs):
        calls.append("dpbtrf")
        return dpbtrf(*args, **kwargs)

    monkeypatch.setattr(spla, "splu", counting_splu)
    monkeypatch.setattr(assembly.lapack, "dpbtrf", counting_dpbtrf)
    cap = assembly.BANDED_MAX_HALF_WIDTH
    n = 3 * cap
    at_cap = band_matrix(n, cap)
    coo = at_cap.tocoo()
    padded = sp.csr_matrix((np.r_[coo.data, 0.0, 0.0], (np.r_[coo.row, n - 1, 0],
                                                        np.r_[coo.col, 0, n - 1])))
    assert padded.nnz == at_cap.nnz + 2
    rhs = np.arange(n, dtype=float)
    x = factor_spd(at_cap).solve(rhs)
    assert calls == ["dpbtrf"]
    assert np.array_equal(factor_spd(padded).solve(rhs), x)
    assert calls == ["dpbtrf"] * 2
    above = band_matrix(n, cap + 1)
    y = factor_spd(above).solve(rhs)
    assert calls == ["dpbtrf"] * 3
    assembly.checked_solution(at_cap, rhs, x)
    assembly.checked_solution(above, rhs, y)
    long = band_matrix(cap * (cap + 1) + 1, cap + 1)   # m = cap b + 1
    order = np.random.default_rng(3).permutation(n)
    shuffled = above[order][:, order]
    assert half_bandwidth(shuffled) ** 2 > cap * n
    for A in (long, shuffled):
        calls.clear()
        b = np.arange(A.shape[0], dtype=float)
        assembly.checked_solution(A, b, factor_spd(A).solve(b))
        assert calls == ["MMD_AT_PLUS_A"]


def test_banded_factor_of_an_indefinite_or_singular_matrix_raises():
    n = 12
    diagonal = np.full(n, 4.0)
    diagonal[5] = -4.0
    # pure-Neumann Laplacian of a uniform 1D mesh: an exactly zero last pivot
    path = sp.diags([-np.ones(n - 1), np.r_[1.0, 2.0 * np.ones(n - 2), 1.0],
                     -np.ones(n - 1)], [-1, 0, 1], format="csr")
    zero_row = sp.diags([np.r_[1.0, 0.0, 1.0]], [0], format="csr")
    for A in (band_matrix(n, 3, diagonal), path, zero_row):
        assert half_bandwidth(A) <= assembly.BANDED_MAX_HALF_WIDTH
        with pytest.raises(SolverFailure, match="singular or not positive definite"):
            factor_spd(A)


def test_band_storage_is_never_a_power_of_two_high(monkeypatch):
    # dpbtrs is slow at heights 16, 32 and 64, so such a band stores one
    # more diagonal; it stays zero in the factor, and the solves are SuperLU's
    rng = np.random.default_rng(9)
    for width, height in ((31, 33), (30, 31), (63, 65), (15, 17), (1, 3)):
        A = band_matrix(961, width)
        factor = factor_spd(A)
        assert isinstance(factor, assembly.BandedCholesky)
        assert factor.band.shape == (height, 961) == (band_height(width), 961)
        if height > width + 1:
            assert not factor.band[-1].any()
        with monkeypatch.context() as patch:
            patch.setattr(assembly, "BANDED_MAX_HALF_WIDTH", -1)
            lu = factor_spd(A)
        assert isinstance(lu, spla.SuperLU)
        for rhs in (rng.standard_normal(961), rng.standard_normal((961, 2))):
            x, ref = factor.solve(rhs), lu.solve(rhs)
            assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_a_thin_box_bands_below_the_cap():
    # 256 x 4: b <= cap bands, although m > cap b, which keeps a band above
    # the cap off it
    cap = assembly.BANDED_MAX_HALF_WIDTH
    for A in eliminated_systems([256, 4]):
        assert half_bandwidth(A) <= cap and A.shape[0] > cap * half_bandwidth(A)
        assert isinstance(factor_spd(A), assembly.BandedCholesky)


def test_zero_size_free_blocks_factor_and_solve():
    # a free block of no rows, as on a 1 x n box, factors, solves and CGs
    A = sp.csr_matrix((0, 0))
    factor = factor_spd(A)
    assert factor.solve(np.zeros(0)).shape == (0,)
    assert factor.solve(np.zeros((0, 3))).shape == (0, 3)
    x, iterations, lu = solve_spd_pcg(A, np.zeros(0), np.zeros(0), factor, 1e-13, 20,
                                      np.zeros(0, dtype=int), 1.0)
    assert x.shape == (0,) and iterations == 0 and lu is None
    inverse = assembly.GridPoisson((1, 4), (1.0, 1.0))
    assert inverse.shape == (0, 3) and inverse.solve(np.zeros((0, 2))).shape == (0, 2)


@pytest.mark.parametrize("divisions, refined", [([96, 96], False), ([16, 16], True),
                                                ([32, 32], True), ([4, 4, 4], True),
                                                ([8, 8, 8], True)])
def test_long_and_refined_meshes_stay_on_superlu(divisions, refined):
    # 96^2: m / b = 95 > cap; refine_uniform children: b about m, so b^2 > cap m
    for A in eliminated_systems(divisions, refined):
        assert isinstance(factor_spd(A), spla.SuperLU)


@pytest.mark.parametrize("n", [32, 64])
def test_2d_box_bands_are_the_cholesky_of_their_coupled_block(n):
    # both free blocks, the rows coupled to one another, band in their own order: at 32^2 the potential's
    # b = 31 and the temperature's b = 33, at 64^2 b = 63 and 65, the first
    # of each stored with a padded diagonal
    for A, width in zip(eliminated_systems([n, n]), (n - 1, n + 1)):
        factor = factor_spd(A)
        assert isinstance(factor, assembly.BandedCholesky) and half_bandwidth(A) == width
        lower = sp.tril(A, format="coo")
        band = np.zeros((band_height(width), A.shape[0]))
        band[lower.row - lower.col, lower.col] = lower.data
        assert np.array_equal(factor.band, assembly.lapack.dpbtrf(band, lower=1)[0])


def test_asymmetric_datum_on_cached_pattern_raises():
    mesh = unit_square(8)
    geom = geometry(mesh)
    fixed = geom.boundary_vertices
    S = assemble_weighted_stiffness(mesh, geom.at_quadrature(1.0 + mesh.vertices[:, 1]))
    A, transpose = geom.eliminated(S.data, fixed)
    rhs = lift_dirichlet(S, np.zeros(mesh.n_vertices), fixed, 1.0, geom.free(fixed))
    x0 = np.zeros(A.shape[0])
    x, _, _ = solve_spd_pcg(A, rhs, x0, geom.potential_factor, 1e-13, 50, transpose=transpose)
    assert np.allclose(x, 1.0)   # the discrete harmonic extension of 1
    rows = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))
    off = np.flatnonzero((rows != A.indices) & (A.data != 0))[0]
    A.data[off] *= 1.0 + 1e-9
    assert not check_symmetric(A, transpose=transpose)
    with pytest.raises(SolverFailure, match="symmetric"):
        solve_spd_pcg(A, rhs, x0, geom.potential_factor, 1e-13, 50, transpose=transpose)


def reference_index_maps(mesh):
    """The index maps as the sorted unique int64 coupling keys row * n + col
    give them: pattern (indices, indptr), scatter, facet_slots and the
    stiffness map, built from COO."""
    n, k = mesh.n_vertices, mesh.dim + 1
    rows = np.repeat(mesh.cells, k, axis=1).ravel()
    cols = np.tile(mesh.cells, (1, k)).ravel()
    keys, scatter = np.unique(rows * n + cols, return_inverse=True)
    pattern = sp.csr_matrix((np.zeros(keys.size), keys % n,
                             np.searchsorted(keys, np.arange(n + 1) * n)), shape=(n, n))
    f, d = mesh.boundary_facets, mesh.dim
    facet_slots = np.searchsorted(
        keys, np.repeat(f, d, axis=1) * n + np.tile(f, (1, d))).reshape(-1, d, d)
    cell_of_entry = np.arange(scatter.size) // k ** 2
    stiffness_map = sp.csr_matrix((geometry(mesh).grad_products.ravel(), (scatter, cell_of_entry)),
                                  shape=(keys.size, mesh.n_cells))
    return (pattern.indices, pattern.indptr), scatter, facet_slots, stiffness_map


def permuted_mesh_file(tmp_path):
    """A 3 x 2 x 2 box read back from a mesh file whose cell rows are permuted."""
    mesh = build_rectangle_mesh([1.0, 1.0, 1.0], [3, 2, 2], LEFT)
    path = tmp_path / "box.mesh"
    write_mesh_file(mesh, str(path))
    lines = path.read_text().splitlines(keepends=True)
    start = lines.index(f"CELLS {mesh.n_cells}\n") + 1
    order = np.random.default_rng(5).permutation(mesh.n_cells)
    lines[start:start + mesh.n_cells] = [lines[start + i] for i in order]
    path.write_text("".join(lines))
    permuted = read_mesh_file(str(path))
    assert np.array_equal(permuted.cells, mesh.cells[order])
    return permuted


INDEX_MAP_MESHES = {
    "2d-32x32": lambda tmp: unit_square(32),
    "2d-5x3": lambda tmp: build_rectangle_mesh([2.0, 0.5], [5, 3], ALL),
    "3d-5x7x3": lambda tmp: build_rectangle_mesh([1.0, 2.0, 0.5], [5, 7, 3], LEFT),
    "3d-16": lambda tmp: build_rectangle_mesh([1.0, 1.0, 1.0], [16, 16, 16], LEFT),
    "2d-refined": lambda tmp: refine_uniform(unit_square(5)),
    "3d-refined": lambda tmp: refine_uniform(build_rectangle_mesh([1.0, 1.0, 1.0], [2, 3, 2], LEFT)),
    "3d-file-permuted": permuted_mesh_file,
}


@pytest.mark.parametrize("name", INDEX_MAP_MESHES)
def test_index_maps_equal_the_unique_key_reference(tmp_path, name):
    mesh = INDEX_MAP_MESHES[name](tmp_path)
    geom = geometry(mesh)
    pattern, scatter, facet_slots, stiffness_map = reference_index_maps(mesh)
    for got, want in zip(geom.pattern, pattern):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert np.array_equal(geom.scatter, scatter)
    assert np.array_equal(geom.facet_slots, facet_slots)
    assert geom.scatter.dtype == geom.facet_slots.dtype == geom.pattern[0].dtype
    for attr in ("data", "indices", "indptr"):
        got, want = getattr(geom.stiffness_map, attr), getattr(stiffness_map, attr)
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_index_map_memory_on_a_16_cube():
    # traced peaks of the 16^3 build: 15.2 MB for the geometry and 5.1 MB for
    # the stiffness map, against 33.8 and 11.3 MB for the unique-key builds
    mesh = build_rectangle_mesh([1.0, 1.0, 1.0], [16, 16, 16], LEFT)
    P1Geometry(build_rectangle_mesh([1.0, 1.0, 1.0], [2, 2, 2], LEFT)).stiffness_map
    tracemalloc.start()
    try:
        geom = P1Geometry(mesh)
        geometry_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        geom.stiffness_map
        map_peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert geometry_peak < 19e6
    assert map_peak < 6.5e6


@pytest.mark.parametrize("extents, divisions", FIXED_PATTERN_BOXES[:2])
def test_grad_products_equal_einsum(extents, divisions):
    geom = geometry(build_rectangle_mesh(extents, divisions, LEFT))
    expected = (np.einsum("cid,cjd->cij", geom.grads, geom.grads)
                * geom.volumes[:, None, None])
    assert np.array_equal(geom.grad_products, expected)


def test_norms_are_python_floats():
    mesh = unit_square(4)
    for value in norms(field(mesh, mesh.vertices[:, 0] ** 2)):
        assert type(value) is float
