import gc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

from thermopt import assembly
from thermopt.assembly import (
    apply_dirichlet,
    assemble_joule_rhs_direct,
    assemble_joule_rhs_weak,
    assemble_mass,
    assemble_robin,
    assemble_weighted_stiffness,
    boundary_l2,
    check_symmetric,
    geometry,
    interpolate,
    load_vector,
    norms,
    solve_sparse,
    solve_spd_pcg,
)
from thermopt.errors import AssemblyError, SolverFailure
from thermopt.fields import Control, Field, FieldKind
from thermopt.mesh import (
    BoundaryTag,
    Mesh,
    build_rectangle_mesh,
    dirichlet_on_planes,
    refine_uniform,
)

LEFT = dirichlet_on_planes("x=0")
ALL = dirichlet_on_planes("x=0", "x=1", "y=0", "y=1")


def solve_direct(matrix, rhs):
    """solve_spd_pcg with an iteration cap of 0: factor and solve directly."""
    return solve_spd_pcg(matrix, rhs, np.zeros(rhs.size), None, 0.0, 0)[0]


def unit_square(n, rule=LEFT):
    return build_rectangle_mesh([1.0, 1.0], [n, n], rule)


def single_triangle():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    cells = np.array([[0, 1, 2]])
    facets = np.array([[0, 1], [1, 2], [2, 0]])
    tags = np.array([0, 1, 1], dtype=np.int8)
    return Mesh(2, verts, cells, facets, tags)


def field(mesh, values, kind=FieldKind.TEMPERATURE):
    return Field(mesh, np.asarray(values, dtype=float), kind)


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
    phi = field(mesh, np.full(mesh.n_vertices, 2.5), FieldKind.POTENTIAL)
    b = assemble_joule_rhs_direct(mesh, lambda s: np.ones_like(s), u, phi)
    assert np.all(b == 0)


def test_joule_direct_partition_of_unity():
    mesh = unit_square(3)
    u = field(mesh, np.zeros(mesh.n_vertices))
    phi = field(mesh, mesh.vertices[:, 0], FieldKind.POTENTIAL)
    b = assemble_joule_rhs_direct(mesh, lambda s: np.ones_like(s), u, phi)
    assert b.sum() == pytest.approx(1.0, rel=1e-14)
    assert np.all(b >= 0)


def test_joule_direct_quadratic_scaling():
    mesh = unit_square(3)
    u = field(mesh, mesh.vertices[:, 1])
    sigma = lambda s: 1.0 / (1.0 + s) ** 2
    phi1 = field(mesh, mesh.vertices[:, 0], FieldKind.POTENTIAL)
    phi2 = field(mesh, 3.0 * mesh.vertices[:, 0], FieldKind.POTENTIAL)
    b1 = assemble_joule_rhs_direct(mesh, sigma, u, phi1)
    b2 = assemble_joule_rhs_direct(mesh, sigma, u, phi2)
    assert np.allclose(b2, 9.0 * b1, rtol=1e-14)


def test_joule_weak_equals_direct_when_phi_is_phi0():
    mesh = unit_square(3)
    u = field(mesh, 0.3 * mesh.vertices[:, 1])
    phi0 = field(mesh, 0.5 * mesh.vertices[:, 0], FieldKind.POTENTIAL)
    sigma = lambda s: np.exp(-s)
    bw = assemble_joule_rhs_weak(mesh, sigma(geometry(mesh).at_quadrature(u.values)),
                                 phi0, phi0)
    bd = assemble_joule_rhs_direct(mesh, sigma, u, phi0)
    assert np.allclose(bw, bd, atol=1e-15)


def test_joule_weak_zero_for_constants():
    mesh = unit_square(2)
    u = field(mesh, np.zeros(mesh.n_vertices))
    phi = field(mesh, np.full(mesh.n_vertices, 1.0), FieldKind.POTENTIAL)
    phi0 = field(mesh, np.full(mesh.n_vertices, 2.0), FieldKind.POTENTIAL)
    bw = assemble_joule_rhs_weak(mesh, np.ones_like(geometry(mesh).at_quadrature(u.values)),
                                 phi, phi0)
    assert np.all(bw == 0)


def _solve_phi(mesh, phi0_vals):
    K = assemble_weighted_stiffness(mesh, 1.0)
    fixed = mesh.boundary_vertex_set()
    return solve_direct(*apply_dirichlet(K, np.zeros(mesh.n_vertices), fixed, phi0_vals[fixed]))


def test_weak_vs_direct_difference_decreases_under_refinement():
    # evaluated at the discrete potential solution; Riesz L2 norm of the gap
    mesh = unit_square(4)
    gaps = []
    for _ in range(3):
        phi0 = field(mesh, mesh.vertices[:, 0] ** 2, FieldKind.POTENTIAL)
        phi = field(mesh, _solve_phi(mesh, phi0.values), FieldKind.POTENTIAL)
        u = field(mesh, np.zeros(mesh.n_vertices))
        sigma = lambda s: np.ones_like(s)
        bw = assemble_joule_rhs_weak(mesh, sigma(geometry(mesh).at_quadrature(u.values)),
                                     phi, phi0)
        bd = assemble_joule_rhs_direct(mesh, sigma, u, phi)
        M = assemble_mass(mesh)
        r = solve_sparse(M.tocsr(), bw - bd)
        gaps.append(float(np.sqrt(r @ (M @ r))))
        mesh = refine_uniform(mesh)
    assert gaps[1] < gaps[0]
    assert gaps[2] < gaps[1]
    rate = np.log2(gaps[1] / gaps[2])
    assert rate > 0.8  # at least O(h)


def test_apply_dirichlet_full_constraint_identity():
    mesh = unit_square(2)
    K = assemble_weighted_stiffness(mesh, 1.0)
    fixed = np.arange(mesh.n_vertices)
    x = solve_direct(*apply_dirichlet(K, np.zeros(mesh.n_vertices), fixed, fixed.astype(float)))
    assert np.allclose(x, np.arange(mesh.n_vertices, dtype=float), atol=1e-12)


def test_apply_dirichlet_idempotent():
    mesh = unit_square(2)
    K = assemble_weighted_stiffness(mesh, 1.0)
    fixed = mesh.boundary_vertex_set()
    A1, b1 = apply_dirichlet(K, np.zeros(mesh.n_vertices), fixed, 1.0)
    A2, b2 = apply_dirichlet(A1, b1, fixed, 1.0)
    assert abs(A1 - A2).max() == 0.0
    assert np.array_equal(b1, b2)


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


def test_boundary_l2_constant():
    mesh = unit_square(4)
    one = field(mesh, np.ones(mesh.n_vertices))
    assert boundary_l2(one, BoundaryTag.DIRICHLET_TEMPERATURE) == pytest.approx(1.0)
    assert boundary_l2(one, BoundaryTag.ROBIN_TEMPERATURE) == pytest.approx(np.sqrt(3.0))


def test_assembled_matrices_symmetric():
    mesh = unit_square(3)
    w = field(mesh, 1.0 + mesh.vertices[:, 0])
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
    x = solve_direct(*apply_dirichlet(K, np.zeros(mesh.n_vertices), fixed, target[fixed]))
    assert np.allclose(x, target, atol=1e-11)


def test_3d_norms_and_load():
    rule = dirichlet_on_planes("z=0")
    mesh = build_rectangle_mesh([1, 1, 1], [2, 2, 2], rule)
    one = field(mesh, np.ones(mesh.n_vertices))
    assert norms(one).l2 == pytest.approx(1.0, rel=1e-12)
    assert load_vector(mesh).sum() == pytest.approx(1.0, rel=1e-12)
    fx = field(mesh, mesh.vertices[:, 0])
    assert norms(fx).h1_semi == pytest.approx(1.0, rel=1e-12)
    assert boundary_l2(one, BoundaryTag.DIRICHLET_TEMPERATURE) == pytest.approx(1.0)


def test_geometry_cache_and_interpolate():
    mesh = unit_square(2)
    g1 = geometry(mesh)
    g2 = geometry(mesh)
    assert g1 is g2
    f = interpolate(mesh, lambda p: p[:, 0] * 2.0, FieldKind.TEMPERATURE)
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
    A, rhs = apply_dirichlet(K, np.ones(mesh.n_vertices), fixed, 0.5)
    assert np.allclose(geom.potential_factor.solve(rhs), solve_direct(A, rhs), rtol=1e-13)


def test_solve_spd_pcg_converges_or_refactors():
    mesh = unit_square(8)
    fixed = mesh.boundary_vertex_set()
    w = 1.0 + mesh.vertices[:, 0] ** 2
    A, rhs = apply_dirichlet(assemble_weighted_stiffness(mesh, w),
                             np.zeros(mesh.n_vertices), fixed, mesh.vertices[fixed, 1])
    x0 = np.zeros(mesh.n_vertices)
    x0[fixed] = mesh.vertices[fixed, 1]
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
