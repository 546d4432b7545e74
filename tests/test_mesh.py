import math

import numpy as np
import pytest
import scipy.sparse as sp

from thermopt.assembly import geometry
from thermopt.errors import ConfigurationError
from thermopt.mesh import (
    BoundaryTag,
    Mesh,
    _extract_boundary,
    build_rectangle_mesh,
    cell_volumes,
    dirichlet_on_planes,
    facet_centroids,
    facet_measures,
    mesh_size,
    pair_slots,
    prolong,
    prolong_facets,
    read_mesh_file,
    refine_uniform,
    validate,
    write_mesh_file,
)

D = BoundaryTag.DIRICHLET_TEMPERATURE
R = BoundaryTag.ROBIN_TEMPERATURE

ALL_DIRICHLET = dirichlet_on_planes("x=0", "x=1", "y=0", "y=1")
LEFT_DIRICHLET = dirichlet_on_planes("x=0")


def unit_square(n, rule=LEFT_DIRICHLET):
    return build_rectangle_mesh([1.0, 1.0], [n, n], rule)


def test_unit_square_2x2_counts():
    mesh = unit_square(2)
    assert mesh.n_vertices == 9
    assert mesh.n_cells == 8
    assert mesh.boundary_facets.shape[0] == 8


def test_left_dirichlet_tagging_counts():
    mesh = unit_square(2)
    assert mesh.facet_indices(D).size == 2
    assert mesh.facet_indices(R).size == 6


def test_unit_cube_counts():
    rule = dirichlet_on_planes("z=0")
    mesh = build_rectangle_mesh([1, 1, 1], [1, 1, 1], rule)
    validate(mesh)
    assert mesh.n_vertices == 8
    assert mesh.n_cells == 6
    assert mesh.boundary_facets.shape[0] == 12


def test_cell_volumes_sum_to_box_volume():
    mesh = build_rectangle_mesh([2.0, 3.0], [3, 4], LEFT_DIRICHLET)
    validate(mesh)
    assert cell_volumes(mesh).min() > 0
    assert abs(cell_volumes(mesh).sum() - 6.0) < 1e-12 * 6.0
    cube = build_rectangle_mesh([1.0, 2.0, 0.5], [2, 3, 2], dirichlet_on_planes("x=0"))
    validate(cube)
    assert cell_volumes(cube).min() > 0
    assert abs(cell_volumes(cube).sum() - 1.0) < 1e-12


def tag_measure(mesh, tag):
    """Total measure of the boundary facets carrying the tag."""
    return facet_measures(mesh)[mesh.facet_indices(tag)].sum()


def test_boundary_measures():
    mesh = unit_square(4, ALL_DIRICHLET)
    assert tag_measure(mesh, D) == pytest.approx(4.0, abs=1e-12)
    mesh = unit_square(4)
    assert tag_measure(mesh, D) == pytest.approx(1.0, abs=1e-12)
    assert tag_measure(mesh, R) == pytest.approx(3.0, abs=1e-12)
    cube = build_rectangle_mesh([1, 1, 1], [2, 2, 2], dirichlet_on_planes("x=0"))
    validate(cube)
    total = tag_measure(cube, D) + tag_measure(cube, R)
    assert total == pytest.approx(6.0, abs=1e-12)


def test_all_2d_cells_are_right_triangles():
    mesh = unit_square(3)
    for cell in mesh.cells:
        pts = mesh.vertices[cell]
        edges = [pts[1] - pts[0], pts[2] - pts[1], pts[0] - pts[2]]
        dots = [abs(np.dot(edges[i], -edges[(i + 1) % 3])) for i in range(3)]
        assert min(dots) < 1e-14  # one right angle per cell


def test_refine_counts_and_inheritance():
    mesh = unit_square(2)
    fine = refine_uniform(mesh)
    assert fine.n_vertices == 25
    assert fine.n_cells == 32
    assert fine.facet_indices(D).size == 4
    assert fine.facet_indices(R).size == 12
    validate(fine)


def test_refined_mesh_parent_edges_are_read_only():
    # prolong reads them on every later call, so a write must not go through
    fine = refine_uniform(unit_square(2))
    with pytest.raises(ValueError):
        fine.parent_edges[0, 0] = 0


def test_refine_halves_mesh_size():
    for extents in ([1.0, 1.0], [1.0, 1.0, 1.0]):
        mesh = build_rectangle_mesh(extents, [2] * len(extents), LEFT_DIRICHLET)
        h0 = mesh_size(mesh)
        m1 = refine_uniform(mesh)
        m2 = refine_uniform(m1)
        assert mesh_size(m1) == pytest.approx(h0 / 2, rel=1e-12)
        assert mesh_size(m2) == pytest.approx(h0 / 4, rel=1e-12)


def test_refine_conserves_volume_and_boundary_measure():
    mesh = build_rectangle_mesh([2.0, 1.0], [2, 2], LEFT_DIRICHLET)
    fine = refine_uniform(mesh)
    assert cell_volumes(fine).sum() == pytest.approx(2.0, rel=1e-12)
    for tag in (D, R):
        assert tag_measure(fine, tag) == pytest.approx(
            tag_measure(mesh, tag), rel=1e-12)
    cube = build_rectangle_mesh([1, 1, 1], [1, 1, 1], dirichlet_on_planes("x=0"))
    fcube = refine_uniform(cube)
    assert fcube.n_cells == 48
    assert cell_volumes(fcube).min() > 0
    assert cell_volumes(fcube).sum() == pytest.approx(1.0, rel=1e-12)
    for tag in (D, R):
        assert tag_measure(fcube, tag) == pytest.approx(
            tag_measure(cube, tag), rel=1e-12)
    validate(fcube)


def grid_cells(mesh, spacing):
    """Cells as sorted rows of grid-point ids, rows sorted: the mesh up to
    vertex numbering, cell order and vertex order within a cell."""
    ijk = np.rint(mesh.vertices / spacing).astype(np.int64)
    assert np.allclose(ijk * spacing, mesh.vertices, rtol=0, atol=1e-14)
    ids = np.ravel_multi_index(ijk.T, tuple(ijk.max(axis=0) + 1))
    rows = np.sort(ids[mesh.cells], axis=1)
    return rows[np.lexsort(rows.T[::-1])]


@pytest.mark.parametrize("extents, divisions", [([1.0, 1.0, 1.0], [2, 2, 2]),
                                                ([1.0, 2.0, 0.5], [3, 2, 3])])
def test_two_refinements_equal_box_at_four_times_divisions(extents, divisions):
    rule = dirichlet_on_planes("x=0")
    fine = refine_uniform(refine_uniform(build_rectangle_mesh(extents, divisions, rule)))
    validate(fine)
    direct = build_rectangle_mesh(extents, [4 * n for n in divisions], rule)
    spacing = np.asarray(extents) / (4 * np.asarray(divisions))
    assert np.array_equal(grid_cells(fine, spacing), grid_cells(direct, spacing))


def test_one_refinement_of_a_2_cube_is_the_4_cube():
    rule = dirichlet_on_planes("x=0")
    fine = refine_uniform(build_rectangle_mesh([1.0, 1.0, 1.0], [2, 2, 2], rule))
    direct = build_rectangle_mesh([1.0, 1.0, 1.0], [4, 4, 4], rule)
    assert np.array_equal(grid_cells(fine, 0.25), grid_cells(direct, 0.25))

    def tagged_facets(mesh):
        ids = np.rint(mesh.vertices / 0.25).astype(np.int64) @ [25, 5, 1]
        rows = np.sort(ids[mesh.boundary_facets], axis=1)
        return sorted(zip(map(tuple, rows.tolist()), mesh.boundary_tags.tolist()))

    assert tagged_facets(fine) == tagged_facets(direct)


def jittered(extents, divisions, seed=0):
    """The box mesh with every vertex moved by up to a tenth of the spacing."""
    mesh = build_rectangle_mesh(extents, divisions, LEFT_DIRICHLET)
    h = min(e / n for e, n in zip(extents, divisions))
    shift = np.random.default_rng(seed).uniform(-0.1 * h, 0.1 * h, mesh.vertices.shape)
    return Mesh(mesh.dim, mesh.vertices + shift, mesh.cells, mesh.boundary_facets,
                mesh.boundary_tags)


@pytest.mark.parametrize("extents, divisions", [([1.0, 2.0], [5, 7]),
                                                ([1.0, 1.0, 0.5], [3, 4, 2])])
def test_closed_form_geometry_matches_inverse_on_jittered_mesh(extents, divisions):
    # on box meshes every entry is exact either way, so only a non-box mesh
    # tells a wrong cofactor
    mesh = jittered(extents, divisions)
    validate(mesh)
    v = mesh.vertices[mesh.cells]
    edges = v[:, 1:, :] - v[:, :1, :]
    want_volumes = np.linalg.det(edges) / math.factorial(mesh.dim)
    want_grads = np.transpose(np.linalg.inv(edges), (0, 2, 1))
    geom = geometry(mesh)
    assert np.all(np.abs(geom.volumes - want_volumes) <= 1e-13 * np.abs(want_volumes))
    assert np.array_equal(cell_volumes(mesh), geom.volumes)
    scale = np.abs(want_grads).max(axis=(1, 2))[:, None, None]
    assert np.all(np.abs(geom.grads[:, 1:] - want_grads) <= 1e-13 * scale)
    assert np.array_equal(geom.grads[:, 0], -geom.grads[:, 1:].sum(axis=1))


@pytest.mark.parametrize("extents, divisions, rtol", [
    ([1.0, 1.0], [8, 8], 0.0), ([1.0, 1.0], [32, 32], 0.0), ([1.0] * 3, [4] * 3, 0.0),
    ([1.0] * 3, [16] * 3, 0.0), ([2.0, 0.7], [7, 1], 1e-14), ([1.3, 0.7, 2.1], [3, 1, 5], 1e-14)])
def test_box_geometry_and_boundary_equal_the_cellwise_ones(extents, divisions, rtol):
    # a box repeats the geometry of its first box, exactly on dyadic boxes and
    # to round-off of the grid coordinates on others; the same mesh without
    # its grid computes every cell. Its boundary is found without sorting.
    box = build_rectangle_mesh(extents, divisions, LEFT_DIRICHLET)
    assert np.array_equal(box.boundary_facets, _extract_boundary(box.cells, box.dim))
    cellwise = Mesh(box.dim, box.vertices, box.cells, box.boundary_facets, box.boundary_tags)
    for name in ("volumes", "grads", "grad_products"):
        got, want = getattr(geometry(box), name), getattr(geometry(cellwise), name)
        scale = np.abs(want).reshape(box.n_cells, -1).max(axis=1)
        error = np.abs(got - want).reshape(box.n_cells, -1).max(axis=1)
        assert np.all(error <= rtol * scale), name


def test_mesh_refuses_a_grid_of_other_counts():
    box = build_rectangle_mesh([2.0, 1.0], [4, 3], LEFT_DIRICHLET)
    parts = box.dim, box.vertices, box.cells, box.boundary_facets, box.boundary_tags
    assert Mesh(*parts, grid=box.grid).grid == ((4, 3), (2.0, 1.0))
    with pytest.raises(ConfigurationError, match="grid"):
        Mesh(*parts, grid=((4, 4), (2.0, 1.0)))
    with pytest.raises(ConfigurationError, match="grid"):
        Mesh(box.dim, box.vertices, box.cells[:-2], box.boundary_facets, box.boundary_tags,
             grid=box.grid)


@pytest.mark.parametrize("dim", [2, 3])
def test_validate_rejects_a_nonpositive_cell(dim):
    mesh = jittered([1.0] * dim, [2] * dim)
    cells = mesh.cells.copy()
    cells[3, [0, 1]] = cells[3, [1, 0]]
    with pytest.raises(ConfigurationError, match="nonpositively oriented"):
        validate(Mesh(dim, mesh.vertices, cells, mesh.boundary_facets, mesh.boundary_tags))


def interior_facet(mesh):
    """A facet shared by two cells, with its vertex order in the first of them."""
    facets = mesh.cells[:, [[j for j in range(mesh.dim + 1) if j != i]
                            for i in range(mesh.dim + 1)]].reshape(-1, mesh.dim)
    _, first, counts = np.unique(np.sort(facets, axis=1), axis=0, return_index=True,
                                 return_counts=True)
    return facets[first[counts == 2][0]]


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("change", ["drop", "interior"])
def test_validate_rejects_facets_that_do_not_partition_the_boundary(dim, change):
    mesh = jittered([1.0] * dim, [2] * dim)
    facets, tags = mesh.boundary_facets, mesh.boundary_tags
    if change == "drop":
        facets, tags = facets[1:], tags[1:]
    else:
        facets, tags = np.vstack([facets, interior_facet(mesh)]), np.append(tags, tags[-1])
    with pytest.raises(ConfigurationError, match="do not partition the boundary"):
        validate(Mesh(dim, mesh.vertices, mesh.cells, facets, tags))


@pytest.mark.parametrize("dim", [2, 3])
def test_validate_rejects_a_duplicate_boundary_facet(dim):
    # listed again with its vertices in another order, and with the other tag
    mesh = jittered([1.0] * dim, [2] * dim)
    facets = np.vstack([mesh.boundary_facets, mesh.boundary_facets[3, ::-1]])
    tags = np.append(mesh.boundary_tags, 1 - mesh.boundary_tags[3])
    with pytest.raises(ConfigurationError, match="duplicate boundary facet"):
        validate(Mesh(dim, mesh.vertices, mesh.cells, facets, tags))


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("base", [2_146_689, 3_000_000, 4_000_000])
def test_row_keys_are_exact_for_large_vertex_indices(base, k):
    # 2,146,689 = 129^3 vertices, where n^3 is past 2^63, and 4,000,000 past
    # 3,810,777, where keys C(r + 2, 3) of facets would leave int64; sorted rows
    # with repeated entries and repeated rows, numbered by pair_slots column
    # by column, must be ranked among the distinct rows in lexicographic order
    rng = np.random.default_rng(k)
    rows = np.sort(rng.integers(base - 30, base + 30, size=(4000, k)), axis=1)
    rows = np.vstack([rows, rows[::7], np.full((1, k), base)])
    number = rows[:, 0]
    for column in rows.T[1:]:
        number = pair_slots(number, column)[0]
    rank = {row: i for i, row in enumerate(sorted(set(map(tuple, rows.tolist()))))}
    assert number.tolist() == [rank[row] for row in map(tuple, rows.tolist())]


def test_pair_slots_in_a_given_pattern_mark_pairs_outside_it():
    pattern = sp.csr_matrix(np.array([[1, 0, 1], [0, 0, 0], [1, 1, 0]]))
    slots, same = pair_slots(np.array([[0, 0, 0], [2, 2, 2]]), np.array([[0, 1, 2], [0, 1, 2]]),
                             (pattern.indices, pattern.indptr))
    assert slots.tolist() == [[0, -1, 1], [2, 3, -1]]
    assert slots.dtype == pattern.indices.dtype and same[0] is pattern.indices


def test_prolong_reproduces_linears():
    mesh = unit_square(2)
    fine = refine_uniform(mesh)
    coarse_vals = 2.0 * mesh.vertices[:, 0] - mesh.vertices[:, 1]
    fine_vals = prolong(coarse_vals, fine)
    expect = 2.0 * fine.vertices[:, 0] - fine.vertices[:, 1]
    assert np.allclose(fine_vals, expect, atol=1e-14)
    with pytest.raises(ConfigurationError, match="refine_uniform"):
        prolong(coarse_vals, mesh)


@pytest.mark.parametrize("extents, divisions", [([1, 1], [4, 4]), ([1, 1, 1], [2, 2, 2])])
def test_prolong_facets_gives_each_child_its_parents_value(extents, divisions):
    mesh = build_rectangle_mesh(extents, divisions, LEFT_DIRICHLET)
    fine = refine_uniform(mesh)
    coarse_ids = mesh.facet_indices(R)
    fine_ids = fine.facet_indices(R)
    # prolong each Robin facet's index: a child's value names its parent
    parents = prolong_facets(coarse_ids, fine)
    assert parents.shape == fine_ids.shape
    corners = mesh.vertices[mesh.boundary_facets[parents]]
    centroids = facet_centroids(fine)[fine_ids]
    assert np.all(corners.min(axis=1) - 1e-12 <= centroids)
    assert np.all(centroids <= corners.max(axis=1) + 1e-12)
    with pytest.raises(ConfigurationError, match="refine_uniform"):
        prolong_facets(coarse_ids, mesh)


def test_plane_rule_maps_centroids_to_dirichlet_mask():
    rule = dirichlet_on_planes("x=0", "z=1")   # z plane is ignored in 2D
    centroids = np.array([[0.0, 0.5], [0.5, 0.0], [1e-13, 1.0], [0.5, 1.0]])
    assert rule(centroids).tolist() == [True, False, True, False]
    cube_centroids = np.array([[0.5, 0.5, 1.0], [0.5, 0.5, 0.5]])
    assert rule(cube_centroids).tolist() == [True, False]


def test_empty_dirichlet_rejected():
    rule = dirichlet_on_planes("x=5")  # plane misses the square
    with pytest.raises(ConfigurationError):
        build_rectangle_mesh([1, 1], [2, 2], rule)


def test_bad_divisions_rejected():
    with pytest.raises(ConfigurationError):
        build_rectangle_mesh([1, 1], [0, 2], LEFT_DIRICHLET)
    with pytest.raises(ConfigurationError):
        build_rectangle_mesh([1, -1], [2, 2], LEFT_DIRICHLET)
    with pytest.raises(ConfigurationError):
        build_rectangle_mesh([1, 1, 1, 1], [1, 1, 1, 1], LEFT_DIRICHLET)


def test_mesh_file_round_trip(tmp_path):
    mesh = unit_square(3)
    path = tmp_path / "mesh.txt"
    write_mesh_file(mesh, str(path))
    back = read_mesh_file(str(path))
    assert back.dim == 2
    assert np.array_equal(back.cells, mesh.cells)
    assert np.allclose(back.vertices, mesh.vertices)
    assert np.array_equal(back.boundary_tags, mesh.boundary_tags)
    mset = {tuple(sorted(f)) for f in mesh.boundary_facets}
    bset = {tuple(sorted(f)) for f in back.boundary_facets}
    assert mset == bset


def test_facet_measures_positive():
    mesh = unit_square(2)
    assert np.all(facet_measures(mesh) > 0)
