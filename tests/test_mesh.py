import numpy as np
import pytest

from thermopt.errors import ConfigurationError
from thermopt.mesh import (
    BoundaryTag,
    boundary_measure,
    build_rectangle_mesh,
    cell_volumes,
    dirichlet_on_planes,
    facet_measures,
    mesh_size,
    prolong,
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


def test_boundary_measures():
    mesh = unit_square(4, ALL_DIRICHLET)
    assert boundary_measure(mesh, D) == pytest.approx(4.0, abs=1e-12)
    mesh = unit_square(4)
    assert boundary_measure(mesh, D) == pytest.approx(1.0, abs=1e-12)
    assert boundary_measure(mesh, R) == pytest.approx(3.0, abs=1e-12)
    cube = build_rectangle_mesh([1, 1, 1], [2, 2, 2], dirichlet_on_planes("x=0"))
    validate(cube)
    total = boundary_measure(cube, D) + boundary_measure(cube, R)
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
        assert boundary_measure(fine, tag) == pytest.approx(
            boundary_measure(mesh, tag), rel=1e-12)
    cube = build_rectangle_mesh([1, 1, 1], [1, 1, 1], dirichlet_on_planes("x=0"))
    fcube = refine_uniform(cube)
    assert fcube.n_cells == 48
    assert cell_volumes(fcube).min() > 0
    assert cell_volumes(fcube).sum() == pytest.approx(1.0, rel=1e-12)
    for tag in (D, R):
        assert boundary_measure(fcube, tag) == pytest.approx(
            boundary_measure(cube, tag), rel=1e-12)
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


def test_prolong_reproduces_linears():
    mesh = unit_square(2)
    fine = refine_uniform(mesh)
    coarse_vals = 2.0 * mesh.vertices[:, 0] - mesh.vertices[:, 1]
    fine_vals = prolong(coarse_vals, fine)
    expect = 2.0 * fine.vertices[:, 0] - fine.vertices[:, 1]
    assert np.allclose(fine_vals, expect, atol=1e-14)


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
