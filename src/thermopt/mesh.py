"""Simplicial meshes of axis-aligned boxes with tagged boundary facets.

Meshes are immutable after construction. 2D cells are right triangles and
3D cells come from the standard six-tetrahedron split of each cube, so the
assembled stiffness matrices are M-matrices and discrete maximum principles
hold exactly on these meshes.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigurationError


class BoundaryTag(enum.Enum):
    DIRICHLET_TEMPERATURE = "dirichlet_temperature"
    ROBIN_TEMPERATURE = "robin_temperature"


# Maps the (n, dim) facet centroids to a Dirichlet mask (False means Robin).
TagRule = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True, eq=False)
class Mesh:
    """Conforming simplicial mesh with tagged boundary facets.

    vertices : (n_vertices, dim) float array
    cells : (n_cells, dim+1) int array, positively oriented simplices
    boundary_facets : (n_facets, dim) int array of vertex indices
    boundary_tags : (n_facets,) int8 array of BoundaryTag values (enum index)
    """

    dim: int
    vertices: np.ndarray
    cells: np.ndarray
    boundary_facets: np.ndarray
    boundary_tags: np.ndarray
    parent_edges: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        for arr in (self.vertices, self.cells, self.boundary_facets, self.boundary_tags):
            arr.setflags(write=False)

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_cells(self) -> int:
        return self.cells.shape[0]

    def facet_indices(self, tag: BoundaryTag) -> np.ndarray:
        return np.flatnonzero(self.boundary_tags == _TAG_CODE[tag])

    def boundary_vertex_set(self, tag: BoundaryTag | None = None) -> np.ndarray:
        """Sorted vertex indices lying on facets with the given tag (all if None)."""
        if tag is None:
            facets = self.boundary_facets
        else:
            facets = self.boundary_facets[self.facet_indices(tag)]
        return np.unique(facets)


_TAG_CODE = {BoundaryTag.DIRICHLET_TEMPERATURE: 0, BoundaryTag.ROBIN_TEMPERATURE: 1}
_TAG_FROM_CODE = {v: k for k, v in _TAG_CODE.items()}
_MESH_SECTIONS = ("VERTICES", "CELLS", "FACETS")
_PLANE_TOL = 1e-12


def cell_volumes(mesh: Mesh) -> np.ndarray:
    """Signed volumes of all cells (positive for valid meshes)."""
    v = mesh.vertices[mesh.cells]
    edges = v[:, 1:, :] - v[:, :1, :]
    if mesh.dim == 2:
        return 0.5 * np.linalg.det(edges)
    return np.linalg.det(edges) / 6.0


def facet_measures(mesh: Mesh) -> np.ndarray:
    """Length (2D) or area (3D) of every boundary facet."""
    pts = mesh.vertices[mesh.boundary_facets]
    if mesh.dim == 2:
        return np.linalg.norm(pts[:, 1] - pts[:, 0], axis=1)
    cross = np.cross(pts[:, 1] - pts[:, 0], pts[:, 2] - pts[:, 0])
    return 0.5 * np.linalg.norm(cross, axis=1)


def facet_centroids(mesh: Mesh) -> np.ndarray:
    return mesh.vertices[mesh.boundary_facets].mean(axis=1)


def boundary_measure(mesh: Mesh, tag: BoundaryTag) -> float:
    """Total measure of the boundary part carrying the tag."""
    return float(facet_measures(mesh)[mesh.facet_indices(tag)].sum())


def mesh_size(mesh: Mesh) -> float:
    """Largest cell diameter."""
    v = mesh.vertices[mesh.cells[:, _EDGES[mesh.dim + 1]]]
    return float(np.max(np.linalg.norm(v[..., 0, :] - v[..., 1, :], axis=-1)))


def dirichlet_on_planes(*specs: str) -> TagRule:
    """Tag rule from axis-aligned plane specs like "x=0" or "y=1.5".

    A facet whose centroid lies on any listed plane is Dirichlet; every other
    facet is Robin.
    """
    axes = {"x": 0, "y": 1, "z": 2}
    planes = []
    for spec in specs:
        try:
            name, value = spec.split("=")
            planes.append((axes[name.strip()], float(value)))
        except (ValueError, KeyError):
            raise ConfigurationError(f"bad plane spec {spec!r}; expected e.g. 'x=0'")

    def rule(centroids: np.ndarray) -> np.ndarray:
        on_plane = np.zeros(centroids.shape[0], dtype=bool)
        for axis, value in planes:
            if axis < centroids.shape[1]:
                on_plane |= np.abs(centroids[:, axis] - value) <= _PLANE_TOL
        return on_plane

    return rule


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One opaque key per row of an int array, equal exactly when the rows are.

    Keys sort bytewise, not numerically; callers rely only on equality and on
    a consistent order between arrays keyed the same way.
    """
    rows = np.ascontiguousarray(rows, dtype=np.int64)
    return rows.view(np.dtype((np.void, 8 * rows.shape[1]))).ravel()


def _extract_boundary(cells: np.ndarray, dim: int) -> np.ndarray:
    """Facets appearing in exactly one cell, in order of first appearance,
    each with its vertex order in the owning cell."""
    facets = cells[:, _FACETS_OF[dim + 1]].reshape(-1, dim)
    _, first, counts = np.unique(_row_keys(np.sort(facets, axis=1)),
                                 return_index=True, return_counts=True)
    return facets[np.sort(first[counts == 1])]


def _tag_facets(vertices: np.ndarray, facets: np.ndarray, tag_rule: TagRule) -> np.ndarray:
    dirichlet = np.asarray(tag_rule(vertices[facets].mean(axis=1)), dtype=bool)
    if not dirichlet.any():
        raise ConfigurationError("tag rule assigns no facet to the Dirichlet part")
    return np.where(dirichlet, _TAG_CODE[BoundaryTag.DIRICHLET_TEMPERATURE],
                    _TAG_CODE[BoundaryTag.ROBIN_TEMPERATURE]).astype(np.int8)


# Index tables of a simplex with k vertices: its facets (local facet i omits
# vertex i), its edges, and its regular refinement. Children index the
# vertices followed by the edge midpoints in _EDGES order; tetrahedra follow
# Bey's rule (4 corner children + octahedron split along m02-m13). Its two
# negative interior children list vertices 0 and 2 exchanged: the odd swap
# (0 2) makes them positive and keeps the edge pair {02, 13}, Bey's diagonal.
_FACETS_OF = {k: np.array([[j for j in range(k) if j != i] for i in range(k)])
              for k in (3, 4)}
_EDGES = {
    2: np.array([[0, 1]]),
    3: np.array([[0, 1], [1, 2], [2, 0]]),
    4: np.array([[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]),
}
_CHILDREN = {
    2: np.array([[0, 2], [2, 1]]),
    3: np.array([[0, 3, 5], [3, 1, 4], [5, 4, 2], [3, 4, 5]]),
    4: np.array([[0, 4, 5, 6], [4, 1, 7, 8], [5, 7, 2, 9], [6, 8, 9, 3],
                 [4, 5, 6, 8], [7, 5, 4, 8], [5, 6, 8, 9], [8, 7, 5, 9]]),
}

# Corner offsets of the simplices splitting one box: two right triangles, or
# the Kuhn split of the cube, one tetrahedron per corner path 0, e_a, e_a + e_b,
# (1, 1, 1). Odd paths list corners 0 and 2 exchanged, as in _CHILDREN, so all
# cells are positive and k refinements give the box at 2^k divisions (Bey 1995).
_UNIT = np.eye(3, dtype=int)
_BOX_SPLIT = {
    2: np.array([[(0, 0), (1, 0), (0, 1)], [(1, 0), (1, 1), (0, 1)]]),
    3: np.array([np.array([(0, 0, 0), _UNIT[a], _UNIT[a] + _UNIT[b], (1, 1, 1)])
                 [[0, 1, 2, 3] if (b - a) % 3 == 1 else [2, 1, 0, 3]]
                 for a, b in itertools.permutations(range(3), 2)]),
}


def build_rectangle_mesh(extents: Sequence[float], divisions: Sequence[int],
                         tag_rule: TagRule) -> Mesh:
    """Mesh an axis-aligned box [0,L1]x...x[0,Ld] with right simplices.

    extents : per-axis lengths, all > 0
    divisions : per-axis cell counts, all >= 1
    tag_rule : maps the (n, dim) array of boundary facet centroids to a
        boolean Dirichlet mask (True: Dirichlet, False: Robin), called once;
        must mark at least one facet

    Cells are positive by construction (see _BOX_SPLIT), so the result
    satisfies `validate` without running it.
    """
    extents = [float(e) for e in extents]
    divisions = [int(n) for n in divisions]
    dim = len(extents)
    if dim not in (2, 3):
        raise ConfigurationError(f"dimension {dim} not supported (need 2 or 3)")
    if len(divisions) != dim:
        raise ConfigurationError("extents and divisions must have equal length")
    if any(e <= 0 for e in extents):
        raise ConfigurationError("all extents must be positive")
    if any(n < 1 for n in divisions):
        raise ConfigurationError("all division counts must be at least 1")

    axes = [np.linspace(0.0, extents[k], divisions[k] + 1) for k in range(dim)]
    vertices = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, dim)
    # vertex ids follow the C order of the grid, as the meshgrid above ravels
    shape = np.asarray(divisions) + 1
    strides = np.array([np.prod(shape[k + 1:]) for k in range(dim)])
    corners = np.indices(divisions).reshape(dim, -1).T @ strides   # lower box corners
    cells = (corners[:, None, None] + _BOX_SPLIT[dim] @ strides).reshape(-1, dim + 1)
    facets = _extract_boundary(cells, dim)
    return Mesh(dim, vertices, cells, facets, _tag_facets(vertices, facets, tag_rule))


def validate(mesh: Mesh) -> None:
    """Check the mesh invariants; raise ConfigurationError on violation."""
    vols = cell_volumes(mesh)
    if np.any(vols <= 0):
        raise ConfigurationError("mesh has a nonpositively oriented cell")
    have = np.unique(_row_keys(np.sort(mesh.boundary_facets, axis=1)))
    want = np.unique(_row_keys(np.sort(_extract_boundary(mesh.cells, mesh.dim), axis=1)))
    if not np.array_equal(have, want):
        raise ConfigurationError("boundary facets do not partition the boundary")
    if have.size != mesh.boundary_facets.shape[0]:
        raise ConfigurationError("duplicate boundary facet")
    if mesh.facet_indices(BoundaryTag.DIRICHLET_TEMPERATURE).size == 0:
        raise ConfigurationError("no Dirichlet facet")


def refine_uniform(mesh: Mesh) -> Mesh:
    """Regular refinement: each triangle into 4, each tetrahedron into 8.

    New midpoint vertices are appended after the existing ones, so nodal data
    prolongates by copying parents and averaging over `parent_edges`.
    Boundary tags are inherited from the parent facet. Children of positive
    cells are positive, and a box mesh refined k times has the cells of the
    box mesh with 2^k times the divisions, numbered differently.
    """
    nv = mesh.n_vertices
    edges = _edge_rows(mesh.cells)
    keys, first, inverse = np.unique(_row_keys(edges), return_index=True,
                                     return_inverse=True)
    # midpoints are numbered in the order their edges are first met
    order = np.argsort(first)
    number = np.empty_like(order)
    number[order] = nv + np.arange(order.size)
    parent_edges = edges[first[order]]
    cells = _split(mesh.cells, number[inverse])
    facet_mids = number[np.searchsorted(keys, _row_keys(_edge_rows(mesh.boundary_facets)))]
    facets = _split(mesh.boundary_facets, facet_mids)
    tags = np.repeat(mesh.boundary_tags, len(_CHILDREN[mesh.dim]))

    mids = 0.5 * (mesh.vertices[parent_edges[:, 0]] + mesh.vertices[parent_edges[:, 1]])
    vertices = np.vstack([mesh.vertices, mids])
    return Mesh(mesh.dim, vertices, cells, facets, tags, parent_edges=parent_edges)


def _edge_rows(simplices: np.ndarray) -> np.ndarray:
    """Vertex pairs (smaller first) of every edge of every simplex, in _EDGES order."""
    return np.sort(simplices[:, _EDGES[simplices.shape[1]]], axis=2).reshape(-1, 2)


def _split(simplices: np.ndarray, midpoints: np.ndarray) -> np.ndarray:
    """Children of every simplex, given its edge midpoint ids in _EDGES order."""
    k = simplices.shape[1]
    ext = np.hstack([simplices, midpoints.reshape(simplices.shape[0], -1)])
    return ext[:, _CHILDREN[k]].reshape(-1, k)


def prolong(coarse_values: np.ndarray, fine_mesh: Mesh) -> np.ndarray:
    """P1 prolongation of coarse nodal values onto a refine_uniform child."""
    if fine_mesh.parent_edges is None:
        raise ConfigurationError("fine mesh was not produced by refine_uniform")
    pe = fine_mesh.parent_edges
    out = np.empty(fine_mesh.n_vertices, dtype=float)
    nc = coarse_values.shape[0]
    out[:nc] = coarse_values
    out[nc:] = 0.5 * (coarse_values[pe[:, 0]] + coarse_values[pe[:, 1]])
    return out


# Plain-text mesh format:
#   VERTICES n      followed by n lines of dim coordinates
#   CELLS m         followed by m lines of dim+1 vertex indices
#   FACETS k        followed by k lines of dim vertex indices + tag name
# Tag names are the BoundaryTag values. Grammar documented in the README.

def write_mesh_file(mesh: Mesh, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(f"VERTICES {mesh.n_vertices}\n")
        for v in mesh.vertices:
            fh.write(" ".join(repr(float(x)) for x in v) + "\n")
        fh.write(f"CELLS {mesh.n_cells}\n")
        for c in mesh.cells:
            fh.write(" ".join(str(int(i)) for i in c) + "\n")
        fh.write(f"FACETS {mesh.boundary_facets.shape[0]}\n")
        for f, t in zip(mesh.boundary_facets, mesh.boundary_tags):
            name = _TAG_FROM_CODE[int(t)].value
            fh.write(" ".join(str(int(i)) for i in f) + f" {name}\n")


def read_mesh_file(path: str) -> Mesh:
    with open(path) as fh:
        tokens = [line.split() for line in fh if line.strip() and not line.startswith("#")]
    pos = 0

    def section(name):
        nonlocal pos
        if pos >= len(tokens) or tokens[pos][0] != name:
            raise ConfigurationError(f"mesh file: expected section {name}")
        if len(tokens[pos]) != 2 or not tokens[pos][1].isdecimal():
            raise ConfigurationError(f"mesh file: section {name} needs one row count")
        count = int(tokens[pos][1])
        rows = tokens[pos + 1:pos + 1 + count]
        if len(rows) < count or any(row[0] in _MESH_SECTIONS for row in rows):
            raise ConfigurationError(f"mesh file: section {name} has fewer than {count} rows")
        pos += 1 + count
        return rows

    def table(rows, width, dtype, name):
        if any(len(row) != width for row in rows):
            raise ConfigurationError(f"mesh file: every {name} row needs {width} entries")
        try:
            return np.array(rows, dtype=dtype).reshape(len(rows), width)
        except (ValueError, OverflowError):
            raise ConfigurationError(f"mesh file: {name} rows must hold numbers") from None

    vertex_rows = section("VERTICES")
    dim = len(vertex_rows[0]) if vertex_rows else 0
    if dim not in (2, 3):
        raise ConfigurationError(f"mesh file: dimension {dim} not supported")
    verts = table(vertex_rows, dim, float, "VERTICES")
    cells = table(section("CELLS"), dim + 1, np.int64, "CELLS")
    facet_rows = section("FACETS")
    if any(len(row) != dim + 1 for row in facet_rows):
        raise ConfigurationError(f"mesh file: every FACETS row needs {dim} vertices and a tag")
    facets = table([row[:dim] for row in facet_rows], dim, np.int64, "FACETS")
    for name, ids in (("CELLS", cells), ("FACETS", facets)):
        bad = ids[(ids < 0) | (ids >= len(verts))]
        if bad.size:
            raise ConfigurationError(
                f"mesh file: {name} names vertex {bad[0]} of {len(verts)}")
    names = {t.value: code for t, code in _TAG_CODE.items()}
    unknown = [row[dim] for row in facet_rows if row[dim] not in names]
    if unknown:
        raise ConfigurationError(f"mesh file: unknown tag {unknown[0]!r}")
    tags = np.array([names[row[dim]] for row in facet_rows], dtype=np.int8)
    mesh = Mesh(dim, verts, cells, facets, tags)
    validate(mesh)
    return mesh
