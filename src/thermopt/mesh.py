"""Simplicial meshes of axis-aligned boxes with tagged boundary facets.

Meshes are immutable after construction. 2D cells are right triangles and
3D cells come from the standard six-tetrahedron split of each cube, so the
assembled stiffness matrices are M-matrices and discrete maximum principles
hold exactly on these meshes.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp

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
    grid : (divisions, extents) of a box meshed as build_rectangle_mesh
        meshes it, or None: its vertices are the grid points in C order and
        its cells the d! simplices of _BOX_SPLIT of each box in turn, boxes
        in C order, so cell c is a translate of cell c mod d!. Solvers rely
        on both orders; a refine_uniform child or a file mesh has neither
        and carries None. Counts that are not the box's raise
        ConfigurationError.
    """

    dim: int
    vertices: np.ndarray
    cells: np.ndarray
    boundary_facets: np.ndarray
    boundary_tags: np.ndarray
    parent_edges: np.ndarray | None = field(default=None, repr=False)
    grid: tuple[tuple[int, ...], tuple[float, ...]] | None = None
    _vertex_sets: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        for arr in (self.vertices, self.cells, self.boundary_facets, self.boundary_tags,
                    self.parent_edges):
            if arr is not None:
                arr.setflags(write=False)
        if self.grid is not None:
            divisions = self.grid[0]
            if (self.n_vertices != math.prod(n + 1 for n in divisions)
                    or self.n_cells != math.factorial(self.dim) * math.prod(divisions)):
                raise ConfigurationError(
                    f"grid {divisions} does not match a mesh of {self.n_vertices} "
                    f"vertices and {self.n_cells} cells")

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_cells(self) -> int:
        return self.cells.shape[0]

    def facet_indices(self, tag: BoundaryTag) -> np.ndarray:
        return np.flatnonzero(self.boundary_tags == _TAG_CODE[tag])

    def boundary_vertex_set(self, tag: BoundaryTag | None = None) -> np.ndarray:
        """Sorted vertex indices lying on facets with the given tag (all if
        None); read-only, computed once per tag."""
        if tag not in self._vertex_sets:
            facets = slice(None) if tag is None else self.facet_indices(tag)
            self._vertex_sets[tag] = np.unique(self.boundary_facets[facets])
            self._vertex_sets[tag].setflags(write=False)
        return self._vertex_sets[tag]


_TAG_CODE = {BoundaryTag.DIRICHLET_TEMPERATURE: 0, BoundaryTag.ROBIN_TEMPERATURE: 1}
_TAG_FROM_CODE = {v: k for k, v in _TAG_CODE.items()}
_MESH_SECTIONS = ("VERTICES", "CELLS", "FACETS")
_PLANE_TOL = 1e-12


def edge_cofactors(vertices: np.ndarray, cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cofactors and determinants of the edge matrices E of the listed cells,
    whose rows are the edges v_i - v_0 (i = 1..d).

    Returns (nc, d, d) with row i - 1 the i-th column of adj(E), which is
    det(E) grad(lambda_i), and (nc,) det(E), d! times the signed volume. The
    columns are cross products of edge pairs in 3D and perpendiculars of
    edges in 2D, so no batched inverse or determinant is needed.
    """
    v = vertices[cells]
    e = v[:, 1:, :] - v[:, :1, :]
    if vertices.shape[1] == 2:
        cof = np.stack([e[:, 1, ::-1], -e[:, 0, ::-1]], axis=1) * [1.0, -1.0]
    else:
        cof = np.cross(e[:, [1, 2, 0]], e[:, [2, 0, 1]])
    return cof, np.einsum("cd,cd->c", e[:, 0], cof[:, 0])


def cell_volumes(mesh: Mesh) -> np.ndarray:
    """Signed volumes of all cells (positive for valid meshes)."""
    return edge_cofactors(mesh.vertices, mesh.cells)[1] / math.factorial(mesh.dim)


def facet_measures(mesh: Mesh) -> np.ndarray:
    """Length (2D) or area (3D) of every boundary facet."""
    pts = mesh.vertices[mesh.boundary_facets]
    if mesh.dim == 2:
        return np.linalg.norm(pts[:, 1] - pts[:, 0], axis=1)
    cross = np.cross(pts[:, 1] - pts[:, 0], pts[:, 2] - pts[:, 0])
    return 0.5 * np.linalg.norm(cross, axis=1)


def facet_centroids(mesh: Mesh) -> np.ndarray:
    return mesh.vertices[mesh.boundary_facets].mean(axis=1)


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


def pair_slots(a: np.ndarray, b: np.ndarray, pattern: tuple[np.ndarray, np.ndarray] | None = None
               ) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """The slot of each pair (a, b) of nonnegative int arrays of one shape in
    a CSR pattern (indices, indptr) of sorted rows, by a binary search within
    its row, or -1 off it, in the pattern's index dtype; and the pattern, by
    default the one the pairs form. That one ranks the distinct pairs in
    lexicographic order, so column by column, (slot of columns 1..j, column
    j + 1), this numbers the distinct rows of an int array exactly."""
    if pattern is None:
        formed = sp.csr_matrix((np.ones(a.size, dtype=bool), (a.ravel(), b.ravel())))
        pattern = formed.indices, formed.indptr
    indices, indptr = pattern
    columns = max(b.max(initial=0), indices.max(initial=0)) + 1
    numbers = sp.csr_matrix((np.arange(1, indices.size + 1, dtype=indices.dtype), indices, indptr),
                            shape=(indptr.size - 1, columns), copy=False)
    return np.asarray(numbers[a.ravel(), b.ravel()]).reshape(a.shape) - 1, pattern


def _row_numbers(rows: np.ndarray) -> np.ndarray:
    """The rank of each row of an (m, k) nonnegative int array among its
    distinct rows in lexicographic order: pair_slots column by column."""
    number, *columns = np.ascontiguousarray(rows.T)
    for column in columns:
        number = pair_slots(number, column)[0]
    return number


def _extract_boundary(cells: np.ndarray, dim: int) -> np.ndarray:
    """Facets appearing in exactly one cell, in order of first appearance,
    each with its vertex order in the owning cell."""
    facets = cells[:, _FACETS_OF[dim + 1]].reshape(-1, dim)
    number = _row_numbers(np.sort(facets, axis=1))
    return facets[np.bincount(number)[number] == 1]


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

    extents : per-axis lengths, all finite and > 0
    divisions : per-axis cell counts, all >= 1
    tag_rule : maps the (n, dim) array of boundary facet centroids to a
        boolean Dirichlet mask (True: Dirichlet, False: Robin), called once;
        must mark at least one facet

    Cells are positive by construction (see _BOX_SPLIT), so the result
    satisfies `validate` without running it. The cells are listed box by box
    and the vertices in grid order, as `Mesh.grid` states. The boundary
    facets are the cell facets whose vertices share a face of the box: the
    rows of _extract_boundary, in its order, found without sorting.
    """
    extents = [float(e) for e in extents]
    divisions = [int(n) for n in divisions]
    dim = len(extents)
    if dim not in (2, 3):
        raise ConfigurationError(f"dimension {dim} not supported (need 2 or 3)")
    if len(divisions) != dim:
        raise ConfigurationError("extents and divisions must have equal length")
    if not all(0.0 < e < math.inf for e in extents):
        raise ConfigurationError(f"all extents must be finite and positive, got {extents}")
    if any(n < 1 for n in divisions):
        raise ConfigurationError("all division counts must be at least 1")

    axes = [np.linspace(0.0, extents[k], divisions[k] + 1) for k in range(dim)]
    vertices = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, dim)
    # vertex ids follow the C order of the grid, as the meshgrid above ravels
    shape = np.asarray(divisions) + 1
    strides = np.array([np.prod(shape[k + 1:]) for k in range(dim)])
    corners = np.indices(divisions).reshape(dim, -1).T @ strides   # lower box corners
    cells = (corners[:, None, None] + _BOX_SPLIT[dim] @ strides).reshape(-1, dim + 1)
    # bit 2k marks the grid points on the face x_k = 0, bit 2k + 1 those on x_k = L_k
    index = np.indices(shape).reshape(dim, -1)
    faces = sum((index[k] == 0) << 2 * k | (index[k] == divisions[k]) << 2 * k + 1
                for k in range(dim))
    facets = cells[:, _FACETS_OF[dim + 1]].reshape(-1, dim)
    facets = facets[np.bitwise_and.reduce(faces[facets], axis=1) != 0]
    return Mesh(dim, vertices, cells, facets, _tag_facets(vertices, facets, tag_rule),
                grid=(tuple(divisions), tuple(extents)))


def validate(mesh: Mesh) -> None:
    """Check the mesh invariants; raise ConfigurationError on violation."""
    vols = cell_volumes(mesh)
    if np.any(vols <= 0):
        raise ConfigurationError("mesh has a nonpositively oriented cell")
    unused = np.flatnonzero(np.bincount(mesh.cells.ravel(), minlength=mesh.n_vertices) == 0)
    if unused.size:
        raise ConfigurationError(f"mesh vertex {unused[0]} is in no cell")
    want = _extract_boundary(mesh.cells, mesh.dim)
    number = _row_numbers(np.sort(np.vstack([want, mesh.boundary_facets]), axis=1))
    wanted, listed = (np.bincount(part, minlength=number.size)
                      for part in np.split(number, [want.shape[0]]))
    if not np.array_equal(wanted > 0, listed > 0):
        raise ConfigurationError("boundary facets do not partition the boundary")
    if np.any(listed > 1):
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
    edges = _edge_rows(mesh.cells)
    slots, pattern = pair_slots(*edges.T)
    # midpoints are numbered in the order their edges are first met
    first = np.full(pattern[0].size, slots.size)
    np.minimum.at(first, slots, np.arange(slots.size))
    first.sort()
    number = np.empty(first.size, dtype=np.intp)
    number[slots[first]] = mesh.n_vertices + np.arange(first.size)
    parent_edges = edges[first]
    cells = _split(mesh.cells, number[slots])
    facets = _split(mesh.boundary_facets,
                    number[pair_slots(*_edge_rows(mesh.boundary_facets).T, pattern)[0]])
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


def prolong_facets(coarse_values: np.ndarray, fine_mesh: Mesh) -> np.ndarray:
    """Values on boundary facets of the coarse mesh, in facet order, onto
    their children on a refine_uniform child: each child takes its parent's.
    refine_uniform numbers a facet's children consecutively, in facet order."""
    if fine_mesh.parent_edges is None:
        raise ConfigurationError("fine mesh was not produced by refine_uniform")
    return np.repeat(coarse_values, len(_CHILDREN[fine_mesh.dim]))


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
    try:
        with open(path) as fh:
            tokens = [line.split() for line in fh if line.strip() and not line.startswith("#")]
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read mesh file {path}: {exc}") from None
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
