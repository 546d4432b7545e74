"""Artifact writers: legacy ASCII VTK fields, facet CSV, JSON run report."""

from __future__ import annotations

import json
import weakref
from pathlib import Path

import numpy as np

from .errors import ConfigurationError
from .fields import Control, Field
from .mesh import Mesh, facet_centroids

REPORT_SCHEMA_VERSION = 1

_VTK_CELL_TYPE = {2: 5, 3: 10}  # triangle, tetrahedron
_VTK_MESH_CACHE: "weakref.WeakKeyDictionary[Mesh, str]" = weakref.WeakKeyDictionary()


def write_vtk(field: Field, path: str, name: str) -> None:
    """Legacy ASCII VTK unstructured grid with one point scalar; mesh section cached per mesh."""
    mesh = field.mesh
    n, nc, k = mesh.n_vertices, mesh.n_cells, mesh.dim + 1
    if mesh not in _VTK_MESH_CACHE:
        points = np.zeros((n, 3))
        points[:, :mesh.dim] = mesh.vertices
        _VTK_MESH_CACHE[mesh] = (
            f"POINTS {n} double\n" + ("%r %r %r\n" * n) % tuple(points.ravel().tolist())
            + f"CELLS {nc} {nc * (k + 1)}\n"
            + ((f"{k}" + " %d" * k + "\n") * nc) % tuple(mesh.cells.ravel().tolist())
            + f"CELL_TYPES {nc}\n" + f"{_VTK_CELL_TYPE[mesh.dim]}\n" * nc)
    with open(path, "w") as fh:
        fh.write(f"# vtk DataFile Version 3.0\n{name}\nASCII\nDATASET UNSTRUCTURED_GRID\n"
                 + _VTK_MESH_CACHE[mesh] + f"POINT_DATA {n}\nSCALARS {name} double 1\n"
                 "LOOKUP_TABLE default\n"
                 + ("%r\n" * n) % tuple(np.asarray(field.values, dtype=float).tolist()))


def write_beta_csv(beta: Control, path: str) -> None:
    """One row per Robin facet: centroid coordinates and the control value."""
    mesh = beta.mesh
    centroids = facet_centroids(mesh)[beta.facet_ids]
    header = ",".join(["x", "y", "z"][: mesh.dim] + ["beta"])
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for c, b in zip(centroids, beta.values):
            fh.write(",".join(repr(float(x)) for x in c)
                     + f",{repr(float(b))}\n")


def _jsonable(value):
    if isinstance(value, np.generic):   # numpy scalars, np.bool_ included
        return _jsonable(value.item())
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value]
    if isinstance(value, float) and not np.isfinite(value):
        return repr(value)
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def write_report(report: dict, path: str) -> None:
    payload = dict(report)
    payload.setdefault("schema_version", REPORT_SCHEMA_VERSION)
    with open(path, "w") as fh:
        json.dump(_jsonable(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")


def ensure_dir(path: str) -> Path:
    """The output directory, created if missing; ConfigurationError if it cannot be."""
    p = Path(path)
    try:
        p.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError(f"cannot use {path!r} as the output directory ({exc})") from exc
    return p
