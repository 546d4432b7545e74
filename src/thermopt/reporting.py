"""Artifact writers: legacy ASCII VTK fields, facet CSV, JSON run report."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import ConfigurationError
from .fields import Control, Field
from .mesh import facet_centroids

REPORT_SCHEMA_VERSION = 1

_VTK_CELL_TYPE = {2: 5, 3: 10}  # triangle, tetrahedron


def write_vtk(field: Field, path: str, name: str) -> None:
    """Legacy ASCII VTK unstructured grid with one point scalar."""
    mesh = field.mesh
    k = mesh.dim + 1
    points = np.zeros((mesh.n_vertices, 3))
    points[:, :mesh.dim] = mesh.vertices
    cells = np.column_stack([np.full(mesh.n_cells, k), mesh.cells])
    lines = ["# vtk DataFile Version 3.0", name, "ASCII", "DATASET UNSTRUCTURED_GRID",
             f"POINTS {mesh.n_vertices} double"]
    lines += [" ".join(map(repr, row)) for row in points.tolist()]
    lines.append(f"CELLS {mesh.n_cells} {mesh.n_cells * (k + 1)}")
    lines += [" ".join(map(str, row)) for row in cells.tolist()]
    lines.append(f"CELL_TYPES {mesh.n_cells}")
    lines += [str(_VTK_CELL_TYPE[mesh.dim])] * mesh.n_cells
    lines += [f"POINT_DATA {mesh.n_vertices}", f"SCALARS {name} double 1",
              "LOOKUP_TABLE default"]
    lines += map(repr, np.asarray(field.values, dtype=float).tolist())
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


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
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
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
