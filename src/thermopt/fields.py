"""Nodal fields and piecewise-constant boundary controls."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError
from .mesh import BoundaryTag, Mesh


@dataclass
class Field:
    """One real value per mesh vertex (P1 nodal coefficients)."""

    mesh: Mesh
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.mesh.n_vertices,):
            raise ConfigurationError(
                f"field has {self.values.shape[0]} values for "
                f"{self.mesh.n_vertices} vertices")
        if not np.all(np.isfinite(self.values)):
            raise ConfigurationError("field contains non-finite values")


@dataclass
class Control:
    """Heat-transfer coefficient, one value per Robin facet, boxed in [0, m_cap].

    `facet_ids` are indices into mesh.boundary_facets, fixed to the Robin
    facets of the mesh in mesh order. Variations (directions for derivative
    probes) share the type with the box invariant disabled.
    """

    mesh: Mesh
    values: np.ndarray
    m_cap: float
    is_variation: bool = False

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        self.facet_ids = self.mesh.facet_indices(BoundaryTag.ROBIN_TEMPERATURE)
        if self.values.shape != self.facet_ids.shape:
            raise ConfigurationError(
                f"control has {self.values.shape[0]} values for "
                f"{self.facet_ids.shape[0]} Robin facets")
        if not np.all(np.isfinite(self.values)):
            raise DomainError("control contains non-finite values")
        if not self.is_variation:
            if self.m_cap < 0:
                raise DomainError("control upper bound must be nonnegative")
            if np.any(self.values < 0) or np.any(self.values > self.m_cap):
                raise DomainError("control values outside the admissible box")

    @classmethod
    def constant(cls, mesh: Mesh, value: float, m_cap: float) -> "Control":
        n = mesh.facet_indices(BoundaryTag.ROBIN_TEMPERATURE).size
        return cls(mesh, np.full(n, float(value)), m_cap)

    @classmethod
    def variation(cls, mesh: Mesh, values: np.ndarray) -> "Control":
        return cls(mesh, values, math.inf, is_variation=True)

    def with_values(self, values: np.ndarray) -> "Control":
        return Control(self.mesh, values, self.m_cap)
