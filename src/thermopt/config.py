"""Strict flat key-value run configuration.

Format: one `section.key = value` per line, `#` comments, blank lines
ignored. Unknown keys are rejected with a line/column diagnostic, so typos
fail fast instead of silently running defaults.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .control import OptimizerOptions
from .errors import ConfigurationError, DomainError
from .expressions import Expression
from .fields import Control, Field
from .materials import Constant, ConductivityModel, TruncatedPower
from .mesh import (
    BoundaryTag,
    Mesh,
    build_rectangle_mesh,
    dirichlet_on_planes,
    facet_centroids,
    read_mesh_file,
)
from .state import ProblemSpec, SolverOptions

_KNOWN_KEYS = {
    "problem.extents": "per-axis box lengths, space separated",
    "problem.divisions": "per-axis cell counts, space separated",
    "problem.dirichlet": "axis-aligned planes forming the Dirichlet part, e.g. x=0|y=1",
    "problem.mesh_file": "path to a mesh file (alternative to extents/divisions)",
    "problem.model.kind": "truncated_power or constant",
    "problem.model.sigma0": "finite conductivity scale > 0",
    "problem.model.u_star": "finite critical temperature > 0 (truncated_power)",
    "problem.model.p": "finite decay exponent >= 2 (truncated_power)",
    "problem.u0": "temperature Dirichlet data expression (or file:<path>)",
    "problem.u1": "ambient temperature expression (or file:<path>)",
    "problem.phi0": "potential Dirichlet data expression (or file:<path>)",
    "problem.beta": "control expression evaluated at Robin facet centroids",
    "problem.m_cap": "finite control upper bound >= 0",
    "solver.tol": "Picard fixed-point increment tolerance > 0",
    "solver.damping": "Anderson mixing weight in (0, 1]",
    "solver.max_iter": "Picard iteration cap >= 1",
    "solver.truncation_level": "override for the conductivity truncation level",
    "optimizer.mode": "sweep or projected_gradient",
    "optimizer.relaxation": "sweep averaging weight in (0, 1]",
    "optimizer.tol": "optimality residual tolerance > 0",
    "optimizer.max_outer": "outer iteration cap >= 1",
    "optimizer.beta0": "initial control value (default m_cap / 2)",
    "certificate.eps": "epsilon of the bound chain",
    "certificate.c1": "user-supplied Sobolev embedding constant",
    "certificate.auto_eps": "halve eps automatically until feasible (true/false)",
    "certificate.allow_constant": "permit certificates for the constant model",
    "verify.seed": "seed for the randomized verification probes",
    "output.dir": "output directory",
}

_DEFAULTS = {
    "problem.extents": "1 1",
    "problem.divisions": "16 16",
    "problem.dirichlet": "x=0",
    "problem.model.kind": "truncated_power",
    "problem.model.sigma0": "1.0",
    "problem.model.u_star": "1.0",
    "problem.model.p": "2.0",
    "problem.u0": "0",
    "problem.u1": "0",
    "problem.phi0": "0",
    "problem.beta": "0",
    "problem.m_cap": "2.0",
    "solver.tol": "1e-9",
    "solver.damping": "0.7",
    "solver.max_iter": "200",
    "optimizer.mode": "projected_gradient",
    "optimizer.relaxation": "0.5",
    "optimizer.tol": "1e-7",
    "optimizer.max_outer": "100",
    "certificate.eps": "0.01",
    "certificate.c1": "1.0",
    "certificate.auto_eps": "true",
    "certificate.allow_constant": "false",
    "verify.seed": "20240801",
    "output.dir": "out",
}


@dataclass
class RunConfig:
    """Parsed configuration; `raw` is the effective key-value map echoed in
    reports (defaults merged, deterministic order). `explicit` holds the
    keys the file actually set, which decides strict-vs-auto eps handling."""

    raw: dict[str, str]
    explicit: frozenset = frozenset()

    def get(self, key: str) -> str:
        return self.raw[key]

    def get_float(self, key: str) -> float:
        return self._parsed(key, float, "a number")

    def get_int(self, key: str) -> int:
        return self._parsed(key, int, "an integer")

    def get_list(self, key: str, kind: type) -> list:
        """The whitespace-separated values of `key`, each parsed by `kind`."""
        return self._parsed(key, lambda text: [kind(tok) for tok in text.split()],
                            f"a list of {kind.__name__} values")

    def _parsed(self, key: str, parse, noun: str):
        try:
            return parse(self.raw[key])
        except ValueError:
            raise ConfigurationError(f"config key {key}: not {noun}: {self.raw[key]!r}")

    def get_bool(self, key: str) -> bool:
        val = self.raw[key].strip().lower()
        if val in ("true", "yes", "1", "on"):
            return True
        if val in ("false", "no", "0", "off"):
            return False
        raise ConfigurationError(f"config key {key}: not a boolean: {val!r}")


def parse_config_text(text: str, path: str | None = None) -> RunConfig:
    values = dict(_DEFAULTS)
    seen = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigurationError(
                f"{path or '<config>'}:{lineno}:1: expected 'key = value'")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _KNOWN_KEYS:
            col = line.index(key) + 1 if key in line else 1
            raise ConfigurationError(
                f"{path or '<config>'}:{lineno}:{col}: unknown key {key!r}")
        if key in seen:
            raise ConfigurationError(
                f"{path or '<config>'}:{lineno}:1: duplicate key {key!r}")
        seen.add(key)
        values[key] = value
    return RunConfig(raw=dict(sorted(values.items())), explicit=frozenset(seen))


def load_config(path: str) -> RunConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}")
    return parse_config_text(text, path=path)


def _file_values(source: str, key: str, count: int, what: str) -> np.ndarray:
    """The `count` numbers of a `file:<path>` source, one per vertex or facet."""
    path = source[len("file:"):].strip()
    try:
        vals = np.loadtxt(path, dtype=float).ravel()
    except (OSError, ValueError) as exc:   # missing file, or not numbers
        raise ConfigurationError(f"config key {key}: cannot read {path}: {exc}")
    if vals.shape != (count,):
        raise ConfigurationError(
            f"config key {key}: file {path} holds {vals.size} values for "
            f"{count} {what}")
    return vals


def _data_values(mesh: Mesh, source: str, key: str) -> np.ndarray:
    if source.startswith("file:"):
        return _file_values(source, key, mesh.n_vertices, "vertices")
    return Expression(source)(mesh.vertices)


def build_mesh(config: RunConfig) -> Mesh:
    if "problem.mesh_file" in config.raw and config.raw.get("problem.mesh_file"):
        return read_mesh_file(config.get("problem.mesh_file"))
    extents = config.get_list("problem.extents", float)
    divisions = config.get_list("problem.divisions", int)
    planes = [tok.strip() for tok in config.get("problem.dirichlet").split("|")
              if tok.strip()]
    return build_rectangle_mesh(extents, divisions, dirichlet_on_planes(*planes))


def build_model(config: RunConfig) -> ConductivityModel:
    kind = config.get("problem.model.kind").strip().lower()
    sigma0 = config.get_float("problem.model.sigma0")
    try:
        if kind == "truncated_power":
            return TruncatedPower(sigma0, config.get_float("problem.model.u_star"),
                                  config.get_float("problem.model.p"))
        if kind == "constant":
            return Constant(sigma0)
    except DomainError as exc:
        raise ConfigurationError(f"problem.model: {exc}")
    raise ConfigurationError(f"unknown conductivity kind {kind!r}")


def build_problem(config: RunConfig, mesh: Mesh | None = None) -> ProblemSpec:
    mesh = mesh or build_mesh(config)
    model = build_model(config)
    spec = ProblemSpec(
        mesh=mesh,
        model=model,
        u0=Field(mesh, _data_values(mesh, config.get("problem.u0"), "problem.u0")),
        u1=Field(mesh, _data_values(mesh, config.get("problem.u1"), "problem.u1")),
        phi0=Field(mesh, _data_values(mesh, config.get("problem.phi0"), "problem.phi0")),
        m_cap=config.get_float("problem.m_cap"),
    )
    spec.validate()
    return spec


def build_control(config: RunConfig, spec: ProblemSpec) -> Control:
    source = config.get("problem.beta")
    ids = spec.mesh.facet_indices(BoundaryTag.ROBIN_TEMPERATURE)
    centroids = facet_centroids(spec.mesh)[ids]
    if source.startswith("file:"):
        vals = _file_values(source, "problem.beta", ids.size, "Robin facets")
    else:
        vals = Expression(source)(centroids)
    try:
        return Control(spec.mesh, vals, spec.m_cap)
    except DomainError as exc:
        raise ConfigurationError(f"problem.beta: {exc}")


# Admissible values of the run options, checked when the options are built.
_RANGES = {
    "solver.tol": (lambda v: v > 0, "must be > 0"),
    "solver.damping": (lambda v: 0 < v <= 1, "must lie in (0, 1]"),
    "solver.max_iter": (lambda v: v >= 1, "must be >= 1"),
    "optimizer.relaxation": (lambda v: 0 < v <= 1, "must lie in (0, 1]"),
    "optimizer.tol": (lambda v: v > 0, "must be > 0"),
    "optimizer.max_outer": (lambda v: v >= 1, "must be >= 1"),
    "certificate.eps": (lambda v: v > 0, "must be > 0"),
    "certificate.c1": (lambda v: v > 0, "must be > 0"),
    "verify.seed": (lambda v: v >= 0, "must be >= 0"),
}


def _option(get, key: str):
    """The value `get(key)`, or a ConfigurationError naming the key when it
    lies outside _RANGES."""
    value = get(key)
    ok, requirement = _RANGES[key]
    if not ok(value):
        raise ConfigurationError(f"config key {key}: {value!r} {requirement}")
    return value


def build_solver_options(config: RunConfig) -> SolverOptions:
    level = None
    if config.raw.get("solver.truncation_level"):
        level = config.get_float("solver.truncation_level")
    return SolverOptions(
        tol=_option(config.get_float, "solver.tol"),
        damping=_option(config.get_float, "solver.damping"),
        max_iter=_option(config.get_int, "solver.max_iter"),
        truncation_level=level,
    )


def build_optimizer_options(config: RunConfig) -> OptimizerOptions:
    beta0 = None
    if config.raw.get("optimizer.beta0"):
        beta0 = config.get_float("optimizer.beta0")
        m_cap = config.get_float("problem.m_cap")
        if not 0.0 <= beta0 <= m_cap:
            raise ConfigurationError(f"config key optimizer.beta0: {beta0!r} must lie "
                                     f"in [0, problem.m_cap = {m_cap:g}]")
    return OptimizerOptions(
        mode=config.get("optimizer.mode").strip().lower(),
        relaxation=_option(config.get_float, "optimizer.relaxation"),
        tol=_option(config.get_float, "optimizer.tol"),
        max_outer=_option(config.get_int, "optimizer.max_outer"),
        beta0=beta0,
        solver=build_solver_options(config),
    )


def certificate_arguments(config: RunConfig) -> dict:
    """Keyword arguments eps, C1 and auto_eps of `certificate_data`.

    eps may be halved automatically unless it was pinned in the file, and
    certificate.auto_eps, when set, decides either way."""
    if "certificate.auto_eps" in config.explicit:
        auto_eps = config.get_bool("certificate.auto_eps")
    else:
        auto_eps = "certificate.eps" not in config.explicit
    return {"eps": _option(config.get_float, "certificate.eps"),
            "C1": _option(config.get_float, "certificate.c1"),
            "auto_eps": auto_eps}
