"""Strict flat key-value run configuration.

Format: one `section.key = value` per line, `#` comments, blank lines
ignored. Unknown keys are rejected with a line/column diagnostic, so typos
fail fast instead of silently running defaults.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

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

class _Kind(NamedTuple):
    """How a key's text becomes its value. `parse` raises ValueError or
    KeyError on text that is `not <noun>`; a folded kind reads its text
    lowercased."""
    parse: Callable[[str], object]
    noun: str = ""
    fold: bool = False


def _nonempty(text: str) -> str:
    if not text:
        raise ValueError("empty text")
    return text


_BOOLEANS = {**dict.fromkeys(("true", "yes", "1", "on"), True),
             **dict.fromkeys(("false", "no", "0", "off"), False)}
_TEXT = _Kind(str)
_WORD = _Kind(str, fold=True)
_PATH = _Kind(_nonempty, "a path")
_PLANES = _Kind(lambda text: [tok.strip() for tok in text.split("|") if tok.strip()])
_NUMBER = _Kind(float, "a number")
_INTEGER = _Kind(int, "an integer")
_NUMBERS = _Kind(lambda text: [float(tok) for tok in text.split()], "a list of float values")
_INTEGERS = _Kind(lambda text: [int(tok) for tok in text.split()], "a list of int values")
_BOOLEAN = _Kind(_BOOLEANS.__getitem__, "a boolean", fold=True)

# Admitted values: a predicate and the requirement that names the rest.
_POSITIVE = (lambda v: v > 0, "must be > 0")
_UNIT = (lambda v: 0 < v <= 1, "must lie in (0, 1]")
_COUNT = (lambda v: v >= 1, "must be >= 1")
_NONNEGATIVE = (lambda v: v >= 0, "must be >= 0")
# optimizer.mode names the one step rule; the key stays for configs that set it
_STEP_RULE = (lambda v: v == "projected_gradient", "must be projected_gradient")


class _Key(NamedTuple):
    default: str | None    # None: unset unless the file gives it non-empty text
    kind: _Kind
    admits: tuple | None = None


# Every key, with its default text, its kind and its admitted values; the
# README's configuration reference documents them. A key whose values are
# checked elsewhere, with messages of their own (the box, the model and its
# truncation level, the data, the control and optimizer.beta0), admits every
# value its kind parses.
_KEYS = {
    "problem.extents": _Key("1 1", _NUMBERS),
    "problem.divisions": _Key("16 16", _INTEGERS),
    "problem.dirichlet": _Key("x=0", _PLANES),
    "problem.mesh_file": _Key(None, _TEXT),
    "problem.model.kind": _Key("truncated_power", _WORD),
    "problem.model.sigma0": _Key("1.0", _NUMBER),
    "problem.model.u_star": _Key("1.0", _NUMBER),
    "problem.model.p": _Key("2.0", _NUMBER),
    "problem.u0": _Key("0", _TEXT),
    "problem.u1": _Key("0", _TEXT),
    "problem.phi0": _Key("0", _TEXT),
    "problem.beta": _Key("0", _TEXT),
    "problem.m_cap": _Key("2.0", _NUMBER),
    "solver.tol": _Key("1e-9", _NUMBER, _POSITIVE),
    "solver.damping": _Key("0.7", _NUMBER, _UNIT),
    "solver.max_iter": _Key("200", _INTEGER, _COUNT),
    "solver.truncation_level": _Key(None, _NUMBER),
    "optimizer.mode": _Key("projected_gradient", _WORD, _STEP_RULE),
    "optimizer.tol": _Key("1e-7", _NUMBER, _POSITIVE),
    "optimizer.max_outer": _Key("100", _INTEGER, _COUNT),
    "optimizer.beta0": _Key(None, _NUMBER),
    "certificate.eps": _Key("0.01", _NUMBER, _POSITIVE),
    "certificate.c1": _Key("1.0", _NUMBER, _POSITIVE),
    "certificate.auto_eps": _Key("true", _BOOLEAN),
    "certificate.allow_constant": _Key("false", _BOOLEAN),
    "verify.seed": _Key("20240801", _INTEGER, _NONNEGATIVE),
    "output.dir": _Key("out", _PATH),
}


@dataclass
class RunConfig:
    """Parsed configuration; `raw` is the effective key-value map echoed in
    reports (defaults merged, deterministic order). `explicit` holds the
    keys the file actually set, which decides strict-vs-auto eps handling."""

    raw: dict[str, str]
    explicit: frozenset = frozenset()

    def get(self, key: str):
        """The value of `key`, parsed and checked against its admitted values
        when it is read, so a command rejects only the keys it reads; None
        for a key without a default that is unset or empty."""
        spec = _KEYS[key]
        text = self.raw.get(key, "")
        if spec.default is None and not text:
            return None
        if spec.kind.fold:
            text = text.lower()
        try:
            value = spec.kind.parse(text)
        except (ValueError, KeyError):
            raise ConfigurationError(f"config key {key}: not {spec.kind.noun}: {text!r}")
        if spec.admits and not spec.admits[0](value):
            raise ConfigurationError(f"config key {key}: {value!r} {spec.admits[1]}")
        return value


def parse_config_text(text: str, path: str | None = None) -> RunConfig:
    values = {key: spec.default for key, spec in _KEYS.items()
              if spec.default is not None}
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
        if key not in _KEYS:
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
    except (OSError, UnicodeDecodeError) as exc:
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


def _data_values(mesh: Mesh, config: RunConfig, key: str) -> np.ndarray:
    source = config.get(key)
    if source.startswith("file:"):
        return _file_values(source, key, mesh.n_vertices, "vertices")
    return Expression(source)(mesh.vertices)


def build_mesh(config: RunConfig) -> Mesh:
    path = config.get("problem.mesh_file")
    if path is not None:
        return read_mesh_file(path)
    return build_rectangle_mesh(config.get("problem.extents"), config.get("problem.divisions"),
                                dirichlet_on_planes(*config.get("problem.dirichlet")))


def build_model(config: RunConfig) -> ConductivityModel:
    kind = config.get("problem.model.kind")
    sigma0 = config.get("problem.model.sigma0")
    try:
        if kind == "truncated_power":
            return TruncatedPower(sigma0, config.get("problem.model.u_star"),
                                  config.get("problem.model.p"))
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
        u0=Field(mesh, _data_values(mesh, config, "problem.u0")),
        u1=Field(mesh, _data_values(mesh, config, "problem.u1")),
        phi0=Field(mesh, _data_values(mesh, config, "problem.phi0")),
        m_cap=config.get("problem.m_cap"),
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


def _section(config: RunConfig, section: str) -> dict:
    """The keys of `section`, read as keyword arguments named after them."""
    return {key.partition(".")[2]: config.get(key) for key in _KEYS
            if key.startswith(section + ".")}


def build_solver_options(config: RunConfig) -> SolverOptions:
    return SolverOptions(**_section(config, "solver"))


def build_optimizer_options(config: RunConfig) -> OptimizerOptions:
    section = _section(config, "optimizer")
    del section["mode"]   # checked on reading; projected gradient is the only rule
    opts = OptimizerOptions(**section, solver=build_solver_options(config))
    if opts.beta0 is not None:
        m_cap = config.get("problem.m_cap")
        if not 0.0 <= opts.beta0 <= m_cap:
            raise ConfigurationError(f"config key optimizer.beta0: {opts.beta0!r} must lie "
                                     f"in [0, problem.m_cap = {m_cap:g}]")
    return opts


def certificate_arguments(config: RunConfig) -> dict:
    """Keyword arguments eps, C1 and auto_eps of `compute_certificate`.

    eps may be halved automatically unless it was pinned in the file, and
    certificate.auto_eps, when set, decides either way."""
    if "certificate.auto_eps" in config.explicit:
        auto_eps = config.get("certificate.auto_eps")
    else:
        auto_eps = "certificate.eps" not in config.explicit
    return {"eps": config.get("certificate.eps"),
            "C1": config.get("certificate.c1"),
            "auto_eps": auto_eps}
