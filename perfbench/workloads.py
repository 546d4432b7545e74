"""Workload definitions, the seeded input generator and the per-op checks.

Every op is one ``thermopt`` CLI call on a config file generated here. The
seed fixes the inputs: the same seed always gives the same sequence of
configs, and the program under test sees only those files.
"""

from __future__ import annotations

import dataclasses
import math
import random
from dataclasses import dataclass

DEFAULT_SEED = 0

# Tolerances of the per-op output checks.
RESIDUAL_TOL = 1e-8
OPTIMIZER_TOL = 1e-7
# Relative tolerance against the stored reference outputs (default seed).
# The weak and direct Joule forms differ by 2.4e-9 in J at 32x32 and by
# 5e-10 in max u at 128x128, so 1e-6 admits a change of discrete form and
# still catches a wrong answer.
REFERENCE_RTOL = 1e-6
# Inputs are drawn within +-SPREAD (relative) of a workload's centre.
SPREAD = 0.1

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_SILVER = math.sqrt(2.0) - 1.0

_CONFIG = """\
problem.extents = {extents}
problem.divisions = {divisions}
problem.dirichlet = x=0
problem.model.kind = truncated_power
problem.model.sigma0 = 1.0
problem.model.u_star = 1.0
problem.model.p = 2.0
problem.u0 = 0
problem.u1 = 0.05
problem.phi0 = {a}*x
problem.beta = {beta}
problem.m_cap = 2.0
optimizer.mode = {mode}
optimizer.tol = {tol!r}
"""


@dataclass(frozen=True)
class Workload:
    name: str
    command: str          # thermopt subcommand
    extents: str
    divisions: str
    mode: str             # optimizer.mode (read only by `optimize`)
    a_centre: float       # drive amplitude: phi0 = a * x
    beta_centre: float    # Robin coefficient (initial guess is m_cap / 2 for optimize)
    draw_beta: bool       # whether the seed also draws beta
    why: str


WORKLOADS = {w.name: w for w in (
    Workload(
        name="optimize-pg", command="optimize", extents="1 1", divisions="32 32",
        mode="projected_gradient", a_centre=1.0, beta_centre=1.0, draw_beta=False,
        why="many small solves under projected gradient: Armijo line search that "
            "throws trial solves away, adjoint solves, hundreds of assemblies and "
            "per-facet Python calls"),
    Workload(
        name="certify-3d", command="certificate", extents="1 1 1",
        divisions="16 16 16", mode="sweep", a_centre=0.1, beta_centre=1.0,
        draw_beta=True,
        why="L-infinity certificate on a 16^3 tetrahedral box: Poincare inverse "
            "iteration, 3D mesh build and a solve with heavy factorization fill"),
)}


def to_dict(workload: Workload) -> dict:
    return dataclasses.asdict(workload)


def from_dict(data: dict) -> Workload:
    return Workload(**data)


def reference_key(workload: Workload) -> dict:
    """The fields that decide a workload's outputs, as stored with references."""
    data = to_dict(workload)
    del data["why"]
    return data


def draw_inputs(workload: Workload, seed: int, k: int) -> dict:
    """Inputs of op k: a (and beta) within +-SPREAD of the workload's centre.

    The seed draws random shifts; op k then takes the k-th point of a
    golden-ratio (and silver-ratio for beta) sequence, so that any run of a
    few ops already covers the whole range evenly and the median op time of
    a run depends little on which seed it got. Op 0 always takes the default
    seed's inputs, so that every run checks at least its first ops against
    the stored reference outputs.
    """
    if k == 0:
        seed = DEFAULT_SEED
    rng = random.Random(f"{workload.name}:{seed}")
    shift_a, shift_beta = rng.random(), rng.random()
    u_a = (shift_a + k * _GOLDEN) % 1.0
    u_beta = (shift_beta + k * _SILVER) % 1.0
    inputs = {"a": _scaled(workload.a_centre, u_a)}
    inputs["beta"] = (_scaled(workload.beta_centre, u_beta)
                      if workload.draw_beta else workload.beta_centre)
    return inputs


def _scaled(centre: float, u: float) -> float:
    return float(f"{centre * (1.0 + SPREAD * (2.0 * u - 1.0)):.6g}")


def config_text(workload: Workload, inputs: dict) -> str:
    return _CONFIG.format(extents=workload.extents, divisions=workload.divisions,
                          a=inputs["a"], beta=inputs["beta"], mode=workload.mode,
                          tol=OPTIMIZER_TOL)


def outputs(report: dict) -> dict:
    """The reference-checked outputs of one op: max u, and J or N."""
    out = {"max_u": report["state"]["max_u"]}
    if "optimizer" in report:
        out["J"] = report["optimizer"]["J"]
    if "certificate" in report:
        out["N"] = report["certificate"]["N"]
    return out


def check_op(workload: Workload, exit_code: int, report: dict | None,
             reference: dict | None = None) -> list[str]:
    """Every reason the op failed; an empty list means it passed."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    if report is None:
        return ["no report.json"]
    failures = []
    state = report.get("state", {})
    max_u = state.get("max_u", math.inf)
    if workload.command in ("solve", "certificate"):
        for key in ("residual_u", "residual_phi"):
            value = state.get(key, math.inf)
            if not value <= RESIDUAL_TOL:
                failures.append(f"{key} = {value} > {RESIDUAL_TOL}")
        level = state.get("truncation_level")
        if level is None or not max_u < level:
            failures.append(f"max_u = {max_u} not below truncation level {level}")
    if workload.command == "optimize":
        opt = report.get("optimizer", {})
        if opt.get("converged") is not True:
            failures.append("optimizer did not converge")
        if opt.get("status") != "converged":
            failures.append(f"optimizer status {opt.get('status')!r}")
        resid = opt.get("optimality_residual", math.inf)
        if not resid <= OPTIMIZER_TOL:
            failures.append(f"optimality_residual = {resid} > {OPTIMIZER_TOL}")
    if workload.command == "certificate":
        cert = report.get("certificate", {})
        n_bound = cert.get("N", math.nan)
        u_star = report["config"].get("problem.model.u_star", "1.0")
        if report.get("certificate_check", {}).get("passed") is not True:
            failures.append("certificate check failed")
        if not max_u <= n_bound < float(u_star):
            failures.append(f"not max_u = {max_u} <= N = {n_bound} < u_star = {u_star}")
    if reference is not None and not failures:
        failures.extend(_compare(outputs(report), reference))
    return failures


def _compare(got: dict, reference: dict) -> list[str]:
    failures = []
    for key, want in reference.items():
        if key in ("a", "beta"):
            continue
        value = got.get(key)
        if value is None or abs(value - want) > REFERENCE_RTOL * abs(want):
            failures.append(f"{key} = {value} differs from reference {want} "
                            f"by more than {REFERENCE_RTOL:g} relative")
    return failures
