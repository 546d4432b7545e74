"""Command-line front end.

    thermopt solve|optimize|verify|convergence|certificate --config FILE
             [--out DIR] [--levels N] [--suite NAME]

Exit codes are part of the public contract: 0 success, 1 configuration
error, 2 nonconvergence, 3 criticality, 4 verification failure,
5 certificate infeasible.
"""

from __future__ import annotations

import argparse
import math
import sys
import time

import numpy as np

from . import config as cfg
from . import control as ctl
from . import reporting
from .assembly import norms, w1inf_proxy
from .errors import (
    CertificateInfeasibleError,
    ConfigurationError,
    CriticalityError,
    NonconvergenceError,
    ThermoptError,
)
from .fields import Control, Field
from .mesh import mesh_size, prolong, prolong_facets, refine_uniform
from .state import solve_state, subcritical_margin
from .transform import (
    check_certificate,
    compute_certificate,
    psi_checks,
    transform,
    transformed_residual,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NONCONVERGENCE = 2
EXIT_CRITICALITY = 3
EXIT_VERIFICATION = 4
EXIT_CERTIFICATE = 5

# Error class -> exit code; the first class an error is an instance of
# decides, so the base class comes last. Every other package error (domain,
# assembly, solver, adjoint, estimation) exits 2.
_EXIT_CODES = (
    (ConfigurationError, EXIT_CONFIG),
    (NonconvergenceError, EXIT_NONCONVERGENCE),
    (CriticalityError, EXIT_CRITICALITY),
    (CertificateInfeasibleError, EXIT_CERTIFICATE),
    (ThermoptError, EXIT_NONCONVERGENCE),
)

# Round-off floor: a refinement difference or residual at or below it, times
# its scale, is that of an exact solution.
_ROUNDOFF = 1e-13


def _exit_code(error: ThermoptError) -> int:
    return next(code for cls, code in _EXIT_CODES if isinstance(error, cls))


def _state_summary(spec, sol):
    return {
        "iterations": sol.iterations,
        "residual_u": sol.residual_u,
        "residual_phi": sol.residual_phi,
        "max_u": float(np.max(sol.u.values)),
        "min_u": float(np.min(sol.u.values)),
        "subcritical_margin": subcritical_margin(sol, spec.model),
        "sigma_clamp_count": sol.sigma_clamp_count,
        "u_h1_norm": norms(sol.u).h1,
        "phi_w1inf_proxy": w1inf_proxy(sol.phi),
        "truncation_level": sol.truncation_level,
        "cg_iterations": sol.cg_iterations,
        "factorizations": sol.factorizations,
    }


def _write_fields(outdir, **fields):
    """Each field to <name>.vtk in outdir; returns the paths written."""
    paths = [outdir / f"{name}.vtk" for name in fields]
    for path, (name, field) in zip(paths, fields.items()):
        reporting.write_vtk(field, str(path), name)
    return paths


def cmd_solve(config, outdir, report):
    spec = cfg.build_problem(config)
    beta = cfg.build_control(config, spec)
    sol = solve_state(spec, beta, cfg.build_solver_options(config))
    report["state"] = _state_summary(spec, sol)
    report["state"]["history"] = sol.history
    artifacts = _write_fields(outdir, u=sol.u, phi=sol.phi)
    print(f"solved in {sol.iterations} iterations; max u = "
          f"{report['state']['max_u']:.6g}; report: {outdir / 'report.json'}")
    return EXIT_OK, artifacts


def cmd_optimize(config, outdir, report):
    spec = cfg.build_problem(config)
    opts = cfg.build_optimizer_options(config)
    result = ctl.optimize(spec, opts)
    report["state"] = _state_summary(spec, result.state)
    j = ctl.objective(spec.mesh, result.state.u, result.beta)
    report["optimizer"] = {
        "converged": result.converged,
        "status": result.status,
        "optimality_residual": result.optimality_residual,
        "J": j.total,
        "integral_u": j.integral_u,
        "integral_beta_sq": j.integral_beta_sq,
        "state_solves": result.state_solves,
        "adjoint_solves": result.adjoint_solves,
        "adjoint_iterations": result.adjoint_iterations,
        "cg_iterations": result.cg_iterations,
        "factorizations": result.factorizations,
        "history": result.history,
    }
    artifacts = _write_fields(outdir, u=result.state.u, phi=result.state.phi,
                              p=result.adjoint.p, q=result.adjoint.q)
    beta_path = outdir / "beta.csv"
    reporting.write_beta_csv(result.beta, str(beta_path))
    print(f"optimizer {result.status}; J = {j.total:.8g}; residual = "
          f"{result.optimality_residual:.3e}; report: {outdir / 'report.json'}")
    return EXIT_OK, artifacts + [beta_path]


def _check(name, measured, bound, at_least=False):
    """A verify check (name, passed, measured, tolerance): measured is at
    most the bound, or at least it, and the bound is the tolerance reported."""
    return name, measured >= bound if at_least else measured <= bound, measured, bound


def _suite_conductivity(config, spec, checks):
    model = spec.model
    mu = model.lipschitz_mu()
    rng = np.random.default_rng(config.get("verify.seed"))
    v = rng.uniform(0.0, 50.0, 100)
    w = rng.uniform(0.0, 50.0, 100)
    y = w - v
    ratio = model.a(v + y) / model.a(v)
    slack = 1.0 + 1e-12
    upper = np.max(ratio / np.exp(mu * np.abs(y)))
    lower = np.min(ratio * np.exp(mu * np.abs(y)))
    checks.append(_check("conductivity.ratio_upper", upper, slack))
    checks.append(_check("conductivity.ratio_lower", lower, 1.0 / slack, at_least=True))
    grid = np.geomspace(1.0, 1e4, 256)
    g = model.a(grid) / grid ** 2 * model.reciprocal_a_moment(grid)
    excess = float(np.max(g * grid))
    checks.append(_check("conductivity.decay_product", excess, slack))


def _suite_maxprinciple(config, spec, checks):
    beta = cfg.build_control(config, spec)
    sol = solve_state(spec, beta, cfg.build_solver_options(config))
    bdry = spec.mesh.boundary_vertex_set()
    phi_lo = float(np.min(spec.phi0.values[bdry]))
    phi_hi = float(np.max(spec.phi0.values[bdry]))
    checks.append(_check("maxprinciple.phi_lower", float(np.min(sol.phi.values)),
                         phi_lo - 1e-10, at_least=True))
    checks.append(_check("maxprinciple.phi_upper", float(np.max(sol.phi.values)),
                         phi_hi + 1e-10))
    checks.append(_check("maxprinciple.u_nonnegative", float(np.min(sol.u.values)),
                         -1e-10, at_least=True))


def _certified_state(config, spec):
    """(control, state, certificate) of the configured problem. The
    certificate bounds every steady state from the data, so it comes before
    the control and the state solve: data the chain cannot bound exits 5
    without either."""
    cert = compute_certificate(spec, **cfg.certificate_arguments(config))
    beta = cfg.build_control(config, spec)
    return beta, solve_state(spec, beta, cfg.build_solver_options(config)), cert


def _suite_substitution(config, spec, checks):
    # No check reads the certificate; it runs for its exit codes, so that
    # data the chain cannot bound exits 5 here as under `certificate`.
    beta, sol, _ = _certified_state(config, spec)
    ts = transform(sol, spec)
    r0 = transformed_residual(ts, spec, beta)
    d0, margin = psi_checks(ts, spec)

    fine_mesh = refine_uniform(spec.mesh)
    fine_spec = cfg.build_problem(config, mesh=fine_mesh)
    fine_beta = Control(fine_mesh, prolong_facets(beta.values, fine_mesh), beta.m_cap)
    fine_sol = solve_state(fine_spec, fine_beta, cfg.build_solver_options(config))
    fts = transform(fine_sol, fine_spec)
    r1 = transformed_residual(fts, fine_spec, fine_beta)
    d1 = psi_checks(fts, fine_spec)[0]

    checks.append(("substitution.residual_v_decreases", _decreases(r1[0], r0[0]), r1[0], r0[0]))
    checks.append(("substitution.residual_phi_decreases", _decreases(r1[1], r0[1]), r1[1], r0[1]))
    checks.append(("substitution.identity_defect_decreases", _decreases(d1, d0), d1, d0))
    # the psi inequality holds up to the discretization defect of the identity
    floor = -(10.0 * d0 + 1e-10)
    checks.append(_check("substitution.psi_inequality_holds", margin, floor, at_least=True))
    v = ts.v.values
    back = spec.model.F(spec.model.F_inv(v))
    rt = float(np.max(np.abs(back - v) / (1.0 + v)))
    checks.append(_check("substitution.round_trip", rt, 1e-8))


def _decreases(fine, coarse):
    """Whether a value falls under refinement; an exact solution's values,
    both at round-off, count as falling."""
    return fine < coarse or (fine <= _ROUNDOFF and coarse <= _ROUNDOFF)


def _suite_gradient(config, spec, checks):
    if spec.m_cap < 0.2:
        raise ConfigurationError("gradient suite needs m_cap >= 0.2 for an "
                                 "interior base control")
    base = min(0.5, spec.m_cap / 2.0)
    beta = Control.constant(spec.mesh, base, spec.m_cap)
    solver = cfg.build_solver_options(config)
    solver.tol = min(solver.tol, 1e-11)
    state = solve_state(spec, beta, solver)
    adjoint = ctl.solve_adjoint(spec, beta, state)
    rng = np.random.default_rng(config.get("verify.seed"))
    scale_cap = min(base, spec.m_cap - base)
    for k in range(5):
        ell = Control.variation(spec.mesh,
                                rng.uniform(-1.0, 1.0, beta.values.size) * scale_cap)
        pair = ctl.solve_sensitivity(spec, beta, state, ell)
        d1 = ctl.dj_adjoint(spec, state, adjoint, beta, ell)
        d2 = ctl.dj_sensitivity(spec, pair, beta, ell)
        d3 = ctl.dj_fd(spec, beta, ell, eps=1e-4, solver=solver)
        scale = max(abs(d1), abs(d2), abs(d3), 1e-300)
        worst = max(abs(d1 - d2), abs(d1 - d3), abs(d2 - d3)) / scale
        checks.append(_check(f"gradient.triangle_{k}", worst, 1e-3))


_SUITES = {
    "lemma1": _suite_conductivity,
    "maxprinciple": _suite_maxprinciple,
    "substitution": _suite_substitution,
    "gradient": _suite_gradient,
}


def cmd_verify(config, outdir, report, suite):
    checks: list[tuple[str, bool, float, float]] = []
    _SUITES[suite](config, cfg.build_problem(config), checks)
    report["suite"] = suite
    report["checks"] = [
        {"property": name, "passed": bool(ok), "measured": val, "tolerance": tol}
        for name, ok, val, tol in checks]
    failed = [name for name, ok, _, _ in checks if not ok]
    report["passed"] = not failed
    for name, ok, val, tol in checks:
        print(f"{'PASS' if ok else 'FAIL'} {name}: measured {float(val)!r} "
              f"(tolerance {float(tol)!r})")
    if failed:
        print(f"verification failed: {failed[0]}", file=sys.stderr)
        return EXIT_VERIFICATION, []
    return EXIT_OK, []


def cmd_convergence(config, outdir, report, levels):
    if levels < 2:
        raise ConfigurationError("convergence study needs at least 2 levels")
    meshes = [cfg.build_mesh(config)]
    for _ in range(levels - 1):
        meshes.append(refine_uniform(meshes[-1]))
    solutions, failure = [], None
    for mesh in meshes:
        spec = cfg.build_problem(config, mesh=mesh)
        beta = cfg.build_control(config, spec)
        try:
            solutions.append(solve_state(spec, beta, cfg.build_solver_options(config)))
        except (NonconvergenceError, CriticalityError) as exc:
            failure = exc
            break

    def gap(fname, k, m):
        """Norms on level m of level k's field prolonged there minus level m's."""
        values = getattr(solutions[k], fname).values
        for mesh in meshes[k + 1:m + 1]:
            values = prolong(values, mesh)
        return norms(Field(meshes[m], values - getattr(solutions[m], fname).values))

    rows, rates = [], {}
    finest = len(solutions) - 1
    if finest >= 1:
        rows = [{"level": k, "h": mesh_size(mesh), "n_vertices": mesh.n_vertices}
                for k, mesh in enumerate(meshes[:finest + 1])]
        for k in range(finest):
            for fname in ("u", "phi"):
                nm = gap(fname, k, finest)
                rows[k][f"{fname}_l2_vs_finest"] = nm.l2
                rows[k][f"{fname}_h1_vs_finest"] = nm.h1
        for fname in ("u", "phi"):
            steps = [gap(fname, k, k + 1) for k in range(finest)]
            scale = max(1.0, float(np.max(np.abs(getattr(solutions[finest], fname).values))))
            for norm_name in ("l2", "h1"):
                rates[f"{fname}_{norm_name}"] = _cauchy_rate(
                    [getattr(nm, norm_name) for nm in steps], scale)
    report["levels"] = rows
    report["rates"] = rates

    csv_path = outdir / "convergence.csv"
    _write_convergence_csv(rows, rates, csv_path)
    for row in rows:
        print(row)
    print("rates:", rates)
    if failure is None:
        return EXIT_OK, [csv_path]
    print(f"level {len(solutions)} failed: {failure}", file=sys.stderr)
    return _exit_code(failure), [csv_path]


def _cauchy_rate(seq, scale):
    """Mean order of successive-refinement differences; 'exact' at roundoff."""
    if any(d <= _ROUNDOFF * scale for d in seq):
        return "exact"
    if len(seq) >= 2:
        return float(np.mean([math.log2(seq[i] / seq[i + 1])
                              for i in range(len(seq) - 1)]))
    return None


def _write_convergence_csv(rows, rates, path):
    cols = ["level", "h", "n_vertices", "u_l2_vs_finest", "u_h1_vs_finest",
            "phi_l2_vs_finest", "phi_h1_vs_finest"]
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for row in rows:
            fh.write(",".join(str(row.get(c, "")) for c in cols) + "\n")
        fh.write("# rates," + ",".join(f"{k}={v}" for k, v in sorted(rates.items()))
                 + "\n")


def cmd_certificate(config, outdir, report):
    spec = cfg.build_problem(config)
    if not math.isfinite(spec.model.u_star) and \
            not config.get("certificate.allow_constant"):
        raise ConfigurationError(
            "certificate for the constant model needs certificate.allow_constant "
            "= true (there is no critical temperature to certify against)")
    _, sol, cert = _certified_state(config, spec)
    check = check_certificate(sol, cert, spec)
    report["certificate"] = cert.as_dict()
    report["certificate_check"] = check.as_dict()
    report["state"] = _state_summary(spec, sol)
    print(f"certificate: N = {cert.N:.6g} (u_star = {spec.model.u_star:g}); "
          f"check {'passed' if check.passed else 'FAILED'} with v margin "
          f"{check.v_margin:.6g}")
    return EXIT_OK, []


# Subcommand -> (function, its own options as argparse keywords). A command
# fills its sections of the report and returns (exit code, artifact paths).
_COMMANDS = {
    "solve": (cmd_solve, {}),
    "optimize": (cmd_optimize, {}),
    "verify": (cmd_verify, {"suite": dict(required=True, choices=sorted(_SUITES),
                                          help="verification suite")}),
    "convergence": (cmd_convergence, {"levels": dict(
        type=int, default=3, help="number of uniform refinement levels")}),
    "certificate": (cmd_certificate, {}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thermopt",
        description="Steady thermistor solves and Robin boundary control")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, options) in _COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="run configuration file")
        p.add_argument("--out", default=None, help="output directory "
                       "(default: output.dir from the config)")
        for option, kwargs in options.items():
            p.add_argument(f"--{option}", **kwargs)
    return parser


def main(argv=None) -> int:
    """Run one command. A command that returns gets report.json with the
    schema version, its effective config, its wall time and the sorted
    artifact list; one that raises gets none."""
    args = build_parser().parse_args(argv)
    command, options = _COMMANDS[args.command]
    try:
        config = cfg.load_config(args.config)
        outdir = reporting.ensure_dir(args.out or config.get("output.dir"))
        report = {"config": dict(config.raw)}
        t0 = time.perf_counter()
        code, artifacts = command(config, outdir, report,
                                  **{option: getattr(args, option) for option in options})
        report["timings_seconds"] = {args.command: time.perf_counter() - t0}
        path = outdir / "report.json"
        report["artifacts"] = sorted(str(a) for a in artifacts + [path])
        reporting.write_report(report, str(path))
        return code
    except ThermoptError as exc:
        code = _exit_code(exc)
        prefix = "configuration error" if code == EXIT_CONFIG else "error"
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
