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
from .assembly import max_cell_gradient, norms
from .errors import (
    CertificateInfeasibleError,
    ConfigurationError,
    CriticalityError,
    NonconvergenceError,
    ThermoptError,
)
from .fields import Control, Field, FieldKind
from .mesh import mesh_size, prolong, refine_uniform
from .state import solve_state, subcritical_margin
from .transform import (
    check_certificate,
    compute_certificate,
    psi_identity_defect,
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
        "phi_w1inf_proxy": max(float(np.max(np.abs(sol.phi.values))),
                               max_cell_gradient(sol.phi)),
        "truncation_level": (sol.truncation_used.n if sol.truncation_used else None),
        "cg_iterations": sol.cg_iterations,
        "factorizations": sol.factorizations,
    }


def _base_report(config):
    return {
        "schema_version": reporting.REPORT_SCHEMA_VERSION,
        "config": dict(config.raw),
        "timings_seconds": {},
        "artifacts": [],
    }


def _finish_report(report, outdir, artifacts):
    report["artifacts"] = sorted(str(a) for a in artifacts)
    path = outdir / "report.json"
    reporting.write_report(report, str(path))
    return path


def cmd_solve(config, outdir) -> int:
    report = _base_report(config)
    t0 = time.perf_counter()
    spec = cfg.build_problem(config)
    beta = cfg.build_control(config, spec)
    sol = solve_state(spec, beta, cfg.build_solver_options(config))
    report["timings_seconds"]["solve"] = time.perf_counter() - t0
    report["state"] = _state_summary(spec, sol)
    report["state"]["history"] = sol.history

    artifacts = []
    for name, field in (("u", sol.u), ("phi", sol.phi)):
        path = outdir / f"{name}.vtk"
        reporting.write_vtk(field, str(path), name)
        artifacts.append(path)
    _finish_report(report, outdir, artifacts + [outdir / "report.json"])
    print(f"solved in {sol.iterations} iterations; max u = "
          f"{report['state']['max_u']:.6g}; report: {outdir / 'report.json'}")
    return EXIT_OK


def cmd_optimize(config, outdir) -> int:
    report = _base_report(config)
    t0 = time.perf_counter()
    spec = cfg.build_problem(config)
    opts = cfg.build_optimizer_options(config)
    result = ctl.optimize(spec, opts)
    report["timings_seconds"]["optimize"] = time.perf_counter() - t0
    report["state"] = _state_summary(spec, result.state)
    j = ctl.objective(spec.mesh, result.state.u, result.beta)
    report["optimizer"] = {
        "mode": opts.mode,
        "converged": result.converged,
        "status": result.status,
        "optimality_residual": result.optimality_residual,
        "J": j.total,
        "integral_u": j.integral_u,
        "integral_beta_sq": j.integral_beta_sq,
        "state_solves": result.state_solves,
        "adjoint_solves": result.adjoint_solves,
        "adjoint_iterations": result.adjoint_iterations,
        "history": result.history,
    }

    artifacts = []
    fields = (("u", result.state.u), ("phi", result.state.phi),
              ("p", result.adjoint.p), ("q", result.adjoint.q))
    for name, field in fields:
        path = outdir / f"{name}.vtk"
        reporting.write_vtk(field, str(path), name)
        artifacts.append(path)
    beta_path = outdir / "beta.csv"
    reporting.write_beta_csv(result.beta, str(beta_path))
    artifacts.append(beta_path)
    _finish_report(report, outdir, artifacts + [outdir / "report.json"])
    print(f"optimizer {result.status}; J = {j.total:.8g}; residual = "
          f"{result.optimality_residual:.3e}; report: {outdir / 'report.json'}")
    return EXIT_OK


def _suite_conductivity(config, spec, checks):
    model = spec.model
    mu = model.lipschitz_mu()
    rng = np.random.default_rng(config.get_int("verify.seed"))
    v = rng.uniform(0.0, 50.0, 100)
    w = rng.uniform(0.0, 50.0, 100)
    y = w - v
    ratio = np.asarray(model.a(v + y) / model.a(v))
    slack = 1.0 + 1e-12
    upper = np.max(ratio / np.exp(mu * np.abs(y)))
    lower = np.min(ratio * np.exp(mu * np.abs(y)))
    checks.append(("conductivity.ratio_upper", upper <= slack, upper, slack))
    checks.append(("conductivity.ratio_lower", lower >= 1.0 / slack, lower, 1.0 / slack))
    grid = np.geomspace(1.0, 1e4, 256)
    g = np.asarray(model.a(grid)) / grid ** 2 * model.reciprocal_a_moment(grid)
    excess = float(np.max(g * grid))
    checks.append(("conductivity.decay_product", excess <= 1.0 + 1e-12, excess, 1.0))


def _suite_maxprinciple(config, spec, checks):
    beta = cfg.build_control(config, spec)
    sol = solve_state(spec, beta, cfg.build_solver_options(config))
    bdry = spec.mesh.boundary_vertex_set()
    phi_lo = float(np.min(spec.phi0.values[bdry]))
    phi_hi = float(np.max(spec.phi0.values[bdry]))
    checks.append(("maxprinciple.phi_lower",
                   float(np.min(sol.phi.values)) >= phi_lo - 1e-10,
                   float(np.min(sol.phi.values)), phi_lo - 1e-10))
    checks.append(("maxprinciple.phi_upper",
                   float(np.max(sol.phi.values)) <= phi_hi + 1e-10,
                   float(np.max(sol.phi.values)), phi_hi + 1e-10))
    checks.append(("maxprinciple.u_nonnegative",
                   float(np.min(sol.u.values)) >= -1e-10,
                   float(np.min(sol.u.values)), -1e-10))


def _suite_substitution(config, spec, checks):
    beta = cfg.build_control(config, spec)
    opts = cfg.build_solver_options(config)
    cert = compute_certificate(spec.model, spec, **cfg.certificate_arguments(config))
    sol = solve_state(spec, beta, opts)
    ts = transform(sol, spec.model, spec.phi0, cert.M)
    r0 = transformed_residual(ts, spec.model, spec, beta)
    d0 = psi_identity_defect(ts, spec.model, spec)

    fine_mesh = refine_uniform(spec.mesh)
    fine_cfg_spec = cfg.build_problem(config, mesh=fine_mesh)
    fine_beta = Control(fine_mesh, _prolong_beta(beta, fine_mesh), beta.m_cap)
    fine_sol = solve_state(fine_cfg_spec, fine_beta, opts)
    fts = transform(fine_sol, spec.model, fine_cfg_spec.phi0, cert.M)
    r1 = transformed_residual(fts, spec.model, fine_cfg_spec, fine_beta)
    d1 = psi_identity_defect(fts, spec.model, fine_cfg_spec)

    checks.append(("substitution.residual_v_decreases", r1[0] < r0[0], r1[0], r0[0]))
    checks.append(("substitution.residual_phi_decreases", r1[1] < r0[1], r1[1], r0[1]))
    checks.append(("substitution.identity_defect_decreases", d1 < d0, d1, d0))
    v = ts.v.values
    back = np.asarray(spec.model.F(np.asarray(spec.model.F_inv(v))))
    rt = float(np.max(np.abs(back - v) / (1.0 + v)))
    checks.append(("substitution.round_trip", rt <= 1e-8, rt, 1e-8))


def _prolong_beta(beta, fine_mesh):
    # each parent Robin facet splits into children in order (2D: 2, 3D: 4)
    children = 2 if fine_mesh.dim == 2 else 4
    return np.repeat(beta.values, children)


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
    rng = np.random.default_rng(config.get_int("verify.seed"))
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
        checks.append((f"gradient.triangle_{k}", worst <= 1e-3, worst, 1e-3))


_SUITES = {
    "lemma1": _suite_conductivity,
    "maxprinciple": _suite_maxprinciple,
    "substitution": _suite_substitution,
    "gradient": _suite_gradient,
}


def cmd_verify(config, outdir, suite) -> int:
    if suite not in _SUITES:
        raise ConfigurationError(
            f"unknown suite {suite!r}; choose from {sorted(_SUITES)}")
    report = _base_report(config)
    spec = cfg.build_problem(config)
    checks: list[tuple[str, bool, float, float]] = []
    t0 = time.perf_counter()
    _SUITES[suite](config, spec, checks)
    report["timings_seconds"]["verify"] = time.perf_counter() - t0
    report["suite"] = suite
    report["checks"] = [
        {"property": name, "passed": bool(ok), "measured": val, "tolerance": tol}
        for name, ok, val, tol in checks]
    failed = [name for name, ok, _, _ in checks if not ok]
    report["passed"] = not failed
    _finish_report(report, outdir, [outdir / "report.json"])
    for name, ok, val, tol in checks:
        print(f"{'PASS' if ok else 'FAIL'} {name}: measured {val:.6g} "
              f"(tolerance {tol:.6g})")
    if failed:
        print(f"verification failed: {failed[0]}", file=sys.stderr)
        return EXIT_VERIFICATION
    return EXIT_OK


def cmd_convergence(config, outdir, levels) -> int:
    if levels < 2:
        raise ConfigurationError("convergence study needs at least 2 levels")
    report = _base_report(config)
    t0 = time.perf_counter()

    meshes = [cfg.build_mesh(config)]
    for _ in range(levels - 1):
        meshes.append(refine_uniform(meshes[-1]))
    solutions = []
    failures = None
    for k, mesh in enumerate(meshes):
        spec = cfg.build_problem(config, mesh=mesh)
        beta = cfg.build_control(config, spec)
        try:
            solutions.append((spec, solve_state(spec, beta,
                                                cfg.build_solver_options(config))))
        except (NonconvergenceError, CriticalityError) as exc:
            failures = (k, exc)
            break

    rows = []
    rates = {}
    n_solved = len(solutions)
    if n_solved >= 2:
        prolonged = _prolongation_table(meshes, solutions)
        finest = n_solved - 1
        for k in range(n_solved):
            row = {"level": k, "h": mesh_size(meshes[k]),
                   "n_vertices": meshes[k].n_vertices}
            if k < finest:
                for fname in ("u", "phi"):
                    diff = prolonged[(k, finest, fname)] - prolonged[(finest, finest, fname)]
                    f = Field(meshes[finest], diff, FieldKind.TEMPERATURE)
                    row[f"{fname}_l2_vs_finest"] = norms(f).l2
                    row[f"{fname}_h1_vs_finest"] = norms(f).h1
            rows.append(row)
        rates = _cauchy_rates(meshes, solutions, prolonged)
    report["timings_seconds"]["convergence"] = time.perf_counter() - t0
    report["levels"] = [r for r in rows]
    report["rates"] = rates

    csv_path = outdir / "convergence.csv"
    _write_convergence_csv(rows, rates, csv_path)
    artifacts = [csv_path]
    _finish_report(report, outdir, artifacts + [outdir / "report.json"])
    for row in rows:
        print(row)
    print("rates:", rates)
    if failures is not None:
        k, exc = failures
        print(f"level {k} failed: {exc}", file=sys.stderr)
        return (EXIT_CRITICALITY if isinstance(exc, CriticalityError)
                else EXIT_NONCONVERGENCE)
    return EXIT_OK


def _prolongation_table(meshes, solutions):
    """Nodal values of every solution prolonged to every finer level."""
    table = {}
    n = len(solutions)
    for k, (spec, sol) in enumerate(solutions):
        vals = {"u": sol.u.values, "phi": sol.phi.values}
        for fname in ("u", "phi"):
            v = vals[fname]
            table[(k, k, fname)] = v
            for m in range(k + 1, n):
                v = prolong(v, meshes[m])
                table[(k, m, fname)] = v
    return table


def _cauchy_rates(meshes, solutions, table):
    """Rates from successive-refinement differences; 'exact' at roundoff."""
    n = len(solutions)
    rates = {}
    for fname in ("u", "phi"):
        d_l2, d_h1 = [], []
        for k in range(n - 1):
            diff = table[(k, k + 1, fname)] - table[(k + 1, k + 1, fname)]
            f = Field(meshes[k + 1], diff, FieldKind.TEMPERATURE)
            nm = norms(f)
            d_l2.append(nm.l2)
            d_h1.append(nm.h1)
        scale = max(1.0, float(np.max(np.abs(table[(n - 1, n - 1, fname)]))))
        for norm_name, seq in (("l2", d_l2), ("h1", d_h1)):
            key = f"{fname}_{norm_name}"
            if any(d <= 1e-13 * scale for d in seq):
                rates[key] = "exact"
            elif len(seq) >= 2:
                rates[key] = float(np.mean([math.log2(seq[i] / seq[i + 1])
                                            for i in range(len(seq) - 1)]))
            else:
                rates[key] = None
    return rates


def _write_convergence_csv(rows, rates, path):
    cols = ["level", "h", "n_vertices", "u_l2_vs_finest", "u_h1_vs_finest",
            "phi_l2_vs_finest", "phi_h1_vs_finest"]
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for row in rows:
            fh.write(",".join(str(row.get(c, "")) for c in cols) + "\n")
        fh.write("# rates," + ",".join(f"{k}={v}" for k, v in sorted(rates.items()))
                 + "\n")


def cmd_certificate(config, outdir) -> int:
    report = _base_report(config)
    spec = cfg.build_problem(config)
    if not math.isfinite(spec.model.u_star) and \
            not config.get_bool("certificate.allow_constant"):
        raise ConfigurationError(
            "certificate for the constant model needs certificate.allow_constant "
            "= true (there is no critical temperature to certify against)")
    t0 = time.perf_counter()
    cert = compute_certificate(spec.model, spec, **cfg.certificate_arguments(config))
    beta = cfg.build_control(config, spec)
    sol = solve_state(spec, beta, cfg.build_solver_options(config))
    check = check_certificate(sol, cert, spec.model)
    report["timings_seconds"]["certificate"] = time.perf_counter() - t0
    report["certificate"] = cert.as_dict()
    report["certificate"]["thresholds"] = cert.threshold_values()
    report["certificate_check"] = check.as_dict()
    report["state"] = _state_summary(spec, sol)
    _finish_report(report, outdir, [outdir / "report.json"])
    print(f"certificate: N = {cert.N:.6g} (u_star = {spec.model.u_star:g}); "
          f"check {'passed' if check.passed else 'FAILED'} with v margin "
          f"{check.v_margin:.6g}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thermopt",
        description="Steady thermistor solves and Robin boundary control")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("solve", "optimize", "verify", "convergence", "certificate"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="run configuration file")
        p.add_argument("--out", default=None, help="output directory "
                       "(default: output.dir from the config)")
        if name == "verify":
            p.add_argument("--suite", required=True,
                           choices=sorted(_SUITES), help="verification suite")
        if name == "convergence":
            p.add_argument("--levels", type=int, default=3,
                           help="number of uniform refinement levels")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = cfg.load_config(args.config)
        outdir = reporting.ensure_dir(args.out or config.get("output.dir"))
        if args.command == "solve":
            return cmd_solve(config, outdir)
        if args.command == "optimize":
            return cmd_optimize(config, outdir)
        if args.command == "verify":
            return cmd_verify(config, outdir, args.suite)
        if args.command == "convergence":
            return cmd_convergence(config, outdir, args.levels)
        if args.command == "certificate":
            return cmd_certificate(config, outdir)
        raise AssertionError(f"unhandled command {args.command}")
    except ThermoptError as exc:
        code = next(code for cls, code in _EXIT_CODES if isinstance(exc, cls))
        prefix = "configuration error" if code == EXIT_CONFIG else "error"
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
