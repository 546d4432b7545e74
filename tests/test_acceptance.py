"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured values and checked against the stated tolerance and runtime cap.
Run with `pytest tests/test_acceptance.py -v -s` to see every line.
"""

import math
import time

import numpy as np
import pytest

from thermopt.assembly import interpolate
from thermopt.control import (
    OptimizerOptions,
    dj_adjoint,
    dj_fd,
    dj_sensitivity,
    objective,
    optimize,
    solve_adjoint,
    solve_sensitivity,
)
from thermopt.fields import Control
from thermopt.materials import TruncatedPower
from thermopt.mesh import build_rectangle_mesh, dirichlet_on_planes, refine_uniform
from thermopt.state import ProblemSpec, SolverOptions, solve_state, weak_residual
from thermopt.transform import (
    check_certificate,
    compute_certificate,
    estimate_poincare,
    psi_checks,
    transform,
    transformed_residual,
)

SEED = 20240801
LEFT = dirichlet_on_planes("x=0")
ALL = dirichlet_on_planes("x=0", "x=1", "y=0", "y=1")
MODEL = TruncatedPower(1.0, 1.0, 2.0)


def benchmark_spec(n=16, u1_val=0.0, m_cap=2.0, model=MODEL, mesh=None):
    mesh = mesh or build_rectangle_mesh([1.0, 1.0], [n, n], LEFT)
    return ProblemSpec(
        mesh=mesh, model=model,
        u0=interpolate(mesh, lambda p: np.zeros(p.shape[0])),
        u1=interpolate(mesh, lambda p: np.full(p.shape[0], u1_val)),
        phi0=interpolate(mesh, lambda p: 0.1 * p[:, 0]),
        m_cap=m_cap)


class Timer:
    def __init__(self, cap):
        self.cap = cap

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0
        return False


def report(num, name, timer, detail):
    print(f"ACCEPTANCE {num} PASS ({timer.elapsed:.2f}s < {timer.cap:.0f}s cap): "
          f"{name}; {detail}")
    assert timer.elapsed < timer.cap


def test_criterion_1_conductivity_ratio_suite():
    with Timer(cap=1.0) as t:
        mu = 2.0
        assert MODEL.lipschitz_mu() == pytest.approx(mu)
        rng = np.random.default_rng(SEED)
        v = rng.uniform(0.0, 50.0, 100)
        w = rng.uniform(0.0, 50.0, 100)
        y = w - v
        ratio = np.asarray(MODEL.a(v + y) / MODEL.a(v))
        slack = 1.0 + 1e-12
        assert np.all(ratio <= np.exp(mu * np.abs(y)) * slack)
        assert np.all(ratio >= np.exp(-mu * np.abs(y)) / slack)
        grid = np.geomspace(1.0, 1e4, 256)
        g = np.asarray(MODEL.a(grid)) / grid ** 2 * MODEL.reciprocal_a_moment(grid)
        margin = float(np.max(g * grid))
        assert margin <= 1.0 + 1e-12
    report(1, "conductivity ratio bound and decay product", t,
           f"max g(v)*v = {margin:.6f} <= 1")


def test_criterion_2_maximum_principles():
    with Timer(cap=5.0) as t:
        spec = benchmark_spec()
        sol = solve_state(spec, Control.constant(spec.mesh, 1.0, 2.0))
        phi_min = float(np.min(sol.phi.values))
        phi_max = float(np.max(sol.phi.values))
        u_min = float(np.min(sol.u.values))
        assert phi_min >= 0.0 - 1e-10
        assert phi_max <= 0.1 + 1e-10
        assert u_min >= -1e-10
    report(2, "discrete maximum principles on the 16x16 benchmark", t,
           f"phi in [{phi_min:.3e}, {phi_max:.6f}], min u = {u_min:.3e}")


def test_criterion_3_subcritical_existence_mirror():
    with Timer(cap=30.0) as t:
        spec = benchmark_spec()
        beta = Control.constant(spec.mesh, 1.0, 2.0)
        opts = SolverOptions(tol=1e-9, max_iter=200)
        sol = solve_state(spec, beta, opts)
        assert sol.iterations <= 200
        level = sol.truncation_level
        max_u = float(np.max(sol.u.values))
        assert max_u < level
        r_u, r_phi = weak_residual(spec, beta, sol)
        assert r_u <= 1e-8 and r_phi <= 1e-8
        sol2 = solve_state(spec, beta, SolverOptions(truncation_level=0.5))
        gap = max(float(np.max(np.abs(sol.u.values - sol2.u.values))),
                  float(np.max(np.abs(sol.phi.values - sol2.phi.values))))
        assert gap <= 1e-9
    report(3, "truncation-and-verify solve", t,
           f"{sol.iterations} iterations, max u = {max_u:.4g} < n = {level}, "
           f"residuals ({r_u:.2e}, {r_phi:.2e}), level-independence gap {gap:.2e}")


def test_criterion_4_substitution_consistency():
    with Timer(cap=60.0) as t:
        spec = benchmark_spec()
        beta = Control.constant(spec.mesh, 1.0, 2.0)
        cert = compute_certificate(spec, eps=0.01, C1=1.0, auto_eps=True)
        sol = solve_state(spec, beta)
        ts = transform(sol, spec)
        r0 = transformed_residual(ts, spec, beta)
        d0 = psi_checks(ts, spec)[0]

        fine = refine_uniform(spec.mesh)
        fspec = benchmark_spec(mesh=fine)
        fbeta = Control.constant(fine, 1.0, 2.0)
        fsol = solve_state(fspec, fbeta)
        fts = transform(fsol, fspec)
        r1 = transformed_residual(fts, fspec, fbeta)
        d1 = psi_checks(fts, fspec)[0]
        assert r1[0] < r0[0] and r1[1] < r0[1]
        assert d1 < d0

        v = ts.v.values
        back = np.asarray(MODEL.F(np.asarray(MODEL.F_inv(v))))
        rt = float(np.max(np.abs(back - v) / (1.0 + v)))
        assert rt <= 1e-8
    report(4, "transformed system and psi identity under refinement", t,
           f"residuals {r0} -> {r1}, defect {d0:.2e} -> {d1:.2e}, "
           f"round trip {rt:.2e}")


def test_criterion_5_certificate_chain():
    with Timer(cap=60.0) as t:
        spec = benchmark_spec()
        cert = compute_certificate(spec, eps=0.01, C1=1.0, auto_eps=True)
        for name, value in cert.thresholds.items():
            assert cert.M > value, name
        assert 1.0 - 2.0 * cert.eps * math.exp(8 * cert.mu * cert.phi0_inf ** 2) \
            * cert.phi0_w1inf ** 2 > 0
        assert math.isfinite(cert.N) and cert.N < MODEL.u_star
        sol = solve_state(spec, Control.constant(spec.mesh, 1.0, 2.0))
        check = check_certificate(sol, cert, spec)
        assert check.passed and check.v_margin > 0 and check.u_margin > 0

        lams = []
        mesh = build_rectangle_mesh([1.0, 1.0], [8, 8], ALL)
        for _ in range(3):
            lams.append(1.0 / estimate_poincare(mesh)[0] ** 2)
            mesh = refine_uniform(mesh)
        lam_star = lams[2] + (lams[2] - lams[1]) / 3.0
        cd_star = 1.0 / math.sqrt(lam_star)
        exact = 1.0 / (math.pi * math.sqrt(2.0))
        poincare_err = abs(cd_star - exact) / exact
        assert poincare_err <= 0.02
    report(5, "a-priori bound certificate and Poincare constant", t,
           f"M = {cert.M:.1f}, N = {cert.N:.6f} < 1, v margin {check.v_margin:.1f}, "
           f"extrapolated C_D error {poincare_err:.2%}")


def test_criterion_6_gradient_triangle():
    with Timer(cap=300.0) as t:
        spec = benchmark_spec(u1_val=0.05, m_cap=2.0)
        beta = Control.constant(spec.mesh, 0.5, 2.0)
        opts = SolverOptions(tol=1e-12)
        state = solve_state(spec, beta, opts)
        adjoint = solve_adjoint(spec, beta, state)
        rng = np.random.default_rng(SEED)
        worst = 0.0
        for _ in range(5):
            ell = Control.variation(spec.mesh,
                                    rng.uniform(-1.0, 1.0, beta.values.size))
            pair = solve_sensitivity(spec, beta, state, ell)
            d1 = dj_adjoint(spec, state, adjoint, beta, ell)
            d2 = dj_sensitivity(spec, pair, beta, ell)
            d3 = dj_fd(spec, beta, ell, eps=1e-4, solver=opts)
            scale = max(abs(d1), abs(d2), abs(d3))
            gap = max(abs(d1 - d2), abs(d1 - d3), abs(d2 - d3)) / scale
            worst = max(worst, gap)
            assert gap <= 1e-3
    report(6, "adjoint = sensitivity = finite-difference derivative", t,
           f"worst pairwise relative gap {worst:.2e} <= 1e-3 over 5 directions")


def test_criterion_7_optimality_fixed_point():
    with Timer(cap=300.0) as t:
        spec = benchmark_spec(u1_val=0.05, m_cap=2.0)
        res = optimize(spec, OptimizerOptions(tol=1e-7))
        assert res.converged
        assert res.optimality_residual <= 1e-6
        hist = [h["J"] for h in res.history]
        assert all(a >= b for a, b in zip(hist, hist[1:]))

        j_star = objective(spec.mesh, res.state.u, res.beta).total
        rng = np.random.default_rng(SEED)
        worst_gap = -math.inf
        for _ in range(20):
            bvals = rng.uniform(0.0, spec.m_cap, res.beta.values.size)
            b = Control(spec.mesh, bvals, spec.m_cap)
            sol = solve_state(spec, b)
            j = objective(spec.mesh, sol.u, b).total
            worst_gap = max(worst_gap, j_star - j)
            assert j_star <= j + 1e-8
    report(7, "projection fixed point and global optimality probe", t,
           f"residual {res.optimality_residual:.2e}, "
           f"J* - min random J = {worst_gap:.3e}")


def test_criterion_8_degenerate_cases():
    with Timer(cap=10.0) as t:
        # admissible set collapsed to a point
        spec0 = benchmark_spec(u1_val=0.05, m_cap=0.0)
        res0 = optimize(spec0)
        assert np.all(res0.beta.values == 0.0)
        assert res0.optimality_residual == 0.0

        # constant data: state independent of the control, J minimized at 0
        mesh = build_rectangle_mesh([1.0, 1.0], [8, 8], LEFT)
        spec_const = ProblemSpec(
            mesh=mesh, model=MODEL,
            u0=interpolate(mesh, lambda p: np.full(p.shape[0], 0.3)),
            u1=interpolate(mesh, lambda p: np.full(p.shape[0], 0.3)),
            phi0=interpolate(mesh, lambda p: np.full(p.shape[0], 1.0)),
            m_cap=2.0)
        res_c = optimize(spec_const)
        assert np.all(res_c.beta.values == 0.0)
        assert np.allclose(res_c.state.u.values, 0.3, atol=1e-12)

        # zero variation: zero sensitivities, exactly
        spec = benchmark_spec(u1_val=0.05)
        beta = Control.constant(spec.mesh, 0.5, 2.0)
        state = solve_state(spec, beta)
        pair = solve_sensitivity(spec, beta, state, Control.variation(
            spec.mesh, np.zeros(beta.values.size)))
        assert np.all(pair.psi1.values == 0.0)
        assert np.all(pair.psi2.values == 0.0)
    report(8, "degenerate and trivial cases are exact", t,
           "m_cap = 0, constant data, and zero variation all land exactly")


def test_criterion_9_self_convergence():
    with Timer(cap=120.0) as t:
        from thermopt.cli import main
        import json
        import tempfile
        from pathlib import Path
        text = (
            "problem.extents = 1 1\n"
            "problem.divisions = 8 8\n"
            "problem.dirichlet = x=0\n"
            "problem.model.kind = constant\n"
            "problem.model.sigma0 = 1.0\n"
            "problem.u0 = 0\n"
            "problem.u1 = 0\n"
            "problem.phi0 = 0.1*sin(x + 0.5*y)\n"
            "problem.beta = 1.0\n"
            "problem.m_cap = 2.0\n")
        with tempfile.TemporaryDirectory() as td:
            cfg = Path(td) / "c.cfg"
            cfg.write_text(text)
            assert main(["convergence", "--config", str(cfg), "--levels", "3",
                         "--out", str(Path(td) / "o")]) == 0
            with open(Path(td) / "o" / "report.json") as fh:
                rates = json.load(fh)["rates"]
        for field in ("u", "phi"):
            assert 1.7 <= rates[f"{field}_l2"] <= 2.3, rates
            assert 0.7 <= rates[f"{field}_h1"] <= 1.3, rates
    report(9, "self-convergence orders for the smooth constant-sigma case", t,
           ", ".join(f"{k} = {v:.3f}" for k, v in sorted(rates.items())))


@pytest.mark.parametrize("argv", [["certificate"], ["verify", "--suite", "lemma1"],
                                  ["verify", "--suite", "substitution"]],
                         ids=["certificate", "lemma1", "substitution"])
def test_general_exponent_commands_finish(tmp_path, argv):
    from thermopt.cli import main
    cfg = tmp_path / "c.cfg"
    cfg.write_text("problem.extents = 1 1\n"
                   "problem.divisions = 4 4\n"
                   "problem.dirichlet = x=0\n"
                   "problem.model.kind = truncated_power\n"
                   "problem.model.p = 3.0\n"
                   "problem.u1 = 0.05\n"
                   "problem.phi0 = 0.1*x\n"
                   "problem.beta = 1.0\n")
    with Timer(cap=5.0) as t:
        code = main(argv + ["--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 0
    report("p = 3", " ".join(argv) + " on a 4x4 square", t, "exit 0")
