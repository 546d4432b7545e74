import math

import numpy as np
import pytest

from thermopt.assembly import interpolate
from thermopt.errors import CertificateInfeasibleError, DomainError
from thermopt.fields import Control, FieldKind
from thermopt.materials import Constant, TruncatedPower
from thermopt.mesh import build_rectangle_mesh, dirichlet_on_planes, refine_uniform
from thermopt.state import ProblemSpec, solve_state
from thermopt.transform import (
    certificate_chain,
    check_certificate,
    compute_C_eps,
    compute_certificate,
    energy_inequality_report,
    estimate_poincare,
    psi_identity_defect,
    psi_inequality_margin,
    moser_factor,
    smallness_margin_k1,
    transform,
    transformed_residual,
)

LEFT = dirichlet_on_planes("x=0")
ALL = dirichlet_on_planes("x=0", "x=1", "y=0", "y=1")
MODEL = TruncatedPower(1.0, 1.0, 2.0)


def make_spec(mesh, model=MODEL, u1_val=0.0, phi0_scale=0.1):
    return ProblemSpec(
        mesh=mesh,
        model=model,
        u0=interpolate(mesh, lambda p: np.zeros(p.shape[0]), FieldKind.TEMPERATURE),
        u1=interpolate(mesh, lambda p: np.full(p.shape[0], u1_val),
                       FieldKind.TEMPERATURE),
        phi0=interpolate(mesh, lambda p: phi0_scale * p[:, 0], FieldKind.POTENTIAL),
        m_cap=2.0,
    )


def solved_benchmark(n=16):
    mesh = build_rectangle_mesh([1.0, 1.0], [n, n], LEFT)
    spec = make_spec(mesh)
    beta = Control.constant(mesh, 1.0, 2.0)
    return spec, beta, solve_state(spec, beta)


def test_energy_inequality_report_general_p():
    model = TruncatedPower(1.0, 1.0, 3.0)
    mesh = build_rectangle_mesh([1.0, 1.0], [3, 3], LEFT)
    spec = make_spec(mesh, model, u1_val=0.05, phi0_scale=1.0)
    beta = Control.constant(mesh, 1.0, 2.0)
    sol = solve_state(spec, beta)
    psi = transform(sol, model, spec.phi0, m_threshold=0.0).psi.values
    ts = transform(sol, model, spec.phi0, m_threshold=float(np.median(psi)))
    report = energy_inequality_report(ts, model, spec, beta)
    assert report["gamma_m_active"]
    assert math.isfinite(report["lhs"]) and math.isfinite(report["rhs"])
    assert report["lhs"] > 0.0


def test_transform_trivial_constant():
    mesh = build_rectangle_mesh([1.0, 1.0], [4, 4], LEFT)
    spec = make_spec(mesh, phi0_scale=0.0)
    beta = Control.constant(mesh, 1.0, 2.0)
    sol = solve_state(spec, beta)
    ts = transform(sol, MODEL, spec.phi0, m_threshold=5.0)
    assert np.allclose(ts.v.values, 0.0, atol=1e-12)
    assert np.allclose(ts.psi.values, 0.0, atol=1e-12)
    assert np.allclose(ts.psi_m.values, 5.0, atol=0)


def test_transform_closed_form_values():
    # u = 0.5, phi = phi0 gives v = 1, psi = 1 for the p=2 reference model
    mesh = build_rectangle_mesh([1.0, 1.0], [2, 2], LEFT)
    from thermopt.fields import Field
    from thermopt.state import StateSolution
    u = Field(mesh, np.full(mesh.n_vertices, 0.5), FieldKind.TEMPERATURE)
    phi = Field(mesh, np.full(mesh.n_vertices, 0.2), FieldKind.POTENTIAL)
    sol = StateSolution(u, phi, 1, 0.0, 0.0, 0, None)
    phi0 = Field(mesh, np.full(mesh.n_vertices, 0.2), FieldKind.POTENTIAL)
    ts = transform(sol, MODEL, phi0, m_threshold=10.0)
    assert np.allclose(ts.v.values, 1.0, rtol=1e-14)
    assert np.allclose(ts.psi.values, 1.0, rtol=1e-14)
    assert np.all(ts.psi.values >= ts.v.values - 1e-15)


def test_transform_round_trip_recovers_u():
    spec, beta, sol = solved_benchmark(8)
    ts = transform(sol, MODEL, spec.phi0, m_threshold=101.0)
    back = np.asarray(MODEL.F_inv(ts.v.values))
    assert np.max(np.abs(back - sol.u.values)) <= 1e-8


def test_transform_rejects_critical_temperature():
    mesh = build_rectangle_mesh([1.0, 1.0], [2, 2], LEFT)
    from thermopt.fields import Field
    from thermopt.state import StateSolution
    u = Field(mesh, np.full(mesh.n_vertices, 1.0), FieldKind.TEMPERATURE)
    phi = Field(mesh, np.zeros(mesh.n_vertices), FieldKind.POTENTIAL)
    sol = StateSolution(u, phi, 1, 0.0, 0.0, 0, None)
    with pytest.raises(DomainError):
        transform(sol, MODEL, phi, m_threshold=1.0)


def test_transformed_residual_trivial_case():
    mesh = build_rectangle_mesh([1.0, 1.0], [4, 4], LEFT)
    spec = ProblemSpec(
        mesh=mesh, model=MODEL,
        u0=interpolate(mesh, lambda p: np.full(p.shape[0], 0.3), FieldKind.TEMPERATURE),
        u1=interpolate(mesh, lambda p: np.full(p.shape[0], 0.3), FieldKind.TEMPERATURE),
        phi0=interpolate(mesh, lambda p: np.full(p.shape[0], 1.0), FieldKind.POTENTIAL),
        m_cap=2.0)
    beta = Control.constant(mesh, 1.0, 2.0)
    sol = solve_state(spec, beta)
    ts = transform(sol, MODEL, spec.phi0, m_threshold=10.0)
    r_v, r_phi = transformed_residual(ts, MODEL, spec, beta)
    assert r_v <= 1e-9
    assert r_phi <= 1e-9


def test_transformed_residual_decreases_under_refinement():
    spec, beta, sol = solved_benchmark(8)
    ts = transform(sol, MODEL, spec.phi0, m_threshold=101.0)
    r_v0, r_phi0 = transformed_residual(ts, MODEL, spec, beta)

    fine = refine_uniform(spec.mesh)
    fspec = make_spec(fine)
    fbeta = Control.constant(fine, 1.0, 2.0)
    fsol = solve_state(fspec, fbeta)
    fts = transform(fsol, MODEL, fspec.phi0, m_threshold=101.0)
    r_v1, r_phi1 = transformed_residual(fts, MODEL, fspec, fbeta)
    assert r_v1 < r_v0
    assert r_phi1 < r_phi0


def test_psi_identity_defect_small_and_decreasing():
    spec, beta, sol = solved_benchmark(8)
    ts = transform(sol, MODEL, spec.phi0, m_threshold=101.0)
    d0 = psi_identity_defect(ts, MODEL, spec)

    fine = refine_uniform(spec.mesh)
    fspec = make_spec(fine)
    fsol = solve_state(fspec, Control.constant(fine, 1.0, 2.0))
    fts = transform(fsol, MODEL, fspec.phi0, m_threshold=101.0)
    d1 = psi_identity_defect(fts, MODEL, fspec)
    assert d1 < d0


def test_psi_identity_reduces_to_state_residual_for_constant_phi0():
    # phi0 constant and phi = phi0: two terms vanish, identity is the v-equation
    mesh = build_rectangle_mesh([1.0, 1.0], [8, 8], LEFT)
    spec = ProblemSpec(
        mesh=mesh, model=MODEL,
        u0=interpolate(mesh, lambda p: np.zeros(p.shape[0]), FieldKind.TEMPERATURE),
        u1=interpolate(mesh, lambda p: np.zeros(p.shape[0]), FieldKind.TEMPERATURE),
        phi0=interpolate(mesh, lambda p: np.full(p.shape[0], 0.7), FieldKind.POTENTIAL),
        m_cap=2.0)
    beta = Control.constant(mesh, 1.0, 2.0)
    sol = solve_state(spec, beta)
    ts = transform(sol, MODEL, spec.phi0, m_threshold=10.0)
    defect = psi_identity_defect(ts, MODEL, spec)
    assert defect <= max(sol.residual_u, 1e-12) * 10 + 1e-12


def test_psi_inequality_holds_weakly():
    spec, beta, sol = solved_benchmark(8)
    ts = transform(sol, MODEL, spec.phi0, m_threshold=101.0)
    margin = psi_inequality_margin(ts, MODEL, spec)
    defect = psi_identity_defect(ts, MODEL, spec)
    assert margin >= -(10 * defect + 1e-10)


def test_c_eps_constant_model_closed_form():
    # product = v for sigma = 1, so sup(v - eps v^2) = 1/(4 eps)
    eps = 0.01
    got = compute_C_eps(Constant(1.0), eps)
    exact = 1.0 / (4.0 * eps)
    assert exact <= got <= exact * 1.05 * 1.001


def test_c_eps_truncated_power_finite_and_positive():
    got = compute_C_eps(MODEL, 0.01)
    # interior maximizer of (1+v)/3 - 1/(3(1+v)^2) - 0.01 v^2 is near v = 16.2
    v = np.linspace(1.0, 60.0, 20000)
    product = ((1.0 + v) ** 3 - 1.0) / (3.0 * (1.0 + v) ** 2) - 0.01 * v ** 2
    exact = float(np.max(product))
    assert exact <= got <= exact * 1.05 * 1.001


def test_c_eps_large_eps_small():
    got = compute_C_eps(Constant(1.0), 1e4)
    assert 0.0 <= got < 1e-3


def test_poincare_full_dirichlet_square():
    # lambda_min -> 2 pi^2, so C_D -> 1/(pi sqrt 2); Richardson over 3 levels
    lams = []
    mesh = build_rectangle_mesh([1.0, 1.0], [8, 8], ALL)
    for _ in range(3):
        cd = estimate_poincare(mesh)
        lams.append(1.0 / cd ** 2)
        mesh = refine_uniform(mesh)
    # conformity: discrete eigenvalues decrease towards the continuum value
    assert lams[0] > lams[1] > lams[2] > 2 * math.pi ** 2
    lam_star = lams[2] + (lams[2] - lams[1]) / 3.0
    cd_star = 1.0 / math.sqrt(lam_star)
    exact = 1.0 / (math.pi * math.sqrt(2.0))
    assert abs(cd_star - exact) / exact <= 0.02


def test_poincare_smaller_dirichlet_part_larger_constant():
    mesh_all = build_rectangle_mesh([1.0, 1.0], [16, 16], ALL)
    mesh_left = build_rectangle_mesh([1.0, 1.0], [16, 16], LEFT)
    assert estimate_poincare(mesh_left) > estimate_poincare(mesh_all)


def test_poincare_mixed_eigenvalue_oracle():
    # Dirichlet on x=0 only: eigenfunction sin(pi x / 2), lambda = pi^2/4
    mesh = build_rectangle_mesh([1.0, 1.0], [32, 32], LEFT)
    cd = estimate_poincare(mesh)
    assert 1.0 / cd ** 2 == pytest.approx(math.pi ** 2 / 4.0, rel=5e-3)


def test_certificate_chain_d3_factor():
    # dimension-3 bootstrap factor is (2 C2)^(3/2) * 3^(3/4)
    C2 = 1.7
    assert moser_factor(3, C2) == pytest.approx((2 * C2) ** 1.5 * 3.0 ** 0.75, rel=1e-14)
    assert moser_factor(2, C2) == pytest.approx(2 * C2)


def test_certificate_chain_phi0_zero_gives_zero_C():
    # C vanishes with phi0, so the psi_M bound reduces to the M-driven value
    mes = 1.0
    chain = certificate_chain(2, mes, 2.0, 0.0, 0.0, 0.0, 0.0,
                              eps=0.01, C_eps=3.0, C_D=0.5, C1=1.0)
    assert chain["C"] == 0.0
    m_driven = math.sqrt(2.0 * mes * chain["M"] ** 2 * mes)
    assert chain["psiM_l2_bound"] == pytest.approx(m_driven, rel=1e-14)
    assert chain["C2"] == pytest.approx(0.5)  # no gradient contribution
    assert chain["v_inf_bound"] == pytest.approx(chain["psiM_inf_bound"])


def test_certificate_benchmark_values():
    spec, beta, sol = solved_benchmark(16)
    cert = compute_certificate(MODEL, spec, eps=0.01, C1=1.0)
    thresholds = cert.threshold_values()
    for name, value in thresholds.items():
        assert cert.M > value, name
    assert cert.M == pytest.approx(101.0, rel=1e-6)
    assert 0 < cert.C < 1.0
    assert cert.N < 1.0
    assert math.isfinite(cert.N)
    assert cert.r == 2.0
    assert math.isinf(cert.s)
    check = check_certificate(sol, cert, MODEL)
    assert check.passed
    assert check.v_margin > 0 and check.u_margin > 0


def test_certificate_monotone_in_phi0_and_mu():
    base = dict(dim=2, mes_omega=1.0, F_u0=0.0, F_u1=0.05, eps=0.01,
                C_eps=3.3, C_D=0.64, C1=1.0)
    v_bounds = [certificate_chain(mu=2.0, phi0_inf=s, phi0_w1inf=s, **base)["v_inf_bound"]
                for s in (0.1, 0.2, 0.4)]
    assert v_bounds[0] <= v_bounds[1] <= v_bounds[2]
    v_bounds = [certificate_chain(mu=m, phi0_inf=0.1, phi0_w1inf=0.1, **base)["v_inf_bound"]
                for m in (2.0, 3.0, 4.0)]
    assert v_bounds[0] <= v_bounds[1] <= v_bounds[2]


def test_certificate_infeasible_eps_raises():
    with pytest.raises(CertificateInfeasibleError):
        certificate_chain(2, 1.0, 2.0, 1.0, 1.0, 0.0, 0.0,
                          eps=10.0, C_eps=1.0, C_D=0.5, C1=1.0)


def test_certificate_auto_eps_recovers():
    spec, _, _ = solved_benchmark(4)
    cert = compute_certificate(MODEL, spec, eps=1e6, C1=1.0, auto_eps=True)
    assert cert.eps < 1e6
    assert math.isfinite(cert.N)


def test_certificate_pinned_infeasible_eps_raises():
    mesh = build_rectangle_mesh([1.0, 1.0], [4, 4], LEFT)
    spec = make_spec(mesh, phi0_scale=1.0)  # |phi0| = 1 makes exp term large
    with pytest.raises(CertificateInfeasibleError):
        compute_certificate(MODEL, spec, eps=10.0, C1=1.0, auto_eps=False)


def test_certificate_3d_problem():
    rule = dirichlet_on_planes("x=0")
    mesh = build_rectangle_mesh([1.0, 1.0, 1.0], [3, 3, 3], rule)
    spec = ProblemSpec(
        mesh=mesh, model=MODEL,
        u0=interpolate(mesh, lambda p: np.zeros(p.shape[0]), FieldKind.TEMPERATURE),
        u1=interpolate(mesh, lambda p: np.zeros(p.shape[0]), FieldKind.TEMPERATURE),
        phi0=interpolate(mesh, lambda p: 0.1 * p[:, 0], FieldKind.POTENTIAL),
        m_cap=2.0)
    cert = compute_certificate(MODEL, spec, eps=0.01, C1=1.0)
    assert cert.dim == 3
    assert cert.r == 4.0
    assert cert.s == pytest.approx(4.0)  # 2(d-1)/(d-2) at d = 3
    assert math.isfinite(cert.N) and cert.N < 1.0
    # chain consistency: the dimension-3 factor connects the two psi bounds
    assert cert.psiM_inf_bound == pytest.approx(
        moser_factor(3, cert.C2) * cert.psiM_l2_bound, rel=1e-12)


def test_tiny_c1_flagged_in_check():
    spec, beta, sol = solved_benchmark(8)
    cert = compute_certificate(MODEL, spec, eps=0.01, C1=1.0)
    assert "heuristic" in cert.c1_provenance
    check = check_certificate(sol, cert, MODEL)
    assert "heuristic" in check.c1_provenance


def test_energy_inequality_report_trivial_on_benchmark():
    spec, beta, sol = solved_benchmark(8)
    cert = compute_certificate(MODEL, spec, eps=0.01, C1=1.0)
    ts = transform(sol, MODEL, spec.phi0, m_threshold=cert.M)
    report = energy_inequality_report(ts, MODEL, spec, beta)
    assert report["satisfied"]
    assert not report["gamma_m_active"]  # psi stays far below M


def test_smallness_margin_k1_signs():
    assert smallness_margin_k1(k=1.0, K_lip=0.0, M1=1.0, M2=1.0, C6=1.0,
                               C1_u=1.0, Phi=1.0, mu=2.0,
                               phi0_grad_inf=0.0, M_tilde=0.1) == pytest.approx(1.0)
    assert smallness_margin_k1(k=0.1, K_lip=2.0, M1=1.0, M2=1.0, C6=1.0,
                               C1_u=0.5, Phi=1.0, mu=2.0,
                               phi0_grad_inf=0.5, M_tilde=0.5) < 0
