import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg

from thermopt import assembly, transform as transform_mod
from thermopt.assembly import assemble_mass, geometry, interpolate, w1inf_proxy
from thermopt.errors import CertificateInfeasibleError, DomainError, EstimationError
from thermopt.fields import Control
from thermopt.materials import Constant, TruncatedPower
from thermopt.mesh import (
    BoundaryTag,
    build_rectangle_mesh,
    dirichlet_on_planes,
    refine_uniform,
)
from thermopt.state import ProblemSpec, solve_state
from thermopt.transform import (
    certificate_chain,
    exp_weight,
    check_certificate,
    compute_C_eps,
    compute_certificate,
    estimate_poincare,
    moser_factor,
    psi_checks,
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
        u0=interpolate(mesh, lambda p: np.zeros(p.shape[0])),
        u1=interpolate(mesh, lambda p: np.full(p.shape[0], u1_val)),
        phi0=interpolate(mesh, lambda p: phi0_scale * p[:, 0]),
        m_cap=2.0,
    )


def solved_benchmark(n=16):
    mesh = build_rectangle_mesh([1.0, 1.0], [n, n], LEFT)
    spec = make_spec(mesh)
    beta = Control.constant(mesh, 1.0, 2.0)
    return spec, beta, solve_state(spec, beta)


def test_transform_trivial_constant():
    mesh = build_rectangle_mesh([1.0, 1.0], [4, 4], LEFT)
    spec = make_spec(mesh, phi0_scale=0.0)
    beta = Control.constant(mesh, 1.0, 2.0)
    sol = solve_state(spec, beta)
    ts = transform(sol, spec)
    assert np.allclose(ts.v.values, 0.0, atol=1e-12)
    assert np.allclose(ts.psi.values, 0.0, atol=1e-12)


def test_transform_closed_form_values():
    # u = 0.5, phi = phi0 gives v = 1, psi = 1 for the p=2 reference model
    mesh = build_rectangle_mesh([1.0, 1.0], [2, 2], LEFT)
    from thermopt.fields import Field
    from thermopt.state import StateSolution
    u = Field(mesh, np.full(mesh.n_vertices, 0.5))
    phi = Field(mesh, np.full(mesh.n_vertices, 0.2))
    sol = StateSolution(u, phi, 1, 0.0, 0.0, 0, None)
    phi0 = Field(mesh, np.full(mesh.n_vertices, 0.2))
    ts = transform(sol, dataclasses.replace(make_spec(mesh), phi0=phi0))
    assert np.allclose(ts.v.values, 1.0, rtol=1e-14)
    assert np.allclose(ts.psi.values, 1.0, rtol=1e-14)
    assert np.all(ts.psi.values >= ts.v.values - 1e-15)


def test_transform_round_trip_recovers_u():
    spec, beta, sol = solved_benchmark(8)
    ts = transform(sol, spec)
    back = np.asarray(MODEL.F_inv(ts.v.values))
    assert np.max(np.abs(back - sol.u.values)) <= 1e-8


def test_transform_rejects_critical_temperature():
    mesh = build_rectangle_mesh([1.0, 1.0], [2, 2], LEFT)
    from thermopt.fields import Field
    from thermopt.state import StateSolution
    u = Field(mesh, np.full(mesh.n_vertices, 1.0))
    phi = Field(mesh, np.zeros(mesh.n_vertices))
    sol = StateSolution(u, phi, 1, 0.0, 0.0, 0, None)
    with pytest.raises(DomainError):
        transform(sol, make_spec(mesh))


def test_transformed_residual_trivial_case():
    mesh = build_rectangle_mesh([1.0, 1.0], [4, 4], LEFT)
    spec = ProblemSpec(
        mesh=mesh, model=MODEL,
        u0=interpolate(mesh, lambda p: np.full(p.shape[0], 0.3)),
        u1=interpolate(mesh, lambda p: np.full(p.shape[0], 0.3)),
        phi0=interpolate(mesh, lambda p: np.full(p.shape[0], 1.0)),
        m_cap=2.0)
    beta = Control.constant(mesh, 1.0, 2.0)
    sol = solve_state(spec, beta)
    ts = transform(sol, spec)
    r_v, r_phi = transformed_residual(ts, spec, beta)
    assert r_v <= 1e-9
    assert r_phi <= 1e-9


def test_transformed_residual_decreases_under_refinement():
    spec, beta, sol = solved_benchmark(8)
    ts = transform(sol, spec)
    r_v0, r_phi0 = transformed_residual(ts, spec, beta)

    fine = refine_uniform(spec.mesh)
    fspec = make_spec(fine)
    fbeta = Control.constant(fine, 1.0, 2.0)
    fsol = solve_state(fspec, fbeta)
    fts = transform(fsol, fspec)
    r_v1, r_phi1 = transformed_residual(fts, fspec, fbeta)
    assert r_v1 < r_v0
    assert r_phi1 < r_phi0


def test_psi_identity_defect_small_and_decreasing():
    spec, beta, sol = solved_benchmark(8)
    ts = transform(sol, spec)
    d0 = psi_checks(ts, spec)[0]

    fine = refine_uniform(spec.mesh)
    fspec = make_spec(fine)
    fsol = solve_state(fspec, Control.constant(fine, 1.0, 2.0))
    fts = transform(fsol, fspec)
    d1 = psi_checks(fts, fspec)[0]
    assert d1 < d0


def test_psi_identity_reduces_to_state_residual_for_constant_phi0():
    # phi0 constant and phi = phi0: two terms vanish, identity is the v-equation
    mesh = build_rectangle_mesh([1.0, 1.0], [8, 8], LEFT)
    spec = ProblemSpec(
        mesh=mesh, model=MODEL,
        u0=interpolate(mesh, lambda p: np.zeros(p.shape[0])),
        u1=interpolate(mesh, lambda p: np.zeros(p.shape[0])),
        phi0=interpolate(mesh, lambda p: np.full(p.shape[0], 0.7)),
        m_cap=2.0)
    beta = Control.constant(mesh, 1.0, 2.0)
    sol = solve_state(spec, beta)
    ts = transform(sol, spec)
    defect = psi_checks(ts, spec)[0]
    assert defect <= max(sol.residual_u, 1e-12) * 10 + 1e-12


def test_psi_inequality_holds_weakly():
    spec, beta, sol = solved_benchmark(8)
    ts = transform(sol, spec)
    defect, margin = psi_checks(ts, spec)
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
        cd = estimate_poincare(mesh)[0]
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
    assert estimate_poincare(mesh_left)[0] > estimate_poincare(mesh_all)[0]


def test_poincare_mixed_eigenvalue_oracle():
    # Dirichlet on x=0 only: eigenfunction sin(pi x / 2), lambda = pi^2/4
    mesh = build_rectangle_mesh([1.0, 1.0], [32, 32], LEFT)
    cd = estimate_poincare(mesh)[0]
    assert 1.0 / cd ** 2 == pytest.approx(math.pi ** 2 / 4.0, rel=5e-3)


def dense_poincare(mesh):
    """C_D from scipy.linalg.eigh on the dense free-vertex blocks of (K, M)."""
    fixed = mesh.boundary_vertex_set(BoundaryTag.DIRICHLET_TEMPERATURE)
    free = np.setdiff1d(np.arange(mesh.n_vertices), fixed)
    K = geometry(mesh).stiffness.toarray()[np.ix_(free, free)]
    M = assemble_mass(mesh).toarray()[np.ix_(free, free)]
    return 1.0 / math.sqrt(scipy.linalg.eigh(K, M, eigvals_only=True)[0])


@pytest.mark.parametrize("extents, divisions, iterates", [
    ([1.0, 1.0], [1, 1], False), ([2.0, 1.0], [2, 1], False),
    ([1.0, 1.0, 1.0], [1, 1, 1], False), ([1.0, 1.0, 1.0], [3, 2, 3], True)])
def test_poincare_matches_dense_oracle(extents, divisions, iterates):
    # the first three have 2 to 4 free vertices, fewer than scipy's lobpcg
    # takes without warning (an error under this suite's filterwarnings)
    mesh = build_rectangle_mesh(extents, divisions, LEFT)
    c_d, iterations = estimate_poincare(mesh)
    assert c_d == pytest.approx(dense_poincare(mesh), rel=1e-10)
    assert (iterations > 0) == iterates


def test_poincare_preconditioner_changes_only_the_iterations(monkeypatch):
    # a 3D box preconditions LOBPCG by its box inverse of K and factors
    # nothing; the same mesh without its grid takes K's factor
    shapes, factor_spd = [], assembly.factor_spd
    monkeypatch.setattr(assembly, "factor_spd",
                        lambda matrix: shapes.append(matrix.shape) or factor_spd(matrix))
    mesh = build_rectangle_mesh([1.0, 1.0, 1.0], [8, 8, 8], LEFT)
    box, box_iterations = estimate_poincare(mesh)
    assert shapes == []
    factored, factored_iterations = estimate_poincare(dataclasses.replace(mesh, grid=None))
    assert shapes == [(8 * 9 * 9,) * 2]   # the vertices off x = 0
    assert box == pytest.approx(factored, rel=1e-10)
    assert min(box_iterations, factored_iterations) > 0


def test_poincare_unconverged_lobpcg_raises(monkeypatch):
    monkeypatch.setattr(transform_mod, "POINCARE_MAX_ITER", 1)
    with pytest.raises(EstimationError, match="LOBPCG did not reach"):
        estimate_poincare(build_rectangle_mesh([1.0, 1.0], [16, 16], LEFT))


def test_poincare_without_free_vertex_raises():
    with pytest.raises(EstimationError, match="every vertex"):
        estimate_poincare(build_rectangle_mesh([1.0, 1.0], [1, 1], ALL))


def test_certificate_chain_d3_factor():
    # dimension-3 bootstrap factor is (2 C2)^(3/2) * 3^(3/4)
    C2 = 1.7
    assert moser_factor(3, C2) == pytest.approx((2 * C2) ** 1.5 * 3.0 ** 0.75, rel=1e-14)
    assert moser_factor(2, C2) == pytest.approx(2 * C2)


def test_certificate_chain_phi0_zero_gives_zero_C():
    # C vanishes with phi0, so the psi_M bound reduces to the M-driven value
    mes = 1.0
    chain = certificate_chain(2, mes, exp_weight(2.0, 0.0, 0.0), 0.0, 0.0, 0.0,
                              eps=0.01, C_eps=3.0, C_D=0.5, C1=1.0)
    assert chain["C"] == 0.0
    m_driven = math.sqrt(2.0 * mes * chain["M"] ** 2 * mes)
    assert chain["psiM_l2_bound"] == pytest.approx(m_driven, rel=1e-14)
    assert chain["C2"] == pytest.approx(0.5)  # no gradient contribution
    assert chain["v_inf_bound"] == pytest.approx(chain["psiM_inf_bound"])


def test_certificate_benchmark_values():
    spec, beta, sol = solved_benchmark(16)
    cert = compute_certificate(spec, eps=0.01, C1=1.0, auto_eps=True)
    thresholds = cert.thresholds
    for name, value in thresholds.items():
        assert cert.M > value, name
    assert cert.M == pytest.approx(101.0, rel=1e-6)
    assert 0 < cert.C < 1.0
    assert cert.N < 1.0
    assert math.isfinite(cert.N)
    assert cert.r == 2.0
    assert math.isinf(cert.s)
    check = check_certificate(sol, cert, spec)
    assert check.passed
    assert check.v_margin > 0 and check.u_margin > 0


def test_certificate_monotone_in_phi0_and_mu():
    base = dict(dim=2, mes_omega=1.0, F_u0=0.0, F_u1=0.05, eps=0.01,
                C_eps=3.3, C_D=0.64, C1=1.0)
    v_bounds = [certificate_chain(exp_term=exp_weight(2.0, s, s), phi0_inf=s, **base)["v_inf_bound"]
                for s in (0.1, 0.2, 0.4)]
    assert v_bounds[0] <= v_bounds[1] <= v_bounds[2]
    v_bounds = [certificate_chain(exp_term=exp_weight(m, 0.1, 0.1), phi0_inf=0.1,
                                   **base)["v_inf_bound"]
                for m in (2.0, 3.0, 4.0)]
    assert v_bounds[0] <= v_bounds[1] <= v_bounds[2]


def test_certificate_infeasible_eps_raises():
    with pytest.raises(CertificateInfeasibleError):
        certificate_chain(2, 1.0, exp_weight(2.0, 1.0, 1.0), 1.0, 0.0, 0.0,
                          eps=10.0, C_eps=1.0, C_D=0.5, C1=1.0)


def test_certificate_auto_eps_recovers():
    spec, _, _ = solved_benchmark(4)
    cert = compute_certificate(spec, eps=1e6, C1=1.0, auto_eps=True)
    assert cert.eps < 1e6
    assert math.isfinite(cert.N)


def test_certificate_counts_its_halvings():
    spec, _, _ = solved_benchmark(4)
    cert = compute_certificate(spec, eps=1e6, C1=1.0, auto_eps=True)
    assert cert.eps_halvings > 0
    assert cert.eps == math.ldexp(1e6, -cert.eps_halvings)
    assert cert.notes == [f"eps halved {cert.eps_halvings} times to {cert.eps:g} "
                          "(denominators below 0.5)"]


def test_certificate_pinned_infeasible_eps_raises():
    mesh = build_rectangle_mesh([1.0, 1.0], [4, 4], LEFT)
    spec = make_spec(mesh, phi0_scale=1.0)  # |phi0| = 1 makes exp term large
    with pytest.raises(CertificateInfeasibleError):
        compute_certificate(spec, eps=10.0, C1=1.0, auto_eps=False)


def test_certificate_overflowing_chain_raises():
    # at phi0 = 5x auto-eps halves eps until M * M overflows to inf: that v_inf
    # bound puts N at u_star, which certifies nothing
    spec = make_spec(build_rectangle_mesh([1.0, 1.0], [4, 4], LEFT), phi0_scale=5.0)
    with pytest.raises(CertificateInfeasibleError, match="v_inf bound overflows"):
        compute_certificate(spec, eps=0.01, C1=1.0, auto_eps=True)


def test_certificate_with_n_at_u_star_fails_its_check():
    # at phi0 = 2x the v_inf bound is finite but F_inv rounds it to u_star:
    # every solution meets N, and the check must not call that a pass
    spec = make_spec(build_rectangle_mesh([1.0, 1.0], [4, 4], LEFT), phi0_scale=2.0)
    cert = compute_certificate(spec, eps=0.01, C1=1.0, auto_eps=True)
    assert math.isfinite(cert.v_inf_bound) and cert.N == MODEL.u_star
    _, _, sol = solved_benchmark(4)
    check = check_certificate(sol, cert, spec)
    assert check.max_v <= cert.v_inf_bound and check.max_u <= cert.N
    assert not check.passed


def test_certificate_overflowing_weight_raises_for_every_eps():
    # at phi0 = 12x the weight e^(8 mu |phi0|^2) overflows; auto-eps must not retry
    spec = make_spec(build_rectangle_mesh([1.0, 1.0], [4, 4], LEFT), phi0_scale=12.0)
    with pytest.raises(CertificateInfeasibleError, match="overflows"):
        compute_certificate(spec, eps=0.01, C1=1.0, auto_eps=True)


def halving_certificate(spec, eps):
    """(eps, v_inf bound) by the search that compute_certificate's closed form
    replaced: halve eps one step at a time until certificate_chain leaves
    both denominators above 0.5."""
    model, mesh = spec.model, spec.mesh
    phi0_inf = float(np.max(np.abs(spec.phi0.values)))
    exp_term = exp_weight(model.lipschitz_mu(), phi0_inf, w1inf_proxy(spec.phi0))
    data = (float(model.F(float(np.max(spec.u0.values)))),
            float(model.F(float(np.max(spec.u1.values)))))
    mes_omega = float(geometry(mesh).volumes.sum())
    C_D = estimate_poincare(mesh)[0]
    while True:
        try:
            chain = certificate_chain(mesh.dim, mes_omega, exp_term, phi0_inf, *data, eps,
                                      compute_C_eps(model, eps), C_D, 1.0)
            if chain["den1"] > 0.5 and chain["den2"] > 0.5:
                return eps, chain["v_inf_bound"]
        except CertificateInfeasibleError:
            pass
        eps *= 0.5


CLOSED_FORM_MESHES = [([1.0, 1.0], [4, 4]), ([1.0, 1.0, 1.0], [3, 3, 3])]


@pytest.mark.parametrize("extents, divisions", CLOSED_FORM_MESHES)
@pytest.mark.parametrize("phi0_scale", [0.1, 0.5, 1.0, 2.0, 3.0, 4.0, 4.5])
@pytest.mark.parametrize("eps0", [0.01, 1e6])
def test_closed_form_eps_matches_halving_search(extents, divisions, phi0_scale, eps0):
    spec = make_spec(build_rectangle_mesh(extents, divisions, LEFT), phi0_scale=phi0_scale)
    eps, v_inf = halving_certificate(spec, eps0)
    if not math.isfinite(v_inf):
        with pytest.raises(CertificateInfeasibleError, match="v_inf bound overflows"):
            compute_certificate(spec, eps=eps0, C1=1.0, auto_eps=True)
        return
    cert = compute_certificate(spec, eps=eps0, C1=1.0, auto_eps=True)
    assert cert.eps == eps
    assert cert.v_inf_bound == v_inf
    assert cert.N == float(MODEL.F_inv(min(v_inf, 1e300)))
    halvings = round(math.log2(eps0 / eps))
    notes = [note for note in cert.notes if "eps halved" in note]
    assert len(notes) == (halvings > 0)
    assert all(f"halved {halvings} times" in note for note in notes)


def test_closed_form_eps_keeps_overflowing_product_in_range():
    # at phi0 = 6.6x, eps0 times the weight overflows; the halvings must still
    # make both denominators positive, so the v_inf bound is what overflows
    spec = make_spec(build_rectangle_mesh([1.0, 1.0], [4, 4], LEFT), phi0_scale=6.6)
    with pytest.raises(CertificateInfeasibleError, match="v_inf bound overflows"):
        compute_certificate(spec, eps=1e6, C1=1.0, auto_eps=True)


@pytest.mark.parametrize("eps", [0.0, -1.0])
def test_nonpositive_eps_rejected_before_poincare(monkeypatch, eps):
    def raiser(mesh):
        raise AssertionError("estimate_poincare called")

    monkeypatch.setattr(transform_mod, "estimate_poincare", raiser)
    spec = make_spec(build_rectangle_mesh([1.0, 1.0], [4, 4], LEFT))
    with pytest.raises(CertificateInfeasibleError, match="eps must be positive"):
        compute_certificate(spec, eps=eps, C1=1.0, auto_eps=True)


def test_certificate_3d_problem():
    rule = dirichlet_on_planes("x=0")
    mesh = build_rectangle_mesh([1.0, 1.0, 1.0], [3, 3, 3], rule)
    spec = ProblemSpec(
        mesh=mesh, model=MODEL,
        u0=interpolate(mesh, lambda p: np.zeros(p.shape[0])),
        u1=interpolate(mesh, lambda p: np.zeros(p.shape[0])),
        phi0=interpolate(mesh, lambda p: 0.1 * p[:, 0]),
        m_cap=2.0)
    cert = compute_certificate(spec, eps=0.01, C1=1.0, auto_eps=True)
    assert cert.dim == 3
    assert cert.r == 4.0
    assert cert.s == pytest.approx(4.0)  # 2(d-1)/(d-2) at d = 3
    assert math.isfinite(cert.N) and cert.N < 1.0
    # chain consistency: the dimension-3 factor connects the two psi bounds
    assert cert.psiM_inf_bound == pytest.approx(
        moser_factor(3, cert.C2) * cert.psiM_l2_bound, rel=1e-12)


def test_tiny_c1_flagged_in_check():
    spec, beta, sol = solved_benchmark(8)
    cert = compute_certificate(spec, eps=0.01, C1=1.0, auto_eps=True)
    assert "heuristic" in cert.c1_provenance
    check = check_certificate(sol, cert, spec)
    assert "heuristic" in check.c1_provenance
