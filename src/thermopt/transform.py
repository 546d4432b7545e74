"""Substitution diagnostics and the a-priori L-infinity bound certificate.

The change of variables v = F(u), psi = (phi - phi0)^2 + v turns the
degenerate system into one with the strictly positive coefficient a(v).
This module checks the transformed equations and the psi identity at the
discrete level, and evaluates the chain of computable constants that bounds
||v||_inf, and hence keeps the temperature strictly below its critical
value. The Sobolev embedding constant C1 has no cheap rigorous value and is
user-supplied; every certificate is conditional on it and labeled as such.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dfield

import numpy as np

from . import assembly
from .assembly import geometry
from .errors import CertificateInfeasibleError, DomainError, EstimationError
from .fields import Control, Field, FieldKind
from .materials import ConductivityModel
from .mesh import BoundaryTag, Mesh
from .state import ProblemSpec, StateSolution

C1_PROVENANCE = "user-supplied heuristic (no constructive Sobolev constant)"

# Log-spaced grid on which compute_C_eps takes its supremum.
_C_EPS_GRID_LO, _C_EPS_GRID_HI, _C_EPS_GRID_POINTS = 1e-6, 1e6, 2048


@dataclass
class TransformedState:
    """The transformed pair (v, phi) plus the test fields psi and psi_M."""

    v: Field
    phi: Field
    psi: Field
    psi_m: Field
    m_threshold: float


def transform(sol: StateSolution, model: ConductivityModel, phi0: Field,
              m_threshold: float) -> TransformedState:
    """Nodewise v = F(u), psi = (phi - phi0)^2 + v, psi_M = max(M, psi)."""
    u = sol.u.values
    if np.any(u >= model.u_star):
        raise DomainError("temperature reaches the critical value; "
                          "the substitution is undefined")
    v = np.asarray(model.F(np.maximum(u, 0.0)), dtype=float)
    psi = (sol.phi.values - phi0.values) ** 2 + v
    psi_m = np.maximum(psi, m_threshold)
    mesh = sol.u.mesh
    return TransformedState(
        v=Field(mesh, v, FieldKind.TEMPERATURE),
        phi=sol.phi,
        psi=Field(mesh, psi, FieldKind.TEMPERATURE),
        psi_m=Field(mesh, psi_m, FieldKind.TEMPERATURE),
        m_threshold=float(m_threshold),
    )


def transformed_residual(ts: TransformedState, model: ConductivityModel,
                         spec: ProblemSpec, beta: Control) -> tuple[float, float]:
    """Weak residuals of the transformed system at (v, phi).

    The v-equation residual uses the same transformed right-hand side shape
    as the original weak form, with weight a(v) and the nonlinear Robin term
    (beta/a(v)) (F_inv(v) - u1) integrated consistently on the Robin facets.
    """
    mesh = spec.mesh
    v = ts.v
    phi = ts.phi
    a_q = model.a(np.maximum(geometry(mesh).at_quadrature(v.values), 0.0))

    A = assembly.assemble_weighted_stiffness(mesh, a_q)
    f_inv_trace = np.asarray(model.F_inv(np.maximum(v.values, 0.0)), dtype=float)
    robin = (assembly.facet_mass(mesh, beta.values, beta.facet_ids)
             @ (f_inv_trace - spec.u1.values))
    rhs = assembly.assemble_joule_rhs_weak(mesh, a_q, phi, spec.phi0)
    res_v = A @ v.values + robin - rhs
    free_v = np.ones(mesh.n_vertices, dtype=bool)
    free_v[spec.dirichlet_temperature_vertices()] = False
    scale_v = max(1.0, float(np.linalg.norm((A @ v.values)[free_v]))
                  + float(np.linalg.norm((rhs - robin)[free_v])))
    r_v = float(np.linalg.norm(res_v[free_v])) / scale_v

    res_phi = A @ phi.values
    free_phi = np.ones(mesh.n_vertices, dtype=bool)
    free_phi[mesh.boundary_vertex_set()] = False
    scale_phi = max(1.0, float(np.linalg.norm(res_phi[~free_phi])))
    r_phi = float(np.linalg.norm(res_phi[free_phi])) / scale_phi
    return r_v, r_phi


def psi_identity_defect(ts: TransformedState, model: ConductivityModel,
                        spec: ProblemSpec) -> float:
    """Defect norm of the weak identity satisfied by psi.

    Tests div(a(v) grad psi) = a(v)|grad phi|^2
        - 2 div((phi - phi0) a(v) grad phi0) - 2 a(v) grad phi . grad phi0
    against interior basis functions.
    """
    lhs, rhs, interior = _psi_identity_sides(ts, model, spec)
    defect = lhs - rhs
    scale = max(1.0, float(np.linalg.norm(lhs[interior]))
                + float(np.linalg.norm(rhs[interior])))
    return float(np.linalg.norm(defect[interior])) / scale


def psi_inequality_margin(ts: TransformedState, model: ConductivityModel,
                          spec: ProblemSpec) -> float:
    """Min over interior nodes of (RHS - LHS) for the psi differential
    inequality tested against nonnegative basis functions."""
    mesh = spec.mesh
    geom = geometry(mesh)
    a_q = model.a(np.maximum(geom.at_quadrature(ts.v.values), 0.0))
    phi, phi0 = ts.phi, spec.phi0

    A = assembly.assemble_weighted_stiffness(mesh, a_q)
    lhs = A @ ts.psi.values  # weak form of -div(a grad psi)

    gphi0 = geom.cell_gradient(phi0.values)
    gphi0_sq = np.sum(gphi0 ** 2, axis=1)
    rhs = assembly.load_vector(mesh, a_q * gphi0_sq[:, None])
    diff_q = geom.at_quadrature(phi.values - phi0.values)
    rhs -= 2.0 * _flux_load(mesh, a_q * diff_q, phi0)

    interior = np.ones(mesh.n_vertices, dtype=bool)
    interior[mesh.boundary_vertex_set()] = False
    return float(np.min((rhs - lhs)[interior]))


def _psi_identity_sides(ts, model, spec):
    mesh = spec.mesh
    geom = geometry(mesh)
    a_q = model.a(np.maximum(geom.at_quadrature(ts.v.values), 0.0))
    phi, phi0 = ts.phi, spec.phi0

    A = assembly.assemble_weighted_stiffness(mesh, a_q)
    lhs = -(A @ ts.psi.values)  # integral div(a grad psi) lambda_i, weakly

    a_of = lambda s: model.a(np.maximum(np.asarray(s, dtype=float), 0.0))
    rhs = assembly.assemble_joule_rhs_direct(mesh, a_of, ts.v, phi)
    diff_q = geom.at_quadrature(phi.values - phi0.values)
    rhs += 2.0 * _flux_load(mesh, a_q * diff_q, phi0)
    gphi = geom.cell_gradient(phi.values)
    gphi0 = geom.cell_gradient(phi0.values)
    dot = np.sum(gphi * gphi0, axis=1)
    rhs -= 2.0 * assembly.load_vector(mesh, a_q * dot[:, None])

    interior = np.ones(mesh.n_vertices, dtype=bool)
    interior[mesh.boundary_vertex_set()] = False
    return lhs, rhs, interior


def _flux_load(mesh: Mesh, coeff_q: np.ndarray, w: Field) -> np.ndarray:
    """b_i = sum_cells (integral coeff) (grad w . grad lambda_i)."""
    geom = geometry(mesh)
    cbar = (coeff_q @ geom.qweights) * geom.volumes
    gw = geom.cell_gradient(w.values)
    return geom.load(np.einsum("c,cd,cid->ci", cbar, gw, geom.grads))


def compute_C_eps(model: ConductivityModel, eps: float) -> float:
    """Smallest-practical C_eps with a(v) integral_0^v 1/a(s) <= eps v^2 + C_eps.

    Supremum taken on a log-spaced grid, then 5% slack added; finite because
    the product over v^2 tends to zero.
    """
    if eps <= 0:
        raise DomainError("eps must be positive")
    v = np.geomspace(_C_EPS_GRID_LO, _C_EPS_GRID_HI, _C_EPS_GRID_POINTS)
    product = model.a(v) * model.reciprocal_a_moment(v) - eps * v ** 2
    gmax = float(np.max(product))
    return max(0.0, gmax) * 1.05


def estimate_poincare(mesh: Mesh, tol: float = 1e-8, max_iter: int = 500) -> float:
    """C_D = 1/sqrt(lambda_min) for the Laplacian with zero data on the
    Dirichlet part, by inverse power iteration on the generalized problem;
    the iterates stay zero on the Dirichlet vertices the factor eliminates."""
    K = geometry(mesh).stiffness
    M = assembly.assemble_mass(mesh)
    fixed = mesh.boundary_vertex_set(BoundaryTag.DIRICHLET_TEMPERATURE)
    lu = assembly.factor_spd(assembly.apply_dirichlet(K, np.zeros(mesh.n_vertices),
                                                      fixed, 0.0)[0])
    x = np.ones(mesh.n_vertices)
    x[fixed] = 0.0
    x /= math.sqrt(float(x @ (M @ x)))
    lam_prev = math.inf
    for _ in range(max_iter):
        rhs = M @ x
        rhs[fixed] = 0.0
        y = lu.solve(rhs)
        ynorm = math.sqrt(float(y @ (M @ y)))
        if ynorm == 0.0:
            raise EstimationError("inverse iteration collapsed to zero")
        x = y / ynorm
        lam = float(x @ (K @ x)) / float(x @ (M @ x))
        if abs(lam - lam_prev) <= tol * abs(lam):
            return 1.0 / math.sqrt(lam)
        lam_prev = lam
    raise EstimationError(f"inverse power iteration did not settle in {max_iter} steps")


@dataclass
class BoundCertificate:
    """Evaluated constants of the L-infinity estimate chain."""

    dim: int
    mes_omega: float
    mu: float
    phi0_inf: float
    phi0_w1inf: float
    F_u0: float
    F_u1: float
    eps: float
    C_eps: float
    C: float
    M: float
    C_D: float
    C1: float
    C2: float
    psiM_l2_bound: float
    psiM_inf_bound: float
    v_inf_bound: float
    N: float
    r: float
    s: float
    c1_provenance: str = C1_PROVENANCE
    notes: list = dfield(default_factory=list)

    def threshold_values(self) -> dict[str, float]:
        return {
            "one": 1.0,
            "C_eps": self.C_eps,
            "inv_eps": 1.0 / self.eps,
            "data_u0": 4.0 * self.phi0_inf ** 2 + self.F_u0,
            "data_u1": 4.0 * self.phi0_inf ** 2 + self.F_u1,
        }

    def as_dict(self) -> dict:
        d = {k: getattr(self, k) for k in (
            "dim", "mes_omega", "mu", "phi0_inf", "phi0_w1inf", "F_u0", "F_u1",
            "eps", "C_eps", "C", "M", "C_D", "C1", "C2", "psiM_l2_bound",
            "psiM_inf_bound", "v_inf_bound", "N", "r", "s", "c1_provenance",
            "notes")}
        d["s"] = d["s"] if math.isfinite(d["s"]) else "inf"
        return d


def moser_factor(dim: int, C2: float) -> float:
    """Bootstrap limit factor: 2 C2 in low dimension, else
    (2 C2)^(d/2) (d/(d-2))^(d(d-2)/4)."""
    if dim <= 2:
        return 2.0 * C2
    d = float(dim)
    return (2.0 * C2) ** (d / 2.0) * (d / (d - 2.0)) ** (d * (d - 2.0) / 4.0)


def certificate_chain(dim: int, mes_omega: float, mu: float, phi0_inf: float,
                      phi0_w1inf: float, F_u0: float, F_u1: float, eps: float,
                      C_eps: float, C_D: float, C1: float) -> dict[str, float]:
    """Pure arithmetic of the constant chain; raises when a denominator
    closes. Returns every intermediate value."""
    exp_term = math.exp(8.0 * mu * phi0_inf ** 2) * phi0_w1inf ** 2
    den1 = 1.0 - 2.0 * eps * exp_term
    if den1 <= 0.0:
        raise CertificateInfeasibleError(
            f"denominator 1 - 2 eps e^(8 mu |phi0|^2) |phi0|_W1inf^2 = {den1:.3e} "
            "is not positive; reduce eps or the potential data")
    C = 8.0 * exp_term / den1
    M = max(1.0, C_eps, 1.0 / eps,
            4.0 * phi0_inf ** 2 + F_u0,
            4.0 * phi0_inf ** 2 + F_u1) + 1.0
    den2 = 1.0 - 2.0 * eps * C * C_D ** 2
    if den2 <= 0.0:
        raise CertificateInfeasibleError(
            f"denominator 1 - 2 eps C C_D^2 = {den2:.3e} is not positive; "
            "reduce eps")
    psiM_l2_sq = (2.0 * mes_omega / den2) * (
        C * C_D ** 2 * (C_eps + 1.0 / eps) + M ** 2 * mes_omega)
    psiM_l2 = math.sqrt(psiM_l2_sq)
    C2 = 0.5 * C1 * (1.0 + math.sqrt(C) * math.sqrt(M + eps))
    psiM_inf = moser_factor(dim, C2) * psiM_l2
    v_inf = 4.0 * phi0_inf ** 2 + max(M, psiM_inf)
    return {"exp_term": exp_term, "den1": den1, "C": C, "M": M, "den2": den2,
            "psiM_l2_bound": psiM_l2, "C2": C2, "psiM_inf_bound": psiM_inf,
            "v_inf_bound": v_inf}


def compute_certificate(model: ConductivityModel, spec: ProblemSpec, eps: float = 0.01,
                        C1: float = 1.0, mesh: Mesh | None = None,
                        auto_eps: bool = True) -> BoundCertificate:
    """Evaluate the whole constant chain for one problem.

    With auto_eps, eps is halved until both denominators exceed 0.5 (any
    sufficiently small eps works in the estimates); a pinned eps that closes
    a denominator raises CertificateInfeasibleError instead.
    """
    mesh = mesh or spec.mesh
    notes = []
    mu = model.lipschitz_mu()
    phi0_inf = float(np.max(np.abs(spec.phi0.values)))
    phi0_w1inf = max(phi0_inf, assembly.max_cell_gradient(spec.phi0))
    F_u0 = float(model.F(float(np.max(spec.u0.values))))
    F_u1 = float(model.F(float(np.max(spec.u1.values))))
    mes_omega = float(geometry(mesh).volumes.sum())
    C_D = estimate_poincare(mesh)

    if eps <= 0:
        raise CertificateInfeasibleError("eps must be positive")
    while True:
        C_eps = compute_C_eps(model, eps)
        try:
            chain = certificate_chain(mesh.dim, mes_omega, mu, phi0_inf,
                                      phi0_w1inf, F_u0, F_u1, eps, C_eps, C_D, C1)
        except CertificateInfeasibleError:
            if not auto_eps:
                raise
            eps *= 0.5
            notes.append(f"eps halved to {eps:g} (denominator closed)")
            continue
        if auto_eps and (chain["den1"] <= 0.5 or chain["den2"] <= 0.5):
            eps *= 0.5
            notes.append(f"eps halved to {eps:g} (denominator below 0.5)")
            continue
        break

    v_inf = chain["v_inf_bound"]
    if not math.isfinite(v_inf) or v_inf > 1e300:
        notes.append("v_inf bound overflows the inverse map; N reported at cap")
        v_inf = min(v_inf, 1e300)
    N = float(model.F_inv(v_inf))
    dim = mesh.dim
    s = 2.0 * (dim - 1) / (dim - 2) if dim > 2 else math.inf
    return BoundCertificate(
        dim=dim, mes_omega=mes_omega, mu=mu, phi0_inf=phi0_inf,
        phi0_w1inf=phi0_w1inf, F_u0=F_u0, F_u1=F_u1, eps=eps, C_eps=C_eps,
        C=chain["C"], M=chain["M"], C_D=C_D, C1=C1, C2=chain["C2"],
        psiM_l2_bound=chain["psiM_l2_bound"],
        psiM_inf_bound=chain["psiM_inf_bound"],
        v_inf_bound=chain["v_inf_bound"], N=N,
        r=2.0 * (dim - 1), s=s, notes=notes)


@dataclass
class CertificateCheck:
    passed: bool
    max_v: float
    v_margin: float
    max_u: float
    u_margin: float
    c1_provenance: str

    def as_dict(self) -> dict:
        return {"passed": self.passed, "max_v": self.max_v,
                "v_margin": self.v_margin, "max_u": self.max_u,
                "u_margin": self.u_margin, "c1_provenance": self.c1_provenance}


def check_certificate(sol: StateSolution, cert: BoundCertificate,
                      model: ConductivityModel) -> CertificateCheck:
    """Compare a computed solution against the certified bounds.

    A violation is a reported finding (the user constant C1 may be
    unphysical), not an error.
    """
    u = np.maximum(sol.u.values, 0.0)
    max_u = float(np.max(u))
    max_v = float(np.max(np.asarray(model.F(u), dtype=float)))
    return CertificateCheck(
        passed=(max_v <= cert.v_inf_bound and max_u <= cert.N),
        max_v=max_v, v_margin=cert.v_inf_bound - max_v,
        max_u=max_u, u_margin=cert.N - max_u,
        c1_provenance=cert.c1_provenance)


def energy_inequality_report(ts: TransformedState, model: ConductivityModel,
                             spec: ProblemSpec, beta: Control) -> dict:
    """Discrete evaluation of the p = 2 testing estimate behind the L2 bound.

    Both sides vanish on desk-scale subcritical solves (psi stays below M);
    reported with a 10% + defect slack verdict, never fatal.
    """
    mesh = spec.mesh
    geom = geometry(mesh)
    a_v = model.a(np.maximum(geom.at_quadrature(ts.v.values), 0.0))
    psim_q = geom.at_quadrature(ts.psi_m.values)
    a_psim = model.a(np.maximum(psim_q, 0.0))
    g_psim = geom.cell_gradient(ts.psi_m.values)
    g_psim_sq = np.sum(g_psim ** 2, axis=1)

    ratio_bar = (a_v / a_psim) @ geom.qweights
    lhs = float(np.sum(ratio_bar * g_psim_sq * geom.volumes))

    m0 = model.reciprocal_a_moment(ts.m_threshold)
    xi_q = np.maximum(model.reciprocal_a_moment(psim_q) - m0, 0.0)
    # only Robin facets whose mean psi exceeds M carry the boundary term
    facets = mesh.boundary_facets[beta.facet_ids]
    active = ts.psi.values[facets].mean(axis=1) > ts.m_threshold
    verts = facets[active]
    xi_trace = np.maximum(model.reciprocal_a_moment(ts.psi_m.values[verts]) - m0, 0.0)
    f_inv = np.asarray(model.F_inv(np.maximum(ts.v.values[verts], 0.0)))
    integrand = (xi_trace * (f_inv - spec.u1.values[verts])).mean(axis=1)
    measures = geom.facet_measures[beta.facet_ids[active]]
    boundary_term = float(np.sum(beta.values[active] * measures * integrand))
    lhs += boundary_term

    gphi0 = geom.cell_gradient(spec.phi0.values)
    gphi0_sq = np.sum(gphi0 ** 2, axis=1)
    rhs1 = float(np.sum(((a_v * xi_q) @ geom.qweights) * gphi0_sq * geom.volumes))
    diff_q = geom.at_quadrature(ts.phi.values - spec.phi0.values)
    dot = np.einsum("cd,cd->c", gphi0, g_psim)
    rhs2 = -2.0 * float(np.sum(((a_v / a_psim * diff_q) @ geom.qweights)
                               * dot * geom.volumes))
    rhs = rhs1 + rhs2
    slack = 0.1 * abs(rhs) + 1e-10
    return {"lhs": lhs, "rhs": rhs, "slack": slack,
            "satisfied": lhs <= rhs + slack, "p": 2.0,
            "gamma_m_active": boundary_term != 0.0}


def smallness_margin_k1(k: float, K_lip: float, M1: float, M2: float, C6: float,
                        C1_u: float, Phi: float, mu: float,
                        phi0_grad_inf: float, M_tilde: float) -> float:
    """Margin of the differentiability smallness condition (documentation only).

    The constants k, M1, M2, C6 have no computable definitions here and must
    be supplied by the user; a positive return value means the condition
    holds for the supplied values. M2 is the trace constant and enters the
    sensitivity bound, not this margin.
    """
    del M2
    return (k
            - 2.0 * M_tilde * K_lip * M1 * Phi
            - 2.0 * M_tilde * mu * K_lip * M1 * Phi / C1_u
            - mu * C6 * K_lip * M1 * Phi ** 2 / C1_u
            - K_lip * phi0_grad_inf * M1 * Phi
            - mu * phi0_grad_inf * K_lip * M1 * Phi / C1_u)
