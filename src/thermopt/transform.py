"""Substitution diagnostics and the a-priori L-infinity bound certificate.

The change of variables v = F(u), psi = (phi - phi0)^2 + v turns the
degenerate system into one with the strictly positive coefficient a(v).
This module checks the transformed equations, the psi identity and the psi
inequality at the discrete level, and evaluates the chain of computable
constants that bounds ||v||_inf, and hence keeps the temperature strictly
below its critical value. The Sobolev embedding constant C1 has no cheap
rigorous value and is user-supplied; every certificate is conditional on it
and labeled as such.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass, field as dfield

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy import linalg

from . import assembly
from .assembly import geometry
from .errors import CertificateInfeasibleError, DomainError, EstimationError
from .fields import Control, Field
from .materials import ConductivityModel
from .mesh import BoundaryTag, Mesh
from .state import ProblemSpec, StateSolution, potential_residual

C1_PROVENANCE = "user-supplied heuristic (no constructive Sobolev constant)"

# Log-spaced grid on which compute_C_eps takes its supremum.
_C_EPS_GRID_LO, _C_EPS_GRID_HI, _C_EPS_GRID_POINTS = 1e-6, 1e6, 2048

# Stopping rule of estimate_poincare: LOBPCG stops when its residual
# K x - lambda M x is POINCARE_RTOL times the initial theta M x, and fails
# after POINCARE_MAX_ITER iterations. With 1e-6, C_D agrees with a dense
# eigensolver to 3e-14 relative on boxes of 36 to 1,210 free vertices and
# with a 1e-11 run to 2e-13 on up to 16,640, in 4 or 5 iterations
# preconditioned by K's factor and 6 by the box inverse of K on the 16^3 box
# of the certificate ops.
POINCARE_RTOL, POINCARE_MAX_ITER = 1e-6, 100

# scipy's lobpcg solves problems with fewer unknowns than five times the
# block size densely and warns; estimate_poincare solves those itself.
_LOBPCG_MIN_SIZE = 5


@dataclass
class TransformedState:
    """The transformed pair (v, phi), the test field psi, a(v) at the
    quadrature points, a_q (nc, nq), and the a(v)-weighted stiffness,
    evaluated once for every check."""

    v: Field
    phi: Field
    psi: Field
    a_q: np.ndarray
    stiffness: sp.csr_matrix


def transform(sol: StateSolution, spec: ProblemSpec) -> TransformedState:
    """Nodewise v = F(u), psi = (phi - phi0)^2 + v, a(v) and its weighted
    stiffness."""
    model = spec.model
    u = sol.u.values
    if np.any(u >= model.u_star):
        raise DomainError("temperature reaches the critical value; "
                          "the substitution is undefined")
    v = model.F(np.maximum(u, 0.0))
    psi = (sol.phi.values - spec.phi0.values) ** 2 + v
    mesh = sol.u.mesh
    a_q = model.a(geometry(mesh).at_quadrature(v))
    return TransformedState(
        v=Field(mesh, v),
        phi=sol.phi,
        psi=Field(mesh, psi),
        a_q=a_q,
        stiffness=assembly.assemble_weighted_stiffness(mesh, a_q),
    )


def transformed_residual(ts: TransformedState, spec: ProblemSpec,
                         beta: Control) -> tuple[float, float]:
    """Weak residuals of the transformed system at (v, phi).

    The v-equation residual uses the same transformed right-hand side shape
    as the original weak form, with weight a(v) and the nonlinear Robin term
    (beta/a(v)) (F_inv(v) - u1) integrated consistently on the Robin facets.
    """
    mesh = spec.mesh
    f_inv_trace = spec.model.F_inv(np.maximum(ts.v.values, 0.0))
    robin = (assembly.facet_mass(mesh, beta.values, beta.facet_ids)
             @ (f_inv_trace - spec.u1.values))
    rhs = assembly.assemble_joule_rhs_weak(mesh, ts.a_q, ts.phi, spec.phi0)
    r_v = assembly.relative_defect(ts.stiffness @ ts.v.values, rhs - robin,
                                   spec.dirichlet_temperature_vertices())
    return r_v, potential_residual(ts.stiffness, ts.phi.values,
                                   geometry(mesh).boundary_vertices)


def psi_checks(ts: TransformedState, spec: ProblemSpec) -> tuple[float, float]:
    """(defect, margin) of psi against the interior basis functions: the
    defect norm of the weak identity
        div(a(v) grad psi) = a(v)|grad phi|^2
            - 2 div((phi - phi0) a(v) grad phi0) - 2 a(v) grad phi . grad phi0
    and the min of RHS - LHS of the psi differential inequality, +inf on a
    mesh without interior nodes, where it holds vacuously."""
    s_psi, identity, inequality = _psi_sides(ts, spec)
    boundary = geometry(spec.mesh).boundary_vertices
    # integral div(a grad psi) lambda_i, weakly, is -(S psi)_i
    defect = assembly.relative_defect(-s_psi, identity, boundary)
    return defect, float(np.min(np.delete(inequality - s_psi, boundary), initial=math.inf))


def _psi_sides(ts: TransformedState, spec: ProblemSpec):
    """S psi, with S the a(v)-weighted stiffness, and the right sides of the
    psi identity and of the psi inequality, tested against every basis
    function."""
    geom = geometry(spec.mesh)
    gphi, gphi0 = geom.cell_gradient(ts.phi.values), geom.cell_gradient(spec.phi0.values)
    diff_q = geom.at_quadrature(ts.phi.values - spec.phi0.values)
    flux = 2.0 * geom.fluxes(ts.a_q * diff_q, gphi0)
    source = np.sum(gphi * gphi, axis=1) - 2.0 * np.sum(gphi * gphi0, axis=1)
    identity = geom.load(geom.moments(ts.a_q * source[:, None]) + flux)
    inequality = geom.load(geom.moments(ts.a_q * np.sum(gphi0 ** 2, axis=1)[:, None]) - flux)
    return ts.stiffness @ ts.psi.values, identity, inequality


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


def estimate_poincare(mesh: Mesh) -> tuple[float, int]:
    """(C_D, iterations): C_D = 1/sqrt(lambda_min) for the Laplacian with
    zero data on the Dirichlet part Gamma_D, the smallest eigenvalue of
    (K, M) on the free vertices, by LOBPCG (Knyazev, SIAM J. Sci. Comput.
    23, 2001), preconditioned by assembly.box_inverse at beta = 0 on a box
    whose Gamma_D is a union of whole faces, else by K's free-block factor;
    the preconditioner changes the iteration count, not C_D. Below
    _LOBPCG_MIN_SIZE free vertices the problem is solved densely, in 0
    iterations.
    """
    geom = geometry(mesh)
    fixed = mesh.boundary_vertex_set(BoundaryTag.DIRICHLET_TEMPERATURE)
    free = geom.free(fixed)
    if free.size == 0:
        raise EstimationError("every vertex lies on the Dirichlet part")
    K = geom.eliminated(geom.stiffness.data, fixed)[0]
    M = geom.eliminated(assembly.assemble_mass(mesh).data, fixed)[0]
    if free.size < _LOBPCG_MIN_SIZE:
        lam = linalg.eigh(K.toarray(), M.toarray(), eigvals_only=True,
                          subset_by_index=[0, 0])[0]
        iterations = 0
    else:
        inverse = (assembly.box_inverse(mesh, Control.constant(mesh, 0.0, 0.0))
                   or assembly.factor_spd(K))
        x = np.full((free.size, 1), 1.0 / math.sqrt(M.sum()))   # M-normalized
        tol = POINCARE_RTOL * (x.T @ (K @ x)).item() * float(np.linalg.norm(M @ x))
        with warnings.catch_warnings():
            # a run that stops short warns; the residual check below raises
            warnings.simplefilter("ignore", UserWarning)
            lams, _, residuals = spla.lobpcg(K, x, B=M, M=inverse.solve, tol=tol,
                                             maxiter=POINCARE_MAX_ITER, largest=False,
                                             retResidualNormsHistory=True)
        if not residuals[-1] <= tol:
            raise EstimationError(f"LOBPCG did not reach residual {tol:.1e} in "
                                  f"{POINCARE_MAX_ITER} iterations")
        # the history holds the initial residual, one per iteration and the last
        lam, iterations = lams[0], len(residuals) - 2
    return 1.0 / math.sqrt(lam), iterations


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
    thresholds: dict   # the lower bounds of M, by name: M is their max + 1
    C_D: float
    C1: float
    C2: float
    psiM_l2_bound: float
    psiM_inf_bound: float
    v_inf_bound: float
    N: float
    r: float
    s: float
    eps_halvings: int
    poincare_iterations: int
    c1_provenance: str = C1_PROVENANCE
    notes: list = dfield(default_factory=list)

    def as_dict(self) -> dict:
        return asdict(self)


def moser_factor(dim: int, C2: float) -> float:
    """Bootstrap limit factor: 2 C2 in low dimension, else
    (2 C2)^(d/2) (d/(d-2))^(d(d-2)/4)."""
    if dim <= 2:
        return 2.0 * C2
    d = float(dim)
    try:
        return (2.0 * C2) ** (d / 2.0) * (d / (d - 2.0)) ** (d * (d - 2.0) / 4.0)
    except OverflowError:
        return math.inf


def exp_weight(mu: float, phi0_inf: float, phi0_w1inf: float) -> float:
    """e^(8 mu |phi0|_inf^2) |phi0|_W1inf^2; one that overflows closes
    denominator 1 for every eps and raises CertificateInfeasibleError."""
    try:
        weight = math.exp(8.0 * mu * phi0_inf ** 2) * phi0_w1inf ** 2
    except OverflowError:
        weight = math.inf
    if weight == math.inf:
        raise CertificateInfeasibleError(
            "e^(8 mu |phi0|^2) |phi0|_W1inf^2 overflows, so denominator 1 closes "
            "for every eps; reduce the potential data")
    return weight


def certificate_chain(dim: int, mes_omega: float, exp_term: float, phi0_inf: float,
                      F_u0: float, F_u1: float, eps: float, C_eps: float, C_D: float,
                      C1: float) -> dict[str, float]:
    """Pure arithmetic of the constant chain from the weight exp_term of
    exp_weight; raises when a denominator closes. Returns every intermediate
    value; a product that overflows after the denominators is inf."""
    den1 = _denominator_1(eps, exp_term)
    C = 8.0 * exp_term / den1
    thresholds = {"one": 1.0, "C_eps": C_eps, "inv_eps": 1.0 / eps,
                  "data_u0": 4.0 * phi0_inf ** 2 + F_u0,
                  "data_u1": 4.0 * phi0_inf ** 2 + F_u1}
    M = max(thresholds.values()) + 1.0
    den2 = 1.0 - 2.0 * eps * C * C_D ** 2
    if den2 <= 0.0:
        raise CertificateInfeasibleError(
            f"denominator 1 - 2 eps C C_D^2 = {den2:.3e} is not positive; "
            "reduce eps")
    psiM_l2_sq = (2.0 * mes_omega / den2) * (
        C * C_D ** 2 * (C_eps + 1.0 / eps) + M * M * mes_omega)
    psiM_l2 = math.sqrt(psiM_l2_sq)
    C2 = 0.5 * C1 * (1.0 + math.sqrt(C) * math.sqrt(M + eps))
    psiM_inf = moser_factor(dim, C2) * psiM_l2
    v_inf = 4.0 * phi0_inf ** 2 + max(M, psiM_inf)
    return {"exp_term": exp_term, "den1": den1, "C": C, "M": M,
            "thresholds": thresholds, "den2": den2,
            "psiM_l2_bound": psiM_l2, "C2": C2, "psiM_inf_bound": psiM_inf,
            "v_inf_bound": v_inf}


def _denominator_1(eps: float, exp_term: float) -> float:
    den1 = 1.0 - 2.0 * eps * exp_term
    if den1 <= 0.0:
        raise CertificateInfeasibleError(
            f"denominator 1 - 2 eps e^(8 mu |phi0|^2) |phi0|_W1inf^2 = {den1:.3e} "
            "is not positive; reduce eps or the potential data")
    return den1


def _eps_halvings(eps: float, exp_term: float, C_D: float) -> int:
    """Smallest k >= 0 for which eps 2^-k closes neither denominator of
    certificate_chain to 0.5 or below: den1 > 1/2 iff 4 eps w < 1, and,
    as C = 8 w / den1, den2 > 1/2 iff (2 + 32 C_D^2) eps w < 1, with w the
    weight exp_term. Adding frexp exponents keeps k right where the product
    eps w overflows."""
    mantissa, exponent = 1.0, 0
    for factor in (eps, exp_term, max(4.0, 2.0 + 32.0 * C_D ** 2)):
        m, e = math.frexp(factor)
        mantissa, exponent = mantissa * m, exponent + e
    m, e = math.frexp(mantissa)
    return max(0, exponent + e) if m else 0


def compute_certificate(spec: ProblemSpec, eps: float, C1: float,
                        auto_eps: bool) -> BoundCertificate:
    """Evaluate the whole constant chain for one problem, from its data
    alone: it bounds every steady state, so a caller runs it before any.

    The checks that need no C_D come first: an eps <= 0, an exponential
    weight that overflows, which no eps cures, and a pinned eps that closes
    denominator 1 raise CertificateInfeasibleError before estimate_poincare.
    With auto_eps, eps is then halved the fewest times that leave both
    denominators above 0.5 (_eps_halvings; any sufficiently small eps works
    in the estimates), and one note records the count. A pinned eps that
    closes denominator 2 raises CertificateInfeasibleError instead, and so
    does a v_inf bound that overflows, which bounds nothing.
    """
    if eps <= 0:
        raise CertificateInfeasibleError("eps must be positive")
    model, mesh = spec.model, spec.mesh
    mu = model.lipschitz_mu()
    phi0_inf = float(np.max(np.abs(spec.phi0.values)))
    phi0_w1inf = assembly.w1inf_proxy(spec.phi0)
    exp_term = exp_weight(mu, phi0_inf, phi0_w1inf)
    if not auto_eps:
        _denominator_1(eps, exp_term)
    mes_omega = float(geometry(mesh).volumes.sum())
    F_u0 = float(model.F(float(np.max(spec.u0.values))))
    F_u1 = float(model.F(float(np.max(spec.u1.values))))
    notes = []
    C_D, poincare_iterations = estimate_poincare(mesh)

    halvings = _eps_halvings(eps, exp_term, C_D) if auto_eps else 0
    if halvings:
        eps = math.ldexp(eps, -halvings)
        notes.append(f"eps halved {halvings} times to {eps:g} (denominators below 0.5)")
    C_eps = compute_C_eps(model, eps)
    chain = certificate_chain(mesh.dim, mes_omega, exp_term, phi0_inf, F_u0, F_u1, eps,
                              C_eps, C_D, C1)

    v_inf = chain["v_inf_bound"]
    if not math.isfinite(v_inf):
        raise CertificateInfeasibleError(
            "the v_inf bound overflows, so the chain bounds nothing; "
            "reduce the potential data")
    if v_inf > 1e300:
        notes.append("v_inf bound overflows the inverse map; N reported at cap")
        v_inf = 1e300
    N = float(model.F_inv(v_inf))
    dim = mesh.dim
    s = 2.0 * (dim - 1) / (dim - 2) if dim > 2 else math.inf
    return BoundCertificate(
        dim=dim, mes_omega=mes_omega, mu=mu, phi0_inf=phi0_inf, phi0_w1inf=phi0_w1inf,
        F_u0=F_u0, F_u1=F_u1, eps=eps, C_eps=C_eps, C=chain["C"], M=chain["M"],
        thresholds=chain["thresholds"], C_D=C_D, C1=C1, C2=chain["C2"],
        psiM_l2_bound=chain["psiM_l2_bound"], psiM_inf_bound=chain["psiM_inf_bound"],
        v_inf_bound=chain["v_inf_bound"], N=N, r=2.0 * (dim - 1), s=s,
        eps_halvings=halvings, poincare_iterations=poincare_iterations, notes=notes)


@dataclass
class CertificateCheck:
    passed: bool
    max_v: float
    v_margin: float
    max_u: float
    u_margin: float
    c1_provenance: str

    def as_dict(self) -> dict:
        return asdict(self)


def check_certificate(sol: StateSolution, cert: BoundCertificate,
                      spec: ProblemSpec) -> CertificateCheck:
    """Compare a computed solution against the certified bounds.

    A violation is a reported finding (the user constant C1 may be
    unphysical), not an error; so is an N that is not below u_star, which
    the solution meets without the chain bounding anything.
    """
    u = np.maximum(sol.u.values, 0.0)
    max_u = float(np.max(u))
    max_v = float(np.max(spec.model.F(u)))
    return CertificateCheck(
        passed=(max_v <= cert.v_inf_bound and max_u <= cert.N < spec.model.u_star),
        max_v=max_v, v_margin=cert.v_inf_bound - max_v,
        max_u=max_u, u_margin=cert.N - max_u,
        c1_provenance=cert.c1_provenance)
