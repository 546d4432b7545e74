"""Picard iteration with Anderson mixing for the coupled potential/temperature
system.

The steady state is a fixed point of the map u -> T(u): freeze the
conductivity at the temperature iterate, solve the potential equation, then
the temperature equation with the transformed (weak-form) Joule load. Each
step mixes the candidate T(u) with the last few iterates (type-II Anderson
mixing, Walker & Ni, SIAM J. Numer. Anal. 49, 2011) with the damping as the
mixing weight; with no history yet the step is the damped Picard update
(1 - damping) u + damping T(u). When the
critical temperature is finite the conductivity is replaced by a truncated
variant sigma_n that is bounded away from zero, which keeps every linearized
solve uniformly elliptic; afterwards the solution is checked to stay below
the truncation level, so it solves the original problem and the truncation
was only scaffolding. Exceeding the level is a first-class error: that
regime is outside the theory.

The truncation also makes every potential matrix S(sigma_n(u)) spectrally
equivalent to the unit stiffness K, with condition number of K^-1 S at most
sigma_0 / min sigma_n. So each potential solve is conjugate gradients from
the previous step's potential, preconditioned by the per-mesh factor of K;
when CG reaches its cap the step factors S and solves directly, and that
factor preconditions the rest of the solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dfield

import numpy as np
import scipy.sparse.linalg as spla

from . import assembly
from .assembly import apply_dirichlet, geometry, lift_dirichlet
from .errors import ConfigurationError, CriticalityError, NonconvergenceError
from .fields import Control, Field, FieldKind
from .materials import ConductivityModel, TruncatedModel, TruncationLevel, truncate
from .mesh import BoundaryTag, Mesh

# Residual differences the Anderson mixing keeps (its depth m). On the
# benchmark centre inputs (the 16^3 certificate solve and the 32^2 solve at
# beta = 1) depths 2 to 8 take 6 and 8-9 steps, depth 1 takes 8 and 11.
ANDERSON_DEPTH = 5

# Relative residual at which CG stops on a potential solve. With 1e-13, J and
# max u of the projected-gradient benchmark ops (32^2, seed 0, ops 0-19) stay
# within 2.3e-13 of direct solves.
PCG_RTOL = 1e-13

# CG iterations after which a potential solve factors S instead. Preconditioned
# by K, CG takes 0-3 iterations per Picard step on a 16^3 solve at phi0 = 0.1x
# and 3-10 on a 32^2 solve at phi0 = x; at phi0 = 2x and 3x (32^2, beta = 0)
# 4 of 15 and 9 of 35 steps reach this cap and refactor. Caps from 10 to 30
# gave the same solve times there, within run-to-run noise.
PCG_MAX_ITER = 20


@dataclass
class ProblemSpec:
    """Domain, material and boundary data of one thermistor problem.

    u0, u1, phi0 are P1 interpolants of the (extended) boundary data on the
    whole mesh; m_cap is the admissible upper bound for the control.
    """

    mesh: Mesh
    model: ConductivityModel
    u0: Field
    u1: Field
    phi0: Field
    m_cap: float

    def validate(self) -> None:
        for name, f in (("u0", self.u0), ("u1", self.u1)):
            if np.any(f.values < 0):
                raise ConfigurationError(f"{name} must be nonnegative")
            if np.max(f.values) >= self.model.u_star:
                raise ConfigurationError(
                    f"boundary data not subcritical: max {name} = "
                    f"{np.max(f.values):g} >= u_star = {self.model.u_star:g}")
        if not (math.isfinite(self.m_cap) and self.m_cap >= 0):
            raise ConfigurationError(f"m_cap must be finite and nonnegative, "
                                     f"got {self.m_cap!r}")

    def dirichlet_temperature_vertices(self) -> np.ndarray:
        return self.mesh.boundary_vertex_set(BoundaryTag.DIRICHLET_TEMPERATURE)


@dataclass
class SolverOptions:
    tol: float = 1e-9
    damping: float = 0.7
    max_iter: int = 200
    truncation_level: float | None = None


@dataclass
class StateSolution:
    u: Field
    phi: Field
    iterations: int
    residual_u: float
    residual_phi: float
    sigma_clamp_count: int
    truncation_used: TruncationLevel | None
    history: list = dfield(default_factory=list)
    cg_iterations: int = 0       # over all potential solves
    factorizations: int = 0      # sparse LU factorizations this solve made
    # factor of K + R eliminated on Gamma_D; the adjoint block reuses it
    temperature_factor: spla.SuperLU | None = None


class _CountingSigma:
    """Clamps negative temperatures to zero and counts the clamps."""

    def __init__(self, model):
        self.model = model
        self.clamps = 0

    def __call__(self, u):
        u = np.asarray(u, dtype=float)
        self.clamps += int(np.count_nonzero(u < 0))
        return self.model.sigma(np.maximum(u, 0.0))


def pick_truncation_level(spec: ProblemSpec) -> float | None:
    """Default level n = u_star - 0.1 (u_star - max u0); None when u_star = inf."""
    u_star = spec.model.u_star
    if not math.isfinite(u_star):
        return None
    u0max = float(np.max(spec.u0.values))
    return u_star - 0.1 * (u_star - u0max)


def solve_state(spec: ProblemSpec, beta: Control,
                opts: SolverOptions | None = None) -> StateSolution:
    """Solve the coupled system; raises on nonconvergence or criticality.

    Convergence is measured on the unmixed Picard candidate (the fixed-point
    residual max |T(u^k) - u^k| together with the potential increment) and
    the final candidate is returned, which keeps the weak residual at the
    level of the last increment.
    """
    opts = opts or SolverOptions()
    spec.validate()
    mesh = spec.mesh

    level = opts.truncation_level
    if level is None:
        level = pick_truncation_level(spec)
    if level is not None and not (0.0 < level < spec.model.u_star):
        raise ConfigurationError(f"truncation level {level} outside (0, u_star)")
    work_model = truncate(spec.model, level) if level is not None else spec.model
    sigma = _CountingSigma(work_model)

    geom = geometry(mesh)
    R, robin_rhs = assembly.assemble_robin(mesh, beta, spec.u1)
    A_u = (geom.stiffness + R).tocsr()
    fixed_u = spec.dirichlet_temperature_vertices()
    u_fixed = spec.u0.values[fixed_u]
    fixed_phi = geom.boundary_vertices
    phi_fixed = spec.phi0.values[fixed_phi]

    # the temperature matrix is iteration-independent: factor once
    u_lu = assembly.factor_spd(
        apply_dirichlet(A_u, np.zeros(mesh.n_vertices), fixed_u, u_fixed)[0])
    # K's factor counts only for the solve that builds it
    factorizations = 1 + ("potential_factor" not in vars(geom))
    precond = geom.potential_factor
    cg_iterations = 0

    u = spec.u0.values.copy()
    phi = spec.phi0.values.copy()
    iterates, residuals = [], []   # the last ANDERSON_DEPTH + 1 of u and T(u) - u
    history = []
    converged = False
    iterations = 0

    for iterations in range(1, opts.max_iter + 1):
        # the potential matrix and the Joule load share one sigma evaluation
        sigma_q = sigma(geom.at_quadrature(u))
        phi_new, cg, refactor = _solve_potential(mesh, sigma_q, phi, fixed_phi,
                                                 phi_fixed, precond)
        cg_iterations += cg
        if refactor is not None:
            precond = refactor
            factorizations += 1
        phi_field = Field(mesh, phi_new, FieldKind.POTENTIAL)
        joule = assembly.assemble_joule_rhs_weak(mesh, sigma_q, phi_field, spec.phi0)
        u_candidate = u_lu.solve(lift_dirichlet(A_u, joule + robin_rhs, fixed_u, u_fixed))

        residual = u_candidate - u
        delta_u = float(np.max(np.abs(residual)))
        delta_phi = float(np.max(np.abs(phi_new - phi)))
        history.append({"iteration": iterations, "delta_u": delta_u,
                        "delta_phi": delta_phi, "max_u": float(np.max(u_candidate)),
                        "cg_iterations": cg, "refactored": refactor is not None})
        phi = phi_new
        if max(delta_u, delta_phi) <= opts.tol:
            u = u_candidate
            converged = True
            break
        # Type-II Anderson step: the coefficients gamma minimize
        # |residual - dF gamma| over the differences of the kept residuals;
        # with one kept pair dU and dF have no columns and this is the damped
        # Picard update.
        iterates.append(u)
        residuals.append(residual)
        del iterates[:-ANDERSON_DEPTH - 1], residuals[:-ANDERSON_DEPTH - 1]
        d_u = np.diff(iterates, axis=0).T
        d_f = np.diff(residuals, axis=0).T
        gamma = np.linalg.lstsq(d_f, residual, rcond=None)[0]
        w = opts.damping
        u = (1.0 - w) * u + w * u_candidate - (d_u + w * d_f) @ gamma

    if not converged:
        raise NonconvergenceError(
            f"Picard did not reach tol {opts.tol:g} in {opts.max_iter} iterations "
            f"(last increment {max(delta_u, delta_phi):.3e})", history)

    if level is not None and float(np.max(u)) >= level:
        raise CriticalityError(
            f"solution not bounded away from the critical temperature: "
            f"max u = {np.max(u):.6g} >= truncation level {level:.6g}", history)

    sol = StateSolution(
        u=Field(mesh, u, FieldKind.TEMPERATURE),
        phi=Field(mesh, phi, FieldKind.POTENTIAL),
        iterations=iterations,
        residual_u=0.0,
        residual_phi=0.0,
        sigma_clamp_count=sigma.clamps,
        truncation_used=(work_model.level if isinstance(work_model, TruncatedModel)
                         else None),
        history=history,
        cg_iterations=cg_iterations,
        factorizations=factorizations,
        temperature_factor=u_lu,
    )
    sol.residual_u, sol.residual_phi = weak_residual(spec, beta, sol)
    return sol


def _solve_potential(mesh, sigma_q, phi, fixed, values, precond):
    # a function, so that its matrix is freed before the Joule assembly
    A_phi = assembly.assemble_weighted_stiffness(mesh, sigma_q)
    return assembly.solve_spd_pcg(
        *apply_dirichlet(A_phi, np.zeros(mesh.n_vertices), fixed, values),
        phi, precond, PCG_RTOL, PCG_MAX_ITER)


def weak_residual(spec: ProblemSpec, beta: Control, sol: StateSolution) -> tuple[float, float]:
    """Scaled norms of the discrete weak-form residuals with the ORIGINAL sigma.

    Using the untruncated conductivity here is what certifies the truncation
    argument: below the level the two coincide, so small residuals prove the
    computed pair solves the original discrete problem.
    """
    mesh = spec.mesh
    sigma_q = spec.model.sigma(np.maximum(geometry(mesh).at_quadrature(sol.u.values), 0.0))
    R, robin_rhs = assembly.assemble_robin(mesh, beta, spec.u1)
    joule = assembly.assemble_joule_rhs_weak(mesh, sigma_q, sol.phi, spec.phi0)
    lhs_u = (geometry(mesh).stiffness + R) @ sol.u.values
    res_u = lhs_u - joule - robin_rhs
    free_u = np.ones(mesh.n_vertices, dtype=bool)
    free_u[spec.dirichlet_temperature_vertices()] = False
    scale_u = max(1.0, float(np.linalg.norm(lhs_u[free_u]))
                  + float(np.linalg.norm((joule + robin_rhs)[free_u])))
    r_u = float(np.linalg.norm(res_u[free_u])) / scale_u

    S = assembly.assemble_weighted_stiffness(mesh, sigma_q)
    res_phi = S @ sol.phi.values
    free_phi = np.ones(mesh.n_vertices, dtype=bool)
    free_phi[mesh.boundary_vertex_set()] = False
    scale_phi = max(1.0, float(np.linalg.norm((S @ sol.phi.values)[~free_phi])))
    r_phi = float(np.linalg.norm(res_phi[free_phi])) / scale_phi
    return r_u, r_phi


def subcritical_margin(sol: StateSolution, model: ConductivityModel) -> float:
    """u_star - max(u); +inf sentinel for models without a critical value."""
    if not math.isfinite(model.u_star):
        return math.inf
    return float(model.u_star - np.max(sol.u.values))
