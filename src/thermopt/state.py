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

Every linear solve is for the unknowns only, the free block off the
Dirichlet set (the boundary for phi, Gamma_D for u), scattered into fields
that hold phi0 and u0 there.

The truncation also makes every potential matrix S(sigma_n(u)) spectrally
equivalent to the unit stiffness K, with condition number of K^-1 S at most
sigma_0 / min sigma_n (Faber, Manteuffel & Parter, Adv. Appl. Math. 11,
1990). So each potential solve is conjugate gradients from the previous
step's potential, preconditioned by P = D^-1/2 K^-1 D^-1/2 with K^-1 the
per-mesh inverse of K (a separable inverse on a box mesh, else K's factor)
and D = diag(S) / diag(K) from the matrix being solved (see
P1Geometry.potential_preconditioner); a step whose CG reaches its cap
factors S and solves directly, and the next takes P again.

The temperature matrix K + R is factored once per solve, except where
_box_temperature_inverse gives a separable inverse: there each temperature
solve is CG from the current iterate, preconditioned by it (Concus & Golub,
SIAM J. Numer. Anal. 10, 1973), and a CG at its cap factors K + R for the
remaining steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dfield

import numpy as np

from . import assembly
from .assembly import geometry, lift_dirichlet
from .errors import ConfigurationError, CriticalityError, DomainError, NonconvergenceError
from .fields import Control, Field
from .materials import ConductivityModel, TruncatedModel
from .mesh import BoundaryTag, Mesh

# Residual differences the Anderson mixing keeps (its depth m). On the
# benchmark centre inputs (the 16^3 certificate solve and the 32^2 solve at
# beta = 1) depths 2 to 8 take 6 and 8-9 steps, depth 1 takes 8 and 11.
ANDERSON_DEPTH = 5

# Relative residual at which CG stops on a potential solve. With 1e-13, J and
# max u of the projected-gradient benchmark ops (32^2, seed 0, ops 0-19) stay
# within 2.3e-13 of direct solves.
PCG_RTOL = 1e-13

# CG iterations after which a potential solve factors S instead. Under the
# sigma-scaled inverse of K, CG takes 0-2 iterations per Picard step at 16^3,
# phi0 = 0.1x, 0-5 at 32^2, phi0 = x, and 0-17 at 2x-3.8x, beta = 0 (K's
# inverse alone: 4 of 15 to 19 of 48 steps refactored). Near the truncation
# level a few steps refactor (16^2 at 8x, beta = 2, level 0.99: 4 of 50);
# keeping their factor for the later steps made 37 refactors against 1 at beta = 1.
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
    truncation_level: float | None   # the level n of sigma_n; None untruncated
    history: list = dfield(default_factory=list)
    cg_iterations: int = 0       # over all potential and temperature solves
    factorizations: int = 0      # banded Cholesky or SuperLU factors this solve made
    # what the temperature solves used for K + R's free block: its factor,
    # or a box's separable inverse (see the module docstring); it
    # preconditions the adjoint's K + R block
    temperature_factor: assembly.Factor | None = None


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
    if opts.max_iter < 1:
        raise ConfigurationError(f"max_iter must be >= 1, got {opts.max_iter}")
    spec.validate()
    mesh = spec.mesh

    level = opts.truncation_level
    if level is None:
        level = pick_truncation_level(spec)
    try:
        sigma = spec.model.sigma if level is None else TruncatedModel(spec.model, level).sigma
    except DomainError as exc:
        raise ConfigurationError(str(exc)) from None

    geom = geometry(mesh)
    R, robin_rhs = assembly.assemble_robin(mesh, beta, spec.u1)
    A_u = geom.csr(geom.stiffness.data + R.data)   # both on the cell pattern
    fixed_u = spec.dirichlet_temperature_vertices()
    free_u = geom.free(fixed_u)
    u_fixed = spec.u0.values[fixed_u]
    fixed_phi = geom.boundary_vertices
    phi_fixed = spec.phi0.values[fixed_phi]
    # CG stops relative to the whole system's right side, these values included
    u_norm, phi_norm = (float(np.linalg.norm(v)) for v in (u_fixed, phi_fixed))

    # the temperature matrix is iteration-independent: factor it once, or CG
    # (see the module docstring)
    u_matrix, u_transpose = geom.eliminated(A_u.data, fixed_u)
    u_inverse = _box_temperature_inverse(mesh, beta)
    u_lu = assembly.factor_spd(u_matrix) if u_inverse is None else None
    # K's factor counts only for the solve that builds it; a box's grid inverse is none
    factorizations = (u_lu is not None) + ("potential_factor" not in vars(geom) and not geom.grid)
    cg_iterations = 0
    sigma_clamp_count = 0   # negative temperatures at quadrature points, clamped by sigma

    u = spec.u0.values.copy()
    phi = spec.phi0.values.copy()
    iterates, residuals = [], []   # the last ANDERSON_DEPTH + 1 of u and T(u) - u
    history = []

    for iterations in range(1, opts.max_iter + 1):
        # the potential matrix and the Joule load share one sigma evaluation
        u_q = geom.at_quadrature(u)
        sigma_clamp_count += int(np.count_nonzero(u_q < 0))
        sigma_q = sigma(u_q)
        phi_new, cg, factors = _solve_potential(mesh, sigma_q, phi, fixed_phi,
                                                phi_fixed, phi_norm)
        phi_field = Field(mesh, phi_new)
        joule = assembly.assemble_joule_rhs_weak(mesh, sigma_q, phi_field, spec.phi0)
        u_rhs = lift_dirichlet(A_u, joule + robin_rhs, fixed_u, u_fixed, free_u)
        if u_lu is None:
            # a CG that reaches its cap factors, and the factor serves the rest
            u_free, u_cg, u_lu = assembly.solve_spd_pcg(
                u_matrix, u_rhs, u[free_u], u_inverse, PCG_RTOL, PCG_MAX_ITER, u_transpose,
                u_norm)
            cg, factors = cg + u_cg, factors + (u_lu is not None)
        else:
            u_free = u_lu.solve(u_rhs)
        u_candidate = geom.extend(u_free, fixed_u, u_fixed)
        cg_iterations += cg
        factorizations += factors

        residual = u_candidate - u
        delta_u = float(np.max(np.abs(residual)))
        delta_phi = float(np.max(np.abs(phi_new - phi)))
        history.append({"iteration": iterations, "delta_u": delta_u,
                        "delta_phi": delta_phi, "max_u": float(np.max(u_candidate)),
                        "cg_iterations": cg, "refactored": factors > 0})
        phi = phi_new
        if max(delta_u, delta_phi) <= opts.tol:
            u = u_candidate
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
    else:
        raise NonconvergenceError(
            f"Picard did not reach tol {opts.tol:g} in {opts.max_iter} iterations "
            f"(last increment {max(delta_u, delta_phi):.3e})", history,
            cg_iterations, factorizations)

    if level is not None and float(np.max(u)) >= level:
        raise CriticalityError(
            f"solution not bounded away from the critical temperature: "
            f"max u = {np.max(u):.6g} >= truncation level {level:.6g}", history,
            cg_iterations, factorizations)

    sol = StateSolution(
        u=Field(mesh, u),
        phi=Field(mesh, phi),
        iterations=iterations,
        residual_u=0.0,
        residual_phi=0.0,
        sigma_clamp_count=sigma_clamp_count,
        truncation_level=level,
        history=history,
        cg_iterations=cg_iterations,
        factorizations=factorizations,
        temperature_factor=u_inverse if u_lu is None else u_lu,
    )
    sol.residual_u, sol.residual_phi = weak_residual(spec, beta, sol)
    return sol


# The rule of _box_temperature_inverse against the measured crossover: time
# of a solve's temperature work, CG on the box inverse (its set-up included)
# / a factor of K + R and its solves, on boxes with Gamma_D = {x = 0} at
# phi0 = 0.1 x, beta = 1 (6 Picard steps; median of 3 runs of best of 7, a
# shared 2-core machine, SciPy 1.17). CG wins from 16^3 and ties at 64^2;
# the rule also puts 8^3 and 12^3 on CG, at a loss of a few ms per solve.
#   mesh         32^2  48^2  64^2   8^3  12^3  16^3  20^3
#   K's b          33    49    65    81   169   289   441
#   CG / factor   4.0   2.1   1.0   3.8  1.15  0.41  0.22
def _box_temperature_inverse(mesh: Mesh, beta: Control) -> assembly.GridPoisson | None:
    """assembly.box_inverse, which preconditions the temperature CG, on a box
    mesh whose K + R does not band in its own order: K + R bands only if K
    does, and K's half-bandwidth in grid order is the stride of the first
    axis. None where K + R is factored."""
    if mesh.grid is None or (math.prod(n + 1 for n in mesh.grid[0][1:])
                             <= assembly.BANDED_MAX_HALF_WIDTH):
        return None
    return assembly.box_inverse(mesh, beta)


def _solve_potential(mesh, sigma_q, phi, fixed, values, values_norm):
    """One Picard step's potential, its CG iterations and whether it factored
    S; a function, so that its matrix is freed before the Joule assembly."""
    geom = geometry(mesh)
    A_phi = geom.csr(assembly.weighted_stiffness_data(mesh, sigma_q))
    matrix, transpose = geom.eliminated(A_phi.data, fixed)
    free = geom.free(fixed)
    x, cg, factor = assembly.solve_spd_pcg(
        matrix, lift_dirichlet(A_phi, 0.0, fixed, values, free), phi[free],
        geom.potential_preconditioner(matrix), PCG_RTOL, PCG_MAX_ITER, transpose, values_norm)
    return geom.extend(x, fixed, values), cg, factor is not None


def weak_residual(spec: ProblemSpec, beta: Control, sol: StateSolution) -> tuple[float, float]:
    """Scaled norms of the discrete weak-form residuals with the ORIGINAL sigma.

    Using the untruncated conductivity here is what certifies the truncation
    argument: below the level the two coincide, so small residuals prove the
    computed pair solves the original discrete problem.
    """
    mesh = spec.mesh
    geom = geometry(mesh)
    sigma_q = spec.model.sigma(geom.at_quadrature(sol.u.values))
    R, robin_rhs = assembly.assemble_robin(mesh, beta, spec.u1)
    joule = assembly.assemble_joule_rhs_weak(mesh, sigma_q, sol.phi, spec.phi0)
    r_u = assembly.relative_defect(geom.csr(geom.stiffness.data + R.data) @ sol.u.values,
                                   joule + robin_rhs, spec.dirichlet_temperature_vertices())
    S = geom.csr(assembly.weighted_stiffness_data(mesh, sigma_q))
    return r_u, potential_residual(S, sol.phi.values, geom.boundary_vertices)


def potential_residual(matrix, phi: np.ndarray, boundary: np.ndarray) -> float:
    """Residual of the weak potential equation with the weighted stiffness
    `matrix`: the norm of matrix @ phi over the interior rows, divided by
    max(1, its norm over the `boundary` rows)."""
    s_phi = matrix @ phi
    return (float(np.linalg.norm(np.delete(s_phi, boundary)))
            / max(1.0, float(np.linalg.norm(s_phi[boundary]))))


def subcritical_margin(sol: StateSolution, model: ConductivityModel) -> float:
    """u_star - max(u); +inf sentinel for models without a critical value."""
    if not math.isfinite(model.u_star):
        return math.inf
    return float(model.u_star - np.max(sol.u.values))
