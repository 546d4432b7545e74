"""Objective, adjoint/sensitivity solves, gradient, projection and the
optimizer for the Robin boundary control problem.

The objective is J(beta) = integral_Omega u dx + integral_GammaR beta^2 ds
over the box 0 <= beta <= m_cap. The adjoint pair (p, q) solves the exact
transpose of the Jacobian of the weak-form state residual that solve_state
solves, so one adjoint solve yields the exact discrete gradient

    g = 2 beta + (u - u1) p      on the Robin boundary,

and the optimal control satisfies the pointwise projection formula
beta = clip(-(u - u1) p / 2, 0, m_cap). Its image proj is also
clip(beta - g / 2, 0, m_cap), and optimize reaches it by projected gradient
(Hinze, Pinnau, Ulbrich & Ulbrich, Optimization with PDE Constraints, 2009,
ch. 2): it searches along clip(beta - step g, 0, m_cap) with Armijo
backtracking, monotone in J by construction, each search from the spectral
(Barzilai-Borwein) step of _spectral_step. The Tikhonov term makes the
reduced Hessian 2 I plus a smaller PDE part, so this step sits near 1/2 and
its first trial is accepted where a search from 1 would reject one. A trial
whose state solve fails halves the step; an iterate is stationary when its
residual reaches tol or the projection blocks the full step; a search that
runs out of trials or whose step stops moving the control ends unconverged;
and at max_outer the last iterate, which has the lowest J, is returned.
Sensitivity solves exist only to verify the gradient; the optimizer never
uses them. Both blocks come from one linearization: three cell matrices
scattered once each and S from the stiffness map, each reduced to its free
block (the unknowns of u off Gamma_D, of phi off the boundary) on the slot
maps of the state solve (the adjoint takes the transposed blocks).

Both block systems are solved by BiCGSTAB (van der Vorst, SIAM J. Sci.
Stat. Comput. 13, 1992) on the four free blocks, with a block
upper-triangular preconditioner (Murphy, Golub & Wathen, SIAM J. Sci.
Comput. 21, 2000) that factors nothing: the sigma-scaled inverse of K of
the state's potential CG for S, the state's temperature_factor for K + R
and the block's own top-right coupling. The adjoint A^T - C^T S^-1 B^T and
the sensitivity A - B S^-1 C share their Schur spectrum, so one path serves
both; a run that reaches ADJOINT_MAX_ITER, or breaks down, falls back to the
direct 2n solve of the assembled block matrix.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field as dfield

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import assembly
from .assembly import geometry
from .errors import AdjointFailure, CriticalityError, NonconvergenceError, SolverFailure
from .fields import Control, Field
from .state import ProblemSpec, SolverOptions, StateSolution, solve_state

# Lower clip of the spectral first step. On 8^2-32^2 squares and a 4^3 box at
# drives 0.1x-2x and m_cap 0.005-5, with optima inside the box and on either
# bound, and on the optimize-pg benchmark ops, every spectral step lay in
# 0.45-0.50, so the clip never binds there; it keeps a degenerate curvature
# estimate from starting a search below where ten halvings from 1 reach.
ALPHA_MIN = 2.0 ** -10
ARMIJO_C = 1e-4     # sufficient-decrease constant of the Armijo condition

# Relative residual at which BiCGSTAB stops on an adjoint or sensitivity
# block. Its recursive residual falls below 1e-18 without a fallback on 16^2-
# 64^2 squares (phi0 = x at beta = 1, phi0 = 2x-3.8x at beta = 0 and 2) and on
# 8^3 and 16^3 boxes, but the true residual levels off at 1e-14 to 5e-13; 1e-14
# reaches that floor on every one of these cases (1e-13 leaves 8^3 at four
# times it) and tighter values only add iterations.
ADJOINT_RTOL = 1e-14

# BiCGSTAB iterations after which a block solve falls back to the direct 2n
# solve; 0 makes every block solve direct. The cases above take 5-11; 30 at
# 32^2 cost about as much as the direct solve.
ADJOINT_MAX_ITER = 30


@dataclass
class ObjectiveValue:
    integral_u: float
    integral_beta_sq: float

    @property
    def total(self) -> float:
        return self.integral_u + self.integral_beta_sq


@dataclass
class AdjointSolution:
    p: Field
    q: Field
    iterations: int = 0     # BiCGSTAB iterations; 0 for a direct solve


@dataclass
class SensitivityPair:
    psi1: Field
    psi2: Field


def objective(mesh, u: Field, beta: Control) -> ObjectiveValue:
    """J = integral u dx + sum over Robin facets of |f| beta_f^2."""
    integral_u = float(assembly.load_vector(mesh) @ u.values)
    measures = geometry(mesh).facet_measures[beta.facet_ids]
    return ObjectiveValue(integral_u, float(measures @ beta.values ** 2))


def _state_jacobian(spec: ProblemSpec, beta: Control,
                    state: StateSolution) -> list[list[sp.csr_matrix]]:
    """Free blocks [[A, B], [C, S]] of the exact Jacobian at (u, phi) of the
    residuals (K + R) u - b(u, phi) - robin load and S(sigma(u)) phi, with b
    the weak Joule load of assemble_joule_rhs_weak: the u rows and columns
    off Gamma_D, the phi ones off the boundary, so A is square on the first,
    S on the second, B their rows by columns and C the reverse. With
    d = phi0 - phi, [.] the cell mean by quadrature, K the cell stiffness,
    test i and trial j, the cell matrices are

    A = K - |K| (grad phi . grad lambda_i) [d sigma' lambda_j]
          - |K| [sigma' (grad phi . grad phi0) lambda_i lambda_j]
    B = |K| (grad phi . grad lambda_i) [sigma lambda_j] - [d sigma] K
          - |K| [sigma lambda_i] (grad phi0 . grad lambda_j)
    C = |K| (grad phi . grad lambda_i) [sigma' lambda_j],    S = [sigma] K

    and R, the only beta-dependent term, is added to A after the scatter.
    """
    geom = geometry(spec.mesh)
    u_q = geom.at_quadrature(state.u.values)
    sigma_q, sigma_prime_q = spec.model.sigma(u_q), spec.model.sigma_prime(u_q)
    diff_q = geom.at_quadrature(spec.phi0.values - state.phi.values)
    gphi, gphi0 = geom.cell_gradient(state.phi.values), geom.cell_gradient(spec.phi0.values)
    conv, conv0 = (np.einsum("cd,cid->ci", g, geom.grads) for g in (gphi, gphi0))
    K = geom.grad_products
    sigma_basis = geom.moments(sigma_q)
    dot_vol = np.sum(gphi * gphi0, axis=1) * geom.volumes
    A = (K - np.einsum("ci,cj->cij", conv, geom.moments(diff_q * sigma_prime_q))
         - np.einsum("cq,qij->cij", sigma_prime_q * dot_vol[:, None], geom.mass_products))
    B = (np.einsum("ci,cj->cij", conv, sigma_basis) - np.einsum("ci,cj->cij", sigma_basis, conv0)
         - K * ((diff_q * sigma_q) @ geom.qweights)[:, None, None])
    C = np.einsum("ci,cj->cij", conv, geom.moments(sigma_prime_q))
    fixed_u, fixed_phi = spec.dirichlet_temperature_vertices(), geom.boundary_vertices
    R, _ = assembly.assemble_robin(spec.mesh, beta, spec.u1)
    return [[geom.eliminated(geom.data(A) + R.data, fixed_u)[0],
             geom.eliminated(geom.data(B), fixed_u, fixed_phi)[0]],
            [geom.eliminated(geom.data(C), fixed_phi, fixed_u)[0],
             geom.eliminated(geom.stiffness_map @ (sigma_q @ geom.qweights), fixed_phi)[0]]]


def _block_rhs(spec: ProblemSpec, source: np.ndarray) -> np.ndarray:
    """Right side (source off Gamma_D, 0 off the boundary) of a block system."""
    geom = geometry(spec.mesh)
    return np.concatenate([source[geom.free(spec.dirichlet_temperature_vertices())],
                           np.zeros(geom.free(geom.boundary_vertices).size)])


def adjoint_system(spec: ProblemSpec, beta: Control,
                   state: StateSolution) -> tuple[list[list[sp.spmatrix]], np.ndarray]:
    """Free block system for (p, q): the state Jacobian's transpose
    [[A^T, C^T], [B^T, S]], bit for bit as taking free blocks commutes with it, with
    the objective's source: A^T p + C^T q = -integral lambda_i dx, B^T p + S q = 0."""
    (a, b), (c, s) = _state_jacobian(spec, beta, state)
    return [[a.T, c.T], [b.T, s]], _block_rhs(spec, -assembly.load_vector(spec.mesh))


def sensitivity_system(spec: ProblemSpec, beta: Control, state: StateSolution,
                       ell: Control) -> tuple[list[list[sp.spmatrix]], np.ndarray]:
    """Free block system for (psi1, psi2): the state Jacobian
    [[A, B], [C, S]] with the derivative of the Robin terms in direction
    ell, -integral ell (u - u1) lambda_i ds, as the temperature source."""
    ell_load = (assembly.facet_mass(spec.mesh, ell.values, ell.facet_ids)
                @ (state.u.values - spec.u1.values))
    return _state_jacobian(spec, beta, state), _block_rhs(spec, -ell_load)


def _block_bicgstab(geom, blocks, rhs, temperature_factor) -> tuple[np.ndarray | None, int]:
    """BiCGSTAB on the free blocks [[M11, M12], [M21, M22]], preconditioned
    block upper triangularly: z2 = P r2 with P the sigma-scaled inverse of K
    for S = M22, then z1 = T^-1 (r1 - M12 z2) with T^-1 the `temperature_factor`.
    Returns the checked solution (None when the cap or a breakdown stops
    BiCGSTAB) and the iterations."""
    (m11, m12), (m21, m22) = blocks
    n = m11.shape[0]   # the temperature unknowns
    potential_inverse = geom.potential_preconditioner(m22)
    applications = 0

    def apply(x):
        return np.concatenate([m11 @ x[:n] + m12 @ x[n:], m21 @ x[:n] + m22 @ x[n:]])

    def precondition(r):
        nonlocal applications
        applications += 1
        z2 = potential_inverse.solve(r[n:])
        return np.concatenate([temperature_factor.solve(r[:n] - m12 @ z2), z2])

    matrix, M = (spla.LinearOperator((rhs.size,) * 2, f, dtype=float)
                 for f in (apply, precondition))
    x, info = spla.bicgstab(matrix, rhs, rtol=ADJOINT_RTOL, atol=0.0,
                            maxiter=ADJOINT_MAX_ITER, M=M)
    x = assembly.checked_solution(matrix, rhs, x) if info == 0 else None
    # an iteration applies the preconditioner twice, once if it stops halfway
    return x, (applications + 1) // 2


def _solve_block(spec: ProblemSpec, blocks, rhs, state: StateSolution
                 ) -> tuple[Field, Field, int]:
    """Solve the free block system; returns both halves as fields, zero on
    their Dirichlet sets, and the BiCGSTAB iterations (0 for a direct solve).
    A BiCGSTAB run that reaches ADJOINT_MAX_ITER or breaks down falls back to
    the direct solve of the assembled block matrix."""
    geom = geometry(spec.mesh)
    try:
        x, iterations = None, 0
        if ADJOINT_MAX_ITER > 0:
            x, iterations = _block_bicgstab(geom, blocks, rhs, state.temperature_factor)
        if x is None:
            matrix = sp.bmat(blocks, format="csr")
            matrix.eliminate_zeros()   # stored zeros would change the direct solve's ordering
            x = assembly.solve_sparse(matrix, rhs)
    except SolverFailure as exc:
        raise AdjointFailure(
            f"block solve failed ({exc}); the conductivity may be degenerate "
            "on part of the domain") from exc
    n = blocks[0][0].shape[0]   # the temperature unknowns
    return (Field(spec.mesh, geom.extend(x[:n], spec.dirichlet_temperature_vertices())),
            Field(spec.mesh, geom.extend(x[n:], geom.boundary_vertices)), iterations)


def solve_adjoint(spec: ProblemSpec, beta: Control,
                  state: StateSolution) -> AdjointSolution:
    return AdjointSolution(*_solve_block(spec, *adjoint_system(spec, beta, state), state))


def solve_sensitivity(spec: ProblemSpec, beta: Control, state: StateSolution,
                      ell: Control) -> SensitivityPair:
    psi1, psi2, *_ = _solve_block(spec, *sensitivity_system(spec, beta, state, ell), state)
    return SensitivityPair(psi1, psi2)


def stationarity(spec: ProblemSpec, state: StateSolution, adjoint: AdjointSolution,
                 beta: Control) -> tuple[np.ndarray, np.ndarray, float]:
    """The gradient g = 2 beta + avg((u - u1) p), the projection formula's
    control clip(-avg((u - u1) p) / 2, 0, m_cap) and the optimality residual
    max |beta - projection| of one iterate, facetwise from one facet pairing."""
    pairing = assembly.facet_pairing(spec.mesh, beta.facet_ids,
                                     state.u.values - spec.u1.values, adjoint.p.values)
    avg = pairing / geometry(spec.mesh).facet_measures[beta.facet_ids]
    proj = np.clip(-0.5 * avg, 0.0, spec.m_cap)
    resid = float(np.max(np.abs(beta.values - proj))) if proj.size else 0.0
    return 2.0 * beta.values + avg, proj, resid


def gradient(spec: ProblemSpec, state: StateSolution, adjoint: AdjointSolution,
             beta: Control) -> np.ndarray:
    """Facetwise g = 2 beta + avg((u - u1) p)."""
    return stationarity(spec, state, adjoint, beta)[0]


def dj_adjoint(spec: ProblemSpec, state: StateSolution, adjoint: AdjointSolution,
               beta: Control, ell: Control) -> float:
    """Directional derivative via the adjoint pairing integral g ell ds."""
    g = gradient(spec, state, adjoint, beta)
    measures = geometry(spec.mesh).facet_measures[beta.facet_ids]
    return float(np.sum(measures * g * ell.values))


def dj_sensitivity(spec: ProblemSpec, pair: SensitivityPair, beta: Control,
                   ell: Control) -> float:
    """Directional derivative integral psi1 dx + 2 integral beta ell ds."""
    measures = geometry(spec.mesh).facet_measures[beta.facet_ids]
    return float(assembly.load_vector(spec.mesh) @ pair.psi1.values
                 + 2.0 * np.sum(measures * beta.values * ell.values))


def dj_fd(spec: ProblemSpec, beta: Control, ell: Control, eps: float = 1e-4,
          solver: SolverOptions | None = None) -> float:
    """Central finite-difference derivative of J; two nonlinear solves."""
    solver = solver or SolverOptions(tol=1e-11)

    def j_at(values):
        b = Control(spec.mesh, values, beta.m_cap)
        sol = solve_state(spec, b, solver)
        return objective(spec.mesh, sol.u, b).total

    jp, jm = j_at(beta.values + eps * ell.values), j_at(beta.values - eps * ell.values)
    return (jp - jm) / (2.0 * eps)


@dataclass
class OptimizerOptions:
    tol: float = 1e-7
    max_outer: int = 100
    beta0: float | None = None   # default m_cap / 2
    max_backtracks: int = 40
    solver: SolverOptions = dfield(default_factory=SolverOptions)


@dataclass
class OptimizeResult:
    beta: Control
    state: StateSolution
    adjoint: AdjointSolution
    history: list
    optimality_residual: float
    converged: bool
    status: str
    state_solves: int     # including failed and rejected trials
    adjoint_solves: int
    adjoint_iterations: int   # BiCGSTAB iterations over all adjoint solves
    cg_iterations: int        # potential and temperature CG iterations over all state solves
    factorizations: int       # the state solves' factors (an adjoint makes none)


def _initial_control(spec: ProblemSpec, opts: OptimizerOptions) -> Control:
    beta0 = 0.5 * spec.m_cap if opts.beta0 is None else opts.beta0
    return Control.constant(spec.mesh, beta0, spec.m_cap)


def _count(work: Counter, state=None, adjoint=None) -> None:
    """Count in `work` a state solve and an adjoint solve with their work;
    `state` is a solution or the error of a failed solve, which carries the
    same counts."""
    if state is not None:
        work.update(state_solves=1, cg_iterations=state.cg_iterations,
                    factorizations=state.factorizations)
    if adjoint is not None:
        work.update(adjoint_solves=1, adjoint_iterations=adjoint.iterations)


def _spectral_step(measures, previous, beta, g) -> float:
    """BB1 step <s, s> / <s, y> in the facet-measure inner product, with s and
    y the control and gradient change since the previous accepted iterate,
    clipped to [ALPHA_MIN, 1]; 1 with no previous iterate or <s, y> <= 0."""
    if previous is None:
        return 1.0
    s, y = beta - previous[0], g - previous[1]
    sy = float(measures @ (s * y))
    if sy <= 0.0:
        return 1.0
    return float(np.clip(measures @ (s * s) / sy, ALPHA_MIN, 1.0))


def optimize(spec: ProblemSpec, opts: OptimizerOptions | None = None) -> OptimizeResult:
    """Minimize J over the box by projected gradient (see the module docstring)."""
    opts = opts or OptimizerOptions()
    beta = _initial_control(spec, opts)
    measures = geometry(spec.mesh).facet_measures[beta.facet_ids]
    work = Counter()
    state = solve_state(spec, beta, opts.solver)
    adjoint = solve_adjoint(spec, beta, state)
    _count(work, state, adjoint)
    j = objective(spec.mesh, state.u, beta)
    history = []
    previous = None   # (control, gradient) of the last accepted iterate
    status, converged = "max_outer exceeded; best-J iterate returned", False
    for it in range(1, opts.max_outer + 1):
        g, _, resid = stationarity(spec, state, adjoint, beta)
        entry = {"iteration": it, "J": j.total, "integral_u": j.integral_u,
                 "integral_beta_sq": j.integral_beta_sq,
                 "optimality_residual": resid, "step": 0.0, "initial_step": 0.0,
                 "trials": 0, "failed_trials": 0}
        history.append(entry)
        # stationary also when the projection blocks the full step
        full_step = np.clip(beta.values - g, 0.0, spec.m_cap)
        if resid <= opts.tol or np.array_equal(full_step, beta.values):
            status, converged = "converged", True
            break
        step = _spectral_step(measures, previous, beta.values, g)
        previous = (beta.values, g)
        entry["initial_step"] = step
        for _ in range(opts.max_backtracks):
            candidate = np.clip(beta.values - step * g, 0.0, spec.m_cap)
            if np.array_equal(candidate, beta.values):
                break  # the step no longer moves beta: the search is exhausted
            cand = beta.with_values(candidate)
            entry["trials"] += 1
            try:
                cstate = solve_state(spec, cand, opts.solver)
            except (NonconvergenceError, CriticalityError) as exc:
                entry["failed_trials"] += 1   # an unreachable trial is a rejected step
                _count(work, exc)
                step *= 0.5
                continue
            _count(work, cstate)
            cj = objective(spec.mesh, cstate.u, cand)
            decrease = float(np.sum(measures * g * (candidate - beta.values)))
            if cj.total <= j.total + ARMIJO_C * decrease:
                beta, state, j = cand, cstate, cj
                adjoint = solve_adjoint(spec, beta, state)
                _count(work, adjoint=adjoint)
                entry["step"] = step
                break
            step *= 0.5
        if not entry["step"]:
            status = "line search exhausted; current iterate returned"
            break
    resid = stationarity(spec, state, adjoint, beta)[2]
    return OptimizeResult(beta, state, adjoint, history, resid, converged, status, **work)
