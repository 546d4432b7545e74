"""Objective, adjoint/sensitivity solves, gradient, projection and the
optimizers for the Robin boundary control problem.

The objective is J(beta) = integral_Omega u dx + integral_GammaR beta^2 ds
over the box 0 <= beta <= m_cap. The adjoint pair (p, q) solves the exact
transpose of the Jacobian of the weak-form state residual that solve_state
solves, so one adjoint solve yields the exact discrete gradient

    g = 2 beta + (u - u1) p      on the Robin boundary,

and the optimal control satisfies the pointwise projection formula
beta = clip(-(u - u1) p / 2, 0, m_cap). Two drivers reach the coupled
optimality system: a relaxed forward-backward sweep on the projection
formula, and projected gradient descent with an Armijo backtracking line
search (monotone in J by construction), in which a trial control whose
state solve fails counts as a rejected step; an iterate is stationary only
when the projection blocks the full step, and a search that runs out of
trials or whose step stops moving the control ends unconverged. Each search
after the first starts from the spectral (Barzilai-Borwein) step
<s, s> / <s, y> of the last two accepted iterates, s their control and y
their gradient difference, in the facet-measure inner product, clipped to
[ALPHA_MIN, 1]; the first search, and one after <s, y> <= 0, starts at 1.
The Tikhonov term makes the reduced Hessian 2 I plus a smaller PDE part, so
this step sits near 1/2 and its first trial is accepted where a search
from 1 would reject one.
Sensitivity solves exist only to verify the gradient; the optimizers never
use them. Both blocks come from one linearization, four cell matrices
scattered once each; the adjoint scatters them transposed.

Both block systems, Dirichlet-eliminated, are solved by BiCGSTAB (van der
Vorst, SIAM J. Sci. Stat. Comput. 13, 1992) with a block upper-triangular
preconditioner (Murphy, Golub & Wathen, SIAM J. Sci. Comput. 21, 2000): a
factor of the potential block S, the temperature factor of K + R that the
state solve already made, and the block's own top-right coupling. The
adjoint A^T - C^T S^-1 B^T and the sensitivity A - B S^-1 C share their
Schur spectrum, so one path serves both; a run that reaches
ADJOINT_MAX_ITER, or breaks down, falls back to the direct 2n solve.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dfield

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import assembly
from .assembly import apply_dirichlet, geometry
from .errors import (AdjointFailure, ConfigurationError, CriticalityError,
                     NonconvergenceError, SolverFailure)
from .fields import Control, Field, FieldKind
from .mesh import BoundaryTag
from .state import ProblemSpec, SolverOptions, StateSolution, solve_state

# Lower clip of the spectral first step. On 8^2-32^2 squares and a 4^3 box at
# drives 0.1x-2x and m_cap 0.005-5, with optima inside the box and on either
# bound, and on the optimize-pg benchmark ops, every spectral step lay in
# 0.45-0.50, so the clip never binds there; it keeps a degenerate curvature
# estimate from starting a search below where ten halvings from 1 reach.
ALPHA_MIN = 2.0 ** -10

# Relative residual at which BiCGSTAB stops on an adjoint or sensitivity
# block. Its recursive residual falls below 1e-18 without a fallback on 16^2-
# 64^2 squares (phi0 = x at beta = 1, phi0 = 2x-3.8x at beta = 0 and 2) and on
# 8^3 and 16^3 boxes, but the true residual levels off at 1e-14 to 4e-13; 1e-14
# reaches that floor on every one of these cases (1e-13 leaves 8^3 at four
# times it) and tighter values only add iterations.
ADJOINT_RTOL = 1e-14

# BiCGSTAB iterations after which a block solve falls back to the direct 2n
# solve; 0 makes every block solve direct. The cases above take 3-10; 30
# iterations at 32^2 cost about as much as the direct solve.
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
    residual: float
    iterations: int = 0     # BiCGSTAB iterations; 0 for a direct solve


@dataclass
class SensitivityPair:
    psi1: Field
    psi2: Field
    direction: Control


def objective(mesh, u: Field, beta: Control) -> ObjectiveValue:
    """J = integral u dx + sum over Robin facets of |f| beta_f^2."""
    integral_u = float(assembly.load_vector(mesh) @ u.values)
    measures = geometry(mesh).facet_measures[beta.facet_ids]
    return ObjectiveValue(integral_u, float(measures @ beta.values ** 2))


def _state_jacobian(spec: ProblemSpec, beta: Control, state: StateSolution,
                    transpose: bool = False) -> sp.csr_matrix:
    """Exact Jacobian [[A, B], [C, S]] at (u, phi) of the residuals
    (K + R) u - b(u, phi) - robin load and S(sigma(u)) phi, with b the weak
    Joule load of assemble_joule_rhs_weak; with transpose, [[A^T, C^T],
    [B^T, S^T]]. With d = phi0 - phi, [.] the cell mean by quadrature, K the
    cell stiffness, test i and trial j, the cell matrices are

    A = K - |K| (grad phi . grad lambda_i) [d sigma' lambda_j]
          - |K| [sigma' (grad phi . grad phi0) lambda_i lambda_j]
    B = |K| (grad phi . grad lambda_i) [sigma lambda_j] - [d sigma] K
          - |K| [sigma lambda_i] (grad phi0 . grad lambda_j)
    C = |K| (grad phi . grad lambda_i) [sigma' lambda_j],    S = [sigma] K

    and R, the only beta-dependent term, is added to A after the scatter.
    The transpose scatters the transposed cell matrices: the same terms
    summed in the same order, so it is the Jacobian's transpose bit for bit.
    """
    geom = geometry(spec.mesh)
    u_q = np.maximum(geom.at_quadrature(state.u.values), 0.0)
    sigma_q = np.asarray(spec.model.sigma(u_q), dtype=float)
    sigma_prime_q = np.asarray(spec.model.sigma_prime(u_q), dtype=float)
    diff_q = geom.at_quadrature(spec.phi0.values - state.phi.values)
    gphi, gphi0 = geom.cell_gradient(state.phi.values), geom.cell_gradient(spec.phi0.values)
    conv, conv0 = (np.einsum("cd,cid->ci", g, geom.grads) for g in (gphi, gphi0))
    K = geom.grad_products

    def basis(w_q):                                     # |K| [w lambda_i], (nc, d+1)
        return (w_q @ geom.weighted_qbary) * geom.volumes[:, None]

    sigma_basis = basis(sigma_q)
    dot_vol = np.sum(gphi * gphi0, axis=1) * geom.volumes
    A = (K - np.einsum("ci,cj->cij", conv, basis(diff_q * sigma_prime_q))
         - np.einsum("cq,qij->cij", sigma_prime_q * dot_vol[:, None], geom.mass_products))
    B = (np.einsum("ci,cj->cij", conv, sigma_basis) - np.einsum("ci,cj->cij", sigma_basis, conv0)
         - K * ((diff_q * sigma_q) @ geom.qweights)[:, None, None])
    C = np.einsum("ci,cj->cij", conv, basis(sigma_prime_q))
    S = K * (sigma_q @ geom.qweights)[:, None, None]
    blocks = [[A, B], [C, S]]
    if transpose:
        blocks = [[m.swapaxes(1, 2) for m in column] for column in zip(*blocks)]
    (a, b), (c, s) = ([geom.matrix(m) for m in row] for row in blocks)
    R, _ = assembly.assemble_robin(spec.mesh, beta, spec.u1)
    return sp.bmat([[a + R, b], [c, s]], format="csr")


def _block_fixed(spec: ProblemSpec) -> np.ndarray:
    """Block rows clamped to zero: the first unknown on Gamma_D, the second
    on the whole boundary."""
    return np.concatenate([spec.dirichlet_temperature_vertices(),
                           spec.mesh.boundary_vertex_set() + spec.mesh.n_vertices])


def adjoint_system(spec: ProblemSpec, beta: Control,
                   state: StateSolution) -> tuple[sp.csr_matrix, np.ndarray, np.ndarray]:
    """Monolithic block system for (p, q): the transpose of the state
    Jacobian with the objective's source, A^T p + C^T q = -integral lambda_i
    dx and B^T p + S q = 0, so the exact transpose of sensitivity_system."""
    block = _state_jacobian(spec, beta, state, transpose=True)
    rhs = np.concatenate([-assembly.load_vector(spec.mesh),
                          np.zeros(spec.mesh.n_vertices)])
    return block, rhs, _block_fixed(spec)


def sensitivity_system(spec: ProblemSpec, beta: Control, state: StateSolution,
                       ell: Control) -> tuple[sp.csr_matrix, np.ndarray, np.ndarray]:
    """Monolithic block system for (psi1, psi2): the state Jacobian
    [[A, B], [C, S]] with the derivative of the Robin terms in direction
    ell, -integral ell (u - u1) lambda_i ds, as the temperature source."""
    ell_load = (assembly.facet_mass(spec.mesh, ell.values, ell.facet_ids)
                @ (state.u.values - spec.u1.values))
    rhs = np.concatenate([-ell_load, np.zeros(spec.mesh.n_vertices)])
    return _state_jacobian(spec, beta, state), rhs, _block_fixed(spec)


def _block_bicgstab(matrix, rhs, n: int,
                    temperature_factor) -> tuple[np.ndarray | None, int]:
    """BiCGSTAB on the eliminated 2n block, preconditioned block upper
    triangularly: z2 = S^-1 r2 with S the block's potential block, then
    z1 = T^-1 (r1 - M12 z2) with M12 its top-right block and T the state
    solve's factor of K + R eliminated on Gamma_D. Returns the solution
    (None when the cap or a breakdown stops BiCGSTAB) and the iterations."""
    s_lu = assembly.factor_spd(matrix[n:, n:])
    top_right = matrix[:n, n:]
    applications = 0

    def precondition(r):
        nonlocal applications
        applications += 1
        z2 = s_lu.solve(r[n:])
        return np.concatenate([temperature_factor.solve(r[:n] - top_right @ z2), z2])

    x, info = spla.bicgstab(matrix, rhs, rtol=ADJOINT_RTOL, atol=0.0,
                            maxiter=ADJOINT_MAX_ITER,
                            M=spla.LinearOperator(matrix.shape, precondition, dtype=float))
    # an iteration applies the preconditioner twice, once if it stops halfway
    return (x if info == 0 else None), (applications + 1) // 2


def _solve_block(block, rhs, fixed,
                 state: StateSolution) -> tuple[np.ndarray, np.ndarray, float, int]:
    """Solve the 2n block with zero data on `fixed`; returns both halves,
    the relative residual and the BiCGSTAB iterations (0 for a direct
    solve). A BiCGSTAB run that reaches ADJOINT_MAX_ITER or breaks down
    falls back to the direct solve."""
    n = rhs.size // 2
    matrix, rhs = apply_dirichlet(block, rhs, fixed, 0.0)
    try:
        x, iterations = None, 0
        if ADJOINT_MAX_ITER > 0:
            x, iterations = _block_bicgstab(matrix, rhs, n, state.temperature_factor)
        x = (assembly.solve_sparse(matrix, rhs) if x is None
             else assembly.checked_solution(matrix, rhs, x))
    except SolverFailure as exc:
        raise AdjointFailure(
            f"block solve failed ({exc}); the conductivity may be degenerate "
            "on part of the domain") from exc
    res = np.linalg.norm(matrix @ x - rhs)
    res /= max(1.0, np.linalg.norm(rhs))
    return x[:n], x[n:], float(res), iterations


def solve_adjoint(spec: ProblemSpec, beta: Control,
                  state: StateSolution) -> AdjointSolution:
    p, q, res, iterations = _solve_block(*adjoint_system(spec, beta, state), state)
    return AdjointSolution(Field(spec.mesh, p, FieldKind.ADJOINT_P),
                           Field(spec.mesh, q, FieldKind.ADJOINT_Q), res, iterations)


def solve_sensitivity(spec: ProblemSpec, beta: Control, state: StateSolution,
                      ell: Control) -> SensitivityPair:
    psi1, psi2, _, _ = _solve_block(*sensitivity_system(spec, beta, state, ell), state)
    return SensitivityPair(Field(spec.mesh, psi1, FieldKind.SENSITIVITY_1),
                           Field(spec.mesh, psi2, FieldKind.SENSITIVITY_2), ell)


def _facet_averages(spec: ProblemSpec, state: StateSolution,
                    adjoint: AdjointSolution, facet_ids) -> np.ndarray:
    """Per-facet averages of (u - u1) p via consistent facet integrals."""
    mesh = spec.mesh
    pairing = assembly.facet_pairing(mesh, facet_ids, state.u.values - spec.u1.values,
                                     adjoint.p.values)
    return pairing / geometry(mesh).facet_measures[facet_ids]


def gradient(spec: ProblemSpec, state: StateSolution, adjoint: AdjointSolution,
             beta: Control) -> np.ndarray:
    """Facetwise g = 2 beta + avg((u - u1) p)."""
    return 2.0 * beta.values + _facet_averages(spec, state, adjoint, beta.facet_ids)


def project_control(spec: ProblemSpec, state: StateSolution,
                    adjoint: AdjointSolution, m_cap: float) -> Control:
    """Projection formula beta = clip(-(u - u1) p / 2, 0, m_cap), facetwise."""
    facet_ids = spec.mesh.facet_indices(BoundaryTag.ROBIN_TEMPERATURE)
    avg = _facet_averages(spec, state, adjoint, facet_ids)
    return Control(spec.mesh, np.clip(-0.5 * avg, 0.0, m_cap), m_cap)


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
          solver: SolverOptions | None = None, central: bool = True) -> float:
    """Finite-difference derivative of J; two (or one) nonlinear solves."""
    solver = solver or SolverOptions(tol=1e-11)

    def j_at(values):
        b = Control(spec.mesh, values, beta.m_cap)
        sol = solve_state(spec, b, solver)
        return objective(spec.mesh, sol.u, b).total

    if central:
        jp = j_at(beta.values + eps * ell.values)
        jm = j_at(beta.values - eps * ell.values)
        return (jp - jm) / (2.0 * eps)
    j0 = j_at(beta.values)
    return (j_at(beta.values + eps * ell.values) - j0) / eps


@dataclass
class OptimizerOptions:
    mode: str = "sweep"                 # "sweep" or "projected_gradient"
    relaxation: float = 0.5             # sweep averaging weight
    tol: float = 1e-7
    max_outer: int = 100
    beta0: np.ndarray | float | None = None   # default m_cap / 2
    armijo_c: float = 1e-4
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


def _initial_control(spec: ProblemSpec, opts: OptimizerOptions) -> Control:
    if opts.beta0 is None:
        return Control.constant(spec.mesh, 0.5 * spec.m_cap, spec.m_cap)
    if np.ndim(opts.beta0) == 0:
        return Control.constant(spec.mesh, float(opts.beta0), spec.m_cap)
    return Control(spec.mesh, np.asarray(opts.beta0, dtype=float), spec.m_cap)


def optimize(spec: ProblemSpec, opts: OptimizerOptions | None = None) -> OptimizeResult:
    opts = opts or OptimizerOptions()
    if opts.mode == "sweep":
        return _optimize_sweep(spec, opts)
    if opts.mode == "projected_gradient":
        return _optimize_projected_gradient(spec, opts)
    raise ConfigurationError(f"unknown optimizer mode {opts.mode!r}")


def _resolve(spec, beta, opts):
    state = solve_state(spec, beta, opts.solver)
    adjoint = solve_adjoint(spec, beta, state)
    return state, adjoint


def _optimize_sweep(spec: ProblemSpec, opts: OptimizerOptions) -> OptimizeResult:
    beta = _initial_control(spec, opts)
    history = []
    best = None
    adjoint_iterations = 0
    for it in range(1, opts.max_outer + 1):
        state, adjoint = _resolve(spec, beta, opts)
        adjoint_iterations += adjoint.iterations
        proj = project_control(spec, state, adjoint, spec.m_cap).values
        resid = float(np.max(np.abs(beta.values - proj))) if proj.size else 0.0
        j = objective(spec.mesh, state.u, beta)
        history.append({"iteration": it, "J": j.total, "integral_u": j.integral_u,
                        "integral_beta_sq": j.integral_beta_sq,
                        "optimality_residual": resid})
        if best is None or j.total < best[0]:
            best = (j.total, beta, state, adjoint, resid)
        if resid <= opts.tol:
            # land exactly on the projection image and report its residual
            beta = beta.with_values(proj)
            state, adjoint = _resolve(spec, beta, opts)
            adjoint_iterations += adjoint.iterations
            final = project_control(spec, state, adjoint, spec.m_cap).values
            final_resid = float(np.max(np.abs(beta.values - final))) if final.size else 0.0
            return OptimizeResult(beta, state, adjoint, history, final_resid,
                                  True, "converged", it + 1, it + 1, adjoint_iterations)
        beta = beta.with_values((1.0 - opts.relaxation) * beta.values
                                + opts.relaxation * proj)
    _, beta, state, adjoint, resid = best
    return OptimizeResult(beta, state, adjoint, history, resid, False,
                          "max_outer exceeded; best-J iterate returned",
                          opts.max_outer, opts.max_outer, adjoint_iterations)


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


def _optimize_projected_gradient(spec: ProblemSpec,
                                 opts: OptimizerOptions) -> OptimizeResult:
    beta = _initial_control(spec, opts)
    measures = geometry(spec.mesh).facet_measures[beta.facet_ids]
    state, adjoint = _resolve(spec, beta, opts)
    adjoint_iterations = adjoint.iterations
    j = objective(spec.mesh, state.u, beta)
    history = []
    previous = None   # (control, gradient) of the last accepted iterate
    status, converged = "max_outer exceeded; best-J iterate returned", False
    for it in range(1, opts.max_outer + 1):
        g = gradient(spec, state, adjoint, beta)
        proj = project_control(spec, state, adjoint, spec.m_cap).values
        resid = float(np.max(np.abs(beta.values - proj))) if proj.size else 0.0
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
        step = entry["initial_step"] = _spectral_step(measures, previous, beta.values, g)
        previous = (beta.values, g)
        accepted = False
        for _ in range(opts.max_backtracks):
            candidate = np.clip(beta.values - step * g, 0.0, spec.m_cap)
            if np.array_equal(candidate, beta.values):
                break  # the step no longer moves beta: the search is exhausted
            cand = beta.with_values(candidate)
            entry["trials"] += 1
            try:
                cstate = solve_state(spec, cand, opts.solver)
            except (NonconvergenceError, CriticalityError):
                # a trial the state solver cannot reach is a rejected step
                entry["failed_trials"] += 1
                step *= 0.5
                continue
            cj = objective(spec.mesh, cstate.u, cand)
            decrease = float(np.sum(measures * g * (candidate - beta.values)))
            if cj.total <= j.total + opts.armijo_c * decrease:
                beta, state, j = cand, cstate, cj
                adjoint = solve_adjoint(spec, beta, state)
                adjoint_iterations += adjoint.iterations
                entry["step"] = step
                accepted = True
                break
            step *= 0.5
        if not accepted:
            status = "line search exhausted; current iterate returned"
            break
    final = project_control(spec, state, adjoint, spec.m_cap).values
    resid = float(np.max(np.abs(beta.values - final))) if final.size else 0.0
    return OptimizeResult(beta, state, adjoint, history, resid, converged, status,
                          1 + sum(h["trials"] for h in history),
                          1 + sum(h["step"] > 0.0 for h in history), adjoint_iterations)
