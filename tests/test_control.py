import math
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from thermopt import assembly, config as cfg
from thermopt.assembly import interpolate, norms
from thermopt.control import (
    OptimizerOptions,
    dj_adjoint,
    dj_fd,
    dj_sensitivity,
    gradient,
    objective,
    optimize,
    sensitivity_system,
    adjoint_system,
    solve_adjoint,
    solve_sensitivity,
    stationarity,
)
from thermopt.errors import CriticalityError, DomainError, NonconvergenceError
from thermopt.fields import Control, Field
from thermopt.materials import TruncatedPower
from thermopt.mesh import (
    BoundaryTag,
    build_rectangle_mesh,
    dirichlet_on_planes,
    facet_measures,
    refine_uniform,
)
from thermopt.state import ProblemSpec, SolverOptions, StateSolution, solve_state

LEFT = dirichlet_on_planes("x=0")
SIDES = dirichlet_on_planes("x=0", "x=1")
ALL = dirichlet_on_planes("x=0", "x=1", "y=0", "y=1")
MODEL = TruncatedPower(1.0, 1.0, 2.0)


def control_spec(n=16, u1_val=0.05, m_cap=2.0, mesh=None, drive=0.1):
    mesh = mesh or build_rectangle_mesh([1.0, 1.0], [n, n], LEFT)
    return ProblemSpec(
        mesh=mesh, model=MODEL,
        u0=interpolate(mesh, lambda p: np.zeros(p.shape[0])),
        u1=interpolate(mesh, lambda p: np.full(p.shape[0], u1_val)),
        phi0=interpolate(mesh, lambda p: drive * p[:, 0]),
        m_cap=m_cap)


def constant_spec(mesh, c_u=0.3, c_phi=1.0, m_cap=2.0):
    return ProblemSpec(
        mesh=mesh, model=MODEL,
        u0=interpolate(mesh, lambda p: np.full(p.shape[0], c_u)),
        u1=interpolate(mesh, lambda p: np.full(p.shape[0], c_u)),
        phi0=interpolate(mesh, lambda p: np.full(p.shape[0], c_phi)),
        m_cap=m_cap)


def fabricated_state(mesh, u_val, p_val):
    u = Field(mesh, np.full(mesh.n_vertices, u_val))
    phi = Field(mesh, np.zeros(mesh.n_vertices))
    state = StateSolution(u, phi, 1, 0.0, 0.0, 0, None)
    from thermopt.control import AdjointSolution
    adjoint = AdjointSolution(
        Field(mesh, np.full(mesh.n_vertices, p_val)),
        Field(mesh, np.zeros(mesh.n_vertices)))
    return state, adjoint


def test_objective_constants():
    mesh = build_rectangle_mesh([2.0, 1.0], [4, 4], LEFT)
    u = Field(mesh, np.full(mesh.n_vertices, 0.5))
    beta = Control.constant(mesh, 1.5, 2.0)
    val = objective(mesh, u, beta)
    area = 2.0
    robin = mesh.facet_indices(BoundaryTag.ROBIN_TEMPERATURE)
    robin_len = facet_measures(mesh)[robin].sum()
    assert val.integral_u == pytest.approx(0.5 * area, rel=1e-13)
    assert val.integral_beta_sq == pytest.approx(1.5 ** 2 * robin_len, rel=1e-13)
    assert val.total == val.integral_u + val.integral_beta_sq
    zero = objective(mesh, u, Control.constant(mesh, 0.0, 2.0))
    assert zero.total == zero.integral_u
    doubled = objective(mesh, u, Control.constant(mesh, 3.0, 4.0))
    assert doubled.integral_beta_sq == pytest.approx(4.0 * val.integral_beta_sq)


def test_adjoint_and_sensitivity_systems_are_transposes():
    spec = control_spec(8)
    beta = Control.constant(spec.mesh, 0.5, 2.0)
    state = solve_state(spec, beta)
    rng = np.random.default_rng(5)
    ell = Control.variation(spec.mesh, rng.uniform(-1, 1, beta.values.size))
    bA = sp.bmat(adjoint_system(spec, beta, state)[0], format="csr")
    bS = sp.bmat(sensitivity_system(spec, beta, state, ell)[0], format="csr")
    assert abs(bA - bS.T).max() == 0.0


def test_adjoint_weak_form_residual():
    spec = control_spec(8)
    beta = Control.constant(spec.mesh, 0.5, 2.0)
    state = solve_state(spec, beta)
    adj = solve_adjoint(spec, beta, state)
    blocks, rhs = adjoint_system(spec, beta, state)
    matrix = sp.bmat(blocks, format="csr")
    geom = assembly.geometry(spec.mesh)
    x = np.concatenate([adj.p.values[geom.free(spec.dirichlet_temperature_vertices())],
                        adj.q.values[geom.free(geom.boundary_vertices)]])
    assert np.linalg.norm(matrix @ x - rhs) <= 1e-9 * max(1.0, np.linalg.norm(rhs))
    assert np.all(adj.p.values[spec.dirichlet_temperature_vertices()] == 0)
    assert np.all(adj.q.values[spec.mesh.boundary_vertex_set()] == 0)


def test_adjoint_quadratic_profile_with_flat_potential():
    # constant phi0 decouples the system: q = 0 and p solves Delta p = 1
    # with p = 0 at x in {0,1}; exact profile p = (x^2 - x)/2, reproduced
    # exactly at the nodes of this y-invariant configuration
    for n in (8, 16):
        mesh = build_rectangle_mesh([1.0, 1.0], [n, n], SIDES)
        spec = constant_spec(mesh, c_u=0.2, c_phi=0.7)
        beta = Control.constant(mesh, 0.0, 2.0)
        state = solve_state(spec, beta)
        adj = solve_adjoint(spec, beta, state)
        assert np.max(np.abs(adj.q.values)) < 1e-12
        exact = (mesh.vertices[:, 0] ** 2 - mesh.vertices[:, 0]) / 2.0
        assert np.max(np.abs(adj.p.values - exact)) < 1e-12


def test_adjoint_poisson_center_value_oracle():
    # full Dirichlet square: p solves Delta p = 1, p = 0 on the boundary;
    # center value from the double sine series of the torsion function
    series = 0.0
    for m in range(1, 200, 2):
        for k in range(1, 200, 2):
            series += (16.0 / math.pi ** 4) * math.sin(m * math.pi / 2) \
                * math.sin(k * math.pi / 2) / (m * k * (m ** 2 + k ** 2))
    mesh = build_rectangle_mesh([1.0, 1.0], [32, 32], ALL)
    spec = constant_spec(mesh, c_u=0.2, c_phi=0.0, m_cap=2.0)
    state = solve_state(spec, Control.constant(mesh, 0.0, 2.0))
    adj = solve_adjoint(spec, Control.constant(mesh, 0.0, 2.0), state)
    center = np.flatnonzero(np.all(np.abs(mesh.vertices - 0.5) < 1e-12, axis=1))[0]
    assert adj.p.values[center] == pytest.approx(-series, rel=2e-3)


def _box_spec(n, drive):
    mesh = build_rectangle_mesh([1.0, 1.0, 1.0], [n, n, n], LEFT)
    return control_spec(mesh=mesh, drive=drive)


@pytest.mark.parametrize("spec_of, beta_value", [
    (lambda: control_spec(16, drive=0.1), 0.5),
    (lambda: control_spec(16, drive=1.0), 0.5),
    (lambda: control_spec(16, drive=3.0), 0.0),
    (lambda: _box_spec(6, 1.0), 0.5),
], ids=["16x16-0.1x", "16x16-x", "16x16-3x-beta0", "6x6x6-x"])
def test_block_krylov_matches_direct_solve(monkeypatch, spec_of, beta_value):
    # BiCGSTAB on the block against the direct 2n solve (a cap of 0)
    from thermopt import control
    spec = spec_of()
    beta = Control.constant(spec.mesh, beta_value, spec.m_cap)
    state = solve_state(spec, beta)
    ell = Control.variation(spec.mesh, np.random.default_rng(3).uniform(
        -1, 1, beta.values.size))
    adjoint = solve_adjoint(spec, beta, state)
    pair = solve_sensitivity(spec, beta, state, ell)
    monkeypatch.setattr(control, "ADJOINT_MAX_ITER", 0)
    direct = solve_adjoint(spec, beta, state)
    direct_pair = solve_sensitivity(spec, beta, state, ell)
    assert adjoint.iterations > 0 and direct.iterations == 0
    for got, want in ((adjoint.p, direct.p), (adjoint.q, direct.q),
                      (pair.psi1, direct_pair.psi1), (pair.psi2, direct_pair.psi2)):
        scale = np.max(np.abs(want.values))
        assert scale > 0
        assert np.max(np.abs(got.values - want.values)) <= 1e-12 * scale


def test_block_krylov_cap_falls_back_to_direct_solve(monkeypatch):
    from thermopt import control
    spec = control_spec(8, drive=1.0)
    beta = Control.constant(spec.mesh, 0.5, 2.0)
    state = solve_state(spec, beta)
    monkeypatch.setattr(control, "ADJOINT_MAX_ITER", 1)
    capped = solve_adjoint(spec, beta, state)
    monkeypatch.setattr(control, "ADJOINT_MAX_ITER", 0)
    direct = solve_adjoint(spec, beta, state)
    assert capped.iterations == 1
    assert np.array_equal(capped.p.values, direct.p.values)
    assert np.array_equal(capped.q.values, direct.q.values)


@pytest.mark.parametrize("mesh_of", [
    lambda: build_rectangle_mesh([1.0, 1.0], [16, 16], LEFT),
    lambda: refine_uniform(build_rectangle_mesh([1.0, 1.0, 1.0], [4, 4, 4], LEFT)),
    lambda: build_rectangle_mesh([1.0, 1.0, 1.0], [8, 8, 8], LEFT),
], ids=["16x16", "refined-8x8x8", "8x8x8"])
def test_solve_adjoint_factors_nothing(monkeypatch, mesh_of):
    """The adjoint preconditions S by the state's sigma-scaled inverse of K
    and K + R by the state's temperature_factor: BiCGSTAB converges with no
    factor of any block and no direct spsolve of the 2n block. On a square,
    whose S and K + R band; on a refined box, where K's inverse is its MMD
    factor, which the state solve made; and on a box, where it is the grid
    inverse."""
    spec = control_spec(mesh=mesh_of(), drive=1.0)
    beta = Control.constant(spec.mesh, 0.5, 2.0)
    state = solve_state(spec, beta)
    calls = {"factors": 0, "spsolve": 0}
    splu, spsolve, dpbtrf = spla.splu, spla.spsolve, assembly.lapack.dpbtrf

    def counting(function, key):
        def counted(*args, **kwargs):
            calls[key] += 1
            return function(*args, **kwargs)
        return counted

    monkeypatch.setattr(spla, "splu", counting(splu, "factors"))
    monkeypatch.setattr(spla, "spsolve", counting(spsolve, "spsolve"))
    monkeypatch.setattr(assembly.lapack, "dpbtrf", counting(dpbtrf, "factors"))
    adjoint = solve_adjoint(spec, beta, state)
    assert adjoint.iterations > 0
    assert calls == {"factors": 0, "spsolve": 0}


def test_solve_adjoint_eliminates_through_the_state_slot_maps(monkeypatch):
    """The adjoint takes the free blocks of A + R and S through the slot
    maps that the state solve built, and those of B and C through two more
    that the first adjoint builds and keeps: four eliminated calls, and a
    second adjoint builds no slot map."""
    spec = control_spec(16, drive=1.0)
    beta = Control.constant(spec.mesh, 0.5, 2.0)
    state = solve_state(spec, beta)
    geom = assembly.geometry(spec.mesh)
    slot_maps = set(geom._eliminations)
    calls = []
    eliminated = assembly.P1Geometry.eliminated

    def counting_eliminated(self, data, fixed, fixed_cols=None):
        calls.append((fixed.tobytes(), None if fixed_cols is None else fixed_cols.tobytes()))
        return eliminated(self, data, fixed, fixed_cols)

    monkeypatch.setattr(assembly.P1Geometry, "eliminated", counting_eliminated)
    solve_adjoint(spec, beta, state)
    assert len(calls) == 4 and {c for c in calls if c[1] is None} == slot_maps
    assert set(geom._eliminations) == slot_maps | set(calls) and len(set(calls)) == 4
    kept = set(geom._eliminations)
    solve_adjoint(spec, beta, state)
    assert set(geom._eliminations) == kept


def test_sensitivity_zero_direction_gives_zero():
    spec = control_spec(8)
    beta = Control.constant(spec.mesh, 0.5, 2.0)
    state = solve_state(spec, beta)
    ell = Control.variation(spec.mesh, np.zeros(beta.values.size))
    pair = solve_sensitivity(spec, beta, state, ell)
    assert np.all(pair.psi1.values == 0)
    assert np.all(pair.psi2.values == 0)


def test_sensitivity_constant_data_gives_zero():
    mesh = build_rectangle_mesh([1.0, 1.0], [8, 8], LEFT)
    spec = constant_spec(mesh, c_u=0.3, c_phi=1.0)
    beta = Control.constant(mesh, 0.5, 2.0)
    state = solve_state(spec, beta)
    ell = Control.variation(mesh, np.ones(beta.values.size))
    pair = solve_sensitivity(spec, beta, state, ell)
    assert np.max(np.abs(pair.psi1.values)) < 1e-12
    assert np.max(np.abs(pair.psi2.values)) < 1e-12


def test_sensitivity_fd_sequence_decreases():
    spec = control_spec(16)
    beta = Control.constant(spec.mesh, 0.5, 2.0)
    opts = SolverOptions(tol=1e-12)
    state = solve_state(spec, beta, opts)
    rng = np.random.default_rng(11)
    ell = Control.variation(spec.mesh, rng.uniform(-1, 1, beta.values.size))
    pair = solve_sensitivity(spec, beta, state, ell)
    errs = []
    for eps in (1e-2, 1e-3, 1e-4):
        bp = spec_control(spec, beta.values + eps * ell.values)
        sol = solve_state(spec, bp, opts)
        fd = (sol.u.values - state.u.values) / eps
        gap = Field(spec.mesh, fd - pair.psi1.values)
        errs.append(norms(gap).l2)
    assert errs[0] > errs[1] > errs[2]


def spec_control(spec, values):
    return Control(spec.mesh, values, spec.m_cap)


def test_gradient_trivial_cases():
    mesh = build_rectangle_mesh([1.0, 1.0], [4, 4], LEFT)
    spec = control_spec(mesh=mesh, u1_val=0.0)
    # u = u1 on the Robin part: gradient reduces to 2 beta
    state, adjoint = fabricated_state(mesh, 0.0, -3.0)
    beta = Control.constant(mesh, 0.75, 2.0)
    g = gradient(spec, state, adjoint, beta)
    assert np.allclose(g, 2 * 0.75, atol=1e-14)
    # beta = 0 and p = 0: zero gradient
    state, adjoint = fabricated_state(mesh, 0.4, 0.0)
    g = gradient(spec, state, adjoint, Control.constant(mesh, 0.0, 2.0))
    assert np.allclose(g, 0.0, atol=1e-14)


def forward_difference(spec, beta, ell, eps, solver):
    """(J(beta + eps ell) - J(beta)) / eps, one nonlinear solve per value."""
    def j_at(values):
        b = Control(spec.mesh, values, beta.m_cap)
        return objective(spec.mesh, solve_state(spec, b, solver).u, b).total

    return (j_at(beta.values + eps * ell.values) - j_at(beta.values)) / eps


def test_gradient_matches_forward_difference():
    spec = control_spec(8)
    beta = Control.constant(spec.mesh, 0.5, 2.0)
    opts = SolverOptions(tol=1e-12)
    state = solve_state(spec, beta, opts)
    adjoint = solve_adjoint(spec, beta, state)
    rng = np.random.default_rng(17)
    for _ in range(5):
        # one-signed directions keep the derivative away from zero, where a
        # forward difference at eps = 1e-4 cannot deliver 1e-3 relative
        ell = Control.variation(spec.mesh, rng.uniform(0.2, 1.0, beta.values.size))
        d_adj = dj_adjoint(spec, state, adjoint, beta, ell)
        d_fd = forward_difference(spec, beta, ell, eps=1e-4, solver=opts)
        assert d_adj == pytest.approx(d_fd, rel=1e-3)


def test_projection_formula_clipping():
    mesh = build_rectangle_mesh([1.0, 1.0], [4, 4], LEFT)
    spec = control_spec(mesh=mesh, u1_val=0.0, m_cap=3.0)
    beta = Control.constant(mesh, 0.0, 3.0)
    # (u - u1) p = -2 per facet: -(-2)/2 = 1, inside the box
    state, adjoint = fabricated_state(mesh, 1.0, -2.0)
    _, proj, resid = stationarity(spec, state, adjoint, beta)
    assert np.allclose(proj, 1.0, atol=1e-14)
    assert resid == pytest.approx(1.0, abs=1e-14)
    # (u - u1) p = +2: clipped at 0
    state, adjoint = fabricated_state(mesh, 1.0, 2.0)
    _, proj, resid = stationarity(spec, state, adjoint, beta)
    assert np.all(proj == 0.0)
    assert resid == 0.0
    # (u - u1) p = -10: 5 clipped at the cap 3
    state, adjoint = fabricated_state(mesh, 1.0, -10.0)
    _, proj, resid = stationarity(spec, state, adjoint, beta)
    assert np.all(proj == 3.0)
    assert resid == 3.0


def test_optimize_zero_cap_immediate():
    result = optimize(control_spec(4, m_cap=0.0))
    assert result.converged
    assert np.all(result.beta.values == 0.0)
    assert result.optimality_residual == 0.0


def test_optimize_constant_data_exact_zero():
    mesh = build_rectangle_mesh([1.0, 1.0], [4, 4], LEFT)
    spec = constant_spec(mesh, c_u=0.3, c_phi=1.0)
    # projected gradient reaches the lower bound by clipping: exactly zero
    result = optimize(spec)
    assert result.converged
    assert np.all(result.beta.values == 0.0)
    assert np.allclose(result.state.u.values, 0.3, atol=1e-12)
    area = 1.0
    assert objective(mesh, result.state.u, result.beta).total == pytest.approx(
        0.3 * area, rel=1e-12)


def test_optimize_benchmark_converges_in_the_box_without_raising_j():
    spec = control_spec(8)
    result = optimize(spec, OptimizerOptions(tol=1e-7))
    assert result.converged
    assert result.optimality_residual <= 1e-6
    assert np.all(result.beta.values >= 0)
    assert np.all(result.beta.values <= spec.m_cap)
    # J history exactly nonincreasing
    hist = [h["J"] for h in result.history]
    assert all(a >= b for a, b in zip(hist, hist[1:]))


@pytest.mark.parametrize("error_class", [NonconvergenceError, CriticalityError])
def test_projected_gradient_survives_failed_trial_solve(monkeypatch, error_class):
    # a failed trial halves the step along -g
    spec = control_spec(8)
    opts = OptimizerOptions(tol=1e-7)
    reference = optimize(spec, opts)
    calls = []

    def failing_first_trial(*args, **kwargs):
        calls.append(None)
        if len(calls) == 2:  # call 1 is the initial state, call 2 the first trial
            raise error_class("injected trial failure")
        return solve_state(*args, **kwargs)

    monkeypatch.setattr("thermopt.control.solve_state", failing_first_trial)
    result = optimize(spec, opts)
    assert result.converged
    assert result.history[0]["failed_trials"] == 1
    assert sum(h["failed_trials"] for h in result.history) == 1
    j_ref = objective(spec.mesh, reference.state.u, reference.beta).total
    j = objective(spec.mesh, result.state.u, result.beta).total
    assert j == pytest.approx(j_ref, rel=1e-6)


def test_projected_gradient_exhausted_search_is_not_converged(monkeypatch):
    spec = control_spec(8)
    opts = OptimizerOptions(tol=1e-7, max_backtracks=6)
    calls = []

    def failing_trials(*args, **kwargs):
        calls.append(None)
        if len(calls) > 1:  # call 1 is the initial state; every trial fails
            raise NonconvergenceError("injected trial failure")
        return solve_state(*args, **kwargs)

    monkeypatch.setattr("thermopt.control.solve_state", failing_trials)
    result = optimize(spec, opts)
    assert not result.converged
    assert result.status.startswith("line search exhausted")
    assert result.optimality_residual > opts.tol
    assert len(result.history) == 1
    assert result.history[0]["failed_trials"] == opts.max_backtracks


def test_projected_gradient_vanishing_step_is_not_stationary(monkeypatch):
    # an uphill direction of size 1e-6: no trial decreases J, and after about
    # 35 halvings the clipped candidate equals beta bit for bit; that is an
    # exhausted search, not a step the projection blocks
    from thermopt import control
    true_stationarity = control.stationarity

    def uphill(*args):
        g, proj, resid = true_stationarity(*args)
        return -1e-6 * np.sign(g), proj, resid

    monkeypatch.setattr(control, "stationarity", uphill)
    opts = OptimizerOptions(tol=1e-7)
    result = optimize(control_spec(8), opts)
    assert not result.converged
    assert result.status.startswith("line search exhausted")
    assert result.optimality_residual > opts.tol
    assert len(result.history) == 1


def test_projected_gradient_coarse_mesh_converges_in_few_solves(monkeypatch):
    # 12x12 at phi0 = 0.986464 x: with a gradient off by 1e-7 the search
    # stalled for hundreds of state solves and reported a residual above tol
    calls = []

    def counting_solve(*args, **kwargs):
        calls.append(None)
        return solve_state(*args, **kwargs)

    monkeypatch.setattr("thermopt.control.solve_state", counting_solve)
    opts = OptimizerOptions(tol=1e-7)
    result = optimize(control_spec(12, drive=0.986464), opts)
    assert result.converged
    assert result.optimality_residual <= opts.tol
    assert len(calls) <= 20


def counting_state_solves(monkeypatch):
    calls = []

    def counting_solve(*args, **kwargs):
        calls.append(args[1].values.copy())
        return solve_state(*args, **kwargs)

    monkeypatch.setattr("thermopt.control.solve_state", counting_solve)
    return calls


def test_optimizer_counts_its_solves(monkeypatch):
    calls = counting_state_solves(monkeypatch)
    result = optimize(control_spec(16))
    assert result.converged
    assert result.state_solves == len(calls)
    assert result.state_solves == 1 + sum(h["trials"] for h in result.history)
    accepted = sum(h["step"] > 0 for h in result.history)
    assert result.adjoint_solves == 1 + accepted


def test_optimizer_totals_adjoint_iterations(monkeypatch):
    from thermopt import control
    adjoints = []

    def recording_adjoint(*args):
        adjoints.append(solve_adjoint(*args))
        return adjoints[-1]

    monkeypatch.setattr(control, "solve_adjoint", recording_adjoint)
    result = optimize(control_spec(8))
    assert result.converged
    assert result.adjoint_solves == len(adjoints)
    assert all(a.iterations > 0 for a in adjoints)
    assert result.adjoint_iterations == sum(a.iterations for a in adjoints)


@pytest.mark.parametrize("failing_call", [None, 2])
def test_optimizer_totals_cg_iterations_and_factorizations(monkeypatch, failing_call):
    # cg_iterations and factorizations total every state solve, a failed
    # trial included (from its error's counts); an adjoint factors nothing
    from thermopt import control
    states, adjoints = [], []

    def recording_state(*args, **kwargs):
        states.append(solve_state(*args, **kwargs))
        if len(states) == failing_call:
            raise NonconvergenceError("injected trial failure", states[-1].history,
                                      states[-1].cg_iterations, states[-1].factorizations)
        return states[-1]

    def recording_adjoint(*args):
        adjoints.append(solve_adjoint(*args))
        return adjoints[-1]

    monkeypatch.setattr(control, "solve_state", recording_state)
    monkeypatch.setattr(control, "solve_adjoint", recording_adjoint)
    result = optimize(control_spec(8, drive=1.0))
    assert result.converged
    assert result.state_solves == len(states)
    assert sum(h.get("failed_trials", 0) for h in result.history) == (failing_call is not None)
    assert result.adjoint_solves == len(adjoints) > 1
    assert all(a.iterations > 0 for a in adjoints)
    assert result.cg_iterations == sum(s.cg_iterations for s in states) > 0
    assert result.factorizations == sum(s.factorizations for s in states) > 0


# J of configs/benchmark.cfg with every potential CG preconditioned by K's
# factor alone, before S factors and then the sigma-scaled inverse of K took
# its place; the optimizer reaches the optimum beta = 0 there
BENCHMARK_CFG = Path(__file__).resolve().parents[1] / "configs" / "benchmark.cfg"
BENCHMARK_J = 0.003307491842017859


def test_benchmark_config_objective_kept_under_factor_reuse():
    config = cfg.load_config(str(BENCHMARK_CFG))
    spec = cfg.build_problem(config)
    result = optimize(spec, cfg.build_optimizer_options(config))
    assert result.converged
    j = objective(spec.mesh, result.state.u, result.beta).total
    assert abs(j - BENCHMARK_J) <= 1e-12 * BENCHMARK_J


def test_projected_gradient_spectral_step_saves_trials(monkeypatch):
    # the Tikhonov term puts the natural step near 1/2: a search from 1
    # rejects its first trial at every outer step after the first
    calls = counting_state_solves(monkeypatch)
    opts = OptimizerOptions(tol=1e-7)
    result = optimize(control_spec(16, drive=1.0), opts)
    assert result.converged
    assert result.optimality_residual <= opts.tol
    assert len(calls) <= 8
    searches = [h for h in result.history if h["trials"]]
    assert searches[0]["initial_step"] == 1.0
    assert all(0.25 <= h["initial_step"] < 1.0 for h in searches[1:])


def test_projected_gradient_first_trial_is_the_full_step(monkeypatch):
    # every run's first search tries step 1: clip(beta0 - g0, 0, m_cap)
    for drive, beta0 in ((0.1, None), (1.0, 0.3), (0.5, 1.7)):
        spec = control_spec(8, drive=drive)
        opts = OptimizerOptions(beta0=beta0)
        beta = Control.constant(spec.mesh, 1.0 if beta0 is None else beta0, spec.m_cap)
        state = solve_state(spec, beta, opts.solver)
        g = gradient(spec, state, solve_adjoint(spec, beta, state), beta)
        with monkeypatch.context() as patch:
            calls = counting_state_solves(patch)
            optimize(spec, opts)
        assert np.array_equal(calls[1], np.clip(beta.values - g, 0.0, spec.m_cap))


def test_projected_gradient_nonpositive_curvature_restarts_at_one(monkeypatch):
    # a gradient that grows while beta falls gives <s, y> < 0: the spectral
    # step is undefined and every search starts from 1
    from thermopt import control
    true_stationarity = control.stationarity
    calls = []

    def growing_gradient(spec, state, adjoint, beta):
        calls.append(None)
        _, proj, resid = true_stationarity(spec, state, adjoint, beta)
        return np.full(beta.values.size, 0.1 * len(calls)), proj, resid

    monkeypatch.setattr(control, "stationarity", growing_gradient)
    opts = OptimizerOptions(max_outer=3)
    result = optimize(control_spec(8), opts)
    searches = [h for h in result.history if h["trials"]]
    assert len(searches) == 3
    assert [h["initial_step"] for h in searches] == [1.0, 1.0, 1.0]


def test_optimize_beta0_outside_box_is_a_domain_error():
    spec = control_spec(4)
    with pytest.raises(DomainError):
        optimize(spec, OptimizerOptions(beta0=spec.m_cap + 1.0))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_control_rejects_non_finite_values(value):
    mesh = build_rectangle_mesh([1.0, 1.0], [4, 4], LEFT)
    values = np.full(Control.constant(mesh, 1.0, 2.0).values.size, 1.0)
    values[0] = value
    with pytest.raises(DomainError, match="non-finite"):
        Control(mesh, values, 2.0)
    with pytest.raises(DomainError, match="non-finite"):
        Control.variation(mesh, values)


def test_optimize_interior_optimum_balances_projection():
    # stronger drive with u1 = 0: cooling pays off and the optimum sits
    # strictly inside the box, so the projection formula is active
    mesh = build_rectangle_mesh([1.0, 1.0], [8, 8], LEFT)
    spec = ProblemSpec(
        mesh=mesh, model=MODEL,
        u0=interpolate(mesh, lambda p: np.zeros(p.shape[0])),
        u1=interpolate(mesh, lambda p: np.zeros(p.shape[0])),
        phi0=interpolate(mesh, lambda p: 0.5 * p[:, 0]),
        m_cap=2.0)
    result = optimize(spec, OptimizerOptions(tol=1e-8, max_outer=200))
    assert result.converged
    assert np.all(result.beta.values > 0)
    assert np.all(result.beta.values < spec.m_cap)
    # interior optimality: 2 beta = -(u - u1) p holds facetwise
    g = gradient(spec, result.state, result.adjoint, result.beta)
    assert np.max(np.abs(g)) <= 1e-6


def test_optimize_3d_problem():
    rule = dirichlet_on_planes("x=0")
    mesh = build_rectangle_mesh([1.0, 1.0, 1.0], [3, 3, 3], rule)
    spec = ProblemSpec(
        mesh=mesh, model=MODEL,
        u0=interpolate(mesh, lambda p: np.zeros(p.shape[0])),
        u1=interpolate(mesh, lambda p: np.full(p.shape[0], 0.05)),
        phi0=interpolate(mesh, lambda p: 0.1 * p[:, 0]),
        m_cap=2.0)
    res = optimize(spec)
    assert res.converged
    assert res.optimality_residual <= 1e-6
    assert np.all(res.beta.values >= 0)
    assert np.all(res.beta.values <= spec.m_cap)


def test_optimize_3d_box_with_the_box_temperature_inverse(monkeypatch):
    # the 8^3 box solves its temperature by CG and preconditions the
    # adjoint's temperature block by the box inverse: the J of a run whose
    # state solves factor K + R, and no adjoint falls back to the direct solve
    from thermopt import state as state_module
    spec = control_spec(mesh=build_rectangle_mesh([1.0] * 3, [8] * 3, LEFT), drive=1.0)
    spsolve, direct_solves = spla.spsolve, []

    def counting_spsolve(*args, **kwargs):
        direct_solves.append(args[0].shape)
        return spsolve(*args, **kwargs)

    monkeypatch.setattr(spla, "spsolve", counting_spsolve)
    res = optimize(spec)
    assert res.converged and res.adjoint_iterations > 0 and direct_solves == []
    assert isinstance(res.state.temperature_factor, assembly.GridPoisson)
    monkeypatch.setattr(state_module, "_box_temperature_inverse", lambda mesh, beta: None)
    factored = optimize(spec)
    assert factored.converged and factored.factorizations > res.factorizations
    j, j_factored = (objective(spec.mesh, r.state.u, r.beta).total for r in (res, factored))
    assert abs(j - j_factored) <= 1e-10 * abs(j_factored)


def benchmark_box(divisions, drive):
    """configs/benchmark.cfg's problem and optimizer options on the unit box
    of `divisions`, at phi0 = drive x."""
    text = (BENCHMARK_CFG.read_text()
            .replace("problem.phi0 = 0.1*x", f"problem.phi0 = {drive}*x")
            .replace("problem.extents = 1 1", "problem.extents = " + " ".join("1" * len(divisions)))
            .replace("problem.divisions = 16 16",
                     "problem.divisions = " + " ".join(map(str, divisions))))
    config = cfg.parse_config_text(text)
    return cfg.build_problem(config), cfg.build_optimizer_options(config)


# J of the optimizers below, as computed when each adjoint factored S and
# handed the factor to the next state solves
BOX8_J = 0.1974791445170461
SQUARE32_2X_J = 0.40871590834180743


def test_3d_box_optimize_makes_no_factor():
    # K's and K + R's grid inverses, and the sigma-scaled inverse of K for
    # every potential CG and every adjoint's S block
    spec, opts = benchmark_box([8, 8, 8], 1)
    result = optimize(spec, opts)
    assert result.converged and result.factorizations == 0
    j = objective(spec.mesh, result.state.u, result.beta).total
    assert abs(j - BOX8_J) <= 1e-12 * BOX8_J


def test_strong_drive_optimize_factors_only_the_temperature():
    # 32^2 at phi0 = 2x: 6 state solves each factor K + R and no potential
    # CG reaches its cap (33 factors when S factors preconditioned the trials)
    spec, opts = benchmark_box([32, 32], 2)
    result = optimize(spec, opts)
    assert result.converged
    assert result.factorizations <= 6
    j = objective(spec.mesh, result.state.u, result.beta).total
    assert abs(j - SQUARE32_2X_J) <= 1e-10 * SQUARE32_2X_J


def test_optimize_beats_random_admissible_controls():
    spec = control_spec(8)
    result = optimize(spec)
    j_star = objective(spec.mesh, result.state.u, result.beta).total
    rng = np.random.default_rng(20240801)
    nfac = result.beta.values.size
    for _ in range(5):
        b = Control(spec.mesh, rng.uniform(0, spec.m_cap, nfac), spec.m_cap)
        sol = solve_state(spec, b)
        assert j_star <= objective(spec.mesh, sol.u, b).total + 1e-8


def test_variational_inequality_at_optimum():
    spec = control_spec(8)
    result = optimize(spec)
    g = gradient(spec, result.state, result.adjoint, result.beta)
    measures = facet_measures(spec.mesh)[result.beta.facet_ids]
    rng = np.random.default_rng(99)
    for _ in range(20):
        bp = rng.uniform(0, spec.m_cap, g.size)
        pairing = float(np.sum(measures * (bp - result.beta.values) * g))
        assert pairing >= -1e-6


def test_fixed_point_consistency_at_optimum():
    spec = control_spec(8)
    result = optimize(spec, OptimizerOptions(tol=1e-8))
    _, proj, resid = stationarity(spec, result.state, result.adjoint, result.beta)
    assert np.max(np.abs(result.beta.values - proj)) <= 1e-7
    assert resid == np.max(np.abs(result.beta.values - proj))


def test_gradient_triangle_pairwise():
    spec = control_spec(8)
    beta = Control.constant(spec.mesh, 0.5, 2.0)
    opts = SolverOptions(tol=1e-12)
    state = solve_state(spec, beta, opts)
    adjoint = solve_adjoint(spec, beta, state)
    rng = np.random.default_rng(42)
    for _ in range(3):
        ell = Control.variation(spec.mesh, rng.uniform(-1, 1, beta.values.size))
        pair = solve_sensitivity(spec, beta, state, ell)
        d1 = dj_adjoint(spec, state, adjoint, beta, ell)
        d2 = dj_sensitivity(spec, pair, beta, ell)
        d3 = dj_fd(spec, beta, ell, eps=1e-4, solver=opts)
        scale = max(abs(d1), abs(d2), abs(d3))
        assert abs(d1 - d2) <= 1e-3 * scale
        assert abs(d1 - d3) <= 1e-3 * scale
        assert abs(d2 - d3) <= 1e-3 * scale


@pytest.mark.parametrize("n", [8, 16])
@pytest.mark.parametrize("drive", [0.1, 1.0])
def test_gradient_is_exact_derivative(n, drive):
    # the adjoint is the transpose of the Jacobian of the weak-form state the
    # solver solves, so it matches central differences to their own error
    spec = control_spec(n, drive=drive)
    beta = Control.constant(spec.mesh, 0.5, 2.0)
    opts = SolverOptions(tol=1e-12)
    state = solve_state(spec, beta, opts)
    adjoint = solve_adjoint(spec, beta, state)
    rng = np.random.default_rng(23)
    for _ in range(2):
        ell = Control.variation(spec.mesh, rng.uniform(-1, 1, beta.values.size))
        d_adj = dj_adjoint(spec, state, adjoint, beta, ell)
        d_sens = dj_sensitivity(spec, solve_sensitivity(spec, beta, state, ell),
                                beta, ell)
        d_fd = dj_fd(spec, beta, ell, eps=1e-4, solver=opts)
        assert abs(d_adj - d_fd) <= 1e-7 * abs(d_fd)
        assert abs(d_adj - d_sens) <= 1e-7 * abs(d_sens)
