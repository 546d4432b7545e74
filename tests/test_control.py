import math
import sys

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from thermopt.assembly import interpolate, norms
from thermopt.control import (
    OptimizerOptions,
    dj_adjoint,
    dj_fd,
    dj_sensitivity,
    gradient,
    objective,
    optimize,
    project_control,
    sensitivity_system,
    adjoint_system,
    solve_adjoint,
    solve_sensitivity,
)
from thermopt.errors import CriticalityError, DomainError, NonconvergenceError
from thermopt.fields import Control, Field, FieldKind
from thermopt.materials import TruncatedPower
from thermopt.mesh import (
    boundary_measure,
    BoundaryTag,
    build_rectangle_mesh,
    dirichlet_on_planes,
    facet_measures,
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
        u0=interpolate(mesh, lambda p: np.zeros(p.shape[0]), FieldKind.TEMPERATURE),
        u1=interpolate(mesh, lambda p: np.full(p.shape[0], u1_val),
                       FieldKind.TEMPERATURE),
        phi0=interpolate(mesh, lambda p: drive * p[:, 0], FieldKind.POTENTIAL),
        m_cap=m_cap)


def constant_spec(mesh, c_u=0.3, c_phi=1.0, m_cap=2.0):
    return ProblemSpec(
        mesh=mesh, model=MODEL,
        u0=interpolate(mesh, lambda p: np.full(p.shape[0], c_u), FieldKind.TEMPERATURE),
        u1=interpolate(mesh, lambda p: np.full(p.shape[0], c_u), FieldKind.TEMPERATURE),
        phi0=interpolate(mesh, lambda p: np.full(p.shape[0], c_phi),
                         FieldKind.POTENTIAL),
        m_cap=m_cap)


def fabricated_state(mesh, u_val, p_val):
    u = Field(mesh, np.full(mesh.n_vertices, u_val), FieldKind.TEMPERATURE)
    phi = Field(mesh, np.zeros(mesh.n_vertices), FieldKind.POTENTIAL)
    state = StateSolution(u, phi, 1, 0.0, 0.0, 0, None)
    from thermopt.control import AdjointSolution
    adjoint = AdjointSolution(
        Field(mesh, np.full(mesh.n_vertices, p_val), FieldKind.ADJOINT_P),
        Field(mesh, np.zeros(mesh.n_vertices), FieldKind.ADJOINT_Q), 0.0)
    return state, adjoint


def test_objective_constants():
    mesh = build_rectangle_mesh([2.0, 1.0], [4, 4], LEFT)
    u = Field(mesh, np.full(mesh.n_vertices, 0.5), FieldKind.TEMPERATURE)
    beta = Control.constant(mesh, 1.5, 2.0)
    val = objective(mesh, u, beta)
    area = 2.0
    robin_len = boundary_measure(mesh, BoundaryTag.ROBIN_TEMPERATURE)
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
    bA, _, _ = adjoint_system(spec, beta, state)
    bS, _, _ = sensitivity_system(spec, beta, state, ell)
    assert abs(bA - bS.T).max() == 0.0


def test_adjoint_weak_form_residual():
    spec = control_spec(8)
    beta = Control.constant(spec.mesh, 0.5, 2.0)
    state = solve_state(spec, beta)
    adj = solve_adjoint(spec, beta, state)
    assert adj.residual <= 1e-9
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


def test_solve_adjoint_factors_only_the_potential_block(monkeypatch):
    """The adjoint reuses the state's temperature factor: one MMD factor of
    the potential block and no COLAMD spsolve of the 2n block."""
    spec = control_spec(16, drive=1.0)
    beta = Control.constant(spec.mesh, 0.5, 2.0)
    state = solve_state(spec, beta)
    calls = {"splu": [], "spsolve": 0}
    splu, spsolve = spla.splu, spla.spsolve

    def counting_splu(*args, **kwargs):
        if sys._getframe(1).f_globals["__name__"] == "thermopt.assembly":
            calls["splu"].append(kwargs.get("permc_spec"))
        return splu(*args, **kwargs)

    def counting_spsolve(*args, **kwargs):
        calls["spsolve"] += 1
        return spsolve(*args, **kwargs)

    monkeypatch.setattr(spla, "splu", counting_splu)
    monkeypatch.setattr(spla, "spsolve", counting_spsolve)
    adjoint = solve_adjoint(spec, beta, state)
    assert adjoint.iterations > 0
    assert calls == {"splu": ["MMD_AT_PLUS_A"], "spsolve": 0}


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
        gap = Field(spec.mesh, fd - pair.psi1.values, FieldKind.SENSITIVITY_1)
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
        d_fd = dj_fd(spec, beta, ell, eps=1e-4, solver=opts, central=False)
        assert d_adj == pytest.approx(d_fd, rel=1e-3)


def test_projection_formula_clipping():
    mesh = build_rectangle_mesh([1.0, 1.0], [4, 4], LEFT)
    spec = control_spec(mesh=mesh, u1_val=0.0, m_cap=3.0)
    # (u - u1) p = -2 per facet: -(-2)/2 = 1, inside the box
    state, adjoint = fabricated_state(mesh, 1.0, -2.0)
    beta = project_control(spec, state, adjoint, 3.0)
    assert np.allclose(beta.values, 1.0, atol=1e-14)
    # (u - u1) p = +2: clipped at 0
    state, adjoint = fabricated_state(mesh, 1.0, 2.0)
    beta = project_control(spec, state, adjoint, 3.0)
    assert np.all(beta.values == 0.0)
    # (u - u1) p = -10: 5 clipped at the cap 3
    state, adjoint = fabricated_state(mesh, 1.0, -10.0)
    beta = project_control(spec, state, adjoint, 3.0)
    assert np.all(beta.values == 3.0)


def test_optimize_zero_cap_immediate():
    spec = control_spec(4, m_cap=0.0)
    for mode in ("sweep", "projected_gradient"):
        result = optimize(spec, OptimizerOptions(mode=mode))
        assert result.converged
        assert np.all(result.beta.values == 0.0)
        assert result.optimality_residual == 0.0


def test_optimize_constant_data_exact_zero():
    mesh = build_rectangle_mesh([1.0, 1.0], [4, 4], LEFT)
    spec = constant_spec(mesh, c_u=0.3, c_phi=1.0)
    # projected gradient reaches the lower bound by clipping: exactly zero
    result = optimize(spec, OptimizerOptions(mode="projected_gradient"))
    assert result.converged
    assert np.all(result.beta.values == 0.0)
    assert np.allclose(result.state.u.values, 0.3, atol=1e-12)
    area = 1.0
    assert objective(mesh, result.state.u, result.beta).total == pytest.approx(
        0.3 * area, rel=1e-12)
    # the sweep's projection image carries only LU roundoff of (u - u1) p
    result = optimize(spec, OptimizerOptions(mode="sweep"))
    assert result.converged
    assert np.max(np.abs(result.beta.values)) <= 1e-15


def test_optimize_benchmark_both_modes():
    spec = control_spec(8)
    results = {}
    for mode in ("sweep", "projected_gradient"):
        result = optimize(spec, OptimizerOptions(mode=mode, tol=1e-7))
        assert result.converged, mode
        assert result.optimality_residual <= 1e-6
        assert np.all(result.beta.values >= 0)
        assert np.all(result.beta.values <= spec.m_cap)
        results[mode] = result
    j_vals = [r.history[-1]["J"] for r in results.values()]
    assert j_vals[0] == pytest.approx(j_vals[1], rel=1e-4)
    # projected gradient J history exactly nonincreasing
    hist = [h["J"] for h in results["projected_gradient"].history]
    assert all(a >= b for a, b in zip(hist, hist[1:]))


@pytest.mark.parametrize("error_class", [NonconvergenceError, CriticalityError])
def test_projected_gradient_survives_failed_trial_solve(monkeypatch, error_class):
    spec = control_spec(8)
    opts = OptimizerOptions(mode="projected_gradient", tol=1e-7)
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
    opts = OptimizerOptions(mode="projected_gradient", tol=1e-7, max_backtracks=6)
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
    true_gradient = control.gradient
    monkeypatch.setattr(control, "gradient",
                        lambda *args: -1e-6 * np.sign(true_gradient(*args)))
    opts = OptimizerOptions(mode="projected_gradient", tol=1e-7)
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
    opts = OptimizerOptions(mode="projected_gradient", tol=1e-7)
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


@pytest.mark.parametrize("mode", ["sweep", "projected_gradient"])
def test_optimizer_counts_its_solves(monkeypatch, mode):
    calls = counting_state_solves(monkeypatch)
    result = optimize(control_spec(16), OptimizerOptions(mode=mode))
    assert result.converged
    assert result.state_solves == len(calls)
    if mode == "projected_gradient":
        assert result.state_solves == 1 + sum(h["trials"] for h in result.history)
        accepted = sum(h["step"] > 0 for h in result.history)
        assert result.adjoint_solves == 1 + accepted
    else:
        assert result.adjoint_solves == result.state_solves


@pytest.mark.parametrize("mode", ["sweep", "projected_gradient"])
def test_optimizer_totals_adjoint_iterations(monkeypatch, mode):
    from thermopt import control
    adjoints = []

    def recording_adjoint(*args):
        adjoints.append(solve_adjoint(*args))
        return adjoints[-1]

    monkeypatch.setattr(control, "solve_adjoint", recording_adjoint)
    result = optimize(control_spec(8), OptimizerOptions(mode=mode))
    assert result.converged
    assert result.adjoint_solves == len(adjoints)
    assert all(a.iterations > 0 for a in adjoints)
    assert result.adjoint_iterations == sum(a.iterations for a in adjoints)


def test_projected_gradient_spectral_step_saves_trials(monkeypatch):
    # the Tikhonov term puts the natural step near 1/2: a search from 1
    # rejects its first trial at every outer step after the first
    calls = counting_state_solves(monkeypatch)
    opts = OptimizerOptions(mode="projected_gradient", tol=1e-7)
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
        opts = OptimizerOptions(mode="projected_gradient", beta0=beta0)
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
    calls = []

    def growing_gradient(spec, state, adjoint, beta):
        calls.append(None)
        return np.full(beta.values.size, 0.1 * len(calls))

    monkeypatch.setattr(control, "gradient", growing_gradient)
    opts = OptimizerOptions(mode="projected_gradient", max_outer=3)
    result = optimize(control_spec(8), opts)
    searches = [h for h in result.history if h["trials"]]
    assert len(searches) == 3
    assert [h["initial_step"] for h in searches] == [1.0, 1.0, 1.0]


def test_optimize_beta0_outside_box_is_a_domain_error():
    spec = control_spec(4)
    with pytest.raises(DomainError):
        optimize(spec, OptimizerOptions(beta0=spec.m_cap + 1.0))


def test_optimize_interior_optimum_balances_projection():
    # stronger drive with u1 = 0: cooling pays off and the optimum sits
    # strictly inside the box, so the projection formula is active
    mesh = build_rectangle_mesh([1.0, 1.0], [8, 8], LEFT)
    spec = ProblemSpec(
        mesh=mesh, model=MODEL,
        u0=interpolate(mesh, lambda p: np.zeros(p.shape[0]), FieldKind.TEMPERATURE),
        u1=interpolate(mesh, lambda p: np.zeros(p.shape[0]), FieldKind.TEMPERATURE),
        phi0=interpolate(mesh, lambda p: 0.5 * p[:, 0], FieldKind.POTENTIAL),
        m_cap=2.0)
    sweep = optimize(spec, OptimizerOptions(mode="sweep", tol=1e-8))
    assert sweep.converged
    assert np.all(sweep.beta.values > 0)
    assert np.all(sweep.beta.values < spec.m_cap)
    # interior optimality: 2 beta = -(u - u1) p holds facetwise
    g = gradient(spec, sweep.state, sweep.adjoint, sweep.beta)
    assert np.max(np.abs(g)) <= 1e-6
    pg = optimize(spec, OptimizerOptions(mode="projected_gradient", tol=1e-8,
                                         max_outer=200))
    j_sweep = objective(mesh, sweep.state.u, sweep.beta).total
    j_pg = objective(mesh, pg.state.u, pg.beta).total
    assert j_pg == pytest.approx(j_sweep, rel=1e-6)


def test_optimize_3d_problem():
    rule = dirichlet_on_planes("x=0")
    mesh = build_rectangle_mesh([1.0, 1.0, 1.0], [3, 3, 3], rule)
    spec = ProblemSpec(
        mesh=mesh, model=MODEL,
        u0=interpolate(mesh, lambda p: np.zeros(p.shape[0]), FieldKind.TEMPERATURE),
        u1=interpolate(mesh, lambda p: np.full(p.shape[0], 0.05),
                       FieldKind.TEMPERATURE),
        phi0=interpolate(mesh, lambda p: 0.1 * p[:, 0], FieldKind.POTENTIAL),
        m_cap=2.0)
    res = optimize(spec, OptimizerOptions(mode="sweep"))
    assert res.converged
    assert res.optimality_residual <= 1e-6
    assert np.all(res.beta.values >= 0)
    assert np.all(res.beta.values <= spec.m_cap)


def test_optimize_beats_random_admissible_controls():
    spec = control_spec(8)
    result = optimize(spec, OptimizerOptions(mode="sweep"))
    j_star = objective(spec.mesh, result.state.u, result.beta).total
    rng = np.random.default_rng(20240801)
    nfac = result.beta.values.size
    for _ in range(5):
        b = Control(spec.mesh, rng.uniform(0, spec.m_cap, nfac), spec.m_cap)
        sol = solve_state(spec, b)
        assert j_star <= objective(spec.mesh, sol.u, b).total + 1e-8


def test_variational_inequality_at_optimum():
    spec = control_spec(8)
    result = optimize(spec, OptimizerOptions(mode="sweep"))
    g = gradient(spec, result.state, result.adjoint, result.beta)
    measures = facet_measures(spec.mesh)[result.beta.facet_ids]
    rng = np.random.default_rng(99)
    for _ in range(20):
        bp = rng.uniform(0, spec.m_cap, g.size)
        pairing = float(np.sum(measures * (bp - result.beta.values) * g))
        assert pairing >= -1e-6


def test_fixed_point_consistency_at_optimum():
    spec = control_spec(8)
    result = optimize(spec, OptimizerOptions(mode="sweep", tol=1e-8))
    proj = project_control(spec, result.state, result.adjoint, spec.m_cap)
    assert np.max(np.abs(result.beta.values - proj.values)) <= 1e-7


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
