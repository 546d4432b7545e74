import math
import sys

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from thermopt import state
from thermopt.assembly import interpolate, norms
from thermopt.errors import ConfigurationError
from thermopt.fields import Control, Field, FieldKind
from thermopt.materials import Constant, TruncatedModel, TruncatedPower, truncate
from thermopt.mesh import build_rectangle_mesh, dirichlet_on_planes, refine_uniform
from thermopt.state import (
    ProblemSpec,
    SolverOptions,
    pick_truncation_level,
    solve_state,
    subcritical_margin,
    weak_residual,
)

LEFT = dirichlet_on_planes("x=0")
SIDES = dirichlet_on_planes("x=0", "x=1")


def make_spec(mesh, model, u0, u1, phi0, m_cap=2.0):
    return ProblemSpec(
        mesh=mesh,
        model=model,
        u0=interpolate(mesh, u0, FieldKind.TEMPERATURE),
        u1=interpolate(mesh, u1, FieldKind.TEMPERATURE),
        phi0=interpolate(mesh, phi0, FieldKind.POTENTIAL),
        m_cap=m_cap,
    )


def benchmark_spec(n=16, model=None, u1_val=0.0):
    mesh = build_rectangle_mesh([1.0, 1.0], [n, n], LEFT)
    model = model or TruncatedPower(1.0, 1.0, 2.0)
    return make_spec(mesh, model,
                     lambda p: np.zeros(p.shape[0]),
                     lambda p: np.full(p.shape[0], u1_val),
                     lambda p: 0.1 * p[:, 0])


def test_solve_state_factors_with_symmetric_ordering_only(monkeypatch):
    """A first solve factors K (the potential preconditioner) and the
    temperature matrix, a second solve on the same mesh only the temperature
    matrix, all with the MMD ordering, and no COLAMD spsolve; a count, so it
    cannot flake on timing."""
    calls = {"splu": [], "spsolve": 0}
    splu, spsolve = spla.splu, spla.spsolve

    def counting_splu(*args, **kwargs):
        if sys._getframe(1).f_globals["__name__"] == "thermopt.assembly":
            calls["splu"].append(kwargs.get("permc_spec"))
        return splu(*args, **kwargs)

    def counting_spsolve(*args, **kwargs):
        if sys._getframe(1).f_globals["__name__"] == "thermopt.assembly":
            calls["spsolve"] += 1
        return spsolve(*args, **kwargs)

    monkeypatch.setattr(spla, "splu", counting_splu)
    monkeypatch.setattr(spla, "spsolve", counting_spsolve)
    mesh = build_rectangle_mesh([1.0, 1.0, 1.0], [3, 3, 3], LEFT)
    spec = make_spec(mesh, TruncatedPower(1.0, 1.0, 2.0), lambda p: np.zeros(p.shape[0]),
                     lambda p: np.zeros(p.shape[0]), lambda p: 0.5 * p[:, 0])
    beta = Control.constant(mesh, 1.0, 2.0)
    sol = solve_state(spec, beta)
    assert sol.iterations > 1
    assert calls["splu"] == ["MMD_AT_PLUS_A"] * 2
    assert sol.factorizations == 2
    calls["splu"].clear()
    again = solve_state(spec, beta)
    assert calls["splu"] == ["MMD_AT_PLUS_A"]
    assert again.factorizations == 1
    assert calls["spsolve"] == 0


def drive_spec(divisions, scale):
    mesh = build_rectangle_mesh([1.0] * len(divisions), divisions, LEFT)
    return make_spec(mesh, TruncatedPower(1.0, 1.0, 2.0),
                     lambda p: np.zeros(p.shape[0]),
                     lambda p: np.zeros(p.shape[0]),
                     lambda p: scale * p[:, 0])


def rel_diff(a, b):
    return float(np.max(np.abs(a - b))) / float(np.max(np.abs(b)))


@pytest.mark.parametrize("divisions", [[16, 16], [8, 8, 8]], ids=["16x16", "8x8x8"])
def test_preconditioned_potential_solves_match_direct(monkeypatch, divisions):
    spec = drive_spec(divisions, 0.1)
    beta = Control.constant(spec.mesh, 1.0, 2.0)
    cg = solve_state(spec, beta)
    assert cg.cg_iterations > 0
    assert not any(h["refactored"] for h in cg.history)
    # a cap of zero CG iterations factors every potential matrix
    monkeypatch.setattr(state, "PCG_MAX_ITER", 0)
    direct = solve_state(spec, beta)
    # a start that already meets the tolerance needs no factor
    assert direct.cg_iterations == 0
    assert sum(h["refactored"] for h in direct.history) >= direct.iterations - 1
    assert cg.iterations == direct.iterations
    assert rel_diff(cg.u.values, direct.u.values) <= 1e-12
    assert rel_diff(cg.phi.values, direct.phi.values) <= 1e-12


def test_potential_solve_refactors_under_strong_drive(monkeypatch):
    spec = drive_spec([32, 32], 3.0)
    beta = Control.constant(spec.mesh, 0.0, 2.0)
    sol = solve_state(spec, beta)
    refactors = sum(h["refactored"] for h in sol.history)
    assert refactors >= 1
    assert sol.factorizations == 2 + refactors
    assert sol.cg_iterations == sum(h["cg_iterations"] for h in sol.history)
    assert sol.residual_u <= 1e-8 and sol.residual_phi <= 1e-8
    monkeypatch.setattr(state, "PCG_MAX_ITER", 0)
    direct = solve_state(spec, beta)
    assert sol.iterations == direct.iterations
    assert abs(np.max(sol.u.values) - np.max(direct.u.values)) <= 1e-10 * np.max(direct.u.values)


def test_solution_does_not_depend_on_earlier_solves_on_the_mesh():
    weak = drive_spec([32, 32], 0.5)
    strong = make_spec(weak.mesh, weak.model, lambda p: np.zeros(p.shape[0]),
                       lambda p: np.zeros(p.shape[0]), lambda p: 3.0 * p[:, 0])
    beta = Control.constant(weak.mesh, 0.0, 2.0)
    first = solve_state(weak, beta)
    assert any(h["refactored"] for h in solve_state(strong, beta).history)
    second = solve_state(weak, beta)
    assert np.array_equal(first.u.values, second.u.values)
    assert np.array_equal(first.phi.values, second.phi.values)
    assert first.history == second.history


def test_benchmark_solve_takes_few_mixed_steps():
    # damped Picard alone takes 16 steps here
    spec = benchmark_spec()
    sol = solve_state(spec, Control.constant(spec.mesh, 1.0, 2.0))
    assert sol.iterations <= 8


def test_sigma_runs_once_per_picard_step(monkeypatch):
    # the potential matrix and the Joule load share one evaluation per step
    calls = []
    sigma = TruncatedModel.sigma

    def spy(self, u):
        calls.append(None)
        return sigma(self, u)

    monkeypatch.setattr(TruncatedModel, "sigma", spy)
    spec = benchmark_spec()
    sol = solve_state(spec, Control.constant(spec.mesh, 1.0, 2.0))
    assert sol.iterations > 1
    assert len(calls) == sol.iterations


def test_strong_drive_converges_with_mixing():
    # damped Picard alone oscillates here and stops at max_iter
    mesh = build_rectangle_mesh([1.0, 1.0], [16, 16], LEFT)
    spec = make_spec(mesh, TruncatedPower(1.0, 1.0, 2.0),
                     lambda p: np.zeros(p.shape[0]),
                     lambda p: np.zeros(p.shape[0]),
                     lambda p: 2.0 * p[:, 0])
    sol = solve_state(spec, Control.constant(mesh, 0.0, 2.0))
    assert sol.residual_u <= 1e-8 and sol.residual_phi <= 1e-8
    assert float(np.max(sol.u.values)) < sol.truncation_used.n


def test_constant_data_trivial_solution():
    mesh = build_rectangle_mesh([1.0, 1.0], [4, 4], LEFT)
    c_phi, c_u = 2.0, 0.3
    spec = make_spec(mesh, Constant(1.0),
                     lambda p: np.full(p.shape[0], c_u),
                     lambda p: np.full(p.shape[0], c_u),
                     lambda p: np.full(p.shape[0], c_phi))
    sol = solve_state(spec, Control.constant(mesh, 1.0, 2.0))
    assert sol.iterations <= 2
    assert np.allclose(sol.phi.values, c_phi, atol=1e-12)
    assert np.allclose(sol.u.values, c_u, atol=1e-12)


def test_symmetry_under_reflection():
    mesh = build_rectangle_mesh([1.0, 1.0], [8, 8], SIDES)
    spec = make_spec(mesh, Constant(1.0),
                     lambda p: np.zeros(p.shape[0]),
                     lambda p: np.zeros(p.shape[0]),
                     lambda p: 0.5 * p[:, 0])
    sol = solve_state(spec, Control.constant(mesh, 1.0, 2.0))
    interior = np.ones(mesh.n_vertices, dtype=bool)
    interior[mesh.boundary_vertex_set()] = False
    assert np.all(sol.u.values[interior] > 0)
    # match each vertex with its mirror image
    mirrored = mesh.vertices.copy()
    mirrored[:, 0] = 1.0 - mirrored[:, 0]
    index = {(round(x, 12), round(y, 12)): i
             for i, (x, y) in enumerate(mesh.vertices)}
    for i, (x, y) in enumerate(mirrored):
        j = index[(round(x, 12), round(y, 12))]
        assert sol.u.values[i] == pytest.approx(sol.u.values[j], abs=1e-9)


def test_benchmark_subcritical_and_truncation_inactive():
    spec = benchmark_spec()
    sol = solve_state(spec, Control.constant(spec.mesh, 1.0, 2.0))
    assert sol.truncation_used is not None
    n = sol.truncation_used.n
    assert n == pytest.approx(0.9)
    assert float(np.max(sol.u.values)) < n
    assert subcritical_margin(sol, spec.model) > 0
    assert sol.residual_u <= 1e-8 and sol.residual_phi <= 1e-8


def test_maximum_principles_on_benchmark():
    spec = benchmark_spec()
    sol = solve_state(spec, Control.constant(spec.mesh, 1.0, 2.0))
    assert float(np.min(sol.phi.values)) >= 0.0 - 1e-10
    assert float(np.max(sol.phi.values)) <= 0.1 + 1e-10
    assert float(np.min(sol.u.values)) >= -1e-10


def test_truncation_level_independence():
    spec = benchmark_spec(n=8)
    beta = Control.constant(spec.mesh, 1.0, 2.0)
    sol1 = solve_state(spec, beta, SolverOptions(truncation_level=0.9))
    sol2 = solve_state(spec, beta, SolverOptions(truncation_level=0.5))
    assert float(np.max(np.abs(sol1.u.values - sol2.u.values))) <= 1e-9
    assert float(np.max(np.abs(sol1.phi.values - sol2.phi.values))) <= 1e-9


def test_weak_residual_with_truncated_sigma_matches_original():
    spec = benchmark_spec(n=8)
    beta = Control.constant(spec.mesh, 1.0, 2.0)
    sol = solve_state(spec, beta)
    r_orig = weak_residual(spec, beta, sol)
    trunc_spec = make_spec(spec.mesh, truncate(spec.model, 0.9),
                           lambda p: np.zeros(p.shape[0]),
                           lambda p: np.zeros(p.shape[0]),
                           lambda p: 0.1 * p[:, 0])
    r_trunc = weak_residual(trunc_spec, beta, sol)
    assert abs(r_orig[0] - r_trunc[0]) <= 1e-12
    assert abs(r_orig[1] - r_trunc[1]) <= 1e-12


def test_weak_residual_detects_perturbation():
    mesh = build_rectangle_mesh([1.0, 1.0], [2, 2], LEFT)  # 8 triangles
    spec = make_spec(mesh, TruncatedPower(1.0, 1.0, 2.0),
                     lambda p: np.zeros(p.shape[0]),
                     lambda p: np.zeros(p.shape[0]),
                     lambda p: 0.1 * p[:, 0])
    beta = Control.constant(mesh, 1.0, 2.0)
    sol = solve_state(spec, beta)
    interior = [i for i in range(mesh.n_vertices)
                if i not in set(mesh.boundary_vertex_set().tolist())]
    bad = sol.u.values.copy()
    bad[interior[0]] += 0.1
    perturbed = Field(mesh, bad, FieldKind.TEMPERATURE)
    from thermopt.state import StateSolution
    psol = StateSolution(perturbed, sol.phi, sol.iterations, 0, 0, 0, None)
    r_u, _ = weak_residual(spec, beta, psol)
    assert r_u > 1e-3


def test_joule_monotone_in_potential_scale():
    maxima = []
    for t in (0.25, 0.5, 1.0):
        mesh = build_rectangle_mesh([1.0, 1.0], [8, 8], LEFT)
        spec = make_spec(mesh, TruncatedPower(1.0, 1.0, 2.0),
                         lambda p: np.zeros(p.shape[0]),
                         lambda p: np.zeros(p.shape[0]),
                         lambda p, t=t: t * 0.1 * p[:, 0])
        sol = solve_state(spec, Control.constant(mesh, 1.0, 2.0))
        maxima.append(float(np.max(sol.u.values)))
    assert maxima[0] <= maxima[1] <= maxima[2]


def test_h1_norm_bounded_across_refinements():
    mesh = build_rectangle_mesh([1.0, 1.0], [8, 8], LEFT)
    h1 = []
    for _ in range(3):
        spec = make_spec(mesh, TruncatedPower(1.0, 1.0, 2.0),
                         lambda p: np.zeros(p.shape[0]),
                         lambda p: np.zeros(p.shape[0]),
                         lambda p: 0.1 * p[:, 0])
        sol = solve_state(spec, Control.constant(mesh, 1.0, 2.0))
        h1.append(norms(sol.u).h1)
        mesh = refine_uniform(mesh)
    assert h1[1] <= 1.05 * h1[0]
    assert h1[2] <= 1.05 * h1[1]


def test_subcritical_margin_values():
    spec = benchmark_spec(n=4)
    sol = solve_state(spec, Control.constant(spec.mesh, 1.0, 2.0))
    assert 0 < subcritical_margin(sol, spec.model) <= 1.0
    assert math.isinf(subcritical_margin(sol, Constant(1.0)))


def test_rectangle_geometry_end_to_end():
    # non-square box through solve, residual and margin
    mesh = build_rectangle_mesh([2.0, 0.5], [16, 4], LEFT)
    spec = make_spec(mesh, TruncatedPower(1.0, 1.0, 2.0),
                     lambda p: np.zeros(p.shape[0]),
                     lambda p: np.zeros(p.shape[0]),
                     lambda p: 0.05 * p[:, 0])
    sol = solve_state(spec, Control.constant(mesh, 1.0, 2.0))
    assert sol.residual_u <= 1e-8
    assert subcritical_margin(sol, spec.model) > 0.8
    assert float(np.max(np.abs(sol.phi.values))) <= 0.1 + 1e-10


def test_3d_benchmark_solves_subcritically():
    rule = dirichlet_on_planes("x=0")
    mesh = build_rectangle_mesh([1.0, 1.0, 1.0], [4, 4, 4], rule)
    spec = make_spec(mesh, TruncatedPower(1.0, 1.0, 2.0),
                     lambda p: np.zeros(p.shape[0]),
                     lambda p: np.zeros(p.shape[0]),
                     lambda p: 0.1 * p[:, 0])
    sol = solve_state(spec, Control.constant(mesh, 1.0, 2.0))
    assert float(np.max(sol.u.values)) < 0.9
    assert float(np.min(sol.u.values)) >= -1e-10
    assert float(np.max(np.abs(sol.phi.values))) <= 0.1 + 1e-10
    assert sol.residual_u <= 1e-8


def test_supercritical_boundary_data_rejected():
    mesh = build_rectangle_mesh([1.0, 1.0], [2, 2], LEFT)
    spec = make_spec(mesh, TruncatedPower(1.0, 1.0, 2.0),
                     lambda p: np.full(p.shape[0], 2.0),  # above u_star
                     lambda p: np.zeros(p.shape[0]),
                     lambda p: np.zeros(p.shape[0]))
    with pytest.raises(ConfigurationError, match="subcritical"):
        solve_state(spec, Control.constant(mesh, 1.0, 2.0))


def test_negative_boundary_data_rejected():
    mesh = build_rectangle_mesh([1.0, 1.0], [2, 2], LEFT)
    spec = make_spec(mesh, TruncatedPower(1.0, 1.0, 2.0),
                     lambda p: np.zeros(p.shape[0]),
                     lambda p: np.full(p.shape[0], -0.1),
                     lambda p: np.zeros(p.shape[0]))
    with pytest.raises(ConfigurationError, match="nonnegative"):
        solve_state(spec, Control.constant(mesh, 1.0, 2.0))


def test_nonconvergence_error_carries_history():
    from thermopt.errors import NonconvergenceError
    spec = benchmark_spec(n=4)
    with pytest.raises(NonconvergenceError) as err:
        solve_state(spec, Control.constant(spec.mesh, 1.0, 2.0),
                    SolverOptions(max_iter=1))
    assert len(err.value.history) == 1


def test_criticality_error_when_level_exceeded():
    from thermopt.errors import CriticalityError
    mesh = build_rectangle_mesh([1.0, 1.0], [8, 8], LEFT)
    spec = make_spec(mesh, TruncatedPower(1.0, 1.0, 2.0),
                     lambda p: np.zeros(p.shape[0]),
                     lambda p: np.zeros(p.shape[0]),
                     lambda p: 1.0 * p[:, 0])
    # converged solution peaks near 0.16, above this deliberately low level
    with pytest.raises(CriticalityError, match="critical"):
        solve_state(spec, Control.constant(mesh, 1.0, 2.0),
                    SolverOptions(truncation_level=0.1))


def test_default_truncation_level():
    spec = benchmark_spec(n=2)
    assert pick_truncation_level(spec) == pytest.approx(0.9)
    mesh = spec.mesh
    const_spec = make_spec(mesh, Constant(1.0),
                           lambda p: np.zeros(p.shape[0]),
                           lambda p: np.zeros(p.shape[0]),
                           lambda p: np.zeros(p.shape[0]))
    assert pick_truncation_level(const_spec) is None
