import math
import sys
import types

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from thermopt import assembly, state
from thermopt.assembly import interpolate, norms
from thermopt.errors import ConfigurationError
from thermopt.fields import Control, Field
from thermopt.materials import Constant, TruncatedModel, TruncatedPower
from thermopt.mesh import BoundaryTag, build_rectangle_mesh, dirichlet_on_planes, refine_uniform
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
        u0=interpolate(mesh, u0),
        u1=interpolate(mesh, u1),
        phi0=interpolate(mesh, phi0),
        m_cap=m_cap,
    )


def benchmark_spec(n=16, model=None, u1_val=0.0):
    mesh = build_rectangle_mesh([1.0, 1.0], [n, n], LEFT)
    model = model or TruncatedPower(1.0, 1.0, 2.0)
    return make_spec(mesh, model,
                     lambda p: np.zeros(p.shape[0]),
                     lambda p: np.full(p.shape[0], u1_val),
                     lambda p: 0.1 * p[:, 0])


def check_state_factors(monkeypatch, mesh, kind):
    """A first solve factors K (the potential preconditioner) unless the mesh
    is a box, whose K has a grid inverse, and the temperature matrix; a
    second solve on the same mesh only the temperature matrix; each factor by
    `kind` ("dpbtrf" or splu's ordering), and no COLAMD spsolve runs; a
    count, so it cannot flake on timing."""
    calls = {"factors": [], "spsolve": 0}
    splu, spsolve, dpbtrf = spla.splu, spla.spsolve, assembly.lapack.dpbtrf

    def counting_splu(*args, **kwargs):
        if sys._getframe(1).f_globals["__name__"] == "thermopt.assembly":
            calls["factors"].append(kwargs.get("permc_spec"))
        return splu(*args, **kwargs)

    def counting_dpbtrf(*args, **kwargs):
        if sys._getframe(1).f_globals["__name__"] == "thermopt.assembly":
            calls["factors"].append("dpbtrf")
        return dpbtrf(*args, **kwargs)

    def counting_spsolve(*args, **kwargs):
        if sys._getframe(1).f_globals["__name__"] == "thermopt.assembly":
            calls["spsolve"] += 1
        return spsolve(*args, **kwargs)

    monkeypatch.setattr(spla, "splu", counting_splu)
    monkeypatch.setattr(spla, "spsolve", counting_spsolve)
    monkeypatch.setattr(assembly.lapack, "dpbtrf", counting_dpbtrf)
    spec = make_spec(mesh, TruncatedPower(1.0, 1.0, 2.0), lambda p: np.zeros(p.shape[0]),
                     lambda p: np.zeros(p.shape[0]), lambda p: 0.5 * p[:, 0])
    beta = Control.constant(mesh, 1.0, 2.0)
    sol = solve_state(spec, beta)
    assert sol.iterations > 1
    first = 1 + (mesh.grid is None)
    assert calls["factors"] == [kind] * first
    assert sol.factorizations == first
    calls["factors"].clear()
    again = solve_state(spec, beta)
    assert calls["factors"] == [kind]
    assert again.factorizations == 1
    assert calls["spsolve"] == 0


def test_solve_state_factors_with_symmetric_ordering_only(monkeypatch):
    # the free temperature block's half-bandwidth 16, below the cap: banded Cholesky
    check_state_factors(monkeypatch, build_rectangle_mesh([1.0] * 3, [3, 3, 3], LEFT),
                        "dpbtrf")


@pytest.mark.parametrize("extents, divisions", [([1.0] * 3, [4, 4, 4]), ([1.0, 1.0], [32, 32])],
                         ids=["4x4x4", "32x32"])
def test_box_within_the_banded_cap_factors_its_temperature(monkeypatch, extents, divisions):
    # free temperature blocks of half-bandwidths 25 and 33, within the cap: banded Cholesky,
    # no CG on the box inverse
    check_state_factors(monkeypatch, build_rectangle_mesh(extents, divisions, LEFT), "dpbtrf")


# x = 0 Dirichlet below y = 1/2 only, Robin elsewhere: a face partly Dirichlet
PART_OF_LEFT = lambda centroids: (centroids[:, 0] < 1e-12) & (centroids[:, 1] < 0.5)


def test_solve_state_bands_the_coupled_block_of_a_3d_box(monkeypatch):
    # Gamma_D covers part of a face, so the temperature matrix is factored:
    # its free (coupled) block has m = 684 rows of half-bandwidth 81, above the cap,
    # and m / b = 8.4: banded Cholesky
    check_state_factors(monkeypatch, build_rectangle_mesh([1.0] * 3, [8, 8, 8], PART_OF_LEFT),
                        "dpbtrf")


def box_temperature_system(n, values):
    """The 8^3 or 16^3 box with Gamma_D = {x = 0}: the eliminated K + R of
    the control `values` (a function of the Robin facet count), its
    transpose permutation and the box inverse."""
    mesh = build_rectangle_mesh([1.0] * 3, [n] * 3, LEFT)
    beta = Control(mesh, values(mesh.facet_indices(BoundaryTag.ROBIN_TEMPERATURE).size), 2.0)
    geom = assembly.geometry(mesh)
    R = assembly.facet_mass(mesh, beta.values, beta.facet_ids)
    matrix, transpose = geom.eliminated(geom.stiffness.data + R.data,
                                        mesh.boundary_vertex_set(BoundaryTag.DIRICHLET_TEMPERATURE))
    return matrix, transpose, state._box_temperature_inverse(mesh, beta)


@pytest.mark.parametrize("n", [8, 16])
@pytest.mark.parametrize("values", [
    np.zeros, np.ones, lambda k: np.full(k, 2.0),
    lambda k: np.random.default_rng(8).uniform(0.0, 2.0, k)], ids=["0", "1", "m_cap", "random"])
def test_box_inverse_preconditions_cg_on_the_3d_temperature_matrix(n, values):
    matrix, transpose, inverse = box_temperature_system(n, values)
    assert isinstance(inverse, assembly.GridPoisson)
    rhs = np.random.default_rng(n).standard_normal(matrix.shape[0])
    _, iterations, factor = assembly.solve_spd_pcg(
        matrix, rhs, np.zeros_like(rhs), inverse, state.PCG_RTOL, state.PCG_MAX_ITER, transpose)
    assert 0 < iterations < state.PCG_MAX_ITER and factor is None


def test_box_temperature_is_solved_by_cg_without_a_factor(monkeypatch):
    spec = drive_spec([8, 8, 8], 0.5)
    beta = Control.constant(spec.mesh, 1.0, 2.0)
    sol = solve_state(spec, beta)
    assert sol.factorizations == 0
    assert isinstance(sol.temperature_factor, assembly.GridPoisson)
    monkeypatch.setattr(state, "_box_temperature_inverse", lambda mesh, beta: None)
    factored = solve_state(spec, beta)
    assert factored.factorizations == 1
    assert isinstance(factored.temperature_factor, assembly.BandedCholesky)
    assert sol.cg_iterations > factored.cg_iterations
    assert rel_diff(np.max(sol.u.values), np.max(factored.u.values)) <= 1e-12


def test_partly_dirichlet_face_factors_the_temperature():
    mesh = build_rectangle_mesh([1.0] * 3, [8, 8, 8], PART_OF_LEFT)
    assert state._box_temperature_inverse(mesh, Control.constant(mesh, 1.0, 2.0)) is None


def test_box_temperature_cg_cap_falls_back_to_one_factor(monkeypatch):
    spec = drive_spec([8, 8, 8], 0.5)
    beta = Control.constant(spec.mesh, 1.0, 2.0)
    matrix = box_temperature_system(8, np.ones)[0]
    factored = []   # True for a factor of the temperature matrix
    factor_spd = assembly.factor_spd

    def counting_factor_spd(A):
        factored.append(A.nnz == matrix.nnz and np.array_equal(A.data, matrix.data))
        return factor_spd(A)

    monkeypatch.setattr(assembly, "factor_spd", counting_factor_spd)
    monkeypatch.setattr(state, "PCG_MAX_ITER", 1)
    sol = solve_state(spec, beta)
    # one temperature factor, made at the first step, serves the rest
    assert sol.iterations > 2 and factored.count(True) == 1
    assert isinstance(sol.temperature_factor, assembly.BandedCholesky)
    assert sol.history[0]["refactored"]
    # the capped potential CG refactors too: each factor is counted once
    assert sol.factorizations == len(factored)


def test_solve_state_factors_above_the_banded_cap_with_mmd(monkeypatch):
    # the 8^3 refined from 4^3, whose vertex order gives b about m: splu with
    # the MMD ordering, for K and the temperature matrix
    coarse = build_rectangle_mesh([1.0] * 3, [4, 4, 4], LEFT)
    check_state_factors(monkeypatch, refine_uniform(coarse), "MMD_AT_PLUS_A")


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


# A drive that still reaches the potential CG's cap under the sigma-scaled
# inverse of K: 16^2 at phi0 = 8x, beta = 2, level 0.99 refactors 4 of 50 steps
# (32^2 at 3x, beta = 0, which refactored 11 times under K's inverse alone, no
# longer does)
STRONG = SolverOptions(truncation_level=0.99)


def test_potential_solve_refactors_under_strong_drive(monkeypatch):
    spec = drive_spec([16, 16], 8.0)
    beta = Control.constant(spec.mesh, 2.0, 2.0)
    sol = solve_state(spec, beta, STRONG)
    refactors = sum(h["refactored"] for h in sol.history)
    assert refactors >= 1
    # K's grid inverse on the box is no factorization
    assert sol.factorizations == 1 + refactors
    assert sol.cg_iterations == sum(h["cg_iterations"] for h in sol.history)
    assert sol.residual_u <= 1e-8 and sol.residual_phi <= 1e-8
    monkeypatch.setattr(state, "PCG_MAX_ITER", 0)
    direct = solve_state(spec, beta, STRONG)
    assert sol.iterations == direct.iterations
    assert abs(np.max(sol.u.values) - np.max(direct.u.values)) <= 1e-10 * np.max(direct.u.values)


def test_solution_does_not_depend_on_earlier_solves_on_the_mesh():
    weak = drive_spec([16, 16], 0.5)
    strong = make_spec(weak.mesh, weak.model, lambda p: np.zeros(p.shape[0]),
                       lambda p: np.zeros(p.shape[0]), lambda p: 8.0 * p[:, 0])
    beta = Control.constant(weak.mesh, 2.0, 2.0)
    first = solve_state(weak, beta, STRONG)
    assert any(h["refactored"] for h in solve_state(strong, beta, STRONG).history)
    second = solve_state(weak, beta, STRONG)
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
    assert float(np.max(sol.u.values)) < sol.truncation_level


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
    assert sol.truncation_level is not None
    n = sol.truncation_level
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
    trunc_spec = make_spec(spec.mesh, TruncatedModel(spec.model, 0.9),
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
    perturbed = Field(mesh, bad)
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


@pytest.mark.parametrize("max_iter", [0, -1])
def test_picard_cap_below_one_rejected(max_iter):
    spec = benchmark_spec(n=4)
    with pytest.raises(ConfigurationError, match="max_iter must be >= 1"):
        solve_state(spec, Control.constant(spec.mesh, 1.0, 2.0),
                    SolverOptions(max_iter=max_iter))


def test_poor_preconditioner_reaches_the_state_through_refactoring():
    # with K's diagonal in the place of K's inverse, the sigma-scaled inverse
    # is Jacobi's, so poor a preconditioner that CG reaches its cap; those
    # steps refactor and the solve gives the state of the mesh's own
    mesh = build_rectangle_mesh([1.0, 1.0], [16, 16], LEFT)
    spec = make_spec(mesh, TruncatedPower(1.0, 1.0, 2.0), lambda p: np.zeros(p.shape[0]),
                     lambda p: np.full(p.shape[0], 0.05), lambda p: p[:, 0])
    beta = Control.constant(mesh, 1.0, 2.0)
    plain = solve_state(spec, beta)
    geom = assembly.geometry(mesh)
    geom.potential_factor = types.SimpleNamespace(solve=lambda r: r / geom.potential_diagonal)
    poor = solve_state(spec, beta)
    refactors = sum(h["refactored"] for h in poor.history)
    assert refactors >= 1
    assert poor.factorizations == plain.factorizations + refactors
    assert poor.iterations == plain.iterations
    for got, want in ((poor.u, plain.u), (poor.phi, plain.phi)):
        assert np.max(np.abs(got.values - want.values)) <= 1e-12 * np.max(np.abs(want.values))


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


def test_picard_steps_gather_through_the_slot_map(monkeypatch):
    """Each Picard step eliminates its potential matrix through the cached
    slot map, and so does the temperature matrix, one call; K's grid inverse
    on the box eliminates nothing."""
    calls = {"eliminated": 0}
    eliminated = assembly.P1Geometry.eliminated

    def counting_eliminated(*args, **kwargs):
        calls["eliminated"] += 1
        return eliminated(*args, **kwargs)

    monkeypatch.setattr(assembly.P1Geometry, "eliminated", counting_eliminated)
    spec = benchmark_spec(16, u1_val=0.05)
    sol = solve_state(spec, Control.constant(spec.mesh, 1.0, 2.0))
    assert sol.iterations > 2 and sol.factorizations == 1
    assert calls == {"eliminated": sol.iterations + 1}
