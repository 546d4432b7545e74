import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import thermopt.cli as cli_mod
from thermopt import errors
from thermopt.cli import main
from thermopt.config import _KNOWN_KEYS, build_optimizer_options, parse_config_text
from thermopt.errors import ConfigurationError
from thermopt.expressions import Expression

BENCHMARK = """
problem.extents = 1 1
problem.divisions = 16 16
problem.dirichlet = x=0
problem.model.kind = truncated_power
problem.model.sigma0 = 1.0
problem.model.u_star = 1.0
problem.model.p = 2.0
problem.u0 = 0
problem.u1 = 0
problem.phi0 = 0.1*x
problem.beta = 1.0
problem.m_cap = 2.0
output.dir = out
"""

CONSTANT_DATA = """
problem.extents = 1 1
problem.divisions = 4 4
problem.dirichlet = x=0
problem.model.kind = truncated_power
problem.u0 = 0.3
problem.u1 = 0.3
problem.phi0 = 1.0
problem.beta = 1.0
problem.m_cap = 2.0
"""


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_report(outdir):
    with open(outdir / "report.json") as fh:
        return json.load(fh)


def test_expression_grammar():
    e = Expression("0.1*x + y^2 - sin(x)/2 + exp(-y) + pi")
    pts = np.array([[1.0, 2.0], [0.0, 0.5]])
    expect = (0.1 * pts[:, 0] + pts[:, 1] ** 2 - np.sin(pts[:, 0]) / 2
              + np.exp(-pts[:, 1]) + np.pi)
    assert np.allclose(e(pts), expect, rtol=1e-15)
    assert np.allclose(Expression("2^3^1")(pts), 8.0)
    with pytest.raises(ConfigurationError):
        Expression("x + unknown(3)")
    with pytest.raises(ConfigurationError):
        Expression("x +")
    with pytest.raises(ConfigurationError):
        Expression("z")(pts)  # no z in 2D


def test_config_rejects_unknown_and_duplicate_keys():
    with pytest.raises(ConfigurationError, match="unknown key"):
        parse_config_text("problem.extents = 1 1\nproblem.typo = 3\n")
    with pytest.raises(ConfigurationError, match="duplicate"):
        parse_config_text("problem.u0 = 0\nproblem.u0 = 1\n")
    cfgobj = parse_config_text("problem.u0 = 0.5 # inline comment\n")
    assert cfgobj.raw["problem.u0"] == "0.5"
    assert "problem.u0" in cfgobj.explicit
    assert "problem.u1" not in cfgobj.explicit


def test_solve_benchmark_writes_artifacts(tmp_path):
    cfg = write_config(tmp_path, BENCHMARK)
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    report = read_report(out)
    assert report["schema_version"] == 1
    assert report["state"]["max_u"] < 0.9
    assert report["state"]["subcritical_margin"] > 0
    history = report["state"]["history"]
    assert report["state"]["cg_iterations"] == sum(h["cg_iterations"] for h in history)
    # a fresh mesh: K, the temperature matrix and each refactored potential
    assert report["state"]["factorizations"] == 2 + sum(h["refactored"] for h in history)
    for artifact in report["artifacts"]:
        assert (out / artifact.split("/")[-1]).exists()
    text = (out / "u.vtk").read_text()
    assert text.startswith("# vtk DataFile Version 3.0")
    assert "POINT_DATA 289" in text


def test_solve_trivial_constant_data(tmp_path):
    cfg = write_config(tmp_path, CONSTANT_DATA)
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    report = read_report(out)
    assert report["state"]["max_u"] == pytest.approx(0.3, abs=1e-12)


def test_solve_supercritical_data_exits_1(tmp_path):
    cfg = write_config(tmp_path, BENCHMARK.replace("problem.u0 = 0",
                                                   "problem.u0 = 2.0"))
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 1


def test_solve_unknown_key_exits_1(tmp_path):
    cfg = write_config(tmp_path, BENCHMARK + "\nnot.a.key = 1\n")
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 1


def test_removed_joule_form_key_exits_1(tmp_path, capsys):
    cfg = write_config(tmp_path, BENCHMARK + "solver.joule_form = weak\n")
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "unknown key 'solver.joule_form'" in capsys.readouterr().err


def test_solve_inadmissible_beta_exits_1(tmp_path):
    cfg = write_config(tmp_path, BENCHMARK.replace("problem.beta = 1.0",
                                                   "problem.beta = 5.0"))
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 1


@pytest.mark.parametrize("old, new", [
    ("problem.model.sigma0 = 1.0", "problem.model.sigma0 = -1.0"),
    ("problem.model.p = 2.0", "problem.model.p = 1.0"),
    ("problem.beta = 1.0", "problem.beta = file:{tmp}/missing.txt"),
    ("problem.beta = 1.0", "problem.beta = file:{tmp}/words.txt"),
    ("problem.u1 = 0", "problem.u1 = file:{tmp}/words.txt"),
    ("problem.model.p = 2.0", "problem.model.p = nan"),
    ("problem.model.sigma0 = 1.0", "problem.model.sigma0 = nan"),
    ("problem.model.u_star = 1.0", "problem.model.u_star = nan"),
    ("problem.model.u_star = 1.0", "problem.model.u_star = inf"),
    ("problem.m_cap = 2.0", "problem.m_cap = nan"),
    ("problem.m_cap = 2.0", "problem.m_cap = inf"),
], ids=["sigma0", "p", "beta-missing-file", "beta-not-numbers", "u1-not-numbers",
        "p-nan", "sigma0-nan", "u_star-nan", "u_star-inf", "m_cap-nan", "m_cap-inf"])
def test_solve_invalid_data_exits_1(tmp_path, capsys, old, new):
    (tmp_path / "words.txt").write_text("not numbers\n")
    cfg = write_config(tmp_path, BENCHMARK.replace(old, new.format(tmp=tmp_path)))
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "configuration error:" in capsys.readouterr().err


def test_out_path_that_is_a_file_exits_1_without_traceback(tmp_path):
    cfg = write_config(tmp_path, BENCHMARK)
    taken = tmp_path / "taken"
    taken.write_text("a regular file\n")
    env = dict(os.environ, PYTHONPATH=str(Path(cli_mod.__file__).resolve().parents[1]))
    result = subprocess.run([sys.executable, "-m", "thermopt.cli", "solve", "--config", cfg,
                             "--out", str(taken)], env=env, capture_output=True, text=True)
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    assert result.stderr.startswith("configuration error:")
    assert str(taken) in result.stderr


def test_cli_import_leaves_out_quadrature_and_special_functions():
    # these three scipy subpackages would add about 0.2 s to every command's start-up
    src = Path(cli_mod.__file__).resolve().parents[1]
    code = ("import sys, thermopt.cli; print(sorted(m for m in sys.modules if m in "
            "('scipy.integrate', 'scipy.optimize', 'scipy.special')))")
    env = dict(os.environ, PYTHONPATH=str(src))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True)
    assert result.stdout.strip() == "[]"


def test_solve_determinism(tmp_path):
    cfg = write_config(tmp_path, BENCHMARK)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["solve", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["solve", "--config", cfg, "--out", str(out2)]) == 0
    r1, r2 = read_report(out1), read_report(out2)
    r1.pop("timings_seconds")
    r2.pop("timings_seconds")
    r1.pop("artifacts")
    r2.pop("artifacts")
    assert r1 == r2
    # field exports bitwise identical
    assert (out1 / "u.vtk").read_text() == (out2 / "u.vtk").read_text()


def test_optimize_zero_cap(tmp_path):
    cfg = write_config(tmp_path, BENCHMARK.replace("problem.m_cap = 2.0",
                                                   "problem.m_cap = 0")
                       .replace("problem.beta = 1.0", "problem.beta = 0"))
    out = tmp_path / "out"
    assert main(["optimize", "--config", cfg, "--out", str(out)]) == 0
    rows = (out / "beta.csv").read_text().strip().splitlines()
    assert rows[0] == "x,y,beta"
    assert len(rows) == 1 + 48
    assert all(float(r.split(",")[-1]) == 0.0 for r in rows[1:])
    report = read_report(out)
    assert report["optimizer"]["optimality_residual"] == 0.0


def test_optimize_constant_data(tmp_path):
    cfg = write_config(tmp_path, CONSTANT_DATA
                       + "optimizer.mode = projected_gradient\n")
    out = tmp_path / "out"
    assert main(["optimize", "--config", cfg, "--out", str(out)]) == 0
    report = read_report(out)
    assert report["optimizer"]["converged"]
    assert report["optimizer"]["integral_beta_sq"] == 0.0
    assert report["optimizer"]["J"] == pytest.approx(0.3, rel=1e-12)
    for name in ("u.vtk", "phi.vtk", "p.vtk", "q.vtk", "beta.csv"):
        assert (out / name).exists()


def test_solve_nonconvergence_exits_2(tmp_path):
    cfg = write_config(tmp_path, BENCHMARK + "solver.max_iter = 1\n")
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


CRITICAL = (BENCHMARK.replace("16 16", "8 8")
            .replace("problem.phi0 = 0.1*x", "problem.phi0 = 1.0*x")
            + "solver.truncation_level = 0.1\n")


def test_solve_criticality_exits_3(tmp_path):
    cfg = write_config(tmp_path, CRITICAL)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 3


@pytest.mark.parametrize("suite", ["maxprinciple", "substitution"])
def test_verify_criticality_exits_3(tmp_path, capsys, suite):
    cfg = write_config(tmp_path, CRITICAL)
    assert main(["verify", "--config", cfg, "--suite", suite,
                 "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err.startswith(
        "error: solution not bounded away from the critical temperature")


# every error class the package raises, with its exit code and stderr prefix
EXIT_CONTRACT = {
    errors.ConfigurationError: (1, "configuration error: "),
    errors.DomainError: (2, "error: "),
    errors.AssemblyError: (2, "error: "),
    errors.SolverFailure: (2, "error: "),
    errors.NonconvergenceError: (2, "error: "),
    errors.CriticalityError: (3, "error: "),
    errors.AdjointFailure: (2, "error: "),
    errors.EstimationError: (2, "error: "),
    errors.CertificateInfeasibleError: (5, "error: "),
}


def test_exit_contract_covers_every_error_class():
    assert set(EXIT_CONTRACT) == set(errors.ThermoptError.__subclasses__())


def _raise_inside(monkeypatch, command, exc):
    def raiser(*args, **kwargs):
        raise exc

    if command == "solve":
        monkeypatch.setattr(cli_mod, "solve_state", raiser)
    elif command == "optimize":
        monkeypatch.setattr(cli_mod.ctl, "optimize", raiser)
    elif command == "certificate":
        monkeypatch.setattr(cli_mod, "compute_certificate", raiser)
    else:
        monkeypatch.setitem(cli_mod._SUITES, "lemma1", raiser)
    return {"verify": ["--suite", "lemma1"]}.get(command, [])


@pytest.mark.parametrize("command", ["solve", "optimize", "verify", "certificate"])
@pytest.mark.parametrize("error_class", list(EXIT_CONTRACT),
                         ids=lambda cls: cls.__name__)
def test_error_class_exit_code(tmp_path, monkeypatch, capsys, command, error_class):
    extra = _raise_inside(monkeypatch, command, error_class("injected failure"))
    cfg = write_config(tmp_path, BENCHMARK.replace("16 16", "4 4"))
    code, prefix = EXIT_CONTRACT[error_class]
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")] + extra) == code
    assert capsys.readouterr().err == f"{prefix}injected failure\n"


@pytest.mark.parametrize("command, key, value", [
    ("solve", "solver.max_iter", "0"),
    ("solve", "solver.tol", "-1"),
    ("solve", "solver.damping", "0"),
    ("optimize", "optimizer.max_outer", "0"),
    ("optimize", "optimizer.tol", "0"),
    ("optimize", "optimizer.relaxation", "1.5"),
    ("certificate", "certificate.c1", "-1"),
    ("certificate", "certificate.eps", "-1"),
])
def test_out_of_range_option_exits_1(tmp_path, capsys, command, key, value):
    cfg = write_config(tmp_path, BENCHMARK.replace("16 16", "4 4") + f"{key} = {value}\n")
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith(f"configuration error: config key {key}:")


@pytest.mark.parametrize("key", ["certificate.c1", "certificate.eps"])
def test_substitution_suite_nonpositive_certificate_key_exits_1(tmp_path, capsys, key):
    cfg = write_config(tmp_path, BENCHMARK.replace("16 16", "4 4") + f"{key} = 0\n")
    assert main(["verify", "--config", cfg, "--suite", "substitution",
                 "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith(f"configuration error: config key {key}:")


@pytest.mark.parametrize("beta0", ["5", "-1"])
def test_optimize_beta0_outside_box_exits_1(tmp_path, capsys, beta0):
    cfg = write_config(tmp_path, BENCHMARK.replace("16 16", "4 4")
                       + f"optimizer.beta0 = {beta0}\n")
    assert main(["optimize", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith(
        "configuration error: config key optimizer.beta0:")


def test_option_ranges_include_their_upper_ends():
    config = parse_config_text("solver.damping = 1\nsolver.max_iter = 1\n"
                               "optimizer.relaxation = 1\noptimizer.max_outer = 1\n")
    opts = build_optimizer_options(config)
    assert (opts.relaxation, opts.max_outer) == (1.0, 1)
    assert (opts.solver.damping, opts.solver.max_iter) == (1.0, 1)


README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _readme_section(heading):
    return README.split(heading, 1)[1].split("\n## ", 1)[0]


def test_readme_lists_every_config_key():
    block = _readme_section("## Configuration reference").split("```")[1]
    keys = {line.split()[0] for line in block.splitlines() if line[:1].isalpha()}
    assert keys == set(_KNOWN_KEYS)


def test_readme_exit_code_table_matches_cli():
    rows = re.findall(r"^\| (\d+) \|", _readme_section("## Command line"), re.M)
    codes = {value for name, value in vars(cli_mod).items() if name.startswith("EXIT_")}
    assert sorted(int(r) for r in rows) == sorted(codes)


def test_optimize_benchmark_history(tmp_path):
    cfg = write_config(tmp_path, BENCHMARK.replace("16 16", "8 8")
                       .replace("problem.u1 = 0", "problem.u1 = 0.05"))
    out = tmp_path / "out"
    assert main(["optimize", "--config", cfg, "--out", str(out)]) == 0
    report = read_report(out)
    opt = report["optimizer"]
    assert opt["converged"]
    assert opt["optimality_residual"] <= 1e-6
    assert opt["history"][-1]["optimality_residual"] <= 1e-7


def test_optimize_projected_gradient_on_a_box(tmp_path):
    # at phi0 = 0.1x the optimum is beta = 0; at phi0 = x it is not
    cfg = write_config(tmp_path, BENCHMARK.replace("1 1\n", "1 1 1\n")
                       .replace("16 16", "4 4 4").replace("0.1*x", "x")
                       .replace("problem.u1 = 0", "problem.u1 = 0.05")
                       + "optimizer.mode = projected_gradient\n")
    out = tmp_path / "out"
    assert main(["optimize", "--config", cfg, "--out", str(out)]) == 0
    report = read_report(out)
    opt = report["optimizer"]
    assert opt["converged"] and opt["status"] == "converged"
    assert opt["optimality_residual"] <= float(report["config"]["optimizer.tol"])
    assert opt["integral_beta_sq"] > 0.0
    assert opt["adjoint_iterations"] >= opt["adjoint_solves"]


DEFECTS = Path(__file__).resolve().parents[1] / "perfbench" / "defects"


@pytest.mark.parametrize("name", sorted(p.name for p in DEFECTS.glob("pg_*.cfg")))
def test_projected_gradient_defect_configs_converge_in_few_solves(tmp_path, name):
    out = tmp_path / "out"
    assert main(["optimize", "--config", str(DEFECTS / name), "--out", str(out)]) == 0
    opt = read_report(out)["optimizer"]
    assert opt["converged"] and opt["status"] == "converged"
    assert opt["optimality_residual"] <= 1e-7
    assert opt["state_solves"] <= 8
    assert opt["adjoint_solves"] == 1 + sum(h["step"] > 0 for h in opt["history"])


def test_verify_conductivity_suite(tmp_path):
    cfg = write_config(tmp_path, BENCHMARK)
    assert main(["verify", "--config", cfg, "--suite", "lemma1",
                 "--out", str(tmp_path / "o")]) == 0


def test_verify_maxprinciple(tmp_path):
    cfg = write_config(tmp_path, BENCHMARK)
    out = tmp_path / "o"
    assert main(["verify", "--config", cfg, "--suite", "maxprinciple",
                 "--out", str(out)]) == 0
    report = read_report(out)
    assert report["passed"]
    assert all(c["passed"] for c in report["checks"])


def test_verify_substitution(tmp_path):
    cfg = write_config(tmp_path, BENCHMARK.replace("16 16", "8 8"))
    assert main(["verify", "--config", cfg, "--suite", "substitution",
                 "--out", str(tmp_path / "o")]) == 0


def test_verify_substitution_3d(tmp_path):
    # a refined 3D box must keep the Kuhn mesh for the identity defect to fall
    text = (Path(__file__).parents[1] / "perfbench/defects/verify_substitution_3d.cfg").read_text()
    cfg = write_config(tmp_path, text.replace("8 8 8", "4 4 4"))
    assert main(["verify", "--config", cfg, "--suite", "substitution",
                 "--out", str(tmp_path / "o")]) == 0


def test_verify_gradient(tmp_path):
    cfg = write_config(tmp_path, BENCHMARK.replace("16 16", "8 8")
                       .replace("problem.u1 = 0", "problem.u1 = 0.05"))
    assert main(["verify", "--config", cfg, "--suite", "gradient",
                 "--out", str(tmp_path / "o")]) == 0


def test_verify_failing_property_exits_4(tmp_path, monkeypatch, capsys):
    def broken_suite(config, spec, checks):
        checks.append(("stub.always_fails", False, 2.0, 1.0))

    monkeypatch.setitem(cli_mod._SUITES, "lemma1", broken_suite)
    cfg = write_config(tmp_path, BENCHMARK)
    assert main(["verify", "--config", cfg, "--suite", "lemma1",
                 "--out", str(tmp_path / "o")]) == 4
    err = capsys.readouterr().err
    assert "stub.always_fails" in err


def test_verify_unknown_suite_exits_1(tmp_path):
    cfg = write_config(tmp_path, BENCHMARK)
    assert main(["verify", "--config", cfg, "--suite", "lemma1",
                 "--out", str(tmp_path / "o")]) == 0
    with pytest.raises(SystemExit):
        main(["verify", "--config", cfg, "--suite", "nope"])


def test_certificate_benchmark(tmp_path):
    cfg = write_config(tmp_path, BENCHMARK)
    out = tmp_path / "o"
    assert main(["certificate", "--config", cfg, "--out", str(out)]) == 0
    report = read_report(out)
    cert = report["certificate"]
    assert cert["M"] == pytest.approx(101.0, rel=1e-6)
    assert cert["N"] < 1.0
    assert report["certificate_check"]["passed"]
    assert "heuristic" in cert["c1_provenance"]


def test_certificate_oversized_eps_exits_5(tmp_path):
    cfg = write_config(tmp_path, BENCHMARK
                       + "certificate.eps = 1e9\nproblem.phi0 = 1.0*x\n")
    cfg = write_config(tmp_path, BENCHMARK.replace("problem.phi0 = 0.1*x",
                                                   "problem.phi0 = 1.0*x")
                       + "certificate.eps = 1e9\n", name="c2.cfg")
    assert main(["certificate", "--config", cfg, "--out",
                 str(tmp_path / "o")]) == 5


def test_certificate_constant_model_needs_override(tmp_path):
    base = BENCHMARK.replace("problem.model.kind = truncated_power",
                             "problem.model.kind = constant")
    base = "\n".join(l for l in base.splitlines()
                     if not l.startswith(("problem.model.u_star",
                                          "problem.model.p")))
    cfg = write_config(tmp_path, base)
    assert main(["certificate", "--config", cfg, "--out",
                 str(tmp_path / "o")]) == 1
    cfg2 = write_config(tmp_path, base + "\ncertificate.allow_constant = true\n",
                        name="c2.cfg")
    assert main(["certificate", "--config", cfg2, "--out",
                 str(tmp_path / "o2")]) == 0


def test_convergence_constant_sigma(tmp_path):
    # u1 = 0 keeps the Robin flux compatible with the Dirichlet data at the
    # two corners of the control boundary, so the full O(h^2)/O(h) orders show
    text = """
problem.extents = 1 1
problem.divisions = 8 8
problem.dirichlet = x=0
problem.model.kind = constant
problem.model.sigma0 = 1.0
problem.u0 = 0
problem.u1 = 0
problem.phi0 = 0.1*sin(x + 0.5*y)
problem.beta = 1.0
problem.m_cap = 2.0
"""
    cfg = write_config(tmp_path, text)
    out = tmp_path / "o"
    assert main(["convergence", "--config", cfg, "--levels", "3",
                 "--out", str(out)]) == 0
    report = read_report(out)
    rates = report["rates"]
    assert 1.7 <= rates["u_l2"] <= 2.3
    assert 0.7 <= rates["u_h1"] <= 1.3
    assert 1.7 <= rates["phi_l2"] <= 2.3
    assert 0.7 <= rates["phi_h1"] <= 1.3
    assert (out / "convergence.csv").exists()


def test_convergence_vanishing_sigma_same_bands(tmp_path):
    text = """
problem.extents = 1 1
problem.divisions = 8 8
problem.dirichlet = x=0
problem.model.kind = truncated_power
problem.model.sigma0 = 1.0
problem.model.u_star = 1.0
problem.model.p = 2.0
problem.u0 = 0
problem.u1 = 0
problem.phi0 = 0.1*sin(x + 0.5*y)
problem.beta = 1.0
problem.m_cap = 2.0
"""
    cfg = write_config(tmp_path, text)
    out = tmp_path / "o"
    assert main(["convergence", "--config", cfg, "--levels", "3",
                 "--out", str(out)]) == 0
    rates = read_report(out)["rates"]
    for field in ("u", "phi"):
        assert 1.7 <= rates[f"{field}_l2"] <= 2.3
        assert 0.7 <= rates[f"{field}_h1"] <= 1.3


def test_convergence_trivial_reports_exact(tmp_path):
    cfg = write_config(tmp_path, CONSTANT_DATA)
    out = tmp_path / "o"
    assert main(["convergence", "--config", cfg, "--levels", "3",
                 "--out", str(out)]) == 0
    report = read_report(out)
    assert report["rates"]["u_l2"] == "exact"
    assert report["rates"]["phi_l2"] == "exact"


def test_control_prolongation_follows_facet_children():
    # child Robin facets must inherit the value of the parent they subdivide
    from thermopt.cli import _prolong_beta
    from thermopt.fields import Control
    from thermopt.mesh import (BoundaryTag, build_rectangle_mesh,
                               dirichlet_on_planes, facet_centroids,
                               refine_uniform)
    mesh = build_rectangle_mesh([1, 1], [4, 4], dirichlet_on_planes("x=0"))
    ids = mesh.facet_indices(BoundaryTag.ROBIN_TEMPERATURE)
    coarse_centroids = facet_centroids(mesh)[ids]
    beta = Control(mesh, np.arange(ids.size, dtype=float), float(ids.size))
    fine = refine_uniform(mesh)
    fine_vals = _prolong_beta(beta, fine)
    fine_ids = fine.facet_indices(BoundaryTag.ROBIN_TEMPERATURE)
    fine_centroids = facet_centroids(fine)[fine_ids]
    h = 0.25
    for child_centroid, value in zip(fine_centroids, fine_vals):
        parent_centroid = coarse_centroids[int(value)]
        assert np.max(np.abs(child_centroid - parent_centroid)) <= h / 4 + 1e-12


def test_mesh_file_import(tmp_path):
    from thermopt.mesh import build_rectangle_mesh, dirichlet_on_planes, write_mesh_file
    mesh = build_rectangle_mesh([1, 1], [8, 8], dirichlet_on_planes("x=0"))
    mesh_path = tmp_path / "square.mesh"
    write_mesh_file(mesh, str(mesh_path))
    cfg = write_config(tmp_path, BENCHMARK
                       + f"\nproblem.mesh_file = {mesh_path}\n")
    out = tmp_path / "o"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    assert "POINT_DATA 81" in (out / "u.vtk").read_text()


TRIANGLE_MESH = """VERTICES 3
0 0
1 0
0 1
CELLS 1
0 1 2
FACETS 3
0 1 robin_temperature
1 2 robin_temperature
2 0 dirichlet_temperature
"""


@pytest.mark.parametrize("old, new", [
    ("2 0 dirichlet_temperature", "2 0"),
    ("CELLS 1\n0 1 2", "CELLS 1\n0 1 7"),
    ("CELLS 1\n0 1 2", "CELLS 1\n0 1 -1"),
    ("0 1 robin_temperature", "0 3 robin_temperature"),
    ("FACETS 3", "FACETS 4"),
    ("VERTICES 3", "VERTICES 4"),
    ("CELLS 1\n0 1 2", "CELLS 1\n0 1 2.5"),
    ("CELLS 1\n0 1 2", "CELLS 1\n0 1 99999999999999999999"),
    ("VERTICES 3", "VERTICES \u00b2"),
], ids=["facet-without-tag", "cell-vertex-past-count", "negative-index",
        "facet-vertex-past-count", "facets-short", "vertices-short", "not-integers",
        "index-past-int64", "count-not-decimal"])
def test_solve_malformed_mesh_file_exits_1(tmp_path, capsys, old, new):
    mesh_path = tmp_path / "bad.mesh"
    mesh_path.write_text(TRIANGLE_MESH.replace(old, new))
    cfg = write_config(tmp_path, BENCHMARK + f"\nproblem.mesh_file = {mesh_path}\n")
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "configuration error: mesh file:" in capsys.readouterr().err


def _walk_numbers(node, path=""):
    if isinstance(node, dict):
        for k, v in node.items():
            yield from _walk_numbers(v, f"{path}.{k}")
    elif isinstance(node, list):
        for i, v in enumerate(node):
            yield from _walk_numbers(v, f"{path}[{i}]")
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield path, node


def test_report_numeric_fields_all_finite(tmp_path):
    cfg = write_config(tmp_path, BENCHMARK)
    out = tmp_path / "o"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    for path, value in _walk_numbers(read_report(out)):
        assert np.isfinite(value), path


def test_vtk_output_parses_back(tmp_path):
    cfg = write_config(tmp_path, BENCHMARK.replace("16 16", "4 4"))
    out = tmp_path / "o"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "phi.vtk").read_text().splitlines()
    assert lines[3] == "DATASET UNSTRUCTURED_GRID"
    n_points = int(lines[4].split()[1])
    pts = np.array([[float(t) for t in lines[5 + i].split()]
                    for i in range(n_points)])
    assert pts.shape == (25, 3)
    icells = 5 + n_points
    n_cells, total = (int(t) for t in lines[icells].split()[1:])
    assert n_cells == 32 and total == 32 * 4
    itypes = icells + 1 + n_cells
    assert lines[itypes].split() == ["CELL_TYPES", "32"]
    assert all(lines[itypes + 1 + i] == "5" for i in range(n_cells))
    idata = itypes + 1 + n_cells
    assert lines[idata] == f"POINT_DATA {n_points}"
    vals = np.array([float(lines[idata + 3 + i]) for i in range(n_points)])
    # potential stays inside its boundary data range
    assert vals.min() >= -1e-12 and vals.max() <= 0.1 + 1e-12
