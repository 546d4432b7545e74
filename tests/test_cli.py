import ast
import hashlib
import json
import math
import operator
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import thermopt.cli as cli_mod
from thermopt import assembly, errors
from thermopt.cli import main
from thermopt.config import (_KEYS, build_control, build_optimizer_options,
                             build_problem, load_config, parse_config_text)
from thermopt.control import OptimizerOptions
from thermopt.errors import ConfigurationError
from thermopt.expressions import Expression
from thermopt.reporting import write_report

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


# values of the grammar at the points [[0.25, -1], [2, 3]]: ^ binds tighter
# than a unary minus and is right associative; a leading zero is dropped
@pytest.mark.parametrize("text, expect", [
    ("-2^2", [-4.0, -4.0]),
    ("2^-1", [0.5, 0.5]),
    ("2^3^2", [512.0, 512.0]),
    ("07*x", [1.75, 14.0]),
    (".5", [0.5, 0.5]),
    ("3.", [3.0, 3.0]),
    ("1e400", [math.inf, math.inf]),
    ("x +\t\u0663", [3.25, 5.0]),   # any whitespace, any decimal digit
])
def test_expression_values(text, expect):
    assert Expression(text)(np.array([[0.25, -1.0], [2.0, 3.0]])).tolist() == expect


@pytest.mark.parametrize("text", [
    "x**2", "x//2", "x%2", "sin", "sin(x, y)", "sin(x=1)", "pi(2)", "x.real", "[x]",
    "1 if x else 2", "True", "'a'", "0x10", "1_0", "1j", "__import__('os')",
    "(sin)(x)", "sin(*x)", "sin(^x)", "x # comment", "\uff58", "", "x +", "(x"])
def test_expression_rejects_other_syntax(text):
    with pytest.raises(ConfigurationError):
        Expression(text)


ROOT = Path(__file__).resolve().parents[1]
SHIPPED = ["configs/*.cfg", "perfbench/defects/*.cfg"]
# first 16 hex digits of the sha256 of u0, u1, phi0 and beta as little-endian doubles
SHIPPED_DATA = {
    "configs/benchmark.cfg":
        ("35956830dc0e1c69", "d4d9efd16e6e0663", "ba34ed86ca697214", "1737432e85afd0cd"),
    "configs/smooth_convergence.cfg":
        ("f4bd841308415de6", "f4bd841308415de6", "d590c63b199d7950", "6ef38a009dcc7a3e"),
    "perfbench/defects/pg_coarse_12x12.cfg":
        ("eb3db1453c0dac39", "9dc2c6758afbfc54", "d52b0c2fd0612563", "f547b7098e7c9bdc"),
    "perfbench/defects/pg_stall_phi0_12x.cfg":
        ("766414c979fd8f69", "e080f1de12f42888", "9bcaed28d46fba25", "9b102308525df85d"),
    "perfbench/defects/pg_stall_phi0_13x.cfg":
        ("766414c979fd8f69", "e080f1de12f42888", "10b5bd6f236faa9b", "9b102308525df85d"),
    "perfbench/defects/pg_stall_phi0_14x.cfg":
        ("766414c979fd8f69", "e080f1de12f42888", "120b9ed5b5dd3d03", "9b102308525df85d"),
    "perfbench/defects/verify_substitution_3d.cfg":
        ("d1575943c8a4713d", "c48ba655f2bbccf6", "47a794dc2c00f7a6", "ed07ce8b9a09d910"),
}


def test_every_shipped_config_has_pinned_data():
    shipped = {str(p.relative_to(ROOT)) for pattern in SHIPPED for p in ROOT.glob(pattern)}
    assert shipped == set(SHIPPED_DATA)


@pytest.mark.parametrize("path", sorted(SHIPPED_DATA))
def test_shipped_config_builds_its_data(path):
    config = load_config(str(ROOT / path))
    spec = build_problem(config)
    beta = build_control(config, spec)
    digests = tuple(hashlib.sha256(np.asarray(v, "<f8").tobytes()).hexdigest()[:16]
                    for v in (spec.u0.values, spec.u1.values, spec.phi0.values, beta.values))
    assert digests == SHIPPED_DATA[path]


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
    # a fresh box mesh: the temperature matrix and each refactored potential
    # (K's grid inverse is no factorization)
    assert report["state"]["factorizations"] == 1 + sum(h["refactored"] for h in history)
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


def test_beta_parsed_without_robin_facets(tmp_path, capsys):
    cfg = write_config(tmp_path, BENCHMARK
                       .replace("problem.dirichlet = x=0", "problem.dirichlet = x=0|x=1|y=0|y=1")
                       .replace("problem.beta = 1.0", "problem.beta = garbage((("))
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith("configuration error: expression 'garbage((('")


def test_solve_unknown_key_exits_1(tmp_path):
    cfg = write_config(tmp_path, BENCHMARK + "\nnot.a.key = 1\n")
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 1


def test_removed_joule_form_key_exits_1(tmp_path, capsys):
    cfg = write_config(tmp_path, BENCHMARK + "solver.joule_form = weak\n")
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "unknown key 'solver.joule_form'" in capsys.readouterr().err


def test_removed_relaxation_key_exits_1(tmp_path, capsys):
    cfg = write_config(tmp_path, BENCHMARK.replace("16 16", "4 4")
                       + "optimizer.relaxation = 0.5\n")
    assert main(["optimize", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "unknown key 'optimizer.relaxation'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "certificate"])
def test_commands_that_do_not_optimize_leave_the_step_rule_unread(tmp_path, command):
    # the shape of the certify-3d benchmark config, which sets the removed sweep
    cfg = write_config(tmp_path, BENCHMARK.replace("1 1\n", "1 1 1\n")
                       .replace("16 16", "4 4 4") + "optimizer.mode = sweep\n")
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 0


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
    ("problem.beta = 1.0", "problem.beta = (-1)^0.5"),
    ("problem.beta = 1.0", "problem.beta = 1/0"),
    ("problem.phi0 = 0.1*x", "problem.phi0 = 1/0"),
], ids=["sigma0", "p", "beta-missing-file", "beta-not-numbers", "u1-not-numbers",
        "p-nan", "sigma0-nan", "u_star-nan", "u_star-inf", "m_cap-nan", "m_cap-inf",
        "beta-expression-nan", "beta-expression-inf", "phi0-expression-inf"])
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
    # these scipy subpackages would add about 0.2 s to every command's start-up
    src = Path(cli_mod.__file__).resolve().parents[1]
    code = ("import sys, thermopt.cli; print(sorted(m for m in sys.modules if m in "
            "('scipy.fft', 'scipy.integrate', 'scipy.optimize', 'scipy.special')))")
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


def test_solve_report_does_not_depend_on_an_earlier_optimize(tmp_path):
    # an optimize leaves nothing on the mesh that changes a later solve
    cfg = write_config(tmp_path, BENCHMARK.replace("0.1*x", "x"))
    outs = [tmp_path / name for name in ("before", "optimize", "after")]
    assert main(["solve", "--config", cfg, "--out", str(outs[0])]) == 0
    assert main(["optimize", "--config", cfg, "--out", str(outs[1])]) == 0
    assert main(["solve", "--config", cfg, "--out", str(outs[2])]) == 0
    before, opt, after = (read_report(out) for out in outs)
    for report in (before, after):
        report.pop("timings_seconds")
        report.pop("artifacts")
    assert before == after
    opt = opt["optimizer"]
    assert opt["cg_iterations"] > 0
    # each state solve factors K + R; an adjoint factors nothing
    assert opt["factorizations"] >= opt["state_solves"]


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
    cfg = write_config(tmp_path, CONSTANT_DATA)
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


@pytest.mark.parametrize("kind, level", [("constant", "0.5"), ("truncated_power", "1.0"),
                                         ("truncated_power", "0")])
def test_bad_truncation_level_exits_1(tmp_path, capsys, kind, level):
    # a constant model takes no level; a truncated power one needs 0 < n < u_star
    text = (BENCHMARK.replace("16 16", "4 4")
            .replace("kind = truncated_power", f"kind = {kind}")
            + f"solver.truncation_level = {level}\n")
    cfg = write_config(tmp_path, text)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: truncation level {level}")


@pytest.mark.parametrize("kind, line, level", [
    ("truncated_power", "", 0.9),
    ("truncated_power", "solver.truncation_level = 0.5\n", 0.5),
    ("constant", "", None),
])
def test_report_states_the_truncation_level(tmp_path, kind, line, level):
    text = BENCHMARK.replace("16 16", "4 4").replace("truncated_power", kind) + line
    cfg = write_config(tmp_path, text)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert read_report(tmp_path / "o")["state"]["truncation_level"] == level


# A strong drive at a raised level leaves sigma small, and the potential's
# free right side under 1e-3 of the whole system's norm, Dirichlet values
# included, on which CG stops; a CG that stopped must pass the solution check
# on that scale. max u as solved with the Dirichlet rows kept in the system.
@pytest.mark.parametrize("drive, max_u", [(8, 0.8898841325779441), (10, 0.9252787387535331),
                                          (12, 0.9468143299629618)])
def test_strong_drive_at_a_raised_level_solves(tmp_path, drive, max_u):
    text = ((ROOT / "configs/benchmark.cfg").read_text()
            .replace("problem.phi0 = 0.1*x", f"problem.phi0 = {drive}*x")
            + "solver.truncation_level = 0.99\n")
    cfg = write_config(tmp_path, text)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert abs(read_report(tmp_path / "o")["state"]["max_u"] - max_u) <= 1e-10


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
    ("optimize", "optimizer.mode", "sweep"),
    ("certificate", "certificate.c1", "-1"),
    ("certificate", "certificate.eps", "-1"),
    ("verify --suite lemma1", "verify.seed", "-1"),
    ("verify --suite gradient", "verify.seed", "-1"),
])
def test_out_of_range_option_exits_1(tmp_path, capsys, command, key, value):
    cfg = write_config(tmp_path, BENCHMARK.replace("16 16", "4 4") + f"{key} = {value}\n")
    assert main(command.split() + ["--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith(f"configuration error: config key {key}:")


@pytest.mark.parametrize("line", ["problem.divisions = 16.5 16", "problem.extents = one 1",
                                  "problem.extents = nan 1", "problem.extents = inf 1",
                                  "problem.extents = 1 -1"])
def test_malformed_box_size_exits_1(tmp_path, capsys, line):
    # the line replaces the key's line in BENCHMARK: a second one would be a duplicate key
    key = line.split(" = ")[0]
    text = "\n".join(line if row.startswith(f"{key} = ") else row
                     for row in BENCHMARK.replace("16 16", "4 4").splitlines())
    cfg = write_config(tmp_path, text + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # a numpy RuntimeWarning fails the test
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and key.split(".")[1] in err
    assert "Traceback" not in err


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
                               "optimizer.max_outer = 1\n")
    opts = build_optimizer_options(config)
    assert opts.max_outer == 1
    assert (opts.solver.damping, opts.solver.max_iter) == (1.0, 1)


def test_default_table_matches_the_option_defaults():
    # each solver and optimizer default is stated twice: in the config's
    # default table and on the option dataclasses; optimizer.mode, the one
    # step rule, is checked by the config and is no option
    built, default = build_optimizer_options(parse_config_text("")), OptimizerOptions()
    keys = [key for key in _KEYS if key.startswith(("solver.", "optimizer."))
            and key != "optimizer.mode"]
    assert "optimizer.tol" in keys and "solver.tol" in keys
    for key in keys:
        section, name = key.split(".")
        got, want = (built.solver, default.solver) if section == "solver" else (built, default)
        assert getattr(got, name) == getattr(want, name), key


@pytest.mark.parametrize("key, text", [(key, "" if key == "output.dir" else "x")
                                       for key, spec in _KEYS.items() if spec.kind.noun])
def test_unparsable_text_names_the_key(key, text):
    # output.dir takes any text but empty text
    with pytest.raises(ConfigurationError) as info:
        parse_config_text(f"{key} = {text}\n").get(key)
    assert str(info.value).startswith(f"config key {key}: not ")


@pytest.mark.parametrize("key", [key for key, spec in _KEYS.items() if spec.admits])
def test_out_of_range_value_names_the_key(key):
    with pytest.raises(ConfigurationError) as info:
        parse_config_text(f"{key} = -1\n").get(key)
    # a number is echoed as parsed, a word quoted
    assert re.match(rf"config key {re.escape(key)}: (-1(\.0)?|'-1') must ", str(info.value))


# a command that reads each section's keys
SECTION_COMMAND = {"problem": ["solve"], "solver": ["solve"], "optimizer": ["optimize"],
                   "certificate": ["certificate"], "verify": ["verify", "--suite", "lemma1"],
                   "output": ["solve"]}


@pytest.mark.parametrize("key", [key for key, spec in _KEYS.items() if spec.default is not None])
def test_empty_text_of_a_key_with_a_default_exits_1(tmp_path, monkeypatch, capsys, key):
    monkeypatch.chdir(tmp_path)   # where an empty output.dir would write
    text = BENCHMARK.replace("16 16", "4 4")
    if key == "certificate.allow_constant":   # read for the constant model only
        text = text.replace("kind = truncated_power", "kind = constant")
    rows = [row for row in text.splitlines() if not row.startswith(f"{key} = ")]
    cfg = write_config(tmp_path, "\n".join(rows + [f"{key} ="]) + "\n")
    out = [] if key == "output.dir" else ["--out", str(tmp_path / "o")]
    assert main(SECTION_COMMAND[key.split(".")[0]] + ["--config", cfg] + out) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "duplicate" not in err
    assert not (tmp_path / "report.json").exists()


def test_empty_text_of_a_key_without_a_default_unsets_it():
    keys = [key for key, spec in _KEYS.items() if spec.default is None]
    assert keys == ["problem.mesh_file", "solver.truncation_level", "optimizer.beta0"]
    for key in keys:
        assert parse_config_text(f"{key} =\n").get(key) is None
        assert parse_config_text("").get(key) is None


def test_a_command_checks_only_the_keys_it_reads(tmp_path):
    cfg = write_config(tmp_path, BENCHMARK.replace("16 16", "4 4") + "optimizer.tol = 0\n")
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 0


README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _readme_section(heading):
    return README.split(heading, 1)[1].split("\n## ", 1)[0]


def test_readme_lists_every_config_key():
    block = _readme_section("## Configuration reference").split("```")[1]
    keys = {line.split()[0] for line in block.splitlines() if line[:1].isalpha()}
    assert keys == set(_KEYS)
    # an entry is its key's line and the indented lines after it
    entries = re.findall(r"^(\S+)(.*(?:\n\s.*)*)", block, re.M)
    for key, entry in entries:
        if _KEYS[key].default is not None:
            assert f'("{_KEYS[key].default}"' in " ".join(entry.split()), key


def test_readme_layout_names_every_module():
    # each row's first cell: `thermopt.name`, or several names joined by " / "
    cells = re.findall(r"^\| (`.*?) \|", _readme_section("## Package layout"), re.M)
    named = {name.removeprefix("thermopt.") for cell in cells
             for name in re.findall(r"`([\w.]+)`", cell)}
    modules = {path.stem for path in (ROOT / "src" / "thermopt").glob("*.py")}
    assert modules - {"__init__"} <= named


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
                       .replace("problem.u1 = 0", "problem.u1 = 0.05"))
    out = tmp_path / "out"
    assert main(["optimize", "--config", cfg, "--out", str(out)]) == 0
    report = read_report(out)
    opt = report["optimizer"]
    assert opt["converged"] and opt["status"] == "converged"
    assert opt["optimality_residual"] <= float(report["config"]["optimizer.tol"])
    assert opt["integral_beta_sq"] > 0.0
    assert opt["adjoint_iterations"] >= opt["adjoint_solves"]


def test_projected_gradient_from_the_upper_bound_stays_in_the_box(tmp_path):
    # from beta0 = m_cap the steps push the facets with g < 0 past m_cap, where
    # the clip holds them: the optimum keeps some of them on the bound
    text = (ROOT / "configs" / "benchmark.cfg").read_text()
    for old, new in (("16 16", "8 8"), ("m_cap = 2.0", "m_cap = 0.02"),
                     ("u1 = 0.05", "u1 = 0"), ("0.1*x", "1.0*x")):
        text = text.replace(old, new)
    cfg = write_config(tmp_path, text + "optimizer.beta0 = 0.02\n")
    out = tmp_path / "out"
    assert main(["optimize", "--config", cfg, "--out", str(out)]) == 0
    assert read_report(out)["optimizer"]["converged"]
    beta = np.loadtxt(out / "beta.csv", delimiter=",", skiprows=1)[:, -1]
    assert beta.max() <= 0.02 and beta.min() >= 0.0


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


def check_results(outdir):
    return {c["property"]: c["passed"] for c in read_report(outdir)["checks"]}


def test_verify_substitution(tmp_path):
    cfg = write_config(tmp_path, BENCHMARK.replace("16 16", "8 8"))
    assert main(["verify", "--config", cfg, "--suite", "substitution",
                 "--out", str(tmp_path / "o")]) == 0
    assert check_results(tmp_path / "o")["substitution.psi_inequality_holds"]


def test_verify_substitution_3d(tmp_path):
    # a refined 3D box must keep the Kuhn mesh for the identity defect to fall
    text = (Path(__file__).parents[1] / "perfbench/defects/verify_substitution_3d.cfg").read_text()
    cfg = write_config(tmp_path, text.replace("8 8 8", "4 4 4"))
    assert main(["verify", "--config", cfg, "--suite", "substitution",
                 "--out", str(tmp_path / "o")]) == 0
    assert check_results(tmp_path / "o")["substitution.psi_inequality_holds"]


def test_verify_substitution_without_interior_vertex(tmp_path, capsys):
    # a 1x1 square has no interior vertex: the psi inequality holds vacuously,
    # and the potential residual of the coarse level is already 0
    text = (Path(__file__).parents[1] / "configs/benchmark.cfg").read_text()
    cfg = write_config(tmp_path, text.replace("16 16", "1 1"))
    assert main(["verify", "--config", cfg, "--suite", "substitution",
                 "--out", str(tmp_path / "o")]) == 4
    assert "Traceback" not in capsys.readouterr().err
    checks = check_results(tmp_path / "o")
    assert checks["substitution.psi_inequality_holds"]
    assert not checks["substitution.residual_phi_decreases"]


def test_solve_on_a_box_without_interior_vertex(tmp_path, capsys):
    # a 1 x 4 box: the potential has no unknown, and its solves are empty
    cfg = write_config(tmp_path, BENCHMARK.replace("16 16", "1 4"))
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert "Traceback" not in capsys.readouterr().err
    report = read_report(tmp_path / "o")
    assert report["state"]["cg_iterations"] == 0


@pytest.mark.parametrize("text", [(ROOT / "configs/smooth_convergence.cfg").read_text(), ""],
                         ids=["smooth_convergence", "all_defaults"])
def test_verify_substitution_passes_on_exact_solutions(tmp_path, text):
    # residuals at round-off on both levels count as falling
    cfg = write_config(tmp_path, text)
    assert main(["verify", "--config", cfg, "--suite", "substitution",
                 "--out", str(tmp_path / "o")]) == 0


def test_verify_gradient(tmp_path):
    cfg = write_config(tmp_path, BENCHMARK.replace("16 16", "8 8")
                       .replace("problem.u1 = 0", "problem.u1 = 0.05"))
    assert main(["verify", "--config", cfg, "--suite", "gradient",
                 "--out", str(tmp_path / "o")]) == 0


def test_verify_gradient_with_a_small_cap_exits_1(tmp_path, capsys):
    # no interior constant control below m_cap = 0.2
    cfg = write_config(tmp_path, BENCHMARK.replace("16 16", "4 4")
                       .replace("problem.m_cap = 2.0", "problem.m_cap = 0.1"))
    assert main(["verify", "--config", cfg, "--suite", "gradient",
                 "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith("configuration error: gradient suite")


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


# Whether a verify check passes with its measured value at most (le) or at
# least (ge) its tolerance; gradient.triangle_k for every k.
CHECK_DIRECTIONS = {
    "conductivity.ratio_upper": operator.le,
    "conductivity.ratio_lower": operator.ge,
    "conductivity.decay_product": operator.le,
    "maxprinciple.phi_lower": operator.ge,
    "maxprinciple.phi_upper": operator.le,
    "maxprinciple.u_nonnegative": operator.ge,
    "substitution.psi_inequality_holds": operator.ge,
    "substitution.round_trip": operator.le,
    "gradient.triangle": operator.le,
}
BENCHMARK_4X4 = (ROOT / "configs/benchmark.cfg").read_text().replace("16 16", "4 4")
CONSTANT_SQUARE = (BENCHMARK_4X4.replace("kind = truncated_power", "kind = constant")
                   .replace("sigma0 = 1.0", "sigma0 = 3.0"))


@pytest.mark.parametrize("text, suite", [
    *((BENCHMARK_4X4, suite) for suite in sorted(cli_mod._SUITES)),
    (CONSTANT_SQUARE, "lemma1"),
], ids=[*(f"benchmark-{suite}" for suite in sorted(cli_mod._SUITES)), "constant-lemma1"])
def test_verify_checks_pass_by_the_tolerance_they_report(tmp_path, text, suite):
    out = tmp_path / "o"
    code = main(["verify", "--config", write_config(tmp_path, text), "--suite", suite,
                 "--out", str(out)])
    report = read_report(out)
    assert code == (0 if report["passed"] else 4)
    for check in report["checks"]:
        name = check["property"]
        if name.endswith("_decreases"):
            continue   # a fall under refinement, with the round-off rule of the README
        compare = CHECK_DIRECTIONS[re.sub(r"_\d+$", "", name)]
        assert check["passed"] == compare(check["measured"], check["tolerance"]), check
    if suite == "lemma1":
        decay = next(c for c in report["checks"]
                     if c["property"] == "conductivity.decay_product")
        assert decay["tolerance"] == 1.0 + 1e-12


def test_verify_prints_the_values_it_compares_in_full(tmp_path, capsys):
    # a pass by round-off at the bound must read apart from the bound: each
    # line shows the report's values exactly
    out = tmp_path / "o"
    assert main(["verify", "--config", write_config(tmp_path, CONSTANT_SQUARE),
                 "--suite", "lemma1", "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert ("PASS conductivity.decay_product: measured 1.0000000000000002 "
            "(tolerance 1.000000000001)") in lines
    for check in read_report(out)["checks"]:
        assert (f"{'PASS' if check['passed'] else 'FAIL'} {check['property']}: measured "
                f"{check['measured']!r} (tolerance {check['tolerance']!r})") in lines


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
    assert cert["s"] == "inf"   # the 2D Sobolev exponent, written by the report's serializer


@pytest.mark.parametrize("box", [("1 1", "16 16"), ("1 1 1", "4 4 4")])
def test_certificate_m_is_built_from_its_reported_thresholds(tmp_path, monkeypatch, box):
    certs, compute = [], cli_mod.compute_certificate

    def recording(*args, **kwargs):
        certs.append(compute(*args, **kwargs))
        return certs[-1]

    monkeypatch.setattr(cli_mod, "compute_certificate", recording)
    text = (Path(__file__).parents[1] / "configs/benchmark.cfg").read_text()
    cfg = write_config(tmp_path, text.replace("extents = 1 1", f"extents = {box[0]}")
                       .replace("divisions = 16 16", f"divisions = {box[1]}"))
    assert main(["certificate", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    (cert,) = certs
    assert cert.M == max(cert.thresholds.values()) + 1.0
    reported = read_report(tmp_path / "o")["certificate"]
    assert set(reported["thresholds"]) == {"one", "C_eps", "inv_eps", "data_u0", "data_u1"}
    assert reported["M"] == cert.M and reported["thresholds"] == cert.thresholds


def test_certificate_oversized_eps_exits_5(tmp_path):
    cfg = write_config(tmp_path, BENCHMARK
                       + "certificate.eps = 1e9\nproblem.phi0 = 1.0*x\n")
    cfg = write_config(tmp_path, BENCHMARK.replace("problem.phi0 = 0.1*x",
                                                   "problem.phi0 = 1.0*x")
                       + "certificate.eps = 1e9\n", name="c2.cfg")
    assert main(["certificate", "--config", cfg, "--out",
                 str(tmp_path / "o")]) == 5


@pytest.mark.parametrize("phi0", ["5*x", "12*x"])
def test_overflowing_certificate_chain_exits_5_without_traceback(tmp_path, phi0):
    # at 5x the v_inf bound overflows after auto-eps; at 12x already
    # e^(8 mu |phi0|^2) does, and no eps opens denominator 1
    cfg = write_config(tmp_path, BENCHMARK.replace("problem.phi0 = 0.1*x",
                                                   f"problem.phi0 = {phi0}"))
    env = dict(os.environ, PYTHONPATH=str(Path(cli_mod.__file__).resolve().parents[1]))
    for command in (["certificate"], ["verify", "--suite", "substitution"]):
        result = subprocess.run([sys.executable, "-m", "thermopt.cli", *command,
                                 "--config", cfg, "--out", str(tmp_path / "o")],
                                env=env, capture_output=True, text=True)
        assert result.returncode == 5
        assert "Traceback" not in result.stderr
        assert result.stderr.startswith("error:") and "overflows" in result.stderr


@pytest.mark.parametrize("change", [
    "problem.phi0 = 12*x",                            # the weight overflows
    "problem.phi0 = 1.0*x\ncertificate.eps = 1e9",     # pinned eps closes den1
    "problem.phi0 = 5*x",                             # v_inf overflows after auto-eps
])
def test_certificate_checks_without_c_d_precede_the_state_solve(tmp_path, monkeypatch,
                                                                 change):
    def raiser(*args, **kwargs):
        raise AssertionError("state solved before the certificate")

    monkeypatch.setattr(cli_mod, "solve_state", raiser)
    text = BENCHMARK.replace("problem.phi0 = 0.1*x", change)
    cfg = write_config(tmp_path, text)
    for command in (["certificate"], ["verify", "--suite", "substitution"]):
        assert main([*command, "--config", cfg, "--out", str(tmp_path / "o")]) == 5


def test_certificate_factors_once_on_a_box_and_counts_its_work(tmp_path, monkeypatch):
    # K + R for the temperature; the potential's K and the Poincare
    # estimate's have a grid inverse on a box
    shapes = []
    factor_spd = assembly.factor_spd

    def counting(matrix):
        shapes.append(matrix.shape)
        return factor_spd(matrix)

    monkeypatch.setattr(assembly, "factor_spd", counting)
    cfg = write_config(tmp_path, BENCHMARK.replace("extents = 1 1", "extents = 1 1 1")
                       .replace("divisions = 16 16", "divisions = 6 6 6"))
    assert main(["certificate", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert shapes == [(7 ** 3 - 7 ** 2, 7 ** 3 - 7 ** 2)]   # the unknowns off x = 0
    assert read_report(tmp_path / "o")["state"]["factorizations"] == 1
    cert = read_report(tmp_path / "o")["certificate"]
    assert type(cert["eps_halvings"]) is int and cert["eps_halvings"] == 0
    assert type(cert["poincare_iterations"]) is int and cert["poincare_iterations"] > 0


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


def test_convergence_prints_python_floats(tmp_path, capsys):
    cfg = write_config(tmp_path, BENCHMARK.replace("16 16", "4 4"))
    for levels in (2, 3):
        assert main(["convergence", "--config", cfg, "--levels", str(levels),
                     "--out", str(tmp_path / f"o{levels}")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "u_l2_vs_finest" in lines[0] and not any("np.float64" in x for x in lines)
        rows = [ast.literal_eval(line) for line in lines if line.startswith("{")]
        assert len(rows) == levels
        for row in rows:
            assert all(type(v) in (int, float) for v in row.values())
        rates = ast.literal_eval(lines[-1].removeprefix("rates: "))
        expected = float if levels == 3 else type(None)
        assert all(type(v) is expected for v in rates.values())


@pytest.mark.parametrize("error_class, code", [(errors.NonconvergenceError, 2),
                                              (errors.CriticalityError, 3)])
def test_convergence_failing_level_reports_the_solved_ones(tmp_path, monkeypatch, capsys,
                                                           error_class, code):
    solve, calls = cli_mod.solve_state, []

    def third_solve_fails(*args, **kwargs):
        calls.append(None)
        if len(calls) == 3:
            raise error_class("injected failure")
        return solve(*args, **kwargs)

    monkeypatch.setattr(cli_mod, "solve_state", third_solve_fails)
    cfg = write_config(tmp_path, BENCHMARK.replace("16 16", "4 4"))
    out = tmp_path / "o"
    assert main(["convergence", "--config", cfg, "--levels", "3",
                 "--out", str(out)]) == code
    assert "level 2 failed: injected failure" in capsys.readouterr().err
    report = read_report(out)
    assert [row["level"] for row in report["levels"]] == [0, 1]
    assert set(report["rates"]) == {"u_l2", "u_h1", "phi_l2", "phi_h1"}
    assert (out / "convergence.csv").exists()


def test_convergence_with_one_level_exits_1(tmp_path, capsys):
    cfg = write_config(tmp_path, BENCHMARK.replace("16 16", "4 4"))
    assert main(["convergence", "--config", cfg, "--levels", "1",
                 "--out", str(tmp_path / "o")]) == 1
    assert "at least 2 levels" in capsys.readouterr().err


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
    from thermopt.fields import Control
    from thermopt.mesh import (BoundaryTag, build_rectangle_mesh,
                               dirichlet_on_planes, facet_centroids,
                               prolong_facets, refine_uniform)
    mesh = build_rectangle_mesh([1, 1], [4, 4], dirichlet_on_planes("x=0"))
    ids = mesh.facet_indices(BoundaryTag.ROBIN_TEMPERATURE)
    coarse_centroids = facet_centroids(mesh)[ids]
    beta = Control(mesh, np.arange(ids.size, dtype=float), float(ids.size))
    fine = refine_uniform(mesh)
    fine_vals = prolong_facets(beta.values, fine)
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
    ("0 1 robin_temperature", "0 1 neumann"),
    ("0 0\n1 0\n0 1", "0 0 0 0\n1 0 0 0\n0 1 0 0"),
], ids=["facet-without-tag", "cell-vertex-past-count", "negative-index",
        "facet-vertex-past-count", "facets-short", "vertices-short", "not-integers",
        "index-past-int64", "count-not-decimal", "unknown-tag", "four-coordinates"])
def test_solve_malformed_mesh_file_exits_1(tmp_path, capsys, old, new):
    mesh_path = tmp_path / "bad.mesh"
    mesh_path.write_text(TRIANGLE_MESH.replace(old, new))
    cfg = write_config(tmp_path, BENCHMARK + f"\nproblem.mesh_file = {mesh_path}\n")
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "configuration error: mesh file:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "certificate"])
def test_mesh_file_vertex_in_no_cell_exits_1(tmp_path, capsys, command):
    # a vertex that no cell names leaves an empty row in every matrix
    from thermopt.mesh import build_rectangle_mesh, dirichlet_on_planes, write_mesh_file
    mesh_path = tmp_path / "orphan.mesh"
    write_mesh_file(build_rectangle_mesh([1, 1], [4, 4], dirichlet_on_planes("x=0")),
                    str(mesh_path))
    text = mesh_path.read_text().replace("VERTICES 25", "VERTICES 26")
    mesh_path.write_text(text.replace("CELLS", "0.5 0.5\nCELLS"))
    cfg = write_config(tmp_path, BENCHMARK + f"\nproblem.mesh_file = {mesh_path}\n")
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "configuration error: mesh vertex 25 is in no cell" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["missing", "directory", "not UTF-8"])
@pytest.mark.parametrize("source", ["--config", "problem.mesh_file", "problem.u0",
                                    "problem.u1", "problem.phi0", "problem.beta"])
def test_unreadable_input_file_exits_1(tmp_path, capsys, source, kind):
    # every file a command reads: the config, the mesh and the file: data sources
    bad = tmp_path / "bad"
    if kind == "directory":
        bad.mkdir()
    elif kind == "not UTF-8":
        bad.write_bytes(bytes(range(128, 256)))
    cfg = str(bad)
    if source != "--config":
        value = bad if source == "problem.mesh_file" else f"file:{bad}"
        text = re.sub(rf"(?m)^{re.escape(source)} = .*\n", "", BENCHMARK.replace("16 16", "4 4"))
        cfg = write_config(tmp_path, text + f"{source} = {value}\n")
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and str(bad) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("source", ["problem.u0", "problem.u1", "problem.phi0",
                                    "problem.beta"])
def test_file_source_with_the_wrong_value_count_exits_1(tmp_path, capsys, source):
    values = tmp_path / "values.txt"
    values.write_text("0.0\n" * 7)   # a 4 x 4 square has 25 vertices and 12 Robin facets
    text = re.sub(rf"(?m)^{re.escape(source)} = .*\n", "", BENCHMARK.replace("16 16", "4 4"))
    cfg = write_config(tmp_path, text + f"{source} = file:{values}\n")
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: config key {source}: file {values} "
                          "holds 7 values for")


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


@pytest.mark.parametrize("command", ["solve", "optimize", "verify", "convergence",
                                     "certificate"])
def test_every_command_writes_the_report_skeleton(tmp_path, command):
    text = (ROOT / "configs" / "benchmark.cfg").read_text().replace("16 16", "4 4")
    cfg = write_config(tmp_path, text)
    out = tmp_path / "o"
    extra = {"verify": ["--suite", "lemma1"]}.get(command, [])
    assert main([command, "--config", cfg, "--out", str(out)] + extra) == 0
    report = read_report(out)
    assert report["schema_version"] == 1
    assert report["config"] == load_config(cfg).raw
    assert set(report["timings_seconds"]) == {command}
    assert report["artifacts"] == sorted(report["artifacts"])
    assert str(out / "report.json") in report["artifacts"]
    assert set(report["artifacts"]) == {str(path) for path in out.iterdir()}


def _reject_constant(token):
    raise ValueError(f"{token} is not valid JSON")


def test_report_writes_non_finite_numbers_as_strings(tmp_path):
    path = tmp_path / "report.json"
    write_report({"a": np.float64("inf"), "b": -math.inf,
                  "c": np.array([np.nan, 1.0])}, str(path))
    report = json.loads(path.read_text(), parse_constant=_reject_constant)
    assert report["a"] == "inf" and report["b"] == "-inf"
    assert report["c"] == ["nan", 1.0]


def test_report_writes_numpy_bools(tmp_path):
    path = tmp_path / "report.json"
    write_report({"a": np.bool_(True), "b": np.array([False, True])}, str(path))
    report = json.loads(path.read_text())
    assert report["a"] is True and report["b"] == [False, True]
