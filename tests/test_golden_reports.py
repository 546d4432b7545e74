"""Every command's report on configs/benchmark.cfg at 8 x 8 against a golden
in tests/golden/, so that a change meant to keep behaviour is seen to keep
it.

A golden is the command's report.json without `timings_seconds` and
`artifacts`. Key sets, strings, bools, ints and nulls must match exactly;
floats must agree within RTOL * max(1, |a|, |b|).

To regenerate every golden, run from the repository root

    PYTHONPATH=src python tests/test_golden_reports.py

and state in CHANGES.md which goldens changed and why.
"""

import json
import tempfile
from pathlib import Path

import pytest

from thermopt.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"
RTOL = 1e-10

# golden name -> command line
RUNS = {
    "solve": ["solve"],
    "optimize": ["optimize"],
    "certificate": ["certificate"],
    "convergence": ["convergence", "--levels", "2"],
    **{f"verify_{suite}": ["verify", "--suite", suite]
       for suite in ("lemma1", "maxprinciple", "substitution", "gradient")},
}


def report(name, tmp):
    """The report of run `name` without its timings and artifact list."""
    config = tmp / "benchmark_8x8.cfg"
    config.write_text((ROOT / "configs" / "benchmark.cfg").read_text()
                      .replace("problem.divisions = 16 16", "problem.divisions = 8 8"))
    out = tmp / name
    main(RUNS[name] + ["--config", str(config), "--out", str(out)])
    data = json.loads((out / "report.json").read_text())
    del data["timings_seconds"], data["artifacts"]
    return data


def assert_matches(actual, expected, where="report"):
    if isinstance(expected, dict):
        assert isinstance(actual, dict) and actual.keys() == expected.keys(), where
        for key in expected:
            assert_matches(actual[key], expected[key], f"{where}.{key}")
    elif isinstance(expected, list):
        assert isinstance(actual, list) and len(actual) == len(expected), where
        for k, (a, e) in enumerate(zip(actual, expected)):
            assert_matches(a, e, f"{where}[{k}]")
    elif type(expected) is float:
        assert type(actual) is float, where
        assert abs(actual - expected) <= RTOL * max(1.0, abs(actual), abs(expected)), \
            f"{where}: {actual!r} != {expected!r}"
    else:
        assert type(actual) is type(expected) and actual == expected, \
            f"{where}: {actual!r} != {expected!r}"


@pytest.mark.parametrize("name", RUNS)
def test_report_matches_golden(tmp_path, name):
    expected = json.loads((GOLDEN / f"{name}.json").read_text())
    assert_matches(report(name, tmp_path), expected)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in RUNS:
            (GOLDEN / f"{name}.json").write_text(
                json.dumps(report(name, Path(tmp)), indent=2, sort_keys=True) + "\n")
