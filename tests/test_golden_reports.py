"""Every command's report on configs/benchmark.cfg at 8 x 8, the optimizer's
also at 32 x 32 (the size of the optimize-pg benchmark, whose potential
blocks band at half-bandwidth 31), and the certificate's on its data on the
4 x 4 x 4 and the 8 x 8 x 8 unit cube (the one whose temperature solves run
CG on the box's separable inverse), against a golden in tests/golden/, so
that a change meant to keep behaviour is seen to keep it.

A golden is the command's report.json without `timings_seconds` and
`artifacts`. Key sets, strings, bools, ints and nulls must match exactly;
floats must agree within RTOL * max(1, |a|, |b|).

To regenerate every golden (or only the named ones), run from the
repository root

    PYTHONPATH=src python tests/test_golden_reports.py [name ...]

and state in CHANGES.md which goldens changed and why.
"""

import json
import sys
import tempfile
from pathlib import Path

import pytest

from thermopt.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"
RTOL = 1e-10

# edits of configs/benchmark.cfg: the 8 x 8 and 32 x 32 squares and the 4 x 4 x 4
# and 8 x 8 x 8 cubes
SQUARE = {"problem.divisions = 16 16": "problem.divisions = 8 8"}
SQUARE32 = {"problem.divisions = 16 16": "problem.divisions = 32 32"}
CUBE = {"problem.extents = 1 1": "problem.extents = 1 1 1",
        "problem.divisions = 16 16": "problem.divisions = 4 4 4"}
CUBE8 = {"problem.extents = 1 1": "problem.extents = 1 1 1",
         "problem.divisions = 16 16": "problem.divisions = 8 8 8"}

# golden name -> (command line, config edits)
RUNS = {
    "solve": (["solve"], SQUARE),
    "optimize": (["optimize"], SQUARE),
    "optimize_32": (["optimize"], SQUARE32),
    "certificate": (["certificate"], SQUARE),
    "certificate_3d": (["certificate"], CUBE),
    "certificate_8cube": (["certificate"], CUBE8),
    "convergence": (["convergence", "--levels", "2"], SQUARE),
    **{f"verify_{suite}": (["verify", "--suite", suite], SQUARE)
       for suite in ("lemma1", "maxprinciple", "substitution", "gradient")},
}


def report(name, tmp):
    """The report of run `name` without its timings and artifact list."""
    argv, edits = RUNS[name]
    text = (ROOT / "configs" / "benchmark.cfg").read_text()
    for old, new in edits.items():
        assert old in text, old
        text = text.replace(old, new)
    config = tmp / f"{name}.cfg"
    config.write_text(text)
    out = tmp / name
    main(argv + ["--config", str(config), "--out", str(out)])
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
        for name in sys.argv[1:] or RUNS:
            (GOLDEN / f"{name}.json").write_text(
                json.dumps(report(name, Path(tmp)), indent=2, sort_keys=True) + "\n")
