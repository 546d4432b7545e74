"""Fast self-test of the benchmark: every workload at a tiny size.

    python3 perfbench/selftest.py

Checks that a run of each workload, untraced and traced, emits every metric
that BENCHMARK.json declares with its unit, that an op whose report says
``converged: false`` counts as failed although the CLI exits 0, that
every run, whatever its seed, has stored reference outputs for its op 0, and
that a machine slower by the same factor for program and speed kernel gives
the same end-to-end times.
"""

import contextlib
import dataclasses
import io
import json
import sys
import tempfile
import unittest
from pathlib import Path
from unittest import mock

import run
import speed
import tracer
import worker
import workloads

TINY = {"optimize-pg": "8 8", "certify-3d": "4 4 4"}
# Projected gradient at a = 1 stalls on coarse meshes (NOTES.md, defect 3);
# at a = 0.1 the optimum is beta = 0 and it converges in two steps.
TINY_DRIVE = {"optimize-pg": 0.1}


def tiny(name: str) -> workloads.Workload:
    """The workload at a tiny size, under a name of its own (so with no
    stored reference outputs)."""
    workload = workloads.WORKLOADS[name]
    return dataclasses.replace(workload, name=f"{name}-tiny", divisions=TINY[name],
                               a_centre=TINY_DRIVE.get(name, workload.a_centre))


def run_quietly(workload, trace):
    with mock.patch.object(run, "PROCESSES", 2):
        result = run.run_workload(workload, seed=3, seconds=0.2, trace=trace)
    with contextlib.redirect_stdout(io.StringIO()):
        return result, run.report(workload, 3, trace, result)


class SelfTest(unittest.TestCase):
    def test_every_metric_is_emitted_with_its_unit(self):
        declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(set(TINY), {w["name"] for w in declared["workloads"]})
        for trace, key, units in ((False, "end_to_end", run.END_TO_END),
                                  (True, "per_layer", tracer.METRICS)):
            want = {m["name"]: m["unit"] for m in declared[key]}
            self.assertEqual(want, units)
            for name in TINY:
                with self.subTest(workload=name, trace=trace):
                    _, out = run_quietly(tiny(name), trace)
                    self.assertEqual(out["failed"], 0)
                    self.assertTrue(out["correct"])
                    got = {m: v["unit"] for m, v in out["metrics"].items()}
                    self.assertEqual(got, want)
                    for metric in out["metrics"].values():
                        self.assertIsInstance(metric["value"], (int, float))

    def test_unconverged_optimizer_counts_as_failed(self):
        sys.path.insert(0, str(run.ROOT / "src"))
        from thermopt.cli import main as cli_main

        def capped_cli(argv):
            """The CLI on the op's config with the optimizer cut to one step."""
            cfg = Path(argv[argv.index("--config") + 1])
            cfg.write_text(cfg.read_text() + "optimizer.max_outer = 1\n")
            return cli_main(argv)

        workload = tiny("optimize-pg")
        run.OUT_DIR.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as tmp:
            spec = {"workload": workloads.to_dict(workload), "seed": 3, "seconds": 0.2,
                    "first_k": 1, "trace": False, "workdir": tmp, "reference": []}
            result = run.combine([worker.run(spec, capped_cli)], [1.0])
        with contextlib.redirect_stdout(io.StringIO()):
            out = run.report(workload, 3, False, result)
        self.assertGreaterEqual(out["attempted"], 2)
        self.assertEqual(out["failed"], out["attempted"])
        self.assertFalse(out["correct"])
        self.assertEqual(out["metrics"]["pass_ratio"]["value"], 0.0)
        self.assertIn("optimizer did not converge", result["first_ops"][0]["failures"])

    def test_reference_covers_op_0_of_every_seed(self):
        for name, workload in workloads.WORKLOADS.items():
            with self.subTest(workload=name):
                self.assertEqual(len(run.load_reference(workload, 5)), 1)
                self.assertEqual(len(run.load_reference(workload, workloads.DEFAULT_SEED)), 20)
                ref = run.load_reference(workload, 5)[0]
                inputs = workloads.draw_inputs(workload, 5, 0)
                self.assertEqual((ref["a"], ref["beta"]), (inputs["a"], inputs["beta"]))
                changed = dataclasses.replace(workload, a_centre=2 * workload.a_centre)
                with self.assertRaises(run.BenchmarkError):
                    run.load_reference(changed, 5)

    def test_a_uniformly_slower_machine_leaves_the_times_unchanged(self):
        def results(slowdown):
            return [{"ops": [{"k": k, "seconds": slowdown * (2.0 + 0.1 * k + p),
                              "failures": [], "traced": False}
                             for k in (0, 2 * p + 1, 2 * p + 2)],
                     "kernel_s": [slowdown * 0.15, slowdown * 0.17],
                     "peak_rss_mb": 90.0, "machine": {}, "layer_ops": []}
                    for p in range(3)]

        quiet = run.end_to_end(run.combine(results(1.0), [0.8, 0.9, 1.0]))
        busy = run.end_to_end(run.combine(results(1.5), [1.2, 1.35, 1.5]))
        for name in quiet:
            self.assertAlmostEqual(quiet[name], busy[name], msg=name)
        self.assertAlmostEqual(quiet["setup_s"], 0.9 * speed.REFERENCE_S / 0.16)

    def test_reference_mismatch_fails_the_op(self):
        report = {"state": {"max_u": 0.5, "residual_u": 0.0, "residual_phi": 0.0,
                            "truncation_level": 0.9},
                  "optimizer": {"converged": True, "status": "converged",
                                "optimality_residual": 0.0, "J": 1.0}}
        workload = workloads.WORKLOADS["optimize-pg"]
        self.assertEqual(workloads.check_op(workload, 0, report,
                                            {"a": 1.0, "beta": 1.0, "J": 1.0}), [])
        failures = workloads.check_op(workload, 0, report,
                                      {"a": 1.0, "beta": 1.0, "J": 1.0 + 1e-5})
        self.assertEqual(len(failures), 1)

    def test_inputs_depend_only_on_seed(self):
        for workload in workloads.WORKLOADS.values():
            first = [workloads.draw_inputs(workload, 7, k) for k in range(20)]
            again = [workloads.draw_inputs(workload, 7, k) for k in range(20)]
            other = [workloads.draw_inputs(workload, 8, k) for k in range(20)]
            self.assertEqual(first, again)
            self.assertNotEqual(first, other)
            for inputs in first:
                for key, centre in (("a", workload.a_centre), ("beta", workload.beta_centre)):
                    self.assertLessEqual(abs(inputs[key] / centre - 1.0), workloads.SPREAD)


if __name__ == "__main__":
    unittest.main()
