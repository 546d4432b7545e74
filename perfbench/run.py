"""End-to-end benchmark of the thermopt CLI.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the program is imported from its src/.
Workloads (see workloads.py): optimize-pg, certify-3d. Each run starts
PROCESSES fresh interpreters one after another. Each imports ``thermopt.cli``,
runs the first op and then warm ops for its share of the given seconds.
Every op is one
``thermopt.cli.main`` call on a config file generated from the seed, and
every op's output is checked. The time metrics are rescaled to a reference
speed of the machine, measured in the same run (speed.py).

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it alternates traced and untraced ops and reports the
per-layer metrics of tracer.py. Human-readable lines come first; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import speed
import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
REFERENCE_FILE = HERE / "reference.json"
# Worker processes of one run, one after another. Each gives a set-up sample
# and a first-op sample, and runs warm ops for its share of the run's
# seconds, so that the samples of each kind spread over the whole run and a
# slow spell of the shared machine hits only some of them.
PROCESSES = 4
DEADLINE_S = 170.0        # a run must end within 180 s

END_TO_END = {
    "op_s_p50": "s",
    "ops_per_min": "1/min",
    "setup_s": "s",
    "first_op_s": "s",
    "peak_rss_mb": "MB",
    "pass_ratio": "ratio",
}


class BenchmarkError(Exception):
    """The benchmark itself could not run (as opposed to an op failing)."""


def worker_env() -> dict:
    """Environment of every workload process: BLAS threads pinned to the
    cores this process may use. (worker.py puts the checkout's src/ first on
    its own path.)"""
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    env.update(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads, PYTHONHASHSEED="0")
    return env


def launch(spec: dict, deadline: float) -> tuple[float, dict]:
    """Run a worker on spec; return (seconds until it printed `ready`, result)."""
    spec_path = Path(spec["workdir"]) / "spec.json"
    spec_path.write_text(json.dumps(spec))
    args = [str(spec_path)]
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args],
                          stdout=subprocess.PIPE, text=True, env=worker_env(),
                          cwd=ROOT) as proc:
        try:
            line = proc.stdout.readline()
            ready_s = time.perf_counter() - t0
            proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchmarkError(f"worker {args} passed the deadline")
    if line.strip() != "ready":
        raise BenchmarkError(f"worker {args} ended before importing thermopt.cli "
                             f"(exit code {proc.returncode})")
    if proc.returncode != 0:
        raise BenchmarkError(f"worker {args} exited with code {proc.returncode}")
    with open(spec["result"]) as fh:
        return ready_s, json.load(fh)


def load_reference(workload: workloads.Workload, seed: int) -> list[dict]:
    """Stored outputs of the ops of this run that share the default seed's
    inputs: all stored ops at the default seed, else op 0 only. A workload
    that is not one of the benchmark's own (the self-test's) has none."""
    with open(REFERENCE_FILE) as fh:
        stored = json.load(fh).get(workload.name)
    if stored is None and workload.name not in workloads.WORKLOADS:
        return []
    if stored is None or stored["workload"] != workloads.reference_key(workload):
        raise BenchmarkError(f"{REFERENCE_FILE.name} holds no reference for the "
                             f"current definition of {workload.name}; "
                             "regenerate it with make_reference.py")
    return stored["ops"] if seed == workloads.DEFAULT_SEED else stored["ops"][:1]


def run_workload(workload: workloads.Workload, seed: int, seconds: float,
                 trace: bool) -> dict:
    """Run one workload in fresh processes, one after another, each with an
    equal share of the seconds; return their results combined."""
    if not (ROOT / "src" / "thermopt" / "cli.py").is_file():
        raise BenchmarkError(f"no thermopt sources under {ROOT / 'src'}")
    reference = load_reference(workload, seed)
    deadline = time.perf_counter() + DEADLINE_S
    OUT_DIR.mkdir(exist_ok=True)
    rundir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT_DIR))
    setup, results, first_k = [], [], 1
    try:
        for i in range(PROCESSES):
            workdir = rundir / f"process{i}"
            workdir.mkdir()
            spec = {
                "workload": workloads.to_dict(workload),
                "seed": seed,
                "seconds": seconds / PROCESSES,
                "first_k": first_k,
                "trace": trace,
                "workdir": str(workdir),
                "result": str(workdir / "result.json"),
                "spans_file": str(OUT_DIR / f"spans-{workload.name}-seed{seed}-p{i}.json"),
                "reference": reference,
            }
            ready_s, result = launch(spec, deadline)
            setup.append(ready_s)
            results.append(result)
            first_k = result["ops"][-1]["k"] + 1
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    return combine(results, setup)


def combine(results: list[dict], setup: list[float]) -> dict:
    """One run's result from its processes' results and set-up times. Each
    op and set-up time also gets its time at the reference speed (speed.py),
    from the median of the kernel times measured in the run."""
    ops = [op for result in results for op in result["ops"]]
    kernel_s = statistics.median(t for result in results for t in result["kernel_s"])
    for op in ops:
        op["ref_s"] = speed.at_reference_speed(op["seconds"], kernel_s)
    combined = {
        "first_ops": [result["ops"][0] for result in results],
        "warm_ops": [op for result in results for op in result["ops"][1:]],
        "all_ops": ops,
        "peak_rss_mb": max(result["peak_rss_mb"] for result in results),
        "setup_samples": setup,
        "setup_ref_s": [speed.at_reference_speed(s, kernel_s) for s in setup],
        "kernel_s": kernel_s,
        "machine": results[0]["machine"],
    }
    layer_ops = [op for result in results for op in result["layer_ops"]]
    if layer_ops:
        warm = combined["warm_ops"]
        untraced = [op for op in warm if not op["traced"]]
        combined["layers"] = tracing.summarize(
            layer_ops,
            [op["seconds"] for op in warm if op["traced"]],
            [op["seconds"] for op in untraced],
            [op["cpu_s"] for op in untraced])
        combined["layers"].update({
            "proc.op_wall_s_p50": statistics.median(op["seconds"] for op in untraced),
            "proc.kernel_s": kernel_s,
        })
    return combined


def end_to_end(result: dict) -> dict:
    """The end-to-end metrics; every time in them is at the reference speed."""
    warm = result["warm_ops"]
    passed_warm = [op["ref_s"] for op in warm if not op["failures"]]
    ops = result["all_ops"]
    return {
        "op_s_p50": statistics.median(passed_warm or [op["ref_s"] for op in warm]),
        "ops_per_min": 60.0 * len(passed_warm) / sum(op["ref_s"] for op in warm),
        "setup_s": statistics.median(result["setup_ref_s"]),
        "first_op_s": statistics.median(op["ref_s"] for op in result["first_ops"]),
        "peak_rss_mb": result["peak_rss_mb"],
        "pass_ratio": sum(not op["failures"] for op in ops) / len(ops),
    }


def report(workload: workloads.Workload, seed: int, trace: bool, result: dict) -> dict:
    """Print the readable lines and return the final JSON object."""
    ops = result["all_ops"]
    failed = [op for op in ops if op["failures"]]
    print(f"workload {workload.name} seed {seed} trace {int(trace)}: "
          f"{len(ops)} ops, {len(failed)} failed ({workload.why})")
    print("machine " + json.dumps(result["machine"], sort_keys=True))
    for op in ops:
        tag = " traced" if op["traced"] else " first" if op["k"] == 0 else ""
        status = "ok" if not op["failures"] else "FAIL " + "; ".join(op["failures"])
        print(f"  op {op['k']:3d}{tag} inputs {json.dumps(op['inputs'])} "
              f"{op['seconds']:.4f} s wall, {op['ref_s']:.4f} s at reference speed "
              f"{status}")
    e2e = end_to_end(result)
    print(f"  fail_ratio {len(failed) / len(ops):.4g} ratio")
    print(f"  speed kernel median {result['kernel_s']:.4f} s (reference "
          f"{speed.REFERENCE_S} s)")
    warm_wall = [op["seconds"] for op in result["warm_ops"]]
    for key, samples in (("setup wall", result["setup_samples"]),
                         ("setup at reference speed", result["setup_ref_s"]),
                         ("first op wall", [op["seconds"] for op in result["first_ops"]]),
                         ("warm op wall p50", [statistics.median(warm_wall)])):
        print(f"  {key} {', '.join(f'{s:.4f}' for s in samples)} s")
    if trace:
        names, units = result["layers"], tracing.METRICS
        accounted = sum(names[f"{layer}.self_s"] for layer in tracing.LAYERS + ("scipy",))
        op_s = names["trace.op_s"]
        print(f"  layer self times account for {accounted:.4f} s of the "
              f"{op_s:.4f} s traced op; unaccounted {names['trace.unaccounted_s']:.4f} s; "
              f"tracing overhead {names['trace.overhead_s']:.4f} s per op")
    else:
        names, units = e2e, END_TO_END
    for name in units:
        print(f"  {name} {names[name]:.6g} {units[name]}")
    return {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": names[name], "unit": units[name]} for name in units},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=34.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    try:
        result = run_workload(workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(report(workload, args.seed, bool(args.trace), result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
