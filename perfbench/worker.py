"""One process of a workload run (started by run.py).

    python3 perfbench/worker.py SPEC.json

The worker imports ``thermopt.cli`` and then prints ``ready``, so the parent
can time interpreter launch plus import. It then runs op 0, the first op in
the fresh process, and after it, as a closed loop with one client, warm ops
numbered from the spec's ``first_k`` until the spec's seconds have passed.
It times the machine's speed kernel (speed.py) before the first op and after
every op. In a traced run the warm ops alternate between traced and
untraced. The result goes to the JSON file named in the spec.
"""

import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

import speed
import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parents[1]


def main(argv) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import thermopt.cli

    print("ready", flush=True)
    if Path(thermopt.cli.__file__).resolve().parent != ROOT / "src" / "thermopt":
        print(f"imported thermopt from {thermopt.cli.__file__}, not from the "
              "checkout's src/", file=sys.stderr)
        return 2
    with open(argv[0]) as fh:
        spec = json.load(fh)
    result = run(spec, thermopt.cli.main)
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0


def run(spec: dict, cli_main) -> dict:
    workload = workloads.from_dict(spec["workload"])
    seed, seconds, traced_run = spec["seed"], spec["seconds"], spec["trace"]
    reference = spec.get("reference") or []
    tracer = tracing.Tracer() if traced_run else None
    ops, layer_ops, spans_out = [], [], []
    kernel_s = [speed.calibrate()]

    def one_op(k, traced):
        inputs = workloads.draw_inputs(workload, seed, k)
        ref = reference[k] if k < len(reference) else None
        if ref is not None and (ref["a"], ref["beta"]) != (inputs["a"], inputs["beta"]):
            raise SystemExit(f"reference op {k} was made for other inputs: "
                             f"{ref} vs {inputs}")
        ops.append(run_op(cli_main, workload, k, inputs, Path(spec["workdir"]),
                          tracer if traced else None, ref))
        kernel_s.append(speed.calibrate())
        if traced:
            layer_ops.append(tracing.op_metrics(tracer.spans, tracer.counters))
            spans_out.append({"k": k, "spans": tracer.spans})

    one_op(0, False)
    start = time.perf_counter()
    k = spec["first_k"]
    while True:
        one_op(k, traced_run and k % 2 == 1)
        k += 1
        # Stop when the next op would more likely end after the seconds than
        # before them, so that a run lasts about as long as asked.
        kinds = {op["traced"] for op in ops[1:]}
        remaining = seconds - (time.perf_counter() - start)
        if remaining <= ops[-1]["seconds"] / 2 and (not traced_run or len(kinds) == 2):
            break
    if traced_run:
        with open(spec["spans_file"], "w") as fh:
            json.dump({"workload": workload.name, "seed": seed,
                       "fields": ["name", "start", "end", "parent"],
                       "ops": spans_out}, fh)
    return {
        "ops": ops,
        "kernel_s": kernel_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "machine": machine_facts(),
        "layer_ops": layer_ops,
    }


def run_op(cli_main, workload, k: int, inputs: dict, workdir: Path,
           tracer=None, ref: dict | None = None) -> dict:
    """Run op k on its generated config in a fresh directory under workdir,
    check its output and return its record; the directory is removed."""
    opdir = workdir / f"op{k}"
    opdir.mkdir()
    cfg = opdir / "run.cfg"
    cfg.write_text(workloads.config_text(workload, inputs))
    outdir = opdir / "out"
    argv = [workload.command, "--config", str(cfg), "--out", str(outdir)]
    record = {"k": k, "inputs": inputs, "traced": tracer is not None}
    try:
        code, record["seconds"], record["cpu_s"] = _timed_call(cli_main, argv, tracer)
    except Exception as exc:  # an op that raises is a failed op, not a crash
        code, record["seconds"], record["cpu_s"] = f"raised {exc!r}", 0.0, 0.0
    report = None
    if (outdir / "report.json").is_file():
        with open(outdir / "report.json") as fh:
            report = json.load(fh)
    record["failures"] = workloads.check_op(workload, code, report, ref)
    record["outputs"] = (workloads.outputs(report)
                         if report and not record["failures"] else {})
    shutil.rmtree(opdir)
    return record


def _timed_call(cli_main, argv, tracer):
    """Exit code, wall seconds and process CPU seconds of one CLI call, with
    the CLI's own printing captured."""
    sink = io.StringIO()
    if tracer is not None:
        tracer.reset()
        tracer.install()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            cpu0, t0 = time.process_time(), time.perf_counter()
            if tracer is not None:
                code = tracer.call(tracing.ROOT_SPAN, cli_main, argv)
            else:
                code = cli_main(argv)
            wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
    finally:
        if tracer is not None:
            tracer.uninstall()
    return code, wall, cpu


def machine_facts() -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "machine": platform.machine(),
    }


def _blas_threads() -> dict:
    """Thread count reported by each OpenBLAS loaded in this process."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line and line.rstrip().endswith(".so")})
    except OSError:
        return {}
    counts = {}
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                counts[Path(lib).name] = fn()
                break
    return counts


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
