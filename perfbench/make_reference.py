"""Write reference.json: the checked outputs of the default seed's first ops.

    python3 perfbench/make_reference.py [--ops N] [--workload NAME ...]

Run from the root of a checkout. Each op runs as in a benchmark run
(worker.run_op). A benchmark run compares op 0, and at the default seed
every op that has a stored reference, against it (workloads.py sets the
tolerance). Regenerate only when a workload's definition changes, and
say why in the commit.
"""

import argparse
import json
import sys
import tempfile
from pathlib import Path

import worker
import workloads

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE.parent / ".perfbench_out"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ops", type=int, default=20)
    parser.add_argument("--workload", nargs="*", default=sorted(workloads.WORKLOADS))
    args = parser.parse_args(argv)
    sys.path.insert(0, str(HERE.parent / "src"))
    from thermopt.cli import main as cli_main

    path = HERE / "reference.json"
    stored = json.loads(path.read_text()) if path.is_file() else {}
    for name in args.workload:
        workload = workloads.WORKLOADS[name]
        ops = []
        OUT_DIR.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
            for k in range(args.ops):
                inputs = workloads.draw_inputs(workload, workloads.DEFAULT_SEED, k)
                record = worker.run_op(cli_main, workload, k, inputs, Path(tmp))
                if record["failures"]:
                    raise SystemExit(f"{name} op {k} {inputs}: {record['failures']}")
                ops.append({**inputs, **record["outputs"]})
                print(name, k, ops[-1], flush=True)
        stored[name] = {"workload": workloads.reference_key(workload), "ops": ops}
    path.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
