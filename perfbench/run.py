"""Time-to-verdict benchmark for faultcast's theorem schedules and the oracle.

    python3 perfbench/run.py --workload kn-dense --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all

Each workload is one process with one thread (BLAS pinned to 1) running its
configs one after another. ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` runs one untraced and one traced pass and reports the per-layer
metrics. The last line of standard output is a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the environment, every config's row and fingerprint, and each metric
with its unit and sample count. The metric catalogue and the prediction each
per-layer metric carries are in ``perfbench/metrics.py``.

The benchmark imports the program from ``src/`` next to this directory and
exits with code 2, printing no result, when that is missing.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("kn-dense", "qd-rounds", "sod-multiplex", "nosod-export", "oracle-k5")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _run_all(args) -> int:
    """Every workload in its own process; prints their lines and one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    src = ROOT / "src"
    if not (src / "faultcast" / "__init__.py").is_file():
        print(f"faultcast sources not found under {src}", file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = "1"  # before numpy is first imported
    if args.workload == "all":
        return _run_all(args)
    sys.path[:0] = [str(src), str(ROOT)]
    import faultcast
    if not Path(faultcast.__file__).resolve().is_relative_to(src.resolve()):
        print(f"imported faultcast from {faultcast.__file__}, not {src}", file=sys.stderr)
        return 2
    from perfbench.bench import measure
    from perfbench.workloads import FULL

    outcome = measure(ROOT, FULL[args.workload], args.seed, args.seconds, bool(args.trace))
    print("\n".join(outcome.lines))
    print(json.dumps(outcome.result()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
