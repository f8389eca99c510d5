"""Run one workload of the CPU-cost benchmark and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload query --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer split.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--workload all`` runs every workload in its own process and prints
one table.  See ``perfbench/README.md`` for what each workload
measures and why.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("build", "query", "query-super", "serve")
#: Scratch space for stores, snapshots and span dumps, inside the
#: checkout (listed in ``.gitignore``).
WORK_ROOT = ROOT / ".perfbench"


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_all(args: argparse.Namespace) -> int:
    """Run each workload in a fresh process and print one table."""
    rows = []
    for workload in WORKLOADS:
        completed = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = completed.stdout.strip().splitlines()
        if completed.returncode != 0 or not lines:
            print(f"{workload}: failed (exit {completed.returncode})", file=sys.stderr)
            return 1
        rows.append((workload, json.loads(lines[-1])))
    for workload, result in rows:
        print(
            f"== {workload}: correct={result['correct']} "
            f"attempted={result['attempted']} failed={result['failed']}"
        )
        for name, metric in result["metrics"].items():
            print(f"  {name:32s} {metric['value']:14.4f} {metric['unit']}")
    print(json.dumps({workload: result for workload, result in rows}))
    return 0


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"error: no program to measure: {ROOT / 'src' / 'repro'} is missing",
            file=sys.stderr,
        )
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be > 0", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(ROOT / "src"))

    import workloads  # needs repro on the path

    work = WORK_ROOT / f"work-{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        outcome = workloads.run(
            args.workload, args.seed, args.seconds, bool(args.trace), work,
            WORK_ROOT / f"spans-{args.workload}.tsv",
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(outcome))
    return 0 if outcome["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
