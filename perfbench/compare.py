"""Collect run sets and compare a parent commit's runs with a change's.

Usage (from the repository root)::

    # ten runs of one workload, one seed each, appended to a JSONL file
    python3 perfbench/compare.py collect --workload query --seeds 1-10 \\
        --out parent.jsonl

    # spread of each end-to-end metric within one run set
    python3 perfbench/compare.py spread parent.jsonl

    # parent against change; --claim names metrics claimed to improve
    python3 perfbench/compare.py compare parent.jsonl change.jsonl \\
        --claim query:qps

For every workload and end-to-end metric, ``compare`` prints each side's
median and quartiles and a verdict: ``worse`` when the change's median
is worse than the parent's by more than the metric's bound in
``BENCHMARK.json``; ``unresolved`` when the parent's own spread is wider
than that bound (unless every change run beats every parent run); ``ok``
otherwise.  A claimed metric is ``gain`` only when the change wins at
least nine tenths of the pairs (runs paired in collection order, ties
counting for neither) and the medians differ by more than the parent's
interquartile distance.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Sequence

import arith
from metrics import SPEC

ROOT = Path(__file__).resolve().parent.parent


def is_better(a: float, b: float, better: str) -> bool:
    """True when ``a`` is strictly better than ``b``."""
    return a > b if better == "higher" else a < b


def verdict(
    parent: Sequence[float], change: Sequence[float], better: str, bound: float
) -> str:
    """``worse``, ``unresolved`` or ``ok`` for one metric on one workload."""
    _, parent_median, _ = arith.quartiles(parent)
    _, change_median, _ = arith.quartiles(change)
    limit = abs(parent_median) * bound
    if better == "higher":
        worse = change_median < parent_median - limit
    else:
        worse = change_median > parent_median + limit
    if worse:
        return "worse"
    if arith.spread(parent) > bound and not all(
        is_better(c, p, better) for c in change for p in parent
    ):
        return "unresolved"
    return "ok"


def claimed_gain(
    parent: Sequence[float], change: Sequence[float], better: str
) -> bool:
    """The gain rule: the change wins >= 9/10 of the pairs and the
    medians differ by more than the parent's interquartile distance."""
    pairs = list(zip(parent, change))
    if not pairs:
        return False
    wins = sum(1 for p, c in pairs if is_better(c, p, better))
    q1, parent_median, q3 = arith.quartiles(parent)
    _, change_median, _ = arith.quartiles(change)
    return (
        wins >= 0.9 * len(pairs)
        and is_better(change_median, parent_median, better)
        and abs(change_median - parent_median) > q3 - q1
    )


def read_runs(path: Path) -> dict[str, dict[str, list[float]]]:
    """workload -> metric -> values, in collection order."""
    runs: dict[str, dict[str, list[float]]] = {}
    for line in path.read_text().splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        metrics = runs.setdefault(record["workload"], {})
        result = record["result"]
        if not result["correct"]:
            raise SystemExit(
                f"{path}: seed {record['seed']} of {record['workload']} failed "
                "its correctness check"
            )
        for name, metric in result["metrics"].items():
            metrics.setdefault(name, []).append(metric["value"])
    return runs


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(seed) for seed in text.split(",")]


def cmd_collect(args: argparse.Namespace) -> int:
    with open(args.out, "a", encoding="utf-8") as out:
        for seed in parse_seeds(args.seeds):
            command = SPEC["command"] + [
                "--workload", args.workload, "--seed", str(seed),
                "--seconds", str(SPEC["run_seconds"]), "--trace", "0",
            ]
            command[0] = sys.executable if command[0] == "python3" else command[0]
            completed = subprocess.run(
                command, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False
            )
            lines = completed.stdout.strip().splitlines()
            if completed.returncode != 0 or not lines:
                print(f"seed {seed}: exit {completed.returncode}", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            out.write(json.dumps(
                {"workload": args.workload, "seed": seed, "result": result}
            ) + "\n")
            out.flush()
            print(f"{args.workload} seed {seed}: ok", file=sys.stderr)
    return 0


def cmd_spread(args: argparse.Namespace) -> int:
    unsteady = 0
    for path in args.runs:
        for workload, metrics in read_runs(Path(path)).items():
            print(f"== {workload} ({path})")
            for metric in SPEC["end_to_end"]:
                values = metrics.get(metric["name"])
                if not values:
                    continue
                q1, median, q3 = arith.quartiles(values)
                share = arith.spread(values)
                flag = ""
                if metric["name"] != "setup_s" and share > metric["bound"] / 3:
                    flag = "  UNSTEADY (> bound/3)"
                    unsteady += 1
                print(
                    f"  {metric['name']:26s} n={len(values):2d} median={median:.6g} "
                    f"q1={q1:.6g} q3={q3:.6g} spread={share:.4f} "
                    f"bound={metric['bound']}{flag}"
                )
    return 1 if unsteady else 0


def cmd_compare(args: argparse.Namespace) -> int:
    parent_runs = read_runs(Path(args.parent))
    change_runs = read_runs(Path(args.change))
    claims = {tuple(claim.split(":", 1)) for claim in args.claim}
    regressions = 0
    for workload in sorted(set(parent_runs) & set(change_runs)):
        print(f"== {workload}")
        for metric in SPEC["end_to_end"]:
            name = metric["name"]
            parent = parent_runs[workload].get(name)
            change = change_runs[workload].get(name)
            if not parent or not change:
                continue
            p1, pm, p3 = arith.quartiles(parent)
            c1, cm, c3 = arith.quartiles(change)
            outcome = verdict(parent, change, metric["better"], metric["bound"])
            regressions += outcome == "worse"
            if (workload, name) in claims:
                outcome += ", claimed: " + (
                    "gain" if claimed_gain(parent, change, metric["better"])
                    else "not shown"
                )
            print(
                f"  {name:26s} parent {pm:.6g} [{p1:.6g}, {p3:.6g}]  "
                f"change {cm:.6g} [{c1:.6g}, {c3:.6g}]  {outcome}"
            )
    return 1 if regressions else 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)
    collect = commands.add_parser("collect", help="run seeds into a JSONL file")
    collect.add_argument("--workload", required=True)
    collect.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    collect.add_argument("--out", required=True)
    collect.set_defaults(handler=cmd_collect)
    spread = commands.add_parser("spread", help="spread within run sets")
    spread.add_argument("runs", nargs="+")
    spread.set_defaults(handler=cmd_spread)
    compare = commands.add_parser("compare", help="parent runs vs change runs")
    compare.add_argument("parent")
    compare.add_argument("change")
    compare.add_argument("--claim", action="append", default=[],
                         metavar="WORKLOAD:METRIC")
    compare.set_defaults(handler=cmd_compare)
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
