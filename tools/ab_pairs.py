"""Alternating-pair comparison of two checkouts on one benchmark workload.

    python3 tools/ab_pairs.py PARENT_DIR CHANGE_DIR --workload solve-n8 --seed 1 \
        --seconds 20 --pairs 10

Each pair runs `python3 perfbench/run.py --workload W --seed S --seconds T
--trace 0` once in each checkout, from its root, one after the other; the
parent runs first in even pairs and the change in odd ones.  The last
stdout line of a run is its JSON result.  For every end-to-end metric in
the parent's BENCHMARK.json this prints each side's median and quartiles,
how many pairs the change won (ties count for neither), whether the gap
between the medians exceeds the parent's interquartile range, and whether
the change's median stays within the metric's `bound` of the parent's (worse
by at most that fraction of the parent's median).  That verdict reads
"unresolved" when the parent's interquartile range is wider than `bound`
times its median, so the runs spread too widely to tell, unless every run
of the change is better than every run of the parent.  A run with a non-zero
`failed` count stops the comparison with exit status 1, so its metrics never
reach the medians, and so does a run that exits non-zero or prints no JSON
result: the tool then prints its exit code and the last lines of its stderr.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


STDERR_LINES = 10  # of an unreadable run's stderr, printed


class UnreadableRun(Exception):
    """A run that exited non-zero or printed no JSON result."""


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if proc.returncode == 0 and isinstance(result, dict):
        return result
    tail = "\n".join(proc.stderr.splitlines()[-STDERR_LINES:])
    raise UnreadableRun(f"exit code {proc.returncode}, no result read; its stderr ends:\n{tail}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("quartiles need at least 2 pairs")
    spec = json.loads((args.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    sides = {"parent": args.parent, "change": args.change}
    values: dict[str, dict[str, list[float]]] = {side: {m: [] for m in better} for side in sides}
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            try:
                result = run_once(sides[side], args.workload, args.seed, args.seconds)
            except UnreadableRun as exc:
                print(f"pair {pair} {side}: {exc}")
                return 1
            if result["failed"]:
                print(f"pair {pair} {side}: failed {result['failed']} of {result['attempted']}")
                return 1
            for name in better:
                values[side][name].append(result["metrics"][name]["value"])
        print(f"pair {pair}: wall_s parent {values['parent']['wall_s'][-1]:.4g}, "
              f"change {values['change']['wall_s'][-1]:.4g}", flush=True)
    print(f"{args.workload} seed {args.seed}, {args.pairs} pairs of {args.seconds} s runs")
    for name, direction in better.items():
        parent, change = values["parent"][name], values["change"][name]
        sign = 1.0 if direction == "lower" else -1.0
        wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
        p1, p2, p3 = statistics.quantiles(parent, n=4, method="inclusive")
        c1, c2, c3 = statistics.quantiles(change, n=4, method="inclusive")
        clear = sign * (c2 - p2) < 0 and abs(c2 - p2) > p3 - p1
        within = sign * (c2 - p2) <= bounds[name] * abs(p2)
        unresolved = (p3 - p1 > bounds[name] * abs(p2)
                      and max(sign * c for c in change) >= min(sign * p for p in parent))
        verdict = "unresolved" if unresolved else "yes" if within else "no"
        print(f"{name:12s} parent {p2:.4g} [{p1:.4g}, {p3:.4g}]  change {c2:.4g} "
              f"[{c1:.4g}, {c3:.4g}]  {c2 / p2 - 1:+.1%}  change wins {wins}/{args.pairs}"
              f"  gap beyond parent IQR: {'yes' if clear else 'no'}"
              f"  within bound {bounds[name]:g}: {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
