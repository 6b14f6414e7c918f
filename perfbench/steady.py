"""Steadiness of the benchmark: two sets of runs of every workload, alternated.

Run from the root of a checkout:

    python3 perfbench/steady.py --runs 5 --seconds 4 --out steady.json

Every run is untraced. Round i runs each workload once for set A (seed
2i+1) and once for set B (seed 2i+2), and swaps which set goes first every
round. For every workload and end-to-end metric it prints each set's median
and quartiles, the spread (quartile distance over the median) of each set and
of both together, and the drift of B's median from A's. Runs one benchmark
process at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


def run_once(workload: str, seed: int, seconds: int) -> dict:
    command = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(command, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def report(results: dict) -> list[str]:
    lines = []
    for workload, sets in results.items():
        lines.append(f"== {workload}: {len(sets['A'])} + {len(sets['B'])} runs")
        every = sets["A"] + sets["B"]
        shares = {round(r["failed"] / r["attempted"], 12) for r in every}
        lines.append(f"   correct in every run: {all(r['correct'] for r in every)}; failed share: {sorted(shares)}")
        lines.append(f"   {'metric':<20} {'A median [q1, q3]':>32} {'B median [q1, q3]':>32} "
                     f"{'spread A':>9} {'spread B':>9} {'spread':>7} {'drift':>7}")
        for metric in every[0]["metrics"]:
            a = [r["metrics"][metric]["value"] for r in sets["A"]]
            b = [r["metrics"][metric]["value"] for r in sets["B"]]
            qa, qb = quartiles(a), quartiles(b)
            drift = (qb[1] - qa[1]) / qa[1] if qa[1] else float("inf")
            lines.append(
                f"   {metric:<20} {qa[1]:>11.5g} [{qa[0]:.5g}, {qa[2]:.5g}]".ljust(56)
                + f" {qb[1]:>11.5g} [{qb[0]:.5g}, {qb[2]:.5g}]".ljust(33)
                + f" {spread(a):>9.4f} {spread(b):>9.4f} {spread(a + b):>7.4f} {drift:>+7.4f}"
            )
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=5, help="runs per set and workload")
    parser.add_argument("--seconds", type=int, default=4)
    parser.add_argument("--out", help="also write every run's result line here as JSON")
    args = parser.parse_args(argv)
    results = {name: {"A": [], "B": []} for name in WORKLOADS}
    for i in range(args.runs):
        for name in WORKLOADS:
            order = ("A", "B") if i % 2 == 0 else ("B", "A")
            for which in order:
                seed = 2 * i + (1 if which == "A" else 2)
                results[name][which].append(run_once(name, seed, args.seconds))
                print(f"done {name} set {which} seed {seed}", file=sys.stderr, flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=1), encoding="utf-8")
    print("\n".join(report(results)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
