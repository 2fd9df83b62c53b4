#!/usr/bin/env python3
"""Paired benchmark runs of two checkouts, summarized per metric.

    python3 scripts/paired_bench.py --parent ../before --change . \\
        --workload milnor-normal --pairs 10 --seconds 40 --seed 3001 --out BENCH.json

Pair k runs ``perfbench/run.py --workload W --seed S+k --seconds T --trace 0``
once in each checkout, one after the other, and alternates which of the two
goes first.  Each run's last stdout line is its JSON result.  The output file
holds, per workload, every pair's values and, per metric, the median and
quartiles of each side, the ratio of the medians and the number of pairs the
change won; a metric's direction ("better": "higher" or "lower") comes from
the ``BENCHMARK.json`` of the change checkout, and a metric it does not list
gets no win count.  Quartiles are ``statistics.quantiles(..., n=4,
method="inclusive")``.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path


def parse_result(stdout: str) -> dict:
    """The JSON object on the last nonblank line of a run's output."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("run printed nothing")
    return json.loads(lines[-1])


def directions(benchmark: dict) -> dict:
    """Metric name -> "higher" or "lower", from a BENCHMARK.json object."""
    out = {}
    for group in ("end_to_end", "per_layer"):
        for metric in benchmark.get(group, []):
            out[metric["name"]] = metric["better"]
    return out


def quartiles(values: list) -> list:
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def summarize(pairs: list, better: dict) -> dict:
    """Per-metric summary of pairs, each {"parent": result, "change": result}."""
    names = sorted(set.intersection(*(
        set(pair[side]["metrics"]) for pair in pairs for side in ("parent", "change")
    )))
    summary = {}
    for name in names:
        parent = [pair["parent"]["metrics"][name]["value"] for pair in pairs]
        change = [pair["change"]["metrics"][name]["value"] for pair in pairs]
        pq, cq = quartiles(parent), quartiles(change)
        row = {
            "unit": pairs[0]["parent"]["metrics"][name]["unit"],
            "parent": {"q1": pq[0], "median": pq[1], "q3": pq[2]},
            "change": {"q1": cq[0], "median": cq[1], "q3": cq[2]},
            "ratio_of_medians": cq[1] / pq[1] if pq[1] else None,
            "better": better.get(name),
            "wins": None,
            "pairs": len(pairs),
        }
        if name in better:
            sign = 1 if better[name] == "higher" else -1
            row["wins"] = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
        summary[name] = row
    return summary


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    result = parse_result(done.stdout)
    result["exit_code"] = done.returncode
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout before the change")
    parser.add_argument("--change", type=Path, required=True, help="checkout with the change")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    better = directions(json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8")))
    report = {"python": platform.python_version(), "seconds": args.seconds, "workloads": {}}
    for workload in args.workload:
        pairs = []
        for k in range(args.pairs):
            seed = args.seed + k
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_once(getattr(args, side), workload, seed, args.seconds)
            pairs.append(pair)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{side} solved_per_s {pair[side]['metrics']['solved_per_s']['value']:.1f}"
                for side in ("parent", "change") if "solved_per_s" in pair[side]["metrics"]
            ), flush=True)
        report["workloads"][workload] = {
            "all_correct": all(pair[side]["correct"] and pair[side]["exit_code"] == 0
                               for pair in pairs for side in ("parent", "change")),
            "summary": summarize(pairs, better),
            "runs": [
                {"seed": pair["seed"], "first": pair["first"],
                 **{side: {k: v["value"] for k, v in pair[side]["metrics"].items()}
                    for side in ("parent", "change")}}
                for pair in pairs
            ],
        }
    args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
