#!/usr/bin/env python3
"""Run the benchmark on two source trees in alternating pairs and keep every run.

    python3 tools/bench_pairs.py --parent DIR --change DIR --workload NAME \\
        --seed N --pairs 10 [--seconds 30] --out BENCH_label.json

Each tree is a checkout holding `perfbench/` and `src/`; the runs are
`python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0`
from its root, one at a time. Pair i runs the parent first when i is odd
and the change first when i is even, so both orders are equally often
measured (`ensemble-drive-sweep` favours whichever side runs first).

The output file keeps, for every run, its pair, side and position, the last
JSON line of its stdout and its provenance line. Runs already in the file
are kept, so one file can collect several workloads and seeds (more pairs
of one continue its numbering). The summary (per workload, seed and
metric: quartiles of each side, pairs won by the change and the change of
the median; per workload and seed also each side's median count of
attempted ops, whose products the harness retains, so a `peak_rss_mb` move
can be read against it) is recomputed from all of them after every run.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from aggregate import median, quartiles  # noqa: E402

SIDES = ("parent", "change")


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run from a tree: its result line and its provenance."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(command, cwd=root, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(command)} in {root} failed:\n{out.stderr[-2000:]}")
    provenance = [json.loads(line.split(" ", 1)[1]) for line in lines if line.startswith("provenance ")]
    return {"result": json.loads(lines[-1]), "provenance": provenance[0] if provenance else None}


def summarize(runs: list[dict]) -> dict:
    """Per workload, seed and metric: each side's quartiles, the pairs the
    change won and the relative change of the median."""
    spec = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    better = {metric["name"]: metric["better"] for metric in spec["end_to_end"]}
    summary = {}
    for key in sorted({(r["workload"], r["seed"]) for r in runs}):
        group = [r for r in runs if (r["workload"], r["seed"]) == key]
        pairs = sorted({r["pair"] for r in group})
        value = {(r["pair"], r["side"]): r["result"]["metrics"] for r in group}
        entry = {}
        for name, direction in better.items():
            sides = {side: [value[p, side][name]["value"] for p in pairs if (p, side) in value] for side in SIDES}
            if not all(sides.values()):
                continue
            complete = [p for p in pairs if all((p, side) in value for side in SIDES)]
            sign = 1.0 if direction == "lower" else -1.0
            wins = sum(sign * (value[p, "change"][name]["value"] - value[p, "parent"][name]["value"]) < 0
                       for p in complete)
            (p1, p2, p3), (c1, c2, c3) = (quartiles(sides[side]) for side in SIDES)
            entry[name] = {
                "parent_q1_median_q3": [p1, p2, p3],
                "change_q1_median_q3": [c1, c2, c3],
                "change_wins": wins,
                "pairs": len(complete),
                "relative_change": (c2 - p2) / p2 if p2 else None,
            }
        # the ops a run retains the products of, against which to read a peak_rss_mb move
        attempted = {side: [r["result"]["attempted"] for r in group if r["side"] == side] for side in SIDES}
        entry["attempted_median"] = {side: median(ops) for side, ops in attempted.items() if ops}
        summary[f"{key[0]} seed {key[1]}"] = entry
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    report = json.loads(args.out.read_text()) if args.out.exists() else {"runs": []}
    report["what"] = ("End-to-end benchmark runs of two source trees in alternating pairs, written by "
                      "tools/bench_pairs.py: each run's last JSON line and provenance line of "
                      "`perfbench/run.py --trace 0`. Odd pairs run the parent first, even pairs the change.")
    done = [r["pair"] for r in report["runs"] if (r["workload"], r["seed"]) == (args.workload, args.seed)]
    first = max(done, default=0) + 1  # more pairs for a workload and seed continue its numbering
    for pair in range(first, first + args.pairs):
        order = SIDES if pair % 2 else SIDES[::-1]
        for position, side in enumerate(order, start=1):
            run = run_once(trees[side], args.workload, args.seed, args.seconds)
            report["runs"].append({"workload": args.workload, "seed": args.seed, "pair": pair,
                                   "side": side, "position": position, **run})
            op = run["result"]["metrics"]["op_s_mean"]["value"]
            print(f"{args.workload} seed {args.seed} pair {pair} {side}: op_s_mean {op:.4f}", flush=True)
            report["summary"] = summarize(report["runs"])
            args.out.write_text(json.dumps(report, indent=1) + "\n")  # after every run: none is lost
    return 0


if __name__ == "__main__":
    sys.exit(main())
