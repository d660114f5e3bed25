#!/usr/bin/env python3
"""Run the benchmark once per seed and report each metric's run-to-run spread.

    python3 perfbench/steadiness.py --workload NAME --seeds 1-10 [--trace 0|1]

Each run is a separate `run.py` process with BENCHMARK.json's run_seconds,
run one after another.  For every metric it prints the median, the first and
third quartiles (statistics.quantiles, n=4) and the quartile distance as a
share of the median, next to the metric's bound.  Metric values per seed are
appended as JSON lines to .perfbench/steadiness.jsonl.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

from aggregate import quartiles, spread

ROOT = Path(__file__).resolve().parents[1]


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}

    values: dict[str, list[float]] = {}
    log = ROOT / ".perfbench" / "steadiness.jsonl"
    log.parent.mkdir(exist_ok=True)
    for seed in parse_seeds(args.seeds):
        cmd = [
            sys.executable, str(ROOT / "perfbench" / "run.py"),
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace),
        ]
        start = time.perf_counter()
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        wall = time.perf_counter() - start
        if out.returncode != 0:
            print(out.stdout + out.stderr, file=sys.stderr)
            return 1
        result = json.loads(out.stdout.strip().splitlines()[-1])
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        with log.open("a") as fh:
            fh.write(json.dumps({"workload": args.workload, "seed": seed,
                                 "trace": args.trace, "correct": result["correct"],
                                 "metrics": metrics}) + "\n")
        print(f"seed {seed}: wall={wall:.1f}s correct={result['correct']} "
              + " ".join(f"{k}={v:.5g}" for k, v in metrics.items()), flush=True)
        for name, value in metrics.items():
            values.setdefault(name, []).append(value)

    print(f"{'metric':48s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    for name, vals in values.items():
        q1, q2, q3 = quartiles(vals)
        bound = bounds.get(name)
        print(f"{name:48s} {q2:12.6g} {q1:12.6g} {q3:12.6g} {spread(vals):8.4f} "
              f"{'' if bound is None else bound:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
