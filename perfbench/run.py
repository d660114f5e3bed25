#!/usr/bin/env python3
"""Run one benchmark workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source tree (it imports `src/qsysid`, never an
installed copy).  The load is a closed loop from one process: each operation
starts when the previous one and its output checks have finished.  BLAS and
OpenMP are pinned to one thread before numpy loads.

With --trace 0 the end-to-end metrics of BENCHMARK.json are measured with no
hooks installed.  Between ops the runner starts fresh interpreters that
import the package, parse the workload config and build the model (setup_s
is their median wall time), and times the fixed kernels of speed.py that do
the kinds of work the workload's op does.  Every end-to-end time and rate is
given in reference seconds: the wall-clock numbers rescaled by the run's mean
kernel time (see speed.py), so that the machine's slow and fast periods do
not move them.  The wall-clock numbers are printed too.

With --trace 1 every operation runs twice on the same inputs, plain and then
with the hooks of workloads.HOOKS installed; the per-layer metrics come from
the traced runs, and the "trace." metrics are the traced minus the plain
wall-clock numbers.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  Provenance, check details and (traced) spans are also
written to .perfbench/ under the source tree.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from aggregate import median
from tracing import Tracer

BLAS_THREADS = "1"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
ROOT = Path(__file__).resolve().parents[1]
BENCH = Path(__file__).resolve().parent
SRC = ROOT / "src"
SETUP_SAMPLES = 5    # timed set-ups per run, after one untimed warm-up
SPEED_SAMPLES = 30   # timed speed-gauge calls per run, after one untimed warm-up


def parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def tree_digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.rglob("*.py")):
        h.update(str(path.relative_to(directory)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:12]


def git_commit() -> str | None:
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def blas_library() -> str:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    return f"{blas.get('name')} {blas.get('version')}"


class Sampler:
    """Times a fixed task at moments spread evenly over a run.

    Calling it with the share of the run that has passed runs the task as
    many times as are due by then; the call made at construction is an
    untimed warm-up.  `times` and `results` hold the timed calls' wall times
    and return values.
    """

    def __init__(self, task, samples: int):
        self.task = task
        self.samples = samples
        self.times: list[float] = []
        self.results: list = []
        self._once()
        self.times.clear()
        self.results.clear()

    def _once(self) -> None:
        start = time.perf_counter()
        self.results.append(self.task())
        self.times.append(time.perf_counter() - start)

    def __call__(self, share: float) -> None:
        due = min(self.samples, int(share * self.samples) + 1)
        while len(self.times) < due:
            self._once()


def setup_sampler(config_path: Path) -> Sampler:
    """Times fresh `probe.py` interpreters: the set-up every CLI call pays."""
    cmd = [sys.executable, str(BENCH / "probe.py"), str(config_path)]
    # no timeout: with one, subprocess polls the child in 50 ms sleeps
    return Sampler(lambda: subprocess.run(cmd, check=True, cwd=ROOT), SETUP_SAMPLES)


@dataclass
class OpRecord:
    """Timing and verdict of one executed operation."""

    label: str
    seconds: float
    outcome: object = None
    problem: str | None = None


def execute(op, tracer=None) -> OpRecord:
    """Run one op (timed, with the tracer's hooks installed if given), then
    its checks (untimed)."""
    from qsysid.errors import QsysidError
    from workloads import CheckFailed

    start = time.perf_counter()
    try:
        with tracer if tracer is not None else contextlib.nullcontext():
            start = time.perf_counter()
            raw = op.run()
            seconds = time.perf_counter() - start
    except QsysidError as exc:
        return OpRecord(op.label, time.perf_counter() - start,
                        problem=f"{type(exc).__name__}: {exc}")
    try:
        return OpRecord(op.label, seconds, outcome=op.check(raw))
    except (CheckFailed, QsysidError) as exc:
        return OpRecord(op.label, seconds, problem=f"{type(exc).__name__}: {exc}")


def run_loop(workload, seconds: float, tracer=None, between=None):
    """Closed loop of rounds until the next round would overrun `seconds`.

    Returns (plain, traced) lists of OpRecord; traced is empty without a
    tracer.  A traced op reruns the plain op's inputs and must reproduce its
    data products byte for byte.  `between`, if given, is called after each
    op with the share of `seconds` that has passed; its time counts towards
    `seconds` but not towards any op.
    """
    plain, traced = [], []
    round_walls = []
    start = time.perf_counter()
    k = 0
    while True:
        round_start = time.perf_counter()
        for op in workload.round(k):
            rec = execute(op)
            plain.append(rec)
            if tracer is not None:
                again = execute(op, tracer)
                if again.outcome is not None and rec.outcome is not None:
                    differ = sorted(
                        name for name, data in rec.outcome.products.items()
                        if again.outcome.products.get(name) != data
                    )
                    if differ:
                        again.problem = f"traced products differ: {', '.join(differ)}"
                        again.outcome = None
                traced.append(again)
            if between is not None:
                between((time.perf_counter() - start) / seconds if seconds else 1.0)
        round_walls.append(time.perf_counter() - round_start)
        k += 1
        if time.perf_counter() - start + statistics.fmean(round_walls) > seconds:
            return plain, traced


def e2e_numbers(records) -> dict[str, float]:
    """Mean op time and work rate of a run's ops.

    The machine's speed changes in steps lasting seconds, so the op times of a
    run fall into a few modes; their median jumps between modes from run to
    run, while their mean moves with the share of time spent in each.
    """
    ok = [r for r in records if r.outcome is not None]
    busy = sum(r.seconds for r in ok)
    return {
        "op_s_mean": statistics.fmean(r.seconds for r in records),
        "work_per_s": sum(r.outcome.work for r in ok) / busy if busy else 0.0,
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (SRC / "qsysid" / "__init__.py").is_file():
        print(f"error: no package sources at {SRC}", file=sys.stderr)
        return 2
    # the pins must precede numpy's first load; the loop's subprocesses inherit them
    os.environ.update({var: BLAS_THREADS for var in THREAD_VARS})
    sys.path[:0] = [str(SRC), str(BENCH)]

    import numpy
    import scipy

    import speed
    import workloads

    args = parse_args(argv, sorted(workloads.WORKLOADS))
    import qsysid

    if Path(qsysid.__file__).resolve().parent != SRC / "qsysid":
        print(f"error: imported qsysid from {qsysid.__file__}", file=sys.stderr)
        return 2

    workdir = ROOT / ".perfbench" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)

    gauge_task, reference_s = speed.gauge(workload.speed_parts)
    samplers = [] if args.trace else [
        setup_sampler(workload.config_path),
        Sampler(gauge_task, SPEED_SAMPLES),
    ]

    def between(share):
        for sampler in samplers:
            sampler(share)

    tracer = Tracer(workloads.HOOKS) if args.trace else None
    wall_start = time.perf_counter()
    plain, traced = run_loop(workload, args.seconds, tracer, between=between)
    between(1.0)
    setup_times = samplers[0].times if samplers else []
    speed_times = samplers[1].times if samplers else []
    speed_parts = samplers[1].results if samplers else []
    wall = time.perf_counter() - wall_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    executed = plain + traced
    failed = [r for r in executed if r.problem is not None]
    ok_plain = [r.outcome for r in plain if r.outcome is not None]
    run_problems, details = workload.finish(ok_plain) if ok_plain else (["no op succeeded"], {})

    numbers = e2e_numbers(plain)
    scale = reference_s / statistics.fmean(speed_times) if speed_times else 1.0
    if args.trace:
        traced_numbers = e2e_numbers(traced)
        metrics = workloads.layer_metrics(tracer.spans, len(traced))
        for name, value in traced_numbers.items():
            metrics[f"trace.{name}_delta"] = value - numbers[name]
        section = "per_layer"
    else:
        metrics = {
            "setup_s": median(setup_times) * scale,
            "op_s_mean": numbers["op_s_mean"] * scale,
            "work_per_s": numbers["work_per_s"] / scale,
            "peak_rss_mb": peak_rss_mb,
        }
        section = "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json {section}")

    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "git_commit": git_commit(),
        "src_digest": tree_digest(SRC / "qsysid"),
        "bench_digest": tree_digest(BENCH),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_library(),
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "config_digests": workload.config_digests,
        "record_digests": workload.record_digests,
    }
    failed_frac = len(failed) / len(executed)
    print(f"{args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(executed)} ops in {wall:.2f} s, {len(failed)} failed")
    print(f"  ops = {len(plain)}, failed_frac = {failed_frac:.4g}, reference seconds per "
          f"wall second = {scale:.4g}")
    print(f"  wall clock: setup_s = {median(setup_times) if setup_times else 0.0:.6g} s, "
          f"op_s_mean = {numbers['op_s_mean']:.6g} s, "
          f"op_s_p50 = {median([r.seconds for r in plain]):.6g} s, "
          f"{workload.rate_name} = {numbers['work_per_s']:.6g} {workload.work_unit}")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    for r in failed:
        print(f"  FAILED {r.label}: {r.problem}")
    for problem in run_problems:
        print(f"  CHECK FAILED: {problem}")
    print("provenance " + json.dumps(provenance, sort_keys=True))

    result = {
        "correct": not failed and not run_problems,
        "attempted": len(executed),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    report = {
        **result,
        "provenance": provenance,
        "wall_clock": {
            "op_s_mean": numbers["op_s_mean"],
            "op_s_p50": median([r.seconds for r in plain]),
            workload.rate_name: numbers["work_per_s"],
            "unit": workload.work_unit,
        },
        "failed_frac": failed_frac,
        "reference_s_per_wall_s": scale,
        "setup_times_s": setup_times,
        "speed_parts": list(workload.speed_parts),
        "speed_gauge_times_s": speed_parts,
        "ops": [{"label": r.label, "seconds": r.seconds, "problem": r.problem} for r in plain],
        "traced_ops": [{"label": r.label, "seconds": r.seconds, "problem": r.problem} for r in traced],
        "run_problems": run_problems,
        "checks": details,
        "spans": tracer.to_json() if tracer else [],
    }
    (workdir / "result.json").write_text(json.dumps(report, indent=1, default=str) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
