import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

METRICS = ("setup_s", "op_s_mean", "work_per_s", "peak_rss_mb")


def run(workload, pair, side, op_s, digests, attempted=10):
    values = {"setup_s": 0.2, "op_s_mean": op_s, "work_per_s": 1.0 / op_s, "peak_rss_mb": 70.0}
    return {
        "workload": workload, "seed": 1, "pair": pair, "side": side, "position": 1,
        "result": {"attempted": attempted, "metrics": {name: {"value": values[name]} for name in METRICS}},
        "provenance": {"record_digests": digests},
    }


def test_summarize_counts_wins_and_records_drawn_alike():
    # the change runs more ops, so lists one more digest; pair 3 draws
    # another record at the second op
    runs = [
        run("simulate-headline", 1, "parent", 1.0, ["a", "b"], attempted=2),
        run("simulate-headline", 1, "change", 0.9, ["a", "b", "c"], attempted=3),
        run("simulate-headline", 2, "change", 1.0, ["a", "b", "c"], attempted=3),
        run("simulate-headline", 2, "parent", 1.2, ["a", "b"], attempted=2),
        run("simulate-headline", 3, "parent", 1.1, ["a", "b"], attempted=2),
        run("simulate-headline", 3, "change", 1.15, ["a", "x", "c"], attempted=3),
        run("simulate-headline", 4, "parent", 1.0, ["a"]),  # its pair is incomplete
        run("steadystate", 1, "parent", 0.6, []),
        run("steadystate", 1, "change", 0.5, []),
    ]
    summary = bench_pairs.summarize(runs)
    assert sorted(summary) == ["simulate-headline seed 1", "steadystate seed 1"]
    headline = summary["simulate-headline seed 1"]
    op = headline["op_s_mean"]
    assert (op["change_wins"], op["pairs"]) == (2, 3)
    assert op["parent_q1_median_q3"][1] == 1.05  # the incomplete pair's run counts here
    assert op["change_q1_median_q3"][1] == 1.0
    assert op["relative_change"] == pytest.approx(1.0 / 1.05 - 1.0)
    assert headline["work_per_s"]["change_wins"] == 2  # higher is better
    assert headline["peak_rss_mb"]["change_wins"] == 0  # a tie is no win
    assert headline["attempted_median"] == {"parent": 2.0, "change": 3.0}
    assert headline["same_records"] == {"pairs": 3, "same": 2}
    assert summary["steadystate seed 1"]["same_records"] is None  # no run lists a digest
    assert summary["steadystate seed 1"]["op_s_mean"]["change_wins"] == 1
