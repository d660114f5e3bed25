import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qsysid import EnsembleResult, Estimate, GGrid, ModelParams, cli, read_record
from qsysid.cli import main

TWO_PI = 2.0 * np.pi

TOY_CONFIG = {
    "schema": "qsysid-config/1",
    "g0_mhz": 6.0,
    "gamma_perp_mhz": 0.8,
    "kappa_mhz": 1.5,
    "epsilon_mhz": 2.0,
    "n_trunc": 6,
    "g_true_mhz": 3.0,
    "grid": {"min_mhz": 1.0, "max_mhz": 5.0, "step_mhz": 1.0},
    "t0_us": 0.0,
    "tf_us": 1.0,
    "seed": 5,
    "n_traj": 6,
    "checkpoints_us": [0.5, 1.0],
}


@pytest.fixture
def toy_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(TOY_CONFIG, indent=2) + "\n")
    return path


def csv_rows(path):
    lines = path.read_text().strip().split("\n")
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def test_simulate_writes_record(tmp_path, toy_config, capsys):
    out = tmp_path / "record.json"
    assert main(["simulate", "--config", str(toy_config), "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    record = read_record(out)
    assert f"{record.n_events} events" in printed
    assert record.metadata["seed"] == 5
    assert record.metadata["g_true_mhz"] == 3.0


def test_simulate_is_reproducible(tmp_path, toy_config):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["simulate", "--config", str(toy_config), "--out", str(out1)]) == 0
    assert main(["simulate", "--config", str(toy_config), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_estimate_writes_surface_and_history(tmp_path, toy_config, capsys):
    record_path = tmp_path / "record.json"
    main(["simulate", "--config", str(toy_config), "--out", str(record_path)])
    surface_path = tmp_path / "surface.csv"
    history_path = tmp_path / "history.csv"
    code = main(
        [
            "estimate",
            "--config", str(toy_config),
            "--record", str(record_path),
            "--out", str(surface_path),
            "--history", str(history_path),
        ]
    )
    assert code == 0
    assert "g_mle" in capsys.readouterr().out
    header, rows = csv_rows(surface_path)
    assert header == ["g_mhz", "loglik", "posterior"]
    assert len(rows) == 5  # grid 1..5 step 1
    posterior = np.array([float(r[2]) for r in rows])
    assert posterior.sum() == pytest.approx(1.0, abs=1e-12)
    header, rows = csv_rows(history_path)
    assert header == ["jump_index", "g_mhz", "loglik", "posterior"]
    assert len(rows) == read_record(record_path).n_events * 5


def test_ensemble_writes_stats_and_histogram(tmp_path, toy_config, capsys):
    stats_path = tmp_path / "stats.csv"
    hist_path = tmp_path / "hist.csv"
    code = main(
        ["ensemble", "--config", str(toy_config), "--out", str(stats_path), "--hist", str(hist_path)]
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert "Fano" in printed
    header, rows = csv_rows(stats_path)
    assert header == ["time_us", "n", "mean_mle_mhz", "std_mle_mhz", "rms_err_mhz"]
    assert [float(r[0]) for r in rows] == [0.5, 1.0]
    assert all(int(r[1]) == 6 for r in rows)
    header, rows = csv_rows(hist_path)
    assert header == ["time_us", "bin_center_mhz", "count"]
    assert sum(int(r[2]) for r in rows) == 6
    assert all(float(r[0]) == 1.0 for r in rows)  # default hist time: last checkpoint


def test_ensemble_without_checkpoints_uses_twenty_ending_at_tf(tmp_path, capsys):
    config = {key: value for key, value in TOY_CONFIG.items() if key != "checkpoints_us"}
    config.update(n_traj=2, tf_us=2.0)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config, indent=2) + "\n")
    stats_path = tmp_path / "stats.csv"
    hist_path = tmp_path / "hist.csv"
    code = main(["ensemble", "--config", str(path), "--out", str(stats_path), "--hist", str(hist_path)])
    assert code == 0
    _, rows = csv_rows(stats_path)
    times = [float(r[0]) for r in rows]
    np.testing.assert_allclose(times, 0.1 * np.arange(1, 21), rtol=0, atol=1e-12)
    assert times[-1] == 2.0
    _, rows = csv_rows(hist_path)
    assert all(float(r[0]) == 2.0 for r in rows)  # default hist time: last checkpoint


def test_ensemble_names_each_failed_trajectory(tmp_path, toy_config, capsys, monkeypatch):
    # two of three trajectories fail, so summarize has too few survivors;
    # the reasons are printed before that error ends the run
    ok = tuple(Estimate(3.0, False, 3.0, 0.5, 1, t) for t in (0.5, 1.0))
    failed = EnsembleResult(
        params=ModelParams(6.0, 0.8, 1.5, 2.0, 6), g_true=3.0, grid=GGrid(1.0, 5.0, 1.0),
        t0=0.0, tf=1.0, checkpoints=(0.5, 1.0), master_seed=5, seeds=(1, 2, 3),
        estimates=(None, ok, None), event_counts=(None, 4, None),
        failures=((0, "degenerate jump at t=0.25"), (2, "survival bracketing failed")),
    )
    monkeypatch.setattr(cli, "run_ensemble", lambda *args, **kwargs: failed)
    code = main(
        ["ensemble", "--config", str(toy_config),
         "--out", str(tmp_path / "s.csv"), "--hist", str(tmp_path / "h.csv")]
    )
    assert code == 3
    printed = capsys.readouterr().out.splitlines()
    assert printed == [
        "failed trajectories: 2 of 3",
        "  trajectory 0: degenerate jump at t=0.25",
        "  trajectory 2: survival bracketing failed",
    ]


def test_steadystate_reports_closed_form_values(tmp_path, capsys):
    cfg = dict(TOY_CONFIG)
    cfg.update({"gamma_perp_mhz": 0.5, "kappa_mhz": 6.0, "epsilon_mhz": 6.0, "n_trunc": 12})
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg) + "\n")
    assert main(["steadystate", "--config", str(path), "--g", "0"]) == 0
    printed = capsys.readouterr().out
    values = {}
    for line in printed.strip().split("\n"):
        key, _, value = line.partition(" = ")
        values[key] = float(value)
    assert values["g_mhz"] == 0.0
    assert values["mean_photon_number"] == pytest.approx(1.0, rel=1e-7)
    assert values["excited_population"] == pytest.approx(0.0, abs=1e-10)
    assert values["flux_per_us"] == pytest.approx(2.0 * TWO_PI * 6.0, rel=1e-7)


# --------------------------------------------------------------- exit codes


def test_usage_errors_exit_1(capsys):
    assert main([]) == 1
    assert main(["frobnicate"]) == 1
    assert main(["simulate"]) == 1  # missing required options
    capsys.readouterr()


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert "simulate" in capsys.readouterr().out


def test_missing_config_file_exits_2(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert main(["simulate", "--config", str(tmp_path / "nope.json"), "--out", str(out)]) == 2
    assert "error:" in capsys.readouterr().err


def test_bad_config_exits_2(tmp_path, capsys):
    path = tmp_path / "config.json"
    bad = dict(TOY_CONFIG)
    bad["surprise"] = 1
    path.write_text(json.dumps(bad) + "\n")
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "r.json")]) == 2
    assert "surprise" in capsys.readouterr().err


def test_negative_seed_exits_2(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dict(TOY_CONFIG, seed=-1)) + "\n")
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "r.json")]) == 2
    assert "key: seed" in capsys.readouterr().err


def test_bad_record_exits_2(tmp_path, toy_config, capsys):
    record_path = tmp_path / "record.json"
    record_path.write_text(json.dumps({"schema": "qsysid-record/9", "t0_us": 0, "tf_us": 1, "events": []}))
    code = main(
        ["estimate", "--config", str(toy_config), "--record", str(record_path),
         "--out", str(tmp_path / "s.csv")]
    )
    assert code == 2
    assert "schema" in capsys.readouterr().err


def test_impossible_record_exits_3(tmp_path, capsys):
    # atomic detection with no atomic decay channel in the model: every
    # candidate is excluded and no estimate exists
    cfg = dict(TOY_CONFIG)
    cfg["gamma_perp_mhz"] = 0.0
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(cfg) + "\n")
    record_path = tmp_path / "record.json"
    record_path.write_text(
        json.dumps(
            {
                "schema": "qsysid-record/1",
                "t0_us": 0.0,
                "tf_us": 1.0,
                "events": [{"t_us": 0.4, "channel": 0}],
            }
        )
        + "\n"
    )
    code = main(
        ["estimate", "--config", str(config_path), "--record", str(record_path),
         "--out", str(tmp_path / "s.csv")]
    )
    assert code == 3
    assert "error:" in capsys.readouterr().err


def test_module_entry_point(tmp_path, toy_config):
    # the child does not inherit pytest's pythonpath, so hand it src/
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = tmp_path / "record.json"
    proc = subprocess.run(
        [sys.executable, "-m", "qsysid", "simulate", "--config", str(toy_config), "--out", str(out)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "events" in proc.stdout
    assert out.exists()
