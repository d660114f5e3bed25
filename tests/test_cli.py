import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qsysid import (EnsembleResult, Estimate, GGrid, ModelParams, build_model, cli, conditional_states,
                    read_record)
from qsysid.cli import main
from qsysid.dynamics import TRUNCATION_TAIL_LIMIT, _simulate

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


def test_steadystate_on_a_model_too_stiff_for_the_step_exits_3(tmp_path, capsys):
    # kappa 100 MHz at n_trunc 30: the largest total decay rate times the
    # fixed RK4 step is 3.77, past RK4's stability limit
    cfg = dict(TOY_CONFIG, g0_mhz=57.0, gamma_perp_mhz=2.5, kappa_mhz=100.0, epsilon_mhz=44.3, n_trunc=30)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg) + "\n")
    assert main(["steadystate", "--config", str(path), "--g", "45"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: trace became ")
    assert "largest total decay rate" in err and "= 3.77; the model is too stiff for the fixed step" in err


# ------------------------------------------------------- the Fock cutoff


def _simulate_with(tmp_path, capsys, **overrides):
    """Run `simulate` on TOY_CONFIG with overrides: the exit code, what it
    printed, the record it wrote, the model, and `_simulate`'s tail."""
    cfg = dict(TOY_CONFIG, **overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg) + "\n")
    out = tmp_path / "record.json"
    code = main(["simulate", "--config", str(path), "--out", str(out)])
    params = ModelParams(cfg["g0_mhz"], cfg["gamma_perp_mhz"], cfg["kappa_mhz"], cfg["epsilon_mhz"], cfg["n_trunc"])
    model = build_model(params)
    record, tail = _simulate(model, cfg["g_true_mhz"], cfg["t0_us"], cfg["tf_us"], cfg["seed"])
    assert read_record(out) == record
    return code, capsys.readouterr(), record, model, tail


def _warning(tail, n_trunc):
    return (f"warning: top two Fock levels hold {tail:.3e} of a conditional state "
            f"(limit 1e-08); raise n_trunc above {n_trunc}\n")


HEADLINE = dict(g0_mhz=57.0, gamma_perp_mhz=2.5, kappa_mhz=30.0, epsilon_mhz=44.3, g_true_mhz=45.0)
CAVITY_6 = dict(gamma_perp_mhz=0.5, kappa_mhz=6.0, epsilon_mhz=6.0, g_true_mhz=0.0, seed=1)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("n_trunc", [16, 30])
def test_simulate_warning_reads_the_conditional_states(tmp_path, capsys, n_trunc, seed):
    # at n_trunc 16 the steady state holds 3.3e-9 in the top two levels,
    # below the limit, while the states records are drawn from reach
    # 4.3e-8, 2.9e-8 and 1.9e-7 on seeds 1-3; n_trunc 30 is the headline
    code, printed, record, model, tail = _simulate_with(tmp_path, capsys, **HEADLINE, n_trunc=n_trunc, seed=seed)
    assert code == 0
    out = tmp_path / "record.json"
    assert printed.out == f"simulate: {record.n_events} events in [0.0, 1.0] us (seed {seed}) -> {out}\n"
    states = conditional_states(model, 45.0, record, [*record.times, record.tf])
    assert tail == pytest.approx(max(float(s[-4:] @ s[-4:]) / float(s @ s) for s in states), rel=1e-9)
    if n_trunc == 16:
        assert tail >= TRUNCATION_TAIL_LIMIT and printed.err == _warning(tail, 16)
    else:
        assert tail < 1e-20 and printed.err == ""


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_simulate_checks_the_state_at_tf_of_a_record_without_events(tmp_path, capsys, seed):
    # a near-lossless cavity driven from the vacuum: no detection in 1 us,
    # and the no-jump state at tf holds 0.219 in the top two of four levels
    overrides = dict(kappa_mhz=1e-6, gamma_perp_mhz=0.0, epsilon_mhz=5.0, n_trunc=3, g_true_mhz=0.0, seed=seed)
    code, printed, record, _, tail = _simulate_with(tmp_path, capsys, **overrides)
    assert code == 0 and record.n_events == 0
    assert tail == pytest.approx(0.219, abs=1e-3) and printed.err == _warning(tail, 3)


def test_simulate_is_quiet_on_a_model_too_stiff_for_the_steady_state_step(tmp_path, capsys):
    # the point test_steadystate_on_a_model_too_stiff_for_the_step_exits_3
    # fails at: the simulator needs no master-equation step
    code, printed, record, _, _ = _simulate_with(tmp_path, capsys, **dict(HEADLINE, kappa_mhz=100.0), n_trunc=30)
    assert code == 0 and record.n_events > 0 and printed.err == ""


def test_simulate_warns_on_tight_cutoff(tmp_path, capsys):
    code, printed, _, _, tail = _simulate_with(tmp_path, capsys, **CAVITY_6, n_trunc=3)
    assert code == 0 and tail == pytest.approx(0.41, abs=0.01)
    assert printed.err == _warning(tail, 3)


def test_simulate_quiet_when_roomy(tmp_path, capsys):
    code, printed, _, _, tail = _simulate_with(tmp_path, capsys, **CAVITY_6, n_trunc=14)
    assert code == 0 and 1e-11 < tail < TRUNCATION_TAIL_LIMIT  # 6.8e-11
    assert printed.err == ""


# --------------------------------------------------------------- exit codes


def test_usage_errors_exit_1(capsys):
    assert main([]) == 1
    assert main(["frobnicate"]) == 1
    assert main(["simulate"]) == 1  # missing required options
    # the cutoff is checked on every simulate run; the steady-state option is gone
    assert main(["simulate", "--config", "c.json", "--out", "r.json", "--check-truncation"]) == 1
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


def _run_python(*args):
    # the child does not inherit pytest's pythonpath, so hand it src/
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}
    )


def test_module_entry_point(tmp_path, toy_config):
    out = tmp_path / "record.json"
    proc = _run_python("-m", "qsysid", "simulate", "--config", str(toy_config), "--out", str(out))
    assert proc.returncode == 0
    assert "events" in proc.stdout
    assert out.exists()


def test_package_imports_no_test_or_scipy_module():
    # numpy is the only runtime dependency pyproject.toml lists
    proc = _run_python(
        "-c",
        "import sys, qsysid, qsysid.cli; "
        "print(sorted({name.partition('.')[0] for name in sys.modules} & {'scipy', 'hypothesis', 'pytest'}))",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
