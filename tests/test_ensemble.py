import hashlib

import numpy as np
import pytest

import qsysid.dynamics
import qsysid.ensemble
import qsysid.inference
from qsysid import (
    GGrid,
    InvalidParametersError,
    ModelParams,
    StatisticsError,
    build_model,
    count_statistics,
    default_checkpoints,
    estimate_time_series,
    run_ensemble,
    simulate_record,
    summarize,
    trajectory_seed,
)
from qsysid.ensemble import DEFAULT_N_CHECKPOINTS, EnsembleResult


@pytest.fixture(scope="module")
def tiny_ensemble():
    model = build_model(ModelParams(g0=6.0, gamma_perp=0.8, kappa=1.5, epsilon=2.0, n_trunc=6))
    grid = GGrid(1.0, 5.0, 1.0)
    return run_ensemble(
        model, g_true=3.0, grid=grid, n_traj=12, t0=0.0, tf=1.0,
        checkpoints=(0.5, 1.0), master_seed=7,
    )


def test_trajectory_seed_matches_reference_hash():
    digest = hashlib.sha256(b"7:3").digest()
    assert trajectory_seed(7, 3) == int.from_bytes(digest[:8], "little")


def test_trajectory_seeds_are_distinct():
    seeds = [trajectory_seed(0, i) for i in range(200)]
    assert len(set(seeds)) == 200
    assert trajectory_seed(0, 5) != trajectory_seed(1, 5)


def test_default_checkpoints_cover_open_interval():
    assert DEFAULT_N_CHECKPOINTS == 20
    assert default_checkpoints(0.0, 1.0) == tuple(k / 20 for k in range(1, 21))
    cps = default_checkpoints(1.0, 3.0)
    assert len(cps) == 20 and cps[-1] == 3.0
    np.testing.assert_allclose(cps, 1.0 + 0.1 * np.arange(1, 21), rtol=0, atol=1e-15)


def test_run_ensemble_shapes_and_bookkeeping(tiny_ensemble):
    result = tiny_ensemble
    assert result.n_traj == 12
    assert result.n_surviving == 12
    assert result.failures == ()
    assert len(result.seeds) == 12
    assert result.checkpoints == (0.5, 1.0)
    for est, count in zip(result.estimates, result.event_counts):
        assert len(est) == 2
        assert count >= 0
        assert est[0].time == 0.5 and est[1].time == 1.0


def test_run_ensemble_is_deterministic(tiny_ensemble):
    model = build_model(ModelParams(g0=6.0, gamma_perp=0.8, kappa=1.5, epsilon=2.0, n_trunc=6))
    again = run_ensemble(
        model, g_true=3.0, grid=GGrid(1.0, 5.0, 1.0), n_traj=12, t0=0.0, tf=1.0,
        checkpoints=(0.5, 1.0), master_seed=7,
    )
    assert again.seeds == tiny_ensemble.seeds
    assert again.event_counts == tiny_ensemble.event_counts
    for a, b in zip(again.estimates, tiny_ensemble.estimates):
        for ea, eb in zip(a, b):
            assert ea == eb


def test_run_ensemble_prepares_the_grid_once(monkeypatch):
    # 5 grid candidates once, then one coupling per simulated trajectory;
    # each trajectory's estimates are those of scoring its record alone
    model = build_model(ModelParams(g0=6.0, gamma_perp=0.8, kappa=1.5, epsilon=2.0, n_trunc=6))
    grid = GGrid(1.0, 5.0, 1.0)
    calls = []
    for module in (qsysid.dynamics, qsysid.inference):
        original = module.prepare_propagator
        monkeypatch.setattr(module, "prepare_propagator", lambda h, f=original: calls.append(h.g) or f(h))
    result = run_ensemble(model, 3.0, grid, n_traj=3, t0=0.0, tf=1.0, checkpoints=(0.5, 1.0), master_seed=7)
    assert len(calls) == grid.n + 3
    np.testing.assert_array_equal(calls[:grid.n], grid.values)
    monkeypatch.undo()
    for seed, estimates in zip(result.seeds, result.estimates):
        record = simulate_record(model, 3.0, 0.0, 1.0, seed)
        assert tuple(estimate_time_series(model, record, grid, (0.5, 1.0))) == estimates


def test_run_ensemble_rejects_bad_trajectory_count(tiny_ensemble):
    model = build_model(ModelParams(g0=6.0, gamma_perp=0.8, kappa=1.5, epsilon=2.0, n_trunc=6))
    for n_traj in (0, 2.5, True):
        with pytest.raises(InvalidParametersError, match="n_traj"):
            run_ensemble(model, 3.0, GGrid(1.0, 5.0, 1.0), n_traj=n_traj, t0=0.0, tf=1.0)


@pytest.mark.parametrize(
    "tf, checkpoints",
    [(1.0, (0.5, 2.0)), (1.0, (0.5, 0.2)), (1.0, (float("nan"),)), (0.0, None), (0.0, (0.0,))],
)
def test_run_ensemble_rejects_bad_window_or_checkpoints_before_simulating(monkeypatch, tf, checkpoints):
    # a bad argument is the caller's error, not n_traj failed trajectories
    model = build_model(ModelParams(g0=6.0, gamma_perp=0.8, kappa=1.5, epsilon=2.0, n_trunc=6))
    monkeypatch.setattr(qsysid.ensemble, "simulate_record", lambda *args: pytest.fail("simulated"))
    with pytest.raises(InvalidParametersError):
        run_ensemble(model, 3.0, GGrid(1.0, 5.0, 1.0), n_traj=3, t0=0.0, tf=tf, checkpoints=checkpoints)


def test_summarize_matches_manual_reduction(tiny_ensemble):
    result = tiny_ensemble
    stats, hist = summarize(result, hist_time=1.0, bin_width=1.0)
    np.testing.assert_array_equal(stats.times, [0.5, 1.0])
    np.testing.assert_array_equal(stats.n, [12, 12])
    for k in range(2):
        mles = np.array([est[k].g_mle for est in result.estimates])
        assert stats.mean_mle[k] == pytest.approx(mles.mean())
        assert stats.std_mle[k] == pytest.approx(mles.std(ddof=1))
        assert stats.rms_err[k] == pytest.approx(np.sqrt(np.mean((mles - 3.0) ** 2)))
    # histogram covers the grid range and accounts for every trajectory
    assert hist.time == 1.0
    assert hist.counts.sum() == 12
    assert hist.bin_centers[0] == pytest.approx(1.5)
    assert hist.bin_centers[-1] == pytest.approx(4.5)


def test_summarize_validates_inputs(tiny_ensemble):
    with pytest.raises(InvalidParametersError):
        summarize(tiny_ensemble, hist_time=0.7, bin_width=1.0)
    with pytest.raises(InvalidParametersError):
        summarize(tiny_ensemble, hist_time=1.0, bin_width=0.0)
    # a value that a cast would read as a number is no number: a bool, a string
    for bin_width in (True, "1", float("inf"), None):
        with pytest.raises(InvalidParametersError, match="bin_width"):
            summarize(tiny_ensemble, hist_time=1.0, bin_width=bin_width)
    for hist_time in ("0.3", True, float("nan"), None):
        with pytest.raises(InvalidParametersError, match="hist_time"):
            summarize(tiny_ensemble, hist_time=hist_time, bin_width=1.0)


def test_summarize_needs_surviving_trajectories(tiny_ensemble):
    starved = EnsembleResult(
        params=tiny_ensemble.params,
        g_true=tiny_ensemble.g_true,
        grid=tiny_ensemble.grid,
        t0=tiny_ensemble.t0,
        tf=tiny_ensemble.tf,
        checkpoints=tiny_ensemble.checkpoints,
        master_seed=tiny_ensemble.master_seed,
        seeds=tiny_ensemble.seeds[:3],
        estimates=(tiny_ensemble.estimates[0], None, None),
        event_counts=(tiny_ensemble.event_counts[0], None, None),
        failures=((1, "boom"), (2, "boom")),
    )
    assert starved.n_surviving == 1
    with pytest.raises(StatisticsError):
        summarize(starved, hist_time=1.0, bin_width=1.0)
    with pytest.raises(StatisticsError):
        count_statistics(starved)


def test_count_statistics_matches_manual(tiny_ensemble):
    mean, var, fano = count_statistics(tiny_ensemble)
    counts = np.array(tiny_ensemble.event_counts, dtype=float)
    assert mean == pytest.approx(counts.mean())
    assert var == pytest.approx(counts.var(ddof=1))
    assert fano == pytest.approx(var / mean)


def test_estimates_concentrate_with_more_data(tiny_ensemble):
    # more of the record seen -> posterior spread shrinks on average
    sd_early = np.mean([est[0].posterior_sd for est in tiny_ensemble.estimates])
    sd_late = np.mean([est[1].posterior_sd for est in tiny_ensemble.estimates])
    assert sd_late < sd_early
