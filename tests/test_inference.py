import warnings
from functools import partial
from unittest.mock import patch

import numpy as np
import pytest
from scipy.linalg import expm

import qsysid.inference
from qsysid import (
    METHOD_EIG,
    METHOD_FALLBACK,
    ClassicalRecord,
    GGrid,
    InvalidParametersError,
    LikelihoodSurface,
    ModelParams,
    NoEstimateError,
    NumericError,
    build_model,
    conditional_states,
    default_grid,
    effective_hamiltonian,
    estimate_time_series,
    ground_vacuum,
    likelihood_surface,
    log_likelihood,
    max_total_decay_rate,
    posterior_and_mle,
    prepare_propagator,
    simulate_record,
)

from conftest import forced_path
from oracles import chunked_log_density, direct_log_density, random_toy_instance


def surface_with(loglik, grid=None):
    """Hand-built surface for exercising the estimator arithmetic."""
    grid = grid or GGrid(44.0, 46.0, 1.0)
    return LikelihoodSurface(
        grid=grid,
        loglik=np.asarray(loglik, dtype=float),
        history=None,
        record_ref="test",
        n_events=0,
        t0=0.0,
        tf=1.0,
    )


@pytest.fixture(scope="module")
def flux_model():
    """Toy model with enough photon flux for informative short records."""
    return build_model(ModelParams(g0=6.0, gamma_perp=0.8, kappa=1.5, epsilon=2.0, n_trunc=6))


# ---------------------------------------------------------------------- grid


def test_grid_values_inclusive_endpoints():
    grid = GGrid(35.0, 57.0, 1.0)
    assert grid.n == 23
    assert grid.values[0] == 35.0
    assert grid.values[-1] == 57.0
    np.testing.assert_allclose(np.diff(grid.values), 1.0)


def test_grid_handles_inexact_step():
    grid = GGrid(0.0, 1.0, 0.1)
    assert grid.n == 11
    assert grid.values[-1] == pytest.approx(1.0)


@pytest.mark.parametrize("g_max", [0.3, 0.7, 1.0])
def test_grid_never_overshoots_its_maximum(g_max):
    # 3 * 0.1 is 0.30000000000000004 in floating point
    grid = GGrid(0.0, g_max, 0.1)
    assert grid.values[-1] <= g_max
    assert grid.values[-1] == pytest.approx(g_max)


def test_grid_values_read_only():
    grid = GGrid(0.0, 2.0, 1.0)
    with pytest.raises(ValueError):
        grid.values[0] = 5.0


@pytest.mark.parametrize(
    "args",
    [
        (-1.0, 2.0, 0.5),
        (2.0, 2.0, 0.5),
        (3.0, 2.0, 0.5),
        (0.0, 2.0, 0.0),
        (0.0, 2.0, -0.5),
        (0.0, float("inf"), 0.5),
    ],
)
def test_grid_validation(args):
    with pytest.raises(InvalidParametersError):
        GGrid(*args)


def test_default_grid_spans_zero_to_max_coupling(cavity_params):
    grid = default_grid(cavity_params)
    assert grid.g_min == 0.0
    assert grid.g_max == 57.0
    assert grid.step == 0.5
    assert grid.n == 115


# ---------------------------------------------------------- likelihood values


@pytest.mark.parametrize("seed", range(10))
def test_streaming_likelihood_matches_dense_trace(seed):
    rng = np.random.default_rng(700 + seed)
    model, record, g = random_toy_instance(rng)
    got = log_likelihood(model, record, g)
    want = direct_log_density(model, record, g)
    assert got == pytest.approx(want, rel=1e-9, abs=1e-9)


def test_surface_matches_dense_trace_at_operating_dimension(cavity_model):
    # n_trunc 30 (dim 62), the size the propagator runs at; the scorer is
    # forced onto each path in turn, so both are scored against the dense
    # oracle on candidates either side of the old cond(V) seam at 42.5/43
    record = simulate_record(cavity_model, 45.0, 0.0, 0.1, seed=5)
    assert record.n_events == 44
    grid = GGrid(40.0, 45.0, 0.5)
    want = [direct_log_density(cavity_model, record, float(g)) for g in grid.values]
    for method in (METHOD_EIG, METHOD_FALLBACK):
        with forced_path(method) as built:
            surf = likelihood_surface(cavity_model, record, grid)
        assert [p.method for p in built] == [method] * grid.n
        for got, ref in zip(surf.loglik, want):
            assert abs(got - ref) <= 1e-8, method


@pytest.mark.parametrize(("seed", "g"), [(0, 12.0), (6, 43.0)])
def test_default_path_matches_dense_replay_on_headline_record(cavity_model, seed, g):
    # a 0.5 us record at the headline point; without the refinement of its
    # eigenbasis components the eigen path was off by 5.6e-8 (g 12) and
    # 3.2e-8 (g 43)
    record = simulate_record(cavity_model, 45.0, 0.0, 0.5, seed=seed)
    h = effective_hamiltonian(cavity_model, g).matrix
    psi = ground_vacuum(cavity_model)
    want = 0.0
    t_prev = 0.0
    for t, c in zip(record.times, record.channels):
        psi = (cavity_model.c0 if c == 0 else cavity_model.c1) @ (expm(-1j * h * (t - t_prev)) @ psi)
        n2 = np.vdot(psi, psi).real
        want += np.log(n2)
        psi /= np.sqrt(n2)
        t_prev = t
    psi = expm(-1j * h * (record.tf - t_prev)) @ psi
    want += np.log(np.vdot(psi, psi).real)
    assert prepare_propagator(effective_hamiltonian(cavity_model, g)).method == METHOD_EIG
    assert abs(log_likelihood(cavity_model, record, g) - want) <= 1e-9


def test_atomic_detection_just_after_another_matches_oracle():
    # the second detection needs the atom re-excited within 2e-18 us, a
    # density of e^-98 that the eigen path scored as e^-88 before it formed
    # the change over short intervals instead of the evolved state
    model = build_model(ModelParams(g0=6.0, gamma_perp=1.0, kappa=1.0, epsilon=0.5, n_trunc=1))
    record = ClassicalRecord(
        t0=0.0, tf=1.0, times=np.array([0.01, np.nextafter(0.01, 1.0), 0.5]), channels=np.zeros(3)
    )
    assert prepare_propagator(effective_hamiltonian(model, 1.0)).method == METHOD_EIG
    want = direct_log_density(model, record, 1.0)
    assert log_likelihood(model, record, 1.0) == pytest.approx(want, rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("n_trunc", [18, 30])
def test_decoupled_candidate_cannot_explain_an_atomic_detection(n_trunc):
    # at g = 0 the atom never leaves its ground state, so a record with an
    # atomic detection has zero likelihood; the eigen path must keep that exact
    model = build_model(
        ModelParams(g0=57.0, gamma_perp=2.5, kappa=30.0, epsilon=44.3, n_trunc=n_trunc)
    )
    record = simulate_record(model, 45.0, 0.0, 0.3, seed=3)
    assert np.count_nonzero(record.channels == 0) == 1
    assert prepare_propagator(effective_hamiltonian(model, 0.0)).method == METHOD_EIG
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no log(0) or 0/0 on the way to -inf
        assert log_likelihood(model, record, 0.0) == -np.inf


def test_default_grid_matches_chunked_oracle_at_largest_truncation():
    # n_trunc 40 (dim 82), where cond(W) is largest, on every 10th candidate
    # of the default grid, all on the eigen path
    params = ModelParams(g0=57.0, gamma_perp=2.5, kappa=30.0, epsilon=44.3, n_trunc=40)
    model = build_model(params)
    record = simulate_record(model, 45.0, 0.0, 0.25, seed=4)
    assert record.n_events > 100 and np.any(record.channels == 0)
    grid = GGrid(0.0, 55.0, 5.0)
    np.testing.assert_array_equal(grid.values, default_grid(params).values[::10])
    for g, got in zip(grid.values, likelihood_surface(model, record, grid).loglik):
        h = effective_hamiltonian(model, float(g))
        assert prepare_propagator(h).method == METHOD_EIG
        want = chunked_log_density(model, record, float(g))
        if want == -np.inf:
            assert got == -np.inf
        else:
            assert got == pytest.approx(want, rel=1e-9, abs=1e-9), g


# the second grid's first candidate falls back (`_eig_error`'s vanishing
# coupling): a candidate scores the same bits whatever else is on its grid
@pytest.mark.parametrize("grid", [GGrid(1.0, 5.0, 1.0), GGrid(1e-9, 5.0, 1.0)], ids=["eigen", "mixed"])
def test_surface_matches_scalar_likelihood(small_model, grid):
    record = simulate_record(small_model, 3.0, 0.0, 1.0, seed=21)
    surf = likelihood_surface(small_model, record, grid)
    assert surf.loglik.shape == (grid.n,)
    assert surf.n_events == record.n_events
    assert surf.record_ref == record.digest()
    for k, g in enumerate(grid.values):
        assert surf.loglik[k] == log_likelihood(small_model, record, float(g))


def test_likelihood_invariant_under_evaluation_cadence(small_model):
    record = simulate_record(small_model, 3.0, 0.0, 1.0, seed=22)
    grid = GGrid(0.5, 5.5, 0.5)
    rate = max_total_decay_rate(small_model)
    with patch.object(qsysid.inference, "_RENORM_LOG_BUDGET", 0.11 * rate):
        a = likelihood_surface(small_model, record, grid).loglik
    with patch.object(qsysid.inference, "_RENORM_LOG_BUDGET", 0.013 * rate):
        b = likelihood_surface(small_model, record, grid).loglik
    assert np.abs(a - b).max() <= 1e-10


def test_scoring_is_deterministic(small_model):
    record = simulate_record(small_model, 3.0, 0.0, 1.0, seed=23)
    grid = GGrid(1.0, 5.0, 0.5)
    a = likelihood_surface(small_model, record, grid).loglik
    b = likelihood_surface(small_model, record, grid).loglik
    np.testing.assert_array_equal(a, b)


def test_posterior_normalized_and_shift_invariant(small_model):
    record = simulate_record(small_model, 3.0, 0.0, 1.0, seed=24)
    grid = GGrid(1.0, 5.0, 0.5)
    surf = likelihood_surface(small_model, record, grid)
    post = surf.posterior()
    assert abs(post.sum() - 1.0) <= 1e-12
    assert np.all(post >= 0.0)
    shifted = surface_with(surf.loglik + 137.0, grid).posterior()
    np.testing.assert_allclose(shifted, post, atol=1e-12)


def test_atom_event_excludes_uncoupled_candidate():
    # with g = 0 the drive never excites the atom, so an atomic detection
    # has exactly zero amplitude there while g > 0 stays viable
    model = build_model(ModelParams(g0=5.0, gamma_perp=0.8, kappa=1.2, epsilon=1.0, n_trunc=3))
    record = ClassicalRecord(t0=0.0, tf=1.0, times=np.array([0.4]), channels=np.array([0]))
    surf = likelihood_surface(model, record, GGrid(0.0, 4.0, 2.0))
    assert surf.loglik[0] == -np.inf
    assert np.all(np.isfinite(surf.loglik[1:]))
    post = surf.posterior()
    assert post[0] == 0.0
    est = posterior_and_mle(surf)
    assert est.g_mle > 0.0


def test_all_candidates_excluded_raises():
    # without atomic decay in the model, an atomic detection is impossible
    # under every candidate g
    model = build_model(ModelParams(g0=5.0, gamma_perp=0.0, kappa=1.2, epsilon=1.0, n_trunc=3))
    record = ClassicalRecord(t0=0.0, tf=1.0, times=np.array([0.4]), channels=np.array([0]))
    surf = likelihood_surface(model, record, GGrid(0.0, 4.0, 2.0))
    assert np.all(surf.loglik == -np.inf)
    with pytest.raises(NoEstimateError):
        surf.posterior()
    with pytest.raises(NoEstimateError):
        posterior_and_mle(surf)


@pytest.mark.parametrize("method", [METHOD_EIG, METHOD_FALLBACK])
@pytest.mark.parametrize("gap", [0.3, 0.005], ids=["coordinates", "psi"])
def test_excluded_candidate_is_a_zero_row_at_minus_inf(gap, method):
    # g = 0 cannot explain the atomic detection (event 2): after a long gap
    # the scorer excludes it in coordinates, within 1/(largest decay rate)
    # of the cavity detection before it through psi; every other row, and
    # the excluded one before the event, runs as it does alone. On the
    # fallback that holds to rounding only: `Detector.on_states` returns a
    # stack of more than one row in Fortran order, which `_row_norms_sq`
    # sums in another order than a stack of one
    same = np.testing.assert_array_equal
    if method == METHOD_FALLBACK:
        same = partial(np.testing.assert_allclose, rtol=1e-13, atol=1e-15)  # states have norm 1
    model = build_model(ModelParams(g0=5.0, gamma_perp=0.8, kappa=1.2, epsilon=1.0, n_trunc=3))
    assert (gap * max_total_decay_rate(model) > 1.0) == (gap == 0.3)
    times = np.array([0.2, 0.4, 0.4 + gap, 0.4 + gap + 0.2])
    record = ClassicalRecord(t0=0.0, tf=1.0, times=times, channels=np.array([1, 1, 0, 1]))
    grid = GGrid(0.0, 4.0, 2.0)
    t_excluded = float(times[2])
    edges = np.concatenate([[0.0], times, [1.0]])
    cut_times = np.sort(np.concatenate([times, 0.5 * (edges[:-1] + edges[1:]), [1.0]]))
    score = qsysid.inference._score_record
    prepare = qsysid.inference._prepare
    with forced_path(method):
        cuts = list(score(model, *prepare(model, grid.values), record, cut_times))
        for j, g in enumerate(grid.values):
            alone = score(model, *prepare(model, [g]), record, cut_times)
            for (t, _, states, loglik), (_, _, states_1, loglik_1) in zip(cuts, alone, strict=True):
                if j == 0 and t >= t_excluded:
                    assert loglik[0] == loglik_1[0] == -np.inf
                    assert not states[0].any()
                else:
                    assert np.isfinite(loglik[j])
                    same(loglik[j], loglik_1[0])
                    same(states[j], states_1[0])
        surface = likelihood_surface(model, record, grid, with_history=True)
        history = [loglik for (_, _, _, loglik) in score(model, *prepare(model, grid.values), record, times)]
        np.testing.assert_array_equal(surface.history, history)
        for j, g in enumerate(grid.values[1:], start=1):
            same(surface.loglik[j], log_likelihood(model, record, float(g)))
        assert surface.loglik[0] == -np.inf
        np.testing.assert_array_equal(surface.history[2:, 0], -np.inf)
        assert np.all(np.isfinite(surface.history[:2, 0]))
        with pytest.raises(NumericError, match="zero weight"):
            conditional_states(model, 0.0, record, [t_excluded])


# ------------------------------------------------------------------- history


def test_history_rows_match_truncated_records(flux_model):
    record = simulate_record(flux_model, 3.0, 0.0, 1.0, seed=26)
    assert record.n_events >= 2
    grid = GGrid(1.0, 5.0, 1.0)
    surf = likelihood_surface(flux_model, record, grid, with_history=True)
    assert surf.history.shape == (record.n_events, grid.n)
    for i in range(record.n_events):
        t_i = float(record.times[i])
        truncated = ClassicalRecord(
            t0=record.t0, tf=t_i,
            times=record.times[: i + 1], channels=record.channels[: i + 1],
        )
        full = likelihood_surface(flux_model, truncated, grid).loglik
        np.testing.assert_array_equal(surf.history[i], full)


def test_history_empty_record(small_model):
    record = ClassicalRecord(t0=0.0, tf=0.5, times=np.array([]), channels=np.array([]))
    surf = likelihood_surface(small_model, record, GGrid(1.0, 3.0, 1.0), with_history=True)
    assert surf.history.shape == (0, 3)
    assert surf.n_events == 0


def test_history_not_requested_is_none(small_model):
    record = simulate_record(small_model, 3.0, 0.0, 1.0, seed=27)
    surf = likelihood_surface(small_model, record, GGrid(1.0, 3.0, 1.0))
    assert surf.history is None


# ----------------------------------------------------------------- estimates


def test_mle_symmetric_triple_refines_to_center():
    est = posterior_and_mle(surface_with([0.0, 1.0, 0.0]))
    assert est.g_mle == pytest.approx(45.0)
    assert est.refined
    assert est.posterior_mean == pytest.approx(45.0)
    e = np.exp(1.0)
    assert est.posterior_sd == pytest.approx(np.sqrt(2.0 / (2.0 + e)))


def test_mle_asymmetric_triple_vertex():
    est = posterior_and_mle(surface_with([0.0, 1.0, 0.5]))
    assert est.g_mle == pytest.approx(45.0 + 0.5 * (0.0 - 0.5) / (0.0 + 0.5 - 2.0))
    assert est.refined


def test_mle_edge_maximum_not_refined():
    est = posterior_and_mle(surface_with([1.0, 0.0, 0.0]))
    assert est.g_mle == 44.0
    assert not est.refined
    est = posterior_and_mle(surface_with([0.0, 0.0, 1.0]))
    assert est.g_mle == 46.0
    assert not est.refined


def test_mle_tie_resolves_to_smallest_candidate():
    est = posterior_and_mle(surface_with([1.0, 1.0, 0.0]))
    assert est.g_mle == 44.0


def test_mle_flat_surface_keeps_grid_value():
    est = posterior_and_mle(surface_with([1.0, 1.0, 1.0]))
    assert est.g_mle == 44.0
    assert not est.refined


def test_mle_refine_disabled():
    est = posterior_and_mle(surface_with([0.0, 1.0, 0.5]), refine=False)
    assert est.g_mle == 45.0
    assert not est.refined


def test_mle_infinite_neighbor_skips_refinement():
    est = posterior_and_mle(surface_with([-np.inf, 1.0, 0.5]))
    assert est.g_mle == 45.0
    assert not est.refined


def test_estimate_recovers_true_coupling(flux_model):
    # a few hundred events across records pin the coupling well inside one
    # grid step on average
    records = [simulate_record(flux_model, 3.0, 0.0, 4.0, seed=900 + i) for i in range(8)]
    grid = GGrid(1.0, 5.0, 0.5)
    estimates = [
        posterior_and_mle(likelihood_surface(flux_model, r, grid)) for r in records
    ]
    g_hats = [e.g_mle for e in estimates]
    assert abs(np.mean(g_hats) - 3.0) < 0.5


# ------------------------------------------------------------- partial scans


def test_time_series_checkpoint_conventions(small_model):
    record = ClassicalRecord(
        t0=0.0, tf=1.0, times=np.array([0.25, 0.75]), channels=np.array([1, 1])
    )
    grid = GGrid(1.0, 5.0, 1.0)
    checkpoints = [0.1, 0.25, 0.5, 1.0]
    series = estimate_time_series(small_model, record, grid, checkpoints)
    assert [e.time for e in series] == checkpoints
    assert [e.jump_index for e in series] == [0, 1, 1, 2]


def test_time_series_final_checkpoint_matches_full_surface(small_model):
    # a checkpoint runs exactly the arithmetic of scoring the record cut at
    # it, so every checkpoint matches bit for bit, also when a shorter
    # renormalization chunk splits the gap before a checkpoint into several
    record = simulate_record(small_model, 3.0, 0.0, 1.0, seed=28)
    grid = GGrid(1.0, 5.0, 0.5)
    checkpoints = [0.3, 0.55, 0.8, record.tf]
    gaps = [t - max(record.times[record.times <= t], default=record.t0) for t in checkpoints]
    assert max(gaps) >= 2 * 0.013
    default = qsysid.inference._RENORM_LOG_BUDGET
    for budget in (default, 0.013 * max_total_decay_rate(small_model)):
        with patch.object(qsysid.inference, "_RENORM_LOG_BUDGET", budget):
            series = estimate_time_series(small_model, record, grid, checkpoints)
            for t, est in zip(checkpoints, series):
                kept = record.times <= t
                cut = ClassicalRecord(
                    t0=record.t0, tf=t, times=record.times[kept], channels=record.channels[kept]
                )
                full = posterior_and_mle(likelihood_surface(small_model, cut, grid))
                assert est.g_mle == full.g_mle
                assert est.posterior_mean == full.posterior_mean
                assert est.posterior_sd == full.posterior_sd
                assert est.time == full.time == t
                assert est.jump_index == full.jump_index == cut.n_events
    assert series[-1].jump_index == record.n_events


def test_time_series_at_window_start_is_uninformative(small_model):
    record = simulate_record(small_model, 3.0, 0.0, 1.0, seed=29)
    grid = GGrid(1.0, 5.0, 1.0)
    (est,) = estimate_time_series(small_model, record, grid, [0.0])
    assert est.jump_index == 0
    assert est.g_mle == grid.values[0]  # flat posterior ties to the smallest g
    assert est.posterior_mean == pytest.approx(float(np.mean(grid.values)))


def test_time_series_rejects_bad_checkpoints(small_model):
    record = simulate_record(small_model, 3.0, 0.0, 1.0, seed=30)
    grid = GGrid(1.0, 5.0, 1.0)
    with pytest.raises(InvalidParametersError):
        estimate_time_series(small_model, record, grid, [0.5, 0.2])
    with pytest.raises(InvalidParametersError):
        estimate_time_series(small_model, record, grid, [1.5])
    with pytest.raises(InvalidParametersError):
        estimate_time_series(small_model, record, grid, [-0.1, 0.5])
    with pytest.raises(InvalidParametersError):
        estimate_time_series(small_model, record, grid, [0.2, float("nan")])
    assert estimate_time_series(small_model, record, grid, []) == []
