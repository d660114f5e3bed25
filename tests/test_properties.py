"""Properties over random inputs: record files round-trip byte-exact, the
posterior is a distribution that gives impossible candidates no mass, the
streaming log-likelihood matches dense oracles on both propagator paths, up
to n_trunc 40 and strong damping, and history rows are the scores of the
truncated records."""

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsysid import (
    METHOD_FALLBACK,
    ClassicalRecord,
    GGrid,
    ModelParams,
    NumericError,
    build_model,
    likelihood_surface,
    log_likelihood,
    posterior,
    read_record,
    write_record,
)

from conftest import forced_path
from oracles import chunked_log_density, direct_log_density, sample_record

TWO_PI = 2.0 * math.pi

finite = st.floats(allow_nan=False, allow_infinity=False)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | finite | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def records(draw):
    t0 = draw(st.floats(-1e6, 1e6))
    tf = draw(st.floats(t0, 1e6))
    times = sorted(draw(st.lists(st.floats(t0, tf), unique=True, max_size=20)))
    channels = draw(st.lists(st.sampled_from([0, 1]), min_size=len(times), max_size=len(times)))
    metadata = draw(st.dictionaries(st.text(), json_values, max_size=4))
    return ClassicalRecord(
        t0=t0, tf=tf, times=np.array(times, dtype=float), channels=np.array(channels, dtype=np.int64),
        metadata=metadata,
    )


@settings(deadline=None)
@given(records())
def test_record_file_round_trips_byte_exact(record):
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "a.json", Path(tmp) / "b.json"
        write_record(first, record)
        back = read_record(first)
        write_record(second, back)
        assert second.read_bytes() == first.read_bytes()
    assert back == record
    assert back.digest() == record.digest()


# at least one possible candidate, any number of impossible (-inf) ones, in any order
log_likelihoods = st.tuples(st.lists(finite, min_size=1, max_size=30), st.integers(0, 10)).flatmap(
    lambda parts: st.permutations(parts[0] + [-math.inf] * parts[1])
)


@given(log_likelihoods)
def test_posterior_is_a_distribution_without_impossible_mass(values):
    loglik = np.array(values)
    weights = posterior(loglik)
    assert weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(weights[loglik == -np.inf] == 0.0)
    assert np.all(weights >= 0.0)
    assert weights[np.argmax(loglik)] == weights.max()


@given(log_likelihoods, st.data())
def test_posterior_rejects_nan(values, data):
    i = data.draw(st.integers(0, len(values)))
    with pytest.raises(NumericError):
        posterior(np.array(values[:i] + [math.nan] + values[i:]))


@st.composite
def scoring_cases(draw):
    """A small random model, a record on [0, 1] and a coupling, g = 0 included."""
    params = ModelParams(
        g0=6.0,
        gamma_perp=draw(st.floats(0.2, 1.5)),
        kappa=draw(st.floats(0.3, 2.0)),
        epsilon=draw(st.floats(0.3, 1.5)),
        n_trunc=draw(st.integers(1, 3)),
    )
    times = sorted(draw(st.lists(st.floats(0.01, 0.99), unique=True, max_size=5)))
    channels = draw(st.lists(st.sampled_from([0, 1]), min_size=len(times), max_size=len(times)))
    record = ClassicalRecord(
        t0=0.0, tf=1.0, times=np.array(times, dtype=float), channels=np.array(channels, dtype=np.int64)
    )
    g = draw(st.just(0.0) | st.floats(0.1, 5.0))
    return build_model(params), record, g


def assert_both_paths_match(model, record, g, want):
    """On the path the scorer picks and on the fallback forced: within 1e-9
    of the oracle's `want`, and -inf exactly where it is -inf."""
    with forced_path(METHOD_FALLBACK):
        fallback = log_likelihood(model, record, g)
    for got in (log_likelihood(model, record, g), fallback):
        if want == -math.inf:
            assert got == -math.inf
        else:
            assert got == pytest.approx(want, rel=1e-9, abs=1e-9)


@settings(deadline=None)
@given(scoring_cases())
def test_streaming_likelihood_matches_dense_oracle(case):
    model, record, g = case
    assert_both_paths_match(model, record, g, direct_log_density(model, record, g))


@st.composite
def stress_cases(draw):
    """A model up to n_trunc 40 with strong damping and drive, and a record
    drawn from it at a coupling g_true over two decay times of its slower
    channel."""
    params = ModelParams(
        g0=60.0,
        gamma_perp=draw(st.floats(1.0, 300.0)),
        kappa=draw(st.floats(1.0, 1e3)),
        epsilon=draw(st.floats(0.0, 100.0)),
        n_trunc=draw(st.integers(1, 40)),
    )
    model = build_model(params)
    g_true = draw(st.floats(0.0, 60.0, exclude_min=True))
    tf = 2.0 / (2.0 * TWO_PI * min(params.kappa, params.gamma_perp))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    return model, sample_record(model, g_true, tf, rng), g_true


@settings(deadline=None, max_examples=50)
@given(stress_cases())
def test_streaming_likelihood_matches_chunked_oracle_under_stress(case):
    # g_true and g = 0 (-inf where the atom has fired), on records the model
    # makes plausible: on hand-placed records that repeat atomic detections
    # a candidate makes improbable, the eigen path's error compounds per
    # detection (1.6e-9 relative after four at n_trunc 37, kappa 10, gamma
    # 16, eps 0.5, g 2 MHz), while the fallback stays within 1e-15
    model, record, g_true = case
    for g in (0.0, g_true):
        assert_both_paths_match(model, record, g, chunked_log_density(model, record, g))


def test_streaming_likelihood_matches_chunked_oracle_on_sampled_compounding_record():
    # a falsifying example of the stress property: eight atomic detections
    # over two decay times of kappa, scored at g 14, where the eigen path
    # was 1.30e-9 (relative) off the oracle with every detection applied in
    # coordinates, and the forced fallback within 3e-16; before each of the
    # last four, the coordinates' norm passes psi's by 200 to 4700
    model = build_model(ModelParams(g0=60.0, gamma_perp=77.0, kappa=1.0, epsilon=5.0, n_trunc=18))
    times = [
        0.05156620156177409, 0.07289296393608806, 0.09883521966006702, 0.12286761606694321,
        0.12684648964424058, 0.12875634896134333, 0.13098451816462986, 0.14228451912415443,
    ]
    record = ClassicalRecord(t0=0.0, tf=0.15915494309189535, times=times, channels=[0] * len(times))
    assert_both_paths_match(model, record, 14.0, chunked_log_density(model, record, 14.0))


def test_streaming_likelihood_matches_chunked_oracle_on_sampled_cancelling_record():
    # a falsifying example of the stress property: 82 events, 76 of them
    # atomic, over two decay times of kappa, drawn and scored at g 56. With
    # every detection applied in coordinates, whose norm passes psi's by up
    # to 4e4 there, the eigen path was 1.6e-9 (relative) off the oracle
    params = ModelParams(g0=60.0, gamma_perp=197.0, kappa=1.0, epsilon=24.0, n_trunc=21)
    model = build_model(params)
    record = sample_record(model, 56.0, 2.0 / (2.0 * TWO_PI * params.kappa), np.random.default_rng(1))
    assert record.n_events == 82
    assert_both_paths_match(model, record, 56.0, chunked_log_density(model, record, 56.0))


@settings(deadline=None)
@given(scoring_cases())
def test_history_rows_are_scores_of_truncated_records(case):
    model, record, g = case
    grid = GGrid(g, g + 2.0, 1.0)
    history = likelihood_surface(model, record, grid, with_history=True).history
    assert history.shape == (record.n_events, grid.n)
    for i, t_i in enumerate(record.times):
        truncated = ClassicalRecord(
            t0=record.t0, tf=float(t_i), times=record.times[: i + 1], channels=record.channels[: i + 1]
        )
        want = likelihood_surface(model, truncated, grid).loglik
        np.testing.assert_array_equal(history[i] == -np.inf, want == -np.inf)
        possible = want > -np.inf
        assert np.abs(history[i][possible] - want[possible]).max(initial=0.0) <= 1e-10
