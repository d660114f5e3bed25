"""Properties over random inputs: record files round-trip byte-exact, and the
posterior is a distribution that gives impossible candidates no mass."""

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsysid import ClassicalRecord, posterior, read_record, write_record

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
