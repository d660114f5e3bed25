import json

import numpy as np
import pytest

from qsysid import (
    ClassicalRecord,
    Config,
    ConfigError,
    FormatError,
    GGrid,
    InvalidParametersError,
    LikelihoodSurface,
    ModelParams,
    build_model,
    likelihood_surface,
    parse_config,
    read_record,
    simulate_record,
    write_hist_csv,
    write_history_csv,
    write_record,
    write_stats_csv,
    write_surface_csv,
)
from qsysid.ensemble import ConvergenceStats, MleHistogram

BASE_CONFIG = {
    "schema": "qsysid-config/1",
    "g0_mhz": 57.0,
    "gamma_perp_mhz": 2.5,
    "kappa_mhz": 30.0,
    "epsilon_mhz": 44.3,
    "n_trunc": 30,
    "g_true_mhz": 45.0,
    "grid": {"min_mhz": 35.0, "max_mhz": 57.0, "step_mhz": 1.0},
    "t0_us": 0.0,
    "tf_us": 1.0,
    "seed": 1,
    "n_traj": 10,
}


def write_json(tmp_path, obj, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj, indent=2) + "\n")
    return path


def config_with(tmp_path, **overrides):
    obj = dict(BASE_CONFIG)
    obj.update(overrides)
    for key, value in list(obj.items()):
        if value is None:
            del obj[key]
    return write_json(tmp_path, obj)


# -------------------------------------------------------------------- config


def test_parse_config_happy_path(tmp_path):
    cfg = parse_config(config_with(tmp_path))
    assert cfg.g0 == 57.0
    assert cfg.kappa == 30.0
    assert cfg.n_trunc == 30
    assert (cfg.grid_min, cfg.grid_max, cfg.grid_step) == (35.0, 57.0, 1.0)
    assert cfg.refine is True
    assert cfg.checkpoints is None
    assert cfg.grid().n == 23
    assert cfg.model_params() == ModelParams(57.0, 2.5, 30.0, 44.3, 30)


def test_config_round_trip(tmp_path):
    # every field, none at its default
    path = write_json(
        tmp_path,
        {
            "schema": "qsysid-config/1",
            "g0_mhz": 6.0, "gamma_perp_mhz": 0.8, "kappa_mhz": 1.5, "epsilon_mhz": 2.0,
            "n_trunc": 6, "g_true_mhz": 3.0,
            "grid": {"min_mhz": 1.0, "max_mhz": 5.0, "step_mhz": 0.5},
            "t0_us": 0.0, "tf_us": 2.0, "seed": 11, "n_traj": 4,
            "checkpoints_us": [0.5, 1.0, 2.0], "refine": False,
        },
    )
    assert parse_config(path) == Config(
        g0=6.0, gamma_perp=0.8, kappa=1.5, epsilon=2.0, n_trunc=6,
        g_true=3.0, grid_min=1.0, grid_max=5.0, grid_step=0.5,
        t0=0.0, tf=2.0, seed=11, n_traj=4,
        checkpoints=(0.5, 1.0, 2.0), refine=False,
    )


def test_schema_optional_but_checked(tmp_path):
    assert parse_config(config_with(tmp_path, schema=None)).g0 == 57.0
    with pytest.raises(ConfigError) as err:
        parse_config(config_with(tmp_path, schema="qsysid-config/9"))
    assert err.value.key == "schema"


def test_unknown_key_rejected_by_name(tmp_path):
    with pytest.raises(ConfigError) as err:
        parse_config(config_with(tmp_path, banana=1))
    assert err.value.key == "banana"
    with pytest.raises(ConfigError) as err:
        parse_config(
            config_with(tmp_path, grid={"min_mhz": 0.0, "max_mhz": 1.0, "step_mhz": 0.5, "pad": 1})
        )
    assert err.value.key == "grid.pad"


def test_missing_required_key_named(tmp_path):
    with pytest.raises(ConfigError) as err:
        parse_config(config_with(tmp_path, kappa_mhz=None))
    assert err.value.key == "kappa_mhz"


@pytest.mark.parametrize(
    "overrides,key",
    [
        (dict(g0_mhz="57"), "g0_mhz"),
        (dict(g0_mhz=True), "g0_mhz"),
        (dict(n_trunc=30.0), "n_trunc"),
        (dict(n_trunc=0), "n_trunc"),
        (dict(gamma_perp_mhz=-1.0), "gamma_perp_mhz"),
        (dict(gamma_perp_mhz=0.0, kappa_mhz=0.0), "kappa_mhz"),
        (dict(tf_us=0.0), "tf_us"),
        (dict(n_traj=0), "n_traj"),
        (dict(seed=1.5), "seed"),
        (dict(refine="yes"), "refine"),
        (dict(with_history=True), "with_history"),  # retired: now an unknown key
        (dict(grid={"min_mhz": -1.0, "max_mhz": 1.0, "step_mhz": 0.5}), "grid.min_mhz"),
        (dict(grid={"min_mhz": 2.0, "max_mhz": 1.0, "step_mhz": 0.5}), "grid.max_mhz"),
        (dict(grid={"min_mhz": 0.0, "max_mhz": 1.0, "step_mhz": 0.0}), "grid.step_mhz"),
        (dict(checkpoints_us=[]), "checkpoints_us"),
        (dict(checkpoints_us=[0.5, 0.2]), "checkpoints_us"),
        (dict(checkpoints_us=[0.5, 1.5]), "checkpoints_us"),
        (dict(checkpoints_us=[-0.5]), "checkpoints_us"),
        (dict(seed=-1), "seed"),
    ],
)
def test_semantic_violations_name_their_key(tmp_path, overrides, key):
    with pytest.raises(ConfigError) as err:
        parse_config(config_with(tmp_path, **overrides))
    assert err.value.key == key


def test_grid_defaults_to_full_candidate_range(tmp_path):
    cfg = parse_config(config_with(tmp_path, grid=None))
    assert (cfg.grid_min, cfg.grid_max, cfg.grid_step) == (0.0, 57.0, 0.5)


def test_invalid_json_reports_config_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="invalid JSON"):
        parse_config(path)
    path.write_text('["a", "list"]')
    with pytest.raises(ConfigError, match="object"):
        parse_config(path)


# -------------------------------------------------------------------- record


def test_record_round_trip_preserves_bits(tmp_path):
    model = build_model(ModelParams(g0=6.0, gamma_perp=0.8, kappa=1.5, epsilon=2.0, n_trunc=6))
    record = simulate_record(model, 3.0, 0.0, 1.0, seed=77)
    assert record.n_events > 0
    path = tmp_path / "record.json"
    write_record(path, record)
    back = read_record(path)
    assert back == record  # includes exact times, channels, and metadata
    np.testing.assert_array_equal(back.times, record.times)
    # writing again produces identical bytes
    path2 = tmp_path / "record2.json"
    write_record(path2, back)
    assert path.read_bytes() == path2.read_bytes()


def test_record_awkward_floats_survive(tmp_path):
    times = np.array([0.1 + 0.2, 1.0 / 3.0, np.pi / 4.0])
    record = ClassicalRecord(t0=0.0, tf=1.0, times=times, channels=np.array([0, 1, 1]))
    path = tmp_path / "r.json"
    write_record(path, record)
    np.testing.assert_array_equal(read_record(path).times, times)


def test_read_record_schema_policy(tmp_path):
    obj = {"t0_us": 0.0, "tf_us": 1.0, "events": []}
    assert read_record(write_json(tmp_path, obj, "r1.json")).n_events == 0
    obj["schema"] = "qsysid-record/2"
    with pytest.raises(FormatError, match="schema"):
        read_record(write_json(tmp_path, obj, "r2.json"))


def test_read_record_rejects_unknown_and_missing_keys(tmp_path):
    with pytest.raises(FormatError, match="unknown key"):
        read_record(write_json(tmp_path, {"t0_us": 0.0, "tf_us": 1.0, "events": [], "x": 1}))
    with pytest.raises(FormatError, match="missing required key"):
        read_record(write_json(tmp_path, {"t0_us": 0.0, "tf_us": 1.0}))


def test_read_record_errors_carry_line_numbers(tmp_path):
    obj = {
        "schema": "qsysid-record/1",
        "t0_us": 0.0,
        "tf_us": 1.0,
        "events": [
            {"t_us": 0.3, "channel": 1},
            {"t_us": 0.2, "channel": 0},  # out of order
        ],
    }
    path = write_json(tmp_path, obj)
    with pytest.raises(FormatError, match="strictly increasing") as err:
        read_record(path)
    text = path.read_text()
    lines = text.splitlines()
    assert err.value.line is not None
    assert '"t_us": 0.2' in lines[err.value.line - 1]


@pytest.mark.parametrize(
    "event,message",
    [
        ({"t_us": 0.5, "channel": 2}, "channel"),
        ({"t_us": 0.5, "channel": True}, "channel"),
        ({"t_us": "0.5", "channel": 1}, "time"),
        ({"t_us": 1.5, "channel": 1}, "outside"),
        ({"t_us": 0.5}, "needs"),
        ({"t_us": 0.5, "channel": 1, "extra": 0}, "unknown"),
    ],
)
def test_read_record_rejects_bad_events(tmp_path, event, message):
    obj = {"t0_us": 0.0, "tf_us": 1.0, "events": [event]}
    with pytest.raises(FormatError, match=message) as err:
        read_record(write_json(tmp_path, obj))
    assert err.value.line is not None


# ----------------------------------------------------------------------- csv


@pytest.fixture(scope="module")
def scored_surface():
    model = build_model(ModelParams(g0=6.0, gamma_perp=0.8, kappa=1.5, epsilon=2.0, n_trunc=6))
    record = simulate_record(model, 3.0, 0.0, 1.0, seed=88)
    return likelihood_surface(model, record, GGrid(1.0, 5.0, 0.5), with_history=True)


def read_csv(path):
    lines = path.read_text().split("\n")
    assert lines[-1] == ""  # trailing newline, unix line endings
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:-1]]
    return header, rows


def test_surface_csv_round_trips_floats(tmp_path, scored_surface):
    path = tmp_path / "surface.csv"
    write_surface_csv(path, scored_surface)
    header, rows = read_csv(path)
    assert header == ["g_mhz", "loglik", "posterior"]
    assert len(rows) == scored_surface.grid.n
    g_back = np.array([float(r[0]) for r in rows])
    ll_back = np.array([float(r[1]) for r in rows])
    post_back = np.array([float(r[2]) for r in rows])
    np.testing.assert_array_equal(g_back, scored_surface.grid.values)
    np.testing.assert_array_equal(ll_back, scored_surface.loglik)
    np.testing.assert_array_equal(post_back, scored_surface.posterior())
    assert abs(post_back.sum() - 1.0) <= 1e-12
    assert "\r" not in path.read_text()


def test_history_csv_layout(tmp_path, scored_surface):
    path = tmp_path / "history.csv"
    write_history_csv(path, scored_surface)
    header, rows = read_csv(path)
    assert header == ["jump_index", "g_mhz", "loglik", "posterior"]
    n_events = scored_surface.history.shape[0]
    assert len(rows) == n_events * scored_surface.grid.n
    assert [int(r[0]) for r in rows[: scored_surface.grid.n]] == [1] * scored_surface.grid.n
    assert int(rows[-1][0]) == n_events


def test_history_csv_requires_history(tmp_path, scored_surface):
    bare = LikelihoodSurface(
        grid=scored_surface.grid, loglik=scored_surface.loglik, history=None,
        record_ref=scored_surface.record_ref, n_events=scored_surface.n_events,
        t0=scored_surface.t0, tf=scored_surface.tf,
    )
    with pytest.raises(InvalidParametersError, match="with_history"):
        write_history_csv(tmp_path / "h.csv", bare)


def test_stats_and_hist_csv(tmp_path):
    stats = ConvergenceStats(
        times=np.array([0.5, 1.0]),
        n=np.array([10, 10]),
        mean_mle=np.array([44.5, 45.1]),
        std_mle=np.array([1.5, 0.4]),
        rms_err=np.array([1.6, 0.42]),
    )
    path = tmp_path / "stats.csv"
    write_stats_csv(path, stats)
    header, rows = read_csv(path)
    assert header == ["time_us", "n", "mean_mle_mhz", "std_mle_mhz", "rms_err_mhz"]
    assert [float(r[0]) for r in rows] == [0.5, 1.0]
    assert [int(r[1]) for r in rows] == [10, 10]
    assert [float(r[3]) for r in rows] == [1.5, 0.4]

    hist = MleHistogram(
        time=1.0, bin_centers=np.array([35.5, 36.5]), counts=np.array([3, 7])
    )
    hpath = tmp_path / "hist.csv"
    write_hist_csv(hpath, hist)
    header, rows = read_csv(hpath)
    assert header == ["time_us", "bin_center_mhz", "count"]
    assert [int(r[2]) for r in rows] == [3, 7]
    assert all(float(r[0]) == 1.0 for r in rows)
