"""Versioned JSON formats for configs and records, plus the CSV outputs.

Floats are serialized with Python's shortest round-trip repr, so every file
is lossless and byte-stable for a given input. Config parsing is strict:
unknown keys are rejected by name rather than silently ignored.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dynamics import ClassicalRecord
from .ensemble import ConvergenceStats, MleHistogram
from .errors import ConfigError, FormatError, InvalidParametersError
from .inference import DEFAULT_GRID_MIN, DEFAULT_GRID_STEP, GGrid, LikelihoodSurface, posterior
from .model import ModelParams

CONFIG_SCHEMA = "qsysid-config/1"
RECORD_SCHEMA = "qsysid-record/1"

_CONFIG_KEYS = {
    "schema",
    "g0_mhz",
    "gamma_perp_mhz",
    "kappa_mhz",
    "epsilon_mhz",
    "n_trunc",
    "g_true_mhz",
    "grid",
    "t0_us",
    "tf_us",
    "seed",
    "n_traj",
    "checkpoints_us",
    "refine",
}
_GRID_KEYS = {"min_mhz", "max_mhz", "step_mhz"}
_RECORD_KEYS = {"schema", "t0_us", "tf_us", "events", "metadata"}
_EVENT_KEYS = {"t_us", "channel"}


@dataclass(frozen=True)
class Config:
    """One experiment description: physics, grid, window, and run options."""

    g0: float
    gamma_perp: float
    kappa: float
    epsilon: float
    n_trunc: int
    g_true: float
    grid_min: float
    grid_max: float
    grid_step: float
    t0: float
    tf: float
    seed: int
    n_traj: int
    checkpoints: tuple[float, ...] | None = None
    refine: bool = True

    def model_params(self) -> ModelParams:
        return ModelParams(
            g0=self.g0,
            gamma_perp=self.gamma_perp,
            kappa=self.kappa,
            epsilon=self.epsilon,
            n_trunc=self.n_trunc,
        )

    def grid(self) -> GGrid:
        return GGrid(self.grid_min, self.grid_max, self.grid_step)


def _as_number(value, key: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"expected a number, got {value!r}", key=key)
    if not math.isfinite(value):
        raise ConfigError(f"expected a finite number, got {value!r}", key=key)
    return float(value)


def _as_int(value, key: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"expected an integer, got {value!r}", key=key)
    return value


def _as_bool(value, key: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"expected true/false, got {value!r}", key=key)
    return value


def _required(raw: dict, key: str):
    if key not in raw:
        raise ConfigError("missing required key", key=key)
    return raw[key]


def parse_config(path) -> Config:
    """Read and validate a config file; every violation names its key."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config top level must be a JSON object")
    unknown = sorted(set(raw) - _CONFIG_KEYS)
    if unknown:
        raise ConfigError("unknown key", key=unknown[0])
    schema = raw.get("schema", CONFIG_SCHEMA)
    if schema != CONFIG_SCHEMA:
        raise ConfigError(f"unsupported schema {schema!r}", key="schema")

    g0 = _as_number(_required(raw, "g0_mhz"), "g0_mhz")
    gamma_perp = _as_number(_required(raw, "gamma_perp_mhz"), "gamma_perp_mhz")
    kappa = _as_number(_required(raw, "kappa_mhz"), "kappa_mhz")
    epsilon = _as_number(_required(raw, "epsilon_mhz"), "epsilon_mhz")
    n_trunc = _as_int(_required(raw, "n_trunc"), "n_trunc")
    g_true = _as_number(_required(raw, "g_true_mhz"), "g_true_mhz")
    t0 = _as_number(_required(raw, "t0_us"), "t0_us")
    tf = _as_number(_required(raw, "tf_us"), "tf_us")
    seed = _as_int(_required(raw, "seed"), "seed")
    n_traj = _as_int(_required(raw, "n_traj"), "n_traj")

    for key, value in (
        ("g0_mhz", g0),
        ("gamma_perp_mhz", gamma_perp),
        ("kappa_mhz", kappa),
        ("epsilon_mhz", epsilon),
        ("g_true_mhz", g_true),
    ):
        if value < 0:
            raise ConfigError(f"must be >= 0, got {value}", key=key)
    if kappa + gamma_perp <= 0:
        raise ConfigError(
            "kappa_mhz + gamma_perp_mhz must be > 0 (no decay channel)",
            key="kappa_mhz",
        )
    if n_trunc < 1:
        raise ConfigError(f"must be >= 1, got {n_trunc}", key="n_trunc")
    if not tf > t0:
        raise ConfigError(f"need tf_us > t0_us, got [{t0}, {tf}]", key="tf_us")
    if seed < 0:
        raise ConfigError(f"must be >= 0, got {seed}", key="seed")
    if n_traj < 1:
        raise ConfigError(f"must be >= 1, got {n_traj}", key="n_traj")

    if "grid" in raw:
        grid_raw = raw["grid"]
        if not isinstance(grid_raw, dict):
            raise ConfigError("grid must be an object", key="grid")
        unknown = sorted(set(grid_raw) - _GRID_KEYS)
        if unknown:
            raise ConfigError("unknown key", key=f"grid.{unknown[0]}")
        grid_min = _as_number(_required(grid_raw, "min_mhz"), "grid.min_mhz")
        grid_max = _as_number(_required(grid_raw, "max_mhz"), "grid.max_mhz")
        grid_step = _as_number(_required(grid_raw, "step_mhz"), "grid.step_mhz")
    else:
        grid_min, grid_max, grid_step = DEFAULT_GRID_MIN, g0, DEFAULT_GRID_STEP
    if grid_min < 0:
        raise ConfigError(f"must be >= 0, got {grid_min}", key="grid.min_mhz")
    if grid_max <= grid_min:
        raise ConfigError(
            f"need max_mhz > min_mhz, got [{grid_min}, {grid_max}]",
            key="grid.max_mhz",
        )
    if grid_step <= 0:
        raise ConfigError(f"must be > 0, got {grid_step}", key="grid.step_mhz")

    checkpoints: tuple[float, ...] | None = None
    if "checkpoints_us" in raw:
        cp_raw = raw["checkpoints_us"]
        if not isinstance(cp_raw, list) or not cp_raw:
            raise ConfigError("must be a non-empty array", key="checkpoints_us")
        cp = tuple(_as_number(v, "checkpoints_us") for v in cp_raw)
        if any(b < a for a, b in zip(cp, cp[1:])):
            raise ConfigError("must be ascending", key="checkpoints_us")
        if cp[0] < t0 or cp[-1] > tf:
            raise ConfigError(
                f"must lie within [{t0}, {tf}]", key="checkpoints_us"
            )
        checkpoints = cp

    refine = _as_bool(raw["refine"], "refine") if "refine" in raw else True

    return Config(
        g0=g0,
        gamma_perp=gamma_perp,
        kappa=kappa,
        epsilon=epsilon,
        n_trunc=n_trunc,
        g_true=g_true,
        grid_min=grid_min,
        grid_max=grid_max,
        grid_step=grid_step,
        t0=t0,
        tf=tf,
        seed=seed,
        n_traj=n_traj,
        checkpoints=checkpoints,
        refine=refine,
    )


def write_record(path, record: ClassicalRecord) -> None:
    """Serialize a validated record to versioned JSON."""
    record.validate()
    obj = {
        "schema": RECORD_SCHEMA,
        "t0_us": record.t0,
        "tf_us": record.tf,
        "events": [
            {"t_us": float(t), "channel": int(c)}
            for t, c in zip(record.times, record.channels)
        ],
        "metadata": record.metadata,
    }
    Path(path).write_text(json.dumps(obj, indent=2) + "\n")


def _event_line(text: str, event_index: int) -> int | None:
    """1-based line of the event_index-th (0-based) "t_us" occurrence."""
    seen = 0
    for line_no, line in enumerate(text.splitlines(), start=1):
        seen += line.count('"t_us"')
        if seen > event_index:
            return line_no
    return None


def read_record(path) -> ClassicalRecord:
    """Parse and validate a record file."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise FormatError(f"cannot read record file: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise FormatError("record top level must be a JSON object")
    unknown = sorted(set(raw) - _RECORD_KEYS)
    if unknown:
        raise FormatError(f"unknown key {unknown[0]!r}")
    schema = raw.get("schema", RECORD_SCHEMA)
    if schema != RECORD_SCHEMA:
        raise FormatError(f"unsupported schema {schema!r}")
    for key in ("t0_us", "tf_us", "events"):
        if key not in raw:
            raise FormatError(f"missing required key {key!r}")
    t0 = raw["t0_us"]
    tf = raw["tf_us"]
    for key, value in (("t0_us", t0), ("tf_us", tf)):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise FormatError(f"{key} must be a number, got {value!r}")
    if not isinstance(raw["events"], list):
        raise FormatError("events must be an array")
    metadata = raw.get("metadata", {})
    if not isinstance(metadata, dict):
        raise FormatError("metadata must be an object")
    times: list[float] = []
    channels: list[int] = []
    for i, event in enumerate(raw["events"]):
        if not isinstance(event, dict):
            raise FormatError(f"event {i} must be an object", line=_event_line(text, i))
        unknown = sorted(set(event) - _EVENT_KEYS)
        if unknown:
            raise FormatError(
                f"event {i} has unknown key {unknown[0]!r}", line=_event_line(text, i)
            )
        if "t_us" not in event or "channel" not in event:
            raise FormatError(
                f"event {i} needs t_us and channel", line=_event_line(text, i)
            )
        t = event["t_us"]
        c = event["channel"]
        if isinstance(t, bool) or not isinstance(t, (int, float)) or not math.isfinite(t):
            raise FormatError(
                f"event {i} time must be a finite number, got {t!r}",
                line=_event_line(text, i),
            )
        if isinstance(c, bool) or not isinstance(c, int) or c not in (0, 1):
            raise FormatError(
                f"event {i} channel must be 0 or 1, got {c!r}",
                line=_event_line(text, i),
            )
        if t < t0 or t > tf:
            raise FormatError(
                f"event {i} time {t} outside window [{t0}, {tf}]",
                line=_event_line(text, i),
            )
        if times and t <= times[-1]:
            raise FormatError(
                f"event times must be strictly increasing ({times[-1]} then {t})",
                line=_event_line(text, i),
            )
        times.append(float(t))
        channels.append(int(c))
    record = ClassicalRecord(
        t0=float(t0),
        tf=float(tf),
        times=np.asarray(times, dtype=float),
        channels=np.asarray(channels, dtype=np.int64),
        metadata=metadata,
    )
    record.validate()
    return record


def _write_csv(path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _fmt(value: float) -> str:
    return repr(float(value))


def write_surface_csv(path, surface: LikelihoodSurface) -> None:
    """Final likelihood surface: g_mhz, loglik, posterior columns."""
    rows = [
        [_fmt(g), _fmt(ll), _fmt(p)]
        for g, ll, p in zip(surface.grid.values, surface.loglik, posterior(surface.loglik))
    ]
    _write_csv(path, ["g_mhz", "loglik", "posterior"], rows)


def write_history_csv(path, surface: LikelihoodSurface) -> None:
    """Per-jump surface snapshots: jump_index, g_mhz, loglik, posterior."""
    if surface.history is None:
        raise InvalidParametersError(
            "surface has no history; recompute with with_history=True"
        )
    rows = []
    for i in range(surface.history.shape[0]):
        snapshot = surface.history[i]
        for g, ll, p in zip(surface.grid.values, snapshot, posterior(snapshot)):
            rows.append([str(i + 1), _fmt(g), _fmt(ll), _fmt(p)])
    _write_csv(path, ["jump_index", "g_mhz", "loglik", "posterior"], rows)


def write_stats_csv(path, stats: ConvergenceStats) -> None:
    """MLE spread vs time: time_us, n, mean_mle_mhz, std_mle_mhz, rms_err_mhz."""
    rows = [
        [_fmt(t), str(int(n)), _fmt(m), _fmt(s), _fmt(r)]
        for t, n, m, s, r in zip(
            stats.times, stats.n, stats.mean_mle, stats.std_mle, stats.rms_err
        )
    ]
    _write_csv(path, ["time_us", "n", "mean_mle_mhz", "std_mle_mhz", "rms_err_mhz"], rows)


def write_hist_csv(path, histogram: MleHistogram) -> None:
    """MLE histogram at one checkpoint: time_us, bin_center_mhz, count."""
    rows = [
        [_fmt(histogram.time), _fmt(center), str(int(count))]
        for center, count in zip(histogram.bin_centers, histogram.counts)
    ]
    _write_csv(path, ["time_us", "bin_center_mhz", "count"], rows)
