"""Batched simulate-then-estimate experiments with reproducible seeding."""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .dynamics import _check_window, simulate_record
from .errors import InvalidParametersError, QsysidError, StatisticsError
from .inference import Estimate, GGrid, _check_cut_times, _prepare_grid, estimate_time_series
from .model import Model, ModelParams, _check_integer, _finite

DEFAULT_N_CHECKPOINTS = 20


def trajectory_seed(master_seed: int, index: int) -> int:
    """Stable per-trajectory seed: first 8 bytes of SHA-256("master:index")."""
    digest = hashlib.sha256(f"{master_seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def default_checkpoints(t0: float, tf: float) -> tuple[float, ...]:
    """DEFAULT_N_CHECKPOINTS uniformly spaced checkpoint times over (t0, tf]."""
    n = DEFAULT_N_CHECKPOINTS
    return tuple(t0 + (tf - t0) * (k + 1) / n for k in range(n))


@dataclass(frozen=True)
class EnsembleResult:
    """Everything needed to reduce an ensemble run to statistics.

    estimates[i] is the per-checkpoint estimate tuple for trajectory i, or
    None when that trajectory failed; event_counts[i] is None in that case
    too. failures carries (trajectory index, reason) pairs.
    """

    params: ModelParams
    g_true: float
    grid: GGrid
    t0: float
    tf: float
    checkpoints: tuple[float, ...]
    master_seed: int
    seeds: tuple[int, ...]
    estimates: tuple[tuple[Estimate, ...] | None, ...]
    event_counts: tuple[int | None, ...]
    failures: tuple[tuple[int, str], ...]

    @property
    def n_traj(self) -> int:
        return len(self.seeds)

    @property
    def n_surviving(self) -> int:
        return sum(1 for e in self.estimates if e is not None)


def run_ensemble(
    model: Model,
    g_true: float,
    grid: GGrid,
    n_traj: int,
    t0: float,
    tf: float,
    checkpoints=None,
    master_seed: int = 0,
    refine: bool = True,
) -> EnsembleResult:
    """Simulate n_traj records and estimate each at every checkpoint.

    Trajectories are independent jobs with seeds derived from master_seed,
    so the result does not depend on execution order; failed trajectories
    are recorded and skipped rather than aborting the run. A bad window or
    checkpoint list raises InvalidParametersError before any simulation.
    """
    _check_integer("n_traj", n_traj, 1)
    _check_window(t0, tf)
    if checkpoints is None:
        checkpoints = default_checkpoints(t0, tf)
    checkpoints = tuple(_check_cut_times(checkpoints, t0, tf).tolist())
    seeds = tuple(trajectory_seed(master_seed, i) for i in range(n_traj))
    estimates: list[tuple[Estimate, ...] | None] = []
    event_counts: list[int | None] = []
    failures: list[tuple[int, str]] = []
    prepared = _prepare_grid(model, grid)  # once for every trajectory
    for i, seed in enumerate(seeds):
        try:
            record = simulate_record(model, g_true, t0, tf, seed)
            series = estimate_time_series(model, record, prepared, checkpoints, refine=refine)
            estimates.append(tuple(series))
            event_counts.append(record.n_events)
        except QsysidError as exc:
            failures.append((i, str(exc)))
            estimates.append(None)
            event_counts.append(None)
    return EnsembleResult(
        params=model.params,
        g_true=float(g_true),
        grid=grid,
        t0=float(t0),
        tf=float(tf),
        checkpoints=checkpoints,
        master_seed=int(master_seed),
        seeds=seeds,
        estimates=tuple(estimates),
        event_counts=tuple(event_counts),
        failures=tuple(failures),
    )


@dataclass(frozen=True)
class ConvergenceStats:
    """Spread of the MLE across trajectories at each checkpoint."""

    times: np.ndarray
    n: np.ndarray
    mean_mle: np.ndarray
    std_mle: np.ndarray    # about the ensemble mean, ddof=1
    rms_err: np.ndarray    # about g_true


@dataclass(frozen=True)
class MleHistogram:
    """MLE histogram at one checkpoint, binned over the grid range."""

    time: float
    bin_centers: np.ndarray
    counts: np.ndarray


def _mles_at(result: EnsembleResult, checkpoint_index: int) -> np.ndarray:
    return np.asarray(
        [
            est[checkpoint_index].g_mle
            for est in result.estimates
            if est is not None
        ],
        dtype=float,
    )


def summarize(
    result: EnsembleResult, hist_time: float, bin_width: float
) -> tuple[ConvergenceStats, MleHistogram]:
    """Reduce an ensemble to MLE-spread-vs-time plus one histogram.

    hist_time must be one of the result's checkpoints; bins cover the grid
    range [g_min, g_max] with the given width.
    """
    if result.n_surviving < 2:
        raise StatisticsError(
            f"need at least 2 surviving trajectories, got {result.n_surviving}"
        )
    if not (_finite(bin_width) and bin_width > 0):
        raise InvalidParametersError(f"bin_width must be finite and > 0, got {bin_width!r}", field="bin_width")
    if not _finite(hist_time):
        raise InvalidParametersError(f"hist_time must be finite, got {hist_time!r}", field="hist_time")
    times = np.asarray(result.checkpoints, dtype=float)
    matches = np.flatnonzero(np.isclose(times, hist_time, rtol=0.0, atol=1e-12))
    if matches.size == 0:
        raise InvalidParametersError(
            f"hist_time {hist_time} is not one of the checkpoints"
        )
    n_cp = times.size
    counts = np.empty(n_cp, dtype=int)
    mean = np.empty(n_cp)
    std = np.empty(n_cp)
    rms = np.empty(n_cp)
    for k in range(n_cp):
        mles = _mles_at(result, k)
        counts[k] = mles.size
        mean[k] = mles.mean()
        std[k] = mles.std(ddof=1)
        rms[k] = math.sqrt(float(np.mean((mles - result.g_true) ** 2)))
    grid = result.grid
    n_bins = max(1, math.ceil((grid.g_max - grid.g_min) / bin_width - 1e-9))
    edges = grid.g_min + bin_width * np.arange(n_bins + 1, dtype=float)
    hist_mles = _mles_at(result, int(matches[0]))
    hist_counts, _ = np.histogram(hist_mles, bins=edges)
    stats = ConvergenceStats(times=times, n=counts, mean_mle=mean, std_mle=std, rms_err=rms)
    histogram = MleHistogram(
        time=float(hist_time),
        bin_centers=edges[:-1] + 0.5 * bin_width,
        counts=hist_counts,
    )
    return stats, histogram


def count_statistics(result: EnsembleResult) -> tuple[float, float, float]:
    """Mean, variance (ddof=1), and Fano factor of per-record event counts;
    StatisticsError unless 2 records survive and one of them has an event."""
    counts = np.asarray([c for c in result.event_counts if c is not None], dtype=float)
    if counts.size < 2:
        raise StatisticsError(f"need at least 2 counts, got {counts.size}")
    mean = float(counts.mean())
    if mean == 0.0:
        raise StatisticsError(f"no event in any of the {counts.size} records: the Fano factor is undefined")
    var = float(counts.var(ddof=1))
    return mean, var, var / mean
