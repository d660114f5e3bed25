"""Record likelihood over candidate couplings, posterior, and MLE refinement.

The log-likelihood of a record under coupling g is the log of the squared
norm of the unnormalized conditional state after alternating exact
no-detection evolution and collapse-operator applications along the record.
The constant dt^n measure factor is omitted: it is identical for every g, so
it cancels in the posterior and in any likelihood comparison.

Scoring walks the record once with the states for all grid candidates
stacked, in each candidate's eigen-coordinates (`dynamics.Propagator`):
an interval turns them, a detection is one real product, and every chunk
of no-detection evolution (at most `_RENORM_LOG_BUDGET` over the largest
total decay rate) and event is renormalized by the coordinates' norm with
the removed log factors summed, so nothing underflows even for event-free
windows hundreds of decay times long. A candidate under which a recorded
event has zero amplitude is excluded: its row is held at exactly zero and
its log-likelihood at -inf, which renormalization leaves as they are. The
state itself is formed only where a true norm closes the sum. That pass is
the only replay of a record in the package, and everything is a cut of it:
the surface is the record cut at tf, the per-jump history the cuts at the
event times, checkpoint estimates and the conditional states
(`conditional_states`, the pass on a stack of one candidate) the cuts at
their times. An ensemble prepares its grid once for all its records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dynamics import (_RENORM_LOG_BUDGET, ClassicalRecord, Detector, Propagator,
                       max_total_decay_rate, prepare_propagator)
from .errors import InvalidParametersError, NoEstimateError, NumericError
from .model import Model, ModelParams, effective_hamiltonian, ground_vacuum

DEFAULT_GRID_MIN = 0.0
DEFAULT_GRID_STEP = 0.5


@dataclass(frozen=True)
class GGrid:
    """Ordered coupling candidates g_min, g_min+step, ..., <= g_max (MHz)."""

    g_min: float
    g_max: float
    step: float
    values: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        for name in ("g_min", "g_max", "step"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidParametersError(f"{name} must be finite")
        if self.g_min < 0:
            raise InvalidParametersError(f"g_min must be >= 0, got {self.g_min}")
        if self.g_max <= self.g_min:
            raise InvalidParametersError(
                f"need g_max > g_min, got [{self.g_min}, {self.g_max}]"
            )
        if self.step <= 0:
            raise InvalidParametersError(f"step must be > 0, got {self.step}")
        n = int(math.floor((self.g_max - self.g_min) / self.step + 1e-9)) + 1
        values = np.minimum(self.g_min + self.step * np.arange(n, dtype=float), self.g_max)
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return int(self.values.size)


def default_grid(params: ModelParams) -> GGrid:
    """Search grid [0, g0] in 0.5 MHz steps."""
    return GGrid(DEFAULT_GRID_MIN, params.g0, DEFAULT_GRID_STEP)


@dataclass(frozen=True)
class LikelihoodSurface:
    """Log-likelihood of one record over a coupling grid.

    history[i] holds the per-candidate log-likelihood of the partial record
    through event i (jump factors included, no trailing no-detection
    segment), or None when history was not requested.
    """

    grid: GGrid
    loglik: np.ndarray
    history: np.ndarray | None
    record_ref: str
    n_events: int
    t0: float
    tf: float

    def posterior(self) -> np.ndarray:
        """Normalized posterior over the grid for a uniform prior."""
        return posterior(self.loglik)


@dataclass(frozen=True)
class Estimate:
    """Point estimate and posterior summary at one point in the record."""

    g_mle: float
    refined: bool
    posterior_mean: float
    posterior_sd: float
    jump_index: int
    time: float


def posterior(loglik: np.ndarray) -> np.ndarray:
    """Normalized posterior of a log-likelihood vector for a uniform prior.

    Softmax with max subtraction; -inf candidates get exactly zero mass.
    A NaN or +inf entry raises NumericError: it has no share to give.
    """
    if np.any(np.isnan(loglik) | (loglik == np.inf)):
        raise NumericError("log-likelihoods must be finite or -inf")
    m = float(np.max(loglik))
    if m == -np.inf:
        raise NoEstimateError("every grid candidate has zero likelihood")
    with np.errstate(over="ignore"):  # a gap past the float range is zero mass
        weights = np.exp(loglik - m)
    return weights / float(np.sum(weights))


def _row_norms_sq(states: np.ndarray) -> np.ndarray:
    return np.einsum("gd,gd->g", states, states)


def _prepare(model: Model, values) -> tuple[Propagator, tuple[Detector, Detector]]:
    """The stacked no-detection propagator of the couplings in values and,
    per detection channel, the collapse operator as that propagator applies
    it."""
    prop = Propagator.stack(
        [prepare_propagator(effective_hamiltonian(model, float(g))) for g in values]
    )
    # built after the per-candidate list above is freed: the collapses in
    # the eigenbasis take as much memory again as the basis and its inverse
    return prop, (Detector(prop, model.c0), Detector(prop, model.c1))


@dataclass(frozen=True, eq=False)
class _PreparedGrid:
    """A grid with its candidates prepared (`_prepare`) under one model.
    `run_ensemble` passes one to `estimate_time_series` in place of the
    grid, so that all its records are scored with one preparation."""

    grid: GGrid
    propagator: Propagator
    detectors: tuple[Detector, Detector]


def _prepare_grid(model: Model, grid: GGrid) -> _PreparedGrid:
    return _PreparedGrid(grid, *_prepare(model, grid.values))


def _renormalize(rows: np.ndarray, loglik: np.ndarray, n2: np.ndarray) -> None:
    """Divide each row by sqrt(n2) in place and add log(n2) to its loglik;
    a zero row (an excluded candidate, at -inf) stays as it is."""
    n2 = np.where(n2 > 0.0, n2, 1.0)
    loglik += np.log(n2)
    rows /= np.sqrt(n2)[:, None]


def _check_cut_times(times, t0: float, tf: float) -> np.ndarray:
    """The cut times as floats; InvalidParametersError unless they are
    finite, ascending and within [t0, tf]."""
    times = np.asarray(times, dtype=float)
    if times.size and (
        not np.all(np.isfinite(times)) or np.any(np.diff(times) < 0) or times[0] < t0 or times[-1] > tf
    ):
        raise InvalidParametersError("cut times must be finite, ascending and within the record window")
    return times


def _score_record(
    model: Model,
    prop: Propagator,
    detectors: tuple[Detector, Detector],
    record: ClassicalRecord,
    times,
):
    """One streaming pass over the record for every candidate of a
    `_prepare` stack, yielding the record cut at each of the ascending
    `times` in [t0, tf].

    For each time the pass yields (time, events_included, states, loglik):
    the number of events at or before it (a cut at an event's time
    includes that event), the (n_g, dim) normalized conditional states
    there and the per-candidate log-likelihood of the cut record.

    The pass holds each candidate's state in its propagator's coordinates
    (`Propagator.to_coords`: y = W^-1 psi on the eigen path, psi on the
    fallback), turns them through each no-detection interval and applies
    each detection as one product (`Detector.on_coords`), dividing by the
    coordinates' norm after every chunk and event and summing the logs. A
    candidate that an event cannot happen to is excluded there: its row is
    zeroed and its log-likelihood set to -inf, and both stay so. A
    state is formed (psi = W y) only at a cut, where the log-likelihood is
    the summed logs plus log ||psi||^2, which closes the telescoped sum.

    A detection within 1/(largest total decay rate) of the one before goes
    through psi instead: the states just after that one, formed from its
    exact collapse, are stepped by the change (`Propagator.step`) and
    collapsed as the index shift they are, so a share that only this short
    interval feeds (the atom re-excited right after an atomic detection)
    is scored relative to itself. Whether an event goes through psi depends
    on the record up to it alone, so every cut runs the arithmetic of
    scoring the record that ends there.
    """
    record.validate()
    times = _check_cut_times(times, record.t0, record.tf)
    decay = max_total_decay_rate(model)
    chunk = _RENORM_LOG_BUDGET / decay
    n_g = len(prop.eig)
    start = np.tile(ground_vacuum(model).real, (n_g, 1))
    coords = prop.to_coords(start)
    loglik = np.zeros(n_g, dtype=float)

    def after_last_event() -> np.ndarray:
        """The normalized states after the last event, exact in structure."""
        return start

    def advance(tau: float) -> tuple[np.ndarray, np.ndarray]:
        """(coords, loglik) after no-detection evolution over tau > 0,
        renormalized per chunk; works on copies, so a cut runs a
        commit's arithmetic."""
        new_coords, new_loglik = coords, loglik.copy()
        n_sub = max(1, math.ceil(tau / chunk))
        sub = tau / n_sub
        for _ in range(n_sub):
            new_coords = prop.turn(new_coords, sub)
            n2 = _row_norms_sq(new_coords)
            if not np.all(np.isfinite(n2)):
                raise NumericError("no-detection evolution produced non-finite norms")
            if np.any((n2 <= 0.0) & (new_loglik > -np.inf)):
                raise NumericError("no-detection norm underflowed within one renormalization chunk")
            _renormalize(new_coords, new_loglik, n2)
        return new_coords, new_loglik

    def cut(tau: float) -> tuple[np.ndarray, np.ndarray]:
        """(normalized states, loglik) of the record cut tau after the last event."""
        if tau > 0.0:
            cut_coords, cut_loglik = advance(tau)
            states = prop.from_coords(cut_coords)
        else:
            states, cut_loglik = after_last_event().copy(), loglik.copy()
        _renormalize(states, cut_loglik, _row_norms_sq(states))
        return states, cut_loglik

    def detected(rows: np.ndarray, k: int) -> np.ndarray:
        """The squared norms of rows just collapsed, which are renormalized;
        a row that the event cannot happen to is excluded."""
        n2 = _row_norms_sq(rows)
        if not np.all(np.isfinite(n2)):
            raise NumericError(f"jump application produced non-finite norms (event {k})")
        excluded = n2 <= 0.0
        if excluded.any():  # rare: most events exclude nothing, and masked writes cost time
            loglik[excluded] = -np.inf
            rows[excluded] = 0.0
        _renormalize(rows, loglik, n2)
        return n2

    times = times.tolist()
    i = 0
    t_prev = record.t0
    for k in range(record.n_events):
        t_k = float(record.times[k])
        while i < len(times) and times[i] < t_k:
            yield (times[i], k, *cut(times[i] - t_prev))
            i += 1
        detector = detectors[record.channels[k]]
        if (t_k - t_prev) * decay <= 1.0:
            states = detector.on_states(prop.step(after_last_event(), coords, t_k - t_prev))
            detected(states, k)
            coords = prop.to_coords(states)

            def after_last_event(states=states):
                return states
        else:
            before, loglik = advance(t_k - t_prev)
            coords = detector.on_coords(before)
            n2 = detected(coords, k)

            def after_last_event(before=before, detector=detector, n2=n2):
                states = detector.on_states(prop.from_coords(before))
                states[n2 <= 0.0] = 0.0  # the rows this event excluded stay exactly zero
                _renormalize(states, np.zeros(n_g), n2)
                return states
        t_prev = t_k
    for t in times[i:]:
        yield (t, record.n_events, *cut(t - t_prev))


def log_likelihood(model: Model, record: ClassicalRecord, g: float) -> float:
    """Record log-likelihood at a single candidate coupling.

    Returns -inf when some recorded event has exactly zero amplitude under
    this g (the candidate is excluded, not an error).
    """
    ((_, _, _, loglik),) = _score_record(model, *_prepare(model, [g]), record, [record.tf])
    return float(loglik[0])


def likelihood_surface(
    model: Model,
    record: ClassicalRecord,
    grid: GGrid,
    *,
    with_history: bool = False,
) -> LikelihoodSurface:
    """Score one record against every grid candidate in a single pass; with
    history, the same pass also cuts the record at each event."""
    times = np.append(record.times, record.tf) if with_history else [record.tf]
    logliks = np.array([
        loglik for (_, _, _, loglik) in _score_record(
            model, *_prepare(model, grid.values), record, times
        )
    ])
    return LikelihoodSurface(
        grid=grid,
        loglik=logliks[-1],
        history=logliks[:-1] if with_history else None,
        record_ref=record.digest(),
        n_events=record.n_events,
        t0=record.t0,
        tf=record.tf,
    )


def _estimate_from_loglik(
    grid: GGrid, loglik: np.ndarray, refine: bool, jump_index: int, time: float
) -> Estimate:
    weights = posterior(loglik)
    idx = int(np.argmax(loglik))  # ties resolve to the smallest g
    g_hat = float(grid.values[idx])
    refined = False
    if refine and 0 < idx < grid.n - 1:
        lm = float(loglik[idx - 1])
        l0 = float(loglik[idx])
        lp = float(loglik[idx + 1])
        if math.isfinite(lm) and math.isfinite(lp):
            denom = lm - 2.0 * l0 + lp
            if denom < 0.0:  # proper curvature; flat triples keep the grid value
                vertex = g_hat + 0.5 * grid.step * (lm - lp) / denom
                vertex = min(max(vertex, g_hat - grid.step), g_hat + grid.step)
                vertex = min(max(vertex, grid.g_min), grid.g_max)
                g_hat = float(vertex)
                refined = True
    mean = float(weights @ grid.values)
    var = float(weights @ (grid.values - mean) ** 2)
    return Estimate(
        g_mle=g_hat,
        refined=refined,
        posterior_mean=mean,
        posterior_sd=math.sqrt(max(var, 0.0)),
        jump_index=jump_index,
        time=time,
    )


def posterior_and_mle(surface: LikelihoodSurface, refine: bool = True) -> Estimate:
    """MLE (optionally with sub-grid quadratic refinement) plus posterior summary."""
    return _estimate_from_loglik(
        surface.grid, surface.loglik, refine,
        jump_index=surface.n_events, time=surface.tf,
    )


def estimate_time_series(
    model: Model,
    record: ClassicalRecord,
    grid: GGrid,
    checkpoints,
    *,
    refine: bool = True,
) -> list[Estimate]:
    """Estimates from the record truncated at each checkpoint time.

    A checkpoint at T scores events with t <= T plus the no-detection
    segment reaching T; everything is computed in one streaming pass.
    `grid` may also be a `_PreparedGrid` made under model.
    """
    prepared = grid if isinstance(grid, _PreparedGrid) else _prepare_grid(model, grid)
    cuts = _score_record(model, prepared.propagator, prepared.detectors, record, checkpoints)
    return [
        _estimate_from_loglik(prepared.grid, loglik, refine, jump_index=k, time=t)
        for (t, k, _, loglik) in cuts
    ]


def conditional_states(model: Model, g: float, record: ClassicalRecord, times) -> list[np.ndarray]:
    """The normalized conditional state amplitudes at each query time.

    The record is replayed under the coupling g by the scorer's pass, cut
    at the query times, so a state is exactly the one scoring the record
    cut there ends with; a query at an event time includes that event's
    collapse. `times` must be ascending and inside [t0, tf].
    """
    out = []
    for t, k, states, loglik in _score_record(model, *_prepare(model, [g]), record, times):
        if loglik[0] == -np.inf:
            raise NumericError(
                f"one of the first {k} record events has zero weight under g={g}; "
                f"the state at t={t} cannot be reconstructed"
            )
        out.append(states[0].astype(complex))
    return out
