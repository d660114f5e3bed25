"""Record likelihood over candidate couplings, posterior, and MLE refinement.

The log-likelihood of a record under coupling g is the log of the squared
norm of the unnormalized conditional state after alternating exact
no-detection evolution and collapse-operator applications along the record.
The constant dt^n measure factor is omitted: it is identical for every g, so
it cancels in the posterior and in any likelihood comparison.

Scoring walks the record once with the states for all grid candidates
stacked, renormalizing every chunk (at most `max_step` of no-detection
evolution) and accumulating the removed log factors, so nothing underflows
even for event-free windows hundreds of decay times long. That pass is the
only replay of a record in the package: surfaces, per-jump history,
checkpoint estimates and the conditional states (`conditional_states`, the
pass on a stack of one candidate) all come out of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dynamics import ClassicalRecord, Propagator, max_total_decay_rate, prepare_propagator
from .errors import InvalidParametersError, NoEstimateError, NumericError
from .model import Model, ModelParams, effective_hamiltonian, ground_vacuum

_RENORM_LOG_BUDGET = 100.0  # max |log norm^2| allowed to accumulate per chunk

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
        values = self.g_min + self.step * np.arange(n, dtype=float)
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
    return np.einsum("gd,gd->g", states.conj(), states).real


def _score_record(
    model: Model,
    record: ClassicalRecord,
    g_values: np.ndarray,
    *,
    want_history: bool = False,
    checkpoints: np.ndarray | None = None,
    max_step: float | None = None,
):
    """One streaming pass over the record for every candidate g.

    Returns (loglik, history, checkpoint_rows) where checkpoint_rows is a
    list of (time, events_included, states, loglik_vector), states being
    the (n_g, dim) normalized conditional states there, and history is an
    (n_events, n_g) array or None.
    """
    record.validate()
    if max_step is None:
        max_step = _RENORM_LOG_BUDGET / max_total_decay_rate(model)
    elif not (math.isfinite(max_step) and max_step > 0):
        raise InvalidParametersError(f"max_step must be > 0, got {max_step}")
    if checkpoints is not None:
        checkpoints = np.asarray(checkpoints, dtype=float)
        if checkpoints.size and (
            not np.all(np.isfinite(checkpoints))
            or np.any(np.diff(checkpoints) < 0)
            or checkpoints[0] < record.t0
            or checkpoints[-1] > record.tf
        ):
            raise InvalidParametersError(
                "checkpoints must be finite, ascending and within the record window"
            )
    prop = Propagator.stack(
        [prepare_propagator(effective_hamiltonian(model, float(g))) for g in g_values]
    )
    n_g = len(g_values)
    states = np.tile(ground_vacuum(model), (n_g, 1))
    loglik = np.zeros(n_g, dtype=float)
    alive = np.ones(n_g, dtype=bool)

    def advance(tau: float) -> tuple[np.ndarray, np.ndarray]:
        """(states, loglik) after no-detection evolution over tau, renormalized
        per chunk; works on copies, so a checkpoint runs a commit's arithmetic."""
        new_states, new_loglik = states, loglik.copy()
        if tau <= 0.0:
            return new_states, new_loglik
        n_sub = max(1, math.ceil(tau / max_step))
        sub = tau / n_sub
        for _ in range(n_sub):
            new_states = prop.evolve(new_states, sub)
            n2 = _row_norms_sq(new_states)
            if not np.all(np.isfinite(n2[alive])):
                raise NumericError("no-detection evolution produced non-finite norms")
            if np.any(n2[alive] <= 0.0):
                raise NumericError(
                    "no-detection norm underflowed; reduce max_step so each "
                    "chunk stays within the floating-point range"
                )
            new_loglik[alive] += np.log(n2[alive])
            new_states[alive] /= np.sqrt(n2[alive])[:, None]
        return new_states, new_loglik

    history_rows: list[np.ndarray] = [] if want_history else None
    checkpoint_rows: list[tuple[float, int, np.ndarray, np.ndarray]] = []
    cp_i = 0
    t_prev = record.t0
    for k in range(record.n_events):
        t_k = float(record.times[k])
        while checkpoints is not None and cp_i < checkpoints.size and checkpoints[cp_i] < t_k:
            t_cp = float(checkpoints[cp_i])
            checkpoint_rows.append((t_cp, k, *advance(t_cp - t_prev)))
            cp_i += 1
        states, loglik = advance(t_k - t_prev)
        collapse = model.c0 if record.channels[k] == 0 else model.c1
        states = states @ collapse.T
        n2 = _row_norms_sq(states)
        if not np.all(np.isfinite(n2[alive])):
            raise NumericError(f"jump application produced non-finite norms (event {k})")
        dying = alive & (n2 <= 0.0)
        loglik[dying] = -np.inf
        states[dying] = 0.0
        alive &= ~dying
        loglik[alive] += np.log(n2[alive])
        states[alive] /= np.sqrt(n2[alive])[:, None]
        if want_history:
            history_rows.append(loglik.copy())
        t_prev = t_k
    while checkpoints is not None and cp_i < checkpoints.size:
        t_cp = float(checkpoints[cp_i])
        checkpoint_rows.append((t_cp, record.n_events, *advance(t_cp - t_prev)))
        cp_i += 1
    states, loglik = advance(record.tf - t_prev)
    history = np.array(history_rows) if want_history and history_rows else None
    if want_history and not history_rows:
        history = np.zeros((0, n_g), dtype=float)
    return loglik, history, checkpoint_rows


def log_likelihood(
    model: Model,
    record: ClassicalRecord,
    g: float,
    *,
    max_step: float | None = None,
) -> float:
    """Record log-likelihood at a single candidate coupling.

    Returns -inf when some recorded event has exactly zero amplitude under
    this g (the candidate is excluded, not an error).
    """
    loglik, _, _ = _score_record(model, record, np.asarray([g], dtype=float), max_step=max_step)
    return float(loglik[0])


def likelihood_surface(
    model: Model,
    record: ClassicalRecord,
    grid: GGrid,
    *,
    with_history: bool = False,
    max_step: float | None = None,
) -> LikelihoodSurface:
    """Score one record against every grid candidate in a single pass."""
    loglik, history, _ = _score_record(
        model, record, grid.values, want_history=with_history, max_step=max_step
    )
    return LikelihoodSurface(
        grid=grid,
        loglik=loglik,
        history=history,
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
    max_step: float | None = None,
) -> list[Estimate]:
    """Estimates from the record truncated at each checkpoint time.

    A checkpoint at T scores events with t <= T plus the no-detection
    segment reaching T; everything is computed in one streaming pass.
    """
    _, _, rows = _score_record(
        model, record, grid.values,
        checkpoints=np.asarray(checkpoints, dtype=float), max_step=max_step,
    )
    return [
        _estimate_from_loglik(grid, vec, refine, jump_index=k, time=t)
        for (t, k, _, vec) in rows
    ]


def conditional_states(model: Model, g: float, record: ClassicalRecord, times) -> list[np.ndarray]:
    """The normalized conditional state amplitudes at each query time.

    The record is replayed under the coupling g by the scorer's pass, with
    the query times as checkpoints, so a state is exactly the one scoring
    the record cut there ends with; a query at an event time includes that
    event's collapse. `times` must be ascending and inside [t0, tf].
    """
    _, _, rows = _score_record(
        model, record, np.asarray([g], dtype=float), checkpoints=np.asarray(times, dtype=float)
    )
    for t, k, _, loglik in rows:
        if loglik[0] == -np.inf:
            raise NumericError(
                f"one of the first {k} record events has zero weight under g={g}; "
                f"the state at t={t} cannot be reconstructed"
            )
    return [states[0] for (_, _, states, _) in rows]
