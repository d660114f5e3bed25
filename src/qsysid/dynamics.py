"""Conditional no-detection evolution and Monte Carlo quantum-jump records.

One class, `Propagator`, evaluates the between-detections operator
exp(-i*H*tau) = exp(A*tau) for a stack of candidate couplings, from the
real A alone: H = i*A for every coupling of this model, and the collapse
operators are real too, so a trajectory stays real throughout. States
evolve exactly in the real eigenbasis W of A (the real and imaginary parts
of each conjugate pair of eigenvectors), found per connected block of A's
nonzero pattern: in the coordinates y = W^-1 psi an interval only turns
and scales each pair. The fallback is the real Pade exponential exp(A*tau)
per interval length, and the eigenbasis is kept when it evolves the states
the scorer starts from as that exponential does, at the interval lengths
the scorer uses. Coordinates are refined once against their residual, so
the error on such states stays near rounding level although cond(W)
reaches 1e9. `Detector` applies a collapse operator in the same
coordinates, as one real product with W^-1 C W refined once. A stack
builds its turns' index maps once, and splits its rows only if they mix paths.

The simulator and the scorer in `inference` run the same arithmetic, the
simulator on a stack of one, the scorer on the whole grid: states held in
coordinates (`to_coords`), turned through each interval (`turn`), and
collapsed by `Detector`. The simulator locates jump times by inverting the
squared-norm survival curve of `from_coords(turn(...))`: a bracket that
starts at the segment's expected waiting time (from its detection rate)
and doubles, then bisection, so records carry no time-step discretization
error beyond the bisection width. The simulator also keeps the largest
weight its states hold in the top two Fock levels, a check of the cutoff
on the conditional states records are drawn from.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import FormatError, InvalidParametersError, NumericError
from .model import (
    TWO_PI,
    EffectiveHamiltonian,
    Model,
    _check_integer,
    _finite,
    effective_hamiltonian,
    ground_vacuum,
    shift_form,
)

EIG_TOLERANCE = 1e-10         # eigen-path error on the scorer's states, relative
_MAX_CANCELLATION = 30.0      # coordinates' norm over psi's, past which a detection collapses psi
JUMP_TIME_TOL = 1e-9          # bisection window for jump times, us
TRUNCATION_TAIL_LIMIT = 1e-8  # weight a record's state may hold in the top two Fock levels
_RENORM_LOG_BUDGET = 100.0    # max |log norm^2| the scorer lets accumulate per chunk
_CHECK_SQUARINGS = math.ceil(math.log2(_RENORM_LOG_BUDGET))  # path check: from <= 1/r to the long interval
_MAX_BISECT = 200

METHOD_EIG = "eigendecomposition"
METHOD_FALLBACK = "scaling-squaring-fallback"

CHANNEL_ATOM = 0
CHANNEL_CAVITY = 1


def _matvec(matrices: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Row-wise matrix-vector products of an (n, d, d) and an (n, d) stack."""
    return np.matmul(matrices, vectors[..., None])[..., 0]


class Propagator:
    """exp(-i*H*tau) for a stack of candidate couplings, at any tau >= 0.

    Every array carries a leading candidate axis; one coupling is a stack of
    1. The interval operator is the real exp(A*tau), as H = i*A with A real
    (`EffectiveHamiltonian` holds no other H). Rows flagged in `eig`
    evolve in the real eigenbasis of A: the columns of `basis` (W) are Re v
    and Im v for each conjugate pair (v, conj v) of eigenvectors of A (v for
    a real one), `basis_inv` is W^-1, `partner` links the two columns of a
    pair (a real eigenvector's column is its own partner), and `eigvals`
    holds, per column, the eigenvalue mu = sigma + i*omega of the
    eigenvector it came from (that of v, then that of conj v). In the
    coordinates y = W^-1 psi an interval tau turns each pair, with
    e^{mu tau} taken per column, as

        y_k -> Re(e^{mu_k tau}) y_k + Im(e^{mu_k tau}) y_partner(k),

    that is e^{sigma tau} (cos(omega tau) y_k + sin(omega tau) y_k+1) for
    the first column of a pair and e^{sigma tau} (cos(omega tau) y_k+1 -
    sin(omega tau) y_k) for the second. The eigen arrays hold the eigen
    rows only, in order; the other rows keep their real A in `a` and evolve
    by `_expm(A*tau)`, one exponential per row and interval length.

    The scorer in `inference` and the simulator both hold their states in
    the form `to_coords` gives (y on eigen rows, psi on the others) and move
    them with `turn` and `Detector`; the scorer also uses `step`, the
    simulator `turn` to each interval length its survival search tries.
    `evolve` composes `to_coords`, `turn` and `from_coords` to map states to
    states.
    """

    def __init__(self, eig, eigvals, basis, basis_inv, partner, a):
        self.eig = eig
        self.eigvals = eigvals
        self.basis = basis
        self.basis_inv = basis_inv
        self.partner = partner
        self.a = a
        self._n_eig = int(np.count_nonzero(eig))
        self._all_eig = self._n_eig == len(eig)
        # index maps shaped as the eigen rows' coordinates, so that no turn reshapes
        n, dim = partner.shape
        rows = dim * np.arange(n)[:, None]
        self._partner_flat = partner + rows
        # a pair's second column turns by the conjugate of its first one's
        # factor, so `_turned` takes the factor on the first columns (and real ones) only
        first = partner >= np.arange(dim)
        self._first_rates = eigvals[first]
        leader = np.minimum(partner, np.arange(dim)) + rows
        self._first_of = (np.cumsum(first.ravel()) - 1)[leader]  # index into _first_rates
        self._imag_sign = np.where(first, 1.0, -1.0)

    @classmethod
    def stack(cls, propagators) -> "Propagator":
        """One propagator over the candidates of several, in order."""
        names = ("eig", "eigvals", "basis", "basis_inv", "partner", "a")
        return cls(*(np.concatenate([getattr(p, n) for p in propagators]) for n in names))

    @property
    def method(self) -> str:
        """The path every candidate of the stack takes."""
        if self._all_eig:
            return METHOD_EIG
        if self._n_eig == 0:
            return METHOD_FALLBACK
        raise InvalidParametersError("the candidates of this stack take different paths")

    def _by_path(self, on_eig, on_fallback, *stacks) -> np.ndarray:
        """on_eig on the eigen rows of the stacks and on_fallback on the
        others, reassembled (an all-eigen stack turns and converts directly)."""
        if self._all_eig:
            return on_eig(*stacks)
        if self._n_eig == 0:
            return on_fallback(*stacks)
        eig_part = on_eig(*(s[self.eig] for s in stacks))
        fallback_part = on_fallback(*(s[~self.eig] for s in stacks))
        out = np.empty((len(self.eig),) + eig_part.shape[1:], np.result_type(eig_part, fallback_part))
        out[self.eig] = eig_part
        out[~self.eig] = fallback_part
        return out

    def _expm_evolve(self, states: np.ndarray, tau: float) -> np.ndarray:
        """Fallback rows, to tau: a Pade exponential per row."""
        return _matvec(_expm(tau * self.a), states)

    def _coords(self, states: np.ndarray, at=slice(None)) -> np.ndarray:
        """Eigen rows (those of the eigen arrays `at` indexes): W^-1 psi,
        refined once against the residual. W^-1 is only as accurate as eps *
        cond(W) allows, while the residual of a state the scorer meets is
        formed almost exactly."""
        basis, basis_inv = self.basis[at], self.basis_inv[at]
        coords = _matvec(basis_inv, states)
        return coords + _matvec(basis_inv, states - _matvec(basis, coords))

    def _partners(self, coords: np.ndarray) -> np.ndarray:
        """Eigen rows: each coordinate's pair partner."""
        return coords.take(self._partner_flat)

    def _turned(self, coords: np.ndarray, f, tau: float) -> np.ndarray:
        """Eigen rows: coordinates weighted by the real and imaginary parts
        of the per-column factors f(mu tau) of an interval tau (np.exp to
        turn them, np.expm1 for the change)."""
        factors = f(tau * self._first_rates)[self._first_of]
        return factors.real * coords + factors.imag * self._imag_sign * self._partners(coords)

    def to_coords(self, states: np.ndarray) -> np.ndarray:
        """The form the scorer and the simulator hold an (n, dim) state stack
        in: the refined coordinates y = W^-1 psi on eigen rows, the states
        on the others."""
        if self._all_eig:
            return self._coords(states)
        return self._by_path(self._coords, np.copy, states)

    def through_states(self, coords: np.ndarray, rows: np.ndarray, collapse) -> np.ndarray:
        """The `to_coords` form of collapse(psi), psi = W y, on the eigen
        rows that the mask `rows` selects: the bits each row gets in the
        whole stack."""
        at = (np.cumsum(self.eig) - 1)[rows]
        return self._coords(collapse(_matvec(self.basis[at], coords[rows])), at)

    def from_coords(self, coords: np.ndarray) -> np.ndarray:
        """The states that the `to_coords` form holds (W y on eigen rows)."""
        if self._all_eig:
            return _matvec(self.basis, coords)
        return self._by_path(lambda y: _matvec(self.basis, y), np.copy, coords)

    def turn(self, coords: np.ndarray, tau: float) -> np.ndarray:
        """The (n, dim) `to_coords` form after a no-detection interval tau >= 0."""
        if self._all_eig:
            return self._turned(coords, np.exp, tau)
        return self._by_path(lambda y: self._turned(y, np.exp, tau),
                             lambda s: self._expm_evolve(s, tau), coords)

    def step(self, states: np.ndarray, coords: np.ndarray, tau: float) -> np.ndarray:
        """The states after an interval tau from `states`, whose `to_coords`
        form is `coords`, on eigen rows by the change, psi + W (e^{mu tau} -
        1) y turned: a share that psi lacks (an excited atom just after an
        atomic detection) comes out accurate relative to itself, not to psi.
        Meant for intervals too short for any share to decay far, where the
        change is no larger than psi."""

        def on_eig(s, y):
            return s + _matvec(self.basis, self._turned(y, np.expm1, tau))

        return self._by_path(on_eig, lambda s, y: self._expm_evolve(s, tau), states, coords)

    def evolve(self, states: np.ndarray, tau: float) -> np.ndarray:
        """Evolve an (n, dim) state stack through a no-detection interval,
        as the scorer does over a chunk: `to_coords`, `turn`, `from_coords`."""
        if not 0.0 <= tau < math.inf:
            raise InvalidParametersError(f"interval must be finite and >= 0, got {tau}")
        if tau == 0.0:
            return states.copy()
        return self.from_coords(self.turn(self.to_coords(states), tau))


class Detector:
    """A collapse operator C, real with at most one nonzero per row (an
    index shift and scale, as both of the model's are), applied to a
    propagator's stack in either form: `on_states` shifts and scales psi;
    `on_coords` applies it to the `to_coords` form, on eigen rows as one
    real product with M = W^-1 C W, which is built here and refined once
    against its residual C W - W M, so it is as accurate as C W and W M can
    be formed.

    That product errs relative to the coordinates, so it fails where they
    cancel in psi = W y. `through_psi` flags the eigen rows where C applied
    to the slowest mode (its columns of W, which the states the scorer holds
    between detections approach) has coordinates more than
    `_MAX_CANCELLATION` times its own norm; the scorer collapses psi
    there. The states' own ratio runs to about 3 times this one's. At the
    headline point it is at most 12 on the default grid (`n_trunc` 18-40,
    epsilon 24-44.3 MHz). On records drawn at strong atomic decay, rows
    at 9e3 and more drifted by up to 3e-7 in log-likelihood per event on
    the product, and one at 100 by 2.9e-10 over 29 events."""

    def __init__(self, propagator: Propagator, collapse: np.ndarray):
        self._source, self._scale = shift_form(collapse)
        self._in_basis = np.empty_like(propagator.basis)
        # row by row, so that no temporary is the size of the whole stack
        for w, w_inv, m in zip(propagator.basis, propagator.basis_inv, self._in_basis):
            cw = self._scale[:, None] * w[self._source]
            m[:] = w_inv @ cw
            cw -= w @ m
            m += w_inv @ cw
        slowest = propagator.eigvals.real.argmax(axis=1)[:, None]
        mode = np.hstack([slowest, np.take_along_axis(propagator.partner, slowest, 1)])[:, None]
        c_mode = self._scale[:, None] * np.take_along_axis(propagator.basis, mode, 2)[:, self._source]
        m_mode = np.take_along_axis(self._in_basis, mode, 2)
        self.through_psi = np.zeros(len(propagator.eig), dtype=bool)
        self.through_psi[propagator.eig] = (
            np.linalg.norm(m_mode, axis=(1, 2)) > _MAX_CANCELLATION * np.linalg.norm(c_mode, axis=(1, 2))
        )
        self._propagator = propagator

    def on_states(self, states: np.ndarray) -> np.ndarray:
        """C psi for each row of an (n, dim) stack, in C order: a row's norm
        then sums in the order it does for the row alone."""
        return self._scale * states.take(self._source, axis=1)

    def on_coords(self, coords: np.ndarray) -> np.ndarray:
        """C applied to the `to_coords` form of the propagator's stack."""
        return self._propagator._by_path(lambda y: _matvec(self._in_basis, y), self.on_states, coords)


@functools.lru_cache(maxsize=8)
def _blocks(pattern: bytes, dim: int) -> tuple[np.ndarray, ...]:
    """The rows of each connected block of a (dim, dim) nonzero pattern (the
    bytes of A != 0), in order of their smallest index. Found once per
    pattern: a grid's candidates share few (two on the default grid, g = 0
    and g > 0)."""
    nonzero = np.frombuffer(pattern, dtype=bool).reshape(dim, dim)
    link = (nonzero | nonzero.T | np.eye(dim, dtype=bool)).astype(float)
    reach = link
    while True:  # squaring doubles the path length covered
        wider = ((reach @ reach) > 0).astype(float)
        if np.array_equal(wider, reach):
            break
        reach = wider
    labels = reach.argmax(axis=1)  # the smallest index each row reaches
    blocks = tuple(np.flatnonzero(labels == label) for label in np.unique(labels))
    for rows in blocks:
        rows.flags.writeable = False  # shared by every caller of the pattern
    return blocks


def _block_eig(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The eigenvalues, real basis, inverse real basis and column partners
    that `Propagator` keeps, found from the real A in real arithmetic, each
    connected block of A's nonzero pattern (`_blocks`) on its own, so basis
    and inverse are exactly zero between blocks. LinAlgError where a block's
    basis has no inverse."""
    dim = len(a)
    mu = np.empty(dim, dtype=complex)
    basis = np.zeros((dim, dim))
    basis_inv = np.zeros((dim, dim))
    partner = np.arange(dim)
    start = 0
    for rows in _blocks((a != 0).tobytes(), dim):
        cols = slice(start, start + rows.size)
        mu_b, v_b = np.linalg.eig(a[rows][:, rows])
        pair = np.flatnonzero(mu_b.imag > 0)  # LAPACK lists each one's conjugate next
        w_b = v_b.real.copy()
        w_b[:, pair + 1] = v_b[:, pair].imag
        mu[cols] = mu_b
        basis[rows, cols] = w_b
        basis_inv[cols, rows] = np.linalg.inv(w_b)
        partner[start + pair] = start + pair + 1
        partner[start + pair + 1] = start + pair
        start += rows.size
    return mu, basis, basis_inv, partner


# Pade [13/13] coefficients (Higham 2005, as in scipy's expm)
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0,
    670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
    960960.0, 16380.0, 182.0, 1.0,
)
_PADE13_THETA = 5.371920351148152  # largest ||A||_1 at double-precision backward error


def _expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential of a matrix or a stack of them, by Pade [13/13]
    scaling and squaring in numpy, each matrix scaled by its own 1-norm (so a
    matrix comes out the same alone or in any stack).

    The reference the eigen path is measured against and the fallback path's
    evolution, exp(A*tau) in real arithmetic; the algorithm of scipy's expm,
    on numpy's BLAS (scipy's bundled BLAS is slow beside it with default
    threads). Products and the solve keep exact zeros between blocks that A
    does not connect.
    """
    norms = np.abs(a).sum(axis=-2).max(axis=-1)
    s = np.array([max(0, math.ceil(math.log2(x / _PADE13_THETA))) if x > 0.0 else 0
                  for x in norms.ravel().tolist()]).reshape(norms.shape)
    a = a / 2.0 ** s[..., None, None]
    b = _PADE13
    ident = np.eye(a.shape[-1], dtype=a.dtype)
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident)
    r = np.linalg.solve(v - u, v + u)
    for j in range(int(s.max(initial=0))):
        more = s > j  # the matrices not yet squared s times
        part = r[more]
        r[more] = part @ part
    return r


def _eig_error(a: np.ndarray, prop: Propagator) -> float:
    """Relative error of the eigen path, as the scorer runs it (refined
    coordinates, turned, back to states), on the states the scorer starts
    from: the ground vacuum (basis state 0) and that state after the short
    interval, over two intervals from the fastest mode's decay rate r. The
    long one, `_RENORM_LOG_BUDGET`/r, spans at least one scorer chunk (1.10
    at the headline point), which is `_RENORM_LOG_BUDGET` over
    `max_total_decay_rate` >= r; the short one is that over 2^k, k =
    `_CHECK_SQUARINGS` (7: 0.78/r). The reference, the fallback's own
    evolution, is one Pade exponential `_expm` over the short interval,
    squared k times for the long one. Over the long one, also on the share
    each detection channel renormalizes to: the excited atom, and the field
    weighted by sqrt(n) (basis index 2n + s); as g -> 0 the atom's share is
    O(g) and its error grows as 1/g. inf where the eigen form is not exactly
    zero wherever a reference is (squaring keeps the zeros between blocks
    of A), or where no mode decays.

    Per-element measures would be the wrong test: basis states high in the
    Fock ladder, which the scorer never holds, see cond(W) ~ 1e9 in full.
    Over the short interval the shares are still growing from zero, and off
    by up to 6e-8 at the headline point (2e-12 over the long interval).
    """
    mu, basis, basis_inv, partner = prop.eigvals[0], prop.basis[0], prop.basis_inv[0], prop.partner[0]
    rate = -2.0 * float(mu.real.min())
    if not (math.isfinite(rate) and rate > 0.0):
        return math.inf
    long_tau = _RENORM_LOG_BUDGET / rate
    short_tau = long_tau / 2.0**_CHECK_SQUARINGS  # exact: 2^k short intervals are the long one
    short = _expm(short_tau * a)
    long = functools.reduce(lambda x, _: x @ x, range(_CHECK_SQUARINGS), short)
    probes = np.zeros((len(a), 2))  # columns: the vacuum after the short interval, the vacuum
    probes[:, 0], probes[0, 1] = short[:, 0] / np.linalg.norm(short[:, 0]), 1.0
    coords = basis_inv @ probes  # refined once, as `to_coords` does
    coords += basis_inv @ (probes - basis @ coords)
    index = np.arange(len(a))
    weights = np.stack([np.ones(len(a)), index % 2, index // 2])  # squared: all, atom, field
    worst = 0.0
    for tau, want, n_views in ((short_tau, short, 1), (long_tau, long, 3)):
        turns = np.exp(tau * mu)[:, None]
        zeros = want == 0
        if zeros.any() and np.any((basis @ (turns.real * basis_inv + turns.imag * basis_inv[partner]))[zeros]):
            return math.inf
        ref = want @ probes
        got = basis @ (turns.real * coords + turns.imag * coords[partner])
        err, size = (np.sqrt(weights[:n_views] @ np.square(x)) for x in (got - ref, ref))
        # a share whose norm underflows to 0 passes only without error
        worst = max(worst, float(np.max(err / np.maximum(size, np.finfo(float).tiny))))
    return worst


def prepare_propagator(hamiltonian: EffectiveHamiltonian, method: str | None = None) -> Propagator:
    """Diagonalize A = -i*H for exact interval evolution; a stack of one.

    H is held as the real A (`EffectiveHamiltonian`). The real eigenbasis of
    A (per connected block) is used when it evolves the scorer's states to
    within EIG_TOLERANCE (relative) of the real Pade exponential exp(A*tau)
    at the interval lengths the scorer runs (see `_eig_error`) and keeps
    its exact zeros, so a forbidden event still scores -inf. Otherwise the
    candidate evolves by that exponential per interval length, which needs
    no eigenbasis (a defective A) but costs a dense exponential per
    interval. `method` forces one path (mainly for cross-checking the two
    in tests); a forced eigendecomposition that fails the check raises
    NumericError.
    """
    a = np.asarray(hamiltonian.generator, dtype=float)
    if not np.all(np.isfinite(a)):
        raise NumericError("effective Hamiltonian contains non-finite entries")
    if method not in (None, METHOD_EIG, METHOD_FALLBACK):
        raise InvalidParametersError(f"unknown propagator method: {method!r}")
    dim = len(a)
    if method != METHOD_FALLBACK:
        try:
            parts = _block_eig(a)
        except np.linalg.LinAlgError:
            error = math.inf
        else:
            prop = Propagator(np.ones(1, dtype=bool), *(x[None] for x in parts), np.empty((0, dim, dim)))
            error = _eig_error(a, prop)
        if error <= EIG_TOLERANCE:
            return prop
        if method == METHOD_EIG:
            raise NumericError(
                f"eigendecomposition requested but unusable: off a Pade exponential by {error:.3g} (relative)"
            )
    no_eig = (np.empty((0, dim), dtype=complex), np.empty((0, dim, dim)),
              np.empty((0, dim, dim)), np.empty((0, dim), dtype=int))  # no rows on the eigen path
    return Propagator(np.zeros(1, dtype=bool), *no_eig, a[None].copy())


def _check_window(t0: float, tf: float) -> None:
    """InvalidParametersError unless the window [t0, tf] is finite with tf > t0."""
    if not (_finite(t0) and _finite(tf)) or not tf > t0:
        raise InvalidParametersError(f"need finite numbers with tf > t0, got [{t0!r}, {tf!r}]", field="tf")


def max_total_decay_rate(model: Model) -> float:
    """Largest eigenvalue of c0^dag c0 + c1^dag c1 on the truncated space (rad/us).

    The operator is diagonal: 2*kappa*n + 2*gamma_perp*s, maximized at the
    top Fock level with the atom excited.
    """
    p = model.params
    return 2.0 * TWO_PI * p.kappa * p.n_trunc + 2.0 * TWO_PI * p.gamma_perp


def _survival(propagator: Propagator, coords: np.ndarray, tau: float) -> float:
    """Squared no-detection norm at tau of a single-candidate segment whose
    start is held in the `to_coords` form."""
    amps = propagator.from_coords(propagator.turn(coords, tau))[0]
    s = float(np.vdot(amps, amps))
    if not math.isfinite(s):
        raise NumericError(f"survival evaluation non-finite at tau={tau}")
    return s


def _locate_jump_time(
    propagator: Propagator, coords: np.ndarray, target: float, remaining: float, guess: float
) -> float:
    """First time where the squared-norm survival drops below target, which
    the caller has checked it does by `remaining`: a bracket from a guess
    > 0, doubled until survival falls below target or the bracket reaches
    `remaining`, then bisection to JUMP_TIME_TOL."""
    lo, hi = 0.0, min(guess, remaining)
    while hi < remaining and _survival(propagator, coords, hi) >= target:
        lo, hi = hi, min(2.0 * hi, remaining)
    for _ in range(_MAX_BISECT):
        if hi - lo <= JUMP_TIME_TOL:
            break
        mid = 0.5 * (lo + hi)
        if _survival(propagator, coords, mid) >= target:
            lo = mid
        else:
            hi = mid
    else:
        raise NumericError(
            f"jump-time bisection did not converge (bracket [{lo}, {hi}])"
        )
    return 0.5 * (lo + hi)


@dataclass(frozen=True, eq=False)
class ClassicalRecord:
    """One photodetection record: observation window plus (time, channel) events.

    channels: 0 = atomic fluorescence side channel, 1 = cavity output channel.
    A record is valid once constructed: `__post_init__` runs `validate` on
    the values as given, before the casts, which would read a string such
    as "0.5" or a bool as a number and 1.9 as channel 1.
    """

    t0: float
    tf: float
    times: np.ndarray
    channels: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.validate()
        object.__setattr__(self, "t0", float(self.t0))
        object.__setattr__(self, "tf", float(self.tf))
        object.__setattr__(self, "times", np.array(self.times, dtype=float))
        object.__setattr__(self, "channels", np.array(self.channels, dtype=np.int64))
        self.times.flags.writeable = False
        self.channels.flags.writeable = False

    @property
    def n_events(self) -> int:
        return int(self.times.size)

    def validate(self) -> None:
        """Raise FormatError if the record violates its structural contract;
        for the first faulty event, with its index as `FormatError.event`."""
        if not (_finite(self.t0) and _finite(self.tf)):
            raise FormatError(f"record window must be finite, got [{self.t0!r}, {self.tf!r}]")
        t0, tf = float(self.t0), float(self.tf)
        if tf < t0:
            raise FormatError(f"record window is reversed: tf={self.tf} < t0={self.t0}")
        # as objects, so every event keeps the type it was given
        times, channels = (np.asarray(x, dtype=object) for x in (self.times, self.channels))
        if times.ndim != 1 or channels.shape != times.shape:
            raise FormatError("event times and channels must be 1-d arrays of equal length")
        previous = None
        for i, (t, c) in enumerate(zip(times.tolist(), channels.tolist())):
            if not _finite(t):
                message = f"event {i} time must be a finite number, got {t!r}"
            elif not _finite(c) or c not in (0, 1):
                message = f"event {i} channel must be 0 or 1, got {c!r}"
            elif not t0 <= (t := float(t)) <= tf:
                message = f"event {i} time {t} outside window [{self.t0}, {self.tf}]"
            elif previous is not None and not t > previous:
                message = f"event times must be strictly increasing ({previous} then {t})"
            else:
                previous = t
                continue
            raise FormatError(message, event=i)

    def digest(self) -> str:
        """Short content hash identifying this record."""
        h = hashlib.sha256()
        h.update(np.float64(self.t0).tobytes())
        h.update(np.float64(self.tf).tobytes())
        h.update(self.times.tobytes())
        h.update(self.channels.tobytes())
        return h.hexdigest()[:12]

    def __eq__(self, other) -> bool:
        if not isinstance(other, ClassicalRecord):
            return NotImplemented
        return (
            self.t0 == other.t0
            and self.tf == other.tf
            and np.array_equal(self.times, other.times)
            and np.array_equal(self.channels, other.channels)
            and self.metadata == other.metadata
        )


def _top_weight(psi: np.ndarray) -> float:
    """Share of psi's squared norm in the top two Fock levels (the last four entries)."""
    return float(np.vdot(psi[-4:], psi[-4:]) / np.vdot(psi, psi))


def simulate_record(model: Model, g_true: float, t0: float, tf: float, seed: int) -> ClassicalRecord:
    """Generate one quantum-jump photodetection record from the ground vacuum.

    Standard quantum-jump sampling with exact interval evolution: draw a
    survival target r ~ U(0,1), find the time where the no-detection squared
    norm crosses r (a bracket from -log(r) over the state's detection rate
    ||c0 psi||^2 + ||c1 psi||^2, doubled until it holds the crossing, then
    bisection), pick the emission channel with probability proportional to
    ||c_j psi||^2, collapse, renormalize, repeat until the survival target
    outlives the window. Deterministic given (model params, g_true, window,
    seed).
    """
    return _simulate(model, g_true, t0, tf, seed)[0]


def _simulate(model: Model, g_true: float, t0: float, tf: float, seed: int) -> tuple[ClassicalRecord, float]:
    """The record `simulate_record` draws, and the largest `_top_weight` of
    the states it forms anyway: each normalized post-jump psi, and the
    no-jump state at tf that ends the record, so that a record with no
    event is checked too. At or above TRUNCATION_TAIL_LIMIT, n_trunc is too
    low for the record's conditional states; the caller decides whether to say so.
    """
    _check_window(t0, tf)
    _check_integer("seed", seed, 0)
    psi = ground_vacuum(model)  # A and both collapse operators are real, so psi stays real
    propagator = prepare_propagator(effective_hamiltonian(model, g_true))
    detectors = (Detector(propagator, model.c0), Detector(propagator, model.c1))
    rng = np.random.default_rng(seed)
    times: list[float] = []
    channels: list[int] = []
    worst_tail = 0.0
    t = t0
    while True:
        remaining = tf - t
        if remaining <= 0.0:
            break
        r = rng.random()
        while r == 0.0:  # open interval: a zero survival target is never reached
            r = rng.random()
        coords = propagator.to_coords(psi[None])  # once per inter-jump segment
        if _survival(propagator, coords, remaining) >= r:
            at_tf = propagator.from_coords(propagator.turn(coords, remaining))[0]
            worst_tail = max(worst_tail, _top_weight(at_tf))
            break
        # the waiting time to r at the segment's starting detection rate, down
        # to a power of two: then the bracket and every bisection midpoint are
        # the same on both paths, not moved by the last bits of psi
        rate = sum(float(np.vdot(x, x)) for x in (d.on_states(psi[None]) for d in detectors))
        guess = math.ldexp(0.5, math.frexp(-math.log(r) / rate)[1]) if rate > 0.0 else remaining
        tau_star = _locate_jump_time(propagator, coords, r, remaining, guess)
        psi_star = propagator.from_coords(propagator.turn(coords, tau_star))
        jumped = [detector.on_states(psi_star)[0] for detector in detectors]
        w0, w1 = weights = [float(np.vdot(x, x)) for x in jumped]
        w_sum = w0 + w1
        if not math.isfinite(w_sum) or w_sum <= 0.0:
            raise NumericError(
                f"degenerate jump at t={t + tau_star:.9f}: channel weights "
                f"({w0:.3g}, {w1:.3g})"
            )
        u = rng.random()
        channel = CHANNEL_ATOM if u * w_sum < w0 else CHANNEL_CAVITY
        psi = jumped[channel] / math.sqrt(weights[channel])
        worst_tail = max(worst_tail, _top_weight(psi))
        t_star = min(t + tau_star, tf)
        if times and t_star <= times[-1]:
            t_star = np.nextafter(times[-1], np.inf)  # keep strict ordering
        t = t_star
        times.append(t_star)
        channels.append(channel)
    p = model.params
    metadata = {
        "seed": int(seed),
        "g_true_mhz": float(g_true),
        "params": {
            "g0_mhz": p.g0,
            "gamma_perp_mhz": p.gamma_perp,
            "kappa_mhz": p.kappa,
            "epsilon_mhz": p.epsilon,
            "n_trunc": p.n_trunc,
        },
        "initial_state": "ground-vacuum",
    }
    return ClassicalRecord(float(t0), float(tf), times, channels, metadata), worst_tail
