"""Conditional no-detection evolution and Monte Carlo quantum-jump records.

One class, `Propagator`, evaluates the between-detections operator
exp(-i*H*tau) for a stack of candidate couplings: exactly from an
eigendecomposition of the (non-Hermitian) effective Hamiltonian H = i*A
(A real, so it is found in real arithmetic), taken per connected block of
its nonzero pattern, or, as the fallback, by a Pade matrix exponential
per interval length. The path is chosen by measured error: the
eigendecomposition is kept when it evolves the states the scorer starts
from as the Pade exponential does, at the interval lengths the scorer uses.
Eigenbasis components are refined once against their residual, so the
error on such states stays near rounding level although cond(V) reaches
1e9. The simulator runs a propagator on a stack of one, the scorer in
`inference` on the whole grid. Jump times are located by inverting the squared-norm
survival curve with a bracketing pass plus bisection, so records carry no
time-step discretization error beyond the bisection width.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import FormatError, InvalidParametersError, NumericError
from .model import (
    TWO_PI,
    EffectiveHamiltonian,
    Model,
    effective_hamiltonian,
    ground_vacuum,
)

EIG_TOLERANCE = 1e-10         # eigen-path error on the scorer's states, relative
JUMP_TIME_TOL = 1e-9          # bisection window for jump times, us
_BRACKET_BATCH = 32           # survival samples evaluated per vectorized batch
_MAX_BISECT = 200

METHOD_EIG = "eigendecomposition"
METHOD_FALLBACK = "scaling-squaring-fallback"

CHANNEL_ATOM = 0
CHANNEL_CAVITY = 1


def _matvec(matrices: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Row-wise matrix-vector products of an (n, d, d) and an (n, d) stack."""
    return np.matmul(matrices, vectors[..., None])[..., 0]


def _real_matvec(matrices: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Row-wise products of a real (n, d, d) and a complex (n, d) stack: real
    and imaginary parts go through one real product, which moves half the
    bytes of a complex one."""
    pairs = np.ascontiguousarray(vectors).view(float).reshape(*vectors.shape, 2)
    return np.matmul(matrices, pairs).view(complex)[..., 0]


class Propagator:
    """exp(-i*H*tau) for a stack of candidate couplings, at any tau >= 0.

    Every array carries a leading candidate axis; one coupling is a stack of
    1. Rows flagged in `eig` evolve in their eigenbasis: `eigvals` and
    `eigvecs` hold the eigenvalues and eigenvectors V of H for those rows, in
    order. V^-1 is kept in real form, as H = i*A with A real for this model:
    `basis_inv` inverts the real basis W whose columns are Re v and Im v for
    each conjugate pair (v, conj v) of eigenvectors (v for a real one),
    `partner` links the two columns of a pair, and V^-1 = T^-1 W^-1 with
    T^-1 acting within pairs. The other rows keep their matrix in `h` and
    evolve by `_expm(-i*H*tau)`, one exponential per row and interval length.
    """

    def __init__(self, eig, eigvals, eigvecs, basis_inv, partner, h):
        self.eig = eig
        self.eigvals = eigvals
        self.eigvecs = eigvecs
        self.basis_inv = basis_inv
        self.partner = partner
        self.h = h
        self._n_eig = int(np.count_nonzero(eig))
        self._rates = -1j * eigvals[:, None, :]
        self._fastest = np.abs(eigvals).max(axis=1, initial=0.0)
        self._eigvecs_t = eigvecs.swapaxes(1, 2)
        n, dim = partner.shape
        self._partner_flat = (partner + dim * np.arange(n)[:, None]).ravel()
        # T^-1: z_k = (c_k - i c_k+1)/2 and z_k+1 = (c_k + i c_k+1)/2 for a pair k, k+1
        first, alone = partner > np.arange(dim), partner == np.arange(dim)
        self._own_weight = np.where(alone, 1.0, np.where(first, 0.5, 0.5j))
        self._partner_weight = np.where(alone, 0.0, np.where(first, -0.5j, 0.5))

    @classmethod
    def stack(cls, propagators) -> "Propagator":
        """One propagator over the candidates of several, in order."""
        names = ("eig", "eigvals", "eigvecs", "basis_inv", "partner", "h")
        return cls(*(np.concatenate([getattr(p, n) for p in propagators]) for n in names))

    @property
    def method(self) -> str:
        """The path every candidate of the stack takes."""
        if self._n_eig == len(self.eig):
            return METHOD_EIG
        if self._n_eig == 0:
            return METHOD_FALLBACK
        raise InvalidParametersError("the candidates of this stack take different paths")

    def _expm_evolve(self, states: np.ndarray, taus: np.ndarray) -> np.ndarray:
        """Fallback rows, to each tau: a Pade exponential per row and tau."""
        return _matvec(_expm(-1j * taus.reshape(-1)[None, :, None, None] * self.h[:, None]), states[:, None])

    def _by_path(self, rows: np.ndarray, on_eig, on_fallback, *args) -> np.ndarray:
        """on_eig on the eigen rows and on_fallback on the others, reassembled."""
        if self._n_eig == len(rows):
            return on_eig(rows, *args)
        if self._n_eig == 0:
            return on_fallback(rows, *args)
        eig_part = on_eig(rows[self.eig], *args)
        out = np.empty(rows.shape[:1] + eig_part.shape[1:], dtype=complex)
        out[self.eig] = eig_part
        out[~self.eig] = on_fallback(rows[~self.eig], *args)
        return out

    def _phase_evolve(self, coeffs: np.ndarray, taus: np.ndarray) -> np.ndarray:
        """Eigen rows: turn each eigencomponent by exp(-i*lambda*tau), map back."""
        phases = np.exp(taus[..., None] * self._rates)
        return (coeffs[:, None, :] * phases) @ self._eigvecs_t

    def _from_basis(self, coeffs: np.ndarray) -> np.ndarray:
        """V^-1 psi from W^-1 psi: T^-1 within each conjugate pair."""
        partners = coeffs.reshape(-1)[self._partner_flat].reshape(coeffs.shape)
        return self._own_weight * coeffs + self._partner_weight * partners

    def _eig_coeffs(self, states: np.ndarray) -> np.ndarray:
        """Eigenbasis components of the eigen rows, refined once against the
        residual: V^-1 is only as accurate as eps * cond(V) allows, while
        the residual of a state the scorer meets is formed almost exactly."""
        coeffs = self._from_basis(_real_matvec(self.basis_inv, states))
        residual = states - _matvec(self.eigvecs, coeffs)
        return coeffs + self._from_basis(_real_matvec(self.basis_inv, residual))

    def to_coeffs(self, states: np.ndarray) -> np.ndarray:
        """What `from_coeffs` evolves, one row per candidate: eigenbasis
        components for the eigen rows, the (n, dim) states themselves for
        the rest. Computing it once serves any number of interval lengths."""
        return self._by_path(states, self._eig_coeffs, lambda s: s)

    def from_coeffs(self, coeffs: np.ndarray, tau) -> np.ndarray:
        """The states after a no-detection interval tau >= 0.

        A scalar tau gives (n, dim); a 1-d array of k interval lengths gives
        (n, k, dim), row i evolved from coeffs[i] to each of them.
        """
        taus = np.asarray(tau, dtype=float)
        out = self._by_path(coeffs, self._phase_evolve, self._expm_evolve, taus)
        return out if taus.ndim else out[:, 0]

    def _eig_evolve(self, states: np.ndarray, taus: np.ndarray) -> np.ndarray:
        """Eigen rows over one interval. A row within one turn of its fastest
        mode (|lambda| * tau <= 1) forms the change, psi + V (e^{-i Lambda tau}
        - 1) c, so a component psi lacks (an excited atom just after an
        atomic detection) comes out accurate relative to itself, not to psi."""
        turns = taus * self._rates
        factors = np.exp(turns)
        short = taus * self._fastest <= 1.0
        factors[short] = np.expm1(turns[short])
        out = (self._eig_coeffs(states)[:, None, :] * factors) @ self._eigvecs_t
        out[short] += states[short, None, :]
        return out

    def evolve(self, states: np.ndarray, tau: float) -> np.ndarray:
        """Evolve an (n, dim) state stack through a no-detection interval."""
        if not 0.0 <= tau < math.inf:
            raise InvalidParametersError(f"interval must be finite and >= 0, got {tau}")
        if tau == 0.0:
            return states.copy()
        return self._by_path(states, self._eig_evolve, self._expm_evolve, np.asarray(tau, dtype=float))[:, 0]


def _block_eig(h: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors of h, and the inverse real basis and
    column partners that `Propagator` keeps, found from A = -i*h in real
    arithmetic (3x faster), each connected block of h's nonzero pattern on
    its own, so eigenvectors and inverse are exactly zero between blocks.
    LinAlgError where h has a real part (A is then not real) or a block's
    basis has no inverse."""
    if np.any(h.real):
        raise np.linalg.LinAlgError("H has a real part")
    a = h.imag
    dim = len(a)
    link = ((a != 0) | (a.T != 0) | np.eye(dim, dtype=bool)).astype(float)
    reach = link
    while True:  # squaring doubles the path length covered
        wider = ((reach @ reach) > 0).astype(float)
        if np.array_equal(wider, reach):
            break
        reach = wider
    labels = reach.argmax(axis=1)  # the smallest index each row reaches
    w = np.empty(dim, dtype=complex)
    v = np.zeros((dim, dim), dtype=complex)
    basis_inv = np.zeros((dim, dim))
    partner = np.arange(dim)
    start = 0
    for label in np.unique(labels):
        rows = np.flatnonzero(labels == label)
        cols = np.arange(start, start + rows.size)
        mu, v_b = np.linalg.eig(a[np.ix_(rows, rows)])
        pair = np.flatnonzero(mu.imag > 0)  # LAPACK lists each one's conjugate next
        basis = v_b.real.copy()
        basis[:, pair + 1] = v_b[:, pair].imag
        w[cols] = 1j * mu
        v[np.ix_(rows, cols)] = v_b
        basis_inv[np.ix_(cols, rows)] = np.linalg.inv(basis)
        partner[cols[pair]] = cols[pair + 1]
        partner[cols[pair + 1]] = cols[pair]
        start += rows.size
    return w, v, basis_inv, partner


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
    evolution; the algorithm of scipy's expm, on numpy's BLAS (scipy's
    bundled BLAS is slow beside it with default threads). Products and the
    solve keep exact zeros between blocks that H does not connect.
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


def _eig_error(h: np.ndarray, prop: Propagator) -> float:
    """Relative error of the eigen path, as `Propagator` evaluates it, on the
    states the scorer starts from: the ground vacuum (basis state 0) and
    that state after one decay time of the fastest mode, each evolved over
    that decay time and over the scorer's renormalization chunk (100 of
    them), against `_expm`. Over the chunk, also on the share of the state
    each detection channel sees and renormalizes to: the excited atom, and
    the field weighted by sqrt(n) (basis index 2n + s); as g -> 0 the atom's
    share is O(g) and its error grows as 1/g. inf where the eigen form is
    not exactly zero wherever the exponential is, or where no mode decays.

    Per-element measures would be the wrong test: basis states high in the
    Fock ladder, which the scorer never holds, see cond(V) ~ 1e9 in full.
    After one decay time the shares are still growing from zero, and off by
    up to 1e-8 at the headline point (5e-12 over the chunk).
    """
    w, v = prop.eigvals[0], prop.eigvecs[0]
    v_inv = prop._own_weight[0][:, None] * prop.basis_inv[0] + (
        prop._partner_weight[0][:, None] * prop.basis_inv[0][prop.partner[0]]
    )
    rate = -2.0 * float(w.imag.min())
    if not (math.isfinite(rate) and rate > 0.0):
        return math.inf
    taus = (1.0 / rate, 100.0 / rate)
    exact = [_expm(-1j * tau * h) for tau in taus]
    probes = np.stack([exact[0][:, 0], np.eye(len(h))[0]])
    probes /= np.linalg.norm(probes, axis=1)[:, None]
    index = np.arange(len(h))
    views = np.stack([np.ones(len(h)), index % 2, np.sqrt(index // 2)])  # all, atom, field
    worst = 0.0
    for tau, want, n_views in zip(taus, exact, (1, 3)):
        if np.any(((v * np.exp(-1j * tau * w)) @ v_inv)[want == 0] != 0):
            return math.inf
        for probe in probes:
            got = prop.evolve(probe[None], tau)[0]
            ref = want @ probe
            err, size = (np.linalg.norm(views[:n_views] * x, axis=1) for x in (got - ref, ref))
            # a share whose norm underflows to 0 passes only without error
            worst = max(worst, float(np.max(err / np.maximum(size, np.finfo(float).tiny))))
    return worst


def prepare_propagator(hamiltonian: EffectiveHamiltonian, method: str | None = None) -> Propagator:
    """Diagonalize H for exact interval evolution; a stack of one candidate.

    The eigendecomposition (per connected block of H, in real arithmetic, as
    H = i*A with A real, which holds for every coupling of this model) is
    used when it evolves the scorer's states to within EIG_TOLERANCE
    (relative) of a Pade exponential at the interval lengths the scorer runs
    (see `_eig_error`) and keeps its exact zeros, so a forbidden event still
    scores -inf. Otherwise the candidate evolves by a Pade exponential per
    interval length, which needs no eigenbasis (a defective H, an H with a
    real part) but costs a dense exponential per interval. `method` forces
    one path (mainly for cross-checking the two against each other in
    tests); a forced eigendecomposition that fails the check raises
    NumericError.
    """
    h = np.asarray(hamiltonian.matrix)
    if not np.all(np.isfinite(h)):
        raise NumericError("effective Hamiltonian contains non-finite entries")
    if method not in (None, METHOD_EIG, METHOD_FALLBACK):
        raise InvalidParametersError(f"unknown propagator method: {method!r}")
    dim = len(h)
    no_eig = (np.empty((0, dim), dtype=complex), np.empty((0, dim, dim), dtype=complex),
              np.empty((0, dim, dim)), np.empty((0, dim), dtype=int))  # no rows on the eigen path
    if method != METHOD_FALLBACK:
        try:
            w, v, basis_inv, partner = _block_eig(h)
        except np.linalg.LinAlgError:
            error = math.inf
        else:
            prop = Propagator(np.ones(1, dtype=bool), w[None], v[None], basis_inv[None],
                              partner[None], np.empty((0, dim, dim), dtype=complex))
            error = _eig_error(h, prop)
        if error <= EIG_TOLERANCE:
            return prop
        if method == METHOD_EIG:
            raise NumericError(
                f"eigendecomposition requested but unusable: off a Pade exponential by {error:.3g} (relative)"
            )
    return Propagator(np.zeros(1, dtype=bool), *no_eig, h[None].copy())


def max_total_decay_rate(model: Model) -> float:
    """Largest eigenvalue of c0^dag c0 + c1^dag c1 on the truncated space (rad/us).

    The operator is diagonal: 2*kappa*n + 2*gamma_perp*s, maximized at the
    top Fock level with the atom excited.
    """
    p = model.params
    return 2.0 * TWO_PI * p.kappa * p.n_trunc + 2.0 * TWO_PI * p.gamma_perp


def _survival(propagator: Propagator, coeffs: np.ndarray, tau):
    """Squared no-detection norm of a single-candidate segment at tau, or at
    each of a 1-d array of interval lengths."""
    amps = propagator.from_coeffs(coeffs, tau)[0]
    if amps.ndim == 1:
        s = float(np.vdot(amps, amps).real)
        finite = math.isfinite(s)
    else:
        s = np.einsum("kd,kd->k", amps.conj(), amps).real
        finite = np.all(np.isfinite(s))
    if not finite:
        raise NumericError(f"survival evaluation non-finite at tau={tau}")
    return s


def _locate_jump_time(
    propagator: Propagator, coeffs: np.ndarray, target: float, remaining: float, step: float
) -> float:
    """First time where the squared-norm survival drops below target.

    Caller guarantees survival(remaining) < target <= 1. Brackets on a step
    grid (vectorized in batches), then bisects to JUMP_TIME_TOL.
    """
    lo = 0.0
    hi = None
    while hi is None:
        grid = lo + step * np.arange(1, _BRACKET_BATCH + 1)
        last_batch = grid[-1] >= remaining
        if last_batch:
            grid = np.concatenate([grid[grid < remaining], [remaining]])
        s = _survival(propagator, coeffs, grid)
        below = s < target
        idx = int(np.argmax(below))
        if below[idx]:
            hi = float(grid[idx])
            if idx > 0:
                lo = float(grid[idx - 1])
        elif last_batch:
            raise NumericError(
                "survival bracketing failed: no crossing found although the "
                f"window endpoint is below target (target={target:.6g}, "
                f"remaining={remaining:.6g}, survival floor={s[-1]:.6g})"
            )
        else:
            lo = float(grid[-1])
    for _ in range(_MAX_BISECT):
        if hi - lo <= JUMP_TIME_TOL:
            break
        mid = 0.5 * (lo + hi)
        if _survival(propagator, coeffs, mid) >= target:
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
    """

    t0: float
    tf: float
    times: np.ndarray
    channels: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float).copy()
        channels = np.asarray(self.channels, dtype=np.int64).copy()
        times.flags.writeable = False
        channels.flags.writeable = False
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "channels", channels)

    @property
    def n_events(self) -> int:
        return int(self.times.size)

    def validate(self) -> None:
        """Raise FormatError if the record violates its structural contract."""
        if not (math.isfinite(self.t0) and math.isfinite(self.tf)):
            raise FormatError(f"record window must be finite, got [{self.t0}, {self.tf}]")
        if self.tf < self.t0:
            raise FormatError(f"record window is reversed: tf={self.tf} < t0={self.t0}")
        if self.times.ndim != 1 or self.channels.shape != self.times.shape:
            raise FormatError("event times and channels must be 1-d arrays of equal length")
        if self.n_events:
            if not np.all(np.isfinite(self.times)):
                raise FormatError("event times must be finite")
            if self.times[0] < self.t0 or self.times[-1] > self.tf:
                raise FormatError("event times must lie within [t0, tf]")
            if np.any(np.diff(self.times) <= 0):
                bad = int(np.argmax(np.diff(self.times) <= 0)) + 1
                raise FormatError(f"event times must be strictly increasing (event {bad})")
        if self.n_events and not np.all((self.channels == 0) | (self.channels == 1)):
            raise FormatError("event channels must be 0 or 1")

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


def _normalized_initial(model: Model, initial_state: np.ndarray | None) -> np.ndarray:
    if initial_state is None:
        return ground_vacuum(model)
    psi = np.asarray(initial_state, dtype=complex).copy()
    if psi.shape != (model.dim,):
        raise InvalidParametersError(
            f"initial state must have shape ({model.dim},), got {psi.shape}"
        )
    n2 = float(np.vdot(psi, psi).real)
    if not math.isfinite(n2) or n2 <= 0.0:
        raise InvalidParametersError("initial state must be normalizable")
    return psi / math.sqrt(n2)


def simulate_record(
    model: Model,
    g_true: float,
    t0: float,
    tf: float,
    seed: int,
    initial_state: np.ndarray | None = None,
) -> ClassicalRecord:
    """Generate one quantum-jump photodetection record.

    Standard quantum-jump sampling with exact interval evolution: draw a
    survival target r ~ U(0,1), find the time where the no-detection squared
    norm crosses r (bracket + bisection), pick the emission channel with
    probability proportional to ||c_j psi||^2, collapse, renormalize, repeat
    until the survival target outlives the window. Deterministic given
    (model params, g_true, window, seed).
    """
    if not (math.isfinite(t0) and math.isfinite(tf)) or not tf > t0:
        raise InvalidParametersError(f"need tf > t0, got [{t0}, {tf}]")
    if seed < 0:
        raise InvalidParametersError(f"seed must be >= 0, got {seed}")
    psi = _normalized_initial(model, initial_state)
    propagator = prepare_propagator(effective_hamiltonian(model, g_true))
    rng = np.random.default_rng(seed)
    step = min(0.25 / max_total_decay_rate(model), (tf - t0) / 10.0)
    times: list[float] = []
    channels: list[int] = []
    t = t0
    while True:
        remaining = tf - t
        if remaining <= 0.0:
            break
        r = rng.random()
        while r == 0.0:  # open interval: a zero survival target is never reached
            r = rng.random()
        coeffs = propagator.to_coeffs(psi[None])  # once per inter-jump segment
        if _survival(propagator, coeffs, remaining) >= r:
            break
        tau_star = _locate_jump_time(propagator, coeffs, r, remaining, step)
        psi_star = propagator.from_coeffs(coeffs, tau_star)[0]
        w0 = float(np.vdot(model.c0 @ psi_star, model.c0 @ psi_star).real)
        w1 = float(np.vdot(model.c1 @ psi_star, model.c1 @ psi_star).real)
        w_sum = w0 + w1
        if not math.isfinite(w_sum) or w_sum <= 0.0:
            raise NumericError(
                f"degenerate jump at t={t + tau_star:.9f}: channel weights "
                f"({w0:.3g}, {w1:.3g})"
            )
        u = rng.random()
        channel = CHANNEL_ATOM if u * w_sum < w0 else CHANNEL_CAVITY
        collapse = model.c0 if channel == CHANNEL_ATOM else model.c1
        psi = collapse @ psi_star
        psi = psi / math.sqrt(float(np.vdot(psi, psi).real))
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
        "initial_state": "ground-vacuum" if initial_state is None else "custom",
    }
    record = ClassicalRecord(
        t0=float(t0), tf=float(tf),
        times=np.asarray(times, dtype=float),
        channels=np.asarray(channels, dtype=np.int64),
        metadata=metadata,
    )
    record.validate()
    return record
