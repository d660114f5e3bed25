"""Driven two-level atom coupled to a single lossy cavity mode.

Unit convention: every user-facing rate (g0, gamma_perp, kappa, epsilon, g)
is a frequency divided by 2*pi, in MHz. Internally each one is multiplied by
2*pi so generators are in rad/us and time is in us. kappa and gamma_perp are
field (amplitude) decay rates; the corresponding photon-flux rates are
2*kappa and 2*gamma_perp.

Basis convention: index i = 2*n + s with n the photon number (0..n_trunc)
and s = 0 (atom ground) / 1 (atom excited). Ground atom in the vacuum is
index 0. In this basis the operators, the start state and A = -i*H are
all real, so they are stored as float64; only `EffectiveHamiltonian.matrix`
forms the complex H.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParametersError

TWO_PI = 2.0 * math.pi

ATOM_GROUND = 0
ATOM_EXCITED = 1


@dataclass(frozen=True)
class ModelParams:
    """Physical rates (frequency/2pi, MHz) plus the Fock-space cutoff."""

    g0: float
    gamma_perp: float
    kappa: float
    epsilon: float
    n_trunc: int = 30

    def __post_init__(self):
        for name in ("g0", "gamma_perp", "kappa", "epsilon"):
            value = getattr(self, name)
            if not _finite(value) or value < 0:
                raise InvalidParametersError(
                    f"{name} must be finite and >= 0, got {value!r}", field=name
                )
        if self.kappa + self.gamma_perp <= 0:
            raise InvalidParametersError(
                "kappa + gamma_perp must be > 0: the model needs at least one decay channel", field="kappa"
            )
        object.__setattr__(self, "n_trunc", _check_integer("n_trunc", self.n_trunc, 1))


def _finite(value) -> bool:
    """math.isfinite, but False for a bool (which casts read as 0 or 1), an
    integer too large for a float and a value that is no real number."""
    if isinstance(value, (bool, np.bool_)):
        return False
    try:
        return math.isfinite(value)
    except (OverflowError, TypeError):
        return False


def _check_integer(name: str, value, minimum: int) -> int:
    """value as an int; InvalidParametersError naming `name` unless it is a
    Python or numpy integer (not a bool) >= minimum."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise InvalidParametersError(f"{name} must be an integer >= {minimum}, got {value!r}", field=name)
    return int(value)


@dataclass(frozen=True)
class Model:
    """Operator matrices on the truncated atom (x) cavity product space, all
    real (float64) in the number basis.

    c0 (atomic fluorescence, channel 0) and c1 (cavity emission, channel 1)
    are the collapse operators in angular units, normalized so that
    ||c_j psi||^2 is the detection rate out of the normalized state psi.
    """

    params: ModelParams
    dim: int
    op_a: np.ndarray
    op_sigma_minus: np.ndarray
    c0: np.ndarray
    c1: np.ndarray

    @functools.cached_property
    def _generator_parts(self) -> tuple[np.ndarray, np.ndarray]:
        """(rest, pattern) with A(g) = TWO_PI * g * pattern + rest (see
        `effective_hamiltonian`), built on first use and then shared by
        every coupling of this model."""
        a, sm, c0, c1 = self.op_a, self.op_sigma_minus, self.c0, self.c1
        # damping assembled from the collapse operators (not kappa*a^dag a etc.)
        # so the decay identity in `effective_hamiltonian` holds to the last bit
        rest = (TWO_PI * self.params.epsilon) * (a - a.T) - 0.5 * (c0.T @ c0 + c1.T @ c1)
        pattern = a @ sm.T - a.T @ sm
        for part in (rest, pattern):
            part.flags.writeable = False
        return rest, pattern


def basis_index(n: int, s: int) -> int:
    """Flatten (photon number, atomic level) into a basis index."""
    return 2 * n + s


def build_model(params: ModelParams) -> Model:
    """Assemble annihilation, atomic lowering, and collapse operators."""
    n_levels = params.n_trunc + 1
    dim = 2 * n_levels
    a_cavity = np.diag(np.sqrt(np.arange(1, n_levels, dtype=float)), k=1)
    sm_atom = np.array([[0.0, 1.0], [0.0, 0.0]])
    op_a = np.kron(a_cavity, np.eye(2))
    op_sm = np.kron(np.eye(n_levels), sm_atom)
    c0 = math.sqrt(2.0 * TWO_PI * params.gamma_perp) * op_sm
    c1 = math.sqrt(2.0 * TWO_PI * params.kappa) * op_a
    for op in (op_a, op_sm, c0, c1):
        op.flags.writeable = False
    return Model(params=params, dim=dim, op_a=op_a, op_sigma_minus=op_sm, c0=c0, c1=c1)


def shift_form(collapse: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(source, scale) with (C x)[i] = scale[i] * x[source[i]], for a real C
    with at most one nonzero per row (an index shift and scale, as both of
    the model's collapse operators are); any other C is invalid."""
    c = np.asarray(collapse)
    source = np.argmax(c != 0, axis=1)
    scale = c.real[np.arange(len(c)), source]
    if np.any(c.imag) or np.count_nonzero(c) != np.count_nonzero(scale):
        raise InvalidParametersError("a collapse operator must be real with at most one nonzero per row")
    return source, scale


def ground_vacuum(model: Model) -> np.ndarray:
    """Real amplitudes of the ground atom in the cavity vacuum (basis index 0)."""
    psi = np.zeros(model.dim)
    psi[basis_index(0, ATOM_GROUND)] = 1.0
    return psi


@dataclass(frozen=True)
class EffectiveHamiltonian:
    """Non-Hermitian generator of the between-detections evolution (rad/us),
    H = i*A, held as the real A. Every coupling of this model gives a real
    A; a complex one (an H with a real part) is invalid."""

    generator: np.ndarray
    g: float

    def __post_init__(self):
        if np.iscomplexobj(self.generator):
            raise InvalidParametersError("effective Hamiltonian must be i*A with A real; it has a real part")

    @property
    def matrix(self) -> np.ndarray:
        """H = i*A."""
        return 1j * self.generator


def effective_hamiltonian(model: Model, g: float) -> EffectiveHamiltonian:
    """Build H(g) = i*g*(a sig+ - a^dag sig-) + i*eps*(a - a^dag)
    - i*kappa*a^dag a - i*gamma_perp*sig+ sig-, all rates angular, as the
    real A = -i*H: the parts that do not depend on g are built once per
    model (`Model._generator_parts`), and the g-term's pattern is scaled.

    The anti-Hermitian part satisfies H - H^dag = -i*(c0^dag c0 + c1^dag c1),
    so the norm of a no-detection state decays at the total detection rate.
    """
    if not _finite(g) or g < 0:
        raise InvalidParametersError(f"coupling g must be finite and >= 0, got {g!r}")
    rest, pattern = model._generator_parts
    # the g-term shares no entry with the rest, so adding it is exact
    generator = (TWO_PI * g) * pattern
    generator += rest
    generator.flags.writeable = False
    return EffectiveHamiltonian(generator=generator, g=g)
