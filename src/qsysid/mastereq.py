"""Unconditional density-matrix evolution: the ensemble-average oracle.

drho/dt = -i*(H rho - rho H^dag) + c0 rho c0^dag + c1 rho c1^dag with the
non-Hermitian H from the model; averaging quantum-jump trajectories must
reproduce this evolution, which is what makes the integrator a validation
oracle for the simulator.

H = i*A with A real, and both collapse operators are real index shifts, so
for a Hermitian rho the right side is X + X^dag with X = A rho, plus each
C rho C^T as a shift and scale. Every state the package makes is real; a
complex Hermitian rho0 runs the same code in complex arithmetic.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, InvalidParametersError, StepSizeError
from .model import TWO_PI, Model, effective_hamiltonian, ground_vacuum, shift_form

DT_DEFAULT = 1e-4            # us; keeps RK4 stable up to the top Fock level
STEADY_TOL_DEFAULT = 1e-10
TRACE_DRIFT_LIMIT = 1e-8     # allowed renormalization drift per us
TRUNCATION_TAIL_LIMIT = 1e-8  # steady-state weight allowed in the top two Fock levels
_STEADY_CHUNK = 0.25         # us of integration between residual checks
_STEADY_SAFETY = 0.01        # converge this far below the advertised threshold


@dataclass(frozen=True)
class MasterState:
    """Density matrix and the time it refers to."""

    rho: np.ndarray
    time: float = 0.0


def ground_vacuum_density(model: Model) -> MasterState:
    """Density matrix of the ground atom in the cavity vacuum at t=0 (real)."""
    psi = ground_vacuum(model).real
    return MasterState(rho=np.outer(psi, psi), time=0.0)


def _rhs_factory(model: Model, g: float):
    a = effective_hamiltonian(model, g).generator
    # (C rho C^T)[i, j] = scale[i] * scale[j] * rho[source[i], source[j]]
    shifts = [(src[:, None] * model.dim + src, np.outer(scale, scale))
              for src, scale in map(shift_form, (model.c0, model.c1))]

    def rhs(rho: np.ndarray) -> np.ndarray:
        """L(rho) = A rho + (A rho)^dag + sum_j C_j rho C_j^T for Hermitian rho."""
        x = a @ rho
        out = x + x.conj().T
        for flat_source, scales in shifts:
            out += rho.take(flat_source) * scales
        return out

    return rhs


def integrate_master(
    model: Model,
    g: float,
    rho0: MasterState,
    duration: float,
    dt: float = DT_DEFAULT,
) -> MasterState:
    """Fixed-step classical RK4 integration over `duration` (us).

    rho0 must be a finite Hermitian (dim, dim) matrix, else
    InvalidParametersError; a real one stays real. It is symmetrized once,
    before the first step; the right-hand side and the RK4 combination keep
    it exactly Hermitian. Each step is followed by trace renormalization;
    the accumulated renormalization is tracked, and a drift rate above 1e-8
    per us raises StepSizeError (the step is too coarse for the requested
    system).
    """
    if not (math.isfinite(duration) and duration >= 0.0):
        raise InvalidParametersError(f"duration must be >= 0, got {duration}")
    if not (math.isfinite(dt) and dt > 0.0):
        raise InvalidParametersError(f"dt must be > 0, got {dt}")
    rho = 1.0 * np.asarray(rho0.rho)  # a float or complex copy
    if rho.shape != (model.dim, model.dim) or not np.all(np.isfinite(rho)):
        raise InvalidParametersError(f"rho0 must be a finite {model.dim}x{model.dim} matrix")
    if np.abs(rho - rho.conj().T).max() > 1e-12 * np.abs(rho).max():
        raise InvalidParametersError("rho0 must be Hermitian")
    if duration == 0.0:
        return MasterState(rho=rho, time=rho0.time)
    rho = 0.5 * (rho + rho.conj().T)
    rhs = _rhs_factory(model, g)
    n_full = int(math.floor(duration / dt + 1e-12))
    remainder = duration - n_full * dt
    drift = 0.0
    for k in range(n_full + (remainder > 1e-15)):
        h_step = dt if k < n_full else remainder
        k1 = rhs(rho)
        k2 = rhs(rho + (0.5 * h_step) * k1)
        k3 = rhs(rho + (0.5 * h_step) * k2)
        k4 = rhs(rho + h_step * k3)
        rho = rho + (h_step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        trace = float(np.trace(rho).real)
        if not math.isfinite(trace) or trace <= 0.0:
            raise StepSizeError(
                f"trace became {trace} during integration; use a smaller dt"
            )
        drift += abs(trace - 1.0)
        rho = rho / trace
    if drift / duration > TRACE_DRIFT_LIMIT:
        raise StepSizeError(
            f"trace renormalization drift {drift / duration:.3e}/us exceeds "
            f"{TRACE_DRIFT_LIMIT:.0e}/us; use a smaller dt"
        )
    return MasterState(rho=rho, time=rho0.time + duration)


def steady_state(
    model: Model,
    g: float,
    tol: float = STEADY_TOL_DEFAULT,
    max_time: float = 50.0,
) -> MasterState:
    """Long-time integration from the ground-vacuum state until stationary.

    Convergence is declared when the max-norm of drho/dt falls below
    tol * (2*kappa + 2*gamma_perp) in angular units (internally a stricter
    threshold is used so the returned state is a fixed point with margin).
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise InvalidParametersError(f"tol must be > 0, got {tol}")
    if not (math.isfinite(max_time) and max_time > 0.0):
        raise InvalidParametersError(f"max_time must be > 0, got {max_time}")
    p = model.params
    rate_scale = 2.0 * TWO_PI * p.kappa + 2.0 * TWO_PI * p.gamma_perp
    threshold = _STEADY_SAFETY * tol * rate_scale
    rhs = _rhs_factory(model, g)
    state = ground_vacuum_density(model)
    elapsed = 0.0
    while elapsed < max_time:
        span = min(_STEADY_CHUNK, max_time - elapsed)
        state = integrate_master(model, g, state, span)
        elapsed += span
        residual = float(np.abs(rhs(state.rho)).max())
        if residual < threshold:
            return state
    raise ConvergenceError(
        f"steady state not reached within {max_time} us "
        f"(residual {residual:.3e}, threshold {threshold:.3e})"
    )


def expectations(state: MasterState, model: Model) -> tuple[float, float, float]:
    """Mean photon number, excited-state population, and total detected flux.

    Flux is 2*kappa*<a^dag a> + 2*gamma_perp*<sig+ sig->, in counts per us.
    """
    ad_a = model.op_a.conj().T @ model.op_a
    sp_sm = model.op_sigma_minus.conj().T @ model.op_sigma_minus
    n_photon = float(np.trace(ad_a @ state.rho).real)
    p_excited = float(np.trace(sp_sm @ state.rho).real)
    p = model.params
    flux = 2.0 * TWO_PI * p.kappa * n_photon + 2.0 * TWO_PI * p.gamma_perp * p_excited
    return n_photon, p_excited, flux


def photon_populations(state: MasterState) -> np.ndarray:
    """Photon-number distribution P(n), traced over the atom."""
    diag = np.real(np.diag(state.rho))
    return diag[0::2] + diag[1::2]


def check_truncation(model: Model, g: float) -> float:
    """Steady-state weight in the top two Fock levels; warns when it reaches
    TRUNCATION_TAIL_LIMIT (raise n_trunc in that case)."""
    pops = photon_populations(steady_state(model, g))
    tail = float(pops[-1] + pops[-2])
    if tail >= TRUNCATION_TAIL_LIMIT:
        warnings.warn(
            f"top two Fock levels hold {tail:.3e} of the steady state "
            f"(threshold {TRUNCATION_TAIL_LIMIT:.0e}); raise n_trunc above "
            f"{model.params.n_trunc}",
            RuntimeWarning,
            stacklevel=2,
        )
    return tail
