"""Unconditional density-matrix evolution: the ensemble-average oracle.

drho/dt = -i*(H rho - rho H^dag) + c0 rho c0^dag + c1 rho c1^dag with the
non-Hermitian H from the model; averaging quantum-jump trajectories must
reproduce this evolution, which is what makes the integrator a validation
oracle for the simulator.

H = i*A with A real, and both collapse operators are real index shifts, so
for a Hermitian rho the right side is X + X^dag with X = A rho, plus each
C rho C^T as a shift and scale. Every state the package makes is real; a
complex Hermitian rho0 runs the same code in complex arithmetic.

RK4 runs at the fixed step DT_DEFAULT, and a steady state is sought to
STEADY_TOL_DEFAULT within a fixed time budget; a model too stiff for that
step raises StepSizeError naming its largest total decay rate x the step.
The Fock cutoff is judged by the simulator, on the conditional states that
hold far more top-level weight than the steady state (dynamics._simulate).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import max_total_decay_rate
from .errors import ConvergenceError, InvalidParametersError, StepSizeError
from .model import TWO_PI, Model, effective_hamiltonian, ground_vacuum, shift_form

DT_DEFAULT = 1e-4            # us; keeps RK4 stable up to the top Fock level
STEADY_TOL_DEFAULT = 1e-10
TRACE_DRIFT_LIMIT = 1e-8     # allowed renormalization drift per us
_STEADY_CHUNK = 0.25         # us of integration between residual checks
_STEADY_SAFETY = 0.01        # converge this far below the advertised threshold
_STEADY_MAX_TIME = 50.0      # us of integration before a steady state is given up


@dataclass(frozen=True)
class MasterState:
    """Density matrix and the time it refers to."""

    rho: np.ndarray
    time: float = 0.0


def ground_vacuum_density(model: Model) -> MasterState:
    """Density matrix of the ground atom in the cavity vacuum at t=0 (real)."""
    psi = ground_vacuum(model)
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


def _too_stiff(model: Model, what: str) -> StepSizeError:
    rate = max_total_decay_rate(model)
    return StepSizeError(
        f"{what}: largest total decay rate {rate:.4g} rad/us x RK4 step {DT_DEFAULT:g} us "
        f"= {rate * DT_DEFAULT:.3g}; the model is too stiff for the fixed step"
    )


def integrate_master(model: Model, g: float, rho0: MasterState, duration: float) -> MasterState:
    """Classical RK4 integration over `duration` (us) at the step DT_DEFAULT.

    rho0 must be a finite Hermitian (dim, dim) matrix, else
    InvalidParametersError; a real one stays real. It is symmetrized once,
    before the first step; the right-hand side and the RK4 combination keep
    it exactly Hermitian. Each step is followed by trace renormalization;
    the accumulated renormalization is tracked, and a drift rate above 1e-8
    per us raises StepSizeError: the model is too stiff for the step.
    """
    if not (math.isfinite(duration) and duration >= 0.0):
        raise InvalidParametersError(f"duration must be >= 0, got {duration}")
    rho = 1.0 * np.asarray(rho0.rho)  # a float or complex copy
    if rho.shape != (model.dim, model.dim) or not np.all(np.isfinite(rho)):
        raise InvalidParametersError(f"rho0 must be a finite {model.dim}x{model.dim} matrix")
    if np.abs(rho - rho.conj().T).max() > 1e-12 * np.abs(rho).max():
        raise InvalidParametersError("rho0 must be Hermitian")
    if duration == 0.0:
        return MasterState(rho=rho, time=rho0.time)
    rho = 0.5 * (rho + rho.conj().T)
    rhs = _rhs_factory(model, g)
    n_full = int(math.floor(duration / DT_DEFAULT + 1e-12))
    remainder = duration - n_full * DT_DEFAULT
    drift = 0.0
    for k in range(n_full + (remainder > 1e-15)):
        h_step = DT_DEFAULT if k < n_full else remainder
        k1 = rhs(rho)
        k2 = rhs(rho + (0.5 * h_step) * k1)
        k3 = rhs(rho + (0.5 * h_step) * k2)
        k4 = rhs(rho + h_step * k3)
        rho = rho + (h_step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        trace = float(np.trace(rho).real)
        if not math.isfinite(trace) or trace <= 0.0:
            raise _too_stiff(model, f"trace became {trace} during integration")
        drift += abs(trace - 1.0)
        rho = rho / trace
    if drift / duration > TRACE_DRIFT_LIMIT:
        raise _too_stiff(
            model, f"trace renormalization drift {drift / duration:.3e}/us exceeds {TRACE_DRIFT_LIMIT:.0e}/us"
        )
    return MasterState(rho=rho, time=rho0.time + duration)


def steady_state(model: Model, g: float) -> MasterState:
    """Long-time integration from the ground-vacuum state until stationary.

    Convergence is declared when the max-norm of drho/dt falls below
    STEADY_TOL_DEFAULT * (2*kappa + 2*gamma_perp) in angular units
    (internally a stricter threshold is used so the returned state is a
    fixed point with margin); ConvergenceError if that takes more than
    50 us of integration.
    """
    p = model.params
    rate_scale = 2.0 * TWO_PI * p.kappa + 2.0 * TWO_PI * p.gamma_perp
    threshold = _STEADY_SAFETY * STEADY_TOL_DEFAULT * rate_scale
    rhs = _rhs_factory(model, g)
    state = ground_vacuum_density(model)
    elapsed = 0.0
    while elapsed < _STEADY_MAX_TIME:
        span = min(_STEADY_CHUNK, _STEADY_MAX_TIME - elapsed)
        state = integrate_master(model, g, state, span)
        elapsed += span
        residual = float(np.abs(rhs(state.rho)).max())
        if residual < threshold:
            return state
    raise ConvergenceError(
        f"steady state not reached within {_STEADY_MAX_TIME} us "
        f"(residual {residual:.3e}, threshold {threshold:.3e})"
    )


def expectations(state: MasterState, model: Model) -> tuple[float, float, float]:
    """Mean photon number, excited-state population, and total detected flux.

    Flux is 2*kappa*<a^dag a> + 2*gamma_perp*<sig+ sig->, in counts per us.
    """
    ad_a = model.op_a.T @ model.op_a
    sp_sm = model.op_sigma_minus.T @ model.op_sigma_minus
    n_photon = float(np.trace(ad_a @ state.rho).real)
    p_excited = float(np.trace(sp_sm @ state.rho).real)
    p = model.params
    flux = 2.0 * TWO_PI * p.kappa * n_photon + 2.0 * TWO_PI * p.gamma_perp * p_excited
    return n_photon, p_excited, flux

