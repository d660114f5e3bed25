"""Independent brute-force references used by the tests.

Everything here deliberately avoids the library's fast paths: evolution goes
through scipy's expm on dense matrices, the record density is a plain
operator-product trace, and the master equation is the dense complex
Liouvillian or its sparse superoperator, so agreement with the streaming and
real-arithmetic implementations is meaningful.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import expm

from qsysid import ClassicalRecord, Model, effective_hamiltonian, ground_vacuum

TWO_PI = 2.0 * np.pi


def direct_log_density(model: Model, record: ClassicalRecord, g: float) -> float:
    """Record density as a dense operator-product trace, then log.

    One exponential per interval, so it is inexact at strong damping, where
    the norm decays far across an interval: at `n_trunc` 38, kappa 0.97,
    gamma_perp 246, epsilon 43, g 38.9 MHz it is 1.4e-7 (relative) off
    `chunked_log_density`. Use that oracle beyond toy sizes and short
    windows.
    """
    h = effective_hamiltonian(model, g).matrix
    psi = ground_vacuum(model)
    rho = np.outer(psi, psi.conj())
    t_prev = record.t0
    for t, c in zip(record.times, record.channels):
        u = expm(-1j * h * (float(t) - t_prev))
        rho = u @ rho @ u.conj().T
        cop = model.c0 if c == 0 else model.c1
        rho = cop @ rho @ cop.conj().T
        t_prev = float(t)
    u = expm(-1j * h * (record.tf - t_prev))
    rho = u @ rho @ u.conj().T
    trace = float(np.trace(rho).real)
    if trace <= 0.0:
        return -np.inf
    return float(np.log(trace))


def chunked_log_density(model: Model, record: ClassicalRecord, g: float) -> float:
    """Record log-density by a dense state replay that cuts each interval into
    equal chunks, one expm per interval, renormalizing after every chunk and
    collapse and summing the removed logs. A chunk is short enough that the
    total detection rate removes at most e^-10 of the squared norm, a tenth
    of what the scorer lets one chunk remove.

    At strong damping and large n_trunc one exponential over a long interval
    (as in `direct_log_density`), or over a chunk as long as the scorer's,
    loses accuracy to the norm's decay across it.
    """
    h = effective_hamiltonian(model, g).matrix
    decay = model.c0.conj().T @ model.c0 + model.c1.conj().T @ model.c1
    max_step = 10.0 / float(np.linalg.eigvalsh(decay).max())
    psi = ground_vacuum(model)
    log_norm = 0.0

    def renormalize(psi):
        nonlocal log_norm
        n2 = float(np.vdot(psi, psi).real)
        if n2 <= 0.0:
            return None
        log_norm += np.log(n2)
        return psi / np.sqrt(n2)

    def advance(psi, tau):
        n_sub = max(1, int(np.ceil(tau / max_step)))
        u = expm(-1j * h * (tau / n_sub))
        for _ in range(n_sub):
            psi = renormalize(u @ psi)
        return psi

    t_prev = record.t0
    for t, c in zip(record.times, record.channels):
        psi = advance(psi, float(t) - t_prev)
        psi = renormalize((model.c0 if c == 0 else model.c1) @ psi)
        if psi is None:
            return -np.inf
        t_prev = float(t)
    advance(psi, record.tf - t_prev)
    return float(log_norm)


def sample_record(model: Model, g: float, tf: float, rng: np.random.Generator, n_steps: int = 1000):
    """A record of [0, tf] drawn from the model at coupling g, as a source of
    records the model makes plausible (not a reference): a detection falls
    in each of n_steps equal steps with the exact no-detection probability,
    at the step's end, on a channel drawn by ||c_j psi||^2, at most one per
    step. Unlike `simulate_record` it shares no code with the scorer, and it
    costs the same where the scorer would take its slow fallback."""
    u = expm(-1j * effective_hamiltonian(model, g).matrix * (tf / n_steps))
    psi = ground_vacuum(model)
    times, channels = [], []
    for k in range(1, n_steps + 1):
        psi = u @ psi
        survival = float(np.vdot(psi, psi).real)
        psi /= np.sqrt(survival)
        if rng.random() < 1.0 - survival:
            w0, w1 = (float(np.vdot(c @ psi, c @ psi).real) for c in (model.c0, model.c1))
            channel = int(rng.random() * (w0 + w1) >= w0)
            psi = (model.c0, model.c1)[channel] @ psi
            psi /= np.linalg.norm(psi)
            times.append(tf * k / n_steps)
            channels.append(channel)
    return ClassicalRecord(
        t0=0.0, tf=tf, times=np.array(times, dtype=float), channels=np.array(channels, dtype=np.int64)
    )


def random_toy_instance(rng: np.random.Generator):
    """Small random model, coupling, and record for oracle comparisons."""
    from qsysid import ModelParams, build_model

    params = ModelParams(
        g0=6.0,
        gamma_perp=float(rng.uniform(0.2, 1.5)),
        kappa=float(rng.uniform(0.3, 2.0)),
        epsilon=float(rng.uniform(0.3, 1.5)),
        n_trunc=int(rng.integers(1, 4)),
    )
    model = build_model(params)
    g = float(rng.uniform(0.5, 5.0))
    n_events = int(rng.integers(0, 6))
    times = np.sort(rng.uniform(0.05, 0.95, size=n_events))
    channels = rng.integers(0, 2, size=n_events)
    record = ClassicalRecord(t0=0.0, tf=1.0, times=times, channels=channels)
    return model, record, g


def random_hermitian(rng: np.random.Generator, dim: int, real: bool) -> np.ndarray:
    """A random Hermitian matrix with O(1) entries, real symmetric if `real`."""
    x = rng.standard_normal((dim, dim))
    if not real:
        x = x + 1j * rng.standard_normal((dim, dim))
    return 0.5 * (x + x.conj().T)


def complex_liouvillian(model: Model, g: float):
    """drho/dt as a function of rho, by the dense complex formula
    -i*(H rho - rho H^dag) + sum_j c_j rho c_j^dag."""
    h = effective_hamiltonian(model, g).matrix
    h_dag = h.conj().T
    c0, c1 = model.c0, model.c1
    c0d, c1d = c0.conj().T, c1.conj().T

    def rhs(rho):
        return -1j * (h @ rho - rho @ h_dag) + c0 @ rho @ c0d + c1 @ rho @ c1d

    return rhs


def sparse_steady_state(model: Model, g: float) -> np.ndarray:
    """Stationary density matrix by one sparse direct solve of L vec(rho) = 0
    in complex arithmetic, with the equation for rho[0, 0] replaced by the
    trace constraint sum_i rho[i, i] = 1.

    vec stacks rows, so vec(X rho Y) = (X kron Y^T) vec(rho).
    """
    from scipy import sparse
    from scipy.sparse.linalg import spsolve

    dim = model.dim
    eye = sparse.identity(dim, dtype=complex, format="csr")
    h = sparse.csr_matrix(effective_hamiltonian(model, g).matrix)
    liou = -1j * (sparse.kron(h, eye) - sparse.kron(eye, h.conj()))
    for c in (model.c0, model.c1):
        cs = sparse.csr_matrix(c)
        liou = liou + sparse.kron(cs, cs.conj())
    diagonal = np.arange(dim) * (dim + 1)
    trace_row = sparse.csr_matrix((np.ones(dim), (np.zeros(dim, dtype=int), diagonal)), shape=(1, dim * dim))
    system = sparse.vstack([trace_row, sparse.csr_matrix(liou)[1:]]).tocsc()
    b = np.zeros(dim * dim, dtype=complex)
    b[0] = 1.0
    rho = spsolve(system, b).reshape(dim, dim)
    return 0.5 * (rho + rho.conj().T)


def empty_cavity_expected_counts(epsilon: float, kappa: float, duration: float) -> float:
    """Exact mean photocount for a resonantly driven empty cavity from vacuum.

    The field is the coherent state alpha(t) = (eps/kappa)*(1 - e^{-kappa t})
    (angular rates), emitting at 2*kappa*|alpha(t)|^2, so the mean count is
    the time integral of that rate.
    """
    k = TWO_PI * kappa
    e = TWO_PI * epsilon
    alpha_sq = (e / k) ** 2
    integral = (
        duration
        - 2.0 * (1.0 - np.exp(-k * duration)) / k
        + (1.0 - np.exp(-2.0 * k * duration)) / (2.0 * k)
    )
    return 2.0 * k * alpha_sq * integral
