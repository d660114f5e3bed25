"""Independent references that the benchmark checks the program's outputs against.

Everything here is built from the physical rates alone and shares no code
with the `qsysid` package, so a change of algorithm inside the package cannot
change the reference along with it.  Conventions match the package: rates are
frequencies/2pi in MHz, generators are angular (rad/us), time is in us, and
basis index i = 2*n + s (photon number n, atom ground s=0 / excited s=1).
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sparse
from scipy.linalg import expm
from scipy.sparse.linalg import spsolve

TWO_PI = 2.0 * math.pi


def operators(g, gamma_perp, kappa, epsilon, n_trunc):
    """Effective Hamiltonian H(g) and the collapse operators (c0, c1).

    c0 is atomic emission sqrt(2*gamma_perp)*sigma_-, c1 cavity leakage
    sqrt(2*kappa)*a, and H = i*g*(a sig+ - a^dag sig-) + i*eps*(a - a^dag)
    - (i/2)*(c0^dag c0 + c1^dag c1), all in angular units.
    """
    levels = n_trunc + 1
    dim = 2 * levels
    a = np.zeros((dim, dim), dtype=complex)
    sm = np.zeros((dim, dim), dtype=complex)
    for n in range(levels):
        sm[2 * n, 2 * n + 1] = 1.0
        if n:
            for s in (0, 1):
                a[2 * (n - 1) + s, 2 * n + s] = math.sqrt(n)
    c0 = math.sqrt(2.0 * TWO_PI * gamma_perp) * sm
    c1 = math.sqrt(2.0 * TWO_PI * kappa) * a
    ad, sp = a.conj().T, sm.conj().T
    h = 1j * TWO_PI * g * (a @ sp - ad @ sm) + 1j * TWO_PI * epsilon * (a - ad)
    h = h - 0.5j * (c0.conj().T @ c0 + c1.conj().T @ c1)
    return h, (c0, c1)


def liouvillian_rhs(rho, h, collapses):
    """d(rho)/dt = -i*(H rho - rho H^dag) + sum_j c_j rho c_j^dag."""
    out = -1j * (h @ rho - rho @ h.conj().T)
    for c in collapses:
        out = out + c @ rho @ c.conj().T
    return out


def steady_state_density(h, collapses):
    """Stationary density matrix from a sparse solve of L vec(rho) = 0.

    vec stacks columns, so vec(A rho B) = (B^T kron A) vec(rho); the first
    row of L is replaced by the trace constraint sum_i rho_ii = 1.
    """
    dim = h.shape[0]
    eye = sparse.identity(dim, dtype=complex, format="csr")
    hs = sparse.csr_matrix(h)
    liou = -1j * (sparse.kron(eye, hs) - sparse.kron(hs.conj(), eye))
    for c in collapses:
        cs = sparse.csr_matrix(c)
        liou = liou + sparse.kron(cs.conj(), cs)
    liou = sparse.lil_matrix(liou)
    liou[0, :] = 0.0
    for i in range(dim):
        liou[0, i * dim + i] = 1.0
    rhs = np.zeros(dim * dim, dtype=complex)
    rhs[0] = 1.0
    vec = spsolve(sparse.csc_matrix(liou), rhs, permc_spec="NATURAL")
    rho = vec.reshape((dim, dim), order="F")
    return 0.5 * (rho + rho.conj().T)


def detected_flux(rho, collapses):
    """Total detection rate sum_j tr(c_j^dag c_j rho), in counts per us."""
    return float(sum(np.trace(c.conj().T @ c @ rho).real for c in collapses))


def record_log_likelihood(h, collapses, t0, tf, times, channels):
    """Log-density of a detection record by a dense expm per interval.

    Same quantity the package's scorer computes (the dt^n measure factor
    omitted): propagate the no-detection state exactly over each gap,
    apply the recorded collapse, renormalize and accumulate the log norms.
    """
    psi = np.zeros(h.shape[0], dtype=complex)
    psi[0] = 1.0
    loglik = 0.0
    t_prev = t0
    for t, ch in zip(list(times) + [tf], list(channels) + [None]):
        tau = float(t) - t_prev
        if tau > 0.0:
            psi = expm(-1j * tau * h) @ psi
            n2 = float(np.vdot(psi, psi).real)
            loglik += math.log(n2)
            psi = psi / math.sqrt(n2)
        if ch is not None:
            psi = collapses[int(ch)] @ psi
            n2 = float(np.vdot(psi, psi).real)
            loglik += math.log(n2)
            psi = psi / math.sqrt(n2)
        t_prev = float(t)
    return loglik
