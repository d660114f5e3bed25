"""Fixed CPU kernels that gauge how fast the machine runs during a run.

On a shared virtual machine the same code runs up to 1.5 times as long in
some moments as in others; the slow and fast states alternate within a
second and their mix drifts over minutes, so it differs from run to run.
The process gets its CPU time all along (its CPU time grows with its wall
time), so what changes is how much work a CPU second does, and by how much
depends on the kind of work.

The runner therefore times, between ops, the kernels of the kinds of work
the workload's op does (`PARTS`, chosen per workload in workloads.py), and
rescales the run's times to the speed at which each kernel takes its
reference time:

    scale = sum of the parts' reference times / mean wall time of one gauge call

A time in reference seconds is a wall time multiplied by `scale`; a rate per
reference second is a rate divided by it.  The mean, not the median, of the
gauge calls is used: the calls fall into the slow or the fast state, and a
median would jump between the two from run to run.  The kernels never call
the package, so a change to the package cannot move them.

    python3 perfbench/speed.py        # time every part ten times
"""

from __future__ import annotations

import functools
import math
import time

import numpy as np
import scipy.linalg

_DIM = 62          # 2 (n_trunc + 1) at the headline n_trunc of 30
_FALLBACKS = 86    # default-grid candidates on the fallback ladder
_LEVELS = 8        # ladder levels per pass: 8 stacks of 5.3 MB, past the L2 cache
_rng = np.random.default_rng(20260101)


def _complex(*shape):
    return (_rng.standard_normal(shape) + 1j * _rng.standard_normal(shape)) * 0.1


_MATRIX = _complex(_DIM, _DIM)
_OTHER = _complex(_DIM, _DIM)
_VECTOR = _complex(_DIM)


@functools.cache
def _ladder():
    """Stacks too large for the cache, made on first use only."""
    return [_complex(_FALLBACKS, _DIM, _DIM) for _ in range(_LEVELS)], _complex(_FALLBACKS, _DIM)


def _scalar() -> float:
    """Interpreted scalar arithmetic (the jump-time search's control flow)."""
    total = 0.0
    for i in range(30_000):
        total += math.sqrt(i) * 1.0000001
    return total


def _matvec() -> float:
    """Small complex matrix-vector products with renormalization."""
    psi, total = _VECTOR.copy(), 0.0
    for _ in range(1_500):
        psi = _MATRIX @ psi
        norm = float(np.vdot(psi, psi).real)
        psi = psi / math.sqrt(norm)
        total += norm
    return total


def _dense() -> float:
    """Matrix exponentials and eigenvalues (propagator preparation)."""
    total = 0.0
    for i in range(4):
        total += float(np.abs(scipy.linalg.expm(_MATRIX * (1.0 + 0.01 * i))).sum())
        total += float(np.abs(np.linalg.eigvals(_MATRIX)).sum())
    return total


def _matmul() -> float:
    """Chains of complex matrix products (master-equation steps)."""
    rho = _OTHER
    for _ in range(400):
        rho = (_MATRIX @ rho) * 0.5
    return float(np.abs(rho).sum())


def _stacked() -> float:
    """Matrix-vector products streamed over stacks of per-candidate matrices
    (batched scoring along the fallback ladder)."""
    stacks, states = _ladder()
    for stack in stacks + stacks:
        states = np.matmul(stack, states[:, :, None])[:, :, 0]
        states /= np.sqrt(np.einsum("gd,gd->g", states.conj(), states).real)[:, None]
    return float(np.abs(states).sum())


# Each part's wall time, in seconds, at the reference speed.  They are
# definitions, close to the parts' medians on a 2-vCPU Xeon virtual machine
# with one BLAS thread; every comparison between commits divides them out.
PARTS = {
    "scalar": (_scalar, 0.0035),
    "matvec": (_matvec, 0.011),
    "dense": (_dense, 0.022),
    "matmul": (_matmul, 0.021),
    "stacked": (_stacked, 0.014),
}


def gauge(parts):
    """A task that runs the named parts once each and returns their wall
    times by name; and the sum of their reference times."""

    def task() -> dict[str, float]:
        times = {}
        for name in parts:
            start = time.perf_counter()
            PARTS[name][0]()
            times[name] = time.perf_counter() - start
        return times

    return task, sum(PARTS[name][1] for name in parts)


if __name__ == "__main__":
    for name, (func, reference) in PARTS.items():
        times = []
        for _ in range(10):
            start = time.perf_counter()
            func()
            times.append(time.perf_counter() - start)
        print(f"{name:8s} reference {reference:.4f}  " + " ".join(f"{t:.4f}" for t in times))
