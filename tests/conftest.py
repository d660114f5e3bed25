from contextlib import contextmanager
from unittest.mock import patch

import numpy as np
import pytest

import qsysid.dynamics
import qsysid.inference
from qsysid import ModelParams, build_model, prepare_propagator

# one line per acceptance criterion, printed after the run (terminal-summary
# output is never swallowed by pytest's capture, unlike in-test prints)
ACCEPTANCE_RESULTS = []


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for line in ACCEPTANCE_RESULTS:
        terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def cavity_params():
    """Operating point used throughout: strong coupling, lossy cavity."""
    return ModelParams(g0=57.0, gamma_perp=2.5, kappa=30.0, epsilon=44.3, n_trunc=30)


@pytest.fixture(scope="session")
def cavity_model(cavity_params):
    return build_model(cavity_params)


@pytest.fixture(scope="session")
def small_model():
    """Cheap low-truncation model for unit-level checks."""
    return build_model(ModelParams(g0=6.0, gamma_perp=0.8, kappa=1.1, epsilon=0.9, n_trunc=3))


@pytest.fixture
def rng():
    return np.random.default_rng(20260822)


@contextmanager
def forced_path(method):
    """Make the scorer and the simulator prepare every propagator on one
    path; yields the list the prepared propagators go to."""
    built = []

    def prepare(hamiltonian):
        built.append(prepare_propagator(hamiltonian, method))
        return built[-1]

    with (
        patch.object(qsysid.inference, "prepare_propagator", prepare),
        patch.object(qsysid.dynamics, "prepare_propagator", prepare),
    ):
        yield built
