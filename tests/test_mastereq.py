import math
import warnings

import numpy as np
import pytest

from qsysid import (
    ConvergenceError,
    InvalidParametersError,
    ModelParams,
    StepSizeError,
    build_model,
    check_truncation,
    conditional_states,
    expectations,
    ground_vacuum_density,
    integrate_master,
    photon_populations,
    simulate_record,
    steady_state,
)

TWO_PI = 2.0 * np.pi


@pytest.fixture(scope="module")
def empty_cavity():
    """No atom-light coupling: the cavity settles into a coherent state."""
    return build_model(ModelParams(g0=6.0, gamma_perp=0.5, kappa=6.0, epsilon=6.0, n_trunc=12))


@pytest.fixture(scope="module")
def coupled_model():
    return build_model(ModelParams(g0=6.0, gamma_perp=0.8, kappa=1.5, epsilon=2.0, n_trunc=6))


def test_integration_preserves_density_matrix_structure(coupled_model):
    state = ground_vacuum_density(coupled_model)
    for _ in range(4):
        state = integrate_master(coupled_model, 3.0, state, 0.25)
        rho = state.rho
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
        assert np.abs(rho - rho.conj().T).max() <= 1e-12
        eigs = np.linalg.eigvalsh(rho)
        assert eigs.min() >= -1e-8
    assert state.time == pytest.approx(1.0)


def test_zero_duration_is_identity(coupled_model):
    state = ground_vacuum_density(coupled_model)
    out = integrate_master(coupled_model, 3.0, state, 0.0)
    np.testing.assert_array_equal(out.rho, state.rho)
    assert out.time == state.time


def test_integration_validation(coupled_model):
    state = ground_vacuum_density(coupled_model)
    with pytest.raises(InvalidParametersError):
        integrate_master(coupled_model, 3.0, state, -1.0)
    with pytest.raises(InvalidParametersError):
        integrate_master(coupled_model, 3.0, state, 1.0, dt=0.0)


def test_coarse_step_raises_step_size_error():
    # RK4 is unstable once |lambda_max| * dt is too large; the trace guard
    # must catch it instead of returning garbage
    model = build_model(ModelParams(g0=6.0, gamma_perp=0.5, kappa=2.0, epsilon=1.0, n_trunc=4))
    state = ground_vacuum_density(model)
    with pytest.raises(StepSizeError):
        integrate_master(model, 3.0, state, 5.0, dt=0.05)


def test_driven_cavity_transient_matches_closed_form(empty_cavity):
    # with g = 0 the field is a coherent state with amplitude
    # alpha(t) = (eps/kappa) * (1 - exp(-kappa t))
    kappa_w = TWO_PI * 6.0
    alpha_inf = 1.0  # eps / kappa
    state = ground_vacuum_density(empty_cavity)
    t = 0.0
    for t_next in (0.02, 0.05, 0.1):
        state = integrate_master(empty_cavity, 0.0, state, t_next - t)
        t = t_next
        n_photon, p_excited, _ = expectations(state, empty_cavity)
        expected = (alpha_inf * (1.0 - np.exp(-kappa_w * t))) ** 2
        assert n_photon == pytest.approx(expected, rel=1e-6)
        assert abs(p_excited) <= 1e-12


def test_empty_cavity_steady_state_closed_form(empty_cavity):
    ss = steady_state(empty_cavity, 0.0)
    n_photon, p_excited, flux = expectations(ss, empty_cavity)
    assert n_photon == pytest.approx(1.0, rel=1e-8)  # (eps/kappa)^2
    assert abs(p_excited) <= 1e-12
    assert flux == pytest.approx(2.0 * TWO_PI * 6.0, rel=1e-8)
    # photon statistics of a coherent state are Poissonian
    pops = photon_populations(ss)
    n_vals = np.arange(pops.size)
    poisson = np.exp(-1.0) / np.array([math.factorial(n) for n in n_vals], dtype=float)
    np.testing.assert_allclose(pops[:8], poisson[:8], atol=1e-7)


def test_steady_state_is_fixed_point(coupled_model):
    ss = steady_state(coupled_model, 3.0)
    later = integrate_master(coupled_model, 3.0, ss, 0.1)
    assert np.abs(later.rho - ss.rho).max() <= 1e-9


def test_steady_state_convergence_failure(coupled_model):
    with pytest.raises(ConvergenceError):
        steady_state(coupled_model, 3.0, max_time=0.25)
    with pytest.raises(InvalidParametersError):
        steady_state(coupled_model, 3.0, tol=0.0)
    for max_time in (0.0, -1.0, math.nan):
        with pytest.raises(InvalidParametersError, match="max_time"):
            steady_state(coupled_model, 3.0, max_time=max_time)


def test_expectations_match_direct_traces(coupled_model):
    state = integrate_master(coupled_model, 3.0, ground_vacuum_density(coupled_model), 0.4)
    n_photon, p_excited, flux = expectations(state, coupled_model)
    ad_a = coupled_model.op_a.conj().T @ coupled_model.op_a
    sp_sm = coupled_model.op_sigma_minus.conj().T @ coupled_model.op_sigma_minus
    assert n_photon == pytest.approx(float(np.trace(ad_a @ state.rho).real))
    assert p_excited == pytest.approx(float(np.trace(sp_sm @ state.rho).real))
    expected_flux = 2.0 * TWO_PI * (1.5 * n_photon + 0.8 * p_excited)
    assert flux == pytest.approx(expected_flux)
    assert abs(np.trace(ad_a @ state.rho).imag) <= 1e-12


def test_photon_populations_form_distribution(coupled_model):
    state = integrate_master(coupled_model, 3.0, ground_vacuum_density(coupled_model), 0.5)
    pops = photon_populations(state)
    assert pops.shape == (7,)
    assert pops.sum() == pytest.approx(1.0, abs=1e-10)
    assert pops.min() >= -1e-12


def test_check_truncation_warns_on_tight_cutoff():
    cramped = build_model(ModelParams(g0=6.0, gamma_perp=0.5, kappa=6.0, epsilon=6.0, n_trunc=3))
    with pytest.warns(RuntimeWarning, match="n_trunc"):
        tail = check_truncation(cramped, 0.0)
    assert tail > 1e-8


def test_check_truncation_quiet_when_roomy():
    roomy = build_model(ModelParams(g0=6.0, gamma_perp=0.5, kappa=6.0, epsilon=6.0, n_trunc=14))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tail = check_truncation(roomy, 0.0)
    assert tail < 1e-8


def test_trajectory_average_reproduces_master_equation(coupled_model):
    # the ensemble mean of conditional quantum-jump states must track the
    # unconditional density matrix
    g, t_probe, n_traj = 3.0, 0.3, 120
    ad_a = coupled_model.op_a.conj().T @ coupled_model.op_a
    sp_sm = coupled_model.op_sigma_minus.conj().T @ coupled_model.op_sigma_minus
    n_samples, p_samples = [], []
    for i in range(n_traj):
        record = simulate_record(coupled_model, g, 0.0, t_probe, seed=5000 + i)
        (amps,) = conditional_states(coupled_model, g, record, np.array([t_probe]))
        n_samples.append(float(np.real(amps.conj() @ (ad_a @ amps))))
        p_samples.append(float(np.real(amps.conj() @ (sp_sm @ amps))))
    master = integrate_master(coupled_model, g, ground_vacuum_density(coupled_model), t_probe)
    n_master, p_master, _ = expectations(master, coupled_model)
    for samples, target in ((n_samples, n_master), (p_samples, p_master)):
        mean = float(np.mean(samples))
        se = float(np.std(samples, ddof=1)) / np.sqrt(n_traj)
        assert abs(mean - target) <= 4.0 * max(se, 1e-4)
