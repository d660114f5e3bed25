import math
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import qsysid.mastereq
from qsysid import (
    ConvergenceError,
    InvalidParametersError,
    MasterState,
    ModelParams,
    StepSizeError,
    build_model,
    conditional_states,
    effective_hamiltonian,
    expectations,
    ground_vacuum_density,
    integrate_master,
    simulate_record,
    steady_state,
)

from oracles import complex_liouvillian, random_hermitian, sparse_steady_state

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
        assert rho.dtype == np.float64  # a real start stays real
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


@pytest.mark.parametrize("fault", ["shape", "non-finite", "non-Hermitian"])
def test_bad_start_state_raises_before_any_step(coupled_model, fault):
    rho = ground_vacuum_density(coupled_model).rho.copy()
    if fault == "shape":
        rho = rho[:-1]
    elif fault == "non-finite":
        rho[1, 1] = np.nan
    else:
        rho[0, 1] = 0.5
    no_steps = patch.object(qsysid.mastereq, "_rhs_factory", side_effect=AssertionError("stepped"))
    with no_steps, pytest.raises(InvalidParametersError, match="rho0"):
        integrate_master(coupled_model, 3.0, MasterState(rho), 1.0)


def test_complex_start_evolves_its_real_part_like_a_real_start(coupled_model):
    # L is real and keeps the trace, so the real and imaginary parts of a
    # complex Hermitian rho evolve apart, and only the real part has trace
    rng = np.random.default_rng(7)
    psi = rng.standard_normal(coupled_model.dim) + 1j * rng.standard_normal(coupled_model.dim)
    rho0 = np.outer(psi, psi.conj()) / np.vdot(psi, psi).real
    out = integrate_master(coupled_model, 3.0, MasterState(rho0), 0.2)
    real = integrate_master(coupled_model, 3.0, MasterState(rho0.real), 0.2)
    assert out.rho.dtype == np.complex128
    assert np.abs(out.rho.imag).max() > 1e-3
    np.testing.assert_allclose(out.rho.real, real.rho, rtol=0.0, atol=1e-12)


def _assert_liouvillian_matches_oracle(model, g, rho):
    """The real-arithmetic rhs against the dense complex formula, to the
    rounding of a length-dim sum of the largest products that enter it,
    plus one subnormal per term, which is all a product can lose to
    underflow."""
    got = qsysid.mastereq._rhs_factory(model, g)(rho)
    want = complex_liouvillian(model, g)(rho)
    row_sums = [np.abs(op).sum(axis=1).max() for op in (model.c0, model.c1)]
    h_rows = np.abs(effective_hamiltonian(model, g).matrix).sum(axis=1).max()
    scale = (2.0 * h_rows + sum(r * r for r in row_sums)) * np.abs(rho).max()
    bound = model.dim * np.finfo(float).eps * scale + model.dim * np.finfo(float).smallest_subnormal
    assert np.abs(got - want).max() <= bound


@pytest.mark.parametrize("real", [True, False], ids=["real-symmetric", "complex-Hermitian"])
def test_liouvillian_matches_complex_oracle_at_headline_dimension(cavity_model, real):
    rho = random_hermitian(np.random.default_rng(30), cavity_model.dim, real)
    _assert_liouvillian_matches_oracle(cavity_model, 45.0, rho)


@settings(deadline=None)
@given(
    n_trunc=st.integers(1, 40),
    kappa=st.floats(0.0, 300.0),
    gamma_perp=st.floats(0.0, 300.0),
    epsilon=st.floats(0.0, 50.0),
    g=st.floats(0.0, 60.0),
    seed=st.integers(0, 2**32 - 1),
    real=st.booleans(),
)
def test_liouvillian_matches_complex_oracle(n_trunc, kappa, gamma_perp, epsilon, g, seed, real):
    assume(kappa + gamma_perp > 0.0)
    params = ModelParams(g0=57.0, gamma_perp=gamma_perp, kappa=kappa, epsilon=epsilon, n_trunc=n_trunc)
    model = build_model(params)
    rho = random_hermitian(np.random.default_rng(seed), model.dim, real)
    _assert_liouvillian_matches_oracle(model, g, rho)


def test_liouvillian_matches_complex_oracle_at_subnormal_rate():
    # a falsifying example of the property above without the bound's
    # underflow term: at kappa 5e-324 the rhs is one subnormal (5e-324) off
    # the oracle, while dim * eps * scale is 6 * 2.2e-16 * 3.7e-322, which
    # rounds to 0
    model = build_model(ModelParams(g0=57.0, gamma_perp=0.0, kappa=5e-324, epsilon=0.0, n_trunc=2))
    _assert_liouvillian_matches_oracle(model, 0.0, random_hermitian(np.random.default_rng(0), model.dim, False))


def test_coarse_step_raises_step_size_error():
    # RK4 is unstable once |lambda_max| * dt is too large; the trace guard
    # must catch it instead of returning garbage, and name the cause
    model = build_model(ModelParams(g0=6.0, gamma_perp=0.5, kappa=300.0, epsilon=1.0, n_trunc=10))
    state = ground_vacuum_density(model)
    with pytest.raises(StepSizeError, match=r"largest total decay rate .* = 3\.77; the model is too stiff"):
        integrate_master(model, 3.0, state, 5.0)


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
    d = np.diag(ss.rho)
    pops = d[0::2] + d[1::2]
    n_vals = np.arange(pops.size)
    poisson = np.exp(-1.0) / np.array([math.factorial(n) for n in n_vals], dtype=float)
    np.testing.assert_allclose(pops[:8], poisson[:8], atol=1e-7)


def test_steady_state_is_fixed_point(coupled_model):
    ss = steady_state(coupled_model, 3.0)
    assert ss.rho.dtype == np.float64
    later = integrate_master(coupled_model, 3.0, ss, 0.1)
    assert np.abs(later.rho - ss.rho).max() <= 1e-9


def test_steady_state_matches_sparse_solve_at_headline_point(cavity_model):
    got = steady_state(cavity_model, 45.0).rho
    want = sparse_steady_state(cavity_model, 45.0)
    assert np.abs(got - want).max() <= 1e-9


def test_steady_state_convergence_failure(coupled_model, monkeypatch):
    monkeypatch.setattr(qsysid.mastereq, "_STEADY_MAX_TIME", 0.25)
    with pytest.raises(ConvergenceError, match="within 0.25 us"):
        steady_state(coupled_model, 3.0)


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


def test_photon_number_distribution_from_the_diagonal(coupled_model):
    state = integrate_master(coupled_model, 3.0, ground_vacuum_density(coupled_model), 0.5)
    d = np.diag(state.rho)  # P(n), traced over the atom: basis index 2n + s
    pops = d[0::2] + d[1::2]
    assert pops.shape == (7,)
    assert pops.sum() == pytest.approx(1.0, abs=1e-10)
    assert pops.min() >= -1e-12


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
