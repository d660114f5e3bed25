import dataclasses
import math
import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from qsysid import (
    CHANNEL_CAVITY,
    METHOD_EIG,
    METHOD_FALLBACK,
    ClassicalRecord,
    EffectiveHamiltonian,
    FormatError,
    InvalidParametersError,
    ModelParams,
    NumericError,
    Propagator,
    basis_index,
    build_model,
    conditional_states,
    default_grid,
    effective_hamiltonian,
    ground_vacuum,
    log_likelihood,
    max_total_decay_rate,
    prepare_propagator,
    simulate_record,
)

import qsysid.dynamics
from qsysid.dynamics import (
    EIG_TOLERANCE, TRUNCATION_TAIL_LIMIT, Detector, _expm, _locate_jump_time, _segment, _simulate,
)

from conftest import forced_path
from oracles import direct_log_density, empty_cavity_expected_counts

TWO_PI = 2.0 * np.pi


def random_state(rng, dim):
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return psi / np.linalg.norm(psi)


def norm_sq(amps):
    return float(np.vdot(amps, amps).real)


# ---------------------------------------------------------------- propagator


def test_prepare_propagator_picks_eigendecomposition(small_model):
    prop = prepare_propagator(effective_hamiltonian(small_model, 3.0))
    assert prop.method == METHOD_EIG


def test_prepare_propagator_method_forced(small_model):
    h = effective_hamiltonian(small_model, 3.0)
    assert prepare_propagator(h, METHOD_FALLBACK).method == METHOD_FALLBACK
    assert prepare_propagator(h, METHOD_EIG).method == METHOD_EIG
    with pytest.raises(InvalidParametersError):
        prepare_propagator(h, "cayley")


def test_every_default_grid_candidate_takes_eigen_path(cavity_model, cavity_params):
    # at the headline point cond(V) is 7e7..1.3e9, yet the eigen path is
    # accurate for every candidate, the decoupled g = 0 included
    methods = {
        prepare_propagator(effective_hamiltonian(cavity_model, float(g))).method
        for g in default_grid(cavity_params).values
    }
    assert methods == {METHOD_EIG}


@pytest.mark.parametrize("g", [0.0, 40.0, 57.0])
def test_eigen_path_matches_expm_at_simulated_window_lengths(cavity_model, g):
    # on the states a record passes through (the ground vacuum, and after a
    # detection on either channel) within EIG_TOLERANCE, relative; exact
    # zeros kept for every basis state
    h = effective_hamiltonian(cavity_model, g)
    prop = prepare_propagator(h)
    assert prop.method == METHOD_EIG
    start = expm(-0.01j * h.matrix) @ ground_vacuum(cavity_model)
    states = [ground_vacuum(cavity_model)] + [
        c @ start for c in (cavity_model.c0, cavity_model.c1) if np.any(c @ start)
    ]
    basis = np.eye(cavity_model.dim, dtype=complex)
    for tau in (0.1, 1.0):
        want = expm(-1j * tau * h.matrix)
        for psi in states:
            got = prop.evolve(psi[None], tau)[0]
            assert np.linalg.norm(got - want @ psi) <= EIG_TOLERANCE * np.linalg.norm(want @ psi)
        got = np.stack([prop.evolve(e[None], tau)[0] for e in basis], axis=1)
        assert np.all(got[want == 0] == 0)


@pytest.mark.parametrize("n_trunc", [18, 30, 40])
def test_coordinate_detections_match_collapse_at_operating_dimension(cavity_params, n_trunc):
    # the path check measures turns only; a detection on an eigen row is one
    # product with M = W^-1 C W, which is built after the check. On every
    # 4th default-grid candidate, one detection per channel on the ground
    # vacuum turned through a renormalization chunk is within 1e-12
    # (relative) of C psi, and exactly zero where C psi is
    params = dataclasses.replace(cavity_params, n_trunc=n_trunc)
    model = build_model(params)
    prop = Propagator.stack([
        prepare_propagator(effective_hamiltonian(model, float(g))) for g in default_grid(params).values[::4]
    ])
    assert prop.method == METHOD_EIG
    start = np.tile(ground_vacuum(model).real, (len(prop.eig), 1))
    coords = prop.turn(prop.to_coords(start), 100.0 / max_total_decay_rate(model))
    states = prop.from_coords(coords)
    for collapse in (model.c0, model.c1):
        detector = Detector(prop, collapse)
        want = detector.on_states(states)
        err = np.linalg.norm(prop.from_coords(detector.on_coords(coords)) - want, axis=1)
        assert np.all(err <= 1e-12 * np.linalg.norm(want, axis=1))


@pytest.mark.parametrize("g", [0.0, 45.0])
@pytest.mark.parametrize("tau", [1e-4, 0.01, 1.0])
def test_path_check_reference_matches_scipy_expm(cavity_model, g, tau):
    # the eigen path is measured against this numpy Pade exponential
    a = -1j * tau * effective_hamiltonian(cavity_model, g).matrix
    want = expm(a)
    got = _expm(a)
    assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()
    np.testing.assert_array_equal(got == 0, want == 0)


def _check_references(a):
    """The path check's references for A: the exponential over the short
    interval, that squared up to the long one, and the probes."""
    rate = -2.0 * float(np.linalg.eigvals(a).real.min())
    long_tau = qsysid.dynamics._RENORM_LOG_BUDGET / rate
    short = _expm(long_tau / 2.0**qsysid.dynamics._CHECK_SQUARINGS * a)
    squared = short
    for _ in range(qsysid.dynamics._CHECK_SQUARINGS):
        squared = squared @ squared
    probes = np.zeros((len(a), 2))
    probes[:, 0] = short[:, 0] / np.linalg.norm(short[:, 0])
    probes[0, 1] = 1.0
    return long_tau, short, squared, probes


def test_squared_reference_matches_direct_exponential_over_parameter_space():
    # the long reference is the short one squared k times; over a seeded
    # log-uniform scan it is within 1e-11 of the direct exponential over the
    # long interval, on both probes and on each view the check measures
    # (3.7e-12 at worst, 1.3e-14 in the median)
    rng = np.random.default_rng(2026)

    def log_uniform(lo, hi):
        return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))

    worst = 0.0
    for _ in range(200):
        n_trunc, kappa, gamma_perp, epsilon, g = (
            round(log_uniform(1, 40)), log_uniform(0.1, 1000), log_uniform(0.1, 300),
            log_uniform(0.1, 100), log_uniform(0.1, 60),
        )
        model = build_model(ModelParams(g0=60.0, gamma_perp=gamma_perp, kappa=kappa, epsilon=epsilon, n_trunc=n_trunc))
        a = effective_hamiltonian(model, g).generator
        long_tau, _, squared, probes = _check_references(a)
        direct = _expm(long_tau * a) @ probes
        index = np.arange(model.dim)
        weights = np.stack([np.ones(model.dim), index % 2, index // 2])  # squared: all, atom, field
        err, size = (np.sqrt(weights @ np.square(x)) for x in (squared @ probes - direct, direct))
        worst = max(worst, float(np.max(err / np.maximum(size, np.finfo(float).tiny))))
    assert worst <= 1e-11


def test_both_check_references_keep_the_zeros_between_blocks(cavity_model):
    # at g = 0 the atom decouples; both references are exactly zero between
    # the blocks of A and nowhere else, so the exact-zero verdict holds on
    # both intervals and the decoupled candidate keeps the eigen path
    a = effective_hamiltonian(cavity_model, 0.0).generator
    blocks = qsysid.dynamics._blocks((a != 0).tobytes(), len(a))
    assert len(blocks) == 2
    same_block = np.zeros(a.shape, dtype=bool)
    for rows in blocks:
        same_block[np.ix_(rows, rows)] = True
    _, short, squared, _ = _check_references(a)
    for want in (short, squared):
        np.testing.assert_array_equal(want == 0, ~same_block)
    assert prepare_propagator(effective_hamiltonian(cavity_model, 0.0)).method == METHOD_EIG


def test_vanishing_coupling_boundary_at_headline_point(cavity_model):
    # the atom's share is O(g) and its error grows as 1/g: at the headline
    # point the check reads 6.3e-10 at g 1e-4 MHz and 2.3e-11 at g 1e-3
    assert prepare_propagator(effective_hamiltonian(cavity_model, 1e-4)).method == METHOD_FALLBACK
    assert prepare_propagator(effective_hamiltonian(cavity_model, 1e-3)).method == METHOD_EIG


def test_defective_hamiltonian_falls_back():
    # A = -i*H is a Jordan block, which has no eigenbasis; the fallback needs none
    jordan = EffectiveHamiltonian(generator=np.array([[0.0, 1.0], [0.0, 0.0]]), g=0.0)
    prop = prepare_propagator(jordan)
    assert prop.method == METHOD_FALLBACK
    np.testing.assert_allclose(prop.evolve(np.array([[0.0, 1.0]]), 0.5)[0], [0.5, 1.0], atol=1e-12)
    with pytest.raises(NumericError):
        prepare_propagator(jordan, METHOD_EIG)


@pytest.mark.parametrize("g", [1e-9, 1e-6])
def test_vanishing_coupling_scores_like_dense_oracle(small_model, g):
    # the atom's share of the state is O(g), and the eigen path's error on it
    # grows as 1/g: off by 8e-9 (relative) at g = 1e-9, so the check sends it
    # to the fallback
    record = ClassicalRecord(t0=0.0, tf=1.0, times=np.array([0.2, 0.5, 0.7]), channels=np.array([1, 0, 1]))
    assert prepare_propagator(effective_hamiltonian(small_model, g)).method == METHOD_FALLBACK
    want = direct_log_density(small_model, record, g)
    assert log_likelihood(small_model, record, g) == pytest.approx(want, rel=1e-9, abs=1e-9)


def test_hamiltonian_with_a_real_part_is_rejected(small_model):
    # both paths work on the real A = -i*H, as every coupling of the model
    # gives; a detuning term would add a real part, which the type rejects
    h = effective_hamiltonian(small_model, 2.0).matrix + np.diag(np.arange(small_model.dim, dtype=float))
    with pytest.raises(InvalidParametersError, match="real part"):
        EffectiveHamiltonian(generator=-1j * h, g=2.0)


@pytest.mark.parametrize("g", [0.0, 2.0])
def test_fallback_scores_large_hamiltonian_like_dense_oracle(g):
    # ||H||_1 ~ 2e5 rad/us: the fallback scales each exponential by its own norm
    model = build_model(ModelParams(g0=6.0, gamma_perp=1.0, kappa=1e4, epsilon=1.0, n_trunc=3))
    record = ClassicalRecord(t0=0.0, tf=1e-4, times=np.array([2e-5, 6e-5]), channels=np.array([1, 0]))
    with forced_path(METHOD_FALLBACK) as built:
        got = log_likelihood(model, record, g)
    assert [p.method for p in built] == [METHOD_FALLBACK]
    want = direct_log_density(model, record, g)
    if want == -math.inf:
        assert got == -math.inf
    else:
        assert got == pytest.approx(want, rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("method", [METHOD_EIG, METHOD_FALLBACK])
@pytest.mark.parametrize("tau", [-0.5, math.inf, math.nan])
def test_evolve_rejects_negative_or_non_finite_interval(small_model, method, tau):
    prop = prepare_propagator(effective_hamiltonian(small_model, 3.0), method)
    with pytest.raises(InvalidParametersError):
        prop.evolve(ground_vacuum(small_model)[None], tau)


@pytest.mark.parametrize("seed", [11, 12, 13])
@pytest.mark.parametrize("tau", [0.0, 0.01, 0.137, 1.0])
def test_eigen_and_fallback_paths_agree(seed, tau):
    rng = np.random.default_rng(seed)
    model = build_model(
        ModelParams(
            g0=6.0,
            gamma_perp=float(rng.uniform(0.2, 1.5)),
            kappa=float(rng.uniform(0.3, 2.0)),
            epsilon=float(rng.uniform(0.3, 1.5)),
            n_trunc=2,
        )
    )
    h = effective_hamiltonian(model, float(rng.uniform(0.5, 5.0)))
    eig = prepare_propagator(h, METHOD_EIG)
    fb = prepare_propagator(h, METHOD_FALLBACK)
    psi = random_state(rng, model.dim)
    out_eig = eig.evolve(psi[None], tau)[0]
    out_fb = fb.evolve(psi[None], tau)[0]
    assert np.abs(out_eig - out_fb).max() <= 1e-10


def test_eigen_and_fallback_agree_at_operating_scale(cavity_model, rng):
    h = effective_hamiltonian(cavity_model, 45.0)
    eig = prepare_propagator(h, METHOD_EIG)
    fb = prepare_propagator(h, METHOD_FALLBACK)
    psi = random_state(rng, cavity_model.dim)
    for tau in (0.003, 0.05, 0.25):
        assert np.abs(eig.evolve(psi[None], tau) - fb.evolve(psi[None], tau)).max() <= 1e-10


@pytest.mark.parametrize("g", [5.0, 45.0])
@pytest.mark.parametrize("fraction", [1e-3, 0.1])
def test_step_keeps_the_share_a_detection_emptied(cavity_model, g, fraction):
    # just after an atomic detection the atom is in its ground state; over
    # an interval short beside every decay the coupling re-excites it from
    # zero, and `step` keeps that share accurate relative to itself (a
    # coordinate `turn` is off by up to 2e-10 on it at 1e-3 of a decay time)
    h = effective_hamiltonian(cavity_model, g)
    prop = prepare_propagator(h)
    assert prop.method == METHOD_EIG
    start = cavity_model.c0 @ expm(-0.01j * h.matrix) @ ground_vacuum(cavity_model)
    start = (start / np.linalg.norm(start))[None]
    tau = fraction / max_total_decay_rate(cavity_model)
    want = expm(-1j * tau * h.matrix) @ start[0]
    got = prop.step(start, prop.to_coords(start), tau)[0]
    atom = np.arange(cavity_model.dim) % 2 == 1
    assert np.linalg.norm((got - want)[atom]) <= 1e-11 * np.linalg.norm(want[atom])
    assert np.abs(got - want).max() <= 1e-12
    fallback = prepare_propagator(h, METHOD_FALLBACK)
    np.testing.assert_array_equal(fallback.step(start, start, tau), fallback.evolve(start, tau))


def test_step_matches_full_column_formula_bit_for_bit(cavity_params, cavity_model, rng):
    # `step` takes expm1 on each pair's first column and conjugates it for
    # the second; on the 115 rows of the headline default grid that gives
    # the bits of expm1 taken on every column
    prop, _ = qsysid.inference._prepare(cavity_model, default_grid(cavity_params).values)
    assert len(prop.eig) == 115 and prop.method == METHOD_EIG
    states = rng.normal(size=(115, cavity_model.dim))
    states /= np.linalg.norm(states, axis=1)[:, None]
    coords = prop.to_coords(states)
    partners = np.take_along_axis(coords, prop.partner, axis=1)
    for tau in (1e-7, 3e-5, 8e-5):
        factors = np.expm1(tau * prop.eigvals)
        turned = factors.real * coords + factors.imag * partners
        want = states + np.matmul(prop.basis, turned[..., None])[..., 0]
        assert prop.step(states, coords, tau).tobytes() == want.tobytes(), tau


def _by_column(prop, states, tau):
    """`to_coords`, `turn` and `from_coords` of a stack, row by row and, for
    the turn, column by column as documented: y = W^-1 psi refined once,
    y_k -> Re(e^{mu_k tau}) y_k + Im(e^{mu_k tau}) y_partner(k), then W y;
    a fallback row is its state, turned by its own exponential."""
    coords, turned, back = (np.empty_like(states) for _ in range(3))
    eig_row, fallback_row = np.cumsum(prop.eig) - 1, np.cumsum(~prop.eig) - 1
    for i, psi in enumerate(states):
        if not prop.eig[i]:
            coords[i] = psi
            turned[i] = back[i] = _expm(tau * prop.a[fallback_row[i]]) @ psi
            continue
        j = eig_row[i]
        w, w_inv, mu, partner = prop.basis[j], prop.basis_inv[j], prop.eigvals[j], prop.partner[j]
        y = w_inv @ psi
        coords[i] = y = y + w_inv @ (psi - w @ y)
        for k in range(len(y)):
            factor = np.exp(tau * mu[k])
            turned[i, k] = factor.real * y[k] + factor.imag * y[partner[k]]
        back[i] = w @ turned[i]
    return coords, turned, back


@pytest.mark.parametrize("case", ["one-row", "headline-grid", "fallback-rows"])
def test_turn_and_coordinates_match_the_formula_column_by_column(case, cavity_params, cavity_model, rng):
    # the stacked index maps and the direct all-eigen routes give the bits
    # of the documented per-column arithmetic: on the simulator's stack of
    # one, on the 115 rows of the headline default grid (whose g 0 row has
    # two blocks and another count of real eigenvalues) and on a grid that
    # mixes paths
    if case == "one-row":
        model, values = cavity_model, [45.0]
    elif case == "headline-grid":
        model, values = cavity_model, default_grid(cavity_params).values
    else:
        params = ModelParams(g0=20.0, gamma_perp=5.0, kappa=3.0, epsilon=10.0, n_trunc=18)
        model, values = build_model(params), default_grid(params).values
    prop, _ = qsysid.inference._prepare(model, values)
    assert prop.eig.all() == (case != "fallback-rows") and prop.eig.any()
    states = rng.normal(size=(len(values), model.dim))
    states /= np.linalg.norm(states, axis=1)[:, None]
    for tau in (1e-4, 0.01, 0.3):
        coords, turned, back = _by_column(prop, states, tau)
        assert prop.to_coords(states).tobytes() == coords.tobytes(), tau
        assert prop.turn(coords, tau).tobytes() == turned.tobytes(), tau
        assert prop.from_coords(turned).tobytes() == back.tobytes(), tau


def test_evolve_matches_dense_expm(small_model, rng):
    h = effective_hamiltonian(small_model, 2.2)
    prop = prepare_propagator(h)
    psi = random_state(rng, small_model.dim)
    for tau in (0.05, 0.4, 1.3):
        expected = expm(-1j * h.matrix * tau) @ psi
        np.testing.assert_allclose(prop.evolve(psi[None], tau)[0], expected, atol=1e-11)


def test_stacked_propagator_evolves_each_row_like_its_member(small_model, rng):
    members = [
        prepare_propagator(effective_hamiltonian(small_model, g), method)
        for g, method in ((1.0, METHOD_FALLBACK), (2.0, METHOD_EIG), (3.0, METHOD_FALLBACK))
    ]
    stack = Propagator.stack(members)
    np.testing.assert_array_equal(stack.eig, [False, True, False])
    with pytest.raises(InvalidParametersError):
        stack.method
    states = np.stack([random_state(rng, small_model.dim) for _ in members])
    for tau in (0.013, 0.4):
        out = stack.evolve(states, tau)
        for i, member in enumerate(members):
            np.testing.assert_array_equal(out[i], member.evolve(states[i:i + 1], tau)[0])


@pytest.mark.parametrize("method", [METHOD_EIG, METHOD_FALLBACK])
def test_semigroup_property(small_model, rng, method):
    prop = prepare_propagator(effective_hamiltonian(small_model, 3.3), method)
    psi = random_state(rng, small_model.dim)
    for tau1, tau2 in [(0.1, 0.2), (0.31, 0.047), (0.9, 0.9)]:
        once = prop.evolve(psi[None], tau1 + tau2)
        twice = prop.evolve(prop.evolve(psi[None], tau1), tau2)
        assert np.abs(once - twice).max() <= 1e-10


def test_evolve_zero_interval_is_identity(small_model, rng):
    prop = prepare_propagator(effective_hamiltonian(small_model, 1.0))
    states = np.stack([random_state(rng, small_model.dim) for _ in range(2)])
    out = prop.evolve(states, 0.0)
    np.testing.assert_array_equal(out, states)
    assert out is not states


@pytest.mark.parametrize("seed", [5, 6])
def test_no_detection_norm_never_increases(seed):
    rng = np.random.default_rng(seed)
    model = build_model(
        ModelParams(g0=8.0, gamma_perp=1.0, kappa=2.0, epsilon=1.0, n_trunc=4)
    )
    prop = prepare_propagator(effective_hamiltonian(model, 4.0))
    amps = random_state(rng, model.dim)
    norms = [norm_sq(amps)]
    for tau in np.full(12, 0.08):
        amps = prop.evolve(amps[None], float(tau))[0]
        norms.append(norm_sq(amps))
    diffs = np.diff(norms)
    assert np.all(diffs <= 1e-12)


def test_analytic_survival_single_photon():
    # with no drive and no coupling, one photon decays at exactly 2*kappa
    model = build_model(ModelParams(g0=1.0, gamma_perp=0.9, kappa=1.7, epsilon=0.0, n_trunc=2))
    prop = prepare_propagator(effective_hamiltonian(model, 0.0))
    psi = np.zeros(model.dim, dtype=complex)
    psi[basis_index(1, 0)] = 1.0
    tau = 0.37
    out = prop.evolve(psi[None], tau)[0]
    assert norm_sq(out) == pytest.approx(np.exp(-2.0 * TWO_PI * 1.7 * tau), rel=1e-12)


def test_analytic_survival_excited_atom():
    model = build_model(ModelParams(g0=1.0, gamma_perp=0.9, kappa=1.7, epsilon=0.0, n_trunc=2))
    prop = prepare_propagator(effective_hamiltonian(model, 0.0))
    psi = np.zeros(model.dim, dtype=complex)
    psi[basis_index(0, 1)] = 1.0
    tau = 0.52
    out = prop.evolve(psi[None], tau)[0]
    assert norm_sq(out) == pytest.approx(np.exp(-2.0 * TWO_PI * 0.9 * tau), rel=1e-12)


def test_max_total_decay_rate(small_model):
    p = small_model.params
    expected = 2.0 * TWO_PI * (p.kappa * p.n_trunc + p.gamma_perp)
    assert max_total_decay_rate(small_model) == pytest.approx(expected)


# ------------------------------------------------------------------- records


def test_record_validate_rejects_malformed():
    good = dict(t0=0.0, tf=1.0, times=np.array([0.2, 0.5]), channels=np.array([0, 1]))
    ClassicalRecord(**good).validate()
    with pytest.raises(FormatError):
        ClassicalRecord(t0=1.0, tf=0.0, times=np.array([]), channels=np.array([])).validate()
    with pytest.raises(FormatError):
        ClassicalRecord(
            t0=0.0, tf=1.0, times=np.array([0.5, 0.2]), channels=np.array([0, 1])
        ).validate()
    with pytest.raises(FormatError):
        ClassicalRecord(
            t0=0.0, tf=1.0, times=np.array([0.2, 0.2]), channels=np.array([0, 1])
        ).validate()
    with pytest.raises(FormatError):
        ClassicalRecord(
            t0=0.0, tf=1.0, times=np.array([0.2, 1.5]), channels=np.array([0, 1])
        ).validate()
    with pytest.raises(FormatError):
        ClassicalRecord(
            t0=0.0, tf=1.0, times=np.array([0.2, 0.5]), channels=np.array([0, 2])
        ).validate()
    # channel values are checked before the int64 cast, which would make 1.9, -0.5 into 1, 0
    for channels, event in [([1.9, -0.5], 0), ([0, np.nan], 1), ([1, 0.5], 1)]:
        with pytest.raises(FormatError, match="channel") as err:
            ClassicalRecord(t0=0.0, tf=1.0, times=np.array([0.2, 0.5]), channels=channels)
        assert err.value.event == event
    with pytest.raises(FormatError, match="finite") as err:
        ClassicalRecord(t0=0.0, tf=1.0, times=np.array([0.2, np.inf]), channels=np.array([0, 1]))
    assert err.value.event == 1
    # an integer past the float range is named as a faulty event, not an OverflowError
    with pytest.raises(FormatError, match="event 1 time must be a finite number") as err:
        ClassicalRecord(t0=0.0, tf=1.0, times=[0.2, 10**400], channels=[0, 1])
    assert err.value.event == 1
    with pytest.raises(FormatError, match="window must be finite"):
        ClassicalRecord(t0=0, tf=10**400, times=[], channels=[])
    # a value that is no number is named as the faulty event, or the window
    with pytest.raises(FormatError, match="event 0 time must be a finite number") as err:
        ClassicalRecord(t0=0, tf=1, times=["a"], channels=[1])
    assert err.value.event == 0
    with pytest.raises(FormatError, match="window must be finite"):
        ClassicalRecord(t0="0", tf=1, times=[], channels=[])
    # nor is a string or a bool, which the casts would read as one
    for times, channels, rule in [(["0.5"], [1], "time"), ([True], [1], "time"), ([0.5], [True], "channel")]:
        with pytest.raises(FormatError, match=f"event 0 {rule} must be") as err:
            ClassicalRecord(t0=0, tf=1, times=times, channels=channels)
        assert err.value.event == 0
    with pytest.raises(FormatError, match="window must be finite"):
        ClassicalRecord(t0=True, tf=2, times=[], channels=[])
    whole = ClassicalRecord(t0=0.0, tf=1.0, times=[0.2, 0.5], channels=np.array([0.0, 1.0]))
    assert whole.channels.dtype == np.int64
    np.testing.assert_array_equal(whole.channels, [0, 1])


def test_record_equality_and_digest():
    a = ClassicalRecord(t0=0.0, tf=1.0, times=np.array([0.25]), channels=np.array([1]))
    b = ClassicalRecord(t0=0.0, tf=1.0, times=np.array([0.25]), channels=np.array([1]))
    c = ClassicalRecord(t0=0.0, tf=1.0, times=np.array([0.26]), channels=np.array([1]))
    assert a == b
    assert a != c
    assert a.digest() == b.digest()
    assert a.digest() != c.digest()
    assert a.n_events == 1
    with pytest.raises(ValueError):
        a.times[0] = 0.9


# ---------------------------------------------------------------- simulation


def test_simulate_dark_system_gives_empty_record():
    model = build_model(ModelParams(g0=5.0, gamma_perp=1.0, kappa=1.0, epsilon=0.0, n_trunc=2))
    record = simulate_record(model, g_true=0.0, t0=0.0, tf=2.0, seed=3)
    assert record.n_events == 0
    assert record.t0 == 0.0 and record.tf == 2.0


def test_simulate_is_deterministic_per_seed():
    model = build_model(ModelParams(g0=6.0, gamma_perp=0.8, kappa=3.0, epsilon=3.0, n_trunc=8))
    rec1 = simulate_record(model, g_true=4.0, t0=0.0, tf=1.0, seed=42)
    rec2 = simulate_record(model, g_true=4.0, t0=0.0, tf=1.0, seed=42)
    rec3 = simulate_record(model, g_true=4.0, t0=0.0, tf=1.0, seed=43)
    assert rec1 == rec2
    assert rec1 != rec3
    assert rec1.n_events > 0


def test_simulate_record_structure_and_metadata():
    model = build_model(ModelParams(g0=6.0, gamma_perp=0.8, kappa=3.0, epsilon=3.0, n_trunc=8))
    record = simulate_record(model, g_true=4.0, t0=0.5, tf=1.5, seed=7)
    record.validate()
    assert np.all(record.times > 0.5) and np.all(record.times <= 1.5)
    assert np.all(np.diff(record.times) > 0)
    assert record.metadata["seed"] == 7
    assert record.metadata["g_true_mhz"] == 4.0
    assert record.metadata["params"]["kappa_mhz"] == 3.0
    assert record.metadata["initial_state"] == "ground-vacuum"


def test_simulate_without_atomic_decay_uses_cavity_channel_only():
    model = build_model(ModelParams(g0=6.0, gamma_perp=0.0, kappa=3.0, epsilon=3.0, n_trunc=8))
    record = simulate_record(model, g_true=4.0, t0=0.0, tf=1.0, seed=9)
    assert record.n_events > 0
    assert np.all(record.channels == CHANNEL_CAVITY)


def test_simulate_record_is_the_checked_record_and_stays_silent(capsys):
    # the cutoff check rides along: simulate_record returns _simulate's
    # record and neither prints nor warns, however cramped the cutoff
    cramped = build_model(ModelParams(g0=6.0, gamma_perp=0.5, kappa=6.0, epsilon=6.0, n_trunc=3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        record = simulate_record(cramped, 0.0, 0.0, 1.0, seed=1)
        again, tail = _simulate(cramped, 0.0, 0.0, 1.0, seed=1)
    assert again == record and record.n_events > 0
    assert tail >= TRUNCATION_TAIL_LIMIT
    assert capsys.readouterr() == ("", "")


def test_simulate_rejects_bad_window(small_model):
    with pytest.raises(InvalidParametersError):
        simulate_record(small_model, 1.0, t0=1.0, tf=1.0, seed=0)
    with pytest.raises(InvalidParametersError):
        simulate_record(small_model, 1.0, t0=0.0, tf=-1.0, seed=0)
    with pytest.raises(InvalidParametersError):  # a bool is no time, though it casts to 0.0
        simulate_record(small_model, 1.0, t0=False, tf=1.0, seed=0)


def test_simulate_rejects_negative_seed(small_model):
    for seed in (-1, 1.5, True):
        with pytest.raises(InvalidParametersError, match="seed"):
            simulate_record(small_model, 1.0, t0=0.0, tf=1.0, seed=seed)
    assert simulate_record(small_model, 1.0, 0.0, 0.5, seed=np.int64(9)) == simulate_record(
        small_model, 1.0, 0.0, 0.5, seed=9
    )


@pytest.mark.parametrize("seed", [101, 202, 303])
def test_jump_time_inverts_survival_curve(seed):
    # one photon, no drive, no coupling, no atomic decay: survival is
    # exp(-2*kappa*tau), so the jump-time search must find -ln(r)/(2*kappa)
    # for the first uniform draw r of the seeded generator, on either path,
    # from a bracket guess far below, at or far above that time, or from the
    # whole window.
    kappa = 1.3
    model = build_model(ModelParams(g0=1.0, gamma_perp=0.0, kappa=kappa, epsilon=0.0, n_trunc=2))
    psi = np.zeros((1, model.dim))
    psi[0, basis_index(1, 0)] = 1.0
    r = np.random.default_rng(seed).random()
    assert r != 0.0
    expected = -math.log(r) / (2.0 * TWO_PI * kappa)
    remaining = 50.0
    for method in (METHOD_EIG, METHOD_FALLBACK):
        prop = prepare_propagator(effective_hamiltonian(model, 0.0), method)
        assert prop.method == method
        for guess in (1e-6 * expected, expected, 1e3 * expected, remaining):
            tau = _locate_jump_time(_segment(prop, prop.to_coords(psi)), r, remaining, guess)
            assert tau == pytest.approx(expected, abs=1e-8)


@pytest.mark.parametrize("method", [METHOD_EIG, METHOD_FALLBACK])
def test_segment_matches_the_full_turn_at_every_search_point(cavity_model, method, monkeypatch):
    # the per-segment function forms the turn's partner term once; at every
    # point a real search evaluates (the window end, the bracket points and
    # the bisection midpoints) its state and survival are the full turn's
    # to the bit
    segment, survival = qsysid.dynamics._segment, qsysid.dynamics._survival
    segments, calls = {}, []

    def kept_segment(prop, coords):
        state_at = segment(prop, coords)
        segments[state_at] = (prop, coords)
        return state_at

    def kept_survival(state_at, tau):
        calls.append((state_at, tau, survival(state_at, tau)))
        return calls[-1][2]

    monkeypatch.setattr(qsysid.dynamics, "_segment", kept_segment)
    monkeypatch.setattr(qsysid.dynamics, "_survival", kept_survival)
    with forced_path(method) as built:
        record = simulate_record(cavity_model, 45.0, 0.0, 0.03, seed=1)
    assert [p.method for p in built] == [method]
    assert record.n_events > 5 and len(calls) > 10 * record.n_events
    for state_at, tau, got in calls:
        prop, coords = segments[state_at]
        want = prop.from_coords(prop.turn(coords, tau))
        assert np.array_equal(state_at(tau), want)
        assert got == float(np.vdot(want[0], want[0]))


# A record's bytes at fixed seeds. A change meant to move them (another
# jump-time search, say) updates these digests and says so.
@pytest.mark.parametrize("method", [METHOD_EIG, METHOD_FALLBACK])
def test_small_model_records_are_pinned(small_model, method):
    with forced_path(method) as built:
        records = [simulate_record(small_model, 3.0, 0.0, 20.0, seed=seed) for seed in (1, 2)]
    assert [p.method for p in built] == [method] * 2
    assert [(r.n_events, r.digest()) for r in records] == [(24, "c0ac24f0788d"), (29, "337d010ba737")]


def test_headline_record_is_pinned(cavity_model):
    record = simulate_record(cavity_model, 45.0, 0.0, 1.0, seed=1)
    assert (record.n_events, record.digest()) == (645, "246904953e62")


def test_weak_drive_jump_search_stays_cheap(cavity_params, monkeypatch):
    # at a weak drive the waiting time between jumps is far longer than the
    # top Fock level's decay time; a bracket started from the state's own
    # detection rate still finds each jump in a few dozen survival calls
    model = build_model(dataclasses.replace(cavity_params, epsilon=15.0))
    survival = qsysid.dynamics._survival
    calls = []

    def counted(*args):
        calls.append(args[1])
        return survival(*args)

    monkeypatch.setattr(qsysid.dynamics, "_survival", counted)
    events = sum(simulate_record(model, 45.0, 0.0, 1.0, seed=seed).n_events for seed in (1, 2))
    assert events > 0
    assert len(calls) <= 40 * events


def test_simulated_counts_match_driven_cavity_mean():
    # empty cavity from vacuum: mean photocount over the window has a closed
    # form; 25 records keep the Monte Carlo error a few percent.
    epsilon, kappa, tf = 6.0, 6.0, 0.5
    model = build_model(ModelParams(g0=1.0, gamma_perp=0.5, kappa=kappa, epsilon=epsilon, n_trunc=10))
    counts = [
        simulate_record(model, g_true=0.0, t0=0.0, tf=tf, seed=1000 + i).n_events
        for i in range(25)
    ]
    expected = empty_cavity_expected_counts(epsilon, kappa, tf)
    se = math.sqrt(expected / 25)  # counts are Poisson here
    assert abs(np.mean(counts) - expected) <= 4.0 * se


# ------------------------------------------------------- conditional states


def test_conditional_states_match_direct_replay(small_model, rng):
    record = ClassicalRecord(
        t0=0.0, tf=1.0, times=np.array([0.21, 0.55, 0.83]), channels=np.array([1, 0, 1])
    )
    g = 3.1
    h = effective_hamiltonian(small_model, g).matrix
    queries = np.array([0.1, 0.55, 0.9])
    states = conditional_states(small_model, g, record, queries)
    for t_query, state in zip(queries, states):
        psi = ground_vacuum(small_model)
        t_prev = 0.0
        for t, c in zip(record.times, record.channels):
            if t > t_query:
                break
            psi = expm(-1j * h * (t - t_prev)) @ psi
            psi = (small_model.c0 if c == 0 else small_model.c1) @ psi
            t_prev = t
        psi = expm(-1j * h * (t_query - t_prev)) @ psi
        psi = psi / np.linalg.norm(psi)
        np.testing.assert_allclose(state, psi, atol=1e-10)
        assert norm_sq(state) == pytest.approx(1.0, abs=1e-12)
        assert state.dtype == np.float64


def test_conditional_states_match_dense_replay_at_operating_dimension(cavity_model):
    # headline point, g 40 and 45 with the scorer forced onto each propagator
    # path in turn; the query at 0.045 follows a gap of several
    # renormalization chunks
    record = ClassicalRecord(
        t0=0.0, tf=0.1,
        times=np.array([0.004, 0.011, 0.05, 0.062]), channels=np.array([1, 0, 1, 1]),
    )
    queries = np.array([0.002, 0.011, 0.045, 0.1])
    max_step = 100.0 / max_total_decay_rate(cavity_model)  # the scorer's chunk length
    assert 0.045 - 0.011 >= 2 * max_step
    for method in (METHOD_EIG, METHOD_FALLBACK):
        for g in (40.0, 45.0):
            h = effective_hamiltonian(cavity_model, g)
            with forced_path(method) as built:
                states = conditional_states(cavity_model, g, record, queries)
            assert [p.method for p in built] == [method]
            for t_query, state in zip(queries, states):
                psi = ground_vacuum(cavity_model)
                t_prev = 0.0
                for t, c in zip(record.times, record.channels):
                    if t > t_query:
                        break
                    psi = (cavity_model.c0 if c == 0 else cavity_model.c1) @ (
                        expm(-1j * h.matrix * (t - t_prev)) @ psi
                    )
                    psi = psi / np.linalg.norm(psi)
                    t_prev = t
                psi = expm(-1j * h.matrix * (t_query - t_prev)) @ psi
                psi = psi / np.linalg.norm(psi)
                assert np.abs(state - psi).max() <= 1e-10, (method, g, t_query)


def test_checkpoint_states_match_fallback_path_on_headline_record(cavity_model):
    # the eigen rows hold coordinates between events, and events that follow
    # the one before within 1/(total decay rate) go through psi; queries at
    # event times, between events and after a gap of several chunks
    record = simulate_record(cavity_model, 45.0, 0.0, 0.1, seed=5)
    decay = max_total_decay_rate(cavity_model)
    gaps = np.diff(record.times, prepend=0.0)
    assert np.any(gaps * decay <= 1.0) and np.any(gaps * decay > 1.0)
    queries = np.concatenate([record.times[::5], record.times[:-1:7] + 0.4 * gaps[1::7], [0.1]])
    queries.sort()
    for g in (12.0, 45.0):
        states = {}
        for method in (METHOD_EIG, METHOD_FALLBACK):
            with forced_path(method):
                states[method] = np.array(conditional_states(cavity_model, g, record, queries))
        assert np.abs(states[METHOD_EIG] - states[METHOD_FALLBACK]).max() <= 1e-9, g


def test_conditional_states_include_event_at_query_time(small_model):
    record = ClassicalRecord(t0=0.0, tf=1.0, times=np.array([0.5]), channels=np.array([1]))
    h = effective_hamiltonian(small_model, 0.0).matrix
    (state,) = conditional_states(small_model, 0.0, record, np.array([0.5]))
    psi = small_model.c1 @ (expm(-1j * h * 0.5) @ ground_vacuum(small_model))
    psi = psi / np.linalg.norm(psi)
    np.testing.assert_allclose(state, psi, atol=1e-10)


def test_conditional_states_reject_impossible_event():
    # an atomic detection has zero weight without atomic decay; the state
    # before it is still defined
    model = build_model(ModelParams(g0=6.0, gamma_perp=0.0, kappa=1.1, epsilon=0.9, n_trunc=3))
    record = ClassicalRecord(t0=0.0, tf=1.0, times=np.array([0.5]), channels=np.array([0]))
    (state,) = conditional_states(model, 1.0, record, np.array([0.2]))
    assert norm_sq(state) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(NumericError, match="zero weight"):
        conditional_states(model, 1.0, record, np.array([0.2, 0.7]))


def test_conditional_states_reject_bad_query_times(small_model):
    record = ClassicalRecord(t0=0.0, tf=1.0, times=np.array([0.5]), channels=np.array([1]))
    with pytest.raises(InvalidParametersError):
        conditional_states(small_model, 1.0, record, np.array([0.9, 0.1]))
    with pytest.raises(InvalidParametersError):
        conditional_states(small_model, 1.0, record, np.array([1.5]))
    with pytest.raises(InvalidParametersError):
        conditional_states(small_model, 1.0, record, np.array([0.2, np.nan]))
