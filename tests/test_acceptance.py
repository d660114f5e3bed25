"""End-to-end acceptance gates for the toolkit, one test per criterion.

Every test registers a single pass/fail line (printed in the terminal
summary) and then asserts. The heavy ensembles are session-scoped fixtures
shared across the statistical criteria, with deterministic seeding so the
whole module is reproducible run to run.
"""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

import conftest
from oracles import (
    complex_liouvillian,
    direct_log_density,
    empty_cavity_expected_counts,
    random_toy_instance,
)

from qsysid import (
    GGrid,
    ModelParams,
    build_model,
    conditional_states,
    count_statistics,
    effective_hamiltonian,
    ground_vacuum,
    integrate_master,
    likelihood_surface,
    log_likelihood,
    prepare_propagator,
    run_ensemble,
    simulate_record,
    summarize,
    trajectory_seed,
)
from qsysid.cli import main as cli_main
from qsysid.dynamics import METHOD_EIG, METHOD_FALLBACK
from qsysid.mastereq import expectations, ground_vacuum_density

TWO_PI = 2.0 * np.pi

OPERATING_POINT = ModelParams(g0=57.0, gamma_perp=2.5, kappa=30.0, epsilon=44.3, n_trunc=30)
G_TRUE = 45.0
GRID = GGrid(35.0, 57.0, 1.0)
CHECKPOINTS = (0.25, 0.5, 0.75, 1.0)
N_TRAJ = 150


def report(number: int, name: str, ok: bool, detail: str) -> None:
    line = f"criterion {number} ({name}): {'PASS' if ok else 'FAIL'} -- {detail}"
    conftest.ACCEPTANCE_RESULTS.append(line)
    print(line)
    assert ok, line


@pytest.fixture(scope="session")
def ensembles():
    """150-record simulate+estimate ensembles at each drive strength."""
    out = {}
    for eps, seed in ((44.3, 4430), (34.0, 3400), (24.0, 2400)):
        model = build_model(replace(OPERATING_POINT, epsilon=eps))
        out[eps] = run_ensemble(
            model, G_TRUE, GRID, n_traj=N_TRAJ, t0=0.0, tf=1.0,
            checkpoints=CHECKPOINTS, master_seed=seed,
        )
    return out


def final_mles(result) -> np.ndarray:
    last = len(result.checkpoints) - 1
    return np.array([est[last].g_mle for est in result.estimates if est is not None])


def test_criterion_1_streaming_likelihood_matches_dense_oracle():
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(700 + seed)
        model, record, g = random_toy_instance(rng)
        got = log_likelihood(model, record, g)
        want = direct_log_density(model, record, g)
        err = abs(got - want) / max(1.0, abs(want))
        worst = max(worst, err)
    report(
        1, "likelihood oracle", worst <= 1e-9,
        f"worst relative error {worst:.3e} over 50 toy instances (tol 1e-9)",
    )


@pytest.fixture(scope="session")
def unraveling():
    """500 conditional trajectories vs the unconditional master equation."""
    model = build_model(replace(OPERATING_POINT, epsilon=34.0))
    probes = np.array([0.2, 0.5, 1.0])
    n_traj = 500
    ad_a = model.op_a.conj().T @ model.op_a
    sp_sm = model.op_sigma_minus.conj().T @ model.op_sigma_minus
    n_samples = np.empty((n_traj, probes.size))
    p_samples = np.empty((n_traj, probes.size))
    for i in range(n_traj):
        record = simulate_record(model, G_TRUE, 0.0, 1.0, seed=trajectory_seed(20, i))
        states = conditional_states(model, G_TRUE, record, probes)
        for k, amps in enumerate(states):
            n_samples[i, k] = np.real(amps.conj() @ (ad_a @ amps))
            p_samples[i, k] = np.real(amps.conj() @ (sp_sm @ amps))
    master_n = np.empty(probes.size)
    master_p = np.empty(probes.size)
    state = ground_vacuum_density(model)
    t_prev = 0.0
    for k, t in enumerate(probes):
        state = integrate_master(model, G_TRUE, state, float(t) - t_prev)
        t_prev = float(t)
        master_n[k], master_p[k], _ = expectations(state, model)
    return probes, n_samples, p_samples, master_n, master_p


def test_criterion_2_trajectory_mean_matches_master_equation(unraveling):
    probes, n_samples, p_samples, master_n, master_p = unraveling
    n_traj = n_samples.shape[0]
    pulls = []
    ok = True
    for k, t in enumerate(probes):
        mean = n_samples[:, k].mean()
        se = n_samples[:, k].std(ddof=1) / math.sqrt(n_traj)
        pull = abs(mean - master_n[k]) / se
        pulls.append(f"t={t}: |dn|={abs(mean - master_n[k]):.4f} ({pull:.2f} se)")
        ok = ok and pull <= 3.0
        # excited-state population is not part of this gate, but a large
        # discrepancy there would still mean the unraveling is wrong
        p_se = p_samples[:, k].std(ddof=1) / math.sqrt(n_traj)
        assert abs(p_samples[:, k].mean() - master_p[k]) <= 5.0 * p_se
    report(
        2, "unraveling vs master", ok,
        f"<a^dag a> over {n_traj} trajectories: " + "; ".join(pulls) + " (tol 3 se)",
    )


@pytest.fixture(scope="session")
def empty_cavity_records():
    """500 uncoupled-cavity records at the strongest drive."""
    model = build_model(replace(OPERATING_POINT, n_trunc=18))
    return [
        simulate_record(model, 0.0, 0.0, 1.0, seed=trajectory_seed(30, i))
        for i in range(500)
    ]


def test_criterion_3_empty_cavity_flux_and_fano(empty_cavity_records):
    records = empty_cavity_records
    n_rec = len(records)
    # steady-state rate, measured after the field build-up transient
    # (~5/kappa ~ 0.03 us) has fully died out
    burn_in = 0.1
    span = 1.0 - burn_in
    steady_counts = np.array(
        [int(np.sum(r.times >= burn_in)) for r in records], dtype=float
    )
    rate = steady_counts.mean() / span
    rate_se = steady_counts.std(ddof=1) / math.sqrt(n_rec) / span
    expected_rate = 2.0 * (TWO_PI * 44.3) ** 2 / (TWO_PI * 30.0)
    rate_pull = abs(rate - expected_rate) / rate_se
    # full-window counts against the exact transient-inclusive expectation
    totals = np.array([r.n_events for r in records], dtype=float)
    expected_total = empty_cavity_expected_counts(44.3, 30.0, 1.0)
    total_se = totals.std(ddof=1) / math.sqrt(n_rec)
    total_pull = abs(totals.mean() - expected_total) / total_se
    fano = totals.var(ddof=1) / totals.mean()
    ok = rate_pull <= 3.0 and total_pull <= 3.0 and 0.9 <= fano <= 1.1
    report(
        3, "empty-cavity flux", ok,
        f"rate {rate:.1f}/us vs {expected_rate:.1f} ({rate_pull:.2f} se); "
        f"counts {totals.mean():.1f} vs {expected_total:.1f} ({total_pull:.2f} se); "
        f"Fano {fano:.3f} (need 1 +/- 0.1) over {n_rec} records",
    )


def test_criterion_4_event_budget_at_strongest_drive(ensembles):
    counts = np.array([c for c in ensembles[44.3].event_counts if c is not None], dtype=float)
    mean = counts.mean()
    ok = 480.0 <= mean <= 720.0
    report(
        4, "jump budget", ok,
        f"mean {mean:.1f} events per 1 us record over {counts.size} records "
        f"(need 600 +/- 120)",
    )


def test_criterion_5_estimation_accuracy_headline(ensembles):
    mles = final_mles(ensembles[44.3])
    std = mles.std(ddof=1)
    bias = abs(mles.mean() - G_TRUE)
    ok = std <= 1.0 and bias <= 0.5
    report(
        5, "1 us accuracy", ok,
        f"MLE at 1 us: mean {mles.mean():.3f} MHz (|bias| {bias:.3f}, need <= 0.5), "
        f"std {std:.3f} MHz (need <= 1.0), n = {mles.size}",
    )


def test_criterion_6_stronger_drive_estimates_faster(ensembles):
    stds = {eps: final_mles(ensembles[eps]).std(ddof=1) for eps in (24.0, 34.0, 44.3)}
    ok = stds[24.0] > stds[34.0] > stds[44.3]
    report(
        6, "drive ordering", ok,
        f"std(MLE at 1 us): eps=24 -> {stds[24.0]:.3f}, eps=34 -> {stds[34.0]:.3f}, "
        f"eps=44.3 -> {stds[44.3]:.3f} MHz (need strictly decreasing)",
    )


def test_criterion_7_super_poissonian_counts(ensembles):
    fanos = {}
    for eps in (24.0, 34.0, 44.3):
        _, _, fano = count_statistics(ensembles[eps])
        fanos[eps] = fano
    ok = all(f > 1.0 for f in fanos.values())
    report(
        7, "super-Poissonian", ok,
        "count Fano factors: "
        + ", ".join(f"eps={eps} -> {f:.2f}" for eps, f in fanos.items())
        + " (need > 1)",
    )


def test_criterion_8_structural_invariants(tmp_path):
    checks = []

    # anti-Hermitian part of H equals -i * sum of c^dag c
    worst_h = 0.0
    for params, g in (
        (OPERATING_POINT, G_TRUE),
        (ModelParams(g0=8.0, gamma_perp=1.3, kappa=2.1, epsilon=1.7, n_trunc=5), 4.2),
    ):
        model = build_model(params)
        h = effective_hamiltonian(model, g).matrix
        decay = model.c0.conj().T @ model.c0 + model.c1.conj().T @ model.c1
        worst_h = max(worst_h, float(np.abs((h - h.conj().T) + 1j * decay).max()))
    checks.append(("H identity", worst_h <= 1e-12, f"{worst_h:.2e}"))

    # no-detection norm never increases
    model = build_model(OPERATING_POINT)
    prop = prepare_propagator(effective_hamiltonian(model, G_TRUE))
    rng = np.random.default_rng(8)
    worst_rise = -np.inf
    for _ in range(20):
        psi = rng.normal(size=model.dim) + 1j * rng.normal(size=model.dim)
        amps = psi / np.linalg.norm(psi)
        prev = float(np.vdot(amps, amps).real)
        for _ in range(10):
            amps = prop.evolve(amps[None], 0.002)[0]
            now = float(np.vdot(amps, amps).real)
            worst_rise = max(worst_rise, now - prev)
            prev = now
    checks.append(("norm monotone", worst_rise <= 1e-12, f"max rise {worst_rise:.2e}"))

    # semigroup property on both propagator paths
    h45 = effective_hamiltonian(model, G_TRUE)
    worst_sg = 0.0
    psi = rng.normal(size=model.dim) + 1j * rng.normal(size=model.dim)
    psi /= np.linalg.norm(psi)
    for method in (METHOD_EIG, METHOD_FALLBACK):
        p = prepare_propagator(h45, method)
        for tau1, tau2 in ((0.003, 0.011), (0.07, 0.19)):
            once = p.evolve(psi[None], tau1 + tau2)
            twice = p.evolve(p.evolve(psi[None], tau1), tau2)
            worst_sg = max(worst_sg, float(np.abs(once - twice).max()))
    checks.append(("semigroup", worst_sg <= 1e-10, f"{worst_sg:.2e}"))

    # posterior normalization on a real surface
    record = simulate_record(model, G_TRUE, 0.0, 0.1, seed=88)
    surf = likelihood_surface(model, record, GRID)
    post_err = abs(float(surf.posterior().sum()) - 1.0)
    checks.append(("posterior norm", post_err <= 1e-12, f"{post_err:.2e}"))

    # master-equation trace drift, measured externally with a raw RK4 replica
    toy = build_model(ModelParams(g0=8.0, gamma_perp=1.3, kappa=2.1, epsilon=1.7, n_trunc=6))
    rhs = complex_liouvillian(toy, 4.2)
    rho = ground_vacuum_density(toy).rho.copy()
    dt = 1e-4
    drift = 0.0
    for _ in range(10000):  # 1 us
        k1 = rhs(rho)
        k2 = rhs(rho + (0.5 * dt) * k1)
        k3 = rhs(rho + (0.5 * dt) * k2)
        k4 = rhs(rho + dt * k3)
        rho = rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        drift = max(drift, abs(float(np.trace(rho).real) - 1.0))
    checks.append(("master trace", drift <= 1e-8, f"max |tr-1| {drift:.2e} over 1 us"))
    # the library integrator enforces the same bound internally
    integrate_master(toy, 4.2, ground_vacuum_density(toy), 1.0)

    # byte-identical end-to-end runs through the CLI
    config = {
        "schema": "qsysid-config/1",
        "g0_mhz": 6.0, "gamma_perp_mhz": 0.8, "kappa_mhz": 1.5, "epsilon_mhz": 2.0,
        "n_trunc": 6, "g_true_mhz": 3.0,
        "grid": {"min_mhz": 1.0, "max_mhz": 5.0, "step_mhz": 1.0},
        "t0_us": 0.0, "tf_us": 1.0, "seed": 9, "n_traj": 2,
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config) + "\n")
    blobs = []
    for tag in ("a", "b"):
        rec = tmp_path / f"rec_{tag}.json"
        surf_csv = tmp_path / f"surf_{tag}.csv"
        assert cli_main(["simulate", "--config", str(cfg), "--out", str(rec)]) == 0
        assert (
            cli_main(
                ["estimate", "--config", str(cfg), "--record", str(rec), "--out", str(surf_csv)]
            )
            == 0
        )
        blobs.append(rec.read_bytes() + surf_csv.read_bytes())
    checks.append(("determinism", blobs[0] == blobs[1], "repeat runs byte-identical"))

    ok = all(passed for _, passed, _ in checks)
    detail = "; ".join(f"{name} {'ok' if passed else 'FAILED'} ({info})" for name, passed, info in checks)
    report(8, "structural invariants", ok, detail)
