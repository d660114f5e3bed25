"""The benchmark's workloads, the hooks its traced run installs, and the
per-layer numbers it derives from the recorded spans.

Every workload makes its inputs from the workload seed alone: record seeds,
trajectory seeds and the drawn coupling are hashed from it, and the package
only sees the generated configs and records.  An operation (`Op`) is the
timed unit; its `check` runs afterwards, outside the timed region, and
raises `CheckFailed` when an output is wrong.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import statistics
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reference
from tracing import Hook, self_time

from qsysid import dynamics, ensemble, inference, mastereq
from qsysid import io as qio
from qsysid import model as qmodel

# Headline operating point (MHz) and the acceptance configuration's window.
HEADLINE = {
    "g0_mhz": 57.0,
    "gamma_perp_mhz": 2.5,
    "kappa_mhz": 30.0,
    "epsilon_mhz": 44.3,
    "n_trunc": 30,
}
G_TRUE = 45.0
T0, TF = 0.0, 1.0

# Eig-path error against dense expm is ~1e-8 at the headline point and the
# fallback ladder's ~1e-12; a wrong candidate is off by far more than 1e-6.
LOGLIK_ATOL = 1e-6
POSTERIOR_ATOL = 1e-9


class CheckFailed(Exception):
    """An output of the program failed one of the benchmark's checks."""


def derive_seed(seed: int, *labels) -> int:
    """Stable 64-bit seed hashed from the workload seed and a label path."""
    text = ":".join(str(x) for x in (seed, *labels))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "little")


def write_config(path: Path, params: dict, seed: int, **extra) -> str:
    """Write a qsysid config and return the digest of its bytes."""
    config = {
        "schema": qio.CONFIG_SCHEMA,
        **params,
        "g_true_mhz": G_TRUE,
        "t0_us": T0,
        "tf_us": TF,
        "seed": seed,
        "n_traj": 1,
        **extra,
    }
    data = (json.dumps(config, indent=2) + "\n").encode()
    path.write_bytes(data)
    return hashlib.sha256(data).hexdigest()[:12]


def _reference_ops(params: dict, g: float):
    return reference.operators(
        g, params["gamma_perp_mhz"], params["kappa_mhz"], params["epsilon_mhz"],
        params["n_trunc"],
    )


@dataclass
class Outcome:
    """What a checked operation produced: work done, data products, details."""

    work: float
    products: dict
    info: dict = field(default_factory=dict)


@dataclass
class Op:
    label: str
    run: object
    check: object


class SimulateHeadline:
    """One op: simulate a headline record from a fresh seed, then write it."""

    name = "simulate-headline"
    rate_name, work_unit = "events_per_s", "events/s"
    # the jump-time search and its propagator
    speed_parts = ("scalar", "matvec", "dense")

    def __init__(self, seed: int, workdir: Path, params: dict = HEADLINE):
        self.seed = seed
        self.params = params
        self.config_path = workdir / "simulate.json"
        self.out = workdir / "record.json"
        self.config_digests = {
            "simulate": write_config(self.config_path, params, derive_seed(seed, "config"))
        }
        self.record_digests: list[str] = []

    def round(self, k: int) -> list[Op]:
        seed = derive_seed(self.seed, self.name, k)

        def run():
            config = qio.parse_config(self.config_path)
            model = qmodel.build_model(config.model_params())
            record = dynamics.simulate_record(model, config.g_true, config.t0, config.tf, seed)
            qio.write_record(self.out, record)
            return record

        def check(record):
            record.validate()
            return Outcome(
                work=record.n_events,
                products={"record.json": self.out.read_bytes()},
                info={"seed": seed, "digest": record.digest(), "events": record.n_events},
            )

        return [Op(f"seed {seed}", run, check)]

    def finish(self, outcomes: list[Outcome]) -> tuple[list[str], dict]:
        problems = []
        self.record_digests = [o.info["digest"] for o in outcomes]
        first = outcomes[0].info
        model = qmodel.build_model(qio.parse_config(self.config_path).model_params())
        again = dynamics.simulate_record(model, G_TRUE, T0, TF, first["seed"]).digest()
        if again != first["digest"]:
            problems.append(f"seed {first['seed']} re-ran to {again}, not {first['digest']}")
        # Records start in the ground-vacuum state, whose transient costs a few
        # events against the stationary flux; 2% of the mean covers it.
        h, collapses = _reference_ops(self.params, G_TRUE)
        flux = reference.detected_flux(reference.steady_state_density(h, collapses), collapses)
        expected = flux * (TF - T0)
        counts = [o.info["events"] for o in outcomes]
        mean = statistics.fmean(counts)
        sd = statistics.stdev(counts) if len(counts) > 1 else math.sqrt(expected)
        tolerance = 5.0 * sd / math.sqrt(len(counts)) + 0.02 * expected
        if abs(mean - expected) > tolerance:
            problems.append(
                f"mean events {mean:.1f} outside {expected:.1f} +/- {tolerance:.1f}"
            )
        return problems, {
            "mean_events": mean,
            "expected_events": expected,
            "band": tolerance,
            "determinism_digest": again,
        }


class EstimateDefaultGrid:
    """One op: what `qsysid estimate` does, on records made before timing."""

    name = "estimate-default-grid"
    rate_name, work_unit = "cand_events_per_s", "candidate-events/s"
    # propagator preparation, then scoring mostly along the fallback ladder
    speed_parts = ("dense", "stacked")
    N_RECORDS = 4
    # One candidate on each side of the parent commit's eig/fallback seam
    # (g <= 42.5 fell back, g >= 43 took the eigendecomposition).
    REFERENCE_G = (45.0, 40.0)

    def __init__(self, seed: int, workdir: Path, params: dict = HEADLINE):
        self.params = params
        self.config_path = workdir / "estimate.json"
        self.out = workdir / "surface.csv"
        # no "grid" key: the package's default grid, 0..g0 in 0.5 MHz steps
        self.config_digests = {
            "estimate": write_config(self.config_path, params, derive_seed(seed, "config"))
        }
        model = qmodel.build_model(qio.parse_config(self.config_path).model_params())
        self.record_paths = []
        self.record_digests = []
        for j in range(self.N_RECORDS):
            record = dynamics.simulate_record(
                model, G_TRUE, T0, TF, derive_seed(seed, self.name, j)
            )
            path = workdir / f"input-{j}.json"
            qio.write_record(path, record)
            self.record_paths.append(path)
            self.record_digests.append(record.digest())

    def round(self, k: int) -> list[Op]:
        j = k % self.N_RECORDS

        def run():
            config = qio.parse_config(self.config_path)
            model = qmodel.build_model(config.model_params())
            record = qio.read_record(self.record_paths[j])
            surface = inference.likelihood_surface(model, record, config.grid())
            qio.write_surface_csv(self.out, surface)
            estimate = inference.posterior_and_mle(surface, refine=config.refine)
            return record, surface, estimate

        def check(raw):
            record, surface, estimate = raw
            if record.digest() != self.record_digests[j]:
                raise CheckFailed(f"record {j} read back as {record.digest()}")
            total = float(np.sum(surface.posterior()))
            if abs(total - 1.0) > POSTERIOR_ATOL:
                raise CheckFailed(f"posterior sums to {total!r}")
            grid = surface.grid
            if not grid.g_min <= estimate.g_mle <= grid.g_max:
                raise CheckFailed(f"MLE {estimate.g_mle} outside the grid")
            return Outcome(
                work=surface.n_events * grid.n,
                products={"surface.csv": self.out.read_bytes()},
                info={"record": j, "values": surface.grid.values, "loglik": surface.loglik},
            )

        return [Op(f"record {j}", run, check)]

    def finish(self, outcomes: list[Outcome]) -> tuple[list[str], dict]:
        first = outcomes[0].info
        record = qio.read_record(self.record_paths[first["record"]])
        model = qmodel.build_model(qio.parse_config(self.config_path).model_params())
        _, collapses = _reference_ops(self.params, G_TRUE)
        problems, details = [], {}
        for g in self.REFERENCE_G:
            i = int(np.argmin(np.abs(first["values"] - g)))
            h, _ = _reference_ops(self.params, float(first["values"][i]))
            want = reference.record_log_likelihood(
                h, collapses, record.t0, record.tf, record.times, record.channels
            )
            error = abs(float(first["loglik"][i]) - want)
            method = dynamics.prepare_propagator(
                qmodel.effective_hamiltonian(model, float(first["values"][i]))
            ).method
            details[f"g={g}"] = {"method": method, "abs_error": error}
            if not error <= LOGLIK_ATOL:
                problems.append(f"loglik at g={g} ({method}) is off the expm reference by {error:.3g}")
        return problems, {"reference_loglik": details}


class EnsembleDriveSweep:
    """One op: one trajectory of `run_ensemble` at each drive strength.

    Sweeping the drive inside the op (not across ops) keeps the op times
    unimodal, so their median is steady although the record lengths differ
    about 9x between the strongest and the weakest drive.
    """

    name = "ensemble-drive-sweep"
    rate_name, work_unit = "traj_per_s", "trajectories/s"
    # simulation, and scoring on a grid small enough for the L2 cache
    speed_parts = ("scalar", "matvec", "dense")
    EPSILONS = (44.3, 34.0, 24.0)
    GRID = {"min_mhz": 35.0, "max_mhz": 57.0, "step_mhz": 1.0}
    CHECKPOINTS = [0.25, 0.5, 0.75, 1.0]

    def __init__(self, seed: int, workdir: Path, params: dict = HEADLINE):
        self.seed = seed
        self.config_digests = {}
        self.setups = []
        for eps in self.EPSILONS:
            path = workdir / f"ensemble-eps{eps}.json"
            self.config_digests[f"eps={eps}"] = write_config(
                path, {**params, "epsilon_mhz": eps}, derive_seed(seed, "config"),
                grid=self.GRID, checkpoints_us=self.CHECKPOINTS,
            )
            config = qio.parse_config(path)
            self.setups.append((eps, config, qmodel.build_model(config.model_params())))
        self.config_path = workdir / f"ensemble-eps{self.EPSILONS[0]}.json"
        self.record_digests: list[str] = []

    def round(self, k: int) -> list[Op]:
        seeds = [derive_seed(self.seed, self.name, k, eps) for eps in self.EPSILONS]

        def run():
            return [
                ensemble.run_ensemble(
                    model, config.g_true, config.grid(), 1, config.t0, config.tf,
                    checkpoints=config.checkpoints, master_seed=seed,
                    refine=config.refine,
                )
                for (_, config, model), seed in zip(self.setups, seeds)
            ]

        def check(results):
            for result in results:
                if result.failures:
                    index, reason = result.failures[0]
                    raise CheckFailed(f"trajectory {index} failed: {reason}")
                grid = result.grid
                for series in result.estimates:
                    if len(series) != len(result.checkpoints):
                        raise CheckFailed(
                            f"{len(series)} estimates for {len(result.checkpoints)} checkpoints"
                        )
                    for est in series:
                        if not grid.g_min <= est.g_mle <= grid.g_max:
                            raise CheckFailed(f"MLE {est.g_mle} outside the grid")
            text = repr([
                [(e.g_mle, e.posterior_mean, e.posterior_sd, e.jump_index) for e in series]
                for result in results
                for series in result.estimates
            ])
            return Outcome(
                work=sum(result.n_surviving for result in results),
                products={"estimates": text.encode()},
                info={"events": [result.event_counts[0] for result in results]},
            )

        return [Op(f"round {k}", run, check)]

    def finish(self, outcomes: list[Outcome]) -> tuple[list[str], dict]:
        events = np.array([o.info["events"] for o in outcomes], dtype=float)
        return [], {"mean_events": dict(zip(map(str, self.EPSILONS), events.mean(axis=0)))}


class SteadyState:
    """One op: `steady_state` + `expectations`; a round is g_true and a drawn g."""

    name = "steadystate"
    rate_name, work_unit = "solves_per_s", "solves/s"
    # Runge-Kutta steps of the density matrix
    speed_parts = ("matmul",)
    DRAW_RANGE = (35.0, 57.0)   # the acceptance grid's range

    def __init__(self, seed: int, workdir: Path, params: dict = HEADLINE):
        self.params = params
        self.config_path = workdir / "steadystate.json"
        self.config_digests = {
            "steadystate": write_config(self.config_path, params, derive_seed(seed, "config"))
        }
        config = qio.parse_config(self.config_path)
        self.model = qmodel.build_model(config.model_params())
        rng = np.random.default_rng(derive_seed(seed, self.name))
        self.couplings = (config.g_true, float(rng.uniform(*self.DRAW_RANGE)))
        self.record_digests: list[str] = []
        p = self.model.params
        self.residual_bound = (
            mastereq.STEADY_TOL_DEFAULT * 2.0 * reference.TWO_PI * (p.kappa + p.gamma_perp)
        )

    def round(self, k: int) -> list[Op]:
        return [self._op(g) for g in self.couplings]

    def _op(self, g: float) -> Op:
        def run():
            state = mastereq.steady_state(self.model, g)
            return state, mastereq.expectations(state, self.model)

        def check(raw):
            state, values = raw
            rho = state.rho
            trace = complex(np.trace(rho))
            if abs(trace - 1.0) > 1e-10:
                raise CheckFailed(f"trace {trace}")
            asym = float(np.abs(rho - rho.conj().T).max())
            if asym > 1e-12:
                raise CheckFailed(f"not Hermitian: max |rho - rho^dag| = {asym:.3g}")
            h, collapses = _reference_ops(self.params, g)
            residual = float(np.abs(reference.liouvillian_rhs(rho, h, collapses)).max())
            if not residual <= self.residual_bound:
                raise CheckFailed(
                    f"Liouvillian residual {residual:.3g} above {self.residual_bound:.3g}"
                )
            flux = reference.detected_flux(rho, collapses)
            if not math.isclose(values[2], flux, rel_tol=1e-9):
                raise CheckFailed(f"flux {values[2]!r} but tr(c^dag c rho) gives {flux!r}")
            return Outcome(
                work=1,
                products={"expectations": repr(values).encode(), "rho": rho.tobytes()},
                info={"g": g, "residual": residual},
            )

        return Op(f"g {g:.6g}", run, check)

    def finish(self, outcomes: list[Outcome]) -> tuple[list[str], dict]:
        return [], {
            "couplings": list(self.couplings),
            "max_residual": max(o.info["residual"] for o in outcomes),
            "residual_bound": self.residual_bound,
        }


WORKLOADS = {
    w.name: w for w in (SimulateHeadline, EstimateDefaultGrid, EnsembleDriveSweep, SteadyState)
}


def _eig(args, kwargs, result):
    return {"eig": result.method == dynamics.METHOD_EIG}


def _events(args, kwargs, result):
    return {"events": result.n_events}


def _cand_events(args, kwargs, result):
    return {"cand_events": result.n_events * result.grid.n}


def _failures(args, kwargs, result):
    return {"failures": len(result.failures)}


def _bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


# Each hook wraps a function under the name its caller looks it up by: the
# package's own modules for internal calls, the defining module for the calls
# the benchmark makes itself (it calls through module attributes, as `cli`
# does through its imports).
HOOKS = (
    Hook("qsysid.dynamics", "effective_hamiltonian", "model.effective_hamiltonian"),
    Hook("qsysid.inference", "effective_hamiltonian", "model.effective_hamiltonian"),
    Hook("qsysid.mastereq", "effective_hamiltonian", "model.effective_hamiltonian"),
    Hook("qsysid.dynamics", "prepare_propagator", "dynamics.prepare_propagator", _eig),
    Hook("qsysid.inference", "prepare_propagator", "dynamics.prepare_propagator", _eig),
    Hook("qsysid.dynamics", "simulate_record", "dynamics.simulate_record", _events),
    Hook("qsysid.ensemble", "simulate_record", "dynamics.simulate_record", _events),
    Hook("qsysid.inference", "likelihood_surface", "inference.likelihood_surface", _cand_events),
    Hook("qsysid.inference", "posterior_and_mle", "inference.posterior_and_mle"),
    Hook("qsysid.ensemble", "estimate_time_series", "inference.estimate_time_series"),
    Hook("qsysid.ensemble", "run_ensemble", "ensemble.run_ensemble", _failures),
    Hook("qsysid.mastereq", "steady_state", "mastereq.steady_state"),
    Hook("qsysid.mastereq", "integrate_master", "mastereq.integrate_master"),
    Hook("qsysid.mastereq", "expectations", "mastereq.expectations"),
    Hook("qsysid.io", "parse_config", "io.parse_config"),
    Hook("qsysid.io", "read_record", "io.read_record"),
    Hook("qsysid.io", "write_record", "io.write_record", _bytes),
    Hook("qsysid.io", "write_surface_csv", "io.write_surface_csv", _bytes),
)


def layer_metrics(spans, n_ops: int) -> dict[str, float]:
    """Per-layer numbers from the spans of `n_ops` traced operations.

    Times are means per call, "_calls" and bytes are per operation; a layer
    that did no work on this workload reads 0.
    """
    by_name = defaultdict(list)
    children = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s.name].append(i)
        if s.parent is not None:
            children[s.parent].append(s)

    def ratio(num, den):
        return num / den if den else 0.0

    def mean_s(name):
        idx = by_name[name]
        return ratio(sum(spans[i].duration for i in idx), len(idx))

    def mean_self_s(name):
        idx = by_name[name]
        return ratio(sum(self_time(spans[i], children[i]) for i in idx), len(idx))

    def total(name, key=None):
        return sum(spans[i].duration if key is None else spans[i].attrs.get(key, 0)
                   for i in by_name[name])

    props = len(by_name["dynamics.prepare_propagator"])
    sims = len(by_name["dynamics.simulate_record"])
    events = total("dynamics.simulate_record", "events")
    written = total("io.write_record", "bytes") + total("io.write_surface_csv", "bytes")
    return {
        "model.effective_hamiltonian_s": mean_s("model.effective_hamiltonian"),
        "dynamics.prepare_propagator_s": mean_s("dynamics.prepare_propagator"),
        "dynamics.prepare_propagator_calls": ratio(props, n_ops),
        "dynamics.eig_frac": ratio(total("dynamics.prepare_propagator", "eig"), props),
        "dynamics.simulate_record_s_per_event": ratio(total("dynamics.simulate_record"), events),
        "dynamics.events_per_record": ratio(events, sims),
        "inference.likelihood_surface_s_per_cand_event": ratio(
            total("inference.likelihood_surface"),
            total("inference.likelihood_surface", "cand_events"),
        ),
        "inference.likelihood_surface_self_s": mean_self_s("inference.likelihood_surface"),
        "inference.estimate_time_series_s": mean_s("inference.estimate_time_series"),
        "inference.estimate_time_series_self_s": mean_self_s("inference.estimate_time_series"),
        "inference.posterior_and_mle_s": mean_s("inference.posterior_and_mle"),
        "ensemble.run_ensemble_self_s": mean_self_s("ensemble.run_ensemble"),
        "ensemble.failures": total("ensemble.run_ensemble", "failures"),
        "mastereq.steady_state_s": mean_s("mastereq.steady_state"),
        "mastereq.integrate_master_calls": ratio(len(by_name["mastereq.integrate_master"]), n_ops),
        "mastereq.integrate_master_s": mean_s("mastereq.integrate_master"),
        "mastereq.expectations_s": mean_s("mastereq.expectations"),
        "io.parse_config_s": mean_s("io.parse_config"),
        "io.read_record_s": mean_s("io.read_record"),
        "io.write_record_s": mean_s("io.write_record"),
        "io.write_surface_csv_s": mean_s("io.write_surface_csv"),
        "io.bytes_written": ratio(written, n_ops),
    }
