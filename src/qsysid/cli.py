"""Command-line front end: simulate, estimate, ensemble, steadystate.

Exit codes: 0 success, 1 usage error, 2 config/format error, 3 numeric or
statistical failure. stdout carries human-readable summaries only; all data
products go to the files named by --out/--hist/--history; warnings go to stderr.
"""

from __future__ import annotations

import argparse
import sys

from .dynamics import TRUNCATION_TAIL_LIMIT, _simulate
from .ensemble import count_statistics, run_ensemble, summarize
from .errors import ConfigError, FormatError, InvalidParametersError, QsysidError
from .inference import likelihood_surface, posterior_and_mle
from .io import (
    parse_config,
    read_record,
    write_hist_csv,
    write_history_csv,
    write_record,
    write_stats_csv,
    write_surface_csv,
)
from .mastereq import expectations, steady_state
from .model import build_model

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsysid",
        description=(
            "Simulate photodetection records of a driven atom-cavity system "
            "and identify the coupling from them."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="generate one detection record")
    p_sim.add_argument("--config", required=True, help="config JSON path")
    p_sim.add_argument("--out", required=True, help="output record JSON path")
    p_sim.set_defaults(func=_cmd_simulate)

    p_est = sub.add_parser("estimate", help="score a record over the grid")
    p_est.add_argument("--config", required=True, help="config JSON path")
    p_est.add_argument("--record", required=True, help="input record JSON path")
    p_est.add_argument("--out", required=True, help="output surface CSV path")
    p_est.add_argument("--history", help="optional per-jump surface CSV path")
    p_est.set_defaults(func=_cmd_estimate)

    p_ens = sub.add_parser("ensemble", help="simulate and estimate many records")
    p_ens.add_argument("--config", required=True, help="config JSON path")
    p_ens.add_argument("--out", required=True, help="output stats CSV path")
    p_ens.add_argument("--hist", required=True, help="output histogram CSV path")
    p_ens.add_argument(
        "--hist-time", type=float, default=None,
        help="checkpoint time for the histogram (default: last checkpoint)",
    )
    p_ens.add_argument(
        "--bin-width", type=float, default=None,
        help="histogram bin width in MHz (default: grid step)",
    )
    p_ens.set_defaults(func=_cmd_ensemble)

    p_ss = sub.add_parser("steadystate", help="report steady-state expectations")
    p_ss.add_argument("--config", required=True, help="config JSON path")
    p_ss.add_argument(
        "--g", type=float, default=None,
        help="coupling in MHz (default: g_true_mhz from the config)",
    )
    p_ss.set_defaults(func=_cmd_steadystate)
    return parser


def _cmd_simulate(args) -> int:
    config = parse_config(args.config)
    model = build_model(config.model_params())
    record, tail = _simulate(model, config.g_true, config.t0, config.tf, config.seed)
    write_record(args.out, record)
    print(
        f"simulate: {record.n_events} events in [{config.t0}, {config.tf}] us "
        f"(seed {config.seed}) -> {args.out}"
    )
    if tail >= TRUNCATION_TAIL_LIMIT:
        print(f"warning: top two Fock levels hold {tail:.3e} of a conditional state (limit "
              f"{TRUNCATION_TAIL_LIMIT:.0e}); raise n_trunc above {config.n_trunc}", file=sys.stderr)
    return EXIT_OK


def _cmd_estimate(args) -> int:
    config = parse_config(args.config)
    model = build_model(config.model_params())
    record = read_record(args.record)
    surface = likelihood_surface(model, record, config.grid(), with_history=args.history is not None)
    write_surface_csv(args.out, surface)
    if args.history is not None:
        write_history_csv(args.history, surface)
    estimate = posterior_and_mle(surface, refine=config.refine)
    print(
        f"estimate: {record.n_events} events, g_mle = {estimate.g_mle:.4f} MHz "
        f"(posterior {estimate.posterior_mean:.4f} +/- {estimate.posterior_sd:.4f}) "
        f"-> {args.out}"
    )
    return EXIT_OK


def _cmd_ensemble(args) -> int:
    config = parse_config(args.config)
    model = build_model(config.model_params())
    result = run_ensemble(
        model,
        config.g_true,
        config.grid(),
        config.n_traj,
        config.t0,
        config.tf,
        checkpoints=config.checkpoints,
        master_seed=config.seed,
        refine=config.refine,
    )
    if result.failures:
        print(f"failed trajectories: {len(result.failures)} of {result.n_traj}")
        for index, reason in result.failures:
            print(f"  trajectory {index}: {reason}")
    hist_time = args.hist_time if args.hist_time is not None else result.checkpoints[-1]
    bin_width = args.bin_width if args.bin_width is not None else config.grid_step
    stats, histogram = summarize(result, hist_time, bin_width)
    write_stats_csv(args.out, stats)
    write_hist_csv(args.hist, histogram)
    for t, n, mean, std, rms in zip(
        stats.times, stats.n, stats.mean_mle, stats.std_mle, stats.rms_err
    ):
        print(
            f"t = {t:8.4f} us  n = {int(n):4d}  mean = {mean:8.4f} MHz  "
            f"std = {std:7.4f} MHz  rms = {rms:7.4f} MHz"
        )
    mean_counts, var_counts, fano = count_statistics(result)
    print(
        f"counts: mean = {mean_counts:.1f} per record, variance = {var_counts:.1f}, "
        f"Fano = {fano:.2f}"
    )
    print(f"wrote {args.out} and {args.hist}")
    return EXIT_OK


def _cmd_steadystate(args) -> int:
    config = parse_config(args.config)
    model = build_model(config.model_params())
    g = config.g_true if args.g is None else args.g
    state = steady_state(model, g)
    n_photon, p_excited, flux = expectations(state, model)
    print(f"g_mhz = {g}")
    print(f"mean_photon_number = {n_photon!r}")
    print(f"excited_population = {p_excited!r}")
    print(f"flux_per_us = {flux!r}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return args.func(args)
    except (ConfigError, FormatError, InvalidParametersError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except QsysidError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
