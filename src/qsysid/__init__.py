"""Quantum-jump records of a driven atom-cavity system, and coupling
identification from those records by record-likelihood maximization."""

from .dynamics import (
    CHANNEL_ATOM,
    CHANNEL_CAVITY,
    METHOD_EIG,
    METHOD_FALLBACK,
    ClassicalRecord,
    Propagator,
    max_total_decay_rate,
    prepare_propagator,
    simulate_record,
)
from .ensemble import (
    ConvergenceStats,
    EnsembleResult,
    MleHistogram,
    count_statistics,
    default_checkpoints,
    run_ensemble,
    summarize,
    trajectory_seed,
)
from .errors import (
    ConfigError,
    ConvergenceError,
    FormatError,
    InvalidParametersError,
    NoEstimateError,
    NumericError,
    QsysidError,
    StatisticsError,
    StepSizeError,
)
from .inference import (
    Estimate,
    GGrid,
    LikelihoodSurface,
    conditional_states,
    default_grid,
    estimate_time_series,
    likelihood_surface,
    log_likelihood,
    posterior,
    posterior_and_mle,
)
from .io import (
    CONFIG_SCHEMA,
    RECORD_SCHEMA,
    Config,
    parse_config,
    read_record,
    write_hist_csv,
    write_history_csv,
    write_record,
    write_stats_csv,
    write_surface_csv,
)
from .mastereq import (
    MasterState,
    expectations,
    ground_vacuum_density,
    integrate_master,
    steady_state,
)
from .model import (
    ATOM_EXCITED,
    ATOM_GROUND,
    EffectiveHamiltonian,
    Model,
    ModelParams,
    basis_index,
    build_model,
    effective_hamiltonian,
    ground_vacuum,
)

__version__ = "0.1.0"
