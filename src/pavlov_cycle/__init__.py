"""Randomized-Pavlov iterated prisoner's dilemma on a cycle.

Exact stochastic edge-update simulation, drift certificates for fast
convergence to cooperation, mean-field bounds for the slow regime, and
reproducible batch experiments.
"""

__version__ = "0.1.0"

from .dynamics import (
    AllCooperate,
    AllDefect,
    Bernoulli,
    CycleState,
    Explicit,
    InitConfig,
    Outcome,
    RunList,
    RunResult,
    SingleDefector,
    StepOutcome,
    Strategy,
    StrategyKind,
    advance,
    edge_transition,
    extract_runs,
    new_state,
    run_until_absorbed,
    runs_of,
    step,
)
from .experiments import (
    DefectTimeStats,
    PhaseCell,
    SweepConfig,
    SweepRecord,
    defect_time_experiment,
    defect_time_variance,
    derive_seed,
    emit_csv,
    parse_csv,
    phase_summary,
    run_sweep,
)
from .meanfield import (
    EigenCheck,
    IntegrationDivergedError,
    MeanFieldState,
    OdeConfig,
    RegimeError,
    TailFit,
    TailReport,
    Trajectory,
    closed_form_short_runs,
    closed_form_total,
    eigenvalue_check,
    integrate,
    long_run_bound,
    rhs,
    tail_check,
)
from .weights import (
    ConstraintReport,
    DriftReport,
    InfeasibleParameterError,
    NoRootError,
    WeightTable,
    build_weight_table,
    certified_cutoff,
    check_constraints,
    find_crossover,
    min_feasible_p,
    one_step_drift,
    threshold_bisect,
    weight_recurrence,
)
