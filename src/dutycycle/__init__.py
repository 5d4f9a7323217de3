"""Duty-cycling simulator for pairs of energy-harvesting devices.

Two devices harvest energy in discrete slots (one unit per harvest slot) and
want to maximize their Common Active Time (CAT): slots where both are active.
A slot where both harvest and both stay awake is worth 1; a slot where one
device runs on a stored unit is worth the charging efficiency eta. Scheduling
reduces to a weighted bipartite matching between the two devices' harvest
slots. The package ships the optimal offline scheduler, a randomized online
scheduler, an exhaustive matching oracle for certification, metrics, a Monte
Carlo harness and a CLI.
"""

from .traces import (
    DEFAULT_SEED,
    ArrivalModel,
    EnergyTrace,
    RawTrace,
    TraceFormatError,
    estimate_prob,
    generate_pair,
    generate_trace,
    read_pair_csv,
    read_raw_csv,
    threshold_trace,
    write_pair_csv,
    write_raw_csv,
)
from .graph import (
    Edge,
    ExclusivityError,
    FeasibilityError,
    Matching,
    Schedule,
    ScheduleConflictError,
    StateGraph,
    assert_energy_feasible,
    build_graph,
    energy_feasible,
    schedule_from_matching,
)
from .offline import OfflineResult, exact_expected_cat, expected_cat, offline_duty_cycle
from .online import (
    OnlineConfig,
    OnlineMode,
    OnlineResult,
    approx_ratio_bound,
    online_duty_cycle,
)
from .oracle import (
    ORACLE_MAX_VERTEXES,
    OracleBudgetError,
    OracleResult,
    brute_force_matching,
    closed_form_optimum,
)
from .metrics import (
    PairMetrics,
    compute_cat,
    compute_heterogeneity,
    compute_sat,
    pair_rows,
    ratio_online_to_offline,
)
from .harness import (
    BinsReport,
    ExperimentSpec,
    RunReport,
    check_balls_in_bins,
    run_monte_carlo,
    run_trace_pairs,
)

__version__ = "0.1.0"

__all__ = [
    "ArrivalModel",
    "BinsReport",
    "DEFAULT_SEED",
    "Edge",
    "EnergyTrace",
    "ExclusivityError",
    "ExperimentSpec",
    "FeasibilityError",
    "Matching",
    "OfflineResult",
    "OnlineConfig",
    "OnlineMode",
    "OnlineResult",
    "ORACLE_MAX_VERTEXES",
    "OracleBudgetError",
    "OracleResult",
    "PairMetrics",
    "RawTrace",
    "RunReport",
    "Schedule",
    "ScheduleConflictError",
    "StateGraph",
    "TraceFormatError",
    "approx_ratio_bound",
    "assert_energy_feasible",
    "brute_force_matching",
    "build_graph",
    "check_balls_in_bins",
    "closed_form_optimum",
    "compute_cat",
    "compute_heterogeneity",
    "compute_sat",
    "energy_feasible",
    "estimate_prob",
    "exact_expected_cat",
    "expected_cat",
    "generate_pair",
    "generate_trace",
    "offline_duty_cycle",
    "online_duty_cycle",
    "pair_rows",
    "ratio_online_to_offline",
    "read_pair_csv",
    "read_raw_csv",
    "run_monte_carlo",
    "run_trace_pairs",
    "schedule_from_matching",
    "threshold_trace",
    "write_pair_csv",
    "write_raw_csv",
]
