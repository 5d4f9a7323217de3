"""Duty-cycling simulator for pairs of energy-harvesting devices.

Two devices harvest energy in discrete slots (one unit per harvest slot) and
want to maximize their Common Active Time (CAT): slots where both are active.
A slot where both harvest and both stay awake is worth 1; a slot where one
device runs on a stored unit is worth the charging efficiency eta. Scheduling
reduces to a weighted bipartite matching between the two devices' harvest
slots. The package ships the optimal offline scheduler, a randomized online
scheduler, an exhaustive schedule oracle that certifies it (and a matching
oracle the tests check both against), metrics, a Monte Carlo harness and a CLI.
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
    ExclusivityError,
    FeasibilityError,
    PairResult,
    Schedule,
    ScheduleConflictError,
    assert_energy_feasible,
)
from .offline import exact_expected_cat, expected_cat, offline_duty_cycle
from .online import (
    OnlineConfig,
    OnlineMode,
    OnlineResult,
    approx_ratio_bound,
    online_duty_cycle,
)
from .oracle import ORACLE_MAX_VERTEXES, OracleBudgetError, brute_force_matching
from .metrics import (
    PairMetrics,
    compute_heterogeneity,
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
    "EnergyTrace",
    "ExclusivityError",
    "ExperimentSpec",
    "FeasibilityError",
    "OnlineConfig",
    "OnlineMode",
    "OnlineResult",
    "ORACLE_MAX_VERTEXES",
    "OracleBudgetError",
    "PairMetrics",
    "PairResult",
    "RawTrace",
    "RunReport",
    "Schedule",
    "ScheduleConflictError",
    "TraceFormatError",
    "approx_ratio_bound",
    "assert_energy_feasible",
    "brute_force_matching",
    "check_balls_in_bins",
    "compute_heterogeneity",
    "estimate_prob",
    "exact_expected_cat",
    "expected_cat",
    "generate_pair",
    "generate_trace",
    "offline_duty_cycle",
    "online_duty_cycle",
    "ratio_online_to_offline",
    "read_pair_csv",
    "read_raw_csv",
    "run_monte_carlo",
    "run_trace_pairs",
    "threshold_trace",
    "write_pair_csv",
    "write_raw_csv",
]
