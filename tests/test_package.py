import dutycycle


def test_every_exported_name_resolves_once():
    # a deleted type left in __all__ would break `from dutycycle import *`
    assert len(dutycycle.__all__) == len(set(dutycycle.__all__))
    missing = [name for name in dutycycle.__all__ if not hasattr(dutycycle, name)]
    assert missing == []


def test_the_public_api_is_exactly_these_names():
    # any name added to or removed from the public API shows up here
    assert sorted(dutycycle.__all__) == [
        "ArrivalModel", "BinsReport", "DEFAULT_SEED", "EnergyTrace", "ExclusivityError",
        "ExperimentSpec", "FeasibilityError", "ORACLE_MAX_VERTEXES", "OnlineConfig", "OnlineMode",
        "OnlineResult", "OracleBudgetError", "PairMetrics", "PairResult", "RawTrace", "RunReport",
        "Schedule", "ScheduleConflictError", "TraceFormatError", "approx_ratio_bound",
        "assert_energy_feasible", "brute_force_matching", "check_balls_in_bins",
        "compute_heterogeneity", "estimate_prob", "exact_expected_cat", "expected_cat",
        "generate_pair", "generate_trace", "offline_duty_cycle", "online_duty_cycle",
        "ratio_online_to_offline", "read_pair_csv", "read_raw_csv", "run_monte_carlo",
        "run_trace_pairs", "threshold_trace", "write_pair_csv", "write_raw_csv",
    ]
