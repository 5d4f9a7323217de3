import itertools

import pytest

from dutycycle import (
    EnergyTrace,
    ExperimentSpec,
    OnlineConfig,
    check_balls_in_bins,
    run_monte_carlo,
    run_trace_pairs,
)
from dutycycle.harness import (
    heterogeneity_sweep,
    verify_bins,
    verify_optimality,
    verify_ratio_bound,
)


def trace(states, device_id="u"):
    return EnergyTrace(device_id=device_id, states=states)


def small_spec(**overrides):
    base = dict(
        period_len=120,
        p_values=(0.3, 0.7),
        trials=200,
        eta=0.75,
        seed=7,
        algorithms=("offline", "online"),
    )
    base.update(overrides)
    return ExperimentSpec(**base)


def test_reports_are_byte_identical_for_identical_specs():
    a = run_monte_carlo(small_spec())
    b = run_monte_carlo(small_spec())
    assert a.to_json() == b.to_json()
    assert a.to_csv() == b.to_csv()


def test_offline_dominates_online_in_every_cell():
    report = run_monte_carlo(small_spec())
    online_cells = [c for c in report.cells if c["algorithm"].startswith("online")]
    assert len(online_cells) == 4  # two p values x two modes
    for cell in online_cells:
        assert cell["checks"]["offline_dominates"] is True
        assert cell["checks"]["ratio_of_means"] <= 1.0 + 1e-9


def test_trial_results_do_not_depend_on_trial_count():
    # row i of the bulk draws is a pure function of (seed, cell, i)
    a = run_monte_carlo(small_spec(trials=50))
    b = run_monte_carlo(small_spec(trials=150))
    # means differ, but re-running the smaller spec reproduces it exactly
    c = run_monte_carlo(small_spec(trials=50))
    assert a.to_json() == c.to_json()
    assert a.to_json() != b.to_json()


def test_p_one_collapses_all_algorithms_to_period_length():
    report = run_monte_carlo(small_spec(p_values=(1.0,), trials=20))
    for cell in report.cells:
        assert cell["metrics"]["cat"]["mean"] == pytest.approx(120.0)
        assert cell["metrics"]["cat"]["stderr"] == 0.0


def test_oracle_cell_matches_offline_exactly():
    report = run_monte_carlo(
        small_spec(period_len=12, trials=60, algorithms=("offline", "oracle"))
    )
    oracle_cells = [c for c in report.cells if c["algorithm"] == "oracle"]
    assert oracle_cells and all(c["checks"]["matches_offline_exactly"] for c in oracle_cells)


def test_oracle_refused_on_large_periods():
    with pytest.raises(ValueError, match="oracle"):
        small_spec(period_len=100, algorithms=("offline", "oracle"))


def test_spec_validation():
    with pytest.raises(ValueError):
        small_spec(trials=0)
    with pytest.raises(ValueError):
        small_spec(p_values=())
    with pytest.raises(ValueError):
        small_spec(p_values=(1.2,))
    with pytest.raises(ValueError):
        small_spec(algorithms=("offline", "magic"))


def test_stderr_shrinks_with_trials():
    few = run_monte_carlo(small_spec(p_values=(0.5,), trials=100, algorithms=("offline",)))
    many = run_monte_carlo(small_spec(p_values=(0.5,), trials=10_000, algorithms=("offline",)))
    se_few = few.cells[0]["metrics"]["cat"]["stderr"]
    se_many = many.cells[0]["metrics"]["cat"]["stderr"]
    assert se_many > 0
    # 100x the trials should shrink the standard error by about 10x
    assert 5.0 <= se_few / se_many <= 20.0


# ---------------------------------------------------------------------------
# balls into bins
# ---------------------------------------------------------------------------


def exact_mean_by_enumeration(n, m, subset_size):
    total = 0.0
    cases = 0
    for balls in itertools.product(range(m), repeat=n):
        total += len({b for b in balls if b < subset_size})
        cases += 1
    return total / cases


def test_bins_exact_mean_formula_against_enumeration():
    # independent oracle: enumerate all m^n placements for a tiny instance
    for n, m, a in ((2, 3, 2), (3, 4, 4), (3, 3, 1)):
        enumerated = exact_mean_by_enumeration(n, m, a)
        formula = a * (1.0 - (1.0 - 1.0 / m) ** n)
        assert formula == pytest.approx(enumerated, rel=1e-12)


def test_bins_small_case_matches_exact_mean():
    rep = check_balls_in_bins(n=3, m=4, subset_size=4, epsilon=0.1, trials=40_000, seed=3)
    assert rep.exact_mean == pytest.approx(2.3125)
    assert rep.empirical_mean == pytest.approx(2.3125, rel=0.02)
    assert rep.freq_bound_satisfied


def test_bins_full_subset_saturates_the_bound():
    # n = m with the whole bin range watched: the threshold sits far below
    # the mean, so the event frequency should be essentially 1
    rep = check_balls_in_bins(n=1000, m=1000, subset_size=1000, epsilon=0.05, trials=2_000, seed=2)
    assert rep.threshold == pytest.approx(1000 * (1 - 2.718281828459045**-1) - 50, rel=1e-9)
    assert rep.empirical_freq == 1.0
    assert rep.freq_bound_satisfied


def test_bins_zero_balls():
    rep = check_balls_in_bins(n=0, m=100, subset_size=40, epsilon=0.05, trials=50, seed=1)
    assert rep.empirical_mean == 0.0
    assert rep.empirical_freq == 1.0  # threshold is negative
    assert rep.freq_bound_satisfied


def test_bins_validation():
    with pytest.raises(ValueError):
        check_balls_in_bins(n=5, m=4, subset_size=2, epsilon=0.1, trials=10)
    with pytest.raises(ValueError):
        check_balls_in_bins(n=2, m=4, subset_size=5, epsilon=0.1, trials=10)
    with pytest.raises(ValueError):
        check_balls_in_bins(n=2, m=4, subset_size=2, epsilon=-0.1, trials=10)


def test_bins_determinism():
    a = check_balls_in_bins(n=50, m=100, subset_size=30, epsilon=0.05, trials=500, seed=9)
    b = check_balls_in_bins(n=50, m=100, subset_size=30, epsilon=0.05, trials=500, seed=9)
    assert a == b


# ---------------------------------------------------------------------------
# trace-driven pairs
# ---------------------------------------------------------------------------


def test_all_ones_pair_has_ratio_one():
    pair = (trace([1] * 20), trace([1] * 20, "v"))
    report = run_trace_pairs([pair], eta=0.75, online_cfg=OnlineConfig(prob_active=None, seed=4))
    cell = report.cells[0]
    assert cell["metrics"]["ratio"]["mean"] == 1.0
    assert cell["heterogeneity"] == 0.0


def test_disjoint_single_slot_pair():
    pair = (trace([1, 0]), trace([0, 1], "v"))
    for seed in range(12):
        report = run_trace_pairs(
            [pair], eta=0.75, online_cfg=OnlineConfig(prob_active=0.5, seed=seed)
        )
        cell = report.cells[0]
        assert cell["metrics"]["offline_cat"]["mean"] == 0.75
        assert cell["metrics"]["online_cat"]["mean"] in (0.0, 0.75)


def test_empty_pair_list():
    report = run_trace_pairs([], eta=0.75, online_cfg=OnlineConfig(prob_active=0.5))
    assert report.cells == [] and report.pairs == []


def test_mismatched_pair_is_named():
    pair = (trace([1, 0]), trace([0, 1, 1], "v"))
    with pytest.raises(ValueError, match="pair1"):
        run_trace_pairs([pair], eta=0.75, online_cfg=OnlineConfig(prob_active=0.5))


def test_pair_report_rows():
    pair = (trace([1, 0, 1, 1]), trace([1, 1, 0, 1], "v"))
    report = run_trace_pairs([pair], eta=0.75, online_cfg=OnlineConfig(prob_active=0.5, seed=2))
    ids = [p.pair_id for p in report.pairs]
    assert ids == ["pair1/offline", "pair1/online[matching]"]
    csv_text = report.to_csv()
    assert "pair_id,cat,sat" in csv_text


# ---------------------------------------------------------------------------
# verification suites (small budgets; full budgets run in test_acceptance)
# ---------------------------------------------------------------------------


def test_verify_optimality_small():
    result = verify_optimality(trials=60, seed=3)
    assert result["passed"] and result["mismatches"] == []


def test_verify_ratio_bound_small():
    result = verify_ratio_bound(trials=300, seed=3)
    assert result["passed"]
    assert len(result["cells"]) == 6  # three p values x two modes


def test_verify_bins_small():
    result = verify_bins(trials=2_000, seed=3)
    assert result["passed"]


def test_heterogeneity_sweep_shape_and_trends():
    rows = heterogeneity_sweep(p_values=(0.3, 1.0), period_len=150, trials=30, seed=5)
    assert len(rows) == 4
    by_combo = {(r["p_u"], r["p_v"]): r for r in rows}
    assert by_combo[(1.0, 1.0)]["ratio_of_means"] == 1.0
    assert by_combo[(1.0, 1.0)]["mean_heterogeneity"] == 0.0
    # the homogeneous strong pair beats the weak one on CAT
    assert by_combo[(1.0, 1.0)]["mean_offline_cat"] > by_combo[(0.3, 0.3)]["mean_offline_cat"]


@pytest.mark.parametrize(
    "p_values, period_len, trials, eta",
    [
        pytest.param((1.5,), 10, 10, 0.75, id="p-above-one"),
        pytest.param((), 10, 10, 0.75, id="no-p"),
        pytest.param((0.5,), 0, 10, 0.75, id="zero-period"),
        pytest.param((0.5,), 10, 0, 0.75, id="zero-trials"),
        pytest.param((0.5,), 10, 10, 0.0, id="zero-eta"),
    ],
)
def test_heterogeneity_sweep_validation(p_values, period_len, trials, eta):
    with pytest.raises(ValueError):
        heterogeneity_sweep(p_values, period_len, trials, eta=eta)
