import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dutycycle import (
    EnergyTrace,
    OnlineConfig,
    PairResult,
    compute_heterogeneity,
    offline_duty_cycle,
    online_duty_cycle,
    ratio_online_to_offline,
)
from dutycycle.harness import evaluate_pair
from dutycycle.metrics import heterogeneity


def trace(states, device_id="u"):
    return EnergyTrace(device_id=device_id, states=states)


WORKED_U = trace([1, 0, 0, 1, 0, 1, 0, 1, 0])
WORKED_V = trace([1, 0, 1, 0, 0, 1, 0, 0, 1], "v")


def test_compute_cat_on_worked_example():
    result = offline_duty_cycle(WORKED_U, WORKED_V, 0.75)
    assert math.fsum(result.schedule().cat) == result.cat_total == 3.5
    assert result.sat_total == 2.0


def test_compute_cat_all_sleep():
    sched = PairResult((), 0.75, 6).schedule()
    assert math.fsum(sched.cat) == 0.0


def test_sat_counts_sync_edges_only_at_eta_one():
    # at eta = 1 an asynchronous slot's CAT is 1.0 too, yet it adds no SAT
    result = offline_duty_cycle(trace([1, 0, 0]), trace([0, 1, 0], "v"), 1.0)
    assert result.sat_total == 0.0
    assert result.cat_total == 1.0
    assert math.fsum(result.schedule().cat) == 1.0


def test_heterogeneity_examples():
    same = trace([1, 0, 1])
    assert compute_heterogeneity(same, trace([1, 0, 1], "v")) == 0.0
    assert compute_heterogeneity(trace([1, 0]), trace([0, 1], "v")) == 1.0
    assert compute_heterogeneity(WORKED_U, WORKED_V) == pytest.approx(1.0 - 2.0 / 6.0)
    empty = trace([0, 0])
    assert compute_heterogeneity(empty, trace([0, 0], "v")) == 0.0
    # the n-trial form: one row per case above, zero-padded to a common length
    rows = [
        ([1, 0, 1], [1, 0, 1]),
        ([1, 0], [0, 1]),
        (WORKED_U.states, WORKED_V.states),
        ([0, 0], [0, 0]),
    ]
    b_u = np.zeros((len(rows), 9), dtype=bool)
    b_v = np.zeros((len(rows), 9), dtype=bool)
    for i, (u, v) in enumerate(rows):
        b_u[i, : len(u)] = u
        b_v[i, : len(v)] = v
    packed = np.packbits(b_u, axis=-1), np.packbits(b_v, axis=-1)
    assert heterogeneity(*packed).tolist() == pytest.approx([0.0, 1.0, 1.0 - 2.0 / 6.0, 0.0])


def test_ratio_examples():
    offline = offline_duty_cycle(WORKED_U, WORKED_V, 0.75)
    online_same = online_duty_cycle(WORKED_U, WORKED_V, 0.75, OnlineConfig(prob_active=1.0, seed=1))
    # p = 1 on a heterogeneous pair still loses the asynchronous edges
    assert 0.0 <= ratio_online_to_offline(online_same.cat_total, offline.cat_total) <= 1.0

    ones = trace([1] * 8)
    ones_v = trace([1] * 8, "v")
    off1 = offline_duty_cycle(ones, ones_v, 0.75)
    on1 = online_duty_cycle(ones, ones_v, 0.75, OnlineConfig(prob_active=1.0, seed=1))
    assert ratio_online_to_offline(on1.cat_total, off1.cat_total) == 1.0

    zeros = trace([0] * 4)
    zeros_v = trace([0] * 4, "v")
    off0 = offline_duty_cycle(zeros, zeros_v, 0.75)
    on0 = online_duty_cycle(zeros, zeros_v, 0.75, OnlineConfig(prob_active=0.5, seed=1))
    assert ratio_online_to_offline(on0.cat_total, off0.cat_total) == 1.0  # both zero

    on_zero = online_duty_cycle(WORKED_U, WORKED_V, 0.75, OnlineConfig(prob_active=0.0, seed=1))
    assert ratio_online_to_offline(on_zero.cat_total, offline.cat_total) == 0.0


def test_ratio_rule_on_per_trial_arrays():
    online = np.array([0.0, 1.5, 3.0, 0.0])
    offline = np.array([0.0, 0.0, 4.0, 2.0])
    assert ratio_online_to_offline(online, offline).tolist() == [1.0, math.inf, 0.75, 0.0]
    assert float(ratio_online_to_offline(1.5, 0.0)) == math.inf


def test_evaluate_pair_returns_the_pair_numbers_once():
    cfg = OnlineConfig(prob_active=1.0, seed=1)
    results, rows, pair = evaluate_pair("pair1", WORKED_U, WORKED_V, 0.75, cfg)
    assert list(results) == ["offline", "online"]
    assert [row.pair_id for row in rows] == ["pair1/offline", "pair1/online[matching]"]
    assert pair["ratio"] == results["online"].cat_total / results["offline"].cat_total
    for row in rows:
        assert (row.heterogeneity, row.p_hat_u, row.p_hat_v) == (
            pair["heterogeneity"],
            pair["p_hat_u"],
            pair["p_hat_v"],
        )
    results, _, pair = evaluate_pair("pair1", WORKED_U, WORKED_V, 0.75, cfg, ("online",))
    assert list(results) == ["online"] and "ratio" not in pair


def test_pair_metrics_row():
    _, (row,), _ = evaluate_pair("pair1", WORKED_U, WORKED_V, 0.75, OnlineConfig(), ("offline",))
    assert row.cat == 3.5 and row.sat == 2.0
    assert row.cat_pct == pytest.approx(3.5 / 9)
    assert row.sat_pct == pytest.approx(2.0 / 9)
    assert row.p_hat_u == pytest.approx(4 / 9)
    assert row.p_hat_v == pytest.approx(4 / 9)
    assert 0.0 <= row.heterogeneity <= 1.0
    assert row.to_csv_row().startswith("pair1/offline,3.5,2.0,")


@st.composite
def trace_pairs(draw):
    n = draw(st.integers(min_value=1, max_value=30))
    bits_u = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    bits_v = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    return trace(bits_u), trace(bits_v, "v")


@settings(max_examples=200)
@given(pair=trace_pairs())
def test_sat_bounded_by_cat_bounded_by_period(pair):
    trace_u, trace_v = pair
    result = offline_duty_cycle(trace_u, trace_v, 0.75)
    cat = math.fsum(result.schedule().cat)
    sat = result.sat_total
    assert cat == result.cat_total
    assert 0.0 <= sat <= cat <= trace_u.period_len
    assert 0.0 <= cat / trace_u.period_len <= 1.0


@settings(max_examples=200)
@given(pair=trace_pairs())
def test_zero_heterogeneity_means_all_sync(pair):
    trace_u, trace_v = pair
    if compute_heterogeneity(trace_u, trace_v) == 0.0:
        result = offline_duty_cycle(trace_u, trace_v, 0.75)
        assert result.async_count == 0
        assert result.cat_total == float(len(trace_u.harvest_slots()))
