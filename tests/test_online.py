import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dutycycle import (
    ArrivalModel,
    EnergyTrace,
    OnlineConfig,
    OnlineMode,
    approx_ratio_bound,
    assert_energy_feasible,
    build_graph,
    generate_pair,
    offline_duty_cycle,
    online_duty_cycle,
)
from dutycycle.online import _decision_arrays, _estimated_probs, _walk_pair, simulate_arrays


def trace(states, device_id="u"):
    return EnergyTrace(device_id=device_id, states=states)


def cfg(p=0.5, mode=OnlineMode.MATCHING, seed=11, eta=0.75, warmup=60):
    return OnlineConfig(prob_active=p, eta=eta, seed=seed, mode=mode, warmup=warmup)


ALL_ONES = [1] * 12


@pytest.mark.parametrize("mode", list(OnlineMode))
def test_p_one_identical_traces_matches_offline(mode):
    trace_u, trace_v = trace(ALL_ONES), trace(ALL_ONES, "v")
    result = online_duty_cycle(trace_u, trace_v, cfg(p=1.0, mode=mode))
    assert result.sync_count == 12 and result.async_count == 0
    assert result.cat_total == 12.0
    assert result.wasted_units == 0
    offline = offline_duty_cycle(build_graph(trace_u, trace_v, 0.75))
    assert result.cat_total == offline.cat_total


@pytest.mark.parametrize("mode", list(OnlineMode))
def test_p_zero_never_active(mode):
    trace_u, trace_v = trace(ALL_ONES), trace(ALL_ONES, "v")
    result = online_duty_cycle(trace_u, trace_v, cfg(p=0.0, mode=mode))
    assert result.matching.edges == ()
    assert result.cat_total == 0.0
    assert result.wasted_units == 24  # every harvested unit banked, never spent


def test_determinism_per_seed():
    model = ArrivalModel(prob_harvest=0.6, period_len=300, seed=2)
    trace_u, trace_v = generate_pair(model)
    a = online_duty_cycle(trace_u, trace_v, cfg(p=0.6, seed=5))
    b = online_duty_cycle(trace_u, trace_v, cfg(p=0.6, seed=5))
    assert a == b
    c = online_duty_cycle(trace_u, trace_v, cfg(p=0.6, seed=6))
    assert a.matching.edges != c.matching.edges


def test_approx_ratio_bound_values():
    assert approx_ratio_bound(0.0) == 0.0
    assert approx_ratio_bound(0.5) == pytest.approx(0.221199216928595, rel=1e-12)
    assert approx_ratio_bound(1.0) == pytest.approx(0.632120558828558, rel=1e-12)
    with pytest.raises(ValueError):
        approx_ratio_bound(1.5)


def test_config_validation():
    with pytest.raises(ValueError):
        OnlineConfig(prob_active=1.5)
    with pytest.raises(ValueError):
        OnlineConfig(prob_active=(0.5, -0.1))
    with pytest.raises(ValueError):
        OnlineConfig(prob_active=0.5, eta=0.0)
    with pytest.raises(ValueError):
        OnlineConfig(prob_active=0.5, warmup=0)
    with pytest.raises(ValueError, match="prob_active"):
        OnlineConfig(prob_active=(0.5,))
    with pytest.raises(ValueError, match="prob_active"):
        OnlineConfig(prob_active=(0.1, 0.2, 0.3))
    assert OnlineConfig(prob_active=0.5, mode="slotsim").mode is OnlineMode.SLOT_SIM


def test_estimated_probability_is_causal_and_exact_for_constant_traces():
    # all-one traces estimate p_hat = 1 from the very first slot, so the
    # online run must equal the offline one
    trace_u, trace_v = trace([1] * 30), trace([1] * 30, "v")
    result = online_duty_cycle(trace_u, trace_v, cfg(p=None, warmup=10))
    assert result.cat_total == 30.0


def test_estimated_probability_freezes_after_warmup():
    # harvests only in the warm-up prefix: the frozen estimate stays 1/2
    states = np.array([1, 0] * 4 + [0] * 20, dtype=bool)
    probs = _estimated_probs(states, warmup=8)
    assert probs[6] == 4 / 7
    assert (probs[7:] == 0.5).all()


@pytest.mark.parametrize("mode", list(OnlineMode))
def test_disjoint_single_slot_pair_enumerates_to_zero_or_eta(mode):
    trace_u = trace([1, 0])
    trace_v = trace([0, 1], "v")
    seen = set()
    for seed in range(40):
        result = online_duty_cycle(trace_u, trace_v, cfg(p=0.5, mode=mode, seed=seed))
        seen.add(result.cat_total)
    assert seen <= {0.0, 0.75}
    assert seen == {0.0, 0.75}  # both outcomes occur across 40 seeds


@st.composite
def random_runs(draw):
    n = draw(st.integers(min_value=1, max_value=60))
    bits_u = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    bits_v = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    p = draw(st.sampled_from([0.0, 0.2, 0.5, 0.8, 1.0, None]))
    seed = draw(st.integers(0, 2**20))
    mode = draw(st.sampled_from(list(OnlineMode)))
    warmup = draw(st.sampled_from([3, 60]))  # 3 exercises estimate freezing
    return trace(bits_u), trace(bits_v, "v"), p, seed, mode, warmup


@settings(max_examples=250, deadline=None)
@given(run=random_runs())
def test_prefix_run_forms_the_full_runs_early_edges(run):
    # the no-lookahead contract: a run cut after k slots never sees the
    # rest, so it must form exactly the full run's edges that activate by
    # slot k, for every k
    trace_u, trace_v, p, seed, mode, warmup = run
    config = cfg(p=p, seed=seed, mode=mode, warmup=warmup)
    full = online_duty_cycle(trace_u, trace_v, config).matching.edges
    for k in range(trace_u.period_len + 1):
        prefix = online_duty_cycle(
            trace(trace_u.states[:k]), trace(trace_v.states[:k], "v"), config
        )
        assert prefix.matching.edges == tuple(e for e in full if e.active_slot <= k)


@settings(max_examples=250, deadline=None)
@given(run=random_runs())
def test_count_kernel_equals_stepwise_rules(run):
    # the count kernel and the single-pair path walk the banks of one rule
    # set in two ways: each row of one 2-D call must give the counts of the
    # single-pair path on the same decisions
    trace_u, trace_v, p, seed, mode, warmup = run
    # rotated traces and shifted seeds make the five rows differ
    pairs = [
        (trace(np.roll(trace_u.states, j).tolist()), trace(np.roll(trace_v.states, j).tolist(), "v"))
        for j in range(5)
    ]
    configs = [cfg(p=p, seed=seed + j, mode=mode, warmup=warmup) for j in range(5)]
    b_u = np.array([tr_u.states for tr_u, _ in pairs], dtype=bool)
    b_v = np.array([tr_v.states for _, tr_v in pairs], dtype=bool)
    d_u, d_v = np.stack(
        [_decision_arrays(b_u[j], b_v[j], configs[j], "u", "v") for j in range(5)], axis=1
    )
    sync, asyn, wasted = simulate_arrays(b_u, b_v, d_u, d_v, mode)
    for j, ((tr_u, tr_v), config) in enumerate(zip(pairs, configs)):
        result = online_duty_cycle(tr_u, tr_v, config)
        assert (sync[j], asyn[j], wasted[j]) == (
            result.sync_count,
            result.async_count,
            result.wasted_units,
        )


M, S = OnlineMode.MATCHING, OnlineMode.SLOT_SIM
# one row per rule clause, with fixed decisions: mode, b_u, b_v, d_u, d_v,
# the expected (u_slot, v_slot) edges and wasted_units, worked out by hand
RULE_TABLE = {
    "matching-joint-active-harvest-is-sync": (M, [1], [1], [1], [1], [(1, 1)], 0),
    "slotsim-joint-active-harvest-is-sync": (S, [1], [1], [1], [1], [(1, 1)], 0),
    "matching-sleeper-pairs-with-active-partner": (M, [0, 1], [1, 0], [0, 0], [0, 1], [(2, 1)], 0),
    "matching-sleeper-skips-sleeping-partner": (M, [0, 1], [1, 0], [0, 0], [0, 0], [], 2),
    "matching-active-harvester-spends-alone": (M, [0, 1], [1, 0], [0, 1], [0, 1], [], 2),
    "slotsim-harvester-pairs-with-active-partner": (S, [0, 1], [1, 0], [1, 1], [0, 1], [(2, 1)], 0),
    "slotsim-harvester-skips-sleeping-partner": (S, [0, 1], [1, 0], [1, 1], [0, 0], [], 2),
    "matching-stored-energy-on-both-sides": (M, [1, 0], [1, 0], [0, 1], [0, 1], [], 2),
    "slotsim-stored-energy-on-both-sides": (S, [1, 0], [1, 0], [0, 1], [0, 1], [], 2),
    "matching-u-takes-latest-bank": (M, [0, 0, 1], [1, 1, 0], [0, 0, 0], [0, 0, 1], [(3, 2)], 1),
    "matching-v-takes-latest-bank": (M, [1, 1, 0], [0, 0, 1], [0, 0, 1], [0, 0, 0], [(2, 3)], 1),
    "slotsim-u-takes-latest-bank": (S, [0, 0, 1], [1, 1, 0], [0, 0, 1], [0, 0, 1], [(3, 2)], 1),
}


@pytest.mark.parametrize(
    "mode, b_u, b_v, d_u, d_v, edges, wasted", RULE_TABLE.values(), ids=RULE_TABLE
)
def test_rule_table(mode, b_u, b_v, d_u, d_v, edges, wasted):
    arrays = [np.array(x, dtype=bool) for x in (b_u, b_v, d_u, d_v)]
    result = _walk_pair(*arrays, cfg(mode=mode))
    assert [(e.u_slot, e.v_slot) for e in result.matching.edges] == edges
    assert result.wasted_units == wasted
    n_sync = sum(u == v for u, v in edges)
    sync, asyn, waste = simulate_arrays(*(a[None, :] for a in arrays), mode)
    assert (sync[0], asyn[0], waste[0]) == (n_sync, len(edges) - n_sync, wasted)


@settings(max_examples=250, deadline=None)
@given(run=random_runs())
def test_online_invariants(run):
    trace_u, trace_v, p, seed, mode, warmup = run
    result = online_duty_cycle(trace_u, trace_v, cfg(p=p, seed=seed, mode=mode, warmup=warmup))
    # exclusivity is enforced by Matching itself; check accounting and
    # feasibility against the raw traces
    assert result.cat_total == pytest.approx(result.sync_count + 0.75 * result.async_count)
    assert result.sat_total == result.sync_count
    assert_energy_feasible(result.schedule(), trace_u, trace_v)
    # offline is optimal, so it dominates every online outcome
    offline = offline_duty_cycle(build_graph(trace_u, trace_v, 0.75))
    assert offline.cat_total >= result.cat_total - 1e-9
    # every edge endpoint is a true harvest slot
    slots_u = set(trace_u.harvest_slots())
    slots_v = set(trace_v.harvest_slots())
    for e in result.matching.edges:
        assert e.u_slot in slots_u and e.v_slot in slots_v


@settings(max_examples=150, deadline=None)
@given(run=random_runs())
def test_modes_agree_on_sync_count(run):
    trace_u, trace_v, p, seed, _, warmup = run
    matching = online_duty_cycle(
        trace_u, trace_v, cfg(p=p, seed=seed, mode=OnlineMode.MATCHING, warmup=warmup)
    )
    slotsim = online_duty_cycle(
        trace_u, trace_v, cfg(p=p, seed=seed, mode=OnlineMode.SLOT_SIM, warmup=warmup)
    )
    assert matching.sync_count == slotsim.sync_count


def test_per_device_probabilities():
    trace_u, trace_v = trace(ALL_ONES), trace(ALL_ONES, "v")
    result = online_duty_cycle(trace_u, trace_v, cfg(p=(1.0, 0.0)))
    assert result.sync_count == 0
    assert result.cat_total == 0.0


def test_result_json_payload():
    trace_u, trace_v = trace([1, 1]), trace([1, 1], "v")
    payload = online_duty_cycle(trace_u, trace_v, cfg(p=1.0)).to_json_dict()
    assert payload["mode"] == "matching"
    assert payload["sync"] == 2 and payload["wasted_units"] == 0
    assert payload["edges"] == [
        {"u": 1, "v": 1, "kind": "sync"},
        {"u": 2, "v": 2, "kind": "sync"},
    ]


def test_mismatched_periods_rejected():
    with pytest.raises(ValueError, match="period"):
        online_duty_cycle(trace([1, 0]), trace([1, 0, 1], "v"), cfg())
