import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dutycycle import (
    ArrivalModel,
    EnergyTrace,
    OnlineConfig,
    OnlineMode,
    OnlineSimulator,
    approx_ratio_bound,
    assert_energy_feasible,
    build_graph,
    generate_pair,
    offline_duty_cycle,
    online_duty_cycle,
)
from dutycycle.online import _decision_arrays, simulate_arrays


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
    assert OnlineConfig(prob_active=0.5, mode="slotsim").mode is OnlineMode.SLOT_SIM


def test_estimated_probability_is_causal_and_exact_for_constant_traces():
    # all-one traces estimate p_hat = 1 from the very first slot, so the
    # online run must equal the offline one
    trace_u, trace_v = trace([1] * 30), trace([1] * 30, "v")
    result = online_duty_cycle(trace_u, trace_v, cfg(p=None, warmup=10))
    assert result.cat_total == 30.0


def test_estimated_probability_freezes_after_warmup():
    # harvests only in the warm-up prefix: the frozen estimate stays 1/2
    states = [1, 0] * 4 + [0] * 20
    trace_u, trace_v = trace(states), trace(states, "v")
    sim = OnlineSimulator(len(states), cfg(p=None, warmup=8))
    for t in range(len(states)):
        sim.step(states[t], states[t])
    assert sim._harvest_count == [4, 4]


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
def test_batch_equals_stepwise_with_poisoned_future(run):
    # the no-lookahead contract: feeding slots one at a time, with every
    # future slot overwritten by garbage, reproduces the batch result bit
    # for bit
    trace_u, trace_v, p, seed, mode, warmup = run
    config = cfg(p=p, seed=seed, mode=mode, warmup=warmup)
    batch = online_duty_cycle(trace_u, trace_v, config)

    poisoned_u = [9] * trace_u.period_len
    poisoned_v = [9] * trace_v.period_len
    sim = OnlineSimulator(trace_u.period_len, config)
    for t in range(trace_u.period_len):
        poisoned_u[t] = trace_u.states[t]
        poisoned_v[t] = trace_v.states[t]
        sim.step(poisoned_u[t], poisoned_v[t])
        poisoned_u[t] = 9  # the simulator must not hold references
        poisoned_v[t] = 9
    assert sim.result() == batch


@settings(max_examples=250, deadline=None)
@given(run=random_runs())
def test_count_kernel_equals_stepwise_rules(run):
    # the vectorized count kernel and OnlineSimulator's per-slot rules are
    # two implementations of one scheduler: each row of one 2-D call must
    # give the counts of the single-pair path on the same decisions
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


def test_simulator_guards():
    sim = OnlineSimulator(2, cfg(p=0.5))
    sim.step(1, 0)
    with pytest.raises(RuntimeError, match="incomplete"):
        sim.result()
    sim.step(0, 1)
    sim.result()
    with pytest.raises(RuntimeError, match="complete"):
        sim.step(0, 0)


def test_mismatched_periods_rejected():
    with pytest.raises(ValueError, match="period"):
        online_duty_cycle(trace([1, 0]), trace([1, 0, 1], "v"), cfg())
