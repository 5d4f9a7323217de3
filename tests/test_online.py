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
    generate_pair,
    offline_duty_cycle,
    online_duty_cycle,
)
from dutycycle.online import (
    _decision_arrays,
    _estimated_probs,
    _prefix_walk,
    _walk_pair,
    simulate_arrays,
)
from dutycycle.offline import duty_cycle_arrays


def trace(states, device_id="u"):
    return EnergyTrace(device_id=device_id, states=states)


ETA = 0.75


def cfg(p=0.5, mode=OnlineMode.MATCHING, seed=11, warmup=60):
    return OnlineConfig(prob_active=p, seed=seed, mode=mode, warmup=warmup)


ALL_ONES = [1] * 12


@pytest.mark.parametrize("mode", list(OnlineMode))
def test_p_one_identical_traces_matches_offline(mode):
    trace_u, trace_v = trace(ALL_ONES), trace(ALL_ONES, "v")
    result = online_duty_cycle(trace_u, trace_v, ETA, cfg(p=1.0, mode=mode))
    assert result.sync_count == 12 and result.async_count == 0
    assert result.cat_total == 12.0
    assert result.wasted_units == 0
    offline = offline_duty_cycle(trace_u, trace_v, 0.75)
    assert result.cat_total == offline.cat_total


@pytest.mark.parametrize("mode", list(OnlineMode))
def test_p_zero_never_active(mode):
    trace_u, trace_v = trace(ALL_ONES), trace(ALL_ONES, "v")
    result = online_duty_cycle(trace_u, trace_v, ETA, cfg(p=0.0, mode=mode))
    assert result.edges == ()
    assert result.cat_total == 0.0
    assert result.wasted_units == 24  # every harvested unit banked, never spent


def test_determinism_per_seed():
    model = ArrivalModel(prob_harvest=0.6, period_len=300, seed=2)
    trace_u, trace_v = generate_pair(model)
    a = online_duty_cycle(trace_u, trace_v, ETA, cfg(p=0.6, seed=5))
    b = online_duty_cycle(trace_u, trace_v, ETA, cfg(p=0.6, seed=5))
    assert a == b
    c = online_duty_cycle(trace_u, trace_v, ETA, cfg(p=0.6, seed=6))
    assert a.edges != c.edges


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
        online_duty_cycle(trace([1]), trace([1], "v"), 0.0, cfg())
    with pytest.raises(ValueError):
        OnlineConfig(prob_active=0.5, warmup=0)
    with pytest.raises(ValueError, match="prob_active"):
        OnlineConfig(prob_active=(0.5,))
    with pytest.raises(ValueError, match="prob_active"):
        OnlineConfig(prob_active=(0.1, 0.2, 0.3))
    assert OnlineConfig(prob_active=0.5, mode="slotsim").mode is OnlineMode.SLOT_SIM


def test_config_takes_numpy_scalar_probabilities():
    assert OnlineConfig(prob_active=np.float32(0.5)).device_probs() == (0.5, 0.5)
    assert OnlineConfig(prob_active=np.int64(1)).device_probs() == (1.0, 1.0)
    with pytest.raises(ValueError, match=r"^prob_active must lie in \[0, 1\], got 2\.0$"):
        OnlineConfig(prob_active=np.float64(2.0))
    with pytest.raises(ValueError, match="^prob_active must be one probability or a pair"):
        OnlineConfig(prob_active="0.5")


def test_estimated_probability_is_causal_and_exact_for_constant_traces():
    # all-one traces estimate p_hat = 1 from the very first slot, so the
    # online run must equal the offline one
    trace_u, trace_v = trace([1] * 30), trace([1] * 30, "v")
    result = online_duty_cycle(trace_u, trace_v, ETA, cfg(p=None, warmup=10))
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
        result = online_duty_cycle(trace_u, trace_v, ETA, cfg(p=0.5, mode=mode, seed=seed))
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
    full = online_duty_cycle(trace_u, trace_v, ETA, config).edges
    for k in range(trace_u.period_len + 1):
        prefix = online_duty_cycle(
            trace(trace_u.states[:k]), trace(trace_v.states[:k], "v"), ETA, config
        )
        assert prefix.edges == tuple(e for e in full if max(e) <= k)


@st.composite
def flipped_runs(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    states = st.lists(st.booleans(), min_size=n, max_size=n).map(np.array)
    b_u, b_v, flip_u, flip_v = (draw(states) for _ in range(4))
    t = draw(st.integers(0, n))
    flip_u[:t] = flip_v[:t] = False  # flip only states after slot t
    prob = st.floats(0.0, 1.0)
    config = OnlineConfig(
        prob_active=draw(st.one_of(st.none(), prob, st.tuples(prob, prob))),
        seed=draw(st.integers(0, 2**20)),
        mode=draw(st.sampled_from(list(OnlineMode))),
        warmup=draw(st.sampled_from([1, 3, 60])),
    )
    return (b_u, b_v), (b_u ^ flip_u, b_v ^ flip_v), t, config


@settings(max_examples=300, deadline=None)
@given(run=flipped_runs())
def test_flipping_later_states_keeps_every_earlier_edge_and_decision(run):
    # the online scheduler stays causal: what slots after t hold changes
    # neither an edge active by slot t nor, in the estimated mode, a
    # decision of slots 1..t
    before, after, t, config = run
    early, decisions = [], []
    for b_u, b_v in (before, after):
        edges = online_duty_cycle(trace(b_u), trace(b_v, "v"), ETA, config).edges
        early.append(tuple(e for e in edges if max(e) <= t))
        decisions.append([d[:t].tolist() for d in _decision_arrays(b_u, b_v, config, "u", "v")])
    assert early[0] == early[1]
    assert decisions[0] == decisions[1]


@pytest.mark.parametrize("mode", list(OnlineMode))
def test_estimated_mode_equals_offline_at_one_slot(mode):
    # the estimate for slot t reads slot t's own state: at T = 1 it is that
    # state, so a harvester is always active and an idle device never is
    for b_u, b_v in [(0, 0), (0, 1), (1, 0), (1, 1)]:
        trace_u, trace_v = trace([b_u]), trace([b_v], "v")
        offline = offline_duty_cycle(trace_u, trace_v, ETA)
        for seed in range(5):
            for warmup in (1, 2, 60):
                config = cfg(p=None, mode=mode, seed=seed, warmup=warmup)
                online = online_duty_cycle(trace_u, trace_v, ETA, config)
                assert online.edges == offline.edges
                assert online.cat_total == offline.cat_total


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
    packed = (np.packbits(mask, axis=-1) for mask in (b_u, b_v, d_u, d_v))
    sync, asyn, wasted = simulate_arrays(*packed, mode)
    for j, ((tr_u, tr_v), config) in enumerate(zip(pairs, configs)):
        result = online_duty_cycle(tr_u, tr_v, ETA, config)
        assert (sync[j], asyn[j], wasted[j]) == (
            result.sync_count,
            result.async_count,
            result.wasted_units,
        )


def assert_rows_equal_the_walk(b_u, b_v, d_u, d_v, mode):
    packed = (np.packbits(mask, axis=-1) for mask in (b_u, b_v, d_u, d_v))
    sync, asyn, wasted = simulate_arrays(*packed, mode)
    for j in range(b_u.shape[0]):
        result = _walk_pair(b_u[j], b_v[j], d_u[j], d_v[j], mode, ETA)
        assert (sync[j], asyn[j], wasted[j]) == (
            result.sync_count,
            result.async_count,
            result.wasted_units,
        ), j


@st.composite
def decision_batches(draw):
    # arrivals and decisions are independent Bernoulli masks of drawn
    # densities, so the decisions need not follow _decision_arrays
    n = draw(st.integers(min_value=1, max_value=7))
    period_len = draw(st.integers(min_value=0, max_value=149))
    probs = draw(st.lists(st.sampled_from([0.0, 0.2, 0.5, 0.8, 1.0]), min_size=4, max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    masks = rng.random((4, n, period_len)) < np.array(probs)[:, None, None]
    return (*masks, draw(st.sampled_from(list(OnlineMode))))


@settings(max_examples=250, deadline=None)
@given(batch=decision_batches())
def test_count_kernel_rows_equal_the_walk_on_arbitrary_decisions(batch):
    # decisions drawn apart from _decision_arrays: the kernel's prefix-sum
    # form must give every row's per-slot walk counts
    assert_rows_equal_the_walk(*batch)


@pytest.mark.parametrize("mode", list(OnlineMode))
@pytest.mark.parametrize("period_len", range(40, 48))
def test_count_kernel_rows_equal_the_walk_at_every_byte_padding(period_len, mode):
    # the kernel packs eight slots a byte: every residue of T mod 8 leaves
    # a different number of padding bits in each row's last byte
    rng = np.random.default_rng(period_len)
    probs = np.array([0.2, 0.5, 0.8, 0.5, 0.9, 0.1])[:, None]
    b_u, b_v, d_u, d_v = rng.random((4, 6, period_len)) < probs
    assert_rows_equal_the_walk(b_u, b_v, d_u, d_v, mode)


@pytest.mark.parametrize("mode", list(OnlineMode))
def test_count_kernel_rows_equal_the_walk_on_banks_far_past_a_byte(mode):
    # 40,000 slots: banks that climb to the tens of thousands and walks
    # that fall as far, so the byte tables' int8 steps must add up in wider
    # integers; then the same rows with 2% of their bits flipped
    period_len = 40_000
    ones, zeros = np.ones(period_len, bool), np.zeros(period_len, bool)
    half = np.arange(period_len) < period_len // 2
    rows = [
        (ones, zeros, zeros, zeros),  # u sleeps on every unit it harvests
        (ones, zeros, zeros, ones),  # matching: every try of u's on v's empty bank fails
        (zeros, ones, ones, ones),  # slotsim: every try of v's on u's empty bank fails
        (ones, ones, half, ~half),  # each device sleeps for half the period
        (half, ~half, ~half, zeros),  # u banks for half the period, then v takes
        (half, ~half, ~half, ~half),  # the same, v taking the units in slotsim
    ]
    masks = [np.array(side) for side in zip(*rows)]
    flips = np.random.default_rng(7).random((4, period_len)) < 0.02
    b_u, b_v, d_u, d_v = (np.concatenate([m, m ^ flip]) for m, flip in zip(masks, flips))
    assert_rows_equal_the_walk(b_u, b_v, d_u, d_v, mode)


@pytest.mark.parametrize("period_len", [0, 1, 7, 8, 9, 15, 16, 17, 1000, 40_000])
def test_byte_walk_equals_the_slot_walk(period_len):
    # up and down may share a slot here, which the rules never produce
    rng = np.random.default_rng(period_len)
    up, down = rng.random((2, 5, period_len)) < np.array([0.1, 0.5, 0.55, 0.7, 1.0])[:, None]
    walk = np.cumsum(up.astype(np.int64) - down, axis=-1)
    end, low = _prefix_walk(np.packbits(up, axis=-1), np.packbits(down, axis=-1))
    assert end.tolist() == (walk[:, -1] if period_len else np.zeros(5, int)).tolist()
    assert low.tolist() == walk.min(axis=-1, initial=0).tolist()


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
    # a failed matching attempt banks the sleeper's unit, which the partner
    # then takes: both banks share one floor
    "matching-failed-pair-banks-for-partner": (M, [1, 0], [0, 1], [0, 1], [1, 0], [(1, 2)], 0),
    # a failed slotsim attempt spends the harvester's unit alone: each bank
    # has its own floor
    "slotsim-failed-pair-spends-alone": (S, [1], [0], [1], [1], [], 1),
}


@pytest.mark.parametrize(
    "mode, b_u, b_v, d_u, d_v, edges, wasted", RULE_TABLE.values(), ids=RULE_TABLE
)
def test_rule_table(mode, b_u, b_v, d_u, d_v, edges, wasted):
    arrays = [np.array(x, dtype=bool) for x in (b_u, b_v, d_u, d_v)]
    result = _walk_pair(*arrays, mode, ETA)
    assert list(result.edges) == edges
    assert result.wasted_units == wasted
    n_sync = sum(u == v for u, v in edges)
    sync, asyn, waste = simulate_arrays(*(np.packbits(a[None, :], axis=-1) for a in arrays), mode)
    assert (sync[0], asyn[0], waste[0]) == (n_sync, len(edges) - n_sync, wasted)


def test_matching_walk_with_clairvoyant_decisions_is_the_offline_greedy():
    # the two schedulers pair by one rule: with d_u = b_u & b_v and d_v = b_u
    # every U-only unit sleeps and tries to pair, every V-only unit sleeps
    # with no partner to try, and the matching walk makes exactly the
    # greedy's sync edges and step 2, leaving X + Y - 2 * len(step2) units
    period = 6
    states = (np.arange(2**period)[:, None] >> np.arange(period)) & 1 == 1
    for b_u in states:
        for b_v in states:
            # step 2 pairs a U-vertex with an earlier V-vertex, step 3 the reverse
            edges = duty_cycle_arrays(b_u, b_v)
            step2 = [(u, v) for u, v in edges if u > v]
            result = _walk_pair(b_u, b_v, b_u & b_v, b_u, OnlineMode.MATCHING, ETA)
            assert result.edges == tuple(sorted([(u, v) for u, v in edges if u == v] + step2))
            x, y = np.count_nonzero(b_u & ~b_v), np.count_nonzero(b_v & ~b_u)
            assert result.wasted_units == x + y - 2 * len(step2)


@settings(max_examples=250, deadline=None)
@given(run=random_runs())
def test_online_invariants(run):
    trace_u, trace_v, p, seed, mode, warmup = run
    result = online_duty_cycle(trace_u, trace_v, ETA, cfg(p=p, seed=seed, mode=mode, warmup=warmup))
    # exclusivity is enforced by PairResult itself; check accounting and
    # feasibility against the raw traces
    assert result.cat_total == pytest.approx(result.sync_count + 0.75 * result.async_count)
    assert result.sat_total == result.sync_count
    assert_energy_feasible(result.schedule(), trace_u, trace_v)
    # offline is optimal, so it dominates every online outcome
    offline = offline_duty_cycle(trace_u, trace_v, 0.75)
    assert offline.cat_total >= result.cat_total - 1e-9
    # every edge endpoint is a true harvest slot
    slots_u = set(trace_u.harvest_slots())
    slots_v = set(trace_v.harvest_slots())
    for u, v in result.edges:
        assert u in slots_u and v in slots_v


@settings(max_examples=150, deadline=None)
@given(run=random_runs())
def test_modes_agree_on_sync_count(run):
    trace_u, trace_v, p, seed, _, warmup = run
    matching = online_duty_cycle(
        trace_u, trace_v, ETA, cfg(p=p, seed=seed, mode=OnlineMode.MATCHING, warmup=warmup)
    )
    slotsim = online_duty_cycle(
        trace_u, trace_v, ETA, cfg(p=p, seed=seed, mode=OnlineMode.SLOT_SIM, warmup=warmup)
    )
    assert matching.sync_count == slotsim.sync_count


def test_per_device_probabilities():
    trace_u, trace_v = trace(ALL_ONES), trace(ALL_ONES, "v")
    result = online_duty_cycle(trace_u, trace_v, ETA, cfg(p=(1.0, 0.0)))
    assert result.sync_count == 0
    assert result.cat_total == 0.0


def test_result_json_payload():
    trace_u, trace_v = trace([1, 1]), trace([1, 1], "v")
    payload = online_duty_cycle(trace_u, trace_v, ETA, cfg(p=1.0)).to_json_dict()
    assert payload["mode"] == "matching"
    assert payload["sync"] == 2 and payload["wasted_units"] == 0
    assert payload["edges"] == [
        {"u": 1, "v": 1, "kind": "sync"},
        {"u": 2, "v": 2, "kind": "sync"},
    ]


def test_mismatched_periods_rejected():
    with pytest.raises(ValueError, match="period"):
        online_duty_cycle(trace([1, 0]), trace([1, 0, 1], "v"), ETA, cfg())
