import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from dutycycle import (
    Edge,
    EnergyTrace,
    ExclusivityError,
    FeasibilityError,
    Matching,
    PairResult,
    Schedule,
    ScheduleConflictError,
    assert_energy_feasible,
    brute_force_matching,
    offline_duty_cycle,
    schedule_from_matching,
)
from dutycycle.graph import cat_from_counts


def trace(states, device_id="u"):
    return EnergyTrace(device_id=device_id, states=states)


def test_edge_properties():
    sync = Edge(3, 3)
    assert sync.is_sync and sync.kind == "sync" and sync.active_slot == 3
    assert Matching(edges=(sync,)).total_weight(0.75) == 1.0
    asyn = Edge(8, 9)
    assert not asyn.is_sync and asyn.kind == "async" and asyn.active_slot == 9
    assert Matching(edges=(asyn,)).total_weight(0.75) == 0.75


def test_build_graph_walkthrough_sets():
    # the state graph's vertexes are each trace's harvest slots
    trace_u = trace([1, 0, 0, 1, 0, 1, 0, 1, 0])
    trace_v = trace([1, 0, 1, 0, 0, 1, 0, 0, 1], "v")
    assert trace_u.harvest_slots() == (1, 4, 6, 8)
    assert trace_v.harvest_slots() == (1, 3, 6, 9)


def test_build_graph_empty_and_identical():
    assert trace([0, 0, 0]).harvest_slots() == trace([0, 0, 0], "v").harvest_slots() == ()
    assert trace([1, 0, 1]).harvest_slots() == trace([1, 0, 1], "v").harvest_slots() == (1, 3)


def test_build_graph_rejects_period_mismatch():
    for algorithm in (offline_duty_cycle, brute_force_matching):
        with pytest.raises(ValueError, match="period"):
            algorithm(trace([1, 0]), trace([1, 0, 0], "v"), 0.75)


def test_state_graph_invariants():
    # a bool trace's harvest slots are sorted, distinct and within the period
    # by construction, so the pair algorithms are left to check eta
    slots = trace([0, 1, 1, 0, 1]).harvest_slots()
    assert list(slots) == sorted(set(slots)) and all(1 <= s <= 5 for s in slots)
    for algorithm in (offline_duty_cycle, brute_force_matching):
        for eta in (0.0, 1.5):
            with pytest.raises(ValueError, match=rf"^eta must lie in \(0, 1\], got {eta}$"):
                algorithm(trace([1, 0, 1]), trace([0, 1, 1], "v"), eta)


def test_matching_weight_examples():
    edges = (Edge(1, 1), Edge(6, 6), Edge(4, 3), Edge(8, 9))
    assert Matching(edges=edges).total_weight(eta=0.75) == 3.5
    assert Matching(edges=()).total_weight(eta=0.75) == 0.0
    sync_only = tuple(Edge(t, t) for t in range(1, 6))
    assert Matching(edges=sync_only).total_weight(eta=0.3) == 5.0


def test_matching_rejects_duplicate_vertex():
    with pytest.raises(ExclusivityError):
        Matching(edges=(Edge(1, 1), Edge(1, 2)))
    with pytest.raises(ExclusivityError):
        Matching(edges=(Edge(2, 5), Edge(3, 5))).total_weight(eta=0.75)


def test_matching_counts_and_sorting():
    m = Matching(edges=(Edge(4, 3), Edge(1, 1)))
    assert m.edges == (Edge(1, 1), Edge(4, 3))
    assert m.sync_count == 1 and m.async_count == 1


@given(st.lists(st.tuples(st.integers(1, 30), st.integers(1, 30)), unique=True, max_size=30))
def test_matching_sorts_in_edge_order(pairs):
    # vertex-exclusive subset: the first edge to claim each slot
    used_u, used_v, edges = set(), set(), []
    for u, v in pairs:
        if u not in used_u and v not in used_v:
            used_u.add(u)
            used_v.add(v)
            edges.append(Edge(u, v))
    assert Matching(edges=tuple(edges)).edges == tuple(sorted(edges))


@given(
    sync=st.integers(0, 3000),
    async_count=st.integers(0, 3000),
    eta=st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
)
def test_cat_from_counts_is_the_correctly_rounded_sum(sync, async_count, eta):
    weights = [1.0] * sync + [eta] * async_count
    assert cat_from_counts(sync, async_count, eta) == math.fsum(weights)


def test_schedule_from_matching_hand_evaluated():
    m = Matching(edges=(Edge(1, 1), Edge(4, 3)))
    sched = schedule_from_matching(m, period_len=5, eta=0.75)
    assert sched.cat == (1.0, 0.0, 0.0, 0.75, 0.0)
    assert sched.a_u == (1, 0, 0, 1, 0)
    assert sched.a_v == (1, 0, 0, 1, 0)


def test_schedule_empty_matching():
    sched = schedule_from_matching(Matching(edges=()), period_len=4, eta=0.75)
    assert sched.cat == (0.0,) * 4
    assert sched.a_u == (0,) * 4


def test_schedule_activates_at_later_endpoint():
    sched = schedule_from_matching(Matching(edges=(Edge(8, 9),)), period_len=9, eta=0.75)
    assert sched.a_u[8] == 1 and sched.a_v[8] == 1
    assert sched.cat[8] == 0.75
    assert sum(sched.a_u) == 1


def test_schedule_conflict_is_rejected():
    m = Matching(edges=(Edge(5, 3), Edge(1, 5)))  # both would activate at slot 5
    with pytest.raises(ScheduleConflictError, match="slot 5"):
        schedule_from_matching(m, period_len=6, eta=0.75)


def test_schedule_rejects_out_of_period_edge():
    with pytest.raises(ValueError, match="beyond"):
        schedule_from_matching(Matching(edges=(Edge(3, 9),)), period_len=5, eta=0.75)


def test_matching_json_round_trip():
    m = Matching(edges=(Edge(1, 1), Edge(8, 9)))
    edges = json.loads(json.dumps(PairResult(m, 0.75, 9).to_json_dict()))["edges"]
    assert edges == [
        {"u": 1, "v": 1, "kind": "sync"},
        {"u": 8, "v": 9, "kind": "async"},
    ]
    assert Matching(edges=tuple(Edge(e["u"], e["v"]) for e in edges)) == m


@st.composite
def trace_pairs(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    bits_u = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    bits_v = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    return trace(bits_u), trace(bits_v, "v")


@settings(max_examples=200)
@given(pair=trace_pairs(), eta=st.sampled_from([0.25, 0.5, 0.75, 1.0]))
def test_offline_schedule_cat_equals_matching_weight_exactly(pair, eta):
    trace_u, trace_v = pair
    result = offline_duty_cycle(trace_u, trace_v, eta)
    sched = result.schedule()
    assert math.fsum(sched.cat) == result.matching.total_weight(eta) == result.cat_total


@settings(max_examples=200)
@given(pair=trace_pairs())
def test_offline_schedule_is_energy_feasible(pair):
    trace_u, trace_v = pair
    result = offline_duty_cycle(trace_u, trace_v, 0.75)
    sched = result.schedule()
    assert_energy_feasible(sched, trace_u, trace_v)


def test_feasibility_catches_overspending():
    # active in slot 1 without any harvested energy
    sched = Schedule(period_len=2, a_u=(1, 0), a_v=(0, 0), cat=(0.0, 0.0))
    t_u = trace([0, 1])
    t_v = trace([0, 0], "v")
    with pytest.raises(FeasibilityError, match="device u"):
        assert_energy_feasible(sched, t_u, t_v)


def test_total_weight_uses_correctly_rounded_sum():
    # 10 asynchronous edges at eta = 0.1: fsum keeps the identity with the
    # correctly rounded sum of the schedule's per-slot CAT
    edges = tuple(Edge(2 * k, 2 * k + 1) for k in range(1, 11))
    m = Matching(edges=edges)
    sched = schedule_from_matching(m, period_len=25, eta=0.1)
    assert math.fsum(sched.cat) == m.total_weight(0.1)
    assert math.isclose(m.total_weight(0.1), 1.0, rel_tol=1e-12)
