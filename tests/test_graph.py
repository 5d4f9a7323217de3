import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dutycycle import (
    EnergyTrace,
    ExclusivityError,
    FeasibilityError,
    PairResult,
    Schedule,
    ScheduleConflictError,
    assert_energy_feasible,
    brute_force_matching,
    offline_duty_cycle,
)
from dutycycle.graph import cat_from_counts, lifo_walk


def trace(states, device_id="u"):
    return EnergyTrace(device_id=device_id, states=states)


def test_edge_properties():
    # an edge is a plain (u_slot, v_slot) pair: its kind shows in the JSON
    # dict and its active slot, the later endpoint, in the schedule
    sync = PairResult(((3, 3),), 0.75, 9)
    assert sync.to_json_dict()["edges"][0]["kind"] == "sync"
    assert sync.schedule().a_u.index(1) + 1 == 3
    assert sync.cat_total == 1.0
    asyn = PairResult(((8, 9),), 0.75, 9)
    assert asyn.to_json_dict()["edges"][0]["kind"] == "async"
    assert asyn.schedule().a_u.index(1) + 1 == 9
    assert asyn.cat_total == 0.75
    for bad in ((0, 1), (1, 0)):
        with pytest.raises(ValueError, match="1-based"):
            PairResult((bad,), 0.75, 9)


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
    for algorithm in (
        offline_duty_cycle,
        brute_force_matching,
        lambda u, v, eta: PairResult(((1, 2),), eta, 3),  # the result type itself
    ):
        for eta in (0.0, 1.5):
            with pytest.raises(ValueError, match=rf"^eta must lie in \(0, 1\], got {eta}$"):
                algorithm(trace([1, 0, 1]), trace([0, 1, 1], "v"), eta)


def test_matching_weight_examples():
    edges = ((1, 1), (6, 6), (4, 3), (8, 9))
    assert PairResult(edges, 0.75, 9).cat_total == 3.5
    assert PairResult((), 0.75, 9).cat_total == 0.0
    sync_only = tuple((t, t) for t in range(1, 6))
    assert PairResult(sync_only, 0.3, 5).cat_total == 5.0


def test_matching_rejects_duplicate_vertex():
    with pytest.raises(ExclusivityError, match="^U-vertex at slot 1 used by more than one edge$"):
        PairResult(((1, 1), (1, 2)), 0.75, 5)
    with pytest.raises(ExclusivityError, match="^V-vertex at slot 5 used by more than one edge$"):
        PairResult(((2, 5), (3, 5)), 0.75, 5)


def test_matching_counts_and_sorting():
    m = PairResult(((4, 3), (1, 1)), 0.75, 4)
    assert m.edges == ((1, 1), (4, 3))
    assert m.sync_count == 1 and m.async_count == 1


@given(st.lists(st.tuples(st.integers(1, 30), st.integers(1, 30)), unique=True, max_size=30))
def test_matching_sorts_in_edge_order(pairs):
    # vertex-exclusive subset: the first edge to claim each slot
    used_u, used_v, edges = set(), set(), []
    for u, v in pairs:
        if u not in used_u and v not in used_v:
            used_u.add(u)
            used_v.add(v)
            edges.append((u, v))
    assert PairResult(tuple(edges), 0.75, 30).edges == tuple(sorted(edges))


@given(
    sync=st.integers(0, 3000),
    async_count=st.integers(0, 3000),
    eta=st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
)
def test_cat_from_counts_is_the_correctly_rounded_sum(sync, async_count, eta):
    weights = [1.0] * sync + [eta] * async_count
    assert cat_from_counts(sync, async_count, eta) == math.fsum(weights)


def test_schedule_from_matching_hand_evaluated():
    sched = PairResult(((1, 1), (4, 3)), 0.75, 5).schedule()
    assert sched.cat == (1.0, 0.0, 0.0, 0.75, 0.0)
    assert sched.a_u == (1, 0, 0, 1, 0)
    assert sched.a_v == (1, 0, 0, 1, 0)


def test_schedule_empty_matching():
    sched = PairResult((), 0.75, 4).schedule()
    assert sched.cat == (0.0,) * 4
    assert sched.a_u == (0,) * 4


def test_schedule_activates_at_later_endpoint():
    sched = PairResult(((8, 9),), 0.75, 9).schedule()
    assert sched.a_u[8] == 1 and sched.a_v[8] == 1
    assert sched.cat[8] == 0.75
    assert sum(sched.a_u) == 1


def test_schedule_conflict_is_rejected():
    m = PairResult(((5, 3), (1, 5)), 0.75, 6)  # both would activate at slot 5
    with pytest.raises(ScheduleConflictError, match="slot 5"):
        m.schedule()


def test_schedule_rejects_out_of_period_edge():
    with pytest.raises(ValueError, match="beyond"):
        PairResult(((3, 9),), 0.75, 5).schedule()


def test_matching_json_round_trip():
    m = PairResult(((1, 1), (8, 9)), 0.75, 9)
    edges = json.loads(json.dumps(m.to_json_dict()))["edges"]
    assert edges == [
        {"u": 1, "v": 1, "kind": "sync"},
        {"u": 8, "v": 9, "kind": "async"},
    ]
    assert PairResult(tuple((e["u"], e["v"]) for e in edges), 0.75, 9) == m


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
    assert math.fsum(sched.cat) == result.cat_total


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
    edges = tuple((2 * k, 2 * k + 1) for k in range(1, 11))
    m = PairResult(edges, 0.1, 25)
    sched = m.schedule()
    assert math.fsum(sched.cat) == m.cat_total
    assert math.isclose(m.cat_total, 1.0, rel_tol=1e-12)


def test_lifo_walk_by_hand():
    # slot 4: both banks are read as they stood before the slot, so both
    # devices pair and neither banks; slot 5: v's bank was empty, so u banks
    # instead of taking v's fresh unit; slots 6-8 want without banking
    masks = {
        "dep_u": [1, 1, 0, 1, 1, 0, 0, 0],
        "dep_v": [0, 0, 1, 1, 1, 0, 0, 0],
        "want_u": [0, 0, 0, 1, 1, 1, 0, 1],
        "want_v": [0, 0, 0, 1, 0, 0, 1, 0],
    }
    edges, bank_u, bank_v = lifo_walk(**{k: np.array(v, bool) for k, v in masks.items()})
    assert edges == [(4, 3), (2, 4), (6, 5), (5, 7)]
    assert (bank_u, bank_v) == ([1], [])
    empty = np.zeros(0, bool)
    assert lifo_walk(empty, empty, empty, empty) == ([], [], [])
