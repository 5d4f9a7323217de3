import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dutycycle import (
    EnergyTrace,
    brute_force_matching,
    exact_expected_cat,
    expected_cat,
    offline_duty_cycle,
)
from dutycycle.harness import random_instance
from dutycycle.offline import duty_cycle_arrays, optimum_counts


def graph(set_a, set_b, eta=0.75, period=None):
    """The trace pair whose harvest slots are set_a and set_b, then eta."""
    slots = list(set_a) + list(set_b)
    period = period or (max(slots) if slots else 1)
    trace_u = EnergyTrace("u", [t in set_a for t in range(1, period + 1)])
    trace_v = EnergyTrace("v", [t in set_b for t in range(1, period + 1)])
    return trace_u, trace_v, eta


def test_worked_example_exact_edges():
    result = offline_duty_cycle(*graph([1, 4, 6, 8], [1, 3, 6, 9]))
    assert set(result.edges) == {(1, 1), (6, 6), (4, 3), (8, 9)}
    assert result.sync_count == 2 and result.async_count == 2
    assert result.cat_total == 3.5
    assert result.sat_total == 2.0


def test_full_overlap_gives_all_sync():
    k = 7
    result = offline_duty_cycle(*graph(range(1, k + 1), range(1, k + 1)))
    assert result.sync_count == k and result.async_count == 0
    assert result.cat_total == float(k)


def test_empty_graph_gives_empty_matching():
    result = offline_duty_cycle(*graph([], [], period=5))
    assert result.edges == ()
    assert result.cat_total == 0.0


def test_lone_vertex_matches_only_backward():
    # V's vertex at 2 can reach back to U's 1; the reverse instance cannot
    fwd = offline_duty_cycle(*graph([1], [2]))
    assert fwd.edges == ((1, 2),)
    rev = offline_duty_cycle(*graph([2], [1]))
    assert rev.edges == ((2, 1),)
    stranded = offline_duty_cycle(*graph([1], [], period=2))
    assert stranded.edges == ()


def test_nearest_backward_skips_matched_vertexes():
    # u=4 takes v=3; v=9 must then settle for u=8 even though u=6 is nearer
    result = offline_duty_cycle(*graph([4, 6, 8], [3, 6, 9]))
    assert (4, 3) in result.edges
    assert (6, 6) in result.edges
    assert (8, 9) in result.edges


def test_expected_cat_formula_values():
    assert expected_cat(1000, 0.5, 0.75) == 625.0
    assert expected_cat(500, 0.0, 0.9) == 0.0
    assert expected_cat(1000, 1.0, 0.75) == 1000.0
    assert expected_cat(1000, 0.2, 0.75) == pytest.approx(280.0)
    assert expected_cat(1000, 0.8, 0.75) == pytest.approx(880.0)


def test_expected_cat_validation():
    with pytest.raises(ValueError):
        expected_cat(10, 1.2, 0.75)
    with pytest.raises(ValueError):
        expected_cat(10, 0.5, 0.0)


def test_exact_expected_cat_matches_oracle_enumeration():
    # weight the oracle optimum of every trace pair by its probability
    eta = 0.75
    for period in range(1, 7):
        slot_sets = [
            subset
            for size in range(period + 1)
            for subset in itertools.combinations(range(1, period + 1), size)
        ]
        optima = [
            (len(a) + len(b), brute_force_matching(*graph(a, b, eta, period)).cat_total)
            for a, b in itertools.product(slot_sets, repeat=2)
        ]
        for p in (0.0, 0.3, 0.5, 1.0):
            enumerated = math.fsum(
                p**k * (1.0 - p) ** (2 * period - k) * best for k, best in optima
            )
            assert abs(exact_expected_cat(period, p, eta) - enumerated) <= 1e-12, (period, p)


def test_exact_expected_cat_matches_multinomial_sum():
    # the O(T) conditional form against the direct double sum over (X, Y)
    period, eta = 60, 0.75
    for p in (0.2, 0.5, 0.8):
        q = p * (1.0 - p)
        e_min = math.fsum(
            math.comb(period, x)
            * math.comb(period - x, y)
            * q ** (x + y)
            * (1.0 - 2.0 * q) ** (period - x - y)
            * min(x, y)
            for x in range(period + 1)
            for y in range(period - x + 1)
        )
        direct = period * p * p + eta * e_min
        assert exact_expected_cat(period, p, eta) == pytest.approx(direct, rel=1e-12)


def test_exact_expected_cat_validation():
    with pytest.raises(ValueError):
        exact_expected_cat(10, 1.2, 0.75)
    with pytest.raises(ValueError):
        exact_expected_cat(10, 0.5, 0.0)
    assert exact_expected_cat(0, 0.5, 0.75) == 0.0


def test_matches_oracle_on_random_instances():
    for i in range(150):
        trace_u, trace_v = random_instance(seed=5, index=i, period_len=10, p=0.5)
        off = offline_duty_cycle(trace_u, trace_v, 0.75)
        ora = brute_force_matching(trace_u, trace_v, 0.75)
        assert (off.sync_count, off.async_count) == (
            ora.sync_count,
            ora.async_count,
        ), f"instance {i}: {trace_u.harvest_slots()} {trace_v.harvest_slots()}"


@st.composite
def slot_sets(draw):
    period = draw(st.integers(min_value=1, max_value=24))
    set_a = draw(st.sets(st.integers(1, period), max_size=period))
    set_b = draw(st.sets(st.integers(1, period), max_size=period))
    return sorted(set_a), sorted(set_b), period


@settings(max_examples=300)
@given(sets=slot_sets(), eta=st.sampled_from([0.3, 0.75, 1.0]))
def test_adding_a_harvest_slot_never_decreases_cat(sets, eta):
    set_a, set_b, period = sets
    base = offline_duty_cycle(*graph(set_a, set_b, eta=eta, period=period)).cat_total
    missing = [t for t in range(1, period + 1) if t not in set_a]
    if missing:
        grown = sorted(set_a + missing[:1])
        bigger = offline_duty_cycle(*graph(grown, set_b, eta=eta, period=period)).cat_total
        assert bigger >= base - 1e-12


@settings(max_examples=200)
@given(sets=slot_sets())
def test_exclusivity_and_result_invariants(sets):
    set_a, set_b, period = sets
    result = offline_duty_cycle(*graph(set_a, set_b, period=period))
    # PairResult construction enforces exclusivity; re-check the totals
    assert result.cat_total == pytest.approx(result.sync_count + 0.75 * result.async_count)
    assert result.sat_total == result.sync_count
    assert result.sat_total <= result.cat_total + 1e-12
    used_u = [u for u, _ in result.edges]
    used_v = [v for _, v in result.edges]
    assert len(used_u) == len(set(used_u))
    assert len(used_v) == len(set(used_v))
    b_u = np.zeros(period, dtype=bool)
    b_v = np.zeros(period, dtype=bool)
    b_u[[t - 1 for t in set_a]] = True
    b_v[[t - 1 for t in set_b]] = True
    assert optimum_counts(np.packbits(b_u), np.packbits(b_v)) == (
        result.sync_count,
        result.async_count,
    )


def test_optimum_counts_rows_match_greedy():
    # the n-trial form, row by row against the greedy's edge lists
    rng = np.random.Generator(np.random.Philox(20153))
    for p in (0.0, 0.2, 0.5, 0.8, 1.0):
        b_u = rng.random((100, 1000)) < p
        b_v = rng.random((100, 1000)) < p
        sync, asyn = optimum_counts(np.packbits(b_u, axis=-1), np.packbits(b_v, axis=-1))
        assert sync.shape == asyn.shape == (100,)
        for i in range(100):
            edges = duty_cycle_arrays(b_u[i], b_v[i])
            step2 = [(u, v) for u, v in edges if u > v]
            step3 = [(u, v) for u, v in edges if u < v]
            n_sync = sum(u == v for u, v in edges)
            assert (sync[i], asyn[i]) == (n_sync, len(step2) + len(step3)), (p, i)


@pytest.mark.parametrize("period_len", [0, 1, 7, 8, 9, 1000])
def test_optimum_counts_equal_plain_counts_on_packed_rows(period_len):
    # the counts are taken on np.packbits rows; against count_nonzero on
    # the bool masks, for one pair (scalars) and for rows of trials
    rng = np.random.default_rng(period_len)
    b_u, b_v = rng.random((2, 6, period_len)) < np.array([0.0, 0.2, 0.5, 0.8, 1.0, 0.5])[:, None]
    sync = np.count_nonzero(b_u & b_v, axis=-1)
    asyn = np.minimum(np.count_nonzero(b_u, axis=-1), np.count_nonzero(b_v, axis=-1)) - sync
    packed_u, packed_v = np.packbits(b_u, axis=-1), np.packbits(b_v, axis=-1)
    rows = optimum_counts(packed_u, packed_v)
    assert [c.shape for c in rows] == [(6,), (6,)]
    assert [c.tolist() for c in rows] == [sync.tolist(), asyn.tolist()]
    for i in range(6):
        one = optimum_counts(packed_u[i], packed_v[i])
        assert [np.ndim(c) for c in one] == [0, 0]
        assert one == (sync[i], asyn[i])


def test_json_payload_shape():
    payload = offline_duty_cycle(*graph([1, 4, 6, 8], [1, 3, 6, 9])).to_json_dict()
    assert payload["sync"] == 2 and payload["async"] == 2
    assert payload["cat"] == 3.5 and payload["sat"] == 2.0
    assert {"u": 1, "v": 1, "kind": "sync"} in payload["edges"]


def _pair_backward(searchers, targets):
    """Reference: the two-call backward search the greedy was first written
    with. Each searcher (ascending) takes the nearest unmatched target strictly
    below it; returns (pairs, unmatched searchers, unmatched targets)."""
    pairs, unmatched, stack = [], [], []
    ti = 0
    for s in searchers:
        while ti < len(targets) and targets[ti] < s:
            stack.append(targets[ti])
            ti += 1
        if stack:
            pairs.append((s, stack.pop()))
        else:
            unmatched.append(s)
    return pairs, unmatched, stack + targets[ti:]


def _reference_edges(slots_u, slots_v):
    sync = [(t, t) for t in slots_u if t in slots_v]
    step2, u_left, v_left = _pair_backward(
        [t for t in slots_u if t not in slots_v], [t for t in slots_v if t not in slots_u]
    )
    step3, _, _ = _pair_backward(v_left, u_left)
    return tuple(sorted(sync + step2 + [(u, v) for v, u in step3]))


def test_edges_match_two_pass_reference_on_every_period_7_pair():
    period = 7
    traces = [
        EnergyTrace("u", [(mask >> i) & 1 for i in range(period)]) for mask in range(2**period)
    ]
    slots = [t.harvest_slots() for t in traces]
    for su, tu in zip(slots, traces):
        for sv, tv in zip(slots, traces):
            assert offline_duty_cycle(tu, tv, 0.75).edges == _reference_edges(su, sv), (su, sv)


@settings(max_examples=100)
@given(
    period=st.integers(min_value=1, max_value=300),
    p_u=st.floats(min_value=0.0, max_value=1.0),
    p_v=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_edges_match_two_pass_reference_on_random_pairs(period, p_u, p_v, seed):
    rng = np.random.Generator(np.random.Philox(seed))
    trace_u = EnergyTrace("u", rng.random(period) < p_u)
    trace_v = EnergyTrace("v", rng.random(period) < p_v)
    expected = _reference_edges(trace_u.harvest_slots(), trace_v.harvest_slots())
    assert offline_duty_cycle(trace_u, trace_v, 0.75).edges == expected
