import itertools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dutycycle
from dutycycle import (
    EnergyTrace,
    OracleBudgetError,
    brute_force_matching,
    offline_duty_cycle,
)
from dutycycle import oracle
from dutycycle.graph import cat_from_counts
from dutycycle.oracle import schedule_counts
from dutycycle.offline import optimum_counts


def graph(set_a, set_b, eta=0.75, period=None):
    """The trace pair whose harvest slots are set_a and set_b, then eta."""
    slots = list(set_a) + list(set_b)
    period = period or (max(slots) if slots else 1)
    trace_u = EnergyTrace("u", [t in set_a for t in range(1, period + 1)])
    trace_v = EnergyTrace("v", [t in set_b for t in range(1, period + 1)])
    return trace_u, trace_v, eta


def closed_form_cat(trace_u, trace_v, eta):
    """The optimum's CAT from its closed-form edge counts."""
    packed = np.packbits(trace_u.states), np.packbits(trace_v.states)
    return cat_from_counts(*optimum_counts(*packed), eta)


def test_worked_example():
    result = brute_force_matching(*graph([1, 4, 6, 8], [1, 3, 6, 9]))
    assert result.cat_total == 3.5
    assert result.sync_count == 2
    assert result.async_count == 2


def test_disjoint_singletons():
    result = brute_force_matching(*graph([1], [2], eta=0.6))
    assert result.cat_total == 0.6
    assert result.async_count == 1


def test_empty_sets():
    result = brute_force_matching(*graph([], [], period=3))
    assert result.cat_total == 0.0
    assert result.edges == ()


def test_budget_refusal():
    big = list(range(1, 14))
    with pytest.raises(OracleBudgetError):
        brute_force_matching(*graph(big, [1], period=13))
    with pytest.raises(OracleBudgetError):
        brute_force_matching(*graph([1], big, period=13))


def test_exotic_eta_is_rejected():
    with pytest.raises(ValueError, match="ratio"):
        brute_force_matching(*graph([1], [2], eta=0.123456789123))


def test_sync_preferred_on_weight_ties():
    # at eta = 1 the sync edge (2,2) and the async edge (2,1) tie on weight;
    # the sync-count tie-break must pick the synchronous one
    result = brute_force_matching(*graph([2], [1, 2], eta=1.0))
    assert result.cat_total == 1.0
    assert result.sync_count == 1
    assert result.async_count == 0


def test_closed_form_examples():
    # (sync, U-only, V-only) = (2, 2, 2), (9, 0, 0) and (0, 3, 1)
    assert closed_form_cat(*graph([1, 2, 3, 5], [1, 2, 4, 6], eta=0.75)) == 3.5
    assert closed_form_cat(*graph(range(1, 10), range(1, 10), eta=0.4)) == 9.0
    assert closed_form_cat(*graph([1, 2, 3], [4], eta=0.5)) == 0.5


@st.composite
def small_instances(draw):
    period = draw(st.integers(min_value=1, max_value=10))
    set_a = draw(st.sets(st.integers(1, period), max_size=8))
    set_b = draw(st.sets(st.integers(1, period), max_size=8))
    eta = draw(st.sampled_from([0.25, 0.5, 0.75, 1.0]))
    return sorted(set_a), sorted(set_b), eta, period


@settings(max_examples=200, deadline=None)
@given(inst=small_instances())
def test_oracle_dominates_offline_and_closed_form_bounds_it(inst):
    set_a, set_b, eta, period = inst
    g = graph(set_a, set_b, eta=eta, period=period)
    off = offline_duty_cycle(*g)
    ora = brute_force_matching(*g)
    bound = closed_form_cat(*g)
    assert ora.cat_total >= off.cat_total - 1e-9
    assert bound >= ora.cat_total - 1e-9
    assert ora.cat_total == pytest.approx(bound)


@settings(max_examples=200, deadline=None)
@given(inst=small_instances())
def test_witness_is_a_valid_optimal_matching(inst):
    set_a, set_b, eta, period = inst
    g = graph(set_a, set_b, eta=eta, period=period)
    ora = brute_force_matching(*g)
    # PairResult construction has already enforced exclusivity; check the
    # totals against the edges and membership of every endpoint
    assert ora.cat_total == math.fsum(1.0 if u == v else eta for u, v in ora.edges)
    assert ora.sync_count == sum(u == v for u, v in ora.edges)
    assert ora.async_count == len(ora.edges) - ora.sync_count
    for u, v in ora.edges:
        assert u in set_a and v in set_b


@settings(max_examples=150, deadline=None)
@given(inst=small_instances())
def test_witness_is_schedulable(inst):
    # the sync-count tie-break keeps the witness free of active-slot clashes
    set_a, set_b, eta, period = inst
    ora = brute_force_matching(*graph(set_a, set_b, eta=eta, period=period))
    ora.schedule()


def literal_optima(set_a, set_b, eta):
    """Every vertex-exclusive matching, listed with itertools; the best ones.

    Scores are (exact weight, sync count), eta read as the decimal it is
    written as. Returns the best score and the edge sets that reach it.
    """
    eta_exact = Fraction(str(eta))
    best, argbest = None, []
    for k in range(min(len(set_a), len(set_b)) + 1):
        for us in itertools.combinations(set_a, k):
            for vs in itertools.permutations(set_b, k):
                edges = frozenset(zip(us, vs))
                n_sync = sum(u == v for u, v in edges)
                score = (n_sync + eta_exact * (k - n_sync), n_sync)
                if best is None or score > best:
                    best, argbest = score, [edges]
                elif score == best:
                    argbest.append(edges)
    return best, argbest


@st.composite
def tiny_instances(draw):
    period = draw(st.integers(min_value=1, max_value=7))
    set_a = draw(st.sets(st.integers(1, period), max_size=5))
    set_b = draw(st.sets(st.integers(1, period), max_size=5))
    eta = draw(st.sampled_from([0.5, 0.6, 0.75, 1.0]))
    return sorted(set_a), sorted(set_b), eta, period


@settings(max_examples=400, deadline=None)
@given(inst=tiny_instances())
def test_oracle_equals_literal_enumeration(inst):
    set_a, set_b, eta, period = inst
    ora = brute_force_matching(*graph(set_a, set_b, eta=eta, period=period))
    (weight, n_sync), maximizers = literal_optima(set_a, set_b, eta)
    assert ora.sync_count == n_sync
    assert ora.async_count == (weight - n_sync) / Fraction(str(eta))
    assert ora.cat_total == pytest.approx(float(weight), abs=1e-12)
    assert frozenset(ora.edges) in maximizers


def test_literal_enumeration_prefers_sync_on_weight_ties():
    # at eta = 1 all 24 perfect matchings of four slots weigh 4; only the
    # identity has four synchronous edges
    (weight, n_sync), maximizers = literal_optima([1, 2, 3, 4], [1, 2, 3, 4], 1.0)
    assert (weight, n_sync) == (4, 4)
    assert maximizers == [frozenset((t, t) for t in range(1, 5))]
    ora = brute_force_matching(*graph([1, 2, 3, 4], [1, 2, 3, 4], eta=1.0))
    assert (ora.sync_count, ora.async_count) == (4, 0)


def test_oracle_at_the_size_cap():
    full = list(range(1, 13))
    both = brute_force_matching(*graph(full, full, period=12))
    assert (both.sync_count, both.async_count) == (12, 0)
    assert both.cat_total == 12.0

    shifted = brute_force_matching(*graph(full, list(range(2, 14)), eta=0.75, period=13))
    assert (shifted.sync_count, shifted.async_count) == (11, 1)
    assert shifted.cat_total == 11.75
    assert (1, 13) in shifted.edges

    rng = random.Random(12)
    set_a = sorted(rng.sample(range(1, 25), 12))
    set_b = sorted(rng.sample(range(1, 25), 11))
    g = graph(set_a, set_b, eta=0.6, period=24)
    ora = brute_force_matching(*g)
    n_sync = len(set(set_a) & set(set_b))
    assert ora.sync_count == n_sync
    assert optimum_counts(np.packbits(g[0].states), np.packbits(g[1].states)) == (
        n_sync,
        11 - n_sync,
    )
    assert ora.cat_total == pytest.approx(closed_form_cat(*g))
    assert math.fsum(ora.schedule().cat) == ora.cat_total

    thirteen = list(range(1, 14))
    with pytest.raises(OracleBudgetError):
        brute_force_matching(*graph(thirteen, thirteen, period=13))


def assert_mirror(set_a, set_b, eta, period):
    """Swapping the traces mirrors the oracle's witness and keeps its totals."""
    fwd = brute_force_matching(*graph(set_a, set_b, eta=eta, period=period))
    back = brute_force_matching(*graph(set_b, set_a, eta=eta, period=period))
    assert back.edges == tuple(sorted((v, u) for u, v in fwd.edges))
    assert (back.sync_count, back.async_count) == (fwd.sync_count, fwd.async_count)
    assert back.cat_total == fwd.cat_total


@st.composite
def instances_to_the_cap(draw):
    period = draw(st.integers(min_value=1, max_value=16))
    set_a = draw(st.sets(st.integers(1, period), max_size=12))
    set_b = draw(st.sets(st.integers(1, period), max_size=12))
    eta = draw(st.sampled_from([0.25, 0.5, 0.75, 1.0]))
    return sorted(set_a), sorted(set_b), eta, period


@settings(max_examples=200, deadline=None)
@given(inst=instances_to_the_cap())
def test_swapping_the_traces_mirrors_the_witness(inst):
    assert_mirror(*inst)


def test_swapping_the_traces_mirrors_the_witness_at_the_cap():
    # each call runs both orientations: 12x11 and 11x12, then 12x12 shifted
    rng = random.Random(12)
    set_a = sorted(rng.sample(range(1, 25), 12))
    set_b = sorted(rng.sample(range(1, 25), 11))
    assert_mirror(set_a, set_b, 0.6, 24)
    assert_mirror(list(range(1, 13)), list(range(2, 14)), 0.75, 13)


@pytest.mark.parametrize(
    "set_a, set_b, witness",
    [
        ([1, 2], [3, 4], ((1, 4), (2, 3))),  # the last U-vertex takes its lowest V partner
        ([1, 2], [3], ((1, 3),)),  # the last U-vertex is left unmatched
        ([3], [1, 2], ((3, 1),)),  # the lowest final V mask
    ],
)
def test_witness_tie_rule_by_hand(set_a, set_b, witness):
    # each instance has two optimal matchings of async edges only; the
    # documented rule picks this one, and its mirror when the traces swap
    assert brute_force_matching(*graph(set_a, set_b, eta=0.5)).edges == witness
    assert_mirror(set_a, set_b, 0.5, 4)


ODDS = [1, 3, 5, 7, 9]


@pytest.mark.parametrize(
    "set_a, set_b, eta, period",
    [
        ([], [1, 2, 3], 0.75, 3),  # no layer
        ([1, 2, 3], [], 0.75, 3),  # no V-vertex: every layer leaves u unmatched
        ([], [], 0.75, 3),
        ([2], [1, 2, 3], 0.75, 3),  # the last U-vertex takes its partner
        ([4], [1, 2, 3], 0.75, 4),  # ... has none and goes async
        ([1, 2, 3], [1, 2, 4], 0.75, 4),  # full V mask, the last one async
        ([1, 2, 3], [1, 2, 3], 0.6, 3),  # full V mask, the last one sync
        ([1, 4, 5], [2, 3], 0.5, 5),
        ([2], [1, 2], 1.0, 2),  # sync wins the weight tie
        ([1, 2], [2, 3], 1.0, 3),  # two async edges tie one sync and one async
        ([1, 2], [2, 3], 0.001, 3),
        ([1, 2, 3, 4, 5], [1, 2, 3, 4, 5], 0.001, 5),
        (list(range(1, 13)), ODDS, 0.75, 12),  # full V mask, the last one unmatched
        (list(range(1, 13)), ODDS[:4] + [12], 0.75, 12),  # ... takes its partner
        (ODDS, list(range(1, 13)), 1.0, 12),  # 5 layers over 12-bit masks, each one sync
        (list(range(2, 14)), ODDS, 0.001, 13),  # every edge but one async
    ],
    ids=["na-0", "na-0-swapped", "nb-0", "na-1-partner", "na-1-no-partner",
         "full-mask-async", "full-mask-sync", "na-lt-nb", "eta-1-tie", "eta-1-pairs",
         "eta-0.001", "eta-0.001-5x5", "na-gt-nb-unmatched", "na-gt-nb-partner",
         "na-gt-nb-swapped", "na-gt-nb-eta-0.001"],
)
def test_counts_last_layer_edge_cases(set_a, set_b, eta, period):
    # empty sides, full final masks and weight ties; each witness's totals
    # against the literal enumeration up to 5x5, else the closed form
    g = graph(set_a, set_b, eta=eta, period=period)
    ora = brute_force_matching(*g)
    if max(len(set_a), len(set_b)) <= 5:
        (weight, n_sync), maximizers = literal_optima(set_a, set_b, eta)
        assert (ora.sync_count, ora.async_count) == (n_sync, (weight - n_sync) / Fraction(str(eta)))
        assert frozenset(ora.edges) in maximizers
    else:
        packed = np.packbits(g[0].states), np.packbits(g[1].states)
        assert (ora.sync_count, ora.async_count) == optimum_counts(*packed)


THIRTEEN = list(range(1, 14))


SMALL_RATIO = "is not representable as a small ratio; the oracle needs exact integer weights"


@pytest.mark.parametrize(
    "args, error, message",
    [
        (graph(THIRTEEN, [1], period=13), OracleBudgetError,
         "instance has 13x1 vertexes; exhaustive search is capped at 12x12"),
        (graph([1], THIRTEEN, period=13), OracleBudgetError,
         "instance has 1x13 vertexes; exhaustive search is capped at 12x12"),
        (graph([1], [2], eta=0.123456789123), ValueError,
         f"eta 0.123456789123 {SMALL_RATIO} for tie-breaking"),
        (graph([1], [2], eta=0.0), ValueError, "eta must lie in (0, 1], got 0.0"),
        (graph([1, 3], [2], eta=1e-10), ValueError, f"eta 1e-10 {SMALL_RATIO} for tie-breaking"),
        (graph([1], [2], eta=1.5), ValueError, "eta must lie in (0, 1], got 1.5"),
        (graph([1], [2], eta=float("nan")), ValueError, "eta must lie in (0, 1], got nan"),
        ((EnergyTrace("u", [True] * 3), EnergyTrace("v", [True] * 4), 0.75), ValueError,
         "traces disagree on period length: 3 vs 4"),
    ],
    ids=["13-on-u", "13-on-v", "exotic-eta", "eta-0", "eta-1e-10", "eta-above-1", "eta-nan",
         "period-mismatch"],
)
def test_counts_raise_what_the_witness_search_raises(args, error, message):
    with pytest.raises(error) as raised:
        brute_force_matching(*args)
    assert type(raised.value) is error
    assert str(raised.value) == message


def test_import_builds_no_oracle_table_and_the_built_ones_are_read_only():
    # a fresh interpreter: this one has run the oracle already. The tables
    # are built on first use, so importing the package stays cheap, and
    # shard threads share them, so none may be written.
    probe = """
import dutycycle, dutycycle.cli
from dutycycle import EnergyTrace, brute_force_matching, oracle
assert oracle._predecessors.cache_info().currsize == 0, oracle._predecessors.cache_info()
for n in range(oracle.ORACLE_MAX_VERTEXES + 1):
    brute_force_matching(EnergyTrace("u", [True] * n), EnergyTrace("v", [True] * n), 0.75)
assert oracle._predecessors.cache_info().currsize == oracle.ORACLE_MAX_VERTEXES + 1
for n in range(oracle.ORACLE_MAX_VERTEXES + 1):
    assert not oracle._predecessors(n).flags.writeable, n
"""
    src = os.path.dirname(os.path.dirname(os.path.abspath(dutycycle.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert done.returncode == 0, done.stderr


# ---------------------------------------------------------------------------
# schedule_counts: the DP over (slot, bank_u, bank_v)
# ---------------------------------------------------------------------------


def literal_schedule_outcomes(arrivals_u, arrivals_v):
    """Every (sync, async) count some schedule of the model reaches, found by
    trying every action in every slot and keeping the feasible plans.

    A slot banks every fresh unit, scores a joint harvest, or spends one
    side's fresh unit with a banked unit of the other, banking the other
    side's fresh unit if it has one.
    """
    outcomes = set()
    actions = ("bank", "joint", "u spends", "v spends")
    for plan in itertools.product(actions, repeat=len(arrivals_u)):
        bank_u = bank_v = n_sync = n_async = 0
        for fresh_u, fresh_v, action in zip(arrivals_u, arrivals_v, plan):
            if action == "bank":
                bank_u, bank_v = bank_u + fresh_u, bank_v + fresh_v
            elif action == "joint" and fresh_u and fresh_v:
                n_sync += 1
            elif action == "u spends" and fresh_u and bank_v:
                bank_v, n_async = bank_v - 1 + fresh_v, n_async + 1
            elif action == "v spends" and fresh_v and bank_u:
                bank_u, n_async = bank_u - 1 + fresh_u, n_async + 1
            else:
                break  # the action needs a unit the slot does not have
        else:
            outcomes.add((n_sync, n_async))
    return outcomes


@pytest.mark.parametrize("cells", [oracle._SCHEDULE_CELLS, 40])
def test_schedule_counts_equal_a_literal_enumeration_of_every_schedule(monkeypatch, cells):
    # every arrival pair at T = 1..4, 340 in all, at four exact etas; 40
    # cells split the rows into passes of one to four rows
    monkeypatch.setattr(oracle, "_SCHEDULE_CELLS", cells)
    etas = (Fraction(3, 4), Fraction(3, 5), Fraction(1), Fraction(1, 20))
    for period in range(1, 5):
        rows = list(itertools.product((False, True), repeat=period))
        pairs = list(itertools.product(rows, rows))
        outcomes = [literal_schedule_outcomes(u, v) for u, v in pairs]
        b_u, b_v = (np.array([pair[side] for pair in pairs]) for side in (0, 1))
        for eta in etas:
            best = [max(found, key=lambda c: (c[0] + eta * c[1], c[0])) for found in outcomes]
            assert schedule_counts(b_u, b_v, float(eta)).T.tolist() == [list(c) for c in best]


def test_schedule_counts_examples():
    rows = [
        ([1, 0], [0, 1], (0, 1)),  # v's fresh unit spends u's banked one
        ([0, 1], [1, 0], (0, 1)),  # u's fresh unit spends v's banked one
        ([0, 1], [1, 1], (1, 0)),  # the joint harvest beats spending v's bank
        ([1, 1, 0], [0, 0, 1], (0, 1)),  # one pair per slot, the other unit wasted
        ([1, 0, 0, 1], [0, 1, 1, 0], (0, 2)),
        ([0, 0, 0], [1, 1, 1], (0, 0)),
    ]
    for arrivals_u, arrivals_v, want in rows:
        got = schedule_counts(np.array([arrivals_u], bool), np.array([arrivals_v], bool), 0.75)
        assert tuple(got[:, 0]) == want, (arrivals_u, arrivals_v)


@pytest.mark.parametrize("eta, error", [(0.0, "eta must lie in"), (1.5, "eta must lie in"),
                                        (math.pi / 4, "not representable")])
def test_schedule_counts_refuse_what_the_matching_oracle_refuses(eta, error):
    with pytest.raises(ValueError, match=error):
        schedule_counts(np.ones((1, 3), bool), np.ones((1, 3), bool), eta)


@pytest.mark.parametrize(
    "shape_u, shape_v",
    [((3, 5), (5,)), ((3, 5), (1, 5)), ((1, 5), (3, 5)), ((5,), (5,)), ((2, 5), (2, 4))],
)
def test_schedule_counts_refuse_rows_of_different_shapes(shape_u, shape_v):
    # numpy would broadcast one V row against every U row, or fail unpacking a 1-D pair
    with pytest.raises(ValueError, match="2-D of one shape") as raised:
        schedule_counts(np.ones(shape_u, bool), np.ones(shape_v, bool), 0.75)
    assert f"got {shape_u} and {shape_v}" in str(raised.value)
