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
    brute_force_counts,
    brute_force_matching,
    offline_duty_cycle,
)
from dutycycle.graph import cat_from_counts
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


def assert_counts(witness, set_a, set_b, eta, period):
    """brute_force_counts gives the witness's totals, as plain ints."""
    counts = brute_force_counts(*graph(set_a, set_b, eta=eta, period=period))
    assert counts == (witness.sync_count, witness.async_count)
    assert [type(n) for n in counts] == [int, int]


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
    assert_counts(ora, set_a, set_b, eta, period)


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
    assert_counts(both, full, full, 0.75, 12)

    shifted = brute_force_matching(*graph(full, list(range(2, 14)), eta=0.75, period=13))
    assert (shifted.sync_count, shifted.async_count) == (11, 1)
    assert shifted.cat_total == 11.75
    assert (1, 13) in shifted.edges
    assert_counts(shifted, full, list(range(2, 14)), 0.75, 13)

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
    assert_counts(ora, set_a, set_b, 0.6, 24)

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
    assert_counts(fwd, set_a, set_b, eta, period)
    assert_counts(back, set_b, set_a, eta, period)


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


def test_counts_equal_the_witness_on_every_period_5_pair():
    # 1,024 pairs at four etas: both orientations of the DP, every shape up to 5x5
    slots = range(1, 6)
    for eta in (0.5, 0.6, 0.75, 1.0):
        for bits_a, bits_b in itertools.product(itertools.product((0, 1), repeat=5), repeat=2):
            set_a = [t for t, bit in zip(slots, bits_a) if bit]
            set_b = [t for t, bit in zip(slots, bits_b) if bit]
            g = graph(set_a, set_b, eta=eta, period=5)
            ora = brute_force_matching(*g)
            assert brute_force_counts(*g) == (ora.sync_count, ora.async_count), (g, eta)


THIRTEEN = list(range(1, 14))


@pytest.mark.parametrize(
    "args, error",
    [
        (graph(THIRTEEN, [1], period=13), OracleBudgetError),
        (graph([1], THIRTEEN, period=13), OracleBudgetError),
        (graph([1], [2], eta=0.123456789123), ValueError),
        (graph([1], [2], eta=0.0), ValueError),
        (graph([1, 3], [2], eta=1e-10), ValueError),
        (graph([1], [2], eta=1.5), ValueError),
        (graph([1], [2], eta=float("nan")), ValueError),
        ((EnergyTrace("u", [True] * 3), EnergyTrace("v", [True] * 4), 0.75), ValueError),
    ],
    ids=["13-on-u", "13-on-v", "exotic-eta", "eta-0", "eta-1e-10", "eta-above-1", "eta-nan",
         "period-mismatch"],
)
def test_counts_raise_what_the_witness_search_raises(args, error):
    with pytest.raises(error) as witness_error:
        brute_force_matching(*args)
    with pytest.raises(error) as counts_error:
        brute_force_counts(*args)
    assert type(counts_error.value) is type(witness_error.value)
    assert str(counts_error.value) == str(witness_error.value)


def test_import_builds_no_oracle_table_and_the_built_ones_are_read_only():
    # a fresh interpreter: this one has run the oracle already. The tables
    # are built on first use, so importing the package stays cheap, and
    # shard threads share them, so none may be written.
    probe = """
import dutycycle, dutycycle.cli
from dutycycle import EnergyTrace, brute_force_matching, oracle
assert oracle._layout.cache_info().currsize == 0, oracle._layout.cache_info()
for n in range(oracle.ORACLE_MAX_VERTEXES + 1):
    brute_force_matching(EnergyTrace("u", [True] * n), EnergyTrace("v", [True] * n), 0.75)
assert oracle._layout.cache_info().currsize == oracle.ORACLE_MAX_VERTEXES + 1
for n in range(oracle.ORACLE_MAX_VERTEXES + 1):
    pos, prev = oracle._layout(n)
    assert not pos.flags.writeable and not prev.flags.writeable, n
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
