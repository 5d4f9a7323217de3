"""Offline duty-cycling: full-period knowledge, optimal greedy matching.

With both traces known in advance the scheduler first pairs every common
harvest slot synchronously, then lets each leftover vertex search backward
for the nearest unmatched vertex on the other side. Device U's leftovers
search first, through graph.lifo_walk, the bank walk of the online
scheduler's matching mode: the offline greedy is that walk with
clairvoyant decisions. Device V's leftovers follow, and their search has
a closed form (see duty_cycle_arrays). The result is a maximum-weight
matching of the energy-state graph (one vertex per harvest slot of each
trace) whenever eta <= 1; the oracle module certifies this exhaustively in
the test suite. It comes back as a graph.PairResult, the result type the
online scheduler and the oracle return too.
"""

from __future__ import annotations

import math

import numpy as np

from .graph import PairResult, lifo_walk
from .traces import (
    EnergyTrace,
    check_count,
    check_eta,
    check_packed,
    check_prob,
    count_packed,
    pair_period,
)


def duty_cycle_arrays(b_u: np.ndarray, b_v: np.ndarray):
    """Offline scheduler core on boolean state arrays.

    Step 1 pairs every slot present on both sides synchronously. Step 2 walks
    the remaining vertexes in slot order, each U-vertex taking the nearest
    earlier unmatched V-vertex: the most recently passed one. That is
    graph.lifo_walk, the online matching walk, with clairvoyant decisions:
    every U-only unit banks and tries to pair, every V-only unit only banks.
    Step 3 lets each remaining V-vertex take the nearest earlier remaining
    U-vertex. A U-vertex is left over only when no V-vertex is free before
    it, so every leftover U-vertex precedes every leftover V-vertex, and
    step 3 is zip(reversed(u_left), v_left). With X and Y the U-only and
    V-only harvest counts, steps 2 and 3 thus make min(X, Y) async edges by
    construction. Unmatched vertexes never spend their banked unit.

    Returns the matching as one list of 1-based (u_slot, v_slot) edges: the
    sync edges, then step 2's pairs, then step 3's. offline_duty_cycle wraps
    it in a PairResult; callers that need only the edge counts use
    optimum_counts.
    """
    u_only, v_only = b_u & ~b_v, b_v & ~b_u
    step2, u_left, v_left = lifo_walk(u_only, v_only, u_only, np.zeros_like(u_only))
    sync = [(t, t) for t in (np.flatnonzero(b_u & b_v) + 1).tolist()]
    return sync + step2 + list(zip(reversed(u_left), v_left))


def optimum_counts(b_u: np.ndarray, b_v: np.ndarray):
    """(sync, async) edge counts of the offline optimum along the last axis.

    Takes the np.packbits rows of one trace pair (1-D) or of n trials (2-D,
    one trial per row), eight slots a byte with zero padding, and returns
    scalars or (n,) arrays; TypeError unless both are uint8, so a bool
    array is never counted a slot a byte. sync = |b_u & b_v| and
    async = min(|b_u|, |b_v|) - sync, that is min(X, Y) for the U-only and
    V-only counts X and Y, so the optimal CAT is
    graph.cat_from_counts(sync, async, eta). This is exact for eta <= 1.
    Some optimal matching holds every synchronous edge: a matching without
    (t, t) for a common slot t can drop the at most two asynchronous edges
    at u_t and v_t, add (t, t) and pair their two former partners, losing
    nothing since 1 + eta >= 2 * eta and 1 >= eta. A U-only and a V-only
    vertex lie in different slots, so they can always be paired, and
    min(X, Y) edges of weight eta remain. The greedy of duty_cycle_arrays
    realizes exactly these counts; the test suite pins the two.
    """
    check_packed(b_u, b_v)
    sync = count_packed(b_u & b_v)
    edges = np.minimum(count_packed(b_u), count_packed(b_v))
    return sync, edges - sync


def offline_duty_cycle(trace_u: EnergyTrace, trace_v: EnergyTrace, eta: float) -> PairResult:
    """Run the offline scheduler on a trace pair, whose harvest slots are the
    graph's vertexes; ValueError on a period mismatch or an eta outside (0, 1]."""
    period_len = pair_period(trace_u, trace_v)
    check_eta(eta)
    return PairResult(duty_cycle_arrays(trace_u.states, trace_v.states), eta, period_len)


def expected_cat(period_len: int, p: float, eta: float) -> float:
    """Closed-form expected-CAT reference: |T| * p * [p + 2*eta*(1-p)].

    Counts p^2 synchronous and 2*p*(1-p) asynchronous edge opportunities per
    slot. Note that the asynchronous term counts every one-sided harvest slot
    as an edge, while a vertex-exclusive matching can only pair one-sided
    slots across devices, so simulated optima fall below this reference
    whenever 0 < p < 1. The verification harness reports the gap;
    exact_expected_cat gives the true expectation of the optimum.
    """
    period_len = check_count("period_len", period_len, least=0)
    check_prob("p", p)
    check_eta(eta)
    return period_len * p * (p + 2.0 * eta * (1.0 - p))


def exact_expected_cat(period_len: int, p: float, eta: float) -> float:
    """Exact expected optimal CAT for two i.i.d. Bernoulli(p) traces.

    The optimum of a trace pair is n_sync + eta * min(X, Y), where X and Y
    count the U-only and V-only harvest slots (see optimum_counts), so the
    expectation is T * p^2 + eta * E[min(X, Y)]. Condition on M = X + Y,
    which is Binomial(T, 2q) with q = p * (1-p); given M = m, X is Binomial(m, 1/2)
    and E[min(X, m - X)] = (m/2) * (1 - C(2n, n) / 4^n) with n = m // 2.
    The sum over m is exact up to rounding and costs O(T).
    """
    period_len = check_count("period_len", period_len, least=0)
    check_prob("p", p)
    check_eta(eta)
    q = p * (1.0 - p)
    if q == 0.0:
        return period_len * p * p
    m = np.arange(period_len + 1)
    k = m[1:]
    log_choose = np.concatenate(([0.0], np.cumsum(np.log((period_len - k + 1) / k))))
    pmf = np.exp(log_choose + m * math.log(2.0 * q) + (period_len - m) * math.log1p(-2.0 * q))
    n = np.arange(1, period_len // 2 + 1)
    central = np.concatenate(([1.0], np.cumprod((2 * n - 1) / (2 * n))))  # C(2n, n) / 4^n
    e_min = float(np.dot(pmf, 0.5 * m * (1.0 - central[m // 2])))
    return period_len * p * p + eta * e_min
