"""Exact small-T certificate of the paper's online ratio theorem.

The paper claims E[online CAT] >= (1 - e^{-p^2}) E[offline CAT] when both
devices harvest and wake with probability p. At period T the expectation is
a finite sum over the 2^(4T) rows (b_u, b_v, d_u, d_v) of arrivals and
decisions, and a row of total popcount k has probability p^k (1-p)^(4T-k).
With eta = num/den, den * CAT = den * sync + num * async is an integer, so

    den * E[CAT] = sum_k C[k] p^k (1-p)^(4T-k),

with integer tables C_on[k] and C_off[k] that do not depend on p. Elevated
to degree 4T + 2, E_on - p^2 E_off has the coefficients

    m_j = C_on[j-2] + 2 C_on[j-1] + C_on[j] - C_off[j-2]

in the basis p^j (1-p)^(4T+2-j), which is positive on (0, 1). So every
m_j >= 0 proves a ratio of at least p^2 for every p in [0, 1] at once, and
p^2 >= 1 - e^{-p^2} is stronger than the paper's bound. The online counts
come from simulate_arrays, the offline ones from optimum_counts; one test
ties the tables to the literal bank walk, online._walk_pair.

Heterogeneous pairs, each device waking with its own harvest probability,
take the same rows tabled by (a, b) = (|b_u| + |d_u|, |b_v| + |d_v|): a row
has probability p_u^a (1-p_u)^(2T-a) p_v^b (1-p_v)^(2T-b). Elevated to
degree 2T + 1 in each variable, E_on - p_u p_v E_off has the coefficients

    M[a, b] = C_on[a-1, b-1] + C_on[a-1, b] + C_on[a, b-1] + C_on[a, b]
              - C_off[a-1, b-1],

so every M[a, b] >= 0 proves a ratio of at least p_u p_v on all of [0, 1]^2.
As p_u p_v >= 1 - e^{-p_u p_v} and p_u p_v >= min(p_u, p_v)^2, that is
stronger than either heterogeneous form of the paper's bound. It holds in
matching mode at T <= 5. In slotsim the certificate fails from T = 2 on, so
that mode is checked only on an exact rational grid.

The same rows, weighted by the estimated-probability decisions of
online._estimated_probs in place of p, give that mode's exact ratio.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np
import pytest

from dutycycle import OnlineMode, ratio_online_to_offline
from dutycycle.offline import optimum_counts
from dutycycle.online import _estimated_probs, _walk_pair, simulate_arrays

ETAS = (Fraction(3, 4), Fraction(3, 5))


@functools.cache
def _rows(T: int):
    """Every row of period T: (slots, fields, k).

    slots[f] is the (T,) bool array of the T-bit field f, slot 0 in its
    highest bit. fields holds the (2^(4T),) field arrays of b_u, b_v, d_u
    and d_v, row r reading its four fields off r's bits, and k is each
    row's total popcount.
    """
    slots = (np.arange(1 << T)[:, None] >> np.arange(T - 1, -1, -1)) & 1 == 1
    row = np.arange(1 << (4 * T))
    fields = tuple((row >> (i * T)) & ((1 << T) - 1) for i in range(4))
    return slots, fields, np.bitwise_count(row)


def _row_counts(T: int, mode: OnlineMode | None):
    """Per-row int64 (sync, async) of the online mode, or of the offline
    optimum when mode is None, over the packed rows of _rows(T)."""
    slots, fields, _ = _rows(T)
    packed = np.packbits(slots, axis=-1)
    b_u, b_v, d_u, d_v = (packed[f] for f in fields)
    if mode is None:
        counts = optimum_counts(b_u, b_v)
    else:
        counts = simulate_arrays(b_u, b_v, d_u, d_v, mode)[:2]
    return tuple(np.asarray(c).astype(np.int64) for c in counts)


@functools.cache
def _pair_count_tables(T: int, mode: OnlineMode | None):
    """(S[a, b], A[a, b]): the sync and async counts summed over the rows in
    which u's fields hold a = |b_u| + |d_u| ones and v's b = |b_v| + |d_v|,
    as (2T+1, 2T+1) tables, so C = den * S + num * A at any eta."""
    n = 2 * T + 1
    b_u, b_v, d_u, d_v = (np.bitwise_count(f) for f in _rows(T)[1])
    cell = (b_u + d_u) * n + b_v + d_v
    return tuple(
        np.bincount(cell, weights=c, minlength=n * n).reshape(n, n).astype(np.int64)
        for c in _row_counts(T, mode)
    )


@functools.cache
def _count_tables(T: int, mode: OnlineMode | None):
    """(S[k], A[k]): the pair tables summed along a + b = k, which are the
    counts summed over the rows of total popcount k."""
    k = np.add.outer(np.arange(2 * T + 1), np.arange(2 * T + 1)).ravel()
    return tuple(
        np.bincount(k, weights=t.ravel(), minlength=4 * T + 1).astype(np.int64)
        for t in _pair_count_tables(T, mode)
    )


def cat_table(T: int, mode: OnlineMode | None, eta: Fraction, pair: bool = False) -> np.ndarray:
    """The integer table C = den * (sync + eta * async), summed over the rows
    of each total popcount k, or with pair set over those of each (a, b)."""
    sync, asyn = (_pair_count_tables if pair else _count_tables)(T, mode)
    return eta.denominator * sync + eta.numerator * asyn


def margins(c_on: np.ndarray, c_off: np.ndarray, power: int = 2) -> np.ndarray:
    """The coefficients of E_on - p^power * E_off at degree len(c_on) + 1,
    in the basis p^j (1-p)^(degree - j); power is 1 or 2."""
    lift = [0] * power + [math.comb(2 - power, i) for i in range(3 - power)]
    return np.convolve(c_on, [1, 2, 1]) - np.convolve(c_off, lift)


def pair_margins(c_on: np.ndarray, c_off: np.ndarray) -> np.ndarray:
    """The coefficients M[a, b] of E_on - p_u p_v E_off at degree 2T + 1 in
    each variable, in the basis p_u^a (1-p_u)^(2T+1-a) p_v^b (1-p_v)^(2T+1-b),
    from the (2T+1, 2T+1) tables of cat_table(..., pair=True)."""
    on, off = np.pad(c_on, 1), np.pad(c_off, 1)
    return on[:-1, :-1] + on[:-1, 1:] + on[1:, :-1] + on[1:, 1:] - off[:-1, :-1]


def grid_gaps(c_on: np.ndarray, c_off: np.ndarray, N: int) -> np.ndarray:
    """G[a, b] = N^(4T+2) den (E_on - p_u p_v E_off) at p_u = a/N, p_v = b/N,
    as exact Python integers in an (N+1, N+1) object array."""
    n = len(c_on) - 1
    # power[a, i] = N^n p^i (1-p)^(n-i) at p = a/N
    power = np.array(
        [[a**i * (N - a) ** (n - i) for i in range(n + 1)] for a in range(N + 1)], dtype=object
    )
    on, off = (power @ c.astype(object) @ power.T for c in (c_on, c_off))
    a = np.arange(N + 1).astype(object)
    return N * N * on - np.multiply.outer(a, a) * off


def expectation(table: np.ndarray, p):
    """sum_k table[k] p^k (1-p)^(n-k), n = len(table) - 1: den times the
    expected CAT, in exact arithmetic for an integer table and a Fraction p."""
    n = len(table) - 1
    return sum(c * p**k * (1 - p) ** (n - k) for k, c in enumerate(table.tolist()))


def ratio(online_table: np.ndarray, offline_table: np.ndarray, p: float) -> float:
    """The exact E[online CAT] / E[offline CAT] at p."""
    online, offline = expectation(online_table, p), expectation(offline_table, p)
    return float(ratio_online_to_offline(online, offline))


@pytest.mark.parametrize("eta", ETAS, ids=str)
@pytest.mark.parametrize("mode", list(OnlineMode))
@pytest.mark.parametrize("T", [1, 2, 3, 4, 5])
def test_online_cat_is_at_least_p_squared_times_the_optimum(T, mode, eta):
    m = margins(cat_table(T, mode, eta), cat_table(T, None, eta))
    assert m.min() >= 0, (T, mode, eta, m.tolist())
    # the floor is exact at T = 1 in both modes, and at T = 2 in slotsim
    exact = T == 1 or (T == 2 and mode == OnlineMode.SLOT_SIM)
    assert (not m.any()) == exact, m.tolist()


@pytest.mark.parametrize("mode", list(OnlineMode))
@pytest.mark.parametrize("T", [1, 2, 3])
def test_the_certificate_rejects_a_ratio_of_p(T, mode):
    eta = ETAS[0]
    c_on, c_off = cat_table(T, mode, eta), cat_table(T, None, eta)
    assert margins(c_on, c_off, power=1).min() < 0
    # and the claim is false: at p = 1/10 the ratio falls short of p
    p = Fraction(1, 10)
    assert expectation(c_on, p) < p * expectation(c_off, p)


# The bivariate certificate at (mode, T) -> (least M[a, b], how many are
# negative), the same at both etas. It proves the p_u p_v floor in matching
# mode at T <= 5, and in slotsim only at T = 1; see the grid test below.
PAIR_CERTIFICATE = {
    **{(OnlineMode.MATCHING, T): (0, 0) for T in range(1, 6)},
    (OnlineMode.SLOT_SIM, 1): (0, 0),
    (OnlineMode.SLOT_SIM, 2): (-6, 4),
    (OnlineMode.SLOT_SIM, 3): (-54, 7),
    (OnlineMode.SLOT_SIM, 4): (-216, 6),
}


@pytest.mark.parametrize("eta", ETAS, ids=str)
@pytest.mark.parametrize("mode, T", list(PAIR_CERTIFICATE))
def test_online_cat_against_pu_pv_times_the_optimum(mode, T, eta):
    m = pair_margins(cat_table(T, mode, eta, pair=True), cat_table(T, None, eta, pair=True))
    assert (m.min(), np.count_nonzero(m < 0)) == PAIR_CERTIFICATE[mode, T], m.tolist()
    assert (not m.any()) == (T == 1), m.tolist()  # the ratio is exactly p_u p_v at T = 1


@pytest.mark.parametrize("eta", ETAS, ids=str)
@pytest.mark.parametrize("T", [2, 3, 4])
def test_slotsim_pair_ratio_on_an_exact_grid(T, eta):
    # every p_u, p_v in {0, 1/40, ..., 1}, in exact integer arithmetic
    mode, N = OnlineMode.SLOT_SIM, 40
    gaps = grid_gaps(cat_table(T, mode, eta, pair=True), cat_table(T, None, eta, pair=True), N)
    assert min(gaps.ravel().tolist()) >= 0
    # at T = 2 the floor is met on the whole diagonal, inside the square, where
    # the homogeneous ratio is exactly p^2; so no Bernstein certificate can hold
    assert (not gaps.diagonal().any()) == (T == 2)


@pytest.mark.parametrize("mode", list(OnlineMode))
def test_tables_equal_the_literal_walk_at_T3(mode):
    T = 3
    slots, fields, k = _rows(T)
    walks = [_walk_pair(*(slots[f[i]] for f in fields), mode, 0.75) for i in range(1 << (4 * T))]
    walked = [[w.sync_count for w in walks], [w.async_count for w in walks]]
    assert [c.tolist() for c in _row_counts(T, mode)] == walked
    tables = [np.bincount(k, weights=c, minlength=4 * T + 1).tolist() for c in walked]
    assert [t.tolist() for t in _count_tables(T, mode)] == tables


def _estimated_ratio(T: int, mode: OnlineMode, eta: Fraction, p: float) -> float:
    """The exact E[online CAT] / E[offline CAT] with decisions drawn from
    the causal estimates at the default warmup, 60 >= T, each decision row
    weighted by prod_t est_t^d (1 - est_t)^(1-d) given its arrival row."""
    slots, (b_u, b_v, d_u, d_v), _ = _rows(T)
    est = np.array([_estimated_probs(s, 60) for s in slots])  # (2^T, T)
    # chance[b, d]: a device with arrival field b takes decision field d
    chance = np.where(slots[None, :, :], est[:, None, :], 1.0 - est[:, None, :]).prod(axis=-1)
    sync, asyn = _row_counts(T, mode)
    weighted = chance[b_u, d_u] * chance[b_v, d_v] * (eta.denominator * sync + eta.numerator * asyn)
    # group by the arrivals' popcount alone: the decisions carry their own weight
    k = np.bitwise_count(b_u) + np.bitwise_count(b_v)
    return ratio(np.bincount(k, weights=weighted, minlength=2 * T + 1), cat_table(T, None, eta), p)


# The estimated-probability mode (prob_active=None) at T = 4, warmup 60 >= T:
# each device wakes in slot t with the mean of its own first t states, the
# current one included. Its exact ratios at p = 1/2 and eta = 3/4.
ESTIMATED_T4_HALF = {
    OnlineMode.MATCHING: 0.48489633948817684,
    OnlineMode.SLOT_SIM: 0.4720501295756404,
}


@pytest.mark.parametrize("mode", list(OnlineMode))
def test_estimated_mode_ratio_at_T4(mode):
    T, eta = 4, ETAS[0]
    assert _estimated_ratio(T, mode, eta, 0.5) == pytest.approx(ESTIMATED_T4_HALF[mode], rel=1e-12)
    # peeking at the current slot beats knowing p at this T
    for p in (0.3, 0.5):
        known = ratio(cat_table(T, mode, eta), cat_table(T, None, eta), p)
        assert _estimated_ratio(T, mode, eta, p) > known, p
