"""Exhaustive oracles for small instances: a matching search and a schedule DP.

The matching search is deliberately dumb: it considers every vertex-exclusive
matching of the energy-state graph (a vertex per harvest slot; same-slot
edges weight 1, cross-slot weight eta) with a layered dynamic program, with
no greedy shortcuts shared with the production scheduler. Layer i holds,
for every subset (mask) of one side's vertexes, the best score of a
matching of the other side's first i vertexes that covers exactly that
subset. It masks the side whose DP is cheaper by an estimate (the smaller
side on large instances), and keeps masks in popcount order, so layer i
pulls only masks of popcount <= i while they are at most half of all.

A U-vertex gains w_async with every V-vertex but its same-slot partner, if
it has one, which gains w_sync. So a layer takes the best predecessor of
each mask through its set bits, adds w_async once, keeps the mask's own
score where that is higher (the U-vertex left unmatched), and only when a
partner exists pulls once more through the partner's bit with w_sync. The
set-bit pull reads a rank table whose row r holds each mask's predecessor
through its (r+1)-th lowest set bit, so the layer that adds the k-th
U-vertex reads min(k, nb) rows, where a pull through every bit would read
nb + 1 rows of which about half point at masks without that bit.

Two entry points share one prologue (_instance: the checks, the size cap,
the side choice and the integer weights) and one layer loop (_scores).
brute_force_matching keeps every layer, at most 13 x 4097 int32 (about 213
kB), to backtrack a witness. brute_force_counts, for callers that read only
totals, keeps one row updated in place, stops one layer short and reduces
the last layer to three terms (the full mask's score, the best other one's
plus w_async, the best without the partner's plus w_sync); it reads
(sync_count, async_count) off the best score. Ties break by weight, then
synchronous edge count, then the lowest final V mask, and the witness
prefers leaving the last U-vertex unmatched, then its lowest V partner;
swapping the traces mirrors the witness (a property test pins this), so
masking U gives the same one. The witness comes back as a
graph.PairResult, the schedulers' result type, so the optimum reads as its
cat_total, sync_count and async_count. Sizes are capped so the search
stays cheap; larger ones are refused, not approximated.

schedule_counts searches schedules instead, by one DP over (slot, bank_u,
bank_v) for a batch of arrival rows. Every schedule is a matching and an
optimal matching is schedulable, so its counts are the matching search's.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

import numpy as np

from .graph import PairResult
from .traces import EnergyTrace, check_eta, pair_period

# Upper bound on each side's vertex count for the exhaustive search. 12 keeps the
# layered table at 13 layers of 4096 masks (about 53k states), enough for
# period-12 certification runs at high harvest probabilities.
ORACLE_MAX_VERTEXES = 12

# Score of a mask no partial matching reaches. Far enough below zero that
# adding the gains of 12 layers can neither overflow int32 nor reach 0.
_UNREACHABLE = np.iinfo(np.int32).min // 2

# Bank states (pads included) of the rows in one schedule_counts pass; its
# table and one slot's gather take about 26 bytes a state.
_SCHEDULE_CELLS = 2**16


class OracleBudgetError(ValueError):
    """Instance exceeds the exhaustive-search size budget."""


@functools.lru_cache(maxsize=64)
def _eta_as_fraction(eta: float) -> Fraction:
    frac = Fraction(eta).limit_denominator(1000)
    if frac == 0 or abs(float(frac) - eta) > 1e-9:  # a tiny eta rounds to 0 within 1e-9
        raise ValueError(
            f"eta {eta!r} is not representable as a small ratio; "
            "the oracle needs exact integer weights for tie-breaking"
        )
    return frac


@functools.lru_cache(maxsize=ORACLE_MAX_VERTEXES + 1)
def _layout(nb: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only intp (pos, prev, rank) of the DP over nb-bit masks in
    popcount order, built in one pass over the bits.

    Column c holds order[c], the masks sorted by popcount, then by value;
    pos[mask] is a mask's column. prev[j, c] is the column of
    order[c] ^ (1 << j) if bit j is set, else 2**nb, the score table's
    unreachable sentinel column. rank[r, c] is prev[j, c] for the (r + 1)-th
    lowest set bit j of order[c], or the sentinel when order[c] has at most
    r set bits, so a mask's predecessors through its bits fill its first
    popcount rows.
    """
    full = 1 << nb
    masks = np.arange(full)
    order = np.argsort(np.bitwise_count(masks), kind="stable")
    pos = np.empty_like(order)
    pos[order] = masks
    prev = np.full((nb, full), full, dtype=np.intp)
    rank = np.full_like(prev, full)
    for j in range(nb):  # row by row, so no temporary is as large as a table
        cols = np.flatnonzero(order & (1 << j))
        below = np.bitwise_count(order[cols] & ((1 << j) - 1))  # set bits below bit j
        prev[j, cols] = rank[below, cols] = pos[order[cols] ^ (1 << j)]
    pos.flags.writeable = prev.flags.writeable = rank.flags.writeable = False
    return pos, prev, rank


@functools.lru_cache(maxsize=ORACLE_MAX_VERTEXES + 1)
def _widths(nb: int) -> tuple[int, ...]:
    """Columns layer k pulls, for k up to the cap: the masks of popcount <= k,
    or all 2**nb once those are more than half, as numpy gathers through a
    strided prefix of an index table slower per index than through all of it."""
    full = 1 << nb
    ends = itertools.accumulate(math.comb(nb, k) for k in range(ORACLE_MAX_VERTEXES + 1))
    return tuple(end if 2 * end <= full else full for end in ends)


@functools.lru_cache(maxsize=(ORACLE_MAX_VERTEXES + 1) ** 2)
def _dp_cost(layers: int, bits: int) -> int:
    """Estimated cost of `layers` DP layers over bits-bit masks, in indexes
    read: layer k reads min(k, bits) rank rows and the row itself over its
    width, and its fixed numpy calls count as 1500. Timed over every
    instance shape up to 12x12, a partner on every other layer (2-vCPU Xeon
    host, numpy 2.4, the faster of two runs), the sides it picks cost 0.1%
    more in total than the faster ones, and at most 5% more on any shape."""
    widths = _widths(bits)
    return layers * 1500 + sum((min(k, bits) + 1) * widths[k] for k in range(1, layers + 1))


def _instance(trace_u: EnergyTrace, trace_v: EnergyTrace, eta: float):
    """The prologue both entry points share: the checks, the side choice and
    the integer weights, as (period_len, swap, A, B, frac, weights, partner),
    B masked. An empty side costs no layers, so it is always A.

    score = weight_units * 16 + sync_count; weight differences are whole
    units so the +sync term (at most 12) can never flip the weight order.
    weights = (w_sync, w_async), the gains of pairing a U-vertex with its
    same-slot V-vertex and with any other; w_sync > w_async > 0. partner[i]
    is the index in B of A[i]'s same-slot vertex, or None.
    """
    period_len = pair_period(trace_u, trace_v)
    check_eta(eta)
    A, B = trace_u.harvest_slots(), trace_v.harvest_slots()
    na, nb = len(A), len(B)
    if na > ORACLE_MAX_VERTEXES or nb > ORACLE_MAX_VERTEXES:
        raise OracleBudgetError(
            f"instance has {na}x{nb} vertexes; exhaustive search is capped at "
            f"{ORACLE_MAX_VERTEXES}x{ORACLE_MAX_VERTEXES}"
        )
    swap = _dp_cost(nb, na) < _dp_cost(na, nb)  # weights are symmetric
    if swap:
        A, B = B, A
    frac = _eta_as_fraction(eta)
    weights = frac.denominator * 16 + 1, frac.numerator * 16  # weight 1 is den units
    column = {v: j for j, v in enumerate(B)}
    partner = [column.get(u) for u in A]
    return period_len, swap, A, B, frac, weights, partner


def _scores(
    partner: list[int | None], weights: tuple[int, int], nb: int, rows: int, layers: int
) -> np.ndarray:
    """The DP's int32 score table after its first `layers` layers, `rows`
    rows of 2**nb + 1 columns; row i % rows holds layer i. So with
    layers + 1 rows every layer is kept, and one row takes every layer in
    place. That is exact, as each layer's pulls copy its predecessors before
    its last maximum writes. The sentinel column keeps _UNREACHABLE, and a
    mask no matching reaches holds it or a score far below 0."""
    table = np.full((rows, (1 << nb) + 1), _UNREACHABLE, dtype=np.int32)
    table[0, 0] = 0
    w_sync, w_async = weights
    _, prev, rank = _layout(nb)
    widths = _widths(nb)
    for i in range(layers):
        end = widths[i + 1]  # i + 1 U-vertexes cover at most i + 1 V-vertexes
        row, out = table[i % rows], table[(i + 1) % rows, :end]
        # every mask in reach has at most i + 1 bits, so its first i + 1 ranks
        best = row[rank[: i + 1, :end]].max(axis=0)
        best += w_async
        j = partner[i]
        if j is None:
            np.maximum(best, row[:end], out=out)
        else:  # its partner's gain beats w_async through the same predecessor
            np.maximum(best, row[:end], out=best)
            sync = row[prev[j, :end]]
            sync += w_sync
            np.maximum(best, sync, out=out)
    return table


def brute_force_counts(trace_u: EnergyTrace, trace_v: EnergyTrace, eta: float) -> tuple[int, int]:
    """The optimum's (sync_count, async_count): brute_force_matching's search,
    checks and errors included, in one score row and with no witness."""
    _, _, A, B, frac, weights, partner = _instance(trace_u, trace_v, eta)
    score = 0  # no U-vertex: the empty matching
    if A:
        row = _scores(partner, weights, len(B), 1, len(A) - 1)[0]
        w_sync, w_async = weights
        # the last layer's best. The last U-vertex takes a free V-vertex of
        # any mask but the full one (column -2), which beats leaving it
        # unmatched there as w_async > 0; or it is left unmatched on the full
        # mask; or it takes its partner, free in the masks its prev row holds
        score = max(row[-2], row[:-2].max() + w_async)
        if partner[-1] is not None:
            score = max(score, row[_layout(len(B))[1][partner[-1]]].max() + w_sync)
    score = int(score)
    sync, units = score % 16, score // 16  # score = weight_units * 16 + sync_count
    return sync, (units - sync * frac.denominator) // frac.numerator


def brute_force_matching(trace_u: EnergyTrace, trace_v: EnergyTrace, eta: float) -> PairResult:
    """Search every matching; maximize weight, then synchronous edge count.

    U-vertexes are taken in ascending order; each is either left unmatched
    or paired with any V-vertex still free. `table[i, mask]` is the best
    score over matchings of the first i U-vertexes that cover exactly the
    V-vertexes in `mask`, so merging partial matchings that reach the same
    mask keeps the search exhaustive. Each layer works over the masks it can
    reach: the best of taking any v_j (one pull through the rank table, plus
    w_async), of leaving u_i unmatched, and of taking its same-slot v_j (one
    pull through that bit, plus w_sync). When masking U is cheaper,
    the roles swap and the witness is mirrored back. Weights are compared
    in exact integer arithmetic (eta as a rational) so ties break
    deterministically. The vertexes are the traces' harvest slots;
    ValueError on a period mismatch or an eta outside (0, 1]. Returns the
    witness matching as a PairResult, whose totals are the optimum's.
    """
    period_len, swap, A, B, _, weights, partner = _instance(trace_u, trace_v, eta)
    na, nb = len(A), len(B)
    pos, prev, _ = _layout(nb)
    table = _scores(partner, weights, nb, na + 1, na)

    final = table[na].take(pos)  # mask order
    mask = int(final.argmax())  # lowest mask among ties
    score = int(final[mask])

    # Backtrack one witness, one layer at a time, through the predecessor
    # table; among equal-score predecessors prefer leaving u unmatched, then
    # the lowest V index, which makes the witness stable.
    col = pos[mask]
    edges: list[tuple[int, int]] = []
    for i in range(na - 1, -1, -1):
        row = table[i]
        if row[col] == score:
            continue
        for j in range(nb):
            gain = weights[0] if A[i] == B[j] else weights[1]
            if row[prev[j, col]] == score - gain:
                break
        else:  # pragma: no cover - DP bookkeeping guarantees a path
            raise AssertionError("witness backtrack failed")
        edges.append((A[i], B[j]))
        col = prev[j, col]
        score -= gain

    if swap:
        edges = [(v, u) for u, v in edges]
    return PairResult(edges, eta, period_len)


def schedule_counts(b_u, b_v, eta: float) -> np.ndarray:
    """The (2, n) int64 (sync, async) counts of the best energy-feasible
    schedule of each of n bool (n, T) arrival rows, by one DP over
    (slot, bank_u, bank_v), sharing only _eta_as_fraction with the mask DP.

    A slot banks every fresh unit, scores 1 on a joint harvest, or scores
    eta by spending one side's fresh unit with a banked unit of the other
    (on a joint harvest that banks the other fresh unit and ends where the
    joint score does, for less). So each slot kind, 2 * (u harvests) +
    (v harvests), has two moves: (wait, wait), (bank v, spend v), (bank u,
    spend u) and (bank both, joint). Scores are weight units * (T + 1) +
    sync count, so the best maximizes weight, then sync count. A row's
    table is (T + 4) x (T + 2), bank_u i in row i + 2 and bank_v j in
    column j + 1 among unreachable pads, so a move is a shift of it, flat.
    """
    kinds = 2 * np.asarray(b_u, bool) + np.asarray(b_v, bool)
    frac = _eta_as_fraction(check_eta(eta))
    n, period_len = kinds.shape
    side, width = period_len + 1, period_len + 2
    span, unreachable = side * width, np.iinfo(np.int64).min // 2
    # [kind, move]: where the move's source grid starts in a row's flat table
    sources = np.array([[0, 0], [-1, width], [-width, 1], [-width - 1, 0]]) + 2 * width
    gains = np.zeros((4, 2, 1), np.int64)  # [kind, move]; move 0 gains nothing
    gains[1:, 1, 0] = [frac.numerator * side, frac.numerator * side, frac.denominator * side + 1]
    best = np.empty(n, np.int64)
    step = max(1, _SCHEDULE_CELLS // span)
    for lo in range(0, n, step):
        block = kinds[lo : lo + step].T
        table = np.full((block.shape[1], side + 3, width), unreachable)
        table[:, 2, 1] = 0  # both banks empty
        grid, pads = table[:, 2:-1].reshape(len(table), span), table[:, 2:-1, 0]
        flat = table.ravel()
        shifted = np.lib.stride_tricks.as_strided(
            flat, (flat.size - span + 1, span), flat.strides * 2, writeable=False
        )
        starts = sources[block] + np.arange(0, flat.size, table[0].size)[:, None]
        for start, gain in zip(starts, gains[block]):
            pulled = shifted[start]  # (rows, 2, span): each move's source grid
            pulled += gain
            pulled.max(axis=1, out=grid)
            pads.fill(unreachable)  # a move off the grid wrote into them
        best[lo : lo + len(table)] = grid.max(axis=1)
    sync = best % side
    return np.stack([sync, (best // side - sync * frac.denominator) // frac.numerator])
