"""Exhaustive oracles for small instances: a matching search and a schedule DP.

The matching search is deliberately dumb: it considers every vertex-exclusive
matching of the energy-state graph (a vertex per harvest slot; same-slot
edges weight 1, cross-slot weight eta) with a layered dynamic program, with
no greedy shortcuts shared with the production scheduler. Layer i holds,
for every subset (mask) of the V-vertexes, the best score of a matching of
the first i U-vertexes that covers exactly that subset. The next layer
leaves u_i unmatched or pairs it with any v_j its mask has, pulled through
v_j's bit from the mask without it: w_sync for u_i's same-slot V-vertex,
w_async for any other.

Weights are exact integers (eta as a small ratio), so ties break
deterministically: by weight, then synchronous edge count, then the lowest
final V mask; the backtrack prefers leaving the last U-vertex unmatched,
then its lowest V partner. Swapping the traces mirrors the witness (a
property test pins this). The witness comes back as a graph.PairResult, the
schedulers' result type, so the optimum reads as its cat_total, sync_count
and async_count. Each side is capped at ORACLE_MAX_VERTEXES vertexes, at
most 13 layers of 4097 int32 (about 213 kB); larger instances are refused,
not approximated.

schedule_counts searches schedules instead, by one DP over (slot, bank_u,
bank_v) for a batch of arrival rows. Every schedule is a matching and an
optimal matching is schedulable, so its counts are the matching search's.
"""

from __future__ import annotations

import functools
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
def _predecessors(nb: int) -> np.ndarray:
    """Read-only intp (nb, 2**nb) table over nb-bit masks: row j holds
    mask ^ (1 << j) where the mask has bit j, else 2**nb, the score table's
    unreachable sentinel column."""
    masks = np.arange(1 << nb, dtype=np.intp)
    bits = (1 << np.arange(nb, dtype=np.intp))[:, None]
    table = np.where(masks & bits, masks ^ bits, 1 << nb)
    table.flags.writeable = False
    return table


def brute_force_matching(trace_u: EnergyTrace, trace_v: EnergyTrace, eta: float) -> PairResult:
    """Search every matching; maximize weight, then synchronous edge count.

    U-vertexes are taken in ascending order; each is either left unmatched
    or paired with any V-vertex still free. `table[i, mask]` is the best
    score over matchings of the first i U-vertexes that cover exactly the
    V-vertexes in `mask`, so merging partial matchings that reach the same
    mask keeps the search exhaustive. A score is weight units * 16 + sync
    count; weight 1 is eta's denominator in units, so the sync term (at
    most 12) never flips the weight order. ValueError on a period mismatch
    or an eta outside (0, 1] or not a small ratio; OracleBudgetError past
    the cap. Returns the witness as a PairResult of the optimum's totals.
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
    frac = _eta_as_fraction(eta)
    w_sync, w_async = frac.denominator * 16 + 1, frac.numerator * 16
    # gains[i, j]: pairing u_i with v_j, as a column to add to v_j's pulls
    gains = np.where(np.equal.outer(A, B), w_sync, w_async).astype(np.int32).reshape(na, nb, 1)
    prev = _predecessors(nb)

    # column 2**nb is the sentinel every missing bit pulls from
    table = np.full((na + 1, (1 << nb) + 1), _UNREACHABLE, dtype=np.int32)
    table[0, 0] = 0
    for i in range(na):
        row = table[i]
        paired = (row[prev] + gains[i]).max(axis=0, initial=_UNREACHABLE)
        np.maximum(row[:-1], paired, out=table[i + 1, :-1])

    mask = int(table[na, :-1].argmax())  # lowest mask among ties
    score = int(table[na, mask])

    # Backtrack one witness, one layer at a time; among equal-score
    # predecessors prefer leaving u unmatched, then the lowest V index,
    # which makes the witness stable.
    edges: list[tuple[int, int]] = []
    for i in range(na - 1, -1, -1):
        row = table[i]
        if row[mask] == score:
            continue
        for j in range(nb):
            gain = int(gains[i, j, 0])
            if row[prev[j, mask]] == score - gain:
                break
        else:  # pragma: no cover - DP bookkeeping guarantees a path
            raise AssertionError("witness backtrack failed")
        edges.append((A[i], B[j]))
        mask = int(prev[j, mask])
        score -= gain
    return PairResult(edges, eta, period_len)


def schedule_counts(b_u, b_v, eta: float) -> np.ndarray:
    """The (2, n) int64 (sync, async) counts of the best energy-feasible
    schedule of each of n bool (n, T) arrival rows, by one DP over
    (slot, bank_u, bank_v), sharing only _eta_as_fraction with the mask DP.
    ValueError naming both shapes unless b_u and b_v are 2-D and of one shape.

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
    b_u, b_v = np.asarray(b_u, bool), np.asarray(b_v, bool)
    if b_u.ndim != 2 or b_u.shape != b_v.shape:
        raise ValueError(f"b_u and b_v must be 2-D of one shape, got {b_u.shape} and {b_v.shape}")
    kinds = 2 * b_u + b_v
    frac = _eta_as_fraction(check_eta(eta))
    n, period_len = kinds.shape
    side, width = period_len + 1, period_len + 2
    span, unreachable = side * width, np.iinfo(np.int64).min // 2
    # [kind, move]: where the move's source grid starts in a row's flat table
    sources = np.array([[0, 0], [-1, width], [-width, 1], [-width - 1, 0]]) + 2 * width
    # move 1's gain column by kind; move 0 gains nothing
    gains = np.array([[0], [frac.numerator], [frac.numerator], [frac.denominator]], np.int64) * side
    gains[3] += 1
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
        for wait, pair, gain in zip(starts[..., 0], starts[..., 1], gains[block]):
            paired = shifted[pair]  # (rows, span): move 1's source grid
            paired += gain
            # move 0's source is gathered, too, before the slot writes grid
            np.maximum(paired, shifted[wait], out=grid)
            pads.fill(unreachable)  # a move off the grid wrote into them
        best[lo : lo + len(table)] = grid.max(axis=1)
    sync = best % side
    return np.stack([sync, (best // side - sync * frac.denominator) // frac.numerator])
