"""Exhaustive maximum-weight matching oracle for small instances.

Deliberately dumb certification tool: it considers every vertex-exclusive
matching of the energy-state graph (a vertex per harvest slot; same-slot
edges weight 1, cross-slot weight eta) with a layered dynamic program, with
no greedy shortcuts shared with the production scheduler. Layer i holds,
for every subset (mask) of one side's vertexes, the best score of a
matching of the other side's first i vertexes that covers exactly that
subset. It masks the side whose DP is cheaper by an estimate (the smaller
side on large instances), and keeps masks in popcount order, so layer i
pulls only masks of popcount <= i while they are at most half of all.

Two entry points share one prologue (_instance: the checks, the size cap,
the side choice and the integer gains) and one layer loop (_scores).
brute_force_matching keeps every layer, at most 13 x 4097 int32 (about 213
kB), to backtrack a witness. brute_force_counts, for callers that read only
totals, keeps one row updated in place and reads (sync_count, async_count)
off the best score. Ties break by weight, then synchronous edge count, then
the lowest final V mask, and the witness prefers leaving the last U-vertex
unmatched, then its lowest V partner; swapping the traces mirrors the
witness (a property test pins this), so masking U gives the same one. The
witness comes back as a graph.PairResult, the schedulers' result type, so
the optimum reads as its cat_total, sync_count and async_count. Sizes are
capped so the search stays cheap; larger ones are refused, not
approximated.
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


class OracleBudgetError(ValueError):
    """Instance exceeds the exhaustive-search size budget."""


@functools.lru_cache(maxsize=64)
def _eta_as_fraction(eta: float) -> Fraction:
    frac = Fraction(eta).limit_denominator(1000)
    if abs(float(frac) - eta) > 1e-9:
        raise ValueError(
            f"eta {eta!r} is not representable as a small ratio; "
            "the oracle needs exact integer weights for tie-breaking"
        )
    return frac


@functools.lru_cache(maxsize=ORACLE_MAX_VERTEXES + 1)
def _layout(nb: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only intp (pos, prev) of the DP over nb-bit masks in popcount order.

    Column c holds order[c], the masks sorted by popcount, then by value;
    pos[mask] is a mask's column. prev[0, c] is c (the U-vertex is left
    unmatched), and prev[j + 1, c] is the column of order[c] ^ (1 << j) if
    bit j is set, else 2**nb, the score table's unreachable sentinel column.
    """
    full = 1 << nb
    masks = np.arange(full)
    order = np.argsort(np.bitwise_count(masks), kind="stable")
    pos = np.empty_like(order)
    pos[order] = masks
    prev = np.empty((nb + 1, full), dtype=np.intp)
    prev[0] = masks
    for j in range(nb):  # row by row, so no temporary is as large as the table
        prev[j + 1] = np.where(order & (1 << j), pos[order ^ (1 << j)], full)
    pos.flags.writeable = prev.flags.writeable = False
    return pos, prev


@functools.lru_cache(maxsize=ORACLE_MAX_VERTEXES + 1)
def _widths(nb: int) -> tuple[int, ...]:
    """Columns layer k pulls, for k up to the cap: the masks of popcount <= k,
    or all 2**nb once those are more than half, as numpy gathers through a
    strided prefix of prev slower per index than through all of it."""
    full = 1 << nb
    ends = itertools.accumulate(math.comb(nb, k) for k in range(ORACLE_MAX_VERTEXES + 1))
    return tuple(end if 2 * end <= full else full for end in ends)


@functools.lru_cache(maxsize=(ORACLE_MAX_VERTEXES + 1) ** 2)
def _dp_cost(layers: int, bits: int) -> int:
    """Estimated cost of `layers` DP layers over bits-bit masks, in gathered
    indexes, a layer's fixed numpy calls counting as 1200. Timed over every
    instance shape up to 12x12 (Xeon host, numpy 2.4), the sides it picks
    cost at most 2% more in total than the faster ones."""
    return layers * 1200 + (bits + 1) * sum(_widths(bits)[1 : layers + 1])


def _instance(trace_u: EnergyTrace, trace_v: EnergyTrace, eta: float):
    """The prologue both entry points share: the checks, the side choice and
    the integer gains, as (period_len, swap, A, B, frac, gains), B masked.

    score = weight_units * 16 + sync_count; weight differences are whole
    units so the +sync term (at most 12) can never flip the weight order.
    gains[i][0] = 0 leaves u_i unmatched; gains[i][j + 1] pairs it with v_j.
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
    w_sync, w_async = frac.denominator * 16 + 1, frac.numerator * 16  # weight 1 is den units
    gains = [[0] + [w_sync if u == v else w_async for v in B] for u in A]
    return period_len, swap, A, B, frac, gains


def _scores(gains: list[list[int]], nb: int, rows: int) -> np.ndarray:
    """The DP's int32 score table, `rows` rows of 2**nb + 1 columns; row
    i % rows holds layer i. So with len(gains) + 1 rows every layer is kept,
    and one row takes every layer in place. That is exact, as each layer's
    pull copies its predecessors before max writes; the columns a layer
    does not reach, the sentinel's among them, keep _UNREACHABLE."""
    table = np.full((rows, (1 << nb) + 1), _UNREACHABLE, dtype=np.int32)
    table[0, 0] = 0
    gain = np.array(gains, dtype=np.int32).reshape(len(gains), nb + 1, 1)
    prev, widths = _layout(nb)[1], _widths(nb)
    for i in range(len(gains)):
        end = widths[i + 1]  # i + 1 U-vertexes cover at most i + 1 V-vertexes
        pulled = table[i % rows][prev[:, :end]]
        pulled += gain[i]
        pulled.max(axis=0, out=table[(i + 1) % rows, :end])
    return table


def brute_force_counts(trace_u: EnergyTrace, trace_v: EnergyTrace, eta: float) -> tuple[int, int]:
    """The optimum's (sync_count, async_count): brute_force_matching's search,
    checks and errors included, in one score row and with no witness."""
    _, _, _, B, frac, gains = _instance(trace_u, trace_v, eta)
    score = int(_scores(gains, len(B), 1).max())
    sync, units = score % 16, score // 16  # score = weight_units * 16 + sync_count
    return sync, (units - sync * frac.denominator) // frac.numerator


def brute_force_matching(trace_u: EnergyTrace, trace_v: EnergyTrace, eta: float) -> PairResult:
    """Search every matching; maximize weight, then synchronous edge count.

    U-vertexes are taken in ascending order; each is either left unmatched
    or paired with any V-vertex still free. `table[i, mask]` is the best
    score over matchings of the first i U-vertexes that cover exactly the
    V-vertexes in `mask`, so merging partial matchings that reach the same
    mask keeps the search exhaustive. Each layer is one numpy pull, through
    the predecessor table, over the masks it can reach: the best of leaving
    u_i unmatched and of each v_j it could take. When masking U is cheaper,
    the roles swap and the witness is mirrored back. Weights are compared
    in exact integer arithmetic (eta as a rational) so ties break
    deterministically. The vertexes are the traces' harvest slots;
    ValueError on a period mismatch or an eta outside (0, 1]. Returns the
    witness matching as a PairResult, whose totals are the optimum's.
    """
    period_len, swap, A, B, _, gains = _instance(trace_u, trace_v, eta)
    na, nb = len(A), len(B)
    pos, prev = _layout(nb)
    table = _scores(gains, nb, na + 1)

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
            if row[prev[j + 1, col]] == score - gains[i][j + 1]:
                break
        else:  # pragma: no cover - DP bookkeeping guarantees a path
            raise AssertionError("witness backtrack failed")
        edges.append((A[i], B[j]))
        col = prev[j + 1, col]
        score -= gains[i][j + 1]

    if swap:
        edges = [(v, u) for u, v in edges]
    return PairResult(edges, eta, period_len)

