"""Exhaustive maximum-weight matching oracle for small instances.

Deliberately dumb certification tool: it considers every vertex-exclusive
matching of the energy-state graph (a vertex per harvest slot; same-slot
edges weight 1, cross-slot weight eta) with a layered dynamic program over
U-vertexes, with no greedy shortcuts shared with the production scheduler.
Layer i holds, for every subset (mask) of V-vertexes, the best score of a
matching of the first i U-vertexes that covers exactly that subset; numpy
computes each layer over all 2^|V| masks at once, a 13 x 4097 int32 score
table (about 213 kB) at the size cap. Ties break first by weight, then by
synchronous edge count, then by the lowest final mask, and the witness
prefers leaving a U-vertex unmatched, then its lowest V partner. The
witness comes back as a graph.PairResult, the schedulers' result type, so
the optimum reads as its cat_total, sync_count and async_count. Sizes are
capped so the search stays cheap; larger ones are refused, not approximated.
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
def _predecessors(nb: int) -> np.ndarray:
    """Read-only (nb + 1, 2**nb) int16 table of the masks each mask comes from.

    Row 0 is the mask itself: the U-vertex is left unmatched. Row j + 1 is
    mask ^ (1 << j) when bit j is set, else 2**nb, the sentinel column of the
    score table, which no partial matching reaches.
    """
    full = 1 << nb
    masks = np.arange(full, dtype=np.int16)
    bits = (np.int16(1) << np.arange(nb, dtype=np.int16))[:, None]
    table = np.vstack([masks, np.where(masks & bits, masks ^ bits, np.int16(full))])
    table.flags.writeable = False
    return table


def brute_force_matching(trace_u: EnergyTrace, trace_v: EnergyTrace, eta: float) -> PairResult:
    """Search every matching; maximize weight, then synchronous edge count.

    U-vertexes are taken in ascending order; each is either left unmatched
    or paired with any V-vertex still free. `table[i, mask]` is the best
    score over matchings of the first i U-vertexes that cover exactly the
    V-vertexes in `mask`, so merging partial matchings that reach the same
    mask keeps the search exhaustive. Each layer is one numpy pull over all
    masks through the predecessor table: the best of leaving u_i unmatched
    and of each v_j it could take. Weights are compared in exact integer
    arithmetic (eta as a rational) so ties break deterministically. The
    vertexes are the traces' harvest slots; ValueError on a period mismatch
    or an eta outside (0, 1]. Returns the witness matching as a PairResult,
    whose totals are the optimum's.
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
    w_sync = frac.denominator  # weight 1 in eta-denominator units
    w_async = frac.numerator

    # score = weight_units * 16 + sync_count; weight differences are whole
    # units so the +sync term (at most 12) can never flip the weight order.
    # gains[i][0] = 0 leaves u_i unmatched; gains[i][j + 1] pairs it with v_j.
    gains = [[0] + [w_sync * 16 + 1 if u == v else w_async * 16 for v in B] for u in A]
    gain = np.array(gains, dtype=np.int32).reshape(na, nb + 1, 1)
    prev = _predecessors(nb)
    full = 1 << nb
    table = np.full((na + 1, full + 1), _UNREACHABLE, dtype=np.int32)
    table[0, 0] = 0
    for i in range(na):
        pulled = table[i][prev]
        pulled += gain[i]
        pulled.max(axis=0, out=table[i + 1, :full])

    final = table[na, :full]
    mask = int(final.argmax())  # lowest mask among ties
    score = int(final[mask])

    # Backtrack one witness, one layer at a time; among equal-score
    # predecessors prefer leaving u unmatched, then the lowest V index, which
    # makes the witness stable.
    edges: list[tuple[int, int]] = []
    for i in range(na - 1, -1, -1):
        row = table[i]
        if row[mask] == score:
            continue
        for j in range(nb):
            bit = 1 << j
            if mask & bit and row[mask ^ bit] == score - gains[i][j + 1]:
                break
        else:  # pragma: no cover - DP bookkeeping guarantees a path
            raise AssertionError("witness backtrack failed")
        edges.append((A[i], B[j]))
        mask ^= bit
        score -= gains[i][j + 1]

    return PairResult(edges, eta, period_len)

