"""Pair metrics: report rows, heterogeneity and online/offline ratios."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import PairResult
from .traces import EnergyTrace, check_packed, count_packed, estimate_prob, pair_period


@dataclass(frozen=True)
class PairMetrics:
    """One row of per-pair reporting."""

    pair_id: str
    cat: float
    sat: float
    cat_pct: float
    sat_pct: float
    heterogeneity: float
    p_hat_u: float
    p_hat_v: float

    CSV_HEADER = "pair_id,cat,sat,cat_pct,sat_pct,heterogeneity,p_hat_u,p_hat_v"

    def to_csv_row(self) -> str:
        return ",".join(
            [
                self.pair_id,
                repr(self.cat),
                repr(self.sat),
                repr(self.cat_pct),
                repr(self.sat_pct),
                repr(self.heterogeneity),
                repr(self.p_hat_u),
                repr(self.p_hat_v),
            ]
        )


def heterogeneity(b_u: np.ndarray, b_v: np.ndarray):
    """Degree of non-overlap of two harvest-state arrays along the last axis.

    1 - |b_u & b_v| / |b_u | b_v|; 0 for identical access (or when neither
    device ever harvests), 1 for disjoint access. Takes the np.packbits
    rows of one pair (1-D) or of n trials (2-D, one trial per row), eight
    slots a byte with zero padding, and returns a 0-d or (n,) float array;
    TypeError unless both are uint8.
    """
    check_packed(b_u, b_v)
    inter = count_packed(b_u & b_v)
    union = count_packed(b_u | b_v)
    return np.where(union > 0, 1.0 - inter / np.maximum(union, 1), 0.0)


def compute_heterogeneity(trace_u: EnergyTrace, trace_v: EnergyTrace) -> float:
    """heterogeneity of two traces' energy states, as a Python float."""
    pair_period(trace_u, trace_v)
    return float(heterogeneity(np.packbits(trace_u.states), np.packbits(trace_v.states)))


def ratio_online_to_offline(online: PairResult, offline: PairResult) -> float:
    """online CAT / offline CAT for the same trace pair; 1 when both are 0."""
    if offline.cat_total == 0.0:
        return 1.0 if online.cat_total == 0.0 else math.inf
    return online.cat_total / offline.cat_total


def pair_rows(
    trace_u: EnergyTrace,
    trace_v: EnergyTrace,
    runs: list[tuple[str, float, float]],
) -> list[PairMetrics]:
    """One report row per `(pair_id, cat, sat)` run over the same trace pair.

    The pair's heterogeneity and estimated probabilities are computed once
    and shared by every row.
    """
    period = trace_u.period_len
    heterogeneity = compute_heterogeneity(trace_u, trace_v)
    p_hat_u = estimate_prob(trace_u)
    p_hat_v = estimate_prob(trace_v)
    return [
        PairMetrics(
            pair_id=pair_id,
            cat=cat,
            sat=sat,
            cat_pct=cat / period,
            sat_pct=sat / period,
            heterogeneity=heterogeneity,
            p_hat_u=p_hat_u,
            p_hat_v=p_hat_v,
        )
        for pair_id, cat, sat in runs
    ]

