"""Pair metrics: report rows, heterogeneity and online/offline ratios."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .traces import EnergyTrace, check_packed, count_packed, pair_period


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


def ratio_online_to_offline(online_cat, offline_cat):
    """online CAT / offline CAT: the one ratio rule of every report.

    Takes two CAT scalars, or two same-shape arrays of per-trial CATs, and
    returns a float array of that shape (0-d for scalars). It reads 1 where
    both CATs are 0 and inf where only the offline CAT is 0.
    """
    on = np.asarray(online_cat, dtype=float)
    off = np.asarray(offline_cat, dtype=float)
    return np.divide(on, off, out=np.where(on > 0, np.inf, 1.0), where=off > 0)
