"""Energy-state graph, schedules and results for one device pair.

A vertex is one harvest slot of one device, read straight from the pair's
traces. A matching edge is a plain (u_slot, v_slot) pair of 1-based slots,
one per side; same-slot edges are synchronous (weight 1, both devices run on
freshly harvested energy) and cross-slot edges are asynchronous (weight eta,
the earlier unit is stored and spent at the later slot). Each vertex may
carry at most one edge, and no two edges may activate the devices in the
same slot. PairResult, a matching with the totals it fixes, is the one
result type of the offline scheduler, the online scheduler and the oracle.

Both schedulers pair a fresh unit with the partner's most recently banked
unit. lifo_walk, the one bank walk in the package, applies that rule to the
online modes' per-slot masks and to the offline greedy's clairvoyant ones.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from .traces import EnergyTrace, check_eta


class ExclusivityError(ValueError):
    """A vertex appears in more than one matching edge."""


class ScheduleConflictError(ValueError):
    """Two edges would activate the pair in the same slot."""


class FeasibilityError(ValueError):
    """A schedule spends more energy than harvested on some prefix."""


def cat_from_counts(sync: int, async_count: int, eta: float) -> float:
    """The CAT of sync edges of weight 1 and async edges of weight eta.

    The exact sum, rounded once to the nearest float: the value math.fsum
    returns over the per-edge weights, without a per-edge walk. eta is
    exactly num / den, and Python's int division rounds correctly.
    """
    num, den = eta.as_integer_ratio()
    return (sync * den + async_count * num) / den


def lifo_walk(dep_u: np.ndarray, dep_v: np.ndarray, want_u: np.ndarray, want_v: np.ndarray):
    """Pair fresh units with the partner's most recently banked ones.

    Takes four bool (T,) masks and visits, in slot order, only the slots
    where one is set. In slot t a device whose want mask is set pairs its
    fresh unit with the partner bank's latest slot, if that bank is not
    empty; both checks read the banks as they stood before the slot. Then
    a device whose dep mask is set and that did not just pair banks t.
    Returns (edges, bank_u, bank_v): the 1-based (u_slot, v_slot) pairs in
    the order made, and the slots left in each bank, ascending.
    """
    visit = np.flatnonzero(dep_u | dep_v | want_u | want_v)
    edges: list[tuple[int, int]] = []
    bank_u: list[int] = []
    bank_v: list[int] = []
    masks = (m[visit].tolist() for m in (dep_u, dep_v, want_u, want_v))
    for t, dep_u_t, dep_v_t, want_u_t, want_v_t in zip((visit + 1).tolist(), *masks):
        # u's pairing pops only bank v, so v's check still reads bank u as
        # it stood before the slot; a unit that pairs is not banked
        if want_u_t and bank_v:
            edges.append((t, bank_v.pop()))
            dep_u_t = False
        if want_v_t and bank_u:
            edges.append((bank_u.pop(), t))
            dep_v_t = False
        if dep_u_t:
            bank_u.append(t)
        if dep_v_t:
            bank_v.append(t)
    return edges, bank_u, bank_v


@dataclass(frozen=True)
class Schedule:
    """Per-slot activation decisions and the CAT realized in each slot."""

    period_len: int
    a_u: tuple[int, ...]
    a_v: tuple[int, ...]
    cat: tuple[float, ...]

    def __post_init__(self) -> None:
        for name, seq in (("a_u", self.a_u), ("a_v", self.a_v), ("cat", self.cat)):
            if len(seq) != self.period_len:
                raise ValueError(f"{name} length {len(seq)} != period_len {self.period_len}")
        if any(a not in (0, 1) for a in self.a_u + self.a_v):
            raise ValueError("decisions must be 0 or 1")


@dataclass(frozen=True)
class PairResult:
    """A scheduler's matching on one trace pair, with its totals.

    `edges` takes any iterable of (u_slot, v_slot) int pairs and is stored
    as a tuple sorted by (u_slot, v_slot), for reproducibility. Construction
    rejects an eta outside (0, 1] and slots below 1 (ValueError) and a
    vertex used twice (ExclusivityError). The totals are derived once, from one count of the
    sync edges: the sync and async edge counts, the CAT (each edge's weight
    at eta, summed with correct rounding) and the SAT (the sync edges'
    weight).
    """

    edges: tuple[tuple[int, int], ...]
    eta: float
    period_len: int
    sync_count: int = field(init=False)
    async_count: int = field(init=False)
    cat_total: float = field(init=False)
    sat_total: float = field(init=False)

    def __post_init__(self) -> None:
        check_eta(self.eta)
        edges = tuple(sorted(self.edges))
        u_slots = [u for u, _ in edges]
        v_slots = [v for _, v in edges]
        if edges and min(u_slots[0], min(v_slots)) < 1:
            bad = next(e for e in edges if min(e) < 1)
            raise ValueError(f"edge slots must be 1-based, got {bad}")
        for side, slots in (("U", u_slots), ("V", v_slots)):
            if len(set(slots)) < len(slots):
                ordered = sorted(slots)
                dup = next(a for a, b in zip(ordered, ordered[1:]) if a == b)
                raise ExclusivityError(f"{side}-vertex at slot {dup} used by more than one edge")
        sync = sum(map(operator.eq, u_slots, v_slots))
        async_count = len(edges) - sync
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "sync_count", sync)
        object.__setattr__(self, "async_count", async_count)
        object.__setattr__(self, "cat_total", cat_from_counts(sync, async_count, self.eta))
        object.__setattr__(self, "sat_total", float(sync))

    def schedule(self) -> Schedule:
        """Realize the matching as per-slot decisions.

        Both devices switch on at each edge's active slot, the later
        endpoint, because a stored unit can only be spent after it was
        harvested. The per-slot CAT is 1 at synchronous active slots and eta
        at asynchronous ones. Two edges claiming the same active slot make
        the matching unrealizable and raise ScheduleConflictError.
        """
        active = [0] * self.period_len
        cat = [0.0] * self.period_len
        claimed: dict[int, tuple[int, int]] = {}
        for edge in self.edges:
            t = max(edge)
            if t > self.period_len:
                raise ValueError(
                    f"edge {edge} activates at slot {t} beyond period_len {self.period_len}"
                )
            if t in claimed:
                raise ScheduleConflictError(
                    f"edges {claimed[t]} and {edge} both activate at slot {t}"
                )
            claimed[t] = edge
            active[t - 1] = 1
            cat[t - 1] = 1.0 if edge[0] == edge[1] else self.eta
        return Schedule(self.period_len, tuple(active), tuple(active), tuple(cat))

    def summary_dict(self) -> dict:
        """The fields of to_json_dict other than the edge list."""
        return {
            "sync": self.sync_count,
            "async": self.async_count,
            "cat": self.cat_total,
            "sat": self.sat_total,
        }

    def to_json_dict(self) -> dict:
        edges = [{"u": u, "v": v, "kind": "sync" if u == v else "async"} for u, v in self.edges]
        return {**self.summary_dict(), "edges": edges}


def assert_energy_feasible(schedule: Schedule, trace_u: EnergyTrace, trace_v: EnergyTrace) -> None:
    """Prefix energy budget: cumulative activity never exceeds cumulative
    harvest for either device. Checked directly on the raw sequences,
    independent of how the schedule was built; raises FeasibilityError
    naming the device and the first overspent slot."""
    for name, a, trace in (("u", schedule.a_u, trace_u), ("v", schedule.a_v, trace_v)):
        spent = np.cumsum(np.asarray(a, dtype=np.int64))
        gained = np.cumsum(trace.states, dtype=np.int64)
        bad = np.flatnonzero(spent > gained)
        if bad.size:
            t = int(bad[0]) + 1
            raise FeasibilityError(
                f"device {name} overspends by slot {t}: "
                f"{int(spent[bad[0]])} active slots vs {int(gained[bad[0]])} harvested units"
            )
