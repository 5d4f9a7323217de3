"""Energy-state graph, matchings, schedules and results for one device pair.

A vertex is one harvest slot of one device, read straight from the pair's
traces. A matching edge pairs one slot per side; same-slot edges are
synchronous (weight 1, both devices run on freshly harvested energy) and
cross-slot edges are asynchronous (weight eta, the earlier unit is stored
and spent at the later slot). Each vertex may carry at most one edge, and no
two edges may activate the devices in the same slot. PairResult, a
matching with the totals it fixes, is the offline and online schedulers'
shared result type.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter

import numpy as np

from .traces import EnergyTrace

SYNC = "sync"
ASYNC = "async"


class ExclusivityError(ValueError):
    """A vertex appears in more than one matching edge."""


class ScheduleConflictError(ValueError):
    """Two edges would activate the pair in the same slot."""


class FeasibilityError(ValueError):
    """A schedule spends more energy than harvested on some prefix."""


@dataclass(frozen=True, order=True)
class Edge:
    """Matching edge between slot u_slot of device U and v_slot of device V."""

    u_slot: int
    v_slot: int

    def __post_init__(self) -> None:
        if self.u_slot < 1 or self.v_slot < 1:
            raise ValueError(f"edge slots must be 1-based, got ({self.u_slot}, {self.v_slot})")

    @property
    def kind(self) -> str:
        return SYNC if self.u_slot == self.v_slot else ASYNC

    @property
    def is_sync(self) -> bool:
        return self.u_slot == self.v_slot

    @property
    def active_slot(self) -> int:
        """Slot where both devices switch on: the later endpoint, because a
        stored unit can only be spent after it was harvested."""
        return max(self.u_slot, self.v_slot)


def check_eta(eta: float) -> None:
    """ValueError unless the charging efficiency eta lies in (0, 1]."""
    if not (0.0 < eta <= 1.0):
        raise ValueError(f"eta must lie in (0, 1], got {eta}")


def cat_from_counts(sync: int, async_count: int, eta: float) -> float:
    """The CAT of sync edges of weight 1 and async edges of weight eta.

    The exact sum, rounded once to the nearest float: the value math.fsum
    returns over the per-edge weights, without a per-edge walk. eta is
    exactly num / den, and Python's int division rounds correctly.
    """
    num, den = eta.as_integer_ratio()
    return (sync * den + async_count * num) / den


@dataclass(frozen=True)
class Matching:
    """A set of vertex-exclusive edges, sorted by (u_slot, v_slot) for
    reproducibility: the order Edge's comparisons define."""

    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        seen_u: set[int] = set()
        seen_v: set[int] = set()
        for e in self.edges:
            if e.u_slot in seen_u:
                raise ExclusivityError(f"U-vertex at slot {e.u_slot} used by more than one edge")
            if e.v_slot in seen_v:
                raise ExclusivityError(f"V-vertex at slot {e.v_slot} used by more than one edge")
            seen_u.add(e.u_slot)
            seen_v.add(e.v_slot)
        # a key tuple compares faster than the dataclass's generated __lt__
        edges = tuple(sorted(self.edges, key=attrgetter("u_slot", "v_slot")))
        object.__setattr__(self, "edges", edges)

    @property
    def sync_count(self) -> int:
        return sum(1 for e in self.edges if e.u_slot == e.v_slot)

    @property
    def async_count(self) -> int:
        return len(self.edges) - self.sync_count

    def total_weight(self, eta: float) -> float:
        sync = self.sync_count
        return cat_from_counts(sync, len(self.edges) - sync, eta)


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


def schedule_from_matching(matching: Matching, period_len: int, eta: float) -> Schedule:
    """Realize a matching as per-slot decisions.

    Both devices switch on at each edge's active slot; the per-slot CAT is 1
    at synchronous active slots and eta at asynchronous ones. Two edges
    claiming the same active slot make the matching unrealizable and raise
    ScheduleConflictError.
    """
    a_u = [0] * period_len
    a_v = [0] * period_len
    cat = [0.0] * period_len
    claimed: dict[int, Edge] = {}
    for e in matching.edges:
        t = e.active_slot
        if t > period_len:
            raise ValueError(f"edge {e} activates at slot {t} beyond period_len {period_len}")
        if t in claimed:
            raise ScheduleConflictError(
                f"edges {claimed[t]} and {e} both activate at slot {t}"
            )
        claimed[t] = e
        a_u[t - 1] = 1
        a_v[t - 1] = 1
        cat[t - 1] = 1.0 if e.is_sync else eta
    return Schedule(period_len=period_len, a_u=tuple(a_u), a_v=tuple(a_v), cat=tuple(cat))


@dataclass(frozen=True)
class PairResult:
    """A scheduler's matching on one trace pair, with its totals.

    The totals are derived from the matching once, at construction, from
    one count of its sync edges: the sync and async edge counts, the CAT
    (each edge's weight at eta, summed with correct rounding) and the SAT
    (the sync edges' weight).
    """

    matching: Matching
    eta: float
    period_len: int
    sync_count: int = field(init=False)
    async_count: int = field(init=False)
    cat_total: float = field(init=False)
    sat_total: float = field(init=False)

    def __post_init__(self) -> None:
        sync = self.matching.sync_count
        async_count = len(self.matching.edges) - sync
        object.__setattr__(self, "sync_count", sync)
        object.__setattr__(self, "async_count", async_count)
        object.__setattr__(self, "cat_total", cat_from_counts(sync, async_count, self.eta))
        object.__setattr__(self, "sat_total", float(sync))

    def schedule(self) -> Schedule:
        return schedule_from_matching(self.matching, self.period_len, self.eta)

    def summary_dict(self) -> dict:
        """The fields of to_json_dict other than the edge list."""
        return {
            "sync": self.sync_count,
            "async": self.async_count,
            "cat": self.cat_total,
            "sat": self.sat_total,
        }

    def to_json_dict(self) -> dict:
        edges = [{"u": e.u_slot, "v": e.v_slot, "kind": e.kind} for e in self.matching.edges]
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
