"""Energy-state graph, matchings and schedules for one device pair.

The graph's two vertex sets are the harvest slots of the two devices. A
matching edge pairs one slot per side; same-slot edges are synchronous
(weight 1, both devices run on freshly harvested energy) and cross-slot
edges are asynchronous (weight eta, the earlier unit is stored and spent at
the later slot). Each vertex may carry at most one edge, and no two edges
may activate the devices in the same slot.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .traces import EnergyTrace, pair_period

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

    def weight(self, eta: float) -> float:
        return 1.0 if self.is_sync else eta


@dataclass(frozen=True)
class StateGraph:
    """Vertex sets (harvest slots) of a device pair plus the experiment eta."""

    set_a: tuple[int, ...]
    set_b: tuple[int, ...]
    eta: float
    period_len: int

    def __post_init__(self) -> None:
        if not (0.0 < self.eta <= 1.0):
            raise ValueError(f"eta must lie in (0, 1], got {self.eta}")
        for name, slots in (("set_a", self.set_a), ("set_b", self.set_b)):
            if list(slots) != sorted(set(slots)):
                raise ValueError(f"{name} must contain distinct slots sorted ascending")
            if slots and (slots[0] < 1 or slots[-1] > self.period_len):
                raise ValueError(f"{name} slots must lie in 1..{self.period_len}")


@dataclass(frozen=True)
class Matching:
    """A set of vertex-exclusive edges, kept sorted for reproducibility."""

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
        object.__setattr__(self, "edges", tuple(sorted(self.edges)))

    @property
    def sync_count(self) -> int:
        return sum(1 for e in self.edges if e.is_sync)

    @property
    def async_count(self) -> int:
        return sum(1 for e in self.edges if not e.is_sync)

    def total_weight(self, eta: float) -> float:
        return math.fsum(e.weight(eta) for e in self.edges)

    def to_json_dict(self, eta: float) -> dict:
        return {
            "edges": [{"u": e.u_slot, "v": e.v_slot, "kind": e.kind} for e in self.edges],
            "eta": eta,
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> "Matching":
        return cls(edges=tuple(Edge(int(e["u"]), int(e["v"])) for e in payload["edges"]))

    def to_json(self, eta: float) -> str:
        return json.dumps(self.to_json_dict(eta), sort_keys=True)


def build_graph(trace_u: EnergyTrace, trace_v: EnergyTrace, eta: float) -> StateGraph:
    """Collect each device's harvest slots into the bipartite vertex sets."""
    return StateGraph(
        set_a=trace_u.harvest_slots(),
        set_b=trace_v.harvest_slots(),
        eta=eta,
        period_len=pair_period(trace_u, trace_v),
    )


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


def energy_feasible(schedule: Schedule, trace_u: EnergyTrace, trace_v: EnergyTrace) -> bool:
    """Whether assert_energy_feasible accepts the schedule."""
    try:
        assert_energy_feasible(schedule, trace_u, trace_v)
    except FeasibilityError:
        return False
    return True


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


def write_schedule_csv(schedule: Schedule, path) -> None:
    """Schedule CSV with header slot,a_u,a_v,cat."""
    import csv

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["slot", "a_u", "a_v", "cat"])
        for t in range(schedule.period_len):
            writer.writerow([t + 1, schedule.a_u[t], schedule.a_v[t], repr(schedule.cat[t])])
