"""Online duty-cycling: per-slot randomized decisions, no future knowledge.

Each slot, each device independently chooses to be active with probability p
(its harvest probability, given or estimated from its own history) and to
sleep otherwise. Two bookkeeping modes are provided:

* matching mode records edges the way the randomized matcher is specified:
  a joint active decision on a joint arrival yields a synchronous edge; a
  sleeping device whose vertex arrives connects it backward to the most
  recent unconnected vertex of its partner, provided the partner chose to be
  active this slot (no activity, no edge). Vertexes of devices that were
  active and harvesting but formed no edge are spent and stay ineligible.

* slot-sim mode runs the operational semantics with explicit energy banks:
  sleeping harvesters store their unit, and CAT accrues in a slot only when
  both devices are effectively active, worth 1 when both harvest and eta
  when exactly one harvests while the other debits a banked unit.

Both modes draw one activation decision per device per slot from the same
seeded sub-streams, so they agree on every synchronous edge, and both only
ever read the energy state of the current slot.

Each mode's per-slot rules are written once, in _slot_rules, and walked
twice. online_duty_cycle keeps each bank as a list of harvest slots and
records one pair's edges. simulate_arrays, the slot-major count kernel of
the Monte Carlo harness and the heterogeneity sweep, keeps each bank as an
integer counter per trial and only counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .graph import Edge, Matching, Schedule, schedule_from_matching
from .traces import DEFAULT_SEED, EnergyTrace, device_stream, pair_period


class OnlineMode(str, Enum):
    MATCHING = "matching"
    SLOT_SIM = "slotsim"


@dataclass(frozen=True)
class OnlineConfig:
    """Parameters of one online run.

    prob_active may be a single probability for both devices, a (p_u, p_v)
    pair, or None to estimate each device's probability causally from its
    own trace: the running mean of its energy states up to the current slot,
    frozen once `warmup` slots have been seen.
    """

    prob_active: float | tuple[float, float] | None = None
    eta: float = 0.75
    seed: int = DEFAULT_SEED
    mode: OnlineMode = OnlineMode.MATCHING
    warmup: int = 60

    def __post_init__(self) -> None:
        if not (0.0 < self.eta <= 1.0):
            raise ValueError(f"eta must lie in (0, 1], got {self.eta}")
        if self.warmup < 1:
            raise ValueError(f"warmup must be at least 1, got {self.warmup}")
        object.__setattr__(self, "mode", OnlineMode(self.mode))
        for p in self.device_probs() or ():
            if not (0.0 <= p <= 1.0):
                raise ValueError(f"prob_active must lie in [0, 1], got {p}")

    def device_probs(self) -> tuple[float, float] | None:
        if self.prob_active is None:
            return None
        if isinstance(self.prob_active, (int, float)):
            return (float(self.prob_active), float(self.prob_active))
        if len(self.prob_active) != 2:
            raise ValueError(
                f"prob_active must be one probability or a pair, got {self.prob_active!r}"
            )
        return (float(self.prob_active[0]), float(self.prob_active[1]))


@dataclass(frozen=True)
class OnlineResult:
    """Matching and waste accounting for one online run."""

    matching: Matching
    eta: float
    mode: OnlineMode
    period_len: int
    sync_count: int
    async_count: int
    cat_total: float
    sat_total: float
    wasted_units: int

    def schedule(self) -> Schedule:
        return schedule_from_matching(self.matching, self.period_len, self.eta)

    def to_json_dict(self) -> dict:
        return {
            "sync": self.sync_count,
            "async": self.async_count,
            "cat": self.cat_total,
            "sat": self.sat_total,
            "edges": self.matching.to_json_dict(self.eta)["edges"],
            "wasted_units": self.wasted_units,
            "mode": self.mode.value,
        }


def approx_ratio_bound(p: float) -> float:
    """Guaranteed fraction of the offline optimum in expectation: 1 - e^(-p^2)."""
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"p must lie in [0, 1], got {p}")
    return -math.expm1(-p * p)


def _estimated_probs(states: np.ndarray, warmup: int) -> np.ndarray:
    """Causal per-slot activation probabilities from a device's own history.

    Slot t uses the mean of the first min(t, warmup) states; the current
    slot's state is local knowledge, never a future one.
    """
    n = states.shape[0]
    csum = np.cumsum(states.astype(np.int64))
    horizon = np.minimum(np.arange(1, n + 1), warmup)
    return csum[horizon - 1] / horizon


def _decision_arrays(
    b_u: np.ndarray,
    b_v: np.ndarray,
    cfg: OnlineConfig,
    id_u: str,
    id_v: str,
) -> tuple[np.ndarray, np.ndarray]:
    n = b_u.shape[0]
    rng_u = device_stream(cfg.seed, id_u, purpose=1)
    rng_v = device_stream(cfg.seed, id_v, purpose=2)
    probs = cfg.device_probs()
    if probs is None:
        p_u = _estimated_probs(b_u, cfg.warmup)
        p_v = _estimated_probs(b_v, cfg.warmup)
    else:
        p_u = np.full(n, probs[0])
        p_v = np.full(n, probs[1])
    return rng_u.random(n) < p_u, rng_v.random(n) < p_v


def _slot_rules(b_u, b_v, d_u, d_v, mode: OnlineMode):
    """Apply a mode's per-slot rules to boolean arrivals and decisions.

    Takes (T,) arrays for one pair or (n, T) arrays for n trials, time on
    the last axis, and returns (sync, lone, dep_u, dep_v, want_u, want_v):

    * sync: both devices harvest and are active, a synchronous edge;
    * lone: active harvesters outside a synchronous edge, counted along the
      last axis;
    * dep_u, dep_v: a sleeping harvester banks its unit, unless it pairs;
    * want_u, want_v: the device's fresh unit pairs with the partner's most
      recent banked unit, if that bank is not empty.

    Everything but the banks depends on the current slot only; a bank walk
    carries the banks from slot to slot.
    """
    sync = b_u & b_v & d_u & d_v
    lone = np.count_nonzero(b_u & d_u & ~sync, axis=-1)
    lone += np.count_nonzero(b_v & d_v & ~sync, axis=-1)
    dep_u = b_u & ~d_u
    dep_v = b_v & ~d_v
    if mode == OnlineMode.MATCHING:
        # a sleeper pairs only if the partner is active
        want_u, want_v = dep_u & d_v, dep_v & d_u
    else:
        # both active, one harvests and the other debits its bank
        joint = d_u & d_v
        want_u, want_v = b_u & ~b_v & joint, b_v & ~b_u & joint
    return sync, lone, dep_u, dep_v, want_u, want_v


def _wasted(lone, banked, asyn, mode: OnlineMode):
    """Harvested units never spent on CAT: lone spends plus banked leftovers."""
    if mode == OnlineMode.SLOT_SIM:
        return lone + banked - asyn  # the lone harvester of an async edge was not wasted
    return lone + banked


def simulate_arrays(
    b_u: np.ndarray,
    b_v: np.ndarray,
    d_u: np.ndarray,
    d_v: np.ndarray,
    mode: OnlineMode,
):
    """Count the online scheduler's outcome on n trials at once.

    Takes boolean (n, T) arrays of arrivals and activation decisions, row i
    being trial i, and returns the per-trial (sync, async, wasted) counts as
    float64 arrays of shape (n,). The rules come from _slot_rules; this walk
    keeps each bank as an integer counter of shape (n,), updated one slot at
    a time for all trials together. online_duty_cycle walks the same rules
    for one pair and records the edges.
    """
    sync, lone, dep_u, dep_v, want_u, want_v = _slot_rules(b_u, b_v, d_u, d_v, mode)
    bank_u = np.zeros(b_u.shape[0], dtype=np.int64)
    bank_v = np.zeros_like(bank_u)
    asyn = np.zeros_like(bank_u)
    for t in range(b_u.shape[1]):
        pair_u = want_u[:, t] & (bank_v > 0)
        pair_v = want_v[:, t] & (bank_u > 0)
        bank_v -= pair_u
        bank_u -= pair_v
        bank_u += dep_u[:, t] & ~pair_u
        bank_v += dep_v[:, t] & ~pair_v
        asyn += pair_u
        asyn += pair_v
    wasted = _wasted(lone, bank_u + bank_v, asyn, mode)
    return np.count_nonzero(sync, axis=1).astype(float), asyn.astype(float), wasted.astype(float)


def _walk_pair(
    b_u: np.ndarray, b_v: np.ndarray, d_u: np.ndarray, d_v: np.ndarray, cfg: OnlineConfig
) -> OnlineResult:
    """Walk one pair's (T,) arrivals and decisions and record the edges.

    Each bank is a list of harvest slots, so a pairing pops the partner's
    most recent banked unit. Only slots that bank or may pair are visited.
    As in simulate_arrays, a slot's pair decisions read the banks as they
    stood before the slot; then the pairing pops, then the sleeper pushes.
    """
    sync, lone, dep_u, dep_v, want_u, want_v = _slot_rules(b_u, b_v, d_u, d_v, cfg.mode)
    edges = [Edge(t, t) for t in (np.flatnonzero(sync) + 1).tolist()]
    sync_count = len(edges)
    visit = np.flatnonzero(dep_u | dep_v | want_u | want_v)
    bank_u: list[int] = []
    bank_v: list[int] = []
    masks = (m[visit].tolist() for m in (dep_u, dep_v, want_u, want_v))
    for t, dep_u_t, dep_v_t, want_u_t, want_v_t in zip((visit + 1).tolist(), *masks):
        pair_u = want_u_t and len(bank_v) > 0
        pair_v = want_v_t and len(bank_u) > 0
        if pair_u:
            edges.append(Edge(t, bank_v.pop()))
        if pair_v:
            edges.append(Edge(bank_u.pop(), t))
        if dep_u_t and not pair_u:
            bank_u.append(t)
        if dep_v_t and not pair_v:
            bank_v.append(t)
    async_count = len(edges) - sync_count
    matching = Matching(edges=tuple(edges))
    return OnlineResult(
        matching=matching,
        eta=cfg.eta,
        mode=cfg.mode,
        period_len=b_u.shape[0],
        sync_count=sync_count,
        async_count=async_count,
        cat_total=matching.total_weight(cfg.eta),
        sat_total=float(sync_count),
        wasted_units=_wasted(int(lone), len(bank_u) + len(bank_v), async_count, cfg.mode),
    )


def online_duty_cycle(
    trace_u: EnergyTrace, trace_v: EnergyTrace, cfg: OnlineConfig
) -> OnlineResult:
    """Run the online scheduler over a trace pair.

    Draws every slot's decisions in bulk, each from the state of its own
    slot and the device's history, then walks the mode's rules over the
    slots in order. The energy state of slot t is thus only ever combined
    with decisions drawn at slot t and with bank contents from earlier
    slots.
    """
    pair_period(trace_u, trace_v)
    b_u, b_v = trace_u.states, trace_v.states
    d_u, d_v = _decision_arrays(b_u, b_v, cfg, trace_u.device_id, trace_v.device_id)
    return _walk_pair(b_u, b_v, d_u, d_v, cfg)
