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

The per-slot rules of each mode exist twice: OnlineSimulator applies them
to one pair and records the edges (online_duty_cycle feeds it decisions
drawn in bulk), and simulate_arrays, the slot-major count kernel of the
Monte Carlo harness, applies them to n trials at once and only counts.
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
    float64 arrays of shape (n,). Sync edges and lone-active spends depend on
    the current slot only. The banks carry state from slot to slot, so they
    are integer counters of shape (n,), updated one slot at a time for all
    trials together. OnlineSimulator applies the same rules to a single
    trial and records the edges; the test suite holds the two to equal
    counts.
    """
    sync = b_u & b_v & d_u & d_v
    lone = np.count_nonzero(b_u & d_u & ~sync, axis=1)
    lone += np.count_nonzero(b_v & d_v & ~sync, axis=1)
    dep_u = b_u & ~d_u  # a sleeping harvester banks its unit
    dep_v = b_v & ~d_v
    if mode == OnlineMode.MATCHING:
        # ...unless the partner is active and has a banked vertex to pair with
        want_u, want_v = dep_u & d_v, dep_v & d_u
    else:
        # both active, one harvests and the other debits its bank
        joint = d_u & d_v
        want_u, want_v = b_u & ~b_v & joint, b_v & ~b_u & joint
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
    wasted = lone + bank_u + bank_v
    if mode == OnlineMode.SLOT_SIM:
        wasted -= asyn  # the lone harvester of an async edge was not wasted
    return np.count_nonzero(sync, axis=1).astype(float), asyn.astype(float), wasted.astype(float)


def online_duty_cycle(
    trace_u: EnergyTrace, trace_v: EnergyTrace, cfg: OnlineConfig
) -> OnlineResult:
    """Run the online scheduler over a trace pair.

    Draws every slot's decisions in bulk from the sub-streams that
    OnlineSimulator.step draws from one slot at a time, then feeds the slots
    in order through the simulator's per-slot rules. The energy state of
    slot t is thus only ever combined with decisions drawn at slot t and
    with bank contents from earlier slots.
    """
    period = pair_period(trace_u, trace_v)
    b_u, b_v = trace_u.states, trace_v.states
    d_u, d_v = _decision_arrays(b_u, b_v, cfg, trace_u.device_id, trace_v.device_id)
    sim = OnlineSimulator(period, cfg, trace_u.device_id, trace_v.device_id)
    for slot in zip(b_u.tolist(), b_v.tolist(), d_u.tolist(), d_v.tolist()):
        sim._advance(*slot)
    return sim.result()


class OnlineSimulator:
    """Slot-by-slot online scheduler.

    Call step(b_u_t, b_v_t) once per slot with just that slot's energy
    states; the simulator cannot see further. After period_len steps,
    result() returns the same OnlineResult as online_duty_cycle, which draws
    the same decisions in bulk and applies the same per-slot rules.
    """

    def __init__(
        self,
        period_len: int,
        cfg: OnlineConfig,
        id_u: str = "u",
        id_v: str = "v",
    ) -> None:
        if period_len < 0:
            raise ValueError(f"period_len must be non-negative, got {period_len}")
        self.cfg = cfg
        self.period_len = period_len
        self._rng_u = device_stream(cfg.seed, id_u, purpose=1)
        self._rng_v = device_stream(cfg.seed, id_v, purpose=2)
        self._probs = cfg.device_probs()
        self._rule = (
            self._step_matching if cfg.mode == OnlineMode.MATCHING else self._step_slot_sim
        )
        self._t = 0
        self._harvest_count = [0, 0]  # history for estimated probabilities
        # stored one-slot units, remembered by their harvest slot
        self.bank_u: list[int] = []
        self.bank_v: list[int] = []
        self._sync_slots: list[int] = []
        self._async_pairs: list[tuple[int, int]] = []
        self._spent = 0

    def _prob(self, device: int, b_t: int) -> float:
        """Activation probability for the next slot, whose state is b_t."""
        if self._probs is not None:
            return self._probs[device]
        if self._t < self.cfg.warmup:
            self._harvest_count[device] += b_t
        return self._harvest_count[device] / min(self._t + 1, self.cfg.warmup)

    def step(self, b_u_t: int, b_v_t: int) -> None:
        if self._t >= self.period_len:
            raise RuntimeError("period already complete")
        b_u = bool(b_u_t)
        b_v = bool(b_v_t)
        d_u = self._rng_u.random() < self._prob(0, int(b_u))
        d_v = self._rng_v.random() < self._prob(1, int(b_v))
        self._advance(b_u, b_v, d_u, d_v)

    def _advance(self, b_u: bool, b_v: bool, d_u: bool, d_v: bool) -> None:
        """Apply the mode's rules to the next slot, given its decisions."""
        self._t += 1
        self._rule(self._t, b_u, b_v, d_u, d_v)

    def _step_matching(self, t: int, b_u: bool, b_v: bool, d_u: bool, d_v: bool) -> None:
        if b_u and b_v and d_u and d_v:
            self._sync_slots.append(t)
            return
        if b_u and d_u:
            self._spent += 1
        if b_v and d_v:
            self._spent += 1
        if b_u and not d_u:
            if d_v and self.bank_v:
                self._async_pairs.append((t, self.bank_v.pop()))
            else:
                self.bank_u.append(t)
        if b_v and not d_v:
            if d_u and self.bank_u:
                self._async_pairs.append((self.bank_u.pop(), t))
            else:
                self.bank_v.append(t)

    def _step_slot_sim(self, t: int, b_u: bool, b_v: bool, d_u: bool, d_v: bool) -> None:
        eff_u = d_u and (b_u or bool(self.bank_u))
        eff_v = d_v and (b_v or bool(self.bank_v))
        u_participates = False
        v_participates = False
        if eff_u and eff_v:
            if b_u and b_v:
                self._sync_slots.append(t)
                u_participates = v_participates = True
            elif b_u:
                self._async_pairs.append((t, self.bank_v.pop()))
                u_participates = True
            elif b_v:
                self._async_pairs.append((self.bank_u.pop(), t))
                v_participates = True
            # both running on stored energy carries no weight; banks stay put
        if b_u and d_u and not u_participates:
            self._spent += 1
        if b_v and d_v and not v_participates:
            self._spent += 1
        if b_u and not d_u:
            self.bank_u.append(t)
        if b_v and not d_v:
            self.bank_v.append(t)

    def result(self) -> OnlineResult:
        if self._t != self.period_len:
            raise RuntimeError(
                f"period incomplete: {self._t} of {self.period_len} slots stepped"
            )
        edges = [Edge(t, t) for t in self._sync_slots]
        edges.extend(Edge(u, v) for u, v in self._async_pairs)
        matching = Matching(edges=tuple(edges))
        sync_count = len(self._sync_slots)
        return OnlineResult(
            matching=matching,
            eta=self.cfg.eta,
            mode=self.cfg.mode,
            period_len=self.period_len,
            sync_count=sync_count,
            async_count=len(self._async_pairs),
            cat_total=matching.total_weight(self.cfg.eta),
            sat_total=float(sync_count),
            wasted_units=self._spent + len(self.bank_u) + len(self.bank_v),
        )
