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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .graph import Edge, Matching, Schedule, schedule_from_matching
from .traces import DEFAULT_SEED, EnergyTrace, device_stream


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
    """Matching, realized schedule and waste accounting for one online run."""

    matching: Matching
    schedule: Schedule
    eta: float
    mode: OnlineMode
    period_len: int
    sync_count: int
    async_count: int
    cat_total: float
    sat_total: float
    wasted_units: int

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


# ---------------------------------------------------------------------------
# Batch cores. Both take boolean arrays (arrivals and decisions) and return
# (sync_slots, async_pairs, wasted_units); slots are 1-based. The stepwise
# OnlineSimulator below implements the same rules one slot at a time and the
# test suite pins the two paths to bit-identical outputs.
# ---------------------------------------------------------------------------


def _matching_mode_events(b_u, b_v, d_u, d_v):
    sync_mask = b_u & b_v & d_u & d_v
    sync_slots = np.flatnonzero(sync_mask) + 1
    wasted = int((b_u & d_u & ~sync_mask).sum()) + int((b_v & d_v & ~sync_mask).sum())

    ev_u = np.flatnonzero(b_u & ~d_u)
    ev_v = np.flatnonzero(b_v & ~d_v)
    events = sorted(
        [(int(t) + 1, 0, bool(d_v[t])) for t in ev_u]
        + [(int(t) + 1, 1, bool(d_u[t])) for t in ev_v]
    )
    bank_u: list[int] = []
    bank_v: list[int] = []
    async_pairs: list[tuple[int, int]] = []
    for t, side, partner_active in events:
        if side == 0:  # device U slept and its vertex arrived
            if partner_active and bank_v:
                async_pairs.append((t, bank_v.pop()))
            else:
                bank_u.append(t)
        else:
            if partner_active and bank_u:
                async_pairs.append((bank_u.pop(), t))
            else:
                bank_v.append(t)
    wasted += len(bank_u) + len(bank_v)
    return sync_slots, async_pairs, wasted


def _slot_sim_events(b_u, b_v, d_u, d_v):
    sync_mask = b_u & b_v & d_u & d_v
    sync_slots = np.flatnonzero(sync_mask) + 1

    dep_u = np.flatnonzero(b_u & ~d_u)
    dep_v = np.flatnonzero(b_v & ~d_v)
    joint = d_u & d_v
    cand_u_direct = np.flatnonzero(b_u & ~b_v & joint)  # V would debit its bank
    cand_v_direct = np.flatnonzero(b_v & ~b_u & joint)  # U would debit its bank
    events = sorted(
        [(int(t) + 1, 0) for t in dep_u]
        + [(int(t) + 1, 1) for t in dep_v]
        + [(int(t) + 1, 2) for t in cand_u_direct]
        + [(int(t) + 1, 3) for t in cand_v_direct]
    )
    bank_u: list[int] = []
    bank_v: list[int] = []
    async_pairs: list[tuple[int, int]] = []
    realized_direct = 0
    for t, kind in events:
        if kind == 0:
            bank_u.append(t)
        elif kind == 1:
            bank_v.append(t)
        elif kind == 2:
            if bank_v:
                async_pairs.append((t, bank_v.pop()))
                realized_direct += 1
        else:
            if bank_u:
                async_pairs.append((bank_u.pop(), t))
                realized_direct += 1

    lone_active = int((b_u & d_u & ~sync_mask).sum()) + int((b_v & d_v & ~sync_mask).sum())
    wasted = lone_active - realized_direct + len(bank_u) + len(bank_v)
    return sync_slots, async_pairs, wasted


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
    """Run one online trial on prepared boolean arrays.

    Returns (sync_slots, async_pairs, wasted_units). Exposed for the Monte
    Carlo harness, which pre-draws decision arrays in bulk.
    """
    if mode == OnlineMode.MATCHING:
        return _matching_mode_events(b_u, b_v, d_u, d_v)
    return _slot_sim_events(b_u, b_v, d_u, d_v)


def _build_result(
    sync_slots,
    async_pairs,
    wasted: int,
    period_len: int,
    cfg: OnlineConfig,
) -> OnlineResult:
    edges = [Edge(int(t), int(t)) for t in sync_slots]
    edges.extend(Edge(int(u), int(v)) for u, v in async_pairs)
    matching = Matching(edges=tuple(edges))
    sync_count = len(sync_slots)
    async_count = len(async_pairs)
    cat_total = math.fsum([1.0] * sync_count + [cfg.eta] * async_count)
    return OnlineResult(
        matching=matching,
        schedule=schedule_from_matching(matching, period_len, cfg.eta),
        eta=cfg.eta,
        mode=cfg.mode,
        period_len=period_len,
        sync_count=sync_count,
        async_count=async_count,
        cat_total=cat_total,
        sat_total=float(sync_count),
        wasted_units=int(wasted),
    )


def online_duty_cycle(
    trace_u: EnergyTrace, trace_v: EnergyTrace, cfg: OnlineConfig
) -> OnlineResult:
    """Run the online scheduler over a trace pair.

    The energy state of slot t is only ever combined with decisions drawn at
    slot t and with bank contents from earlier slots; OnlineSimulator is the
    slot-by-slot equivalent and the test suite keeps the two in lockstep.
    """
    if trace_u.period_len != trace_v.period_len:
        raise ValueError(
            f"traces disagree on period length: {trace_u.period_len} vs {trace_v.period_len}"
        )
    b_u = trace_u.as_array().astype(bool)
    b_v = trace_v.as_array().astype(bool)
    d_u, d_v = _decision_arrays(b_u, b_v, cfg, trace_u.device_id, trace_v.device_id)
    sync_slots, async_pairs, wasted = simulate_arrays(b_u, b_v, d_u, d_v, cfg.mode)
    return _build_result(sync_slots, async_pairs, wasted, trace_u.period_len, cfg)


class OnlineSimulator:
    """Slot-by-slot online scheduler.

    Call step(b_u_t, b_v_t) once per slot with just that slot's energy
    states; the simulator cannot see further. After period_len steps,
    result() returns the same OnlineResult as the batch online_duty_cycle.
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
        self._t = 0
        self._harvest_count = [0, 0]  # history for estimated probabilities
        # stored one-slot units, remembered by their harvest slot
        self.bank_u: list[int] = []
        self.bank_v: list[int] = []
        self._sync_slots: list[int] = []
        self._async_pairs: list[tuple[int, int]] = []
        self._spent = 0

    def _prob(self, device: int, b_t: int) -> float:
        if self._probs is not None:
            return self._probs[device]
        if self._t <= self.cfg.warmup:
            self._harvest_count[device] += b_t
        horizon = min(self._t, self.cfg.warmup)
        return self._harvest_count[device] / horizon

    def step(self, b_u_t: int, b_v_t: int) -> None:
        if self._t >= self.period_len:
            raise RuntimeError("period already complete")
        self._t += 1
        t = self._t
        b_u = bool(b_u_t)
        b_v = bool(b_v_t)
        d_u = self._rng_u.random() < self._prob(0, int(b_u))
        d_v = self._rng_v.random() < self._prob(1, int(b_v))
        if self.cfg.mode == OnlineMode.MATCHING:
            self._step_matching(t, b_u, b_v, d_u, d_v)
        else:
            self._step_slot_sim(t, b_u, b_v, d_u, d_v)

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
        wasted = self._spent + len(self.bank_u) + len(self.bank_v)
        return _build_result(
            np.asarray(self._sync_slots, dtype=np.int64),
            self._async_pairs,
            wasted,
            self.period_len,
            self.cfg,
        )
