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

Each mode's per-slot rules are written once, in _slot_rules, and their
banks are carried two ways. online_duty_cycle records one pair's edges
through graph.lifo_walk, the bank walk it shares with the offline greedy:
each bank is a list of harvest slots, and a pairing takes the partner's
most recent banked unit. simulate_arrays, the count kernel of the Monte
Carlo harness and the heterogeneity sweep, only counts, and needs no walk
at all: a bank is the prefix sum of its deposits minus the partner's
pairing attempts, lifted by the attempts that failed on an empty bank, so
its end value and the number of failures follow from the sum's prefix
minimum. Slotsim gives each bank its own floor; in matching mode a failed
attempt banks the attempting unit, so both banks share one. The kernel
applies the rules to np.packbits rows, eight slots a byte, counts masks
by popcount and takes each prefix sum a byte at a time, through two
65,536-entry tables of a byte pair's net step and low point.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .graph import PairResult, lifo_walk
from .traces import (
    DEFAULT_SEED,
    EnergyTrace,
    bernoulli,
    check_count,
    check_eta,
    check_packed,
    check_prob,
    check_seed,
    count_packed,
    device_stream,
    pair_period,
)


class OnlineMode(str, Enum):
    MATCHING = "matching"
    SLOT_SIM = "slotsim"


@dataclass(frozen=True)
class OnlineConfig:
    """Policy of one online run; the charging efficiency eta is an argument
    of online_duty_cycle, as it is of the offline scheduler.

    prob_active may be a single probability for both devices, a (p_u, p_v)
    pair, or None to estimate each device's probability causally from its
    own trace: the running mean of its energy states up to the current slot,
    frozen once `warmup` slots have been seen.
    """

    prob_active: float | tuple[float, float] | None = None
    seed: int = DEFAULT_SEED
    mode: OnlineMode = OnlineMode.MATCHING
    warmup: int = 60

    def __post_init__(self) -> None:
        object.__setattr__(self, "warmup", check_count("warmup", self.warmup))
        object.__setattr__(self, "seed", check_seed(self.seed))
        object.__setattr__(self, "mode", OnlineMode(self.mode))
        self.device_probs()  # checks prob_active

    def device_probs(self) -> tuple[float, float] | None:
        probs = self.prob_active
        if probs is None:
            return None
        if isinstance(probs, numbers.Real):  # numpy scalars too
            probs = (probs, probs)
        elif len(probs) != 2:
            raise ValueError(f"prob_active must be one probability or a pair, got {probs!r}")
        return tuple(check_prob("prob_active", float(p)) for p in probs)


@dataclass(frozen=True)
class OnlineResult(PairResult):
    """An online run's matching and totals, its mode and its wasted units."""

    mode: OnlineMode
    wasted_units: int

    def summary_dict(self) -> dict:
        summary = super().summary_dict()
        return {**summary, "wasted_units": self.wasted_units, "mode": self.mode.value}


def approx_ratio_bound(p: float) -> float:
    """Guaranteed fraction of the offline optimum in expectation: 1 - e^(-p^2)."""
    check_prob("p", p)
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
        probs = (_estimated_probs(b_u, cfg.warmup), _estimated_probs(b_v, cfg.warmup))
    return bernoulli(rng_u, n, probs[0]), bernoulli(rng_v, n, probs[1])


def _slot_rules(b_u, b_v, d_u, d_v, mode: OnlineMode):
    """Apply a mode's per-slot rules to arrivals and decisions.

    Takes boolean (T,) arrays for one pair, or the np.packbits rows of
    (n, T) arrays for n trials, time on the last axis; & and ~ act bit by
    bit on either, and every mask below is a conjunction with an arrival
    or a decision, so packing's zero padding stays zero. Returns the masks
    (sync, lone, dep_u, dep_v, want_u, want_v):

    * sync: both devices harvest and are active, a synchronous edge;
    * lone: a device harvests and is active outside a synchronous edge. At
      most one device can be such a harvester in a slot, as two would make
      the slot sync, so one mask counts the lone harvesters of both;
    * dep_u, dep_v: a sleeping harvester banks its unit, unless it pairs;
    * want_u, want_v: the device's fresh unit pairs with the partner's most
      recent banked unit, if that bank is not empty.

    Everything but the banks depends on the current slot only; a bank walk
    carries the banks from slot to slot.
    """
    sync = b_u & b_v & d_u & d_v
    lone = (b_u & d_u | b_v & d_v) & ~sync
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

    Takes the np.packbits rows of (n, T) arrivals and activation decisions,
    uint8 of shape (n, ceil(T / 8)), eight slots a byte with zero padding,
    row i being trial i; TypeError unless all four are uint8, so a bool
    array is never counted a slot a byte. Returns the per-trial (sync,
    async, wasted) counts as float64 arrays of shape (n,). The rules come
    from _slot_rules, applied to the packed rows, and the bank walks have
    a closed form, so no slot is visited in Python.

    Let s_u be the prefix sum of (dep_u & ~want_u) - want_v: +1 for each
    unit bank u keeps, -1 for each pairing attempt by v on it. An attempt
    on an empty bank fails, so bank_u is s_u lifted by the failures:

    * slotsim: a failed harvester spends alone, so bank u is s_u reflected
      at 0 and -low_u attempts on it failed, low_u = min(0, min s_u);
    * matching: a failed sleeper banks its unit, so each failure lifts both
      banks alike, bank_u - bank_v = s_u - s_v, and both banks share the
      floor low = min(0, min s_u, min s_v), with -low failures in all.

    Each bank ends at s[-1] minus its floor, and async is the number of
    attempts plus the floors. online_duty_cycle walks the same rules slot
    by slot for one pair and records the edges.
    """
    check_packed(b_u, b_v, d_u, d_v)
    sync, lone, dep_u, dep_v, want_u, want_v = _slot_rules(b_u, b_v, d_u, d_v, mode)
    end_u, low_u = _prefix_walk(dep_u & ~want_u, want_v)
    end_v, low_v = _prefix_walk(dep_v & ~want_v, want_u)
    attempts = count_packed(want_u) + count_packed(want_v)
    if mode == OnlineMode.MATCHING:
        low_u = low_v = np.minimum(low_u, low_v)
        asyn = attempts + low_u
    else:
        asyn = attempts + low_u + low_v
    wasted = _wasted(count_packed(lone), end_u - low_u + end_v - low_v, asyn, mode)
    return count_packed(sync).astype(float), asyn.astype(float), wasted.astype(float)


@functools.cache
def _byte_steps() -> tuple[np.ndarray, np.ndarray]:
    """(net, dip) int8 tables over the 65,536 byte pairs up << 8 | down.

    A byte pair holds eight slots of a walk, first slot in the high bit,
    each stepping +1 for an up bit and -1 for a down bit: net is the sum of
    the eight steps, and dip is the least of their eight partial sums
    minus net, the byte's low measured from where the byte ends. Built on
    first use, so runs that count no online mode never build them.
    """
    pair = np.arange(1 << 16, dtype=np.uint16)
    net = np.zeros(1 << 16, dtype=np.int8)
    low = np.full(1 << 16, 8, dtype=np.int8)
    for bit in range(7, -1, -1):
        net += ((pair >> (8 + bit)) & 1).astype(np.int8)
        net -= ((pair >> bit) & 1).astype(np.int8)
        np.minimum(low, net, out=low)
    return net, low - net


def _prefix_walk(up: np.ndarray, down: np.ndarray):
    """End value and floor min(0, min prefix) of the walk cumsum(up - down)
    along the last axis, for np.packbits rows of the up and down masks.

    The walk is taken a byte at a time (_byte_steps): the floor is the
    least of 0 and, over the bytes, the walk after the byte plus its dip.
    Zero padding steps nowhere, so it changes neither.
    """
    net, dip = _byte_steps()
    pair = (up.astype(np.uint16) << 8) | down
    walk = np.cumsum(net.take(pair), axis=-1, dtype=np.int32)
    end = walk[..., -1].copy() if walk.shape[-1] else np.zeros(walk.shape[:-1], np.int32)
    walk += dip.take(pair)  # in place, so a call holds one int32 array of the rows' size
    return end, walk.min(axis=-1, initial=0)


def _walk_pair(
    b_u: np.ndarray,
    b_v: np.ndarray,
    d_u: np.ndarray,
    d_v: np.ndarray,
    mode: OnlineMode,
    eta: float,
) -> OnlineResult:
    """Walk one pair's (T,) arrivals and decisions and record the edges.

    The mode's masks go through graph.lifo_walk, which keeps each bank as a
    list of harvest slots, so a pairing takes the partner's most recent
    banked unit; as in simulate_arrays, a slot's pairings read the banks as
    they stood before the slot.
    """
    sync, lone, dep_u, dep_v, want_u, want_v = _slot_rules(b_u, b_v, d_u, d_v, mode)
    asyn, bank_u, bank_v = lifo_walk(dep_u, dep_v, want_u, want_v)
    return OnlineResult(
        [(t, t) for t in (np.flatnonzero(sync) + 1).tolist()] + asyn,
        eta,
        b_u.shape[0],
        mode=mode,
        wasted_units=_wasted(
            int(np.count_nonzero(lone)), len(bank_u) + len(bank_v), len(asyn), mode
        ),
    )


def online_duty_cycle(
    trace_u: EnergyTrace, trace_v: EnergyTrace, eta: float, cfg: OnlineConfig
) -> OnlineResult:
    """Run the online scheduler over a trace pair at charging efficiency eta.

    Draws every slot's decisions in bulk, each from the state of its own
    slot and the device's history, then walks the mode's rules over the
    slots in order. The energy state of slot t is thus only ever combined
    with decisions drawn at slot t and with bank contents from earlier
    slots. ValueError on a period mismatch or an eta outside (0, 1].
    """
    pair_period(trace_u, trace_v)
    check_eta(eta)
    b_u, b_v = trace_u.states, trace_v.states
    d_u, d_v = _decision_arrays(b_u, b_v, cfg, trace_u.device_id, trace_v.device_id)
    return _walk_pair(b_u, b_v, d_u, d_v, cfg.mode, eta)
