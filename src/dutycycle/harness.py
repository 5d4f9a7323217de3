"""Monte Carlo experiment runner, trace-pair evaluation and verification suites.

Runs seeded trials over synthetic i.i.d. trace pairs, aggregates CAT/SAT
into reproducible reports, and hosts the four verification suites exposed by
the CLI. evaluate_pair is the one single-pair path: run_trace_pairs and the
CLI's `run` both call it. Every online/offline ratio, of one pair or of a
cell's trials, comes from metrics.ratio_online_to_offline.

One runner, _cell_counts, draws and counts every Monte Carlo cell;
run_monte_carlo and heterogeneity_sweep only aggregate the per-trial count
vectors it returns. It splits a cell's n trials into contiguous shards
(_shard_plan), at most one per CPU the process may use, each on its own
thread, and every shard streams its trials through row blocks
(_trial_blocks, the one draw path). A block holds every stream's arrivals
and decisions as np.packbits rows, eight slots a byte, drawn from raw
Philox words (traces.bernoulli) and packed draw by draw; the packed rows
are all that reach the counts, each a popcount per mask or a byte walk:
offline.optimum_counts, online.simulate_arrays per mode and
metrics.heterogeneity (oracle.schedule_counts unpacks them). The shards' draws
together hold at most _CHUNK_SLOTS trial-slots, a block eight draws, and
only the count vectors are kept whole, so memory does not grow with n
beyond them. Row i of every draw is trial i, so results depend neither on
the block or draw size nor on the number of shards.

The suites:

* optimality:    offline totals equal the exhaustive schedule oracle's on
                 each trial of one stream cell, from one batched DP per block
                 (exact integer edge counts; no witness is built). The greedy
                 runs once per block too, on the same unpacked rows, and each
                 row's matching becomes a PairResult.
* expected-cat:  mean offline CAT against the closed-form reference
                 |T| p [p + 2 eta (1-p)]. The reference overcounts the
                 asynchronous term (see offline.expected_cat), so this suite
                 documents a known, reproducible gap rather than passing.
* ratio-bound:   mean online CAT over mean offline CAT against the
                 guarantee 1 - e^(-p^2), for both online modes.
* bins:          occupancy concentration for throwing n balls into m bins,
                 checked against the closed-form bound and the exact mean.

The t1, t2 and t4 payloads share one header (_suite_report). Every
quantity is a pure function of the experiment spec including its seed;
running a spec twice yields byte-identical reports.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import threading
from dataclasses import asdict, dataclass, field

import numpy as np

from .graph import PairResult, cat_from_counts
from .metrics import PairMetrics, compute_heterogeneity, heterogeneity, ratio_online_to_offline
from .offline import duty_cycle_arrays, expected_cat, offline_duty_cycle, optimum_counts
from .online import OnlineConfig, OnlineMode, approx_ratio_bound, online_duty_cycle, simulate_arrays
from .oracle import ORACLE_MAX_VERTEXES, _eta_as_fraction, schedule_counts
from .traces import (
    DEFAULT_SEED,
    EnergyTrace,
    _stream,
    bernoulli,
    check_count,
    check_eta,
    check_finite,
    check_prob,
    check_seed,
    estimate_prob,
    pair_period,
)

# Stream tags keep the harness's random draws on disjoint Philox sub-streams.
_TAG_TRACE = 1
_TAG_DECISION = 2
_TAG_BINS = 3

_ALGORITHMS = ("offline", "online", "oracle")


@dataclass(frozen=True)
class ExperimentSpec:
    """One Monte Carlo experiment: a grid of harvest probabilities."""

    period_len: int
    p_values: tuple[float, ...]
    trials: int
    eta: float = 0.75
    seed: int = DEFAULT_SEED
    algorithms: tuple[str, ...] = ("offline", "online")

    def __post_init__(self) -> None:
        object.__setattr__(self, "period_len", check_count("period_len", self.period_len))
        object.__setattr__(self, "trials", check_count("trials", self.trials))
        check_eta(self.eta)
        object.__setattr__(self, "seed", check_seed(self.seed))
        if not self.p_values:
            raise ValueError("p_values must not be empty")
        if not self.algorithms:
            raise ValueError("algorithms must not be empty")
        for p in self.p_values:
            check_prob("p", p)
        for algo in self.algorithms:
            if algo not in _ALGORITHMS:
                raise ValueError(f"unknown algorithm {algo!r}")
        cells = [f"p={p:g}" for p in self.p_values]  # run_monte_carlo's cell names
        for field_name, names in ("p_values", cells), ("algorithms", self.algorithms):
            for i, name in enumerate(names):
                if name in names[:i]:
                    raise ValueError(f"{field_name} repeat {name!r}")
        if "oracle" in self.algorithms:
            if self.period_len > ORACLE_MAX_VERTEXES:
                raise ValueError(
                    f"oracle runs need period_len <= {ORACLE_MAX_VERTEXES}, "
                    f"got {self.period_len}; refusing rather than approximating"
                )
            _eta_as_fraction(self.eta)  # refuse an eta the oracle cannot weight

    def to_json_dict(self) -> dict:
        spec = asdict(self)
        spec.update(p_values=list(self.p_values), algorithms=list(self.algorithms))
        return {**spec, "modes": [m.value for m in OnlineMode]}


@dataclass
class RunReport:
    """Aggregated results; serializes deterministically to JSON and CSV."""

    config: dict
    cells: list[dict] = field(default_factory=list)
    pairs: list[PairMetrics] = field(default_factory=list)

    def to_json(self) -> str:
        payload = {"config": self.config, "cells": self.cells}
        if self.pairs:
            payload["pairs"] = [asdict(p) for p in self.pairs]
        return json.dumps(payload, sort_keys=True, indent=2)

    def to_csv(self) -> str:
        """Long-format rows: cell,p,eta,algorithm,metric,mean,stderr,n."""
        lines = [f"# config: {json.dumps(self.config, sort_keys=True)}"]
        lines.append("cell,p,eta,algorithm,metric,mean,stderr,n")
        for cell in self.cells:
            p = repr(cell["p"]) if "p" in cell else ""  # trace-pair cells have no p
            head = f"{cell['cell']},{p},{cell['eta']!r},{cell['algorithm']}"
            for metric, stats in sorted(cell["metrics"].items()):
                lines.append(f"{head},{metric},{stats['mean']!r},{stats['stderr']!r},{stats['n']}")
        if self.pairs:
            lines.append(PairMetrics.CSV_HEADER)
            lines.extend(p.to_csv_row() for p in self.pairs)
        return "\n".join(lines) + "\n"


def _stats(values: np.ndarray) -> dict:
    n = int(values.size)
    std = float(values.std(ddof=1)) if n > 1 else 0.0
    return {"mean": float(values.mean()), "std": std, "stderr": std / math.sqrt(n), "n": n}


# Trial-slots drawn at once per Monte Carlo cell, across all of its
# shards; bounds the draws' memory. A block packs eight draws, so its
# packed rows take as many bytes as one draw's bools.
_CHUNK_SLOTS = 2**16

# Fewest rows in a draw of a cell split into shards, so fewest in a block
# eight times that. Each block makes about a hundred numpy calls whose
# Python overhead holds the GIL, so smaller blocks trade the GIL between
# the shards' threads: two shards of 32-row unpacked blocks took 0.82x the
# wall time of one at 29% more CPU time (BENCH_019.json). So a cell gets
# fewer shards rather than smaller blocks.
_MIN_SHARD_ROWS = 32


def _worker_count() -> int:
    """CPUs this process may run on, and so the most shards of one cell."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _trial_blocks(
    seed: int,
    cell: int,
    p_u: float | np.ndarray,
    p_v: float | np.ndarray,
    start: int,
    stop: int,
    period_len: int,
    decisions: bool,
    rows: int,
):
    """Yield trials start..stop-1 of one cell as (block, [b_u, b_v, d_u, d_v]).

    block is the slice of trial indexes the rows stand for, at most `rows`
    of them, and the list holds their arrivals and, when `decisions` is
    set, activation decisions, each as np.packbits rows: uint8 of shape
    (block rows, ceil(period_len / 8)), eight slots a byte, zero padded.
    p_u and p_v are each a probability or an array whose entry i is trial
    i's. A block is filled draw by draw, each traces.bernoulli call covering
    at most ceil(rows / 8) rows, so the bool and raw-word arrays of one
    draw take no more memory than the packed block. Each stream starts at
    row `start`: traces.bernoulli takes one 64-bit Philox output per value
    and Philox makes four per counter, so skipping k = start * period_len
    values is advance(k // 4) then random_raw(k % 4). Philox fills rows in
    order, so the blocks are the packed rows of one (trials, period_len)
    draw per stream, whatever the range, block size and draw size, and
    each trial is a pure function of (seed, tag, cell, trial index).
    """
    skip = start * period_len
    tags = (_TAG_TRACE, _TAG_DECISION) if decisions else (_TAG_TRACE,)
    streams = []
    for tag in tags:
        for side, p in enumerate((p_u, p_v)):
            rng = _stream(seed, tag, cell, side)
            rng.bit_generator.advance(skip // 4)
            rng.bit_generator.random_raw(skip % 4)
            streams.append((rng, p))
    draw_rows = -(-rows // 8)
    for lo in range(start, stop, rows):
        hi = min(lo + rows, stop)
        packed = [np.empty((hi - lo, -(-period_len // 8)), np.uint8) for _ in streams]
        for at in range(lo, hi, draw_rows):
            end = min(at + draw_rows, hi)
            for out, (rng, p) in zip(packed, streams):
                p_rows = p[at:end, None] if isinstance(p, np.ndarray) else p
                bits = bernoulli(rng, (end - at, period_len), p_rows)
                out[at - lo : end - lo] = np.packbits(bits, axis=-1)
        yield slice(lo, hi), packed


def _shard_plan(trials: int, period_len: int) -> tuple[int, int]:
    """Return (shards, rows per draw) for a cell of trials x period_len.

    One shard per CPU (_worker_count), but no more than leave every shard
    _MIN_SHARD_ROWS trials and every draw _MIN_SHARD_ROWS rows within
    _CHUNK_SLOTS. Several shards' draws together thus hold at most
    _CHUNK_SLOTS trial-slots, and a single shard draws
    _CHUNK_SLOTS // period_len rows at once, or one row when period_len is
    larger: either way a cell's draws at one time hold at most _CHUNK_SLOTS
    trial-slots, or one row. A block packs eight draws (_cell_counts).
    """
    limit = min(trials, _CHUNK_SLOTS // period_len) // _MIN_SHARD_ROWS
    shards = max(1, min(_worker_count(), limit))
    return shards, max(1, _CHUNK_SLOTS // (shards * period_len))


def _cell_counts(
    seed, cell, p_u, p_v, trials, period_len, *, modes=(), oracle_eta=None, het=False
) -> dict:
    """Draw one Monte Carlo cell and count each of its trials.

    Returns per-trial count vectors keyed by what they count: "offline",
    the (2, trials) int64 (sync, async) of the closed form
    offline.optimum_counts, always; each OnlineMode in `modes`, the
    (3, trials) float64 (sync, async, wasted) of online.simulate_arrays;
    "oracle", when oracle_eta is given, the (2, trials) int64
    oracle.schedule_counts at that eta of each block's unpacked rows; and
    "heterogeneity", when het is set, the (trials,) metrics.heterogeneity.
    Decisions are drawn only when a mode is requested.

    The trials are split into contiguous shards (_shard_plan), each
    streamed through blocks of eight draws' packed rows (_trial_blocks).
    The calling thread runs the last shard and one new thread each of the
    others; numpy releases the GIL while it fills and scans arrays, so the
    shards run on separate cores, each writing only its blocks' rows.
    Every thread is joined before return. An exception raised in a shard
    stops the other shards at their next block and is raised here.
    """
    counts = {"offline": np.empty((2, trials), np.int64)}
    if oracle_eta is not None:
        counts["oracle"] = np.empty((2, trials), np.int64)
    for mode in modes:
        counts[mode] = np.empty((3, trials))
    if het:
        counts["heterogeneity"] = np.empty(trials)
    shards, rows = _shard_plan(trials, period_len)
    rows *= 8  # eight slots a byte: a block of eight draws packs into one draw's bytes
    bounds = [trials * w // shards for w in range(shards + 1)]
    errors = []

    def shard(start: int, stop: int) -> None:
        try:
            for block, (b_u, b_v, *decisions) in _trial_blocks(
                seed, cell, p_u, p_v, start, stop, period_len, bool(modes), rows
            ):
                if errors:
                    return
                counts["offline"][:, block] = optimum_counts(b_u, b_v)
                if oracle_eta is not None:
                    bits = (np.unpackbits(r, axis=-1, count=period_len) for r in (b_u, b_v))
                    counts["oracle"][:, block] = schedule_counts(*bits, oracle_eta)
                for mode in modes:
                    counts[mode][:, block] = simulate_arrays(b_u, b_v, *decisions, mode)
                if het:
                    counts["heterogeneity"][block] = heterogeneity(b_u, b_v)
        except BaseException as exc:  # raised again below, once every shard is done
            errors.append(exc)

    started = []
    try:
        for span in zip(bounds[:-2], bounds[1:-1]):
            thread = threading.Thread(target=shard, args=span)
            thread.start()
            started.append(thread)
        shard(bounds[-2], trials)
    finally:
        for thread in started:
            thread.join()
    if errors:
        raise errors[0]
    return counts


def run_monte_carlo(spec: ExperimentSpec) -> RunReport:
    """Run every (p, algorithm) cell of the spec and aggregate CAT/SAT.

    Cell cell_idx is counted by _cell_counts at stream cell cell_idx; the
    oracle's counts, when requested, are checked against the offline ones.
    """
    report = RunReport(config={"experiment": spec.to_json_dict()})
    eta = spec.eta
    modes = tuple(OnlineMode) if "online" in spec.algorithms else ()
    ora_eta = eta if "oracle" in spec.algorithms else None
    for cell_idx, p in enumerate(spec.p_values):
        head = {"cell": f"p={p:g}", "p": p, "eta": eta}
        counts = _cell_counts(
            spec.seed, cell_idx, p, p, spec.trials, spec.period_len, modes=modes, oracle_eta=ora_eta
        )
        sync, asyn = counts["offline"]
        off_sat = sync.astype(float)
        off_cat = off_sat + eta * asyn

        if "offline" in spec.algorithms:
            ref = expected_cat(spec.period_len, p, eta)
            gap = (off_cat.mean() - ref) / ref if ref else 0.0
            report.cells.append(
                {
                    **head,
                    "algorithm": "offline",
                    "metrics": {"cat": _stats(off_cat), "sat": _stats(off_sat)},
                    "references": {"expected_cat": ref},
                    "checks": {
                        "within_1pct_of_expected": bool(abs(gap) <= 0.01),
                        "relative_gap": float(gap),
                    },
                }
            )

        if ora_eta is not None:
            ora = counts["oracle"]
            oracle_cat = np.array([cat_from_counts(*c, eta) for c in ora.T.tolist()])
            report.cells.append(
                {
                    **head,
                    "algorithm": "oracle",
                    "metrics": {"cat": _stats(oracle_cat)},
                    "checks": {
                        "matches_offline_exactly": np.array_equal(ora, counts["offline"])
                    },
                }
            )

        for mode in modes:
            on_sat, on_async, on_wasted = counts[mode]
            on_cat = on_sat + eta * on_async
            ratio_stats = _stats(ratio_online_to_offline(on_cat, off_cat))
            ratio_of_means = float(ratio_online_to_offline(on_cat.mean(), off_cat.mean()))
            bound = approx_ratio_bound(p)
            report.cells.append(
                {
                    **head,
                    "algorithm": f"online[{mode.value}]",
                    "metrics": {
                        "cat": _stats(on_cat),
                        "sat": _stats(on_sat),
                        "wasted_units": _stats(on_wasted),
                        "ratio": ratio_stats,
                    },
                    "references": {"ratio_bound": bound},
                    "checks": {
                        "ratio_of_means": ratio_of_means,
                        "bound_satisfied": bool(
                            ratio_of_means >= bound - 3.0 * ratio_stats["stderr"]
                        ),
                        "offline_dominates": bool(np.all(off_cat >= on_cat - 1e-9)),
                    },
                }
            )
    return report


# ---------------------------------------------------------------------------
# Balls into bins
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BinsReport:
    """Occupancy concentration report for one parameter set."""

    n_balls: int
    n_bins: int
    subset_size: int
    epsilon: float
    trials: int
    threshold: float
    prob_bound: float
    empirical_freq: float
    empirical_mean: float
    exact_mean: float
    freq_bound_satisfied: bool
    mean_rel_error: float


def check_balls_in_bins(
    n: int,
    m: int,
    subset_size: int,
    epsilon: float,
    trials: int,
    seed: int = DEFAULT_SEED,
) -> BinsReport:
    """Throw n balls into m uniform bins and watch a designated subset.

    S counts occupied bins within the subset (taken as the first subset_size
    bins; uniformity makes the choice irrelevant). Reports how often
    S >= subset_size * (1 - e^(-n/m)) - epsilon * m, against the closed-form
    probability bound 1 - 2 e^(-epsilon^2 m / 2), plus the empirical mean of
    S against its exact expectation subset_size * (1 - (1 - 1/m)^n).
    """
    m = check_count("m", m)
    subset_size = check_count("subset_size", subset_size, least=0, most=m)
    n = check_count("n", n, least=0, most=m)
    trials = check_count("trials", trials)
    check_finite("epsilon", epsilon)

    rng = _stream(seed, _TAG_BINS)
    counts = np.empty(trials, dtype=np.int64)
    chunk = max(1, min(trials, 4_000_000 // max(n, 1)))
    for lo in range(0, trials, chunk):
        balls = rng.integers(0, m, size=(min(chunk, trials - lo), n), dtype=np.int32)
        # every ball outside the subset lands in one spare column
        np.minimum(balls, subset_size, out=balls)
        occupied = np.zeros((balls.shape[0], subset_size + 1), dtype=bool)
        occupied[np.arange(balls.shape[0])[:, None], balls] = True
        counts[lo : lo + balls.shape[0]] = np.count_nonzero(occupied[:, :subset_size], axis=1)

    threshold = subset_size * (1.0 - math.exp(-n / m)) - epsilon * m
    prob_bound = 1.0 - 2.0 * math.exp(-epsilon * epsilon * m / 2.0)
    exact_mean = subset_size * (1.0 - (1.0 - 1.0 / m) ** n)
    empirical_freq = float((counts >= threshold).mean())
    empirical_mean = float(counts.mean())
    rel_err = abs(empirical_mean - exact_mean) / exact_mean if exact_mean else 0.0
    return BinsReport(
        n_balls=n,
        n_bins=m,
        subset_size=subset_size,
        epsilon=epsilon,
        trials=trials,
        threshold=threshold,
        prob_bound=prob_bound,
        empirical_freq=empirical_freq,
        empirical_mean=empirical_mean,
        exact_mean=exact_mean,
        freq_bound_satisfied=bool(empirical_freq >= prob_bound),
        mean_rel_error=rel_err,
    )


# ---------------------------------------------------------------------------
# Trace-driven pair evaluation
# ---------------------------------------------------------------------------


def evaluate_pair(
    pair_id: str,
    trace_u: EnergyTrace,
    trace_v: EnergyTrace,
    eta: float,
    online_cfg: OnlineConfig,
    algorithms: tuple[str, ...] = ("offline", "online"),
) -> tuple:
    """Run the requested schedulers on one trace pair at one eta.

    Returns (results, rows, pair). results maps "offline" and "online" to
    the result of each scheduler in `algorithms` that ran; rows holds one
    report row per result. pair holds the pair's heterogeneity and
    estimated harvest probabilities p_hat_u and p_hat_v, and, when both
    schedulers ran, their CAT ratio (ratio_online_to_offline).
    """
    results = {}
    if "offline" in algorithms:
        results["offline"] = offline_duty_cycle(trace_u, trace_v, eta)
    if "online" in algorithms:
        results["online"] = online_duty_cycle(trace_u, trace_v, eta, online_cfg)
    pair = {
        "heterogeneity": compute_heterogeneity(trace_u, trace_v),
        "p_hat_u": estimate_prob(trace_u),
        "p_hat_v": estimate_prob(trace_v),
    }
    period = trace_u.period_len
    rows = [
        PairMetrics(
            pair_id=f"{pair_id}/{name}" + (f"[{result.mode.value}]" if name == "online" else ""),
            cat=result.cat_total,
            sat=result.sat_total,
            cat_pct=result.cat_total / period,
            sat_pct=result.sat_total / period,
            **pair,
        )
        for name, result in results.items()
    ]
    if len(results) == 2:  # the ratio is a pair number, not a row field
        cats = (results["online"].cat_total, results["offline"].cat_total)
        pair["ratio"] = float(ratio_online_to_offline(*cats))
    return results, rows, pair


def run_trace_pairs(
    pairs: list[tuple[EnergyTrace, EnergyTrace]],
    eta: float,
    online_cfg: OnlineConfig,
) -> RunReport:
    """Run offline and online over measured trace pairs, one report row each.

    Both schedulers run at the one charging efficiency eta; online_cfg holds
    only the online policy."""
    online = {**asdict(online_cfg), "mode": online_cfg.mode.value}
    report = RunReport(config={"eta": check_eta(eta), "online": online})
    for idx, (trace_u, trace_v) in enumerate(pairs):
        pair_id = f"pair{idx + 1}"
        try:
            pair_period(trace_u, trace_v)
        except ValueError as exc:
            raise ValueError(f"{pair_id}: {exc}") from exc
        results, rows, pair = evaluate_pair(pair_id, trace_u, trace_v, eta, online_cfg)
        report.pairs.extend(rows)
        values = {f"{name}_cat": result.cat_total for name, result in results.items()}
        values["ratio"] = pair["ratio"]
        report.cells.append(
            {
                "cell": pair_id,
                "eta": eta,
                "algorithm": "pair",
                "metrics": {key: _stats(np.array([x])) for key, x in values.items()},
                "heterogeneity": pair["heterogeneity"],
                "wasted_units": results["online"].wasted_units,
            }
        )
    return report


def heterogeneity_sweep(
    p_values: tuple[float, ...],
    period_len: int,
    trials: int,
    eta: float = 0.75,
    seed: int = DEFAULT_SEED,
) -> list[dict]:
    """Aggregate offline/online behaviour over a grid of (p_u, p_v) pairs.

    For every ordered combination the sweep reports mean CAT, the online to
    offline ratio of means, mean heterogeneity and min(p_u, p_v); used to
    reproduce the qualitative trends: the ratio climbs toward 1 as the
    weaker device improves, and CAT falls as heterogeneity grows.
    """
    ExperimentSpec(period_len, tuple(p_values), trials, eta, seed)  # validates the arguments
    rows: list[dict] = []
    matching = OnlineMode.MATCHING
    for combo_idx, (p_u, p_v) in enumerate(itertools.product(p_values, p_values)):
        counts = _cell_counts(
            seed, 1000 + combo_idx, p_u, p_v, trials, period_len, modes=(matching,), het=True
        )
        sync, asyn = counts["offline"]
        off = sync + eta * asyn
        on_sync, on_async, _ = counts[matching]
        onl = on_sync + eta * on_async
        het = counts["heterogeneity"]
        rows.append(
            {
                "p_u": p_u,
                "p_v": p_v,
                "min_p": min(p_u, p_v),
                "mean_offline_cat": float(off.mean()),
                "mean_online_cat": float(onl.mean()),
                "ratio_of_means": float(ratio_online_to_offline(onl.mean(), off.mean())),
                "mean_heterogeneity": float(het.mean()),
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Verification suites (shared by the CLI and the acceptance tests)
# ---------------------------------------------------------------------------

T1_PERIOD = 12
T1_P_GRID = (0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
T2_PERIOD = 1000
T2_P_VALUES = (0.2, 0.5, 0.8)
T4_P_VALUES = (0.3, 0.5, 0.8)
BINS_DEFAULTS = {"n": 500, "m": 1000, "subset_size": 300, "epsilon": 0.05}
# verify_optimality's stream cell, past run_monte_carlo's and the sweep's.
_T1_CELL = 2**32


def _suite_report(
    suite: str, trials: int, period_len: int, eta: float, seed: int, **results
) -> dict:
    """A verify suite's payload: its parameters, then its results."""
    return dict(suite=suite, trials=trials, period_len=period_len, eta=eta, seed=seed, **results)


def verify_optimality(trials: int = 500, seed: int = DEFAULT_SEED, eta: float = 0.75) -> dict:
    """Offline totals must equal the exhaustive schedule oracle's. Instance
    i is trial i of cell _T1_CELL at p = T1_P_GRID[i % 8]. A block holds
    _CHUNK_SLOTS // (8 * T1_PERIOD) rows; one schedule_counts call scores
    it, one duty_cycle_arrays call runs the greedy on it, and each row's
    matching goes through PairResult's checks."""
    seed = check_seed(seed)
    trials = check_count("trials", trials)
    _eta_as_fraction(check_eta(eta))  # refuse an eta the oracle cannot weight
    p = np.resize(T1_P_GRID, trials)
    rows = max(1, _CHUNK_SLOTS // (8 * T1_PERIOD))
    mismatches = []
    for block, packed in _trial_blocks(seed, _T1_CELL, p, p, 0, trials, T1_PERIOD, False, rows):
        b_u, b_v = (np.unpackbits(r, axis=-1, count=T1_PERIOD).view(bool) for r in packed)
        oracle = schedule_counts(b_u, b_v, eta).T.tolist()
        greedy = duty_cycle_arrays(b_u, b_v)
        for i, edges, ora in zip(range(block.start, block.stop), greedy, oracle, strict=True):
            off = PairResult(edges, eta, T1_PERIOD)
            if [off.sync_count, off.async_count] != ora:
                mismatches.append(
                    {"instance": i, "offline": [off.sync_count, off.async_count], "oracle": ora}
                )
    passed = not mismatches
    return _suite_report("t1", trials, T1_PERIOD, eta, seed, mismatches=mismatches, passed=passed)


def verify_expected_cat(trials: int = 10_000, seed: int = DEFAULT_SEED, eta: float = 0.75) -> dict:
    """Mean offline CAT against the closed-form reference, 1% tolerance."""
    spec = ExperimentSpec(
        period_len=T2_PERIOD,
        p_values=T2_P_VALUES,
        trials=trials,
        eta=eta,
        seed=seed,
        algorithms=("offline",),
    )
    cells = [
        {
            "p": cell["p"],
            "mean_cat": cell["metrics"]["cat"]["mean"],
            "stderr": cell["metrics"]["cat"]["stderr"],
            "expected": cell["references"]["expected_cat"],
            "relative_gap": cell["checks"]["relative_gap"],
            "within_1pct": cell["checks"]["within_1pct_of_expected"],
        }
        for cell in run_monte_carlo(spec).cells
    ]
    passed = all(c["within_1pct"] for c in cells)
    return _suite_report("t2", spec.trials, T2_PERIOD, eta, spec.seed, cells=cells, passed=passed)


def verify_ratio_bound(trials: int = 10_000, seed: int = DEFAULT_SEED, eta: float = 0.75) -> dict:
    """Online/offline ratio of means against 1 - e^(-p^2), both modes."""
    spec = ExperimentSpec(
        period_len=T2_PERIOD,
        p_values=T4_P_VALUES,
        trials=trials,
        eta=eta,
        seed=seed,
        algorithms=("online",),
    )
    cells = [
        {
            "p": cell["p"],
            "mode": cell["algorithm"],
            "ratio_of_means": cell["checks"]["ratio_of_means"],
            "mean_ratio": cell["metrics"]["ratio"]["mean"],
            "ratio_stderr": cell["metrics"]["ratio"]["stderr"],
            "bound": cell["references"]["ratio_bound"],
            "bound_satisfied": cell["checks"]["bound_satisfied"],
            "offline_dominates": cell["checks"]["offline_dominates"],
        }
        for cell in run_monte_carlo(spec).cells
    ]
    passed = all(c["bound_satisfied"] and c["offline_dominates"] for c in cells)
    return _suite_report("t4", spec.trials, T2_PERIOD, eta, spec.seed, cells=cells, passed=passed)


def verify_bins(trials: int = 10_000, seed: int = DEFAULT_SEED) -> dict:
    """Concentration and exact-mean checks for the occupancy experiment."""
    seed = check_seed(seed)
    rep = check_balls_in_bins(**BINS_DEFAULTS, trials=trials, seed=seed)
    passed = rep.freq_bound_satisfied and rep.mean_rel_error <= 0.02
    return {"suite": "bins", "seed": seed, "report": asdict(rep), "passed": passed}
