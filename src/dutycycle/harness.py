"""Monte Carlo experiment runner, trace-pair evaluation and verification suites.

Runs seeded trials over synthetic i.i.d. trace pairs, aggregates CAT/SAT
into reproducible reports, and hosts the four verification suites exposed by
the CLI. evaluate_pair is the one single-pair path: run_trace_pairs and the
CLI's `run` both call it. Every online/offline ratio, of one pair or of a
cell's trials, comes from metrics.ratio_online_to_offline. A Monte Carlo
cell splits its n trials into contiguous shards, at most one per CPU the
process may use, each on its own thread (_for_each_block), and every
shard streams its trials through row blocks (_trial_blocks, the one draw
path). A block holds every stream's arrivals and decisions as
np.packbits rows, eight slots a byte, drawn from raw Philox words
(traces.bernoulli) and packed draw by draw, so the packed rows are all
that reach the counts: the offline counts of the closed form
offline.optimum_counts and the online counts of each mode from the count
kernel online.simulate_arrays, a popcount per mask and a byte walk for
the online banks; nothing packs them again. A cell gets only as many
shards as keep each draw at _MIN_SHARD_ROWS rows or more while the
shards' draws together hold at most _CHUNK_SLOTS trial-slots
(_shard_plan); otherwise it runs as one shard drawing about _CHUNK_SLOTS
trial-slots at once. A block holds eight such draws, so its packed bytes
equal one draw's bools. Only the per-trial count vectors are kept whole,
so memory does not grow with n beyond them. Row i of every draw is trial
i, so results depend neither on the block or draw size nor on the number
of shards.
The suites:

* optimality:    offline totals equal the exhaustive oracle's, instance by
                 instance (exact integer edge counts; no witness is built).
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

from .graph import cat_from_counts
from .metrics import PairMetrics, compute_heterogeneity, heterogeneity, ratio_online_to_offline
from .offline import expected_cat, offline_duty_cycle, optimum_counts
from .online import OnlineConfig, OnlineMode, approx_ratio_bound, online_duty_cycle, simulate_arrays
from .oracle import ORACLE_MAX_VERTEXES, brute_force_counts
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
_TAG_INSTANCE = 4

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
        for p in self.p_values:
            check_prob("p", p)
        for algo in self.algorithms:
            if algo not in _ALGORITHMS:
                raise ValueError(f"unknown algorithm {algo!r}")
        if "oracle" in self.algorithms and self.period_len > ORACLE_MAX_VERTEXES:
            raise ValueError(
                f"oracle runs need period_len <= {ORACLE_MAX_VERTEXES}, "
                f"got {self.period_len}; refusing rather than approximating"
            )

    def to_json_dict(self) -> dict:
        return {
            "period_len": self.period_len,
            "p_values": list(self.p_values),
            "trials": self.trials,
            "eta": self.eta,
            "seed": self.seed,
            "modes": [m.value for m in OnlineMode],
            "algorithms": list(self.algorithms),
        }


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
            for metric, stats in sorted(cell.get("metrics", {}).items()):
                lines.append(
                    ",".join(
                        [
                            str(cell["cell"]),
                            repr(cell.get("p", "")),
                            repr(cell.get("eta", "")),
                            cell.get("algorithm", ""),
                            metric,
                            repr(stats["mean"]),
                            repr(stats["stderr"]),
                            str(stats["n"]),
                        ]
                    )
                )
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
    p_u: float,
    p_v: float,
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
    A block is filled draw by draw, each traces.bernoulli call covering
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
        for at in range(0, hi - lo, draw_rows):
            shape = (min(draw_rows, hi - lo - at), period_len)
            for out, (rng, p) in zip(packed, streams):
                out[at : at + shape[0]] = np.packbits(bernoulli(rng, shape, p), axis=-1)
        yield slice(lo, hi), packed


def _shard_plan(trials: int, period_len: int) -> tuple[int, int]:
    """Return (shards, rows per draw) for a cell of trials x period_len.

    One shard per CPU (_worker_count), but no more than leave every shard
    _MIN_SHARD_ROWS trials and every draw _MIN_SHARD_ROWS rows within
    _CHUNK_SLOTS. Several shards' draws together thus hold at most
    _CHUNK_SLOTS trial-slots, and a single shard draws
    _CHUNK_SLOTS // period_len rows at once, or one row when period_len is
    larger: either way a cell's draws at one time hold at most _CHUNK_SLOTS
    trial-slots, or one row. A block packs eight draws (_for_each_block).
    """
    limit = min(trials, _CHUNK_SLOTS // period_len) // _MIN_SHARD_ROWS
    shards = max(1, min(_worker_count(), limit))
    return shards, max(1, _CHUNK_SLOTS // (shards * period_len))


def _for_each_block(consume, seed, cell, p_u, p_v, trials, period_len, decisions) -> None:
    """Call consume(block, b_u, b_v[, d_u, d_v]) on every block of one cell.

    The arrays are np.packbits rows (_trial_blocks). The cell's trials are
    split into contiguous shards (_shard_plan), each streamed through
    blocks of eight draws' rows. The
    calling thread runs the last shard and one new thread each of the
    others; numpy releases the GIL while it fills and scans arrays, so the
    shards run on separate cores. consume must write only the rows its
    block names. Every thread is joined before return. An exception raised
    in a shard stops the other shards at their next block and is raised
    here.
    """
    shards, rows = _shard_plan(trials, period_len)
    rows *= 8  # eight slots a byte: a block of eight draws packs into one draw's bytes
    bounds = [trials * w // shards for w in range(shards + 1)]

    errors = []

    def shard(start: int, stop: int) -> None:
        try:
            for block, arrays in _trial_blocks(
                seed, cell, p_u, p_v, start, stop, period_len, decisions, rows
            ):
                if errors:
                    return
                consume(block, *arrays)
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


def run_monte_carlo(spec: ExperimentSpec) -> RunReport:
    """Run every (p, algorithm) cell of the spec and aggregate CAT/SAT.

    Traces and activation decisions for trial i occupy row i of Philox
    draws, packed block by block (_trial_blocks), so each trial is a pure
    function of (seed, cell, trial index), and results depend neither on
    the number of trials run around them nor on the block size or the
    number of shards (_for_each_block). Each block feeds every algorithm of
    the cell: offline counts come from the closed form
    offline.optimum_counts; the oracle, when requested, counts each trial's
    optimum on its unpacked rows (brute_force_counts: no witness), and its
    counts are checked against the offline ones once every shard is done;
    the online counts of each mode come from online.simulate_arrays. Only
    the per-trial count vectors outlive a block.
    """
    report = RunReport(config={"experiment": spec.to_json_dict()})
    eta = spec.eta
    run_online = "online" in spec.algorithms
    run_oracle = "oracle" in spec.algorithms
    for cell_idx, p in enumerate(spec.p_values):
        cell_name = f"p={p:g}"
        sync = np.empty(spec.trials, dtype=np.int64)
        asyn = np.empty_like(sync)
        oracle_counts = np.empty((2, spec.trials), dtype=np.int64)
        oracle_cat = np.empty(spec.trials)
        online_counts = {mode: np.empty((3, spec.trials)) for mode in OnlineMode if run_online}

        def consume(block, b_u, b_v, *decisions):
            sync[block], asyn[block] = optimum_counts(b_u, b_v)
            if run_oracle:
                bits_u, bits_v = (
                    np.unpackbits(rows, axis=-1, count=spec.period_len) for rows in (b_u, b_v)
                )
                for i, u, v in zip(range(block.start, block.stop), bits_u, bits_v):
                    ora = brute_force_counts(EnergyTrace("u", u), EnergyTrace("v", v), eta)
                    oracle_counts[:, i] = ora
                    oracle_cat[i] = cat_from_counts(*ora, eta)  # as PairResult.cat_total
            for mode, counts in online_counts.items():
                counts[:, block] = simulate_arrays(b_u, b_v, *decisions, mode)

        _for_each_block(
            consume, spec.seed, cell_idx, p, p, spec.trials, spec.period_len, run_online
        )
        off_sat = sync.astype(float)
        off_cat = off_sat + eta * asyn

        if "offline" in spec.algorithms:
            ref = expected_cat(spec.period_len, p, eta)
            gap = (off_cat.mean() - ref) / ref if ref else 0.0
            report.cells.append(
                {
                    "cell": cell_name,
                    "p": p,
                    "eta": eta,
                    "algorithm": "offline",
                    "metrics": {"cat": _stats(off_cat), "sat": _stats(off_sat)},
                    "references": {"expected_cat": ref},
                    "checks": {
                        "within_1pct_of_expected": bool(abs(gap) <= 0.01),
                        "relative_gap": float(gap),
                    },
                }
            )

        if run_oracle:
            report.cells.append(
                {
                    "cell": cell_name,
                    "p": p,
                    "eta": eta,
                    "algorithm": "oracle",
                    "metrics": {"cat": _stats(oracle_cat)},
                    "checks": {
                        "matches_offline_exactly": np.array_equal(oracle_counts, (sync, asyn))
                    },
                }
            )

        for mode, (on_sat, on_async, on_wasted) in online_counts.items():
            on_cat = on_sat + eta * on_async
            ratio_stats = _stats(ratio_online_to_offline(on_cat, off_cat))
            ratio_of_means = float(ratio_online_to_offline(on_cat.mean(), off_cat.mean()))
            bound = approx_ratio_bound(p)
            report.cells.append(
                {
                    "cell": cell_name,
                    "p": p,
                    "eta": eta,
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


def random_instance(
    seed: int, index: int, period_len: int, p: float
) -> tuple[EnergyTrace, EnergyTrace]:
    """Deterministic random trace pair for certification runs.

    ValueError naming the argument unless period_len is a positive integer,
    p lies in [0, 1] and seed is a non-negative integer (_stream checks it).
    """
    period_len = check_count("period_len", period_len)
    p = check_prob("p", p)
    rng = _stream(seed, _TAG_INSTANCE, index)
    b_u = bernoulli(rng, period_len, p)
    b_v = bernoulli(rng, period_len, p)
    return EnergyTrace("u", b_u), EnergyTrace("v", b_v)


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
    report = RunReport(
        config={
            "eta": check_eta(eta),
            "online": {
                "prob_active": online_cfg.prob_active,
                "seed": online_cfg.seed,
                "mode": online_cfg.mode.value,
                "warmup": online_cfg.warmup,
            },
        }
    )
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
    for combo_idx, (p_u, p_v) in enumerate(itertools.product(p_values, p_values)):
        off = np.empty(trials)
        onl = np.empty(trials)
        het = np.empty(trials)

        def consume(block, b_u, b_v, d_u, d_v):
            sync, asyn = optimum_counts(b_u, b_v)
            off[block] = sync + eta * asyn
            on_sync, on_async, _ = simulate_arrays(b_u, b_v, d_u, d_v, OnlineMode.MATCHING)
            onl[block] = on_sync + eta * on_async
            het[block] = heterogeneity(b_u, b_v)

        _for_each_block(consume, seed, 1000 + combo_idx, p_u, p_v, trials, period_len, True)
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


def _suite_report(
    suite: str, trials: int, period_len: int, eta: float, seed: int, **results
) -> dict:
    """A verify suite's payload: its parameters, then its results."""
    return dict(suite=suite, trials=trials, period_len=period_len, eta=eta, seed=seed, **results)


def verify_optimality(trials: int = 500, seed: int = DEFAULT_SEED, eta: float = 0.75) -> dict:
    """Offline totals must equal the exhaustive oracle's (brute_force_counts)."""
    seed = check_seed(seed)
    trials = check_count("trials", trials)
    check_eta(eta)
    mismatches = []
    for i in range(trials):
        p = T1_P_GRID[i % len(T1_P_GRID)]
        trace_u, trace_v = random_instance(seed, i, T1_PERIOD, p)
        off = offline_duty_cycle(trace_u, trace_v, eta)
        ora = brute_force_counts(trace_u, trace_v, eta)
        if (off.sync_count, off.async_count) != ora:
            mismatches.append(
                {
                    "instance": i,
                    "offline": [off.sync_count, off.async_count],
                    "oracle": list(ora),
                }
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
        algorithms=("offline", "online"),
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
        if cell["algorithm"].startswith("online")
    ]
    passed = all(c["bound_satisfied"] and c["offline_dominates"] for c in cells)
    return _suite_report("t4", spec.trials, T2_PERIOD, eta, spec.seed, cells=cells, passed=passed)


def verify_bins(trials: int = 10_000, seed: int = DEFAULT_SEED) -> dict:
    """Concentration and exact-mean checks for the occupancy experiment."""
    seed = check_seed(seed)
    rep = check_balls_in_bins(**BINS_DEFAULTS, trials=trials, seed=seed)
    passed = rep.freq_bound_satisfied and rep.mean_rel_error <= 0.02
    return {"suite": "bins", "seed": seed, "report": asdict(rep), "passed": passed}
