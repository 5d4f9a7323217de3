"""Monte Carlo experiment runner and verification suites.

Runs seeded trials over synthetic i.i.d. trace pairs, aggregates CAT/SAT
into reproducible reports, and hosts the four verification suites exposed by
the CLI. A Monte Carlo cell draws its (n, T) trace arrays once; the offline
counts of all n trials come from the closed form offline.optimum_counts,
the online counts of each mode from one call of the slot-major count
kernel online.simulate_arrays.
The suites:

* optimality:    offline totals equal the exhaustive oracle, instance by
                 instance (exact integer edge counts).
* expected-cat:  mean offline CAT against the closed-form reference
                 |T| p [p + 2 eta (1-p)]. The reference overcounts the
                 asynchronous term (see offline.expected_cat), so this suite
                 documents a known, reproducible gap rather than passing.
* ratio-bound:   mean online CAT over mean offline CAT against the
                 guarantee 1 - e^(-p^2), for both online modes.
* bins:          occupancy concentration for throwing n balls into m bins,
                 checked against the closed-form bound and the exact mean.

Every quantity is a pure function of the experiment spec including its
seed; running a spec twice yields byte-identical reports.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .graph import build_graph
from .metrics import (
    PairMetrics,
    heterogeneity,
    pair_rows,
    ratio_online_to_offline,
)
from .offline import expected_cat, offline_duty_cycle, optimum_counts
from .online import OnlineConfig, OnlineMode, approx_ratio_bound, online_duty_cycle, simulate_arrays
from .oracle import ORACLE_MAX_VERTEXES, brute_force_matching
from .traces import DEFAULT_SEED, EnergyTrace, _stream

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
    modes: tuple[OnlineMode, ...] = (OnlineMode.MATCHING, OnlineMode.SLOT_SIM)
    algorithms: tuple[str, ...] = ("offline", "online")

    def __post_init__(self) -> None:
        if self.period_len < 1:
            raise ValueError(f"period_len must be at least 1, got {self.period_len}")
        if self.trials < 1:
            raise ValueError(f"trials must be at least 1, got {self.trials}")
        if not (0.0 < self.eta <= 1.0):
            raise ValueError(f"eta must lie in (0, 1], got {self.eta}")
        if not self.p_values:
            raise ValueError("p_values must not be empty")
        for p in self.p_values:
            if not (0.0 <= p <= 1.0):
                raise ValueError(f"p must lie in [0, 1], got {p}")
        for algo in self.algorithms:
            if algo not in _ALGORITHMS:
                raise ValueError(f"unknown algorithm {algo!r}")
        object.__setattr__(self, "modes", tuple(OnlineMode(m) for m in self.modes))
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
            "modes": [m.value for m in self.modes],
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
    mean = float(values.mean()) if n else 0.0
    std = float(values.std(ddof=1)) if n > 1 else 0.0
    return {"mean": mean, "std": std, "stderr": std / math.sqrt(n) if n > 1 else 0.0, "n": n}


def _draw_pair(seed: int, tag: int, cell: int, p_u: float, p_v: float, shape):
    """One cell's boolean U and V draws of the given (n, T) shape; row i is
    trial i, so each trial is a pure function of (seed, tag, cell, i)."""
    return (
        _stream(seed, tag, cell, 0).random(shape) < p_u,
        _stream(seed, tag, cell, 1).random(shape) < p_v,
    )


def run_monte_carlo(spec: ExperimentSpec) -> RunReport:
    """Run every (p, algorithm) cell of the spec and aggregate CAT/SAT.

    Traces and activation decisions for trial i occupy row i of bulk Philox
    draws, so each trial is a pure function of (seed, cell, trial index) and
    results do not depend on the number of trials run around them. Offline
    cells count every trial's optimum with the closed form
    offline.optimum_counts; the oracle cell, when requested, solves each
    trial exhaustively and checks it against those counts. Online cells
    count all trials of a mode with one call of online.simulate_arrays.
    """
    report = RunReport(config={"experiment": spec.to_json_dict()})
    eta = spec.eta
    shape = (spec.trials, spec.period_len)
    for cell_idx, p in enumerate(spec.p_values):
        cell_name = f"p={p:g}"
        b_u, b_v = _draw_pair(spec.seed, _TAG_TRACE, cell_idx, p, p, shape)
        sync, asyn = optimum_counts(b_u, b_v)
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

        if "oracle" in spec.algorithms:
            oracle_cat = np.empty(spec.trials)
            oracle_equal = True
            for i in range(spec.trials):
                graph = build_graph(EnergyTrace("u", b_u[i]), EnergyTrace("v", b_v[i]), eta)
                ores = brute_force_matching(graph)
                oracle_cat[i] = ores.best_weight
                if (ores.best_sync_count, ores.best_async_count) != (sync[i], asyn[i]):
                    oracle_equal = False
            report.cells.append(
                {
                    "cell": cell_name,
                    "p": p,
                    "eta": eta,
                    "algorithm": "oracle",
                    "metrics": {"cat": _stats(oracle_cat)},
                    "checks": {"matches_offline_exactly": oracle_equal},
                }
            )

        if "online" in spec.algorithms:
            d_u, d_v = _draw_pair(spec.seed, _TAG_DECISION, cell_idx, p, p, shape)
            for mode in spec.modes:
                on_sat, on_async, on_wasted = simulate_arrays(b_u, b_v, d_u, d_v, mode)
                on_cat = on_sat + eta * on_async
                trial_ratios = np.where(
                    off_cat > 0.0, on_cat / np.where(off_cat > 0.0, off_cat, 1.0), 1.0
                )
                ratio_stats = _stats(trial_ratios)
                ratio_of_means = (
                    float(on_cat.mean() / off_cat.mean()) if off_cat.mean() > 0 else 1.0
                )
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
                            "offline_dominates": bool(
                                np.all(off_cat >= on_cat - 1e-9)
                            ),
                        },
                    }
                )
    return report


def random_instance(
    seed: int, index: int, period_len: int, p: float
) -> tuple[EnergyTrace, EnergyTrace]:
    """Deterministic random trace pair for certification runs."""
    rng = _stream(seed, _TAG_INSTANCE, index)
    b_u = rng.random(period_len) < p
    b_v = rng.random(period_len) < p
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
    if m < 1:
        raise ValueError(f"need at least one bin, got {m}")
    if not (0 <= subset_size <= m):
        raise ValueError(f"subset_size must lie in 0..{m}, got {subset_size}")
    if not (0 <= n <= m):
        raise ValueError(f"n must lie in 0..{m}, got {n}")
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if epsilon < 0.0:
        raise ValueError(f"epsilon must be non-negative, got {epsilon}")

    rng = _stream(seed, _TAG_BINS)
    counts = np.zeros(trials, dtype=np.int64)
    if n > 0:
        chunk = max(1, min(trials, 4_000_000 // max(n, 1)))
        done = 0
        while done < trials:
            rows = min(chunk, trials - done)
            balls = np.sort(rng.integers(0, m, size=(rows, n)), axis=1)
            in_subset = balls < subset_size
            first = in_subset[:, :1].astype(np.int64).sum(axis=1)
            if n > 1:
                new = (balls[:, 1:] != balls[:, :-1]) & in_subset[:, 1:]
                counts[done : done + rows] = first + new.sum(axis=1)
            else:
                counts[done : done + rows] = first
            done += rows

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


def run_trace_pairs(
    pairs: list[tuple[EnergyTrace, EnergyTrace]],
    eta: float,
    online_cfg: OnlineConfig,
) -> RunReport:
    """Run offline and online over measured trace pairs, one report row each."""
    report = RunReport(
        config={
            "eta": eta,
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
        if trace_u.period_len != trace_v.period_len:
            raise ValueError(
                f"{pair_id}: traces disagree on period length: "
                f"{trace_u.period_len} vs {trace_v.period_len}"
            )
        offline = offline_duty_cycle(build_graph(trace_u, trace_v, eta))
        online = online_duty_cycle(trace_u, trace_v, online_cfg)
        ratio = ratio_online_to_offline(online, offline)
        rows = pair_rows(
            trace_u,
            trace_v,
            [
                (f"{pair_id}/offline", offline.cat_total, offline.sat_total),
                (f"{pair_id}/online[{online.mode.value}]", online.cat_total, online.sat_total),
            ],
        )
        report.pairs.extend(rows)
        report.cells.append(
            {
                "cell": pair_id,
                "eta": eta,
                "algorithm": "pair",
                "metrics": {
                    "offline_cat": {"mean": offline.cat_total, "std": 0.0, "stderr": 0.0, "n": 1},
                    "online_cat": {"mean": online.cat_total, "std": 0.0, "stderr": 0.0, "n": 1},
                    "ratio": {"mean": ratio, "std": 0.0, "stderr": 0.0, "n": 1},
                },
                "heterogeneity": rows[0].heterogeneity,
                "wasted_units": online.wasted_units,
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
    shape = (trials, period_len)
    for combo_idx, (p_u, p_v) in enumerate(itertools.product(p_values, p_values)):
        b_u, b_v = _draw_pair(seed, _TAG_TRACE, 1000 + combo_idx, p_u, p_v, shape)
        d_u, d_v = _draw_pair(seed, _TAG_DECISION, 1000 + combo_idx, p_u, p_v, shape)
        sync, asyn = optimum_counts(b_u, b_v)
        off = sync + eta * asyn
        on_sync, on_async, _ = simulate_arrays(b_u, b_v, d_u, d_v, OnlineMode.MATCHING)
        onl = on_sync + eta * on_async
        rows.append(
            {
                "p_u": p_u,
                "p_v": p_v,
                "min_p": min(p_u, p_v),
                "mean_offline_cat": float(off.mean()),
                "mean_online_cat": float(onl.mean()),
                "ratio_of_means": float(onl.mean() / off.mean()) if off.mean() > 0 else 1.0,
                "mean_heterogeneity": float(heterogeneity(b_u, b_v).mean()),
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


def verify_optimality(trials: int = 500, seed: int = DEFAULT_SEED, eta: float = 0.75) -> dict:
    """Offline totals must equal the exhaustive oracle on random instances."""
    mismatches = []
    for i in range(trials):
        p = T1_P_GRID[i % len(T1_P_GRID)]
        trace_u, trace_v = random_instance(seed, i, T1_PERIOD, p)
        graph = build_graph(trace_u, trace_v, eta)
        off = offline_duty_cycle(graph)
        ora = brute_force_matching(graph)
        if (off.sync_count, off.async_count) != (ora.best_sync_count, ora.best_async_count):
            mismatches.append(
                {
                    "instance": i,
                    "offline": [off.sync_count, off.async_count],
                    "oracle": [ora.best_sync_count, ora.best_async_count],
                }
            )
    return {
        "suite": "t1",
        "trials": trials,
        "period_len": T1_PERIOD,
        "eta": eta,
        "seed": seed,
        "mismatches": mismatches,
        "passed": not mismatches,
    }


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
    report = run_monte_carlo(spec)
    cells = []
    passed = True
    for cell in report.cells:
        ok = cell["checks"]["within_1pct_of_expected"]
        passed = passed and ok
        cells.append(
            {
                "p": cell["p"],
                "mean_cat": cell["metrics"]["cat"]["mean"],
                "stderr": cell["metrics"]["cat"]["stderr"],
                "expected": cell["references"]["expected_cat"],
                "relative_gap": cell["checks"]["relative_gap"],
                "within_1pct": ok,
            }
        )
    return {
        "suite": "t2",
        "trials": trials,
        "period_len": T2_PERIOD,
        "eta": eta,
        "seed": seed,
        "cells": cells,
        "passed": passed,
    }


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
    report = run_monte_carlo(spec)
    cells = []
    passed = True
    for cell in report.cells:
        if not cell["algorithm"].startswith("online"):
            continue
        ok = cell["checks"]["bound_satisfied"] and cell["checks"]["offline_dominates"]
        passed = passed and ok
        cells.append(
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
        )
    return {
        "suite": "t4",
        "trials": trials,
        "period_len": T2_PERIOD,
        "eta": eta,
        "seed": seed,
        "cells": cells,
        "passed": passed,
    }


def verify_bins(trials: int = 10_000, seed: int = DEFAULT_SEED) -> dict:
    """Concentration and exact-mean checks for the occupancy experiment."""
    rep = check_balls_in_bins(
        n=BINS_DEFAULTS["n"],
        m=BINS_DEFAULTS["m"],
        subset_size=BINS_DEFAULTS["subset_size"],
        epsilon=BINS_DEFAULTS["epsilon"],
        trials=trials,
        seed=seed,
    )
    passed = rep.freq_bound_satisfied and rep.mean_rel_error <= 0.02
    return {"suite": "bins", "seed": seed, "report": asdict(rep), "passed": passed}
