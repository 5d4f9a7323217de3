"""Certification suite: one test per acceptance criterion, each printing a
PASS/FAIL line (run pytest with -s or -rA to see them).

Criterion 2 holds the mean offline CAT to the exact expected optimum,
exact_expected_cat, and checks that the paper's closed-form reference,
expected_cat, overcounts it. That reference counts every one-sided harvest
slot as an asynchronous edge, while each asynchronous edge uses one
one-sided slot from each device, so no schedule can reach it: the harness
keeps reporting the gap and `verify --suite t2` keeps exiting 1. See README
for the measured numbers.
"""

import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import dutycycle
from dutycycle import (
    EnergyTrace,
    OnlineConfig,
    OnlineMode,
    PairResult,
    assert_energy_feasible,
    brute_force_matching,
    exact_expected_cat,
    offline_duty_cycle,
    online_duty_cycle,
)
from dutycycle.harness import (
    heterogeneity_sweep,
    verify_bins,
    verify_expected_cat,
    verify_optimality,
    verify_ratio_bound,
)
from dutycycle.offline import duty_cycle_arrays
from dutycycle.oracle import schedule_counts
from instances import random_instance

SEED = 20150

P_GRID = (0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)


def report(name: str, ok: bool, detail: str = "") -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")


def test_criterion_1_offline_optimality_exhaustive_and_random():
    t0 = time.time()
    eta = 0.75
    masks = [np.array([(m >> k) & 1 for k in range(8)], dtype=bool) for m in range(256)]
    traces_u = [EnergyTrace("u", arr) for arr in masks]
    traces_v = [EnergyTrace("v", arr) for arr in masks]

    # pair (mu, mv) is row 256 * mu + mv; the greedy walks all 65,536 rows
    # in one block, and each row's matching is checked on its own
    rows = np.array(masks)
    b_u, b_v = np.repeat(rows, 256, axis=0), np.tile(rows, (256, 1))
    matchings = iter(duty_cycle_arrays(b_u, b_v))
    mismatches = 0
    totals = []
    for mu in range(256):
        trace_u = traces_u[mu]
        for mv in range(256):
            # PairResult rejects a vertex used twice, so this also checks
            # that every greedy matching is exclusive
            matched = PairResult(next(matchings), eta, 8)
            greedy = (matched.sync_count, matched.async_count)
            ora = brute_force_matching(trace_u, traces_v[mv], eta)
            totals.append([ora.sync_count, ora.async_count])
            if greedy != (ora.sync_count, ora.async_count):
                mismatches += 1
    assert next(matchings, None) is None
    # the schedule oracle, in one batch, finds the matching oracle's totals
    schedules = schedule_counts(b_u, b_v, eta)

    random_result = verify_optimality(trials=500, seed=SEED, eta=eta)
    elapsed = time.time() - t0
    ok = mismatches == 0 and random_result["passed"]
    report(
        "criterion 1 (optimality)",
        ok,
        f"65536 exhaustive period-8 instances, 500 random period-12 instances, "
        f"{mismatches} mismatches, {elapsed:.1f}s",
    )
    assert mismatches == 0
    assert schedules.T.tolist() == totals
    assert random_result["passed"], random_result["mismatches"][:3]


def test_criterion_2_expected_cat_reference():
    t0 = time.time()
    result = verify_expected_cat(trials=10_000, seed=SEED)
    period_len, eta = result["period_len"], result["eta"]
    failures = []
    details = []
    for cell in result["cells"]:
        p = cell["p"]
        exact = exact_expected_cat(period_len, p, eta)
        # each asynchronous edge uses one U-only and one V-only slot, so
        # async <= min(X, Y) <= (X + Y) / 2 bounds every schedule
        bound = period_len * (p * p + eta * p * (1.0 - p))
        gap = abs(cell["mean_cat"] - exact)
        checks = {
            "mean within 1% of exact": gap <= 0.01 * exact,
            "mean within 4 stderr of exact": gap <= 4.0 * cell["stderr"],
            "exact under the bound": exact <= bound,
            "paper formula above the bound": cell["expected"] > bound,
            "harness reports the paper's gap": not cell["within_1pct"],
        }
        failures += [f"p={p:g}: {name}" for name, held in checks.items() if not held]
        details.append(
            f"p={p:g} mean={cell['mean_cat']:.2f} exact={exact:.2f} "
            f"z={(cell['mean_cat'] - exact) / cell['stderr']:+.2f} bound={bound:.1f} "
            f"paper={cell['expected']:.1f}"
        )
    elapsed = time.time() - t0
    report(
        "criterion 2 (expected CAT within 1% of exact)",
        not failures,
        f"{'; '.join(details)}, {elapsed:.1f}s",
    )
    assert not failures, failures


def test_criterion_3_online_ratio_bound():
    t0 = time.time()
    result = verify_ratio_bound(trials=10_000, seed=SEED)
    elapsed = time.time() - t0
    details = "; ".join(
        f"p={c['p']:g} {c['mode']} ratio={c['ratio_of_means']:.3f} bound={c['bound']:.4f}"
        for c in result["cells"]
    )
    report("criterion 3 (ratio bound)", result["passed"], f"{details}, {elapsed:.1f}s")
    assert result["passed"]
    assert len(result["cells"]) == 6


def test_criterion_4_balls_in_bins_concentration():
    t0 = time.time()
    result = verify_bins(trials=10_000, seed=SEED)
    rep = result["report"]
    elapsed = time.time() - t0
    report(
        "criterion 4 (occupancy concentration)",
        result["passed"],
        f"freq={rep['empirical_freq']:.4f} >= bound={rep['prob_bound']:.4f}, "
        f"mean={rep['empirical_mean']:.2f} vs exact={rep['exact_mean']:.2f} "
        f"(rel err {rep['mean_rel_error'] * 100:.2f}%), {elapsed:.1f}s",
    )
    assert rep["empirical_freq"] >= rep["prob_bound"]
    assert rep["mean_rel_error"] <= 0.02


def test_criterion_5_energy_feasibility_everywhere():
    t0 = time.time()
    violations = 0
    checked = 0
    for i in range(1000):
        p = P_GRID[i % len(P_GRID)]
        trace_u, trace_v = random_instance(seed=SEED + 1, index=i, period_len=200, p=p)
        offline = offline_duty_cycle(trace_u, trace_v, 0.75)
        schedules = [offline.schedule()]
        for mode in OnlineMode:
            cfg = OnlineConfig(prob_active=p, seed=SEED + i, mode=mode)
            schedules.append(online_duty_cycle(trace_u, trace_v, 0.75, cfg).schedule())
        for sched in schedules:
            checked += 1
            try:
                assert_energy_feasible(sched, trace_u, trace_v)
            except ValueError:
                violations += 1
    elapsed = time.time() - t0
    report(
        "criterion 5 (prefix energy budget)",
        violations == 0,
        f"{checked} schedules over 1000 instances, {violations} violations, {elapsed:.1f}s",
    )
    assert violations == 0


def test_criterion_6_worked_example():
    trace_u = EnergyTrace("u", (1, 0, 0, 1, 0, 1, 0, 1, 0))
    trace_v = EnergyTrace("v", (1, 0, 1, 0, 0, 1, 0, 0, 1))
    result = offline_duty_cycle(trace_u, trace_v, eta=0.75)
    expected_edges = {(1, 1), (6, 6), (4, 3), (8, 9)}
    ok = (
        result.cat_total == 3.5
        and result.sat_total == 2.0
        and set(result.edges) == expected_edges
    )
    report(
        "criterion 6 (worked example)",
        ok,
        f"cat={result.cat_total} sat={result.sat_total} edges={sorted(result.edges)}",
    )
    assert result.cat_total == 3.5
    assert result.sat_total == 2.0
    assert set(result.edges) == expected_edges


def _cli(*argv: str) -> subprocess.CompletedProcess:
    # pytest's `pythonpath` setting does not reach child processes, so hand
    # the child the directory of the package this test imported
    src = os.path.dirname(os.path.dirname(os.path.abspath(dutycycle.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "dutycycle.cli", *argv],
        capture_output=True,
        timeout=300,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_criterion_7_cli_determinism():
    t0 = time.time()
    run_args = ("run", "--prob", "0.5", "--period", "200", "--algo", "both", "--seed", "99")
    first = _cli(*run_args)
    second = _cli(*run_args)
    verify_args = ("verify", "--suite", "t1", "--trials", "40", "--seed", "99")
    v_first = _cli(*verify_args)
    v_second = _cli(*verify_args)
    elapsed = time.time() - t0
    ok = (
        first.stdout == second.stdout
        and first.returncode == second.returncode == 0
        and v_first.stdout == v_second.stdout
        and v_first.returncode == v_second.returncode == 0
    )
    report("criterion 7 (CLI determinism)", ok, f"byte-identical reruns, {elapsed:.1f}s")
    assert first.stdout == second.stdout
    assert v_first.stdout == v_second.stdout
    assert first.returncode == 0 and v_first.returncode == 0
    json.loads(first.stdout)  # the run payload is valid JSON


def test_criterion_8_qualitative_trends_on_heterogeneous_pairs():
    t0 = time.time()
    rows = heterogeneity_sweep(
        p_values=(0.2, 0.4, 0.6, 0.8, 1.0), period_len=300, trials=60, seed=SEED + 2
    )
    # ratio of means, binned by the weaker device's probability, must climb
    # toward 1 as min(p_u, p_v) climbs
    by_min_p: dict[float, list[float]] = {}
    for row in rows:
        by_min_p.setdefault(row["min_p"], []).append(row["ratio_of_means"])
    min_ps = sorted(by_min_p)
    ratio_means = [float(np.mean(by_min_p[p])) for p in min_ps]
    ratio_monotone = all(a <= b + 1e-9 for a, b in zip(ratio_means, ratio_means[1:]))
    endpoint_exact = by_min_p[1.0] == [1.0]

    # offline CAT, binned by realized heterogeneity, must fall as pairs grow
    # more heterogeneous
    ordered = sorted(rows, key=lambda r: r["mean_heterogeneity"])
    cats = [r["mean_offline_cat"] for r in ordered]
    n_bins = 5
    size = len(cats) // n_bins
    cat_bins = [float(np.mean(cats[k * size : (k + 1) * size])) for k in range(n_bins)]
    cat_monotone = all(a >= b - 1e-9 for a, b in zip(cat_bins, cat_bins[1:]))

    elapsed = time.time() - t0
    ok = ratio_monotone and endpoint_exact and cat_monotone
    report(
        "criterion 8 (qualitative trends)",
        ok,
        f"ratio by min_p {['%.3f' % r for r in ratio_means]}, "
        f"CAT by heterogeneity bin {['%.1f' % c for c in cat_bins]}, {elapsed:.1f}s",
    )
    assert ratio_monotone, ratio_means
    assert endpoint_exact
    assert cat_monotone, cat_bins
