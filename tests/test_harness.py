import hashlib
import itertools
import json
import math
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from dutycycle import (
    ArrivalModel,
    EnergyTrace,
    ExperimentSpec,
    OnlineConfig,
    PairResult,
    RawTrace,
    approx_ratio_bound,
    brute_force_matching,
    check_balls_in_bins,
    compute_heterogeneity,
    exact_expected_cat,
    expected_cat,
    generate_pair,
    offline_duty_cycle,
    online_duty_cycle,
    run_monte_carlo,
    run_trace_pairs,
    threshold_trace,
)
from dutycycle import harness
from dutycycle.metrics import heterogeneity
from dutycycle.offline import duty_cycle_arrays, optimum_counts
from dutycycle.online import OnlineMode, _walk_pair, simulate_arrays
from dutycycle.traces import check_count, check_seed
from dutycycle.harness import (
    heterogeneity_sweep,
    verify_bins,
    verify_expected_cat,
    verify_optimality,
    verify_ratio_bound,
)


def trace(states, device_id="u"):
    return EnergyTrace(device_id=device_id, states=states)


def small_spec(**overrides):
    base = dict(
        period_len=120,
        p_values=(0.3, 0.7),
        trials=200,
        eta=0.75,
        seed=7,
        algorithms=("offline", "online"),
    )
    base.update(overrides)
    return ExperimentSpec(**base)


def test_reports_are_byte_identical_for_identical_specs():
    a = run_monte_carlo(small_spec())
    b = run_monte_carlo(small_spec())
    assert a.to_json() == b.to_json()
    assert a.to_csv() == b.to_csv()


def test_offline_dominates_online_in_every_cell():
    report = run_monte_carlo(small_spec())
    online_cells = [c for c in report.cells if c["algorithm"].startswith("online")]
    assert len(online_cells) == 4  # two p values x two modes
    for cell in online_cells:
        assert cell["checks"]["offline_dominates"] is True
        assert cell["checks"]["ratio_of_means"] <= 1.0 + 1e-9


def test_trial_results_do_not_depend_on_trial_count():
    # row i of the bulk draws is a pure function of (seed, cell, i)
    a = run_monte_carlo(small_spec(trials=50))
    b = run_monte_carlo(small_spec(trials=150))
    # means differ, but re-running the smaller spec reproduces it exactly
    c = run_monte_carlo(small_spec(trials=50))
    assert a.to_json() == c.to_json()
    assert a.to_json() != b.to_json()


def test_p_one_collapses_all_algorithms_to_period_length():
    report = run_monte_carlo(small_spec(p_values=(1.0,), trials=20))
    for cell in report.cells:
        assert cell["metrics"]["cat"]["mean"] == pytest.approx(120.0)
        assert cell["metrics"]["cat"]["stderr"] == 0.0


def test_zero_over_zero_reads_one_in_every_ratio():
    # p = 0: no device harvests, both CATs are 0 in every trial
    report = run_monte_carlo(ExperimentSpec(period_len=50, p_values=(0.0,), trials=40, seed=3))
    online_cells = [c for c in report.cells if c["algorithm"].startswith("online")]
    assert len(online_cells) == 2
    for cell in online_cells:
        assert cell["metrics"]["ratio"]["mean"] == 1.0
        assert cell["checks"]["ratio_of_means"] == 1.0
    rows = heterogeneity_sweep((0.0, 0.5), 50, 40, seed=3)
    zero_rows = [r for r in rows if r["min_p"] == 0.0]
    assert len(zero_rows) == 3
    for row in zero_rows:
        assert row["ratio_of_means"] == 1.0
        assert row["mean_offline_cat"] == 0.0


def test_oracle_cell_matches_offline_exactly():
    report = run_monte_carlo(
        small_spec(period_len=12, trials=60, algorithms=("offline", "oracle"))
    )
    oracle_cells = [c for c in report.cells if c["algorithm"] == "oracle"]
    assert oracle_cells and all(c["checks"]["matches_offline_exactly"] for c in oracle_cells)


def test_oracle_refused_on_large_periods():
    with pytest.raises(ValueError, match="oracle"):
        small_spec(period_len=100, algorithms=("offline", "oracle"))
    with pytest.raises(ValueError, match=r"oracle runs need period_len <= 12, got 13"):
        small_spec(period_len=13, algorithms=("oracle",))
    assert small_spec(period_len=12, algorithms=("oracle",)).period_len == 12


def test_spec_validation():
    with pytest.raises(ValueError):
        small_spec(trials=0)
    with pytest.raises(ValueError):
        small_spec(p_values=())
    with pytest.raises(ValueError):
        small_spec(p_values=(1.2,))
    with pytest.raises(ValueError):
        small_spec(algorithms=("offline", "magic"))
    with pytest.raises(ValueError, match="algorithms must not be empty"):
        small_spec(algorithms=())
    # run_monte_carlo names a cell f"p={p:g}", so two p values may not share a name
    with pytest.raises(ValueError, match=r"^p_values repeat 'p=0\.5'$"):
        small_spec(p_values=(0.5, 0.3, 0.5))
    with pytest.raises(ValueError, match=r"^p_values repeat 'p=0\.3'$"):
        small_spec(p_values=(0.3, 0.30000000000000004))
    with pytest.raises(ValueError, match=r"^algorithms repeat 'offline'$"):
        small_spec(algorithms=("offline", "online", "offline"))


def test_stderr_shrinks_with_trials():
    few = run_monte_carlo(small_spec(p_values=(0.5,), trials=100, algorithms=("offline",)))
    many = run_monte_carlo(small_spec(p_values=(0.5,), trials=10_000, algorithms=("offline",)))
    se_few = few.cells[0]["metrics"]["cat"]["stderr"]
    se_many = many.cells[0]["metrics"]["cat"]["stderr"]
    assert se_many > 0
    # 100x the trials should shrink the standard error by about 10x
    assert 5.0 <= se_few / se_many <= 20.0


def _chunked_outputs():
    oracle_spec = small_spec(period_len=12, trials=400, algorithms=("offline", "oracle", "online"))
    online_spec = small_spec(period_len=1000, trials=23)
    reports = [run_monte_carlo(spec) for spec in (oracle_spec, online_spec)]
    sweep = heterogeneity_sweep((0.2, 0.6, 1.0), 1000, 23, seed=5)
    return [r.to_json() for r in reports] + [r.to_csv() for r in reports] + [json.dumps(sweep)]


@pytest.mark.parametrize("chunk_slots", [1, 3000], ids=["one-row", "rows-not-dividing"])
def test_reports_do_not_depend_on_the_block_size(monkeypatch, chunk_slots):
    # one row per block, then blocks of 250 rows at T = 12 and 3 rows at
    # T = 1000, which divide neither trial count: every byte must match the
    # default blocks
    default = _chunked_outputs()
    monkeypatch.setattr(harness, "_CHUNK_SLOTS", chunk_slots)
    assert _chunked_outputs() == default


@pytest.fixture(scope="module")
def default_outputs():
    return _chunked_outputs()


def _split(monkeypatch, shards, rows):
    # force a split that the host's CPU count and the row floor would not give
    monkeypatch.setattr(harness, "_shard_plan", lambda trials, period_len: (shards, rows))


@pytest.mark.parametrize("rows", [1, 3, 250], ids=["one-row", "rows-not-dividing", "whole-shard"])
@pytest.mark.parametrize("shards", [1, 2, 3])
def test_reports_do_not_depend_on_the_shard_count(monkeypatch, default_outputs, shards, rows):
    # one shard, then shards of 200 and 133-134 trials at T = 12 and of
    # 11-12 and 7-8 at T = 1000: every byte must match the default split
    _split(monkeypatch, shards, rows)
    assert _chunked_outputs() == default_outputs


@pytest.mark.parametrize("cpus", [1, 2, 3, 16, 64, 256])
@pytest.mark.parametrize(
    "trials, period_len",
    [(1, 7), (40, 7), (500, 12), (10_000, 1000), (64, 1000), (10_000, 30_000), (10_000, 2**16)],
)
def test_shard_plan_keeps_blocks_and_memory_of_one_block(monkeypatch, cpus, trials, period_len):
    monkeypatch.setattr(harness, "_worker_count", lambda: cpus)
    shards, rows = harness._shard_plan(trials, period_len)
    single_block = max(1, harness._CHUNK_SLOTS // period_len) * period_len
    assert 1 <= shards <= cpus
    assert shards * rows * period_len <= single_block
    if shards == 1:
        assert rows == max(1, harness._CHUNK_SLOTS // period_len)
    else:
        assert rows >= harness._MIN_SHARD_ROWS
        assert trials // shards >= harness._MIN_SHARD_ROWS


@pytest.mark.parametrize(
    "cpus, trials, period_len, plan",
    [
        (2, 500, 1000, (2, 32)),  # the measured mc-* split
        (64, 10_000, 1000, (2, 32)),
        (64, 10_000, 12, (64, 85)),
        (2, 63, 1000, (1, 65)),
        (16, 10_000, 30_000, (1, 2)),
        (16, 10_000, 10**6, (1, 1)),
    ],
)
def test_shard_plan_examples(monkeypatch, cpus, trials, period_len, plan):
    monkeypatch.setattr(harness, "_worker_count", lambda: cpus)
    assert harness._shard_plan(trials, period_len) == plan


@pytest.mark.parametrize("period_len", [7, 12, 1000])
def test_a_shard_starts_on_its_row_of_one_whole_draw(period_len):
    # start * period_len runs through every residue mod 4 at T = 7, so the
    # skip takes both advance() and random_raw() at every offset
    trials = 9
    whole = next(harness._trial_blocks(5, 2, 0.3, 0.6, 0, trials, period_len, True, trials))[1]
    for start in range(trials):
        block, first = next(
            harness._trial_blocks(5, 2, 0.3, 0.6, start, trials, period_len, True, 1)
        )
        assert block == slice(start, start + 1)
        for got, want in zip(first, whole):
            np.testing.assert_array_equal(got, want[start : start + 1])


@pytest.mark.parametrize("rows", [1, 9, 20])
@pytest.mark.parametrize("period_len", [7, 12, 1000, 1003])
def test_blocks_are_packed_rows_of_one_whole_bool_draw(monkeypatch, period_len, rows):
    # blocks of 9 and 20 rows are drawn 2 and 3 rows at a time, which
    # divide neither them nor the shards' 11 - start trials; every block
    # must still be np.packbits of its rows of one whole draw per stream,
    # zero padded, and no draw may cover more than ceil(rows / 8) rows.
    # So too with a per-trial p, 0 and 1 among it, compared as a column
    trials = 11
    per_trial = (np.linspace(0.0, 1.0, trials), np.resize([0.9, 0.2, 0.5], trials))
    draws, real_bernoulli = [], harness.bernoulli

    def bernoulli(rng, size, p):
        draws.append(size[0])
        return real_bernoulli(rng, size, p)

    monkeypatch.setattr(harness, "bernoulli", bernoulli)
    for p_u, p_v in (0.3, 0.6), per_trial:
        whole = []
        for tag in (harness._TAG_TRACE, harness._TAG_DECISION):
            for side, p in enumerate((p_u, p_v)):
                rng = harness._stream(5, tag, 2, side)
                draw = rng.random((trials, period_len)) < np.reshape(p, (-1, 1))
                whole.append(np.packbits(draw, axis=-1))
        for start in range(9):
            args = (5, 2, p_u, p_v, start, trials, period_len, True, rows)
            got = list(harness._trial_blocks(*args))
            assert [block.start for block, _ in got] == list(range(start, trials, rows))
            assert got[-1][0].stop == trials
            for block, arrays in got:
                assert block.stop - block.start <= rows
                for packed, want in zip(arrays, whole):
                    assert packed.dtype == np.uint8
                    np.testing.assert_array_equal(packed, want[block])
                    assert not np.unpackbits(packed, axis=-1)[:, period_len:].any()
    assert max(draws) == -(-rows // 8)


def test_a_block_holds_eight_draws(monkeypatch):
    # the measured mc-* split: two shards of 250 trials at T = 1000 take
    # one block each, drawn 32 rows a time, the rows of one _shard_plan block
    monkeypatch.setattr(harness, "_worker_count", lambda: 2)
    assert harness._shard_plan(500, 1000) == (2, 32)
    blocks, draws = [], []
    real_blocks, real_bernoulli = harness._trial_blocks, harness.bernoulli

    def trial_blocks(*args):
        for block, arrays in real_blocks(*args):
            blocks.append(block.stop - block.start)
            yield block, arrays

    def bernoulli(rng, size, p):
        draws.append(size[0])
        return real_bernoulli(rng, size, p)

    monkeypatch.setattr(harness, "_trial_blocks", trial_blocks)
    monkeypatch.setattr(harness, "bernoulli", bernoulli)
    run_monte_carlo(small_spec(period_len=1000, p_values=(0.5,), trials=500))
    assert sorted(blocks) == [250, 250]
    assert max(draws) == 32 and len(draws) == 2 * 4 * 8


def _recorded_blocks(monkeypatch):
    # (start, decisions, block rows) of every block _cell_counts draws
    seen, real_blocks = [], harness._trial_blocks

    def trial_blocks(seed, cell, p_u, p_v, start, stop, period_len, decisions, rows):
        for block, arrays in real_blocks(
            seed, cell, p_u, p_v, start, stop, period_len, decisions, rows
        ):
            seen.append((start, decisions, block.stop - block.start))
            yield block, arrays

    monkeypatch.setattr(harness, "_trial_blocks", trial_blocks)
    return seen


def test_cell_counts_equal_the_single_pair_path_trial_by_trial(monkeypatch):
    # a heterogeneous cell at a period that is not a multiple of 8, split
    # into two shards of 20 trials, each drawn as blocks of 8, 8 and 4 rows;
    # eta = 0.6 is not a binary fraction
    seed, cell, p_u, p_v, trials, period_len, eta = 11, 4, 0.2, 0.9, 40, 11, 0.6
    _split(monkeypatch, 2, 1)
    seen = _recorded_blocks(monkeypatch)
    counts = harness._cell_counts(
        seed, cell, p_u, p_v, trials, period_len,
        modes=tuple(OnlineMode), oracle_eta=eta, het=True,
    )
    assert sorted(seen) == sorted((start, True, rows) for start in (0, 20) for rows in (8, 8, 4))
    assert set(counts) == {"offline", "oracle", "heterogeneity", *OnlineMode}
    whole = next(harness._trial_blocks(seed, cell, p_u, p_v, 0, trials, period_len, True, trials))
    b_u, b_v, d_u, d_v = (
        np.unpackbits(rows, axis=-1, count=period_len).astype(bool) for rows in whole[1]
    )
    for i in range(trials):
        trace_u, trace_v = trace(b_u[i]), trace(b_v[i], "v")
        offline = offline_duty_cycle(trace_u, trace_v, eta)
        assert counts["offline"][:, i].tolist() == [offline.sync_count, offline.async_count]
        ora = brute_force_matching(trace_u, trace_v, eta)
        assert counts["oracle"][:, i].tolist() == [ora.sync_count, ora.async_count]
        for mode in OnlineMode:
            walk = _walk_pair(b_u[i], b_v[i], d_u[i], d_v[i], mode, eta)
            want = [walk.sync_count, walk.async_count, walk.wasted_units]
            assert counts[mode][:, i].tolist() == want
        assert counts["heterogeneity"][i] == compute_heterogeneity(trace_u, trace_v)


def test_cell_counts_draw_decisions_only_for_a_mode(monkeypatch):
    seen = _recorded_blocks(monkeypatch)
    counts = harness._cell_counts(3, 0, 0.5, 0.5, 50, 20)
    assert list(counts) == ["offline"] and counts["offline"].shape == (2, 50)
    assert seen and not any(decisions for _, decisions, _ in seen)


def test_count_kernels_refuse_bool_rows():
    b = np.ones((2, 16), dtype=bool)
    packed = np.packbits(b, axis=-1)
    with pytest.raises(TypeError, match="uint8"):
        optimum_counts(b, b)
    with pytest.raises(TypeError, match="uint8"):
        optimum_counts(packed, b)
    for mode in OnlineMode:
        with pytest.raises(TypeError, match="uint8"):
            simulate_arrays(b, b, b, b, mode)
        with pytest.raises(TypeError, match="uint8"):
            simulate_arrays(packed, packed, packed, b, mode)
    with pytest.raises(TypeError, match="uint8"):
        heterogeneity(b, b)
    assert optimum_counts(packed, packed)[0].tolist() == [16, 16]


@pytest.mark.parametrize("failing_start", [0, 20], ids=["new-thread", "calling-thread"])
def test_a_shard_error_propagates_and_stops_the_other_shards(monkeypatch, failing_start):
    # three shards of ten one-row blocks: the first runs on a new thread,
    # the last on the calling thread. The other shards wait for the
    # failure before their second block, and must then stop
    real_blocks = harness._trial_blocks
    failed = threading.Event()
    drawn = []

    def blocks(seed, cell, p_u, p_v, start, *rest):
        if start == failing_start:
            failed.set()
            raise RuntimeError("shard failed")
        return survivor(real_blocks(seed, cell, p_u, p_v, start, *rest))

    def survivor(blocks):
        for count, item in enumerate(blocks, 1):
            if count == 2:
                failed.wait(10)
                time.sleep(0.05)  # lets the failing shard record its error
            drawn.append(count)
            yield item

    _split(monkeypatch, 3, 1)
    monkeypatch.setattr(harness, "_trial_blocks", blocks)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="^shard failed$"):
        run_monte_carlo(small_spec(p_values=(0.5,), trials=30))
    assert threading.active_count() == before
    # each of the other two shards drew its first block and at most one
    # more, of ten
    assert drawn.count(1) == 2 and set(drawn) <= {1, 2}


def test_shards_survive_frequent_thread_switches(monkeypatch, default_outputs):
    # more shards than most hosts have cores, switching threads every
    # microsecond: each shard still writes only its own rows
    _split(monkeypatch, 8, 3)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        outputs = _chunked_outputs()
    finally:
        sys.setswitchinterval(interval)
    assert outputs == default_outputs


@pytest.mark.parametrize("trials", [2_000, 20_000])
def test_monte_carlo_memory_stays_bounded(trials):
    # draws live one block at a time; only the per-trial count vectors
    # grow with trials (about 1.5 MB of them at 20k)
    spec = small_spec(period_len=1000, p_values=(0.5,), trials=trials)
    tracemalloc.start()
    try:
        run_monte_carlo(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def _traced_peak(spec):
    tracemalloc.start()
    try:
        run_monte_carlo(spec)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("cpus", [2, 3])
def test_shards_hold_no_more_draws_than_one_block(monkeypatch, cpus):
    # T = 40,000 slots is above _CHUNK_SLOTS / cpus, so the cell's one
    # block is a single row; one-row blocks on every CPU would hold cpus
    # rows at once (about 1.8x and 2.2x the one-CPU peak)
    spec = small_spec(period_len=40_000, p_values=(0.5,), trials=cpus * harness._MIN_SHARD_ROWS)
    monkeypatch.setattr(harness, "_worker_count", lambda: 1)
    _traced_peak(spec)  # first-call allocations
    one_cpu = _traced_peak(spec)
    monkeypatch.setattr(harness, "_worker_count", lambda: cpus)
    assert _traced_peak(spec) < 1.25 * one_cpu


# ---------------------------------------------------------------------------
# balls into bins
# ---------------------------------------------------------------------------


def exact_mean_by_enumeration(n, m, subset_size):
    total = 0.0
    cases = 0
    for balls in itertools.product(range(m), repeat=n):
        total += len({b for b in balls if b < subset_size})
        cases += 1
    return total / cases


def test_bins_exact_mean_formula_against_enumeration():
    # independent oracle: enumerate all m^n placements for a tiny instance
    for n, m, a in ((2, 3, 2), (3, 4, 4), (3, 3, 1)):
        enumerated = exact_mean_by_enumeration(n, m, a)
        formula = a * (1.0 - (1.0 - 1.0 / m) ** n)
        assert formula == pytest.approx(enumerated, rel=1e-12)


def test_bins_small_case_matches_exact_mean():
    rep = check_balls_in_bins(n=3, m=4, subset_size=4, epsilon=0.1, trials=40_000, seed=3)
    assert rep.exact_mean == pytest.approx(2.3125)
    assert rep.empirical_mean == pytest.approx(2.3125, rel=0.02)
    assert rep.freq_bound_satisfied


def test_bins_full_subset_saturates_the_bound():
    # n = m with the whole bin range watched: the threshold sits far below
    # the mean, so the event frequency should be essentially 1
    rep = check_balls_in_bins(n=1000, m=1000, subset_size=1000, epsilon=0.05, trials=2_000, seed=2)
    assert rep.threshold == pytest.approx(1000 * (1 - 2.718281828459045**-1) - 50, rel=1e-9)
    assert rep.empirical_freq == 1.0
    assert rep.freq_bound_satisfied


def test_bins_zero_balls():
    rep = check_balls_in_bins(n=0, m=100, subset_size=40, epsilon=0.05, trials=50, seed=1)
    assert rep.empirical_mean == 0.0
    assert rep.empirical_freq == 1.0  # threshold is negative
    assert rep.freq_bound_satisfied


def test_bins_validation():
    with pytest.raises(ValueError):
        check_balls_in_bins(n=5, m=4, subset_size=2, epsilon=0.1, trials=10)
    with pytest.raises(ValueError):
        check_balls_in_bins(n=2, m=4, subset_size=5, epsilon=0.1, trials=10)
    for epsilon in (-0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="^epsilon must be finite and non-negative, got"):
            check_balls_in_bins(n=2, m=4, subset_size=2, epsilon=epsilon, trials=10)


@pytest.mark.parametrize(
    "call",
    [
        lambda: run_monte_carlo(small_spec(seed=-1)),
        lambda: generate_pair(ArrivalModel(0.5, 10, seed=-1)),
        lambda: online_duty_cycle(
            *generate_pair(ArrivalModel(0.5, 10, 1)), 0.75, OnlineConfig(0.5, seed=-1)
        ),
        lambda: verify_optimality(trials=1, seed=-1),
        lambda: heterogeneity_sweep((0.5,), 10, 1, seed=-1),
        lambda: check_balls_in_bins(n=2, m=4, subset_size=2, epsilon=0.1, trials=10, seed=-1),
    ],
    ids=[
        "ExperimentSpec",
        "ArrivalModel",
        "OnlineConfig",
        "verify_optimality",
        "heterogeneity_sweep",
        "check_balls_in_bins",
    ],
)
def test_negative_seed_is_named(call):
    with pytest.raises(ValueError, match="^seed must be a non-negative integer, got -1$"):
        call()


@pytest.mark.parametrize(
    "build, shown",
    [
        (lambda: small_spec(seed=-1), "-1"),
        (lambda: OnlineConfig(seed=-3), "-3"),
        (lambda: verify_optimality(trials=0, seed=-1), "-1"),
        (lambda: ArrivalModel(0.5, 20, 1.7), "1.7"),
        (lambda: ArrivalModel(0.5, 20, 2.0), "2.0"),
        (lambda: small_spec(seed=np.int64(-2)), "-2"),
    ],
    ids=[
        "ExperimentSpec",
        "OnlineConfig",
        "verify_optimality-no-trials",
        "ArrivalModel-fraction",
        "ArrivalModel-float",
        "numpy-negative",
    ],
)
def test_bad_seed_is_refused_before_any_draw(build, shown):
    with pytest.raises(ValueError, match=f"^seed must be a non-negative integer, got {shown}$"):
        build()


@pytest.mark.parametrize(
    "build, field, shown",
    [
        (lambda: ExperimentSpec(12.5, (0.5,), 3), "period_len", "12.5"),
        (lambda: ExperimentSpec(10, (0.5,), 2.5), "trials", "2.5"),
        (lambda: ExperimentSpec(10.0, (0.5,), 3), "period_len", "10.0"),
        (lambda: OnlineConfig(warmup=2.5), "warmup", "2.5"),
        (lambda: heterogeneity_sweep((0.5,), 10, 2.5), "trials", "2.5"),
        (lambda: heterogeneity_sweep((0.5,), 7.5, 3), "period_len", "7.5"),
        (lambda: ArrivalModel(0.5, 20.5, 1), "period_len", "20.5"),
        (lambda: verify_optimality(trials=1.5), "trials", "1.5"),
        (lambda: exact_expected_cat(10.5, 0.5, 0.75), "period_len", "10.5"),
        (lambda: expected_cat(10.5, 0.5, 0.75), "period_len", "10.5"),
        (lambda: threshold_trace(RawTrace("a", ((1, 3.0),)), 1.0, 2.5), "period_len", "2.5"),
        (lambda: check_balls_in_bins(2, 4.5, 2, 0.1, 10), "m", "4.5"),
        (lambda: check_balls_in_bins(2.5, 4, 2, 0.1, 10), "n", "2.5"),
        (lambda: check_balls_in_bins(2, 4, 1.5, 0.1, 10), "subset_size", "1.5"),
    ],
    ids=[
        "spec-period",
        "spec-trials",
        "spec-float-period",
        "config-warmup",
        "sweep-trials",
        "sweep-period",
        "model-period",
        "verify-trials",
        "exact-expected-cat-period",
        "expected-cat-period",
        "threshold-period",
        "bins-m",
        "bins-n",
        "bins-subset-size",
    ],
)
def test_fractional_counts_are_refused_at_construction(build, field, shown):
    with pytest.raises(ValueError, match=f"^{field} must be an integer, got {shown}$"):
        build()


@pytest.mark.parametrize("value", [True, False])
@pytest.mark.parametrize(
    "check, message",
    [(lambda v: check_count("trials", v), "trials must be an integer"),
     (check_seed, "seed must be a non-negative integer")],
    ids=["check_count", "check_seed"],
)
def test_bools_are_refused_as_counts_and_seeds(check, message, value):
    # bool is a numbers.Integral, so True would otherwise count as 1 and False seed 0
    with pytest.raises(ValueError, match=f"^{message}, got {value}$"):
        check(value)


PROBABILITY_ENTRY_POINTS = {
    "ArrivalModel": ("prob_harvest", lambda p: ArrivalModel(p, 10, 1)),
    "ExperimentSpec": ("p", lambda p: ExperimentSpec(10, (0.5, p), 3)),
    "OnlineConfig": ("prob_active", lambda p: OnlineConfig(prob_active=p)),
    "OnlineConfig-pair": ("prob_active", lambda p: OnlineConfig(prob_active=(0.5, p))),
    "approx_ratio_bound": ("p", approx_ratio_bound),
    "expected_cat": ("p", lambda p: expected_cat(10, p, 0.75)),
    "exact_expected_cat": ("p", lambda p: exact_expected_cat(10, p, 0.75)),
    "heterogeneity_sweep": ("p", lambda p: heterogeneity_sweep((0.5, p), 10, 3)),
}


@pytest.mark.parametrize("value, shown", [(float("nan"), "nan"), (-0.25, "-0.25"), (1.5, "1.5")])
@pytest.mark.parametrize(
    "name, build", PROBABILITY_ENTRY_POINTS.values(), ids=PROBABILITY_ENTRY_POINTS
)
def test_bad_probabilities_are_refused_by_name(name, build, value, shown):
    with pytest.raises(ValueError, match=rf"^{name} must lie in \[0, 1\], got {shown}$"):
        build(value)


def test_numpy_integer_counts_are_kept_as_python_ints():
    spec = ExperimentSpec(np.int64(10), (0.5,), np.uint16(3))
    assert type(spec.period_len) is int and type(spec.trials) is int
    assert type(OnlineConfig(warmup=np.int32(5)).warmup) is int
    plain = ExperimentSpec(10, (0.5,), 3)
    assert run_monte_carlo(spec).to_json() == run_monte_carlo(plain).to_json()


def test_numpy_integer_seeds_are_kept_as_python_ints():
    # the reports embed the seed, and json cannot write a numpy integer
    spec = small_spec(seed=np.uint32(7), p_values=(0.5,), trials=20)
    assert type(spec.seed) is int
    plain = small_spec(seed=7, p_values=(0.5,), trials=20)
    assert run_monte_carlo(spec).to_json() == run_monte_carlo(plain).to_json()
    cfg = OnlineConfig(0.5, seed=np.int64(3))
    assert type(cfg.seed) is int
    model = ArrivalModel(0.5, 20, np.int16(8))
    assert type(model.seed) is int
    pair = generate_pair(model)
    assert run_trace_pairs([pair], 0.75, cfg).to_json() == run_trace_pairs(
        [pair], 0.75, OnlineConfig(0.5, seed=3)
    ).to_json()
    for suite in (verify_optimality, verify_expected_cat, verify_ratio_bound, verify_bins):
        assert json.dumps(suite(trials=2, seed=np.int64(3))) == json.dumps(suite(trials=2, seed=3))


def test_bins_determinism():
    a = check_balls_in_bins(n=50, m=100, subset_size=30, epsilon=0.05, trials=500, seed=9)
    b = check_balls_in_bins(n=50, m=100, subset_size=30, epsilon=0.05, trials=500, seed=9)
    assert a == b


# ---------------------------------------------------------------------------
# trace-driven pairs
# ---------------------------------------------------------------------------


def test_all_ones_pair_has_ratio_one():
    pair = (trace([1] * 20), trace([1] * 20, "v"))
    report = run_trace_pairs([pair], eta=0.75, online_cfg=OnlineConfig(prob_active=None, seed=4))
    cell = report.cells[0]
    assert cell["metrics"]["ratio"]["mean"] == 1.0
    assert cell["heterogeneity"] == 0.0


def test_disjoint_single_slot_pair():
    pair = (trace([1, 0]), trace([0, 1], "v"))
    for seed in range(12):
        report = run_trace_pairs(
            [pair], eta=0.75, online_cfg=OnlineConfig(prob_active=0.5, seed=seed)
        )
        cell = report.cells[0]
        assert cell["metrics"]["offline_cat"]["mean"] == 0.75
        assert cell["metrics"]["online_cat"]["mean"] in (0.0, 0.75)


def test_empty_pair_list():
    report = run_trace_pairs([], eta=0.75, online_cfg=OnlineConfig(prob_active=0.5))
    assert report.cells == [] and report.pairs == []


def test_mismatched_pair_is_named():
    pair = (trace([1, 0]), trace([0, 1, 1], "v"))
    with pytest.raises(ValueError, match="pair1") as excinfo:
        run_trace_pairs([pair], eta=0.75, online_cfg=OnlineConfig(prob_active=0.5))
    assert str(excinfo.value) == "pair1: traces disagree on period length: 2 vs 3"


def test_pair_report_runs_both_schedulers_at_one_eta():
    # eta is passed once and weights the online CAT too: online forms 5
    # sync and 10 async edges, 5 + 0.5 * 10 = 10.0 at eta 0.5
    pair = generate_pair(ArrivalModel(0.5, 60, 3))
    report = run_trace_pairs([pair], eta=0.5, online_cfg=OnlineConfig(prob_active=0.5, seed=1))
    metrics = report.cells[0]["metrics"]
    assert metrics["online_cat"]["mean"] == 10.0
    assert metrics["offline_cat"]["mean"] == 21.5
    assert metrics["ratio"]["mean"] == 10.0 / 21.5


def test_pair_report_rows():
    pair = (trace([1, 0, 1, 1]), trace([1, 1, 0, 1], "v"))
    report = run_trace_pairs([pair], eta=0.75, online_cfg=OnlineConfig(prob_active=0.5, seed=2))
    ids = [p.pair_id for p in report.pairs]
    assert ids == ["pair1/offline", "pair1/online[matching]"]
    csv_text = report.to_csv()
    assert "pair_id,cat,sat" in csv_text
    # a trace-pair cell has no p, so its rows leave that column empty
    assert "\npair1,,0.75,pair,offline_cat,2.75,0.0,1\n" in csv_text


# ---------------------------------------------------------------------------
# verification suites (small budgets; full budgets run in test_acceptance)
# ---------------------------------------------------------------------------


def test_verify_optimality_small():
    result = verify_optimality(trials=60, seed=3)
    assert result["passed"] and result["mismatches"] == []


@pytest.mark.parametrize("trials", [0, -3])
def test_verify_optimality_refuses_to_certify_no_instances(trials):
    # a pass over no instances would certify nothing
    with pytest.raises(ValueError, match=f"^trials must be at least 1, got {trials}$"):
        verify_optimality(trials=trials, seed=3)


@pytest.mark.parametrize("eta", [0.0, -0.5, 1.5, float("nan")])
def test_verify_optimality_checks_eta_before_any_instance(monkeypatch, eta):
    monkeypatch.setattr(harness, "_trial_blocks", lambda *a: pytest.fail("drew a block"))
    with pytest.raises(ValueError, match=r"^eta must lie in \(0, 1\]"):
        verify_optimality(trials=1, seed=3, eta=eta)


def test_verify_optimality_refuses_an_eta_the_oracle_cannot_weight_before_any_instance(
    monkeypatch,
):
    monkeypatch.setattr(harness, "_trial_blocks", lambda *a: pytest.fail("drew a block"))
    with pytest.raises(ValueError, match=r"^eta 0\.785\d* is not representable as a small ratio"):
        verify_optimality(trials=1, seed=3, eta=math.pi / 4)


def test_an_oracle_spec_refuses_an_eta_the_oracle_cannot_weight_before_any_draw(monkeypatch):
    monkeypatch.setattr(harness, "_trial_blocks", lambda *a: pytest.fail("drew a block"))
    with pytest.raises(ValueError, match=r"^eta 0\.785\d* is not representable as a small ratio"):
        run_monte_carlo(
            small_spec(period_len=12, eta=math.pi / 4, algorithms=("offline", "oracle"))
        )
    small_spec(eta=math.pi / 4)  # cells without the oracle take any eta in (0, 1]


def _greedy_without_its_last_edge(b_u, b_v):
    # the last edge of every row's matching, for one pair or a block of rows
    cut = [edges[:-1] for edges in duty_cycle_arrays(np.atleast_2d(b_u), np.atleast_2d(b_v))]
    return cut if np.ndim(b_u) == 2 else cut[0]


def _t1_rows(trials, seed):
    # the bool rows of verify_optimality's instances 0..trials-1, as one block
    p = np.resize(harness.T1_P_GRID, trials)
    args = (seed, harness._T1_CELL, p, p, 0, trials, harness.T1_PERIOD, False, trials)
    _, packed = next(harness._trial_blocks(*args))
    return [np.unpackbits(r, axis=-1, count=harness.T1_PERIOD).astype(bool) for r in packed]


def test_verify_optimality_does_not_depend_on_its_chunk(monkeypatch):
    # a greedy that drops an edge mismatches on every instance with one;
    # blocks of 3 rows split the 40 instances off the p grid's period of 8
    monkeypatch.setattr(harness, "duty_cycle_arrays", _greedy_without_its_last_edge)
    whole = verify_optimality(trials=40, seed=3)
    monkeypatch.setattr(harness, "_CHUNK_SLOTS", 3 * 8 * harness.T1_PERIOD)
    assert verify_optimality(trials=40, seed=3) == whole
    want = []
    for i, (b_u, b_v) in enumerate(zip(*_t1_rows(40, 3))):
        greedy = PairResult(_greedy_without_its_last_edge(b_u, b_v), 0.75, harness.T1_PERIOD)
        witness = brute_force_matching(trace(b_u), trace(b_v, "v"), 0.75)
        off = [greedy.sync_count, greedy.async_count]
        ora = [witness.sync_count, witness.async_count]
        if off != ora:
            want.append({"instance": i, "offline": off, "oracle": ora})
    assert len(want) > 30 and whole["mismatches"] == want and not whole["passed"]


def test_verify_optimality_refuses_a_greedy_short_of_a_row(monkeypatch):
    # a greedy one matching short of its block raises rather than leave a row unchecked
    def greedy_without_the_last_row(b_u, b_v):
        return duty_cycle_arrays(b_u, b_v)[:-1]

    monkeypatch.setattr(harness, "duty_cycle_arrays", greedy_without_the_last_row)
    with pytest.raises(ValueError, match="shorter"):
        verify_optimality(trials=40, seed=3)


def test_verify_optimality_memory_does_not_grow_with_trials(monkeypatch):
    # instances live one block at a time, so 1,024 trials peak about where 64
    # do; the slack covers numpy's small-buffer cache, far below the ~1.8 MB
    # that keeping every instance's traces and matching would take
    monkeypatch.setattr(harness, "_CHUNK_SLOTS", 32 * 8 * harness.T1_PERIOD)

    def peak(trials):
        tracemalloc.start()
        try:
            verify_optimality(trials=trials, seed=3)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(32)  # builds what the first call caches
    assert peak(1024) < peak(64) + 2**17


def test_verify_optimality_instance_rows_are_pinned(monkeypatch):
    # the rows that verify_optimality's 500 default instances hand the
    # oracle, byte for byte, then the same rows drawn as one block
    seen, real_counts = [], harness.schedule_counts

    def schedule_counts(b_u, b_v, eta):
        seen.append((b_u.copy(), b_v.copy()))
        return real_counts(b_u, b_v, eta)

    monkeypatch.setattr(harness, "schedule_counts", schedule_counts)
    assert verify_optimality()["passed"]
    b_u, b_v = (np.concatenate(side) for side in zip(*seen))
    assert b_u.dtype == bool and b_u.shape == b_v.shape == (500, harness.T1_PERIOD)
    digest = hashlib.sha256()
    for u, v in zip(b_u, b_v):
        digest.update(u.tobytes() + v.tobytes())
    assert digest.hexdigest() == (
        "621763f66183e6f3b9d6723ce47f28ef1c715ab50a6ecc4f480e9f7da2972740"
    )
    for got, want in zip((b_u, b_v), _t1_rows(500, harness.DEFAULT_SEED)):
        np.testing.assert_array_equal(got, want)


def test_verify_ratio_bound_small():
    result = verify_ratio_bound(trials=300, seed=3)
    assert result["passed"]
    assert len(result["cells"]) == 6  # three p values x two modes


def test_verify_bins_small():
    result = verify_bins(trials=2_000, seed=3)
    assert result["passed"]


def test_heterogeneity_sweep_shape_and_trends():
    rows = heterogeneity_sweep(p_values=(0.3, 1.0), period_len=150, trials=30, seed=5)
    assert len(rows) == 4
    by_combo = {(r["p_u"], r["p_v"]): r for r in rows}
    assert by_combo[(1.0, 1.0)]["ratio_of_means"] == 1.0
    assert by_combo[(1.0, 1.0)]["mean_heterogeneity"] == 0.0
    # the homogeneous strong pair beats the weak one on CAT
    assert by_combo[(1.0, 1.0)]["mean_offline_cat"] > by_combo[(0.3, 0.3)]["mean_offline_cat"]


@pytest.mark.parametrize(
    "p_values, period_len, trials, eta",
    [
        pytest.param((1.5,), 10, 10, 0.75, id="p-above-one"),
        pytest.param((), 10, 10, 0.75, id="no-p"),
        pytest.param((0.5,), 0, 10, 0.75, id="zero-period"),
        pytest.param((0.5,), 10, 0, 0.75, id="zero-trials"),
        pytest.param((0.5,), 10, 10, 0.0, id="zero-eta"),
    ],
)
def test_heterogeneity_sweep_validation(p_values, period_len, trials, eta):
    with pytest.raises(ValueError):
        heterogeneity_sweep(p_values, period_len, trials, eta=eta)
