"""Byte pins of the CLI reports, of the library's trace-pair and sweep reports
and of the oracle's witnesses, whose instances also hold the schedule oracle
to the matching oracle.

Each case runs `cli.main` in-process, or a library entry point directly, and
compares the sha256 of its output with a digest recorded when the case was
added, so any change to any byte of a report fails here. A deliberate report
change updates the digest and says so in CHANGES.md.
"""

import hashlib
import json

import numpy as np
import pytest

from dutycycle import (
    ArrivalModel,
    EnergyTrace,
    OnlineConfig,
    brute_force_matching,
    generate_pair,
    run_trace_pairs,
)
from dutycycle.cli import ENV_SEED, main
from dutycycle.oracle import schedule_counts
from dutycycle.harness import (
    DEFAULT_SEED,
    T1_P_GRID,
    T1_PERIOD,
    ExperimentSpec,
    heterogeneity_sweep,
    random_instance,
    run_monte_carlo,
    verify_bins,
)


@pytest.fixture(autouse=True)
def _no_env_seed(monkeypatch):
    monkeypatch.delenv(ENV_SEED, raising=False)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _stdout(argv, capsys) -> tuple[int, str]:
    code = main(argv)
    return code, capsys.readouterr().out


RUN_PROB = ["run", "--prob", "0.5", "--period", "200", "--seed", "99"]

GOLDEN_RUNS = {
    "run-json-matching": (
        RUN_PROB + ["--format", "json", "--mode", "matching"],
        0,
        "81f11084034186ce579855905e28b3053949506024fbedb548fd11fad70be340",
    ),
    "run-json-slotsim": (
        RUN_PROB + ["--format", "json", "--mode", "slotsim"],
        0,
        "67d877589fe4a6c770f6efd6acfb882ca2fa60f19458c62dbec35836aa073999",
    ),
    "run-csv-matching": (
        RUN_PROB + ["--format", "csv", "--mode", "matching"],
        0,
        "e77c206d364e546ad4b2853027f3c7c8246a52942067b7321c53bfeeb48a6c7d",
    ),
    "run-csv-slotsim": (
        RUN_PROB + ["--format", "csv", "--mode", "slotsim"],
        0,
        "b412871a44711393a4e8cfb71e9c4c77276a39a91d8997b2e8f9a7dfc7d54421",
    ),
    "run-json-offline": (
        RUN_PROB + ["--format", "json", "--algo", "offline"],
        0,
        "1de9f1596c5b787dea15d0dfd8b96936b0a3a22bd856334d3fa85192f158e6a8",
    ),
    "run-csv-offline": (
        RUN_PROB + ["--format", "csv", "--algo", "offline"],
        0,
        "d357f1b97c75b38564b934af507cfa0121189e45fcb0251b6fdb63c22ed991e0",
    ),
    "run-json-online": (
        RUN_PROB + ["--format", "json", "--algo", "online"],
        0,
        "79d184eb4c525ac6bdac0472176561c980f42560b7421988ee30383d95edaa21",
    ),
    "run-csv-online": (
        RUN_PROB + ["--format", "csv", "--algo", "online"],
        0,
        "712e1b6f960f62029cf59117c4a7e5e975a3bf178440c86c15131ed8899e3a91",
    ),
    "run-json-prob0": (
        ["run", "--prob", "0", "--period", "5", "--seed", "99"],
        0,
        "af1eaad5dd709689239861ced9cc0f37e427e360894c878f366c01dffb1d29f0",
    ),
    "run-json-prob1": (
        ["run", "--prob", "1", "--period", "4", "--seed", "99"],
        0,
        "84fb7448643ffcdb08c026aef9987a57e5de2829b4c8722d48cc7f3875c84f52",
    ),
    "run-json-period1": (
        ["run", "--prob", "0.5", "--period", "1", "--seed", "99"],
        0,
        "22d53a61cae859f103f6ef8d9e5c0e0c1f11a8bdd4ccd072cecbac092d8fe5bd",
    ),
    "run-json-eta1": (
        RUN_PROB + ["--eta", "1"],
        0,
        "f956f18e9d9c3011634bf27e2d5c6e956d584c5451684c1ea92bde488bdf079b",
    ),
    "verify-t1": (
        ["verify", "--suite", "t1", "--trials", "40"],
        0,
        "b14111251f69244cecff7a6f47be5167e31f46ca223bc76b69c1e558a2ca8827",
    ),
    "verify-t2": (
        ["verify", "--suite", "t2", "--trials", "300"],
        1,  # the documented gap of the paper's reference
        "2e464be518fd4a1877a48074105d55d6d4cab1f625c720ea1fa087194bc75e1e",
    ),
    "verify-t4": (
        ["verify", "--suite", "t4", "--trials", "300"],
        0,
        "fd376de5331f5ed03ec7d409530702f2eff7237c7c9e0b9f4c974d3cc13d0c1f",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_cli_report_bytes(name, capsys):
    argv, exit_code, digest = GOLDEN_RUNS[name]
    code, out = _stdout(argv, capsys)
    assert code == exit_code
    assert _sha(out) == digest


def test_run_trace_report_bytes(tmp_path, monkeypatch, capsys):
    # The report embeds the trace path, so it is kept relative.
    monkeypatch.chdir(tmp_path)
    code, generated = _stdout(
        ["generate", "--period", "120", "--prob", "0.4", "--seed", "11", "--out", "pair.csv"],
        capsys,
    )
    assert code == 0
    code, out = _stdout(["run", "--trace", "pair.csv", "--seed", "11"], capsys)
    assert code == 0
    assert _sha(generated + out) == (
        "670bdd61ddf8e90bce0e472931707ba6eceddc6876239413869fd9bbfd08e39e"
    )


def test_verify_bins_payload_bytes():
    payload = json.dumps(verify_bins(trials=2000, seed=3), sort_keys=True)
    assert _sha(payload) == (
        "71a1f5933512a101ed07d19cd64db00e7d85ca88b4047e82eeee3e0f0bb4d71f"
    )


def test_heterogeneity_sweep_payload_bytes():
    # 403 trials of 301 slots: on two or three CPUs, as many shards, the
    # second starting at a draw offset that is not a multiple of Philox's
    # four outputs per counter
    sweep = heterogeneity_sweep((0.2, 0.5, 0.9), 301, 403, eta=0.6, seed=21)
    assert _sha(json.dumps(sweep, sort_keys=True)) == (
        "089446bf5ae059930c8dc961af92eef835433d618a17a75aa9001b583058b86f"
    )



def test_oracle_cell_report_bytes():
    # 300 period-12 trials per p: the oracle cell's CAT comes from its
    # counts, the same float the witness's cat_total gave
    spec = ExperimentSpec(
        period_len=12,
        p_values=(0.3, 0.6, 0.9),
        trials=300,
        algorithms=("offline", "oracle"),
        seed=23,
    )
    assert _sha(run_monte_carlo(spec).to_json()) == (
        "c6e4e6c2a978d0ca6f22eff7384e5983991fc551eb8b6a9aefac19bd5fbd6873"
    )


def _heterogeneous_instances(count, seed):
    """Random trace pairs of period 1-24, each side 0-12 harvest slots drawn
    independently, so the two sides differ in size and density."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        period = int(rng.integers(1, 25))
        na, nb = (int(rng.integers(0, min(period, 12) + 1)) for _ in range(2))
        set_a = set((rng.choice(period, na, replace=False) + 1).tolist())
        set_b = set((rng.choice(period, nb, replace=False) + 1).tolist())
        yield (
            EnergyTrace("u", [t in set_a for t in range(1, period + 1)]),
            EnergyTrace("v", [t in set_b for t in range(1, period + 1)]),
        )


def test_oracle_witness_edges():
    # the tie rules (lowest final V mask, then the last U-vertex unmatched,
    # then its lowest partner) pick these witnesses: verify_optimality's 500
    # default instances at eta 0.75, then 2,000 heterogeneous instances up to
    # 12x12 at eta 0.5, 0.75 and 1
    digest = hashlib.sha256()
    for i in range(500):
        p = T1_P_GRID[i % len(T1_P_GRID)]
        trace_u, trace_v = random_instance(DEFAULT_SEED, i, T1_PERIOD, p)
        digest.update(repr(brute_force_matching(trace_u, trace_v, 0.75).edges).encode())
    for trace_u, trace_v in _heterogeneous_instances(2000, seed=26):
        for eta in (0.5, 0.75, 1.0):
            digest.update(repr(brute_force_matching(trace_u, trace_v, eta).edges).encode())
    assert digest.hexdigest() == (
        "1adbdcb2a40678e208830176fb969a19c4cf66100eaaae7bcecb2c89223d26c6"
    )


def test_schedule_oracle_counts_on_the_witness_instances():
    # the batched schedule DP against the matching search on the same 2,000
    # heterogeneous instances, one batch per period and eta
    by_period = {}
    for trace_u, trace_v in _heterogeneous_instances(2000, seed=26):
        by_period.setdefault(trace_u.period_len, []).append((trace_u, trace_v))
    assert len(by_period) == 24
    for pairs in by_period.values():
        b_u, b_v = (np.array([pair[side].states for pair in pairs]) for side in (0, 1))
        for eta in (0.5, 0.75, 1.0):
            found = (brute_force_matching(*pair, eta) for pair in pairs)
            want = [[ora.sync_count, ora.async_count] for ora in found]
            assert schedule_counts(b_u, b_v, eta).T.tolist() == want


# (mode, prob_active) -> (sha256 of to_json(), sha256 of to_csv())
TRACE_PAIR_REPORTS = {
    ("matching", None): (
        "fec8ebb7c806a5b7a886e757fad6b8d75e2f42719e192153812e55e66427356c",
        "b55e78c11cd908afd41d261c84a33dfb3140b33937564abe5d86b8faf0ec8dad",
    ),
    ("matching", (0.4, 0.7)): (
        "2d27a00a05a4c7b5cccf92201b58c4cf52b5d2d07fb427645ae80cf963b1ced9",
        "e7b4b620c1a3cc3ac7eabe496980ef1d4759476c0e3e1aba75e82753b652531f",
    ),
    ("slotsim", None): (
        "3cccb1651309587b5afd9680a43333d876385f1da574aa803153c98054f31805",
        "5d11cc04e4aa59ef3ab8a4c81e81016cb0a3890c10e50c2f5e405a60113d871f",
    ),
    ("slotsim", (0.4, 0.7)): (
        "f1840f8a83280f9249b94adb0ac8d423955c163a55e6d0145a5c050ddc8c2763",
        "514a16ac821fb78d97f90a8fd05d728662d82fc609d0b0c61ad6a2f4bd0d6463",
    ),
}


def test_run_trace_pairs_report_bytes():
    pairs = [generate_pair(ArrivalModel(p, 150, s)) for p, s in ((0.3, 1), (0.5, 2), (0.8, 3))]
    digests = {}
    for mode, prob_active in TRACE_PAIR_REPORTS:
        cfg = OnlineConfig(prob_active=prob_active, seed=5, mode=mode)
        report = run_trace_pairs(pairs, 0.6, cfg)
        digests[mode, prob_active] = (_sha(report.to_json()), _sha(report.to_csv()))
    assert digests == TRACE_PAIR_REPORTS
