"""Byte pins of the CLI reports.

Each case runs `cli.main` in-process and compares the sha256 of its stdout
with a digest recorded when the case was added, so any change to any byte
of a report fails here. A deliberate report change updates the digest and
says so in CHANGES.md.
"""

import hashlib
import json

import pytest

from dutycycle.cli import ENV_SEED, main
from dutycycle.harness import verify_bins


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
    "verify-t1": (
        ["verify", "--suite", "t1", "--trials", "40"],
        0,
        "b14111251f69244cecff7a6f47be5167e31f46ca223bc76b69c1e558a2ca8827",
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
