import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from dutycycle import (
    ArrivalModel,
    EnergyTrace,
    OnlineMode,
    OnlineResult,
    PairResult,
    RawTrace,
    offline_duty_cycle,
    threshold_trace,
)
from dutycycle.cli import main, report_json
from dutycycle.harness import verify_bins, verify_optimality


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


WORKED_CSV = "slot,b_u,b_v\n" + "\n".join(
    f"{t},{u},{v}"
    for t, (u, v) in enumerate(
        zip([1, 0, 0, 1, 0, 1, 0, 1, 0], [1, 0, 1, 0, 0, 1, 0, 0, 1]), start=1
    )
) + "\n"


@pytest.fixture
def worked_trace(tmp_path):
    path = tmp_path / "worked.csv"
    path.write_text(WORKED_CSV, encoding="utf-8")
    return str(path)


def test_generate_writes_trace(tmp_path, capsys):
    out = tmp_path / "pair.csv"
    code, stdout, _ = run_cli(
        ["generate", "--period", "50", "--prob", "0.5", "--seed", "7", "--out", str(out)], capsys
    )
    assert code == 0
    lines = out.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == "slot,b_u,b_v"
    assert len(lines) == 51
    assert all(line.split(",")[1] in "01" for line in lines[1:])
    assert '"seed": 7' in stdout


def test_generate_is_deterministic(tmp_path, capsys):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    run_cli(["generate", "--period", "40", "--prob", "0.3", "--seed", "5", "--out", str(out_a)], capsys)
    run_cli(["generate", "--period", "40", "--prob", "0.3", "--seed", "5", "--out", str(out_b)], capsys)
    assert out_a.read_bytes() == out_b.read_bytes()


def test_generate_rejects_bad_probability(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["generate", "--prob", "1.5", "--out", "x.csv"])
    assert exc.value.code == 2
    assert "--prob" in capsys.readouterr().err


def test_run_worked_example_reports_cat(worked_trace, capsys):
    code, stdout, _ = run_cli(
        ["run", "--trace", worked_trace, "--algo", "offline", "--eta", "0.75"], capsys
    )
    assert code == 0
    payload = json.loads(stdout)
    assert payload["offline"]["cat"] == 3.5
    assert payload["offline"]["sat"] == 2.0
    assert payload["config"]["seed"] == 1729


def test_run_both_at_p_one_has_ratio_one(capsys):
    code, stdout, _ = run_cli(
        ["run", "--prob", "1", "--period", "30", "--algo", "both", "--seed", "3"], capsys
    )
    assert code == 0
    payload = json.loads(stdout)
    assert payload["pair"]["ratio"] == 1.0
    assert payload["online"]["cat"] == 30.0


def test_run_is_deterministic(capsys):
    argv = ["run", "--prob", "0.5", "--period", "80", "--algo", "both", "--seed", "11"]
    code_a, out_a, _ = run_cli(argv, capsys)
    code_b, out_b, _ = run_cli(argv, capsys)
    assert code_a == code_b == 0
    assert out_a == out_b


def test_run_csv_format(worked_trace, capsys):
    code, stdout, _ = run_cli(
        ["run", "--trace", worked_trace, "--algo", "both", "--format", "csv", "--seed", "2"],
        capsys,
    )
    assert code == 0
    lines = stdout.strip().splitlines()
    assert lines[0].startswith("# config:")
    assert lines[1] == "pair_id,cat,sat,cat_pct,sat_pct,heterogeneity,p_hat_u,p_hat_v"
    assert lines[2].startswith("pair1/offline,3.5,2.0,")


@st.composite
def matchings(draw):
    # vertex-exclusive edges, many of them sync, over small and large slots
    slots = st.one_of(st.integers(1, 50), st.integers(1, 10**9))
    offsets = st.sampled_from([0, 0, 0, -2, -1, 1, 2])
    used_u, used_v, edges = set(), set(), []
    for u, d in draw(st.lists(st.tuples(slots, offsets), max_size=40)):
        v = max(1, u + d)
        if u not in used_u and v not in used_v:
            used_u.add(u)
            used_v.add(v)
            edges.append((u, v))
    return tuple(edges)


# A report's only user text is the trace path; these need escaping, or look
# like the writer's placeholder for an edge list.
AWKWARD_PATHS = ['"edges": "offline"', 'a"b\\c.csv', "traces/\u00e9t\u00e9/\u8def\u5f84.csv"]


@settings(max_examples=300)
@given(
    algo=st.sampled_from(["offline", "online", "both"]),
    mode=st.sampled_from(["matching", "slotsim"]),
    eta=st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
    path=st.one_of(st.sampled_from(AWKWARD_PATHS), st.text(), st.none()),
    offline=matchings(),
    online=matchings(),
    wasted=st.integers(0, 10**6),
    floats=st.lists(st.floats(allow_nan=False), min_size=4, max_size=4),
)
def test_report_json_matches_json_dumps(algo, mode, eta, path, offline, online, wasted, floats):
    source = {"prob": floats[0]} if path is None else {"trace": path}
    payload = {"config": {"command": "run", "algo": algo, "eta": eta, "mode": mode,
                          "seed": wasted, "format": "json", "period": 600, **source}}
    results = {}
    if algo != "online":
        results["offline"] = PairResult(offline, eta, 600)
    if algo != "offline":
        results["online"] = OnlineResult(online, eta, 600, mode=OnlineMode(mode),
                                         wasted_units=wasted)
    if algo == "both":
        payload["pair"] = dict(zip(("ratio", "heterogeneity", "p_hat_u", "p_hat_v"), floats))
    expected = {**payload, **{name: r.to_json_dict() for name, r in results.items()}}
    assert report_json(payload, results) == json.dumps(expected, sort_keys=True, indent=2)


def test_run_rejects_malformed_trace_with_row_number(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("slot,b_u,b_v\n1,0,1\n2,2,0\n", encoding="utf-8")
    code, _, stderr = run_cli(["run", "--trace", str(bad), "--algo", "offline"], capsys)
    assert code == 2
    assert "row 3" in stderr


def test_run_rejects_header_only_trace(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("slot,b_u,b_v\n", encoding="utf-8")
    code, stdout, stderr = run_cli(["run", "--trace", str(empty)], capsys)
    assert code == 2
    assert stdout == ""
    assert stderr.startswith(f"error: {empty}: row 2: no data rows")


def test_run_requires_exactly_one_source(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--trace", "x.csv", "--prob", "0.5"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["run"])
    assert exc.value.code == 2


def test_env_seed_applies_and_flag_wins(monkeypatch, capsys):
    monkeypatch.setenv("DUTYCYCLE_SEED", "77")
    _, stdout, _ = run_cli(["run", "--prob", "0.5", "--period", "20", "--algo", "offline"], capsys)
    assert json.loads(stdout)["config"]["seed"] == 77
    _, stdout, _ = run_cli(
        ["run", "--prob", "0.5", "--period", "20", "--algo", "offline", "--seed", "5"], capsys
    )
    assert json.loads(stdout)["config"]["seed"] == 5


def test_bad_env_seed_is_a_usage_error(monkeypatch, capsys):
    # exit 1 would read as a verification failure; a malformed seed is exit 2
    monkeypatch.setenv("DUTYCYCLE_SEED", "abc")
    code, stdout, stderr = run_cli(["run", "--prob", "0.5", "--period", "10"], capsys)
    assert code == 2
    assert stdout == ""
    assert stderr.startswith("error: DUTYCYCLE_SEED must be an integer")


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "--prob", "0.5", "--out", "x.csv", "--seed", "-1"],
        ["run", "--prob", "0.5", "--seed", "-1"],
        ["verify", "--suite", "t1", "--seed", "-3"],
    ],
)
def test_negative_seed_flag_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--seed" in captured.err


RAW = RawTrace("a", ((1, 3.0),))
ONE = EnergyTrace("u", [1])
INGEST = ["ingest", "--raw", "raw.csv", "--out", "o.csv"]
# flag, a bad value's argv, and the library call that refuses the same value
BAD_FLAG_VALUES = {
    "generate-prob": ("--prob", ["generate", "--out", "o.csv", "--prob", "1.5"],
                      lambda: ArrivalModel(1.5, 10, 1)),
    "run-prob-nan": ("--prob", ["run", "--prob", "nan"], lambda: ArrivalModel(float("nan"), 10, 1)),
    "run-eta": ("--eta", ["run", "--prob", "0.5", "--eta", "0"],
                lambda: offline_duty_cycle(ONE, ONE, 0.0)),
    "generate-period": ("--period", ["generate", "--prob", "0.5", "--out", "o.csv", "--period", "0"],
                        lambda: ArrivalModel(0.5, 0, 1)),
    "ingest-period": ("--period", INGEST + ["--threshold", "1", "--period", "-3"],
                      lambda: threshold_trace(RAW, 1.0, -3)),
    "verify-trials": ("--trials", ["verify", "--suite", "t1", "--trials", "0"],
                      lambda: verify_optimality(trials=0)),
    "verify-seed": ("--seed", ["verify", "--suite", "bins", "--seed", "-2"],
                    lambda: verify_bins(seed=-2)),
    "ingest-threshold": ("--threshold", INGEST + ["--period", "2", "--threshold", "inf"],
                         lambda: threshold_trace(RAW, float("inf"), 2)),
}


@pytest.mark.parametrize("flag, argv, library", BAD_FLAG_VALUES.values(), ids=BAD_FLAG_VALUES)
def test_bad_flag_value_exits_2_with_the_library_message(flag, argv, library, capsys):
    with pytest.raises(ValueError) as refused:
        library()
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: argument {flag}: {refused.value}\n" in captured.err


def test_negative_env_seed_is_a_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("DUTYCYCLE_SEED", "-4")
    code, stdout, stderr = run_cli(["verify", "--suite", "t1", "--trials", "1"], capsys)
    assert code == 2
    assert stdout == ""
    assert stderr.startswith("error: DUTYCYCLE_SEED must be non-negative")


def test_ingest_errors_name_the_file_and_row(tmp_path, capsys):
    raw = tmp_path / "raw.csv"
    argv = ["ingest", "--raw", str(raw), "--threshold", "1.0", "--period", "4", "--out", "o.csv"]
    raw.write_text("slot,device_id,reading\n1,a,3.5\n1,b,1.0\n2,b,3.0\n9,a,9\n", encoding="utf-8")
    code, stdout, stderr = run_cli(argv, capsys)
    assert code == 2 and stdout == ""
    assert stderr == f"error: {raw}: row 5: slot 9 outside 1..4\n"
    raw.write_text("slot,device_id,reading\n1,a,3.5\n1,b,1.0\n1,a,2.0\n", encoding="utf-8")
    code, stdout, stderr = run_cli(argv, capsys)
    assert code == 2 and stdout == ""
    assert stderr.startswith(f"error: {raw}: row 4: slot 1 of device 'a'")
    for reading in ("nan", "-1.0", "inf"):
        raw.write_text(f"slot,device_id,reading\n1,a,3.5\n1,b,1.0\n2,b,{reading}\n", encoding="utf-8")
        code, stdout, stderr = run_cli(argv, capsys)
        assert code == 2 and stdout == ""
        assert stderr == f"error: {raw}: row 4: reading {reading} must be finite and non-negative\n"


def test_ingest_thresholds_raw_pair(tmp_path, capsys):
    raw = tmp_path / "raw.csv"
    raw.write_text(
        "slot,device_id,reading\n"
        "1,n1,3.2\n2,n1,1.0\n3,n1,3.0\n"
        "1,n2,0.5\n3,n2,4.0\n",
        encoding="utf-8",
    )
    out = tmp_path / "pair.csv"
    code, stdout, _ = run_cli(
        ["ingest", "--raw", str(raw), "--threshold", "3.0", "--period", "4", "--out", str(out)],
        capsys,
    )
    assert code == 0
    assert out.read_text(encoding="utf-8") == (
        "slot,b_u,b_v\n1,1,0\n2,0,0\n3,1,1\n4,0,0\n"
    )


def test_ingest_requires_threshold(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["ingest", "--raw", "raw.csv", "--period", "4", "--out", "o.csv"])
    assert exc.value.code == 2
    assert "--threshold" in capsys.readouterr().err


@pytest.mark.parametrize("threshold", ["nan", "inf", "-inf", "0"])
def test_ingest_rejects_non_finite_threshold(threshold, tmp_path, capsys):
    raw = tmp_path / "raw.csv"
    raw.write_text("slot,device_id,reading\n1,a,3.5\n1,b,1.0\n", encoding="utf-8")
    out = tmp_path / "o.csv"
    with pytest.raises(SystemExit) as exc:
        main(["ingest", "--raw", str(raw), "--threshold", threshold, "--period", "2",
              "--out", str(out)])
    assert exc.value.code == 2
    assert "--threshold" in capsys.readouterr().err
    assert not out.exists()


def test_csv_readers_name_a_file_that_is_not_utf8(tmp_path, capsys):
    pair = tmp_path / "pair.csv"
    pair.write_bytes(b"slot,b_u,b_v\n1,0,1\n2,\xff,0\n")
    code, stdout, stderr = run_cli(["run", "--trace", str(pair)], capsys)
    assert code == 2 and stdout == ""
    assert stderr.startswith(f"error: {pair}: not UTF-8 text: ")
    raw = tmp_path / "raw.csv"
    raw.write_bytes(b"slot,device_id,reading\n1,\xff,3.5\n")
    out = tmp_path / "o.csv"
    code, stdout, stderr = run_cli(
        ["ingest", "--raw", str(raw), "--threshold", "1.0", "--period", "2", "--out", str(out)],
        capsys,
    )
    assert code == 2 and stdout == ""
    assert stderr.startswith(f"error: {raw}: not UTF-8 text: ")
    assert not out.exists()


def test_csv_readers_reject_an_oversized_field_with_exit_2(tmp_path, capsys):
    # csv.reader's field limit is 131,072 characters; past it the reader
    # raises csv.Error, which must leave as a usage error naming the row
    huge = b"1" * (2**17 + 1)
    pair = tmp_path / "pair.csv"
    pair.write_bytes(b"slot,b_u,b_v\n1,0,1\n2," + huge + b",0\n")
    code, stdout, stderr = run_cli(["run", "--trace", str(pair)], capsys)
    assert code == 2 and stdout == ""
    assert stderr == f"error: {pair}: row 3: field larger than field limit (131072)\n"
    raw = tmp_path / "raw.csv"
    raw.write_bytes(b"slot,device_id,reading\n1,a,3.5\n2,b," + huge + b"\n")
    out = tmp_path / "o.csv"
    code, stdout, stderr = run_cli(
        ["ingest", "--raw", str(raw), "--threshold", "1.0", "--period", "2", "--out", str(out)],
        capsys,
    )
    assert code == 2 and stdout == ""
    assert stderr == f"error: {raw}: row 3: field larger than field limit (131072)\n"
    assert not out.exists()


INGEST_FLAGS = ["--threshold", "1", "--period", "4"]
# argv run in a directory holding a valid two-device raw.csv, and the path it cannot open
FILE_ERRORS = {
    "run-missing-trace": (["run", "--trace", "missing.csv"], "missing.csv"),
    "ingest-missing-raw": (["ingest", "--raw", "missing.csv", "--out", "o.csv", *INGEST_FLAGS],
                           "missing.csv"),
    "generate-out-in-missing-dir": (["generate", "--prob", "0.5", "--out", "nodir/p.csv"],
                                    "nodir/p.csv"),
    "ingest-out-in-missing-dir": (["ingest", "--raw", "raw.csv", "--out", "nodir/p.csv",
                                   *INGEST_FLAGS], "nodir/p.csv"),
    # the open succeeds and a write fails: the error carries no filename of its own
    "generate-out-to-a-full-device": pytest.param(
        ["generate", "--prob", "0.5", "--period", "600", "--out", "/dev/full"], "'/dev/full'",
        marks=pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full"),
    ),
}


@pytest.mark.parametrize("argv, path", FILE_ERRORS.values(), ids=FILE_ERRORS)
def test_a_file_that_cannot_be_opened_exits_2_naming_the_path(
    argv, path, tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "raw.csv").write_text("slot,device_id,reading\n1,a,3.5\n1,b,1.0\n",
                                      encoding="utf-8")
    code, stdout, stderr = run_cli(argv, capsys)
    assert code == 2 and stdout == ""
    assert stderr.startswith("error: ") and stderr.count("\n") == 1
    assert path in stderr
    assert [p.name for p in tmp_path.iterdir()] == ["raw.csv"]  # no output file appears


def test_ingest_rejects_single_device(tmp_path, capsys):
    raw = tmp_path / "raw.csv"
    raw.write_text("slot,device_id,reading\n1,n1,3.2\n", encoding="utf-8")
    code, _, stderr = run_cli(
        ["ingest", "--raw", str(raw), "--threshold", "1.0", "--period", "2", "--out", "o.csv"],
        capsys,
    )
    assert code == 2
    assert "two device ids" in stderr


def test_verify_t1_passes(capsys):
    code, stdout, _ = run_cli(["verify", "--suite", "t1", "--trials", "40", "--seed", "2"], capsys)
    assert code == 0
    assert "suite t1: PASS" in stdout


def test_verify_bins_passes(capsys):
    code, stdout, _ = run_cli(
        ["verify", "--suite", "bins", "--trials", "2000", "--seed", "2"], capsys
    )
    assert code == 0
    assert "suite bins: PASS" in stdout


def test_verify_exit_code_contract_on_failing_suite(capsys):
    # the expected-CAT suite documents a real gap between the simulated
    # optimum and the closed-form reference; the CLI must report the numbers
    # and exit 1
    code, stdout, _ = run_cli(["verify", "--suite", "t2", "--trials", "400", "--seed", "2"], capsys)
    assert code == 1
    assert "suite t2: FAIL" in stdout
    assert "expected=625.0" in stdout


def test_verify_all_runs_every_suite_in_order_and_exits_1(capsys):
    code, stdout, _ = run_cli(["verify", "--suite", "all", "--trials", "40", "--seed", "2"], capsys)
    assert code == 1  # t2 reports the known reference gap
    verdicts = [line for line in stdout.splitlines() if line.startswith("suite ")]
    assert verdicts == ["suite t1: PASS", "suite t2: FAIL", "suite t4: PASS", "suite bins: PASS"]


def test_verify_is_deterministic(capsys):
    argv = ["verify", "--suite", "t4", "--trials", "200", "--seed", "9"]
    code_a, out_a, _ = run_cli(argv, capsys)
    code_b, out_b, _ = run_cli(argv, capsys)
    assert code_a == code_b
    assert out_a == out_b
