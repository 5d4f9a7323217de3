import csv
import io
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from dutycycle import (
    ArrivalModel,
    EnergyTrace,
    RawTrace,
    TraceFormatError,
    estimate_prob,
    generate_pair,
    generate_trace,
    read_pair_csv,
    read_raw_csv,
    threshold_trace,
    write_pair_csv,
    write_raw_csv,
)
from dutycycle.traces import _pair_csv_bytes, _read_pair_rows, bernoulli


def test_p_zero_gives_all_zero_trace():
    trace = generate_trace(ArrivalModel(prob_harvest=0.0, period_len=10, seed=1))
    assert np.array_equal(trace.states, [0] * 10)


def test_p_one_gives_all_one_trace():
    trace = generate_trace(ArrivalModel(prob_harvest=1.0, period_len=10, seed=1))
    assert np.array_equal(trace.states, [1] * 10)


def test_empirical_mean_matches_probability():
    # independent oracle: a plain count over the emitted states
    trace = generate_trace(ArrivalModel(prob_harvest=0.5, period_len=100_000, seed=42))
    assert abs(sum(trace.states) / 100_000 - 0.5) < 0.01


def test_generation_is_deterministic_per_seed():
    model = ArrivalModel(prob_harvest=0.4, period_len=500, seed=9)
    assert np.array_equal(generate_trace(model).states, generate_trace(model).states)
    other = ArrivalModel(prob_harvest=0.4, period_len=500, seed=10)
    assert not np.array_equal(generate_trace(model).states, generate_trace(other).states)


def test_pair_devices_use_independent_streams():
    trace_u, trace_v = generate_pair(ArrivalModel(prob_harvest=0.5, period_len=2000, seed=3))
    assert not np.array_equal(trace_u.states, trace_v.states)


def test_law_of_large_numbers_across_seeds():
    # |p_hat - p| < 3 sqrt(p(1-p)/T) must hold for at least 99% of seeds
    p, T = 0.3, 100_000
    tol = 3.0 * math.sqrt(p * (1 - p) / T)
    hits = 0
    for seed in range(200):
        trace = generate_trace(ArrivalModel(prob_harvest=p, period_len=T, seed=seed))
        if abs(estimate_prob(trace) - p) < tol:
            hits += 1
    assert hits >= 198


# the edges of the 2**-53 grid random() draws from, the smallest subnormal,
# and a sum that is not on the grid
EXACT_PROBS = [0.0, 5e-324, 2**-53, 0.1 + 0.2, 0.5, 1 - 2**-53, 1.0]


@st.composite
def bernoulli_calls(draw):
    """(seed, skipped counters, skipped outputs, size, p) of one draw.

    A random p meets a drawn value with chance 2**-53, so p is also drawn
    on and next to the values the call will draw, where a threshold off by
    one would show.
    """
    seed = draw(st.integers(0, 2**32 - 1))
    counters, outputs = draw(st.integers(0, 2**40)), draw(st.integers(0, 3))
    n = draw(st.integers(0, 9))
    size = draw(st.sampled_from([0, n, (n, draw(st.integers(0, 40)))]))
    peek = np.random.Philox(seed)
    peek.advance(counters)
    peek.random_raw(outputs)
    values = (peek.random_raw(size).ravel() >> 11).tolist()
    near = [
        math.nextafter(u * 2**-53, to)
        for u in draw(st.lists(st.sampled_from(values), max_size=3) if values else st.just([]))
        for to in (0.0, u * 2**-53, 1.0)
    ]
    probabilities = st.sampled_from(EXACT_PROBS + [q for q in near if q >= 0.0])
    probabilities |= st.floats(0.0, 1.0)
    if draw(st.booleans()):
        p = draw(probabilities)
    else:  # one probability per row
        rows = 0 if size == 0 else n
        p = np.array(draw(st.lists(probabilities, min_size=rows, max_size=rows)))
        p = p[:, None] if isinstance(size, tuple) else p
    return seed, counters, outputs, size, p


@settings(max_examples=300, deadline=None)
@given(call=bernoulli_calls())
def test_bernoulli_equals_random_below_p_bit_for_bit(call):
    # from any start in the stream, including part-way through a Philox
    # counter, the draw and the stream it leaves equal random()'s
    seed, counters, outputs, size, p = call
    streams = [np.random.Generator(np.random.Philox(seed)) for _ in range(2)]
    for rng in streams:
        rng.bit_generator.advance(counters)
        rng.bit_generator.random_raw(outputs)
    drawn = bernoulli(streams[0], size, p)
    expected = streams[1].random(size) < p
    assert drawn.dtype == bool and drawn.shape == expected.shape
    assert np.array_equal(drawn, expected)
    assert streams[0].random() == streams[1].random()


def test_invalid_model_parameters():
    with pytest.raises(ValueError):
        ArrivalModel(prob_harvest=1.5, period_len=10, seed=0)
    with pytest.raises(ValueError):
        ArrivalModel(prob_harvest=-0.1, period_len=10, seed=0)
    with pytest.raises(ValueError):
        ArrivalModel(prob_harvest=0.5, period_len=0, seed=0)


def test_trace_invariants():
    with pytest.raises(ValueError):
        EnergyTrace(device_id="u", states=(0, 2, 1))


def test_threshold_basic():
    raw = RawTrace(device_id="a", samples=((1, 2.1), (2, 3.4), (3, 0.0)))
    trace = threshold_trace(raw, threshold=3.0, period_len=3)
    assert np.array_equal(trace.states, [0, 1, 0])


def test_threshold_no_samples_gives_zeros():
    trace = threshold_trace(RawTrace(device_id="a", samples=()), threshold=1.0, period_len=5)
    assert np.array_equal(trace.states, [0, 0, 0, 0, 0])


def test_threshold_boundary_is_inclusive():
    raw = RawTrace(device_id="a", samples=((1, 3.0),))
    assert np.array_equal(threshold_trace(raw, threshold=3.0, period_len=1).states, [1])


def test_threshold_rejects_out_of_period_slot():
    raw = RawTrace(device_id="a", samples=((1, 1.0), (7, 2.0)))
    with pytest.raises(TraceFormatError, match="row 2"):
        threshold_trace(raw, threshold=1.0, period_len=5)


def test_threshold_rejects_bad_threshold():
    raw = RawTrace(device_id="a", samples=((1, 3.0),))
    for threshold in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="^threshold must be finite and positive"):
            threshold_trace(raw, threshold=threshold, period_len=3)


def test_raw_trace_invariants():
    with pytest.raises(TraceFormatError):
        RawTrace(device_id="a", samples=((2, 1.0), (2, 1.5)))
    with pytest.raises(TraceFormatError):
        RawTrace(device_id="a", samples=((1, -0.5),))
    with pytest.raises(TraceFormatError):
        RawTrace(device_id="a", samples=((1, float("nan")),))


@settings(max_examples=200)
@given(
    readings=st.lists(st.floats(min_value=0.0, max_value=10.0), max_size=12),
    lo=st.floats(min_value=0.1, max_value=5.0),
    extra=st.floats(min_value=0.0, max_value=5.0),
)
def test_threshold_is_monotone(readings, lo, extra):
    # raising the threshold never turns a 0 into a 1
    raw = RawTrace(device_id="a", samples=tuple((i + 1, r) for i, r in enumerate(readings)))
    n = max(len(readings), 1)
    low = threshold_trace(raw, lo, n).states
    high = threshold_trace(raw, lo + extra, n).states
    assert all(h <= l for l, h in zip(low, high))


def test_estimate_prob_examples():
    trace = EnergyTrace(device_id="u", states=(1, 0, 1, 0))
    assert estimate_prob(trace) == 0.5
    ones = EnergyTrace(device_id="u", states=(1, 1, 1))
    assert estimate_prob(ones) == 1.0
    big = generate_trace(ArrivalModel(prob_harvest=0.3, period_len=100_000, seed=11))
    assert abs(estimate_prob(big) - 0.3) < 0.01


def test_estimate_prob_refuses_an_empty_trace():
    empty = EnergyTrace(device_id="u", states=())
    with pytest.raises(ValueError, match="^cannot estimate a probability from an empty trace$"):
        estimate_prob(empty)


def test_pair_csv_round_trip_is_bit_exact(tmp_path):
    model = ArrivalModel(prob_harvest=0.5, period_len=64, seed=21)
    trace_u, trace_v = generate_pair(model)
    path = tmp_path / "pair.csv"
    write_pair_csv(trace_u, trace_v, path)
    back_u, back_v = read_pair_csv(path)
    assert np.array_equal(back_u.states, trace_u.states)
    assert np.array_equal(back_v.states, trace_v.states)
    first = path.read_bytes()
    write_pair_csv(back_u, back_v, path)
    assert path.read_bytes() == first


def test_pair_csv_errors_name_the_row(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("slot,b_u,b_v\n1,0,1\n2,7,0\n", encoding="utf-8")
    with pytest.raises(TraceFormatError, match="row 3"):
        read_pair_csv(path)
    path.write_text("slot,b_u,b_v\n5,0,1\n", encoding="utf-8")
    with pytest.raises(TraceFormatError, match="row 2"):
        read_pair_csv(path)
    path.write_text("wrong,header,here\n", encoding="utf-8")
    with pytest.raises(TraceFormatError, match="row 1"):
        read_pair_csv(path)


def test_header_only_pair_csv_names_the_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("slot,b_u,b_v\n", encoding="utf-8")
    with pytest.raises(TraceFormatError, match=r"empty\.csv: row 2: no data rows"):
        read_pair_csv(path)


def test_raw_csv_round_trip(tmp_path):
    raws = [
        RawTrace(device_id="n1", samples=((1, 2.5), (3, 3.25))),
        RawTrace(device_id="n2", samples=((2, 0.0),)),
    ]
    path = tmp_path / "raw.csv"
    write_raw_csv(raws, path)
    back = read_raw_csv(path)
    assert set(back) == {"n1", "n2"}
    assert back["n1"].samples == ((1, 2.5), (3, 3.25))
    assert back["n2"].samples == ((2, 0.0),)


def test_raw_csv_errors_name_the_row(tmp_path):
    path = tmp_path / "raw.csv"
    path.write_text("slot,device_id,reading\n1,a,2.0\nx,a,1.0\n", encoding="utf-8")
    with pytest.raises(TraceFormatError, match="row 3"):
        read_raw_csv(path)
    path.write_text("slot,device_id,reading\n1,a,2.0\n0,b,1.0\n", encoding="utf-8")
    with pytest.raises(TraceFormatError, match=r"raw\.csv: row 3: slot 0 is below 1"):
        read_raw_csv(path)
    # device b's rows interleave with a's; its slot 2 follows its own slot 3
    path.write_text(
        "slot,device_id,reading\n1,a,2.0\n3,b,1.0\n2,a,1.0\n2,b,3.0\n", encoding="utf-8"
    )
    with pytest.raises(TraceFormatError, match=r"raw\.csv: row 5: slot 2 of device 'b'"):
        read_raw_csv(path)
    # the period bound applies only when one is given
    path.write_text("slot,device_id,reading\n1,a,2.0\n5,a,1.0\n", encoding="utf-8")
    with pytest.raises(TraceFormatError, match=r"raw\.csv: row 3: slot 5 outside 1\.\.4"):
        read_raw_csv(path, period_len=4)
    assert read_raw_csv(path)["a"].samples == ((1, 2.0), (5, 1.0))


def test_as_array_matches_states():
    trace = EnergyTrace(device_id="u", states=(1, 0, 1))
    assert trace.states.dtype == bool and trace.states.shape == (3,)
    assert np.array_equal(trace.states, np.array([1, 0, 1], dtype=np.uint8))
    assert trace.period_len == 3
    assert trace.harvest_slots() == (1, 3)


def test_states_are_a_read_only_copy():
    for source in (np.array([1, 0, 1], dtype=np.uint8), np.array([True, False, True])):
        trace = EnergyTrace(device_id="u", states=source)
        with pytest.raises(ValueError):
            trace.states[0] = False
        source[:] = 0  # the caller's array stays writeable and is not shared
        assert np.array_equal(trace.states, [1, 0, 1])
    with pytest.raises(ValueError, match="one-dimensional"):
        EnergyTrace(device_id="u", states=np.ones((2, 2), dtype=bool))



_PAIR = b"slot,b_u,b_v\n"
_RAW = b"slot,device_id,reading\n"
_NOT_UTF8 = (
    "not UTF-8 text: 'utf-8' codec can't decode byte 0xff in position {}: invalid start byte"
)

_HUGE_FIELD = b"1" * (2**17 + 1)  # one past csv.reader's default field size limit


_READER_CASES = {
    "pair-empty": (read_pair_csv, b"", "row 1: expected header 'slot,b_u,b_v', got None"),
    "pair-header": (
        read_pair_csv,
        b"slot,b_u\n",
        "row 1: expected header 'slot,b_u,b_v', got ['slot', 'b_u']",
    ),
    "pair-header-only": (read_pair_csv, _PAIR, "row 2: no data rows after header"),
    "pair-blank-row": (read_pair_csv, _PAIR + b"\n", "row 2: expected 3 fields, got 0"),
    "pair-few-fields": (read_pair_csv, _PAIR + b"1,0\n", "row 2: expected 3 fields, got 2"),
    "pair-many-fields": (read_pair_csv, _PAIR + b"1,0,1,0\n", "row 2: expected 3 fields, got 4"),
    "pair-bad-slot": (read_pair_csv, _PAIR + b"x,0,1\n", "row 2: bad slot 'x'"),
    "pair-slot-order": (
        read_pair_csv,
        _PAIR + b"1,0,1\n3,1,1\n",
        "row 3: expected slot 2, got 3",
    ),
    "pair-bad-b_u": (
        read_pair_csv,
        _PAIR + b"1,2,1\n",
        "row 2: column b_u must be 0 or 1, got '2'",
    ),
    "pair-bad-b_v": (
        read_pair_csv,
        _PAIR + b"1,1,x\n",
        "row 2: column b_v must be 0 or 1, got 'x'",
    ),
    "pair-bad-both": (
        read_pair_csv,
        _PAIR + b"1,2,x\n",
        "row 2: column b_u must be 0 or 1, got '2'",
    ),
    "pair-padded-state": (
        read_pair_csv,
        _PAIR + b'"1","0","1"\n2,1, 1\n',
        "row 3: column b_v must be 0 or 1, got ' 1'",
    ),
    "pair-not-utf8": (read_pair_csv, _PAIR + b"1,0,1\n2,\xff,1\n", _NOT_UTF8.format(21)),
    "pair-huge-field": (
        read_pair_csv,
        _PAIR + b"1,0,1\n2," + _HUGE_FIELD + b",1\n",
        "row 3: field larger than field limit (131072)",
    ),
    "raw-empty": (read_raw_csv, b"", "row 1: expected header 'slot,device_id,reading', got None"),
    "raw-header": (
        read_raw_csv,
        b"slot,reading\n",
        "row 1: expected header 'slot,device_id,reading', got ['slot', 'reading']",
    ),
    "raw-few-fields": (read_raw_csv, _RAW + b"1,a\n", "row 2: expected 3 fields, got 2"),
    "raw-many-fields": (read_raw_csv, _RAW + b"1,a,2.0,3\n", "row 2: expected 3 fields, got 4"),
    "raw-bad-slot": (
        read_raw_csv,
        _RAW + b"x,a,2.0\n",
        "row 2: invalid literal for int() with base 10: 'x'",
    ),
    "raw-bad-reading": (
        read_raw_csv,
        _RAW + b"1,a,y\n",
        "row 2: could not convert string to float: 'y'",
    ),
    "raw-slot-below-1": (read_raw_csv, _RAW + b"0,a,2.0\n", "row 2: slot 0 is below 1"),
    "raw-slot-above-period": (read_raw_csv, _RAW + b"9,a,2.0\n", "row 2: slot 9 outside 1..5"),
    "raw-nan-reading": (
        read_raw_csv,
        _RAW + b"1,a,nan\n",
        "row 2: reading nan must be finite and non-negative",
    ),
    "raw-negative-reading": (
        read_raw_csv,
        _RAW + b"1,a,-1.0\n",
        "row 2: reading -1.0 must be finite and non-negative",
    ),
    "raw-slot-order": (
        read_raw_csv,
        _RAW + b"2,a,1.0\n1,a,1.0\n",
        "row 3: slot 1 of device 'a' does not rise above its previous slot 2",
    ),
    "raw-not-utf8": (read_raw_csv, _RAW + b"1,a,\xff\n", _NOT_UTF8.format(27)),
    "raw-huge-field": (
        read_raw_csv,
        _RAW + b"1,a,2.0\n2,a," + _HUGE_FIELD + b"\n",
        "row 3: field larger than field limit (131072)",
    ),
}


@pytest.mark.parametrize("case", sorted(_READER_CASES))
def test_csv_reader_messages(tmp_path, case):
    read, data, message = _READER_CASES[case]
    path = tmp_path / "t.csv"
    path.write_bytes(data)
    kwargs = {"period_len": 5} if read is read_raw_csv else {}
    with pytest.raises(TraceFormatError) as excinfo:
        read(path, **kwargs)
    assert str(excinfo.value) == f"{path}: {message}"


def test_pair_csv_accepts_quoted_and_padded_slots(tmp_path):
    path = tmp_path / "t.csv"
    path.write_bytes(_PAIR + b'"1","0","1"\n 2 ,1,0\n')
    trace_u, trace_v = read_pair_csv(path)
    assert (trace_u.device_id, trace_v.device_id) == ("u", "v")
    assert trace_u.states.tolist() == [False, True]
    assert trace_v.states.tolist() == [True, False]


def _stdlib_pair_csv(bits_u, bits_v) -> bytes:
    """The reference: what csv.writer writes for the header and the rows."""
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    writer.writerow(["slot", "b_u", "b_v"])
    writer.writerows(zip(range(1, len(bits_u) + 1), np.asarray(bits_u, dtype=int).tolist(),
                         np.asarray(bits_v, dtype=int).tolist()))
    return out.getvalue().encode("utf-8")


# 70,000 slots take more than one _BLOCK_ROWS block of 5-digit slots (it splits at 42,767)
@pytest.mark.parametrize("period", [0, 1, 9, 10, 11, 99, 100, 101, 999, 1000, 1001, 12345, 70000])
def test_pair_csv_renderer_matches_the_stdlib_writer(tmp_path, period):
    rng = np.random.default_rng(period)
    bits_u, bits_v = rng.random(period) < 0.5, rng.random(period) < 0.3
    expected = _stdlib_pair_csv(bits_u, bits_v)
    assert b"".join(_pair_csv_bytes(bits_u, bits_v)) == expected
    path = tmp_path / "pair.csv"
    write_pair_csv(EnergyTrace("u", bits_u), EnergyTrace("v", bits_v), path)
    assert path.read_bytes() == expected
    if period == 0:
        assert expected == b"slot,b_u,b_v\r\n"


@pytest.mark.parametrize("period", [1234, 70000])
def test_canonical_pair_csv_skips_the_row_loop(tmp_path, monkeypatch, period):
    trace_u, trace_v = generate_pair(ArrivalModel(prob_harvest=0.5, period_len=period, seed=5))
    path = tmp_path / "pair.csv"
    write_pair_csv(trace_u, trace_v, path)

    def row_loop(path):
        raise AssertionError("a canonical file went through the row loop")

    monkeypatch.setattr("dutycycle.traces._read_pair_rows", row_loop)
    back_u, back_v = read_pair_csv(path)
    assert np.array_equal(back_u.states, trace_u.states)
    assert np.array_equal(back_v.states, trace_v.states)


def _read_outcome(read, path):
    try:
        trace_u, trace_v = read(path)
    except TraceFormatError as exc:
        return str(exc)
    return trace_u.states.tolist(), trace_v.states.tolist()


@st.composite
def edited_pair_csvs(draw):
    """A canonical pair CSV with one random edit, or none."""
    period = draw(st.integers(min_value=0, max_value=120))
    bits = draw(st.lists(st.booleans(), min_size=2 * period, max_size=2 * period))
    data = bytearray(b"".join(_pair_csv_bytes(np.array(bits[:period], dtype=bool),
                                              np.array(bits[period:], dtype=bool))))
    lines = bytes(data).split(b"\r\n")[:-1]
    row = draw(st.integers(min_value=0, max_value=len(lines) - 1))
    edit = draw(st.sampled_from(
        ["none", "flip", "insert", "delete", "lf", "quote", "pad", "truncate"]
    ))
    pos = draw(st.integers(min_value=0, max_value=len(data) - 1))
    byte = draw(st.integers(min_value=0, max_value=255))
    if edit == "flip":
        data[pos] = byte
    elif edit == "insert":
        data.insert(pos, byte)
    elif edit == "delete":
        del data[pos]
    elif edit == "lf":  # one line ending, or every one
        if draw(st.booleans()):
            lines = [line + b"\n" for line in lines]
        else:
            lines = [line + (b"\n" if i == row else b"\r\n") for i, line in enumerate(lines)]
        data = bytearray(b"".join(lines))
    elif edit in ("quote", "pad"):
        fields = lines[row].split(b",")
        col = draw(st.integers(min_value=0, max_value=len(fields) - 1))
        if edit == "quote":
            fields[col] = b'"' + fields[col] + b'"'
        else:  # pad the slot
            fields[0] = draw(st.sampled_from([b"0", b" "])) + fields[0]
        lines[row] = b",".join(fields)
        data = bytearray(b"".join(line + b"\r\n" for line in lines))
    elif edit == "truncate":
        data = data[:-draw(st.integers(min_value=1, max_value=2))]
    return bytes(data)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=edited_pair_csvs())
def test_pair_csv_fast_path_equals_the_row_loop(tmp_path, data):
    path = tmp_path / "pair.csv"
    path.write_bytes(data)
    assert _read_outcome(read_pair_csv, path) == _read_outcome(_read_pair_rows, path)
