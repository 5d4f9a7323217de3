"""Per-device binary energy-state traces.

A trace records, for every slot t = 1..T of a period, whether the device
could harvest a usable unit of energy (b(t) = 1) or not (b(t) = 0). It holds
those states as one read-only 1-D bool array, checked once when the trace is
built; the schedulers, metrics and the feasibility check read that array
directly. Traces are either synthesized from a seeded Bernoulli arrival
process or derived from raw power readings by thresholding.

Randomness uses the counter-based Philox generator keyed through
numpy.random.SeedSequence, so identical (seed, device_id) always reproduce
identical traces on any platform. Each device of a pair gets an independent
sub-stream derived from (seed, device_id). Each kind of input has one
check, shared by the library and the CLI, that returns what it accepts:
check_seed, check_count, check_prob, check_eta and check_finite.
bernoulli is the one Bernoulli draw of the package: it compares raw
64-bit Philox outputs with an integer threshold and equals
rng.random(size) < p bit for bit.
_pair_csv_bytes renders the one canonical pair CSV, the form that
write_pair_csv (and so `generate` and `ingest`) writes: header
`slot,b_u,b_v`, then one `k,b_u,b_v` row per slot, each line ending in
CRLF, nothing quoted or padded. read_pair_csv reads such a file in one pass
and accepts it only if it equals the rendering of the states it holds. Any
other file, and every raw-readings file, is read row by row through
_csv_rows, which owns the UTF-8, header, field-count and field-size checks;
so every other valid spelling reads as before and every error message,
first bad row first, comes from the row loop alone.
"""

from __future__ import annotations

import csv
import math
import numbers
from dataclasses import dataclass

import numpy as np

# Seed used by the CLI whenever the caller does not pass one. Fixed, never
# wall-clock derived, so default runs are reproducible.
DEFAULT_SEED = 1729


class TraceFormatError(ValueError):
    """Malformed trace data; the message names the offending row."""


def check_seed(seed: int) -> int:
    """seed as a Python int; ValueError naming it unless it is a non-negative integer.

    numpy integers pass, and come back as int so that reports embedding
    them serialize; floats fail even when integral, so 1.7 is never drawn
    as seed 1, and so do bools, so False is never seed 0.
    """
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    return int(seed)


def check_count(name: str, value: int, least: int = 1, most: int | None = None) -> int:
    """value as a Python int; ValueError naming it unless an integer >= least (<= most if given).

    Like check_seed, numpy integers pass and floats fail even when integral,
    so a period, trial count or warm-up is never a fraction; bools fail too.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if most is not None and not least <= value <= most:
        raise ValueError(f"{name} must lie in {least}..{most}, got {value}")
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")
    return int(value)


def check_prob(name: str, value: float) -> float:
    """value; ValueError naming it unless it lies in [0, 1] (NaN does not)."""
    if not (0.0 <= value <= 1.0):
        raise ValueError(f"{name} must lie in [0, 1], got {value}")
    return value


def check_eta(eta: float) -> float:
    """eta; ValueError unless the charging efficiency lies in (0, 1] (NaN does not)."""
    if not (0.0 < eta <= 1.0):
        raise ValueError(f"eta must lie in (0, 1], got {eta}")
    return eta


def check_finite(name: str, value: float, positive: bool = False) -> float:
    """value; ValueError naming it unless finite and non-negative, or positive if asked."""
    if not (0.0 <= value < math.inf) or (positive and value == 0.0):
        sign = "positive" if positive else "non-negative"
        raise ValueError(f"{name} must be finite and {sign}, got {value}")
    return value


def _stream(seed: int, *tags: int) -> np.random.Generator:
    """Philox stream for (seed, tags); tags separate sub-streams."""
    ss = np.random.SeedSequence(entropy=check_seed(seed), spawn_key=tuple(int(t) for t in tags))
    return np.random.Generator(np.random.Philox(ss))


def bernoulli(rng: np.random.Generator, size, p) -> np.ndarray:
    """Bool array of the given size, true with probability p, bit for bit
    equal to rng.random(size) < p.

    random() turns one 64-bit output x of the bit generator into
    (x >> 11) * 2**-53, and scaling p by 2**53 is exact, so the comparison
    is one of integers: x >> 11 < K with K = ceil(p * 2**53). For a scalar
    p that is x < K << 11, with no shift of the drawn words; only p = 1
    gives K = 2**53, whose K << 11 = 2**64 is past uint64, and it keeps
    every value, as p = 0 keeps none. Each value takes one output, as
    random() does, so the stream is left where random() would leave it.
    p is a scalar or an array that broadcasts against size.
    """
    raw = rng.bit_generator.random_raw(size)
    if isinstance(p, np.ndarray):
        raw >>= 11
        return raw < np.ceil(np.ldexp(p, 53)).astype(np.uint64)
    threshold = math.ceil(math.ldexp(p, 53))
    if threshold >> 53:
        return np.ones(raw.shape, dtype=bool)
    return raw < np.uint64(threshold << 11)


def check_packed(*rows: np.ndarray) -> None:
    """TypeError unless every array is uint8, as np.packbits rows are.

    The count kernels take packed rows only: a bool (n, T) array there
    would be counted as bytes, one slot a byte, and silently miscount.
    """
    for array in rows:
        if array.dtype != np.uint8:
            raise TypeError(f"expected np.packbits rows (uint8), got dtype {array.dtype}")


def count_packed(rows: np.ndarray) -> np.ndarray:
    """Set bits along the last axis of np.packbits rows, as int64."""
    return np.bitwise_count(rows).sum(axis=-1, dtype=np.int64)


def device_stream(seed: int, device_id: str, purpose: int = 0) -> np.random.Generator:
    """Independent Philox sub-stream derived from (seed, device_id).

    `purpose` separates different uses of the same device identity, e.g.
    trace generation vs. online activation draws.
    """
    tag = int.from_bytes(device_id.encode("utf-8"), "big") if device_id else 0
    ss = np.random.SeedSequence(entropy=(check_seed(seed), tag), spawn_key=(int(purpose),))
    return np.random.Generator(np.random.Philox(ss))


@dataclass(frozen=True, eq=False)
class EnergyTrace:
    """Binary energy states b(t) of one device over slots 1..period_len.

    `states` accepts any 1-D sequence of 0/1 (or bool) values and is stored
    as a read-only bool array copied from it, so later writes to the source
    never reach the trace. Traces compare by identity.
    """

    device_id: str
    states: np.ndarray

    def __post_init__(self) -> None:
        states = np.asarray(self.states)
        if states.ndim != 1:
            raise ValueError(f"states must be one-dimensional, got shape {states.shape}")
        if states.dtype != bool and ((states != 0) & (states != 1)).any():
            raise ValueError("every energy state must be exactly 0 or 1")
        states = states.astype(bool)  # a copy, even for bool input
        states.flags.writeable = False
        object.__setattr__(self, "states", states)

    @property
    def period_len(self) -> int:
        return self.states.shape[0]

    def harvest_slots(self) -> tuple[int, ...]:
        """1-based slots where the device can harvest."""
        return tuple((self.states.nonzero()[0] + 1).tolist())


def pair_period(trace_u: EnergyTrace, trace_v: EnergyTrace) -> int:
    """Common period length of a trace pair; ValueError if they disagree."""
    if trace_u.period_len != trace_v.period_len:
        raise ValueError(
            f"traces disagree on period length: {trace_u.period_len} vs {trace_v.period_len}"
        )
    return trace_u.period_len


@dataclass(frozen=True)
class ArrivalModel:
    """I.i.d. Bernoulli arrivals: b(t) = 1 with probability prob_harvest."""

    prob_harvest: float
    period_len: int
    seed: int

    def __post_init__(self) -> None:
        check_prob("prob_harvest", self.prob_harvest)
        object.__setattr__(self, "period_len", check_count("period_len", self.period_len))
        object.__setattr__(self, "seed", check_seed(self.seed))


@dataclass(frozen=True)
class RawTrace:
    """Raw power/voltage samples (slot, reading) for one device."""

    device_id: str
    samples: tuple[tuple[int, float], ...]

    def __post_init__(self) -> None:
        _check_samples(self.device_id, self.samples)


def _sample_problem(device_id: str, slot: int, reading: float, prev: int, period: int | None):
    """The message for the first raw-sample rule that (slot, reading) breaks, or None.

    In order: the slot is at least 1 (and at most period, if known), the
    reading is finite and non-negative, and the slot rises above prev, the
    device's previous slot (0 before its first sample).
    """
    if slot < 1:
        return f"slot {slot} is below 1"
    if period is not None and slot > period:
        return f"slot {slot} outside 1..{period}"
    if not math.isfinite(reading) or reading < 0.0:
        return f"reading {reading!r} must be finite and non-negative"
    if slot <= prev:
        return f"slot {slot} of device {device_id!r} does not rise above its previous slot {prev}"
    return None


def _check_samples(device_id: str, samples, period_len: int | None = None) -> None:
    """TraceFormatError naming the first of one device's samples that breaks a rule."""
    prev = 0
    for i, (slot, reading) in enumerate(samples, start=1):
        problem = _sample_problem(device_id, slot, reading, prev, period_len)
        if problem is not None:
            raise TraceFormatError(f"sample row {i} of device {device_id!r}: {problem}")
        prev = slot


def generate_trace(model: ArrivalModel, device_id: str = "u") -> EnergyTrace:
    """Draw one seeded Bernoulli trace; pure function of (model, device_id)."""
    rng = device_stream(model.seed, device_id, purpose=0)
    return EnergyTrace(device_id, bernoulli(rng, model.period_len, model.prob_harvest))


def generate_pair(model: ArrivalModel) -> tuple[EnergyTrace, EnergyTrace]:
    """Generate devices "u" and "v" of a pair from independent sub-streams."""
    return generate_trace(model, "u"), generate_trace(model, "v")


def threshold_trace(raw: RawTrace, threshold: float, period_len: int) -> EnergyTrace:
    """Binarize raw readings: b(t) = 1 iff a sample at slot t reads >= threshold.

    The comparison is inclusive and slots without a sample map to 0 (no
    evidence of harvestable energy).
    """
    check_finite("threshold", threshold, positive=True)
    period_len = check_count("period_len", period_len)
    _check_samples(raw.device_id, raw.samples, period_len)
    states = np.zeros(period_len, dtype=bool)
    states[[slot - 1 for slot, reading in raw.samples if reading >= threshold]] = True
    return EnergyTrace(raw.device_id, states)


def estimate_prob(trace: EnergyTrace) -> float:
    """Empirical harvest probability: fraction of slots with b = 1."""
    if trace.period_len < 1:
        raise ValueError("cannot estimate a probability from an empty trace")
    return int(np.count_nonzero(trace.states)) / trace.period_len


# ---------------------------------------------------------------------------
# CSV interchange
#
# Raw traces:    header "slot,device_id,reading", one row per sample.
# Binary pairs:  header "slot,b_u,b_v", states written as literal 0/1 so a
#                write/read round trip is bit exact.
# ---------------------------------------------------------------------------

RAW_HEADER = ["slot", "device_id", "reading"]
PAIR_HEADER = ["slot", "b_u", "b_v"]


def _csv_rows(fh, path, header: list[str]):
    """Yield (row_no, row) for each data row of the open CSV file fh.

    Checks that row 1 is `header` and that every data row has as many
    fields; a byte that is not UTF-8 raises TraceFormatError naming path,
    and a row csv.reader rejects (a field over its size limit, say) one
    naming the row.
    """
    row_no = 1
    try:
        reader = csv.reader(fh)
        first = next(reader, None)
        if first != header:
            raise TraceFormatError(
                f"{path}: row 1: expected header {','.join(header)!r}, got {first!r}"
            )
        n_fields = len(header)
        row_no = 2
        for row in reader:
            if len(row) != n_fields:
                raise TraceFormatError(
                    f"{path}: row {row_no}: expected {n_fields} fields, got {len(row)}"
                )
            yield row_no, row
            row_no += 1
    except UnicodeDecodeError as exc:
        raise TraceFormatError(f"{path}: not UTF-8 text: {exc}") from exc
    except csv.Error as exc:
        raise TraceFormatError(f"{path}: row {row_no}: {exc}") from exc


def write_raw_csv(traces: list[RawTrace], path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(RAW_HEADER)
        for raw in traces:
            for slot, reading in raw.samples:
                writer.writerow([slot, raw.device_id, repr(float(reading))])


def read_raw_csv(path, period_len: int | None = None) -> dict[str, RawTrace]:
    """Read raw samples grouped by device; errors name the file and its row.

    Each device's slots must start at 1 or later (and end by period_len, if
    given) and rise strictly from row to row; rows of different devices may
    interleave. Readings must be finite and non-negative.
    """
    by_device: dict[str, list[tuple[int, float]]] = {}
    with open(path, "r", newline="", encoding="utf-8") as fh:
        for row_no, (slot, device, reading) in _csv_rows(fh, path, RAW_HEADER):
            try:
                slot = int(slot)
                reading = float(reading)
            except ValueError as exc:
                raise TraceFormatError(f"{path}: row {row_no}: {exc}") from exc
            samples = by_device.setdefault(device, [])
            prev = samples[-1][0] if samples else 0
            problem = _sample_problem(device, slot, reading, prev, period_len)
            if problem is not None:
                raise TraceFormatError(f"{path}: row {row_no}: {problem}")
            samples.append((slot, reading))
    return {dev: RawTrace(device_id=dev, samples=tuple(samples)) for dev, samples in by_device.items()}


# The canonical pair CSV, as csv.writer writes PAIR_HEADER and the rows.
_PAIR_CSV_HEADER = (",".join(PAIR_HEADER) + "\r\n").encode("ascii")
_PAIR_ROW_TAIL = np.frombuffer(b",0,0\r\n", dtype=np.uint8)  # after the slot digits
_BLOCK_ROWS = 1 << 15  # rows rendered or checked at once, about 0.4 MB


def _pair_row_blocks(period: int):
    """Yield (start, stop, width) over slots 1..period: slots start+1..stop
    all have `width` digits, so each of their rows is width + 6 bytes."""
    start = 0
    while start < period:
        width = len(str(start + 1))
        stop = min(period, 10**width - 1, start + _BLOCK_ROWS)
        yield start, stop, width
        start = stop


def _pair_rows(start: int, stop: int, width: int, bits_u, bits_v) -> np.ndarray:
    """Rows of slots start+1..stop, as a (stop - start, width + 6) uint8 array."""
    rows = np.empty((stop - start, width + 6), dtype=np.uint8)
    slots = np.arange(start + 1, stop + 1)
    for d in range(width):
        rows[:, width - 1 - d] = slots // 10**d % 10 + ord("0")
    rows[:, width:] = _PAIR_ROW_TAIL
    rows[:, width + 1] += bits_u
    rows[:, width + 3] += bits_v
    return rows


def _pair_csv_bytes(bits_u: np.ndarray, bits_v: np.ndarray):
    """Yield the canonical pair CSV of two equal-length bool arrays in
    blocks of at most _BLOCK_ROWS rows; joined, the blocks are the bytes
    csv.writer writes for PAIR_HEADER and the rows (k, b_u, b_v)."""
    yield _PAIR_CSV_HEADER
    for start, stop, width in _pair_row_blocks(len(bits_u)):
        yield _pair_rows(start, stop, width, bits_u[start:stop], bits_v[start:stop]).tobytes()


def write_pair_csv(trace_u: EnergyTrace, trace_v: EnergyTrace, path) -> None:
    pair_period(trace_u, trace_v)
    with open(path, "wb") as fh:
        fh.writelines(_pair_csv_bytes(trace_u.states, trace_v.states))


def _canonical_pair_states(data: bytes) -> tuple[np.ndarray, np.ndarray] | None:
    """The two state arrays if data is _pair_csv_bytes of them for at least
    one slot, else None.

    Each row's states are the bytes 4 and 2 before its newline; rendering
    them again and comparing, block by block, checks every other byte.
    """
    period = data.count(b"\n") - 1
    if period < 1 or not data.startswith(_PAIR_CSV_HEADER):
        return None
    states_u = np.empty(period, dtype=bool)
    states_v = np.empty(period, dtype=bool)
    pos = len(_PAIR_CSV_HEADER)
    for start, stop, width in _pair_row_blocks(period):
        size = (stop - start) * (width + 6)
        if pos + size > len(data):
            return None
        block = np.frombuffer(data, dtype=np.uint8, count=size, offset=pos)
        block = block.reshape(stop - start, width + 6)
        bits_u = states_u[start:stop]
        bits_v = states_v[start:stop]
        np.equal(block[:, width + 1], ord("1"), out=bits_u)
        np.equal(block[:, width + 3], ord("1"), out=bits_v)
        if not np.array_equal(_pair_rows(start, stop, width, bits_u, bits_v), block):
            return None
        pos += size
    return (states_u, states_v) if pos == len(data) else None


def _read_pair_rows(path) -> tuple[EnergyTrace, EnergyTrace]:
    """read_pair_csv's row-by-row reader: any valid spelling, and every error message."""
    states_u: list[bool] = []
    states_v: list[bool] = []
    with open(path, "r", newline="", encoding="utf-8") as fh:
        for row_no, (slot, b_u, b_v) in _csv_rows(fh, path, PAIR_HEADER):
            try:
                slot_no = int(slot)
            except ValueError as exc:
                raise TraceFormatError(f"{path}: row {row_no}: bad slot {slot!r}") from exc
            if slot_no != row_no - 1:
                raise TraceFormatError(
                    f"{path}: row {row_no}: expected slot {row_no - 1}, got {slot_no}"
                )
            if b_u not in ("0", "1") or b_v not in ("0", "1"):
                col, val = ("b_u", b_u) if b_u not in ("0", "1") else ("b_v", b_v)
                raise TraceFormatError(
                    f"{path}: row {row_no}: column {col} must be 0 or 1, got {val!r}"
                )
            states_u.append(b_u == "1")
            states_v.append(b_v == "1")
    if not states_u:
        raise TraceFormatError(f"{path}: row 2: no data rows after header")
    return EnergyTrace("u", states_u), EnergyTrace("v", states_v)


def read_pair_csv(path) -> tuple[EnergyTrace, EnergyTrace]:
    """Read a binary trace pair as devices "u" and "v"; errors name the offending row.

    A file in the canonical form write_pair_csv writes is read in one pass;
    any other goes through the row-by-row reader, which raises every error.
    """
    with open(path, "rb") as fh:
        states = _canonical_pair_states(fh.read())
    if states is None:
        return _read_pair_rows(path)
    return EnergyTrace("u", states[0]), EnergyTrace("v", states[1])
