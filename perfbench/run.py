"""Benchmark of the duty-cycling simulator, one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from a checkout of the repository, in one process and one thread, and
imports the package from `src/`. Set-up is the import of numpy and the
package, timed as the median over fresh interpreters, plus building the
workload's inputs and one untimed warm-up op whose report digest must match
digests.json, repeated and its median taken. Then ops run in a closed loop
for S seconds. Every op's output is checked, and an op that raises or fails
its check counts as failed. Reported times are scaled to a reference host
speed by a probe timed between blocks of ops (see HostProbe).

With --trace 0 the last line of stdout is a JSON object with the end-to-end
metrics. With --trace 1 every input cycle runs twice, once untraced and once
with every layer's entry points wrapped, the order alternating from cycle to
cycle, and the last line carries the per-layer metrics; the spans are
written to perfbench/_work/. Metric names and units are listed in
BENCHMARK.json; what each layer should move is in perfbench/README.md.
"""

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

import numpy

import layertrace
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK_DIR = os.path.join("perfbench", "_work")
SETUP_REPEATS = 5
IMPORT_REPEATS = 5
BLOCK_S = 0.2  # ops timed between two probe gaps, at least one
GAP_SAMPLES = 2
PROBE_SHARE = 0.05  # of op time spent on the host-speed probe
PROBE_REFERENCE_S = 0.004  # probe median on the baseline machine (README)
# Run by a fresh interpreter to time the import alone, without its start-up.
_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import numpy, dutycycle, dutycycle.cli; print(time.perf_counter() - t)"
)


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text}")
    return value


def _seconds(text: str) -> float:
    value = float(text)
    if value <= 0.0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=_seed, required=True)
    parser.add_argument("--seconds", type=_seconds, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def machine_info() -> dict:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                model,
            )
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "arch": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


class HostProbe:
    """Gauges the host's speed with a fixed piece of the benchmark's own work.

    The shared host this benchmark was made on runs the same code up to 1.5x
    faster or slower for fractions of a second to minutes at a time, which
    moves every time of a run alike. The probe (a pure-Python loop and a
    small numpy pass, about 4 ms, never the program's code) is timed in a
    gap before and after every timed block of work, so that it sees the host
    as the block did. `scale` turns the block's time into the time it would
    take at the host speed where the probe takes PROBE_REFERENCE_S. A change
    to the program cannot change the probe, so it shows in the scaled times
    in full.
    """

    def __init__(self) -> None:
        self._data = numpy.linspace(0.0, 1.0, 4096)  # small: no effect on peak RSS
        self.times: list[float] = []
        self._last = self._gap(0.0)

    def _sample(self) -> None:
        start = time.perf_counter()
        acc = 0
        for i in range(30_000):
            acc += i * i % 7
        for _ in range(40):
            acc += int((self._data < 0.5).cumsum()[-1])
        self.times.append(time.perf_counter() - start)

    def _gap(self, busy_s: float) -> float:
        """Median of GAP_SAMPLES samples, or of PROBE_SHARE of `busy_s`."""
        first = len(self.times)
        while len(self.times) - first < GAP_SAMPLES or sum(self.times[first:]) < PROBE_SHARE * busy_s:
            self._sample()
        return statistics.median(self.times[first:])

    def scale(self, busy_s: float) -> float:
        """Probe now; return the factor for the `busy_s` of work just timed."""
        before, self._last = self._last, self._gap(busy_s)
        return 2.0 * PROBE_REFERENCE_S / (before + self._last)


def import_seconds() -> float:
    """Median time to import numpy and the package in a fresh interpreter.

    Not scaled by the probe: the child may run on another core than the
    probe does.
    """
    src = os.path.join(ROOT, "src")
    times = [
        float(subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, src], capture_output=True, text=True, check=True
        ).stdout)
        for _ in range(IMPORT_REPEATS)
    ]
    return statistics.median(times)


def import_package():
    """Import `dutycycle` from the checkout's src/, never from elsewhere."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import dutycycle
    import dutycycle.cli  # not imported by the package itself

    if not os.path.abspath(dutycycle.__file__).startswith(src + os.sep):
        raise ImportError(f"dutycycle was imported from {dutycycle.__file__}, not {src}")
    return dutycycle


class Runner:
    """Runs and checks ops, counting attempts and failures."""

    def __init__(self, recorded: list[str]) -> None:
        self.workload = None
        self.recorded = recorded
        self.attempted = 0
        self.failed = 0

    def run_op(self, seed: int, index: int, expected_digest: str | None = None) -> float:
        """Run op `index` of a run seeded with `seed`; return its latency."""
        self.attempted += 1
        self.workload.prepare()
        start = time.perf_counter()
        try:
            result = self.workload.op(workloads.op_seed(seed, index), index)
            elapsed = time.perf_counter() - start
            ok = self.workload.check(result)
            if ok and expected_digest is not None:
                ok = self.workload.digest(result) == expected_digest
        except Exception:  # an op that raises is a failed op, not a crash
            elapsed = time.perf_counter() - start
            traceback.print_exc()
            ok = False
        if not ok:
            self.failed += 1
            print(f"op {index} (seed {seed}) failed its check", file=sys.stderr)
        return elapsed

    def loop(self, seed: int, seconds: float, probe: HostProbe) -> tuple[list[float], list[float]]:
        """Closed loop: run ops back to back until `seconds` have passed.

        Ops run in blocks of at least BLOCK_S with a probe gap after each.
        Returns the latencies as measured and scaled to reference speed.
        """
        raw: list[float] = []
        scaled: list[float] = []
        deadline = time.perf_counter() + seconds
        while not raw or time.perf_counter() < deadline:
            block: list[float] = []
            while not block or sum(block) < BLOCK_S:
                i = len(raw) + len(block)
                expected = self.recorded[i] if seed == workloads.RECORDED_SEED and i < len(self.recorded) else None
                block.append(self.run_op(seed, i, expected))
            factor = probe.scale(sum(block))
            raw += block
            scaled += [factor * t for t in block]
        return raw, scaled


def percentile(values: list[float], pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(workload, latencies, setup_s) -> dict:
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    return {
        "units_per_s": (workload.units_per_op * len(latencies) / sum(latencies), "1/s"),
        "op_p50_ms": (1e3 * percentile(latencies, 50), "ms"),
        "op_p99_ms": (1e3 * percentile(latencies, 99), "ms"),
        "peak_rss_mb": (peak_kib / 1024.0, "MiB"),
        "setup_s": (setup_s, "s"),
    }


def traced_loop(runner, package, seed: int, seconds: float, cycle: int):
    """Run every input cycle untraced and traced, alternating which goes first.

    Host speed drifts over seconds to minutes, so the two sides are taken
    from the same moments and the drift cancels out of their difference.
    Returns the tracer, the absent entry points, the number of ops per side
    and each side's summed latency.
    """
    tracer = layertrace.Tracer()
    sums = {False: 0.0, True: 0.0}
    absent: list[str] = []
    k = 0
    deadline = time.perf_counter() + seconds
    while k == 0 or time.perf_counter() < deadline:
        order = (False, True) if (k // cycle) % 2 == 0 else (True, False)
        for traced in order:
            patches = layertrace.Patches(package, tracer) if traced else None
            try:
                for i in range(k, k + cycle):
                    tracer.op = i
                    sums[traced] += runner.run_op(seed, i)
            finally:
                if patches is not None:
                    absent = patches.absent
                    patches.remove()
        k += cycle
    return tracer, absent, k, sums[False], sums[True]


def per_layer(workload, tracer, absent, k, untraced_s, traced_s) -> dict:
    metrics = {}
    attributed = 0.0
    for layer in layertrace.LAYERS:
        calls, busy, self_s = tracer.agg[layer]
        attributed += self_s
        metrics[f"{layer}.calls"] = (calls / k, "count/op")
        metrics[f"{layer}.busy_s"] = (busy / k, "s/op")
        metrics[f"{layer}.self_s"] = (self_s / k, "s/op")
        metrics[f"{layer}.share"] = (self_s / traced_s, "fraction")
    metrics["unattributed.share"] = ((traced_s - attributed) / traced_s, "fraction")
    metrics["work.ops"] = (k, "count")
    for key, value in workload.work.items():
        metrics[f"work.{key}"] = (value, "B/op" if key.endswith("bytes") else "count/op")
    metrics["tracing.spans"] = (len(tracer.spans) / k, "count/op")
    metrics["tracing.absent"] = (len(absent), "count")
    metrics["tracing.untraced_s"] = (untraced_s, "s")
    metrics["tracing.traced_s"] = (traced_s, "s")
    metrics["tracing.overhead_s"] = (traced_s - untraced_s, "s")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    os.chdir(ROOT)
    try:
        package = import_package()
        import_s = import_seconds()
    except (ImportError, subprocess.CalledProcessError) as exc:
        print(f"error: cannot import the package from src/: {exc}", file=sys.stderr)
        return 2
    os.makedirs(WORK_DIR, exist_ok=True)

    cls = workloads.WORKLOADS[args.workload]
    recorded = workloads.load_digests()[cls.name]
    print("# machine: " + " ".join(f"{k}={v}" for k, v in machine_info().items()))

    runner = Runner(recorded)
    probe = HostProbe()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        runner.workload = cls(package)
        runner.run_op(workloads.RECORDED_SEED, 0, recorded[0])
        seconds = time.perf_counter() - start
        setup_times.append(seconds * probe.scale(seconds))
    warmup_s = statistics.median(setup_times)
    setup_s = import_s + warmup_s
    print(f"# setup: import_s={import_s} (as measured) warmup_s={warmup_s} (reference speed)")
    workload = runner.workload
    if cls.one_shot:
        # Each op stands for a one-shot CLI process, whose few collections
        # scan only its own objects. Move everything set-up left alive out of
        # the collector's reach, so a full collection inside a timed op does
        # not scan numpy and every imported module again.
        gc.collect()
        gc.freeze()

    if args.trace == 0:
        raw, latencies = runner.loop(args.seed, args.seconds, probe)
        print(
            f"# host: probe_ms={1e3 * statistics.median(probe.times)} "
            f"probe_samples={len(probe.times)} probe_s={sum(probe.times)}; as measured: "
            f"units_per_s={workload.units_per_op * len(raw) / sum(raw)} "
            f"op_p50_ms={1e3 * percentile(raw, 50)} op_p99_ms={1e3 * percentile(raw, 99)}"
        )
        metrics = end_to_end(workload, latencies, setup_s)
        samples = len(latencies)
    else:
        tracer, absent, k, untraced_s, traced_s = traced_loop(
            runner, package, args.seed, args.seconds, cls.cycle
        )
        tracer.write(os.path.join(WORK_DIR, f"spans-{cls.name}.json"))
        if absent:
            print(f"# absent entry points: {', '.join(absent)}")
        metrics = per_layer(workload, tracer, absent, k, untraced_s, traced_s)
        samples = k

    attempted, failed = runner.attempted, runner.failed
    print(
        f"# workload {cls.name}: unit={cls.unit} units_per_op={workload.units_per_op} "
        f"samples={samples} attempted={attempted} failed={failed} "
        f"fail_ratio={failed / attempted}"
    )
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
