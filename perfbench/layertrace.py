"""Outside-in layer tracing for the benchmark.

The tracer wraps the library's entry points from the outside, by replacing
the module attributes that `harness`, `cli` and the kernels resolve at call
time. Nothing inside `src/` is changed. Spans stay in memory while the
traced ops run and are written out once at the end.

A layer's busy time counts only its outermost spans, so a layer that calls
itself (`harness.verify_*` -> `harness.run_monte_carlo`) is not counted
twice. Its self time is each span's duration minus the time its child spans
cover.
"""

from __future__ import annotations

import functools
import json
import time

# Entry point -> (module, attribute) pairs that resolve to it at call time.
# Each layer is patched in every module that imports it by name, so calls
# from `harness`, `cli` and the kernels themselves are all seen.
ENTRY_POINTS = {
    "traces.draw": [("harness", "_stream"), ("traces", "device_stream"), ("online", "device_stream")],
    "traces.read_pair_csv": [("cli", "read_pair_csv")],
    "traces.write_pair_csv": [("cli", "write_pair_csv")],
    "offline.duty_cycle_arrays": [("harness", "duty_cycle_arrays"), ("offline", "duty_cycle_arrays")],
    "offline.offline_duty_cycle": [("harness", "offline_duty_cycle"), ("cli", "offline_duty_cycle")],
    "online.simulate_arrays": [("harness", "simulate_arrays"), ("online", "simulate_arrays")],
    "online.online_duty_cycle": [("harness", "online_duty_cycle"), ("cli", "online_duty_cycle")],
    "oracle.brute_force_matching": [("harness", "brute_force_matching")],
    "graph.build_graph": [("harness", "build_graph"), ("cli", "build_graph")],
    "graph.schedule_from_matching": [
        ("online", "schedule_from_matching"),
        ("offline", "schedule_from_matching"),
    ],
    "metrics.pair_metrics": [("harness", "pair_metrics"), ("cli", "pair_metrics")],
    "metrics.compute_heterogeneity": [
        ("harness", "compute_heterogeneity"),
        ("cli", "compute_heterogeneity"),
        ("metrics", "compute_heterogeneity"),
    ],
    "harness": [
        ("harness", "verify_optimality"),
        ("harness", "verify_expected_cat"),
        ("harness", "verify_ratio_bound"),
        ("harness", "run_monte_carlo"),
    ],
    "cli": [("cli", "main")],
    "cli.serialize": [("cli", "json")],
}

# simulate_arrays is one entry point but two kernels; spans are split by mode.
LAYERS = [
    name
    for ep in ENTRY_POINTS
    for name in (("online.matching", "online.slotsim") if ep == "online.simulate_arrays" else (ep,))
]


class Tracer:
    """In-memory span recorder with per-layer calls, busy and self time."""

    def __init__(self) -> None:
        self.op = -1
        self.spans: list[tuple] = []  # (id, parent id, layer, op, start, end)
        self.agg = {name: [0, 0.0, 0.0] for name in LAYERS}  # calls, busy, self
        self._depth = dict.fromkeys(LAYERS, 0)
        self._stack: list[list] = []  # [id, layer, start, child time]
        self._next_id = 0

    def enter(self, layer: str) -> None:
        self._depth[layer] += 1
        self._stack.append([self._next_id, layer, time.perf_counter(), 0.0])
        self._next_id += 1

    def exit(self) -> None:
        end = time.perf_counter()
        sid, layer, start, child = self._stack.pop()
        dur = end - start
        self._depth[layer] -= 1
        agg = self.agg[layer]
        agg[0] += 1
        agg[2] += dur - child
        if self._depth[layer] == 0:
            agg[1] += dur
        parent = None
        if self._stack:
            self._stack[-1][3] += dur
            parent = self._stack[-1][0]
        self.spans.append((sid, parent, layer, self.op, start, end))

    def wrap(self, layer: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.enter(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit()

        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"fields": ["id", "parent", "layer", "op", "start", "end"], "spans": self.spans},
                fh,
                separators=(",", ":"),
            )


class _Traced:
    """Forwards to `target`, with its attribute `attr` wrapped in a span.

    Stands in for a numpy Generator (`.random`) and for the `json` module
    that `cli` sees (`.dumps`).
    """

    def __init__(self, target, attr: str, layer: str, tracer: Tracer) -> None:
        self._target = target
        setattr(self, attr, tracer.wrap(layer, getattr(target, attr)))

    def __getattr__(self, name):
        return getattr(self._target, name)


def _simulate_wrapper(tracer: Tracer, fn, matching_mode):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        mode = kwargs["mode"] if "mode" in kwargs else args[4]
        tracer.enter("online.matching" if mode == matching_mode else "online.slotsim")
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.exit()

    return traced


def _stream_wrapper(tracer: Tracer, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return _Traced(fn(*args, **kwargs), "random", "traces.draw", tracer)

    return traced


class Patches:
    """Installs tracing wrappers on the package's modules and removes them.

    An entry point whose attributes are missing from every module it is
    looked up in is recorded as absent; its layer then reports zero calls.
    """

    def __init__(self, package, tracer: Tracer) -> None:
        self._saved: list[tuple] = []
        self.absent: list[str] = []
        matching_mode = package.online.OnlineMode.MATCHING
        for entry, targets in ENTRY_POINTS.items():
            present = [(m, a) for m, a in targets if hasattr(getattr(package, m, None), a)]
            if not present:
                self.absent.append(entry)
            for mod_name, attr in present:
                module = getattr(package, mod_name)
                original = getattr(module, attr)
                if entry == "traces.draw":
                    wrapped = _stream_wrapper(tracer, original)
                elif entry == "online.simulate_arrays":
                    wrapped = _simulate_wrapper(tracer, original, matching_mode)
                elif entry == "cli.serialize":
                    wrapped = _Traced(original, "dumps", "cli.serialize", tracer)
                else:
                    wrapped = tracer.wrap(entry, original)
                self._saved.append((module, attr, original))
                setattr(module, attr, wrapped)

    def remove(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
