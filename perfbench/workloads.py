"""The benchmark's four workloads, each driven through public entry points.

Every workload is a closed loop with one client: the next op starts when the
previous one has returned. An op is a pure function of (seed, op index), so
the same benchmark seed always gives the same inputs and the same reports.

* mc-ratio     `harness.verify_ratio_bound`, T=1000, p in {0.3, 0.5, 0.8},
               offline plus both online modes. Mostly the online per-trial
               event loops.
* mc-offline   `harness.verify_expected_cat`, T=1000, p in {0.2, 0.5, 0.8},
               offline only. Mostly the offline loop and the Philox draws;
               no online code runs.
* certify-t12  `harness.verify_optimality` on random period-12 instances.
               Mostly the exhaustive oracle; the Monte Carlo kernels are
               bypassed.
* pair-cli     in-process `cli.main`: `generate` writes a 600-slot CSV, then
               `run --trace` reads it with estimated probabilities, both
               algorithms, alternating matching and slotsim mode.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os

import numpy as np

# The warm-up op of every run uses this seed, and its report digest must
# equal the one recorded in digests.json.
RECORDED_SEED = 1729
DIGESTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")
PHILOX_BYTES = 8  # one float64 per drawn value


def op_seed(seed: int, index: int) -> int:
    """Library seed of op `index` in a run with benchmark seed `seed`."""
    return seed * 1_000_003 + index


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def exact_offline_cat(period_len: int, p: float, eta: float) -> float:
    """Exact expected offline CAT for i.i.d. Bernoulli(p) traces.

    The optimum pairs every common harvest slot (T p^2 of them on average)
    and min(X, Y) one-sided slots, where X and Y are the U-only and V-only
    counts of a multinomial over the T slots. E[min(X, Y)] is summed exactly
    over all (x, y), which is O(T^2) time. It goes one x at a time, so it
    needs only O(T) memory and does not set the process's peak RSS.
    """
    a = p * (1.0 - p)  # P(U-only) = P(V-only)
    if a == 0.0:
        return period_len * p * p
    log_a, log_c = math.log(a), math.log(1.0 - 2.0 * a)
    log_fact = np.array([math.lgamma(k + 1) for k in range(period_len + 1)])
    e_min = 0.0
    for x in range(period_len + 1):
        y = np.arange(period_len - x + 1)
        z = period_len - x - y
        log_prob = (
            log_fact[period_len] - log_fact[x] - log_fact[y] - log_fact[z]
            + (x + y) * log_a + z * log_c
        )
        e_min += float(np.dot(np.minimum(x, y), np.exp(log_prob)))
    return period_len * p * p + eta * e_min


class _Workload:
    cycle = 1  # ops that make one full pass over the input mix
    one_shot = False  # an op stands for a whole CLI process

    def prepare(self) -> None:
        """Untimed clean-up before each op."""

    def digest(self, result) -> str:
        return _digest(json.dumps(result, sort_keys=True))


class McRatio(_Workload):
    name = "mc-ratio"
    unit = "trial-slot"
    # Ops of about a second average out the sub-second speed swings of a
    # shared host, which otherwise split op latencies into two clusters.
    TRIALS = 500
    PERIOD = 1000
    P_VALUES = (0.3, 0.5, 0.8)

    def __init__(self, package) -> None:
        self.harness = package.harness
        n_slots = self.TRIALS * self.PERIOD * len(self.P_VALUES)
        self.units_per_op = n_slots
        self.work = {
            "trials": self.TRIALS * len(self.P_VALUES),
            "trial_slots": n_slots,
            "oracle_instances": 0,
            "cli_runs": 0,
            "philox_bytes": 4 * n_slots * PHILOX_BYTES,  # traces and decisions, both devices
        }

    def op(self, seed: int, index: int):
        return self.harness.verify_ratio_bound(trials=self.TRIALS, seed=seed)

    def check(self, result) -> bool:
        cells = result["cells"]
        return (
            result["trials"] == self.TRIALS
            and result["period_len"] == self.PERIOD
            and sorted({c["p"] for c in cells}) == list(self.P_VALUES)
            and len(cells) == 2 * len(self.P_VALUES)
            and all(c["bound_satisfied"] and c["offline_dominates"] for c in cells)
        )


class McOffline(_Workload):
    name = "mc-offline"
    unit = "trial-slot"
    TRIALS = 2000
    PERIOD = 1000
    P_VALUES = (0.2, 0.5, 0.8)
    ETA = 0.75
    MAX_STDERRS = 5.0

    def __init__(self, package) -> None:
        self.harness = package.harness
        self.reference = {p: exact_offline_cat(self.PERIOD, p, self.ETA) for p in self.P_VALUES}
        n_slots = self.TRIALS * self.PERIOD * len(self.P_VALUES)
        self.units_per_op = n_slots
        self.work = {
            "trials": self.TRIALS * len(self.P_VALUES),
            "trial_slots": n_slots,
            "oracle_instances": 0,
            "cli_runs": 0,
            "philox_bytes": 2 * n_slots * PHILOX_BYTES,  # traces, both devices
        }

    def op(self, seed: int, index: int):
        return self.harness.verify_expected_cat(trials=self.TRIALS, seed=seed)

    def check(self, result) -> bool:
        cells = result["cells"]
        return (
            result["trials"] == self.TRIALS
            and result["period_len"] == self.PERIOD
            and result["eta"] == self.ETA
            and [c["p"] for c in cells] == list(self.P_VALUES)
            and all(
                abs(c["mean_cat"] - self.reference[c["p"]]) <= self.MAX_STDERRS * c["stderr"]
                for c in cells
            )
        )


class CertifyT12(_Workload):
    name = "certify-t12"
    unit = "instance"
    INSTANCES = 8  # one pass over the harness's eight-value p grid
    PERIOD = 12

    def __init__(self, package) -> None:
        self.harness = package.harness
        self.units_per_op = self.INSTANCES
        self.work = {
            "trials": self.INSTANCES,
            "trial_slots": self.INSTANCES * self.PERIOD,
            "oracle_instances": self.INSTANCES,
            "cli_runs": 0,
            "philox_bytes": 2 * self.INSTANCES * self.PERIOD * PHILOX_BYTES,
        }

    def op(self, seed: int, index: int):
        return self.harness.verify_optimality(trials=self.INSTANCES, seed=seed)

    def check(self, result) -> bool:
        return (
            result["trials"] == self.INSTANCES
            and result["period_len"] == self.PERIOD
            and result["mismatches"] == []
            and result["passed"] is True
        )


class PairCli(_Workload):
    name = "pair-cli"
    unit = "cli-run"  # one `generate` plus one `run --trace` on its file
    PROBS = ("0.3", "0.5", "0.7")
    MODES = ("matching", "slotsim")
    cycle = len(PROBS) * len(MODES)
    one_shot = True
    PERIOD = 600
    # Relative to the checkout root, so the path embedded in the report, and
    # with it the digest, does not depend on where the checkout lives.
    CSV_PATH = "perfbench/_work/pair.csv"

    def __init__(self, package) -> None:
        self.cli = package.cli
        self.units_per_op = 1
        self.work = {
            "trials": 1,
            "trial_slots": self.PERIOD,
            "oracle_instances": 0,
            "cli_runs": 1,
            "philox_bytes": 4 * self.PERIOD * PHILOX_BYTES,  # traces and decisions
        }

    def prepare(self) -> None:
        # Each op writes a new file, as a fresh CLI run would. Truncating the
        # previous op's file instead can wait for its writeback to disk,
        # which added up to 20 ms to `generate`.
        with contextlib.suppress(FileNotFoundError):
            os.remove(self.CSV_PATH)

    def _main(self, argv: list[str]) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = self.cli.main(argv)
        return code, out.getvalue()

    def op(self, seed: int, index: int):
        generated = self._main(
            ["generate", "--period", str(self.PERIOD), "--prob", self.PROBS[index % len(self.PROBS)],
             "--seed", str(seed), "--out", self.CSV_PATH]
        )
        mode = self.MODES[index % len(self.MODES)]
        ran = self._main(
            ["run", "--trace", self.CSV_PATH, "--algo", "both", "--mode", mode,
             "--seed", str(seed)]
        )
        return {"mode": mode, "generate": generated, "run": ran}

    def check(self, result) -> bool:
        (gen_code, _), (run_code, run_out) = result["generate"], result["run"]
        if gen_code != 0 or run_code != 0:
            return False
        payload = json.loads(run_out)
        return (
            payload["config"]["period"] == self.PERIOD
            and payload["config"]["mode"] == result["mode"]
            and payload["online"]["mode"] == result["mode"]
            and payload["offline"]["cat"] >= payload["online"]["cat"]
        )

    def digest(self, result) -> str:
        with open(self.CSV_PATH, encoding="utf-8") as fh:
            trace_csv = fh.read()
        return _digest(result["generate"][1] + result["run"][1] + trace_csv)


WORKLOADS = {cls.name: cls for cls in (McRatio, McOffline, CertifyT12, PairCli)}


def load_digests() -> dict[str, list[str]]:
    with open(DIGESTS_PATH, encoding="utf-8") as fh:
        return json.load(fh)
