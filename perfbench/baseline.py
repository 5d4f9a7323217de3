"""Run every workload and print every metric by name and unit.

    python3 perfbench/baseline.py [--seconds S] [--repeats K] [--out FILE]

Each workload runs K times untraced, with seeds 1..K, and once traced. The
table gives each end-to-end metric's median over the K runs and its spread
(interquartile distance over median), then each layer's share of the traced
wall time. With --out the numbers and the machine they came from are also
written as JSON; perfbench/baseline-seed.json was made this way.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

from run import ROOT, machine_info

BENCH_JSON = os.path.join(ROOT, "BENCHMARK.json")


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float | None:
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    with open(BENCH_JSON, encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--out", help="also write the results to this JSON file")
    args = parser.parse_args()

    machine = machine_info()
    print("# machine: " + " ".join(f"{k}={v}" for k, v in machine.items()))
    results = {}
    for wl in (w["name"] for w in bench["workloads"]):
        runs = [run_once(wl, seed, args.seconds, 0) for seed in range(1, args.repeats + 1)]
        traced = run_once(wl, 1, args.seconds, 1)
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        end_to_end = {}
        print(f"\n{wl}: {args.repeats} runs, attempted={attempted} failed={failed} "
              f"fail_ratio={failed / attempted}")
        for metric in bench["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            median = statistics.median(values)
            end_to_end[metric["name"]] = {
                "median": median, "spread": spread(values), "unit": metric["unit"], "runs": values,
            }
            print(f"  {metric['name']:<12} {median:>14.6g} {metric['unit']:<6} "
                  f"spread={spread(values)}")
        layers = traced["metrics"]
        shares = {k[: -len(".share")]: v["value"] for k, v in layers.items() if k.endswith(".share")}
        for layer, share in sorted(shares.items(), key=lambda kv: -kv[1]):
            if share > 0.0:
                print(f"  share {layer:<32} {share:.3f}")
        results[wl] = {
            "fail_ratio": failed / attempted,
            "end_to_end": end_to_end,
            "per_layer": {k: v["value"] for k, v in layers.items()},
        }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"machine": machine, "seconds": args.seconds, "repeats": args.repeats,
                       "workloads": results}, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
