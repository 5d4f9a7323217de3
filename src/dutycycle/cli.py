"""Command-line front end.

Subcommands:
  generate   synthesize a seeded two-device binary trace CSV
  ingest     threshold a raw readings CSV into a binary trace CSV
  run        run the offline and/or online scheduler on one trace pair
  verify     run a verification suite and exit 0 only if it passes

Exit codes: 0 success, 1 verification failure, 2 bad input: a bad flag
(argparse names it), bad data (the message names the file and the row) or
a file that cannot be opened (the message names the path), each with one
`error:` line on stderr and nothing on stdout. All randomness flows from --seed; without the flag the DUTYCYCLE_SEED
environment variable applies, then a fixed default, never wall-clock time.
Every report embeds the fully resolved configuration for reproducibility.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .graph import PairResult
from .harness import (
    evaluate_pair,
    verify_bins,
    verify_expected_cat,
    verify_optimality,
    verify_ratio_bound,
)
from .online import OnlineConfig
from .traces import (
    DEFAULT_SEED,
    ArrivalModel,
    check_count,
    check_eta,
    check_finite,
    check_prob,
    check_seed,
    generate_pair,
    read_pair_csv,
    read_raw_csv,
    threshold_trace,
    write_pair_csv,
)

ENV_SEED = "DUTYCYCLE_SEED"
DEFAULT_ETA = 0.75
DEFAULT_PERIOD = 600  # ten hours of one-minute slots, the usual field setup
# One edge of a result's "edges" list, as json.dumps(..., sort_keys=True,
# indent=2) writes it at that list's depth in a `run` report.
_EDGE_JSON = '      {\n        "kind": "%s",\n        "u": %d,\n        "v": %d\n      }'


def _checked(convert):
    """argparse type from convert(text), which parses the text and applies a library
    check; its ValueError becomes a usage error, exit 2, naming the flag."""
    def parse(text: str):
        try:
            return convert(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return parse


def _resolve_seed(seed: int | None) -> int:
    if seed is not None:
        return seed
    env = os.environ.get(ENV_SEED)
    if env is not None:
        try:
            seed = int(env)
        except ValueError as exc:
            raise ValueError(f"{ENV_SEED} must be an integer, got {env!r}") from exc
        if seed < 0:
            raise ValueError(f"{ENV_SEED} must be non-negative, got {env!r}")
        return seed
    return DEFAULT_SEED


@functools.cache  # building takes ~1 ms, parsing a tenth of that
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dutycycle",
        description="Duty-cycling simulator for pairs of energy-harvesting devices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    period = _checked(lambda text: check_count("period_len", int(text)))
    prob = _checked(lambda text: check_prob("prob_harvest", float(text)))
    seed = _checked(lambda text: check_seed(int(text)))
    trials = _checked(lambda text: check_count("trials", int(text)))
    eta = _checked(lambda text: check_eta(float(text)))
    threshold = _checked(lambda text: check_finite("threshold", float(text), positive=True))

    gen = sub.add_parser("generate", help="write a seeded two-device binary trace CSV")
    gen.add_argument("--period", type=period, default=DEFAULT_PERIOD,
                     help="slots per period (default 600, one-minute slots over 10 hours)")
    gen.add_argument("--prob", type=prob, required=True,
                     help="per-slot harvest probability for both devices")
    gen.add_argument("--seed", type=seed, default=None, help="RNG seed")
    gen.add_argument("--out", required=True, help="output CSV path (slot,b_u,b_v)")

    ing = sub.add_parser("ingest", help="threshold raw readings into a binary trace CSV")
    ing.add_argument("--raw", required=True, help="raw CSV path (slot,device_id,reading)")
    ing.add_argument("--threshold", type=threshold, required=True,
                     help="usability threshold in volts; readings >= threshold give b=1")
    ing.add_argument("--period", type=period, required=True, help="slots per period")
    ing.add_argument("--out", required=True, help="output CSV path (slot,b_u,b_v)")

    run = sub.add_parser("run", help="run scheduler(s) over one trace pair")
    src = run.add_mutually_exclusive_group(required=True)
    src.add_argument("--trace", help="binary trace CSV (slot,b_u,b_v)")
    src.add_argument("--prob", type=prob, help="synthesize traces with this probability")
    run.add_argument("--period", type=period, default=DEFAULT_PERIOD,
                     help="period length for synthesized traces (default 600)")
    run.add_argument("--eta", type=eta, default=DEFAULT_ETA,
                     help="charging efficiency (default 0.75)")
    run.add_argument("--algo", choices=("offline", "online", "both"), default="both")
    run.add_argument("--mode", choices=("matching", "slotsim"), default="matching",
                     help="online bookkeeping mode")
    run.add_argument("--seed", type=seed, default=None, help="RNG seed")
    run.add_argument("--format", choices=("json", "csv"), default="json")

    ver = sub.add_parser("verify", help="run a verification suite")
    ver.add_argument("--suite", choices=("t1", "t2", "t4", "bins", "all"), required=True,
                     help="t1: offline optimality vs oracle; t2: mean CAT vs the "
                          "closed-form reference; t4: online/offline ratio bound; "
                          "bins: occupancy concentration")
    ver.add_argument("--trials", type=trials, default=None,
                     help="trial count override (suite defaults: t1 500, others 10000)")
    ver.add_argument("--seed", type=seed, default=None, help="RNG seed")
    return parser


def cmd_generate(args) -> int:
    seed = _resolve_seed(args.seed)
    model = ArrivalModel(prob_harvest=args.prob, period_len=args.period, seed=seed)
    trace_u, trace_v = generate_pair(model)
    write_pair_csv(trace_u, trace_v, args.out)
    config = {"command": "generate", "period": args.period, "prob": args.prob,
              "seed": seed, "out": args.out}
    print(f"# config: {json.dumps(config, sort_keys=True)}")
    print(f"wrote {args.period} slots for devices u,v to {args.out}")
    return 0


def cmd_ingest(args) -> int:
    raws = read_raw_csv(args.raw, args.period)
    if len(raws) != 2:
        raise ValueError(
            f"{args.raw}: need exactly two device ids for a pair, found {sorted(raws)}"
        )
    id_u, id_v = sorted(raws)
    trace_u = threshold_trace(raws[id_u], args.threshold, args.period)
    trace_v = threshold_trace(raws[id_v], args.threshold, args.period)
    write_pair_csv(trace_u, trace_v, args.out)
    config = {"command": "ingest", "raw": args.raw, "threshold": args.threshold,
              "period": args.period, "out": args.out,
              "device_u": id_u, "device_v": id_v}
    print(f"# config: {json.dumps(config, sort_keys=True)}")
    print(f"wrote thresholded pair ({id_u} -> u, {id_v} -> v) to {args.out}")
    return 0


def report_json(payload: dict, results: dict[str, PairResult]) -> str:
    """A `run` report's text: the payload with each named result's
    to_json_dict() added, as json.dumps(..., sort_keys=True, indent=2)
    writes it.

    An edge list has a fixed shape at a fixed depth, so it is rendered by
    _EDGE_JSON, far faster than json.dumps's pure-Python indenting encoder
    and without a dict per edge. json.dumps writes the rest with each list
    replaced by its result's name, and the lists are spliced in after. The
    search text `"edges": "<name>"` can only match a real "edges" key,
    because json.dumps escapes every quote inside a string.
    """
    shell = dict(payload)
    for name, result in results.items():
        shell[name] = {**result.summary_dict(), "edges": name}
    text = json.dumps(shell, sort_keys=True, indent=2)
    for name, result in results.items():
        rendered = "[]"
        if result.edges:
            rows = [_EDGE_JSON % ("sync" if u == v else "async", u, v) for u, v in result.edges]
            rendered = "[\n" + ",\n".join(rows) + "\n    ]"
        text = text.replace(f'"edges": "{name}"', f'"edges": {rendered}', 1)
    return text


def cmd_run(args) -> int:
    seed = _resolve_seed(args.seed)
    if args.trace is not None:
        trace_u, trace_v = read_pair_csv(args.trace)
        prob_active = None  # estimate from each device's own history
        source = {"trace": args.trace, "period": trace_u.period_len}
    else:
        model = ArrivalModel(prob_harvest=args.prob, period_len=args.period, seed=seed)
        trace_u, trace_v = generate_pair(model)
        prob_active = args.prob
        source = {"prob": args.prob, "period": args.period}

    config = {
        "command": "run",
        "algo": args.algo,
        "eta": args.eta,
        "mode": args.mode,
        "seed": seed,
        "format": args.format,
        **source,
    }
    algorithms = ("offline", "online") if args.algo == "both" else (args.algo,)
    cfg = OnlineConfig(prob_active=prob_active, seed=seed, mode=args.mode)
    results, rows, pair = evaluate_pair("pair1", trace_u, trace_v, args.eta, cfg, algorithms)
    if args.format == "json":
        print(report_json({"config": config, "pair": pair}, results))
    else:
        print(f"# config: {json.dumps(config, sort_keys=True)}")
        print(rows[0].CSV_HEADER)
        for row in rows:
            print(row.to_csv_row())
        if "ratio" in pair:
            print(f"# ratio: {pair['ratio']!r}")
    return 0


def _print_suite(result: dict) -> None:
    suite = result["suite"]
    if suite == "t1":
        print(
            f"t1 optimality: {result['trials']} instances at period "
            f"{result['period_len']}, mismatches={len(result['mismatches'])}"
        )
        for bad in result["mismatches"][:10]:
            print(f"  instance {bad['instance']}: offline={bad['offline']} oracle={bad['oracle']}")
    elif suite == "t2":
        for cell in result["cells"]:
            print(
                f"t2 p={cell['p']:g}: mean_cat={cell['mean_cat']:.3f} "
                f"(stderr {cell['stderr']:.3f}) expected={cell['expected']:.1f} "
                f"gap={cell['relative_gap'] * 100:+.2f}% within_1pct={cell['within_1pct']}"
            )
    elif suite == "t4":
        for cell in result["cells"]:
            print(
                f"t4 p={cell['p']:g} {cell['mode']}: ratio_of_means={cell['ratio_of_means']:.4f} "
                f"bound={cell['bound']:.4f} mean_ratio={cell['mean_ratio']:.4f} "
                f"(stderr {cell['ratio_stderr']:.5f}) ok={cell['bound_satisfied']} "
                f"dominated={cell['offline_dominates']}"
            )
    elif suite == "bins":
        rep = result["report"]
        print(
            f"bins n={rep['n_balls']} m={rep['n_bins']} |A|={rep['subset_size']} "
            f"eps={rep['epsilon']:g}: freq={rep['empirical_freq']:.4f} "
            f"bound={rep['prob_bound']:.4f} mean_S={rep['empirical_mean']:.3f} "
            f"exact={rep['exact_mean']:.3f} rel_err={rep['mean_rel_error'] * 100:.3f}%"
        )
    print(f"suite {suite}: {'PASS' if result['passed'] else 'FAIL'}")


def cmd_verify(args) -> int:
    seed = _resolve_seed(args.seed)
    config = {"command": "verify", "suite": args.suite, "trials": args.trials, "seed": seed}
    print(f"# config: {json.dumps(config, sort_keys=True)}")
    suites = {
        "t1": verify_optimality,
        "t2": verify_expected_cat,
        "t4": verify_ratio_bound,
        "bins": verify_bins,
    }
    # each suite keeps its own default trial count unless --trials is given
    kwargs = {"seed": seed} if args.trials is None else {"seed": seed, "trials": args.trials}
    names = list(suites) if args.suite == "all" else [args.suite]
    all_pass = True
    for name in names:
        result = suites[name](**kwargs)
        _print_suite(result)
        all_pass = all_pass and result["passed"]
    return 0 if all_pass else 1


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    commands = {"generate": cmd_generate, "ingest": cmd_ingest, "run": cmd_run,
                "verify": cmd_verify}
    try:
        return commands[args.command](args)
    except (OSError, ValueError) as exc:  # every bad input past argparse leaves here
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
