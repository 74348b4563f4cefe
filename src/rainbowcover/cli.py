"""Command-line front end.

Exit codes: 0 success, 1 valid-but-negative result (incomplete cover), 2 input
or parameter error, 3 budget or round limit exhausted. Every JSON output
embeds the full parameter set, defaults included, so the run can be replayed
exactly. Randomized subcommands either take --seed or generate one and report
it; silent nondeterminism is never an option.
"""

from __future__ import annotations

import argparse
import json
import secrets
import sys
from typing import Optional

from .bounds import (
    bounds_report_dict,
    compute_bounds_report,
    count_intersecting_pairs,
    estimate_cover_probability,
)
from .combinatorics import DEFAULT_PAIR_LIMIT, count_progressions
from .construct import (
    ConstructParams,
    block_length,
    coloring_header,
    construct_cover,
    trace_record_dict,
)
from .coverage import (
    Coloring,
    coverage_report_dict,
    format_coloring,
    parse_coloring_text,
    verify_cover,
)
from .errors import BudgetExceededError, ParameterError, RoundsExhaustedError
from .exact import DEFAULT_NODE_BUDGET, SearchConfig, ac_exact, exact_result_dict

EXIT_OK = 0
EXIT_INCOMPLETE = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3


def _pair_budget(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"pair-scan budget must be >= 0, got {value}")
    return value


def _ensure_seed(args) -> int:
    """Return the given seed or generate one; the caller must report it."""
    if args.seed is not None:
        return args.seed
    seed = secrets.randbits(62)
    print(f"generated seed: {seed}", file=sys.stderr)
    return seed


def _emit(args, record: dict, text_lines: list[str]) -> None:
    if args.format == "json":
        print(json.dumps(record, indent=2))
    else:
        for line in text_lines:
            print(line)


def cmd_verify(args) -> int:
    try:
        with open(args.input, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        print(f"error: cannot read {args.input}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    values = parse_coloring_text(text)
    coloring = Coloring(tuple(values), args.n)
    result = verify_cover(coloring, args.n, args.k, record_witnesses=args.witnesses)
    record = {
        "command": "verify",
        "params": {
            "input": args.input,
            "n": args.n,
            "k": args.k,
            "witnesses": args.witnesses,
        },
    }
    record.update(coverage_report_dict(coloring, result))
    lines = [
        f"n={args.n} k={args.k} N={coloring.N}",
        f"covered {result.report.covered_count}/{result.report.total} subsets",
        "complete" if result.complete else "INCOMPLETE",
    ]
    lines += [f"  uncovered: {list(cs.colors)}" for cs in result.uncovered]
    _emit(args, record, lines)
    return EXIT_OK if result.complete else EXIT_INCOMPLETE


def cmd_construct(args) -> int:
    seed = _ensure_seed(args)
    params = ConstructParams(
        seed=seed,
        alpha=args.alpha,
        samples_per_round=args.samples,
        max_rounds=args.max_rounds,
        rng_name=args.rng,
        log_base=args.log_base,
        force_alpha=args.force,
    )
    param_record = {
        "n": args.n,
        "k": args.k,
        "alpha": params.alpha,
        "samples": params.samples_per_round,
        "seed": params.seed,
        "rng": params.rng_name,
        "max_rounds": params.max_rounds,
        "log_base": params.log_base,
        "force": params.force_alpha,
    }
    try:
        result = construct_cover(args.n, args.k, params)
    except RoundsExhaustedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if args.format == "json":
            record = {
                "command": "construct",
                "params": param_record,
                "error": "rounds-exhausted",
                "residual": [list(cs.colors) for cs in exc.residual],
                "rounds_used": exc.rounds_used,
            }
            print(json.dumps(record, indent=2))
        return EXIT_BUDGET

    trace = result.trace
    certificate = verify_cover(result.coloring, args.n, args.k)
    if not certificate.complete:
        raise AssertionError("internal error: constructed colouring failed verification")

    coloring_text = format_coloring(result.coloring, coloring_header(trace))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(coloring_text)
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as handle:
            for rec in trace.rounds:
                handle.write(json.dumps(trace_record_dict(rec)) + "\n")

    record = {
        "command": "construct",
        "params": param_record,
        "block_length": trace.block_length,
        "rounds_used": trace.rounds_used,
        "final_length": trace.final_length,
        "certified": True,
        "coloring": list(result.coloring.colors),
        "trace": [trace_record_dict(rec) for rec in trace.rounds],
    }
    if args.format == "json":
        print(json.dumps(record, indent=2))
    elif args.output:
        print(f"certified covering colouring of length {trace.final_length} "
              f"({trace.rounds_used} blocks of {trace.block_length}) -> {args.output}")
    else:
        sys.stdout.write(coloring_text)
    return EXIT_OK


def cmd_count(args) -> int:
    count = count_progressions(args.N, args.k)
    record = {
        "command": "count",
        "params": {
            "N": args.N,
            "k": args.k,
            "pairs": args.pairs,
            "budget": args.budget,
        },
        "N": args.N,
        "k": args.k,
        "count": count,
    }
    lines = [f"progressions in [{args.N}] of length {args.k}: {count}"]
    if args.pairs:
        tallies = count_intersecting_pairs(args.N, args.k, args.budget)
        record["pair_counts"] = list(tallies.counts)
        lines.append(f"pair counts by shared elements: {list(tallies.counts)}")
    _emit(args, record, lines)
    return EXIT_OK


def cmd_bounds(args) -> int:
    pairs_mode = "exact-pairs" if args.pairs == "exact" else "bounded-pairs"
    report = compute_bounds_report(
        args.n, args.k, N=args.N, alpha=args.alpha, pairs_mode=pairs_mode,
        pair_limit=args.budget, log_base=args.log_base, force_alpha=args.force)
    params = {
        "n": args.n,
        "k": args.k,
        "N": args.N,
        "alpha": args.alpha,
        "pairs": args.pairs,
        "trials": args.trials,
        "budget": args.budget,
        "log_base": args.log_base,
        "force": args.force,
    }
    record = {"command": "bounds", "params": params}
    record.update(bounds_report_dict(report))
    lines = [
        f"n={report.n} k={report.k} N={report.N}",
        f"progressions h = {report.h}",
        f"pair tallies ({report.pairs_mode}): {list(report.h_i)}",
        f"cover-probability lower bound L = {report.L} ({report.L_float:.6g})",
        f"N_lower = {report.N_lower}",
        f"construction length = {report.construction_length} (alpha={report.alpha})",
    ]
    if args.trials is not None:
        seed = _ensure_seed(args)
        params["seed"] = seed
        params["rng"] = args.rng
        estimate = estimate_cover_probability(
            report.n, report.k, report.N, args.trials, seed, args.rng)
        record["estimate"] = {
            "p_hat": estimate.p_hat,
            "std_err": estimate.std_err,
            "trials": estimate.trials,
            "seed": estimate.seed,
            "rng": estimate.rng_name,
        }
        lines.append(f"p_hat = {estimate.p_hat:.6f} +- {estimate.std_err:.6f} "
                     f"({estimate.trials} trials, seed {seed})")
    _emit(args, record, lines)
    return EXIT_OK


def cmd_estimate(args) -> int:
    seed = _ensure_seed(args)
    N = args.N if args.N is not None else block_length(args.n, args.k)
    estimate = estimate_cover_probability(args.n, args.k, N, args.trials, seed, args.rng)
    record = {
        "command": "estimate",
        "params": {
            "n": args.n,
            "k": args.k,
            "N": N,
            "trials": args.trials,
            "seed": seed,
            "rng": args.rng,
        },
        "n": args.n,
        "k": args.k,
        "N": N,
        "trials": estimate.trials,
        "seed": estimate.seed,
        "rng": estimate.rng_name,
        "p_hat": estimate.p_hat,
        "std_err": estimate.std_err,
    }
    lines = [f"p_hat = {estimate.p_hat:.6f} +- {estimate.std_err:.6f} "
             f"(n={args.n} k={args.k} N={N}, {args.trials} trials, seed {seed})"]
    _emit(args, record, lines)
    return EXIT_OK


def cmd_exact(args) -> int:
    config = SearchConfig(
        max_N=args.max_N,
        node_budget=args.budget,
        symmetry_breaking=not args.no_symmetry,
        oracle_mode=args.oracle,
    )
    method = "exhaustive-dfs" if args.oracle else "pruned-dfs"
    try:
        result = ac_exact(args.n, args.k, config)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if args.format == "json":
            record = {
                "command": "exact",
                "params": _exact_params(args),
                "error": "budget-exceeded",
                "nodes_explored": exc.nodes_explored,
                "refuted_up_to": exc.refuted_up_to,
                "method": method,
            }
            print(json.dumps(record, indent=2))
        return EXIT_BUDGET
    record = {"command": "exact", "params": _exact_params(args)}
    record.update(exact_result_dict(result, method))
    if args.output:
        header = {"n": args.n, "k": args.k, "ac": result.value, "method": method}
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(format_coloring(result.witness, header))
    lines = [
        f"ac({args.n},{args.k}) = {result.value} [{method}, computed by this tool]",
        f"witness: {' '.join(map(str, result.witness.colors))}",
        f"nodes explored: {result.nodes_explored}, refuted up to: {result.refuted_up_to}",
    ]
    _emit(args, record, lines)
    return EXIT_OK


def _exact_params(args) -> dict:
    return {
        "n": args.n,
        "k": args.k,
        "max_N": args.max_N,
        "budget": args.budget,
        "symmetry_breaking": not args.no_symmetry,
        "oracle": args.oracle,
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rainbowcover",
        description="Colourings of integer intervals covering every colour "
                    "subset as a rainbow arithmetic progression.")
    common = argparse.ArgumentParser(add_help=False)
    fmt = common.add_mutually_exclusive_group()
    fmt.add_argument("--json", dest="format", action="store_const", const="json",
                     help="machine-readable JSON output (default)")
    fmt.add_argument("--text", dest="format", action="store_const", const="text",
                     help="human-readable output")
    common.set_defaults(format="json")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", parents=[common],
                       help="check a colouring file for complete subset coverage")
    p.add_argument("--input", required=True, help="colouring text file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--witnesses", action="store_true",
                   help="record one witness progression per covered subset")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("construct", parents=[common],
                       help="build a certified covering colouring")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--alpha", type=float, default=2.0)
    p.add_argument("--samples", type=int, default=16,
                   help="candidate blocks scored per round")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--rng", choices=["philox", "pcg64"], default="philox")
    p.add_argument("--max-rounds", type=int, default=None, dest="max_rounds")
    p.add_argument("--log-base", choices=["e", "2", "10"], default="e", dest="log_base")
    p.add_argument("--force", action="store_true",
                   help="allow alpha at or below 1/log(2)")
    p.add_argument("--output", help="write the colouring text here")
    p.add_argument("--trace", help="write the JSON-lines round trace here")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("count", parents=[common],
                       help="count progressions and pair intersections")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--pairs", action="store_true",
                   help="also tally pairs by shared elements")
    p.add_argument("--budget", type=_pair_budget, default=DEFAULT_PAIR_LIMIT,
                   help="pair-scan budget")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("bounds", parents=[common],
                       help="exact bounds report, optionally with a Monte Carlo estimate")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--N", type=int, default=None,
                   help="interval length, default block_length(n,k)")
    p.add_argument("--alpha", type=float, default=2.0)
    p.add_argument("--pairs", choices=["exact", "bounded"], default="exact")
    p.add_argument("--trials", type=int, default=None,
                   help="add a Monte Carlo estimate with this many trials")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--rng", choices=["philox", "pcg64"], default="philox")
    p.add_argument("--budget", type=_pair_budget, default=DEFAULT_PAIR_LIMIT,
                   help="pair-scan budget")
    p.add_argument("--log-base", choices=["e", "2", "10"], default="e", dest="log_base")
    p.add_argument("--force", action="store_true",
                   help="allow alpha at or below 1/log(2)")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("estimate", parents=[common],
                       help="Monte Carlo estimate of the cover probability")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--N", type=int, default=None,
                   help="interval length, default block_length(n,k)")
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--rng", choices=["philox", "pcg64"], default="philox")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("exact", parents=[common],
                       help="exact minimal covering length by search")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--max-N", type=int, default=None, dest="max_N")
    p.add_argument("--budget", type=int, default=DEFAULT_NODE_BUDGET,
                   help="search-node budget")
    p.add_argument("--oracle", action="store_true",
                   help="exhaustive reference mode, no pruning or symmetry breaking")
    p.add_argument("--no-symmetry", action="store_true", dest="no_symmetry",
                   help="disable symmetry breaking in the pruned search")
    p.add_argument("--output", help="write the witness colouring text here")
    p.set_defaults(func=cmd_exact)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (BudgetExceededError, RoundsExhaustedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
