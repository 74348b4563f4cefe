"""Command-line front end.

Exit codes: 0 success, 1 valid-but-negative result (incomplete cover), 2 input
or parameter error, 3 budget or round limit exhausted. Every JSON output
embeds the full parameter set, defaults included, so the run can be replayed
exactly. Randomized subcommands either take --seed or generate one and report
it; silent nondeterminism is never an option.

Each cmd_* returns (exit code, JSON record, text lines), and main prints the
record or the lines, so there is one output path. This module renders every
record: the library computes, and only the colouring file format lives there.
A record may hold lazy lists of uncovered subsets, which main encodes as it
writes them, so neither format holds them all.
"""

from __future__ import annotations

import argparse
import decimal
import json
import os
import secrets
import sys
from dataclasses import asdict
from fractions import Fraction
from itertools import chain, combinations, islice
from typing import Iterable, Optional

from .bounds import (
    compute_bounds_report,
    count_intersecting_pairs,
    estimate_cover_probability,
)
from .combinatorics import ColorSetView, colex_table, colex_unrank, count_progressions
from .construct import (
    ConstructParams,
    block_length,
    coloring_header,
    construct_cover,
)
from .coverage import (
    Coloring,
    VerifyResult,
    format_coloring,
    parse_coloring_text,
    verify_cover,
)
from .errors import BudgetExceededError, ParameterError, RoundsExhaustedError
from .exact import DEFAULT_NODE_BUDGET, METHOD, SearchConfig, ac_exact

EXIT_OK = 0
EXIT_INCOMPLETE = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3

Outcome = tuple[int, dict, Iterable[str]]

# the option that sets each library field whose check names it
_OPTIONS = {"samples_per_round": "--samples", "max_rounds": "--max-rounds",
           "max_N": "--max-N", "node_budget": "--budget", "trials": "--trials"}


def _ensure_seed(args) -> None:
    """Generate a seed into args.seed when none was given, and report it."""
    if args.seed is None:
        args.seed = secrets.randbits(62)
        print(f"generated seed: {args.seed}", file=sys.stderr)


def _record(args, *names: str) -> dict:
    """The {"command", "params"} head of a record, read from the parsed flags."""
    return {"command": args.command, "params": {name: getattr(args, name) for name in names}}


def _write_files(texts: list[tuple[str, str]]) -> None:
    """Write each text to its path, all or none: every path is opened for
    appending, which truncates nothing, before any is written. A failed open,
    or two paths naming one file (hard links included), removes the files
    that the opens created."""
    paths = [path for path, _ in texts]
    new = [path for path in paths if not os.path.exists(path)]
    try:
        for path in paths:
            open(path, "a", encoding="utf-8").close()
        for first, second in combinations(paths, 2):
            if os.path.samefile(first, second):
                raise ParameterError(f"{first} and {second} name one file")
    except (OSError, ParameterError):
        for path in filter(os.path.exists, new):
            os.remove(path)
        raise
    for path, text in texts:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _json_lines(records: Iterable[dict]) -> str:
    """The records as JSON lines, one compact object each."""
    return "".join(json.dumps(rec) + "\n" for rec in records)


class _ColorLists(list):
    """A JSON array of a ColorSetView's colour lists, unranked as it is encoded."""

    def __init__(self, view: ColorSetView):
        self._view = view

    def __iter__(self):
        return self._view.iter_colors()

    def __len__(self) -> int:
        return len(self._view)


def fraction_json(value: Fraction) -> dict:
    """Render an exact rational as {numerator, denominator, decimal_30_digits}."""
    with decimal.localcontext() as ctx:
        ctx.prec = 30
        rendered = str(decimal.Decimal(value.numerator) / decimal.Decimal(value.denominator))
    return {
        "numerator": value.numerator,
        "denominator": value.denominator,
        "decimal_30_digits": rendered,
    }


def coverage_report_dict(coloring: Coloring, result: VerifyResult) -> dict:
    """The verify record after its head: {n, k, N, complete, covered_count,
    total, uncovered, witnesses?}."""
    report = result.report
    out = {
        "n": report.n,
        "k": report.k,
        "N": coloring.N,
        "complete": result.complete,
        "covered_count": report.covered_count,
        "total": report.total,
        "uncovered": _ColorLists(result.uncovered),
    }
    witnesses = report.witnesses
    if witnesses is not None:
        keys = colex_unrank(witnesses.ranks, colex_table(report.n, report.k)).tolist()
        out["witnesses"] = {
            ",".join(map(str, colors)): {"start": start, "diff": diff, "length": report.k}
            for colors, start, diff in zip(keys, witnesses.starts.tolist(),
                                           witnesses.diffs.tolist())}
    return out


def cmd_verify(args) -> Outcome:
    with open(args.input, "r", encoding="utf-8-sig") as handle:
        text = handle.read()
    values = parse_coloring_text(text)
    coloring = Coloring(tuple(values), args.n)
    # text prints no witnesses, so only JSON records them
    result = verify_cover(coloring, args.n, args.k,
                          record_witnesses=args.witnesses and args.format == "json")
    record = _record(args, "input", "n", "k", "witnesses")
    record.update(coverage_report_dict(coloring, result))
    head = [
        f"n={args.n} k={args.k} N={coloring.N}",
        f"covered {result.report.covered_count}/{result.report.total} subsets",
        "complete" if result.complete else "INCOMPLETE",
    ]
    # lazy, like the record's list: a format unranks only what it prints
    lines = chain(head, map("  uncovered: {}".format, result.uncovered.iter_colors()))
    return EXIT_OK if result.complete else EXIT_INCOMPLETE, record, lines


def cmd_construct(args) -> Outcome:
    _ensure_seed(args)
    params = ConstructParams(
        seed=args.seed,
        alpha=args.alpha,
        samples_per_round=args.samples,
        max_rounds=args.max_rounds,
        rng_name=args.rng,
        log_base=args.log_base,
        force_alpha=args.force,
    )
    record = _record(args, "n", "k", "alpha", "samples", "seed", "rng",
                     "max_rounds", "log_base", "force")
    try:
        result = construct_cover(args.n, args.k, params)
    except RoundsExhaustedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        record["error"] = "rounds-exhausted"
        record["residual"] = _ColorLists(exc.residual)
        record["rounds_used"] = exc.trace.rounds_used
        return EXIT_BUDGET, record, []

    trace = result.trace
    rounds = [asdict(rec) for rec in trace.rounds]
    if not verify_cover(result.coloring, args.n, args.k).complete:
        raise AssertionError("internal error: constructed colouring failed verification")

    coloring_text = format_coloring(result.coloring, coloring_header(trace))
    trace_text = _json_lines(rounds)
    _write_files([(path, text) for path, text in [(args.output, coloring_text),
                                                  (args.trace, trace_text)] if path])

    record.update({
        "block_length": trace.block_length,
        "rounds_used": trace.rounds_used,
        "final_length": trace.final_length,
        "certified": True,
        "coloring": list(result.coloring.colors),
        "trace": rounds,
    })
    if args.output:
        lines = [f"certified covering colouring of length {trace.final_length} "
                 f"({trace.rounds_used} blocks of {trace.block_length}) -> {args.output}"]
    else:
        lines = coloring_text.splitlines()
    return EXIT_OK, record, lines


def cmd_count(args) -> Outcome:
    count = count_progressions(args.N, args.k)
    record = _record(args, "N", "k", "pairs")
    record.update({"N": args.N, "k": args.k, "count": count})
    lines = [f"progressions in [{args.N}] of length {args.k}: {count}"]
    if args.pairs:
        tallies = count_intersecting_pairs(args.N, args.k)
        record["pair_counts"] = list(tallies.counts)
        lines.append(f"pair counts by shared elements: {list(tallies.counts)}")
    return EXIT_OK, record, lines


def cmd_bounds(args) -> Outcome:
    if args.trials is None and (args.seed is not None or args.rng != "philox"):
        raise ParameterError("--seed and --rng apply only to the estimate: give --trials")
    pairs_mode = "exact-pairs" if args.pairs == "exact" else "bounded-pairs"
    report = compute_bounds_report(
        args.n, args.k, N=args.N, alpha=args.alpha, pairs_mode=pairs_mode,
        log_base=args.log_base, force_alpha=args.force)
    lines = [
        f"n={report.n} k={report.k} N={report.N}",
        f"progressions h = {report.h}",
        f"pair tallies ({report.pairs_mode}): {list(report.h_i)}",
        f"cover-probability lower bound L = {report.L} ({float(report.L):.6g})",
        f"N_lower = {report.N_lower}",
        f"construction length = {report.construction_length} (alpha={report.alpha})",
    ]
    names = ["n", "k", "N", "alpha", "pairs", "trials", "log_base", "force"]
    if args.trials is not None:
        _ensure_seed(args)
        estimate = estimate_cover_probability(
            report.n, report.k, report.N, args.trials, args.seed, args.rng)
        names += ["seed", "rng"]
    record = _record(args, *names)
    record.update({
        "n": report.n,
        "k": report.k,
        "N": report.N,
        "h": report.h,
        "h_i": list(report.h_i),
        "pairs_mode": report.pairs_mode,
        "L": fraction_json(report.L),
        "L_float": float(report.L),
        "N_lower": report.N_lower,
        "construction_length": report.construction_length,
        "alpha": report.alpha,
    })
    if args.trials is not None:
        record["estimate"] = {
            "p_hat": estimate.p_hat,
            "std_err": estimate.std_err,
            "trials": estimate.trials,
            "seed": estimate.seed,
            "rng": estimate.rng_name,
        }
        lines.append(f"p_hat = {estimate.p_hat:.6f} +- {estimate.std_err:.6f} "
                     f"({estimate.trials} trials, seed {args.seed})")
    return EXIT_OK, record, lines


def cmd_estimate(args) -> Outcome:
    _ensure_seed(args)
    if args.N is None:
        args.N = block_length(args.n, args.k)
    estimate = estimate_cover_probability(
        args.n, args.k, args.N, args.trials, args.seed, args.rng)
    record = _record(args, "n", "k", "N", "trials", "seed", "rng")
    record.update(n=args.n, k=args.k, N=args.N, trials=estimate.trials, seed=estimate.seed,
                  rng=estimate.rng_name, p_hat=estimate.p_hat, std_err=estimate.std_err)
    lines = [f"p_hat = {estimate.p_hat:.6f} +- {estimate.std_err:.6f} "
             f"(n={args.n} k={args.k} N={args.N}, {args.trials} trials, seed {args.seed})"]
    return EXIT_OK, record, lines


def cmd_exact(args) -> Outcome:
    config = SearchConfig(max_N=args.max_N, node_budget=args.budget)
    record = _record(args, "n", "k", "max_N", "budget")
    trace: list[dict] = []
    try:
        result = ac_exact(args.n, args.k, config, trace)
    except BudgetExceededError as exc:
        if args.trace:
            _write_files([(args.trace, _json_lines(trace))])
        print(f"error: {exc}", file=sys.stderr)
        record.update({
            "error": "budget-exceeded",
            "nodes_explored": exc.nodes_explored,
            "refuted_up_to": exc.refuted_up_to,
            "method": METHOD,
        })
        return EXIT_BUDGET, record, []
    record.update({
        "n": result.n,
        "k": result.k,
        "ac": result.value,
        "witness": list(result.witness.colors),
        "nodes_explored": result.nodes_explored,
        "refuted_up_to": result.refuted_up_to,
        "method": METHOD,
    })
    header = {"n": args.n, "k": args.k, "ac": result.value, "method": METHOD}
    _write_files([(path, text) for path, text in [
        (args.output, format_coloring(result.witness, header)),
        (args.trace, _json_lines(trace))] if path])
    lines = [
        f"ac({args.n},{args.k}) = {result.value} [{METHOD}, computed by this tool]",
        f"witness: {' '.join(map(str, result.witness.colors))}",
        f"nodes explored: {result.nodes_explored}, refuted up to: {result.refuted_up_to}",
    ]
    return EXIT_OK, record, lines


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rainbowcover",
        description="Colourings of integer intervals covering every colour "
                    "subset as a rainbow arithmetic progression.")

    def flags() -> argparse.ArgumentParser:
        return argparse.ArgumentParser(add_help=False)

    common = flags()
    fmt = common.add_mutually_exclusive_group()
    fmt.add_argument("--json", dest="format", action="store_const", const="json",
                     help="machine-readable JSON output (default)")
    fmt.add_argument("--text", dest="format", action="store_const", const="text",
                     help="human-readable output")
    common.set_defaults(format="json")
    palette = flags()
    palette.add_argument("--n", type=int, required=True)
    size = flags()
    size.add_argument("--k", type=int, required=True)
    seeded = flags()
    seeded.add_argument("--seed", type=int, default=None)
    seeded.add_argument("--rng", choices=["philox", "pcg64"], default="philox")
    scaling = flags()
    scaling.add_argument("--alpha", type=float, default=2.0)
    scaling.add_argument("--log-base", choices=["e", "2", "10"], default="e", dest="log_base")
    scaling.add_argument("--force", action="store_true",
                         help="allow alpha at or below 1/log(2)")
    interval = flags()
    interval.add_argument("--N", type=int, default=None,
                          help="interval length, default block_length(n,k)")

    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, summary, *parents):
        p = sub.add_parser(name, parents=[common, *parents], help=summary)
        p.set_defaults(func=func)
        return p

    p = add("verify", cmd_verify, "check a colouring file for complete subset coverage",
            palette, size)
    p.add_argument("--input", required=True, help="colouring text file")
    p.add_argument("--witnesses", action="store_true",
                   help="record one witness progression per covered subset")

    p = add("construct", cmd_construct, "build a certified covering colouring",
            palette, size, scaling, seeded)
    p.add_argument("--samples", type=int, default=16,
                   help="candidate blocks scored per round")
    p.add_argument("--max-rounds", type=int, default=None, dest="max_rounds")
    p.add_argument("--output", help="write the colouring text here")
    p.add_argument("--trace", help="write the JSON-lines round trace here")

    p = add("count", cmd_count, "count progressions and pair intersections", size)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--pairs", action="store_true",
                   help="also tally pairs by shared elements")

    p = add("bounds", cmd_bounds,
            "exact bounds report, optionally with a Monte Carlo estimate",
            palette, size, interval, scaling, seeded)
    p.add_argument("--pairs", choices=["exact", "bounded"], default="exact")
    p.add_argument("--trials", type=int, default=None,
                   help="add a Monte Carlo estimate with this many trials")

    p = add("estimate", cmd_estimate, "Monte Carlo estimate of the cover probability",
            palette, size, interval, seeded)
    p.add_argument("--trials", type=int, default=10000)

    p = add("exact", cmd_exact, "exact minimal covering length by search", palette, size)
    p.add_argument("--max-N", type=int, default=None, dest="max_N")
    p.add_argument("--budget", type=int, default=DEFAULT_NODE_BUDGET,
                   help="search-node budget")
    p.add_argument("--output", help="write the witness colouring text here")
    p.add_argument("--trace", help="write one JSON line per interval length decided here")

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code, record, lines = args.func(args)
    except (ParameterError, OSError, UnicodeDecodeError) as exc:
        option = _OPTIONS.get(getattr(exc, "field", None))
        print(f"error: {option}: {exc}" if option else f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (BudgetExceededError, RoundsExhaustedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    try:
        if args.format == "json":
            # the encoder json.dumps(indent=2) runs, read in batches of chunks
            chunks = json.JSONEncoder(indent=2).iterencode(record)
            while batch := "".join(islice(chunks, 1 << 16)):
                sys.stdout.write(batch)
            sys.stdout.write("\n")
        else:
            for line in lines:
                print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        # keep the interpreter's flush at exit from failing on the closed pipe
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: stdout was closed before the output was written", file=sys.stderr)
        return EXIT_INPUT
    return code


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
