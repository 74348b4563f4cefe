"""rainbowcover benchmark.

    python3 perfbench/run.py --workload construct-certify --seed 1 --seconds 40 --trace 0

Runs one workload (or `all` of them, one after another) against the package
in `src/` of the checkout it lives in. The workload's jobs get inputs made
from `--seed` and run in repeated passes for about `--seconds` seconds;
every output is checked. It prints a table of metrics, then one JSON line:
{"correct", "attempted", "failed", "metrics"}. With `--trace 0` the metrics
are the end-to-end ones listed in BENCHMARK.json; with `--trace 1` each pass
is run twice, untouched and then traced, and the metrics are the per-layer
ones. A stamped record of every pass, job digest and (traced) span is written
to perfbench/out/BENCH_<workload>_seed<seed>_trace<t>.json.

pass_s and setup_s are times scaled to a host of fixed speed. On a host that
shares its cores (measured on a 2-core cloud VM) the speed of the same code
drifts by a third or more over seconds and minutes, more than any statistic
of one run can hide. So the fixed kernel in reference.py runs between the
untraced jobs, at both ends of each untraced pass and before each fresh
import, and a time t next to a kernel time r is reported as t / r *
REFERENCE_S: the time on a host where the kernel takes REFERENCE_S seconds.
pass_s is the median over passes of the pass's job time scaled by the kernel
runs around its jobs; setup_s is the median of the scaled import times.
The wall-clock times are printed in the table and kept in the record.

Exit status 0 means the run finished (check "correct" for the outcome); 2
means the benchmark could not run, for example because `src/rainbowcover`
is missing, and then no result line is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

import reference  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS, Job  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DEFAULT_SEED = 1
SETUP_REPEATS = 11  # at least; one more is taken after every pass
REFERENCE_S = 0.25  # seconds the reference kernel takes on the scale's host

IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
                "import rainbowcover; print(time.perf_counter() - t)")


class SetupError(RuntimeError):
    """The benchmark cannot run in this checkout."""


def load_library() -> SimpleNamespace:
    """Import the package from this checkout's src/, never from elsewhere."""
    if not (SRC / "rainbowcover" / "__init__.py").is_file():
        raise SetupError(f"no package at {SRC / 'rainbowcover'}")
    sys.path.insert(0, str(SRC))
    import rainbowcover
    if Path(rainbowcover.__file__).resolve().parent != SRC / "rainbowcover":
        raise SetupError(f"rainbowcover imported from {rainbowcover.__file__}, not {SRC}")
    from rainbowcover import bounds, construct, coverage, exact
    return SimpleNamespace(construct=construct, coverage=coverage, bounds=bounds, exact=exact)


def import_seconds() -> float:
    """Seconds to import the package in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                          capture_output=True, text=True, timeout=60, cwd=ROOT)
    if done.returncode != 0:
        raise SetupError(f"fresh import failed: {done.stderr.strip()}")
    return float(done.stdout.strip())


def reference_seconds() -> float:
    """Seconds the reference kernel takes right now."""
    start = perf_counter()
    checksum = reference.kernel()
    seconds = perf_counter() - start
    if checksum != reference.CHECKSUM:
        raise SetupError(f"reference kernel returned {checksum}, not {reference.CHECKSUM}")
    return seconds


def setup_sample() -> dict[str, float]:
    """One fresh-interpreter import time with the kernel time just before it."""
    reference_s = reference_seconds()
    return {"import_s": import_seconds(), "reference_s": reference_s}


def scaled(seconds: float, reference_s: float) -> float:
    """`seconds` on a host where the reference kernel takes REFERENCE_S."""
    return seconds / reference_s * REFERENCE_S


def stamp(workload: str, seed: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "git_revision": git_revision(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "workload": workload,
        "seed": seed,
    }


def git_revision() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def run_job(job: Job, inputs, pinned: dict, tracer: Tracer | None) -> dict:
    """Time and check one job; any exception is a failed operation."""
    record = {"name": job.key, "kind": job.kind, "seconds": None,
              "problems": [], "digest": "", "counters": {}}
    if tracer is None:
        record["reference_s"] = reference_seconds()
    try:
        if tracer is None:
            start = perf_counter()
            output = job.run(inputs)
            record["seconds"] = perf_counter() - start
        else:
            watch_memory = job.kind == "estimate"
            with tracer.installed(), tracer.job(job.key):
                start = perf_counter()
                if watch_memory:
                    tracemalloc.start()
                try:
                    output = job.run(inputs)
                finally:
                    if watch_memory:
                        record["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                        tracemalloc.stop()
                record["seconds"] = perf_counter() - start
    except Exception as exc:  # a failed operation is counted, not fatal
        record["problems"].append(f"raised {type(exc).__name__}: {exc}")
        return record
    try:
        outcome = job.check(inputs, output)
    except Exception as exc:
        record["problems"].append(f"check raised {type(exc).__name__}: {exc}")
        return record
    record.update(problems=outcome.problems, digest=outcome.digest, counters=outcome.counters)
    expected = pinned.get("digests", {}).get(job.key)
    if expected is not None and expected != outcome.digest:
        record["problems"].append(f"digest {outcome.digest} != pinned {expected}")
    return record


def measure(rc, workload: str, seed: int, seconds: float, pinned: dict,
            tracer: Tracer | None, setup: list[dict] | None) -> list[dict]:
    """Repeat the workload's jobs, on inputs made once, in passes for about
    `seconds`; a pass that would end past the deadline is not started. With
    a tracer, each untouched pass is followed by a traced one. When `setup`
    is a list, fresh-interpreter import samples are appended to it between
    passes, so that they sample the whole run rather than one moment of it."""
    jobs = WORKLOADS[workload](rc, seed, pinned)
    inputs = [job.prepare() for job in jobs]
    passes: list[dict] = []
    if setup is not None:
        import_seconds()  # warm-up: writes the bytecode cache
    deadline = perf_counter() + seconds
    while True:
        started = perf_counter()
        for traced in ([None, tracer] if tracer is not None else [None]):
            records = [run_job(job, data, pinned, traced) for job, data in zip(jobs, inputs)]
            passes.append({"index": len(passes), "traced": traced is not None,
                           "jobs": records})
            if traced is None:
                passes[-1]["reference_end_s"] = reference_seconds()
        if setup is not None:
            setup.append(setup_sample())
        now = perf_counter()
        if now + (now - started) > deadline:
            break
    while setup is not None and len(setup) < SETUP_REPEATS:
        setup.append(setup_sample())
    first = passes[0]["jobs"]
    for p in passes[1:]:
        for job, reference in zip(p["jobs"], first):
            if job["digest"] and reference["digest"] and job["digest"] != reference["digest"]:
                job["problems"].append("output differs from the first pass on the same input")
    return passes


def best_seconds(passes: list[dict], traced: bool) -> dict[str, float]:
    """Fastest time of each job over the passes of one kind (traced or not)."""
    best: dict[str, float] = {}
    for p in passes:
        if p["traced"] != traced:
            continue
        for job in p["jobs"]:
            if job["seconds"] is not None:
                best[job["name"]] = min(best.get(job["name"], job["seconds"]), job["seconds"])
    return best


def kind_seconds(passes: list[dict]) -> dict[str, list[float]]:
    """Per subcommand kind, its total job time in each untraced pass."""
    out: dict[str, list[float]] = {}
    for p in passes:
        if p["traced"]:
            continue
        totals: dict[str, float] = {}
        for job in p["jobs"]:
            if job["seconds"] is not None:
                totals[job["kind"]] = totals.get(job["kind"], 0.0) + job["seconds"]
        for kind, value in totals.items():
            out.setdefault(kind, []).append(value)
    return out


def pass_seconds(passes: list[dict]) -> list[tuple[float, float]]:
    """Per untraced pass, the summed seconds of the jobs that returned and the
    kernel time during them: for each job the mean of the kernel runs just
    before and just after it, weighted by the job's seconds."""
    out = []
    for p in passes:
        if p["traced"]:
            continue
        after = [job["reference_s"] for job in p["jobs"][1:]] + [p["reference_end_s"]]
        timed = [(job["seconds"], (job["reference_s"] + end) / 2)
                 for job, end in zip(p["jobs"], after) if job["seconds"] is not None]
        total = sum(seconds for seconds, _ in timed)
        if total > 0:
            out.append((total, sum(seconds * kernel for seconds, kernel in timed) / total))
    return out


def end_to_end(passes: list[dict], setup: list[dict]) -> dict[str, float]:
    return {
        "setup_s": statistics.median(scaled(s["import_s"], s["reference_s"]) for s in setup),
        "pass_s": statistics.median(scaled(*p) for p in pass_seconds(passes)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(passes: list[dict], tracer: Tracer) -> dict[str, float]:
    traced = [p for p in passes if p["traced"]]
    busy = sum(job["seconds"] or 0.0 for p in traced for job in p["jobs"])
    count = max(1, len(traced))
    self_s = tracer.self_seconds()
    calls = tracer.calls()
    counters: dict[str, int] = {}
    peaks = {"gather_bytes": 0, "peak_bytes": 0}
    for p in traced:
        for job in p["jobs"]:
            for name, value in job["counters"].items():
                if name in peaks:
                    peaks[name] = max(peaks[name], value)
                else:
                    counters[name] = counters.get(name, 0) + value
            peaks["peak_bytes"] = max(peaks["peak_bytes"], job.get("peak_bytes", 0))

    def share(name: str) -> float:
        return 100.0 * self_s.get(name, 0.0) / busy if busy else 0.0

    def rate(work: float, seconds: float) -> float:
        return work / seconds if seconds > 0 else 0.0

    plain = best_seconds(passes, traced=False)
    with_trace = best_seconds(passes, traced=True)
    common = [name for name in plain if name in with_trace]
    metrics = {
        "construct.construct_cover.self_share": share("construct.construct_cover"),
        "construct.random_coloring.calls": calls.get("construct.random_coloring", 0) / count,
        "construct.random_coloring.self_share": share("construct.random_coloring"),
        "construct.candidates_per_s": rate(calls.get("construct.random_coloring", 0),
                                           tracer.durations("construct.construct_cover")),
        "construct.rounds_used": counters.get("rounds_used", 0) / count,
        "construct.cover_length": counters.get("cover_length", 0) / count,
        "coverage.covered_family.self_share": share("coverage.covered_family"),
        "coverage.covered_family.calls": calls.get("coverage.covered_family", 0) / count,
        "coverage.progressions": counters.get("progressions", 0) / count,
        "coverage.progressions_per_s": rate(counters.get("progressions", 0),
                                            self_s.get("coverage.covered_family", 0.0)),
        "coverage.verify_cover.self_share": share("coverage.verify_cover"),
        "coverage.parse_coloring_text.self_share": share("coverage.parse_coloring_text"),
        "combinatorics.subset_unrank.calls":
            calls.get("combinatorics.subset_unrank", 0) / count,
        "combinatorics.subset_unrank.self_share": share("combinatorics.subset_unrank"),
        "combinatorics.count_intersecting_pairs.self_share":
            share("combinatorics.count_intersecting_pairs"),
        "combinatorics.pair_checks": counters.get("pair_checks", 0) / count,
        "bounds.compute_bounds_report.self_share": share("bounds.compute_bounds_report"),
        "bounds.estimate_cover_probability.self_share":
            share("bounds.estimate_cover_probability"),
        "bounds.trials_per_s": rate(counters.get("trials", 0),
                                    self_s.get("bounds.estimate_cover_probability", 0.0)),
        "bounds.gather_bytes": peaks["gather_bytes"],
        "bounds.estimate_peak_bytes": peaks["peak_bytes"],
        "exact.ac_exact.self_share": share("exact.ac_exact"),
        "exact.nodes": counters.get("nodes", 0) / count,
        "exact.nodes_per_s": rate(counters.get("nodes", 0), self_s.get("exact.ac_exact", 0.0)),
        "trace.overhead_frac": (sum(with_trace[n] for n in common)
                                / sum(plain[n] for n in common) - 1) if common else 0.0,
    }
    for layer in LAYERS:
        metrics[f"{layer}.errors"] = tracer.errors[layer]
    return metrics


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def emit_metrics(spec_entries: list[dict], values: dict[str, float]) -> dict:
    missing = [e["name"] for e in spec_entries if e["name"] not in values]
    if missing:
        raise SetupError(f"benchmark computes no value for {missing}")
    return {e["name"]: {"value": values[e["name"]], "unit": e["unit"]} for e in spec_entries}


def table(workload: str, passes: list[dict], values: dict[str, float], units: dict[str, str],
          setup: list[dict], tracer: Tracer | None, failed: int, attempted: int) -> list[str]:
    """Human-readable report: per-subcommand times with sample counts, the
    metrics, absolute self times when traced, and every failure."""
    untraced = [p for p in passes if not p["traced"]]
    lines = [f"workload {workload}: {len(untraced)} untraced passes, "
             f"failed_frac {failed}/{attempted} = {failed / attempted:.4g}"]

    def line(name: str, value: float, unit: str, note: str = "") -> None:
        lines.append(f"  {name:<48} {value:>14.6g} {unit:<6} {note}".rstrip())

    best = best_seconds(passes, traced=False)
    kinds = kind_seconds(passes)
    for kind in kinds:
        fastest = sum(best.get(job["name"], 0.0) for job in untraced[0]["jobs"]
                      if job["kind"] == kind)
        line(f"{kind}_s", statistics.median(kinds[kind]), "s",
             f"wall clock, median per pass, n={len(kinds[kind])}; sum of best {fastest:.6g} s")
    if tracer is None:
        timed = pass_seconds(passes)
        line("pass_wall_s", statistics.median(t for t, _ in timed), "s",
             f"wall clock, median per pass, n={len(timed)}")
        kernel = [job["reference_s"] for p in untraced for job in p["jobs"]]
        kernel += [p["reference_end_s"] for p in untraced]
        kernel += [s["reference_s"] for s in setup]
        line("reference_s", statistics.median(kernel), "s",
             f"reference kernel, median, n={len(kernel)}; scale {REFERENCE_S} s")
        line("import_wall_s", statistics.median(s["import_s"] for s in setup), "s",
             f"wall clock, median, n={len(setup)}")
    length = sum(j["counters"].get("cover_length", 0) for j in untraced[0]["jobs"])
    if length:
        line("cover_length", length, "count", "total final_length of the covers")
    notes = {"setup_s": f"scaled, median, n={len(setup)}",
             "pass_s": f"scaled, median per pass, n={len(untraced)}"}
    for name, value in values.items():
        line(name, value, units.get(name, ""), notes.get(name, ""))
    if tracer is not None:
        traced = max(1, len(passes) - len(untraced))
        for name, seconds in sorted(tracer.self_seconds().items(), key=lambda kv: -kv[1]):
            line(f"{name}.self_s", seconds / traced, "s", "per traced pass")
    for p in passes:
        for job in p["jobs"]:
            for problem in job["problems"]:
                lines.append(f"  FAILED pass {p['index']} {job['name']}: {problem}")
    return lines


def run_workload(rc, spec: dict, workload: str, seed: int, seconds: float, trace: bool,
                 pinned: dict) -> tuple[dict, list[str], dict]:
    setup: list[dict] = []
    tracer = Tracer() if trace else None
    passes = measure(rc, workload, seed, seconds, pinned, tracer, None if trace else setup)
    attempted = sum(len(p["jobs"]) for p in passes)
    failed = sum(1 for p in passes for job in p["jobs"] if job["problems"])
    entries = spec["per_layer"] if trace else spec["end_to_end"]
    values = per_layer(passes, tracer) if trace else end_to_end(passes, setup)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": emit_metrics(entries, values)}
    units = {e["name"]: e["unit"] for e in entries}
    lines = table(workload, passes, values, units, setup, tracer, failed, attempted)
    record = {"stamp": stamp(workload, seed), "seconds": seconds, "trace": trace,
              "setup_s": setup, "passes": passes, "result": result,
              "subcommand_seconds": kind_seconds(passes)}
    if tracer is not None:
        record["trace_record"] = tracer.dump()
    return result, lines, record


def write_record(workload: str, seed: int, trace: bool, record: dict) -> Path:
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"BENCH_{workload}_seed{seed}_trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1, default=str) + "\n")
    return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="measure passes for about this long, per workload")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    try:
        spec = load_spec()
        rc = load_library()
        pinned_path = HERE / "pinned.json"
        pinned = json.loads(pinned_path.read_text()) if pinned_path.is_file() else {}
        workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
        results = []
        for workload in workloads:
            result, lines, record = run_workload(rc, spec, workload, args.seed, args.seconds,
                                                 bool(args.trace), pinned)
            path = write_record(workload, args.seed, bool(args.trace), record)
            print("\n".join(lines))
            print(f"  record: {path.relative_to(ROOT)}")
            results.append(result)
    except (SetupError, ImportError, OSError, subprocess.SubprocessError,
            json.JSONDecodeError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        final = results[0]
    else:
        final = {"correct": all(r["correct"] for r in results),
                 "attempted": sum(r["attempted"] for r in results),
                 "failed": sum(r["failed"] for r in results),
                 "metrics": {f"{w}.{name}": m for w, r in zip(workloads, results)
                             for name, m in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
