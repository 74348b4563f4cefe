"""The benchmark's workloads: inputs made from the workload seed, the library
calls each CLI subcommand makes, and a check of every output.

A workload is a list of jobs whose inputs come from the workload seed. Each
job prepares its inputs (untimed), runs the library calls a user of one
subcommand waits for (timed), then checks the output against `independent`
(untimed). A job that raises or fails a check is a failed operation.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, factorial
from types import SimpleNamespace
from typing import Any, Callable, Optional

import numpy as np

import independent as ref

# The estimator draws its uniform colourings in fixed chunks of this many rows
# from Philox(seed); the check replays the same draws.
ESTIMATOR_CHUNK = 4096
ESTIMATE_TRIALS = 10_000
KNOWN_AC = {(6, 3): 12, (6, 4): 14}


@dataclass
class Job:
    name: str
    kind: str  # the subcommand whose time this job adds to
    seed: Optional[int]
    prepare: Callable[[], Any]
    run: Callable[[Any], Any]
    check: Callable[[Any, Any], "Outcome"]

    @property
    def key(self) -> str:
        """Unique within a workload; also the key of the job's pinned digest."""
        return self.name if self.seed is None else f"{self.name}#{self.seed}"


@dataclass
class Outcome:
    problems: list[str] = field(default_factory=list)
    digest: str = ""
    counters: dict[str, int] = field(default_factory=dict)

    def require(self, condition: bool, message: str) -> None:
        if not condition:
            self.problems.append(message)


def digest_of(value: Any) -> str:
    return hashlib.sha256(json.dumps(value, separators=(",", ":")).encode()).hexdigest()


def job_seeds(workload_seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(workload_seed).generate_state(count)]


def parse_values(text: str) -> list[int]:
    """The colouring text format read without the library: '#' lines are comments."""
    return [int(tok) for line in text.splitlines()
            if not line.lstrip().startswith("#") for tok in line.split()]


# construct-certify ---------------------------------------------------------

def construct_job(rc: SimpleNamespace, n: int, k: int, seed: int) -> Job:
    def run(_):
        result = rc.construct.construct_cover(n, k, rc.construct.ConstructParams(seed=seed))
        certificate = rc.coverage.verify_cover(result.coloring, n, k)
        text = rc.coverage.format_coloring(
            result.coloring, rc.construct.coloring_header(result.trace))
        return result, certificate, text

    def check(_, output) -> Outcome:
        result, certificate, text = output
        out = Outcome()
        trace = result.trace
        colors = parse_values(text)
        out.require(colors == list(result.coloring.colors), "text does not render the colouring")
        out.require(all(1 <= c <= n for c in colors), "colour outside 1..n")
        out.require(certificate.complete and not certificate.uncovered, "certificate incomplete")
        block = ref.block_length(n, k)
        out.require(trace.block_length == block, f"block length {trace.block_length} != {block}")
        out.require(len(colors) == trace.final_length == trace.rounds_used * block,
                    "length is not rounds_used x block_length")
        ranks, _, _ = ref.rainbow_ranks(np.array(colors, dtype=np.int16), n, k)
        out.require(len(ranks) == comb(n, k),
                    f"cover realizes {len(ranks)} of {comb(n, k)} subsets")
        out.digest = digest_of(text)
        out.counters = {"rounds_used": trace.rounds_used, "cover_length": trace.final_length,
                        "progressions": ref.progression_count(len(colors), k)}
        return out

    return Job(f"construct({n},{k})", "construct", seed, lambda: None, run, check)


def construct_certify(rc: SimpleNamespace, seed: int, pinned: dict) -> list[Job]:
    s = job_seeds(seed, 2)
    return [construct_job(rc, 40, 3, s[0]), construct_job(rc, 20, 4, s[1])]


# verify-sparse -------------------------------------------------------------

def verify_job(rc: SimpleNamespace, n: int, k: int, N: int, witnesses: bool,
               seed: int) -> Job:
    def prepare():
        colors = np.random.default_rng(seed).integers(1, n + 1, size=N)
        rows = [" ".join(map(str, colors[i:i + 20].tolist())) for i in range(0, N, 20)]
        return colors, f"# uniform n={n} N={N} seed={seed}\n" + "\n".join(rows) + "\n"

    def run(inputs):
        values = rc.coverage.parse_coloring_text(inputs[1])
        coloring = rc.coverage.Coloring(tuple(values), n)
        return values, rc.coverage.verify_cover(coloring, n, k, record_witnesses=witnesses)

    def check(inputs, output) -> Outcome:
        colors = inputs[0]
        values, result = output
        report = result.report
        out = Outcome()
        total = comb(n, k)
        out.require(values == colors.tolist(), "parsed values differ from the text")
        covered, first_start, first_diff = ref.rainbow_ranks(colors, n, k)
        out.require(report.covered_count == len(covered),
                    f"covered_count {report.covered_count} != {len(covered)}")
        out.require(report.covered_count + len(result.uncovered) == total,
                    "covered + uncovered != C(n,k)")
        ranks = np.array([cs.rank for cs in result.uncovered], dtype=np.int64)
        out.require(bool(np.all(np.diff(ranks) > 0)), "uncovered not increasing in colex rank")
        out.require(np.array_equal(ref.mask_ranks([cs.mask for cs in result.uncovered], n, k),
                                   ranks), "an uncovered mask does not match its rank")
        out.require(np.array_equal(ranks, np.setdiff1d(np.arange(total), covered)),
                    "uncovered list is not the complement of the covered family")
        out.require(result.complete == (len(covered) == total), "complete flag wrong")
        recorded = []
        if witnesses:
            found = report.witnesses or {}
            recorded = [[rank, prog.start, prog.diff] for rank, prog in sorted(found.items())]
            w = np.array(recorded, dtype=np.int64).reshape(-1, 3)
            out.require(np.array_equal(w[:, 0], covered), "witness keys != covered family")
            out.require(all(prog.length == k for prog in found.values()),
                        "a witness has the wrong length")
            inside = bool(np.all((w[:, 1] >= 1) & (w[:, 2] >= 1)
                                 & (w[:, 1] + (k - 1) * w[:, 2] <= N)))
            out.require(inside, "a witness leaves [N]")
            if inside:
                pos = (w[:, 1] - 1)[:, None] + w[:, 2][:, None] * np.arange(k)
                seen = np.sort(colors[pos], axis=1)
                out.require(bool((np.diff(seen, axis=1) > 0).all()), "a witness is not rainbow")
                out.require(np.array_equal(ref.colex_ranks(seen, n), w[:, 0]),
                            "a witness carries another colour set")
                out.require(np.array_equal(w[:, 1], first_start)
                            and np.array_equal(w[:, 2], first_diff),
                            "a witness is not the first progression in enumeration order")
        out.digest = digest_of([report.covered_count, ranks.tolist(), recorded])
        out.counters = {"progressions": ref.progression_count(N, k)}
        return out

    return Job(f"verify({n},{k},{N})", "verify", seed, prepare, run, check)


def verify_sparse(rc: SimpleNamespace, seed: int, pinned: dict) -> list[Job]:
    s = job_seeds(seed, 3)
    return [verify_job(rc, 100, 3, 400, False, s[0]),
            verify_job(rc, 40, 4, 300, True, s[1]),
            verify_job(rc, 30, 5, 200, False, s[2])]


# bounds-exact --------------------------------------------------------------

def bounds_job(rc: SimpleNamespace, n: int, k: int, pinned_hi: Optional[list[int]]) -> Job:
    def run(_):
        return rc.bounds.compute_bounds_report(n, k, N=None, alpha=2.0,
                                               pairs_mode="exact-pairs")

    def check(_, report) -> Outcome:
        out = Outcome()
        N = ref.block_length(n, k)
        h = ref.progression_count(N, k)
        out.require(report.N == N and report.h == h, "N or h wrong")
        h_i = list(report.h_i)
        out.require(len(h_i) == k and sum(h_i) == comb(h, 2), "h_i does not sum to C(h,2)")
        out.require(pinned_hi is None or h_i == pinned_hi, f"h_i {h_i} != pinned {pinned_hi}")
        L = Fraction(h * factorial(k), n**k) - sum(
            (Fraction(c * factorial(k) * factorial(k - i), n ** (2 * k - i))
             for i, c in enumerate(h_i)), Fraction(0))
        out.require(report.L == L, "L differs from its recomputation")
        lo = report.N_lower
        out.require(ref.progression_count(lo, k) >= comb(n, k) > ref.progression_count(lo - 1, k),
                    "N_lower is not the least N with h >= C(n,k)")
        out.digest = digest_of([N, h, h_i, report.L.numerator, report.L.denominator, lo,
                                report.construction_length])
        out.counters = {"pair_checks": h * (h - 1) // 2}
        return out

    return Job(f"bounds({n},{k})", "bounds", None, lambda: None, run, check)


def estimate_job(rc: SimpleNamespace, n: int, k: int, seed: int) -> Job:
    N = ref.block_length(n, k)

    def run(_):
        return rc.bounds.estimate_cover_probability(n, k, N, ESTIMATE_TRIALS, seed, "philox")

    def check(_, result) -> Outcome:
        out = Outcome()
        rng = np.random.Generator(np.random.Philox(seed))
        positions = ref.progression_positions(N, k)
        hits = 0
        for lo in range(0, ESTIMATE_TRIALS, ESTIMATOR_CHUNK):
            size = min(ESTIMATOR_CHUNK, ESTIMATE_TRIALS - lo)
            draws = rng.integers(1, n + 1, size=(size, N), dtype=np.int16)
            hits += ref.covers_subset_hits(draws, positions, k)
        p = hits / ESTIMATE_TRIALS
        out.require(result.trials == ESTIMATE_TRIALS, "trial count wrong")
        out.require(result.p_hat == p, f"p_hat {result.p_hat} != replayed {p}")
        out.require(abs(result.std_err - (p * (1 - p) / ESTIMATE_TRIALS) ** 0.5) < 1e-12,
                    "std_err wrong")
        out.digest = digest_of([result.p_hat, result.std_err])
        h = len(positions)
        out.counters = {"trials": ESTIMATE_TRIALS,
                        "gather_bytes": min(ESTIMATOR_CHUNK, ESTIMATE_TRIALS) * h * k * 2}
        return out

    return Job(f"estimate({n},{k})", "estimate", seed, lambda: None, run, check)


def exact_job(rc: SimpleNamespace, n: int, k: int) -> Job:
    def run(_):
        return rc.exact.ac_exact(n, k, rc.exact.SearchConfig())

    def check(_, result) -> Outcome:
        out = Outcome()
        witness = list(result.witness.colors)
        out.require(result.value == KNOWN_AC[(n, k)], f"ac = {result.value}")
        out.require(len(witness) == result.value and all(1 <= c <= n for c in witness),
                    "witness has the wrong length or colours")
        ranks, _, _ = ref.rainbow_ranks(np.array(witness, dtype=np.int16), n, k)
        out.require(len(ranks) == comb(n, k), "witness is not a cover")
        out.require(result.refuted_up_to == result.value - 1, "refuted_up_to wrong")
        out.digest = digest_of([result.value, witness])
        out.counters = {"nodes": result.nodes_explored,
                        "progressions": ref.progression_count(len(witness), k)}
        return out

    return Job(f"exact({n},{k})", "exact", None, lambda: None, run, check)


def bounds_exact(rc: SimpleNamespace, seed: int, pinned: dict) -> list[Job]:
    pinned_hi = pinned.get("h_i", {})
    s = job_seeds(seed, 2)
    return [bounds_job(rc, 25, 3, pinned_hi.get("bounds(25,3)")),
            bounds_job(rc, 14, 4, pinned_hi.get("bounds(14,4)")),
            estimate_job(rc, 20, 3, s[0]),
            estimate_job(rc, 14, 4, s[1]),
            exact_job(rc, 6, 3),
            exact_job(rc, 6, 4)]


WORKLOADS = {
    "construct-certify": construct_certify,
    "verify-sparse": verify_sparse,
    "bounds-exact": bounds_exact,
}
