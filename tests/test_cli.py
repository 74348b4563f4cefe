import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import time
import tracemalloc
import warnings
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources
from math import comb
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from rainbowcover import cli
from rainbowcover.combinatorics import ColorSetView

GOLDEN_TEXT = "4 6 5 1 3 4 2 5 6 3 1 4\n"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    return code, json.loads(out), err


def validate(record, name):
    schema_text = resources.files("rainbowcover").joinpath(
        f"schemas/{name}.schema.json").read_text()
    jsonschema.validate(record, json.loads(schema_text))


def cli_env():
    """The environment of a `python -m rainbowcover.cli` subprocess: the package
    importable, and one BLAS thread to keep the base reservation small."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


def run_capped(args, limit, stdout=subprocess.PIPE):
    """Run `python *args` in cli_env() with the address space capped at `limit` bytes."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    return subprocess.run([sys.executable, *args], stdout=stdout, stderr=subprocess.PIPE,
                          text=True, env=cli_env(), timeout=120, preexec_fn=cap)


@pytest.fixture
def golden_file(tmp_path):
    path = tmp_path / "golden.txt"
    path.write_text(GOLDEN_TEXT)
    return str(path)


# a length-60 colouring over 70 colours that leaves 54,461 of the C(70,3)
# subsets uncovered, about 2 MB of output in either format
WIDE_COLORS = [(7 * i * i + 3 * i) % 70 + 1 for i in range(60)]


@pytest.fixture
def wide_file(tmp_path):
    path = tmp_path / "wide.txt"
    path.write_text(" ".join(map(str, WIDE_COLORS)) + "\n")
    return str(path)


class TestVerify:
    def test_complete_exit_zero(self, capsys, golden_file):
        code, record, _ = run_json(capsys, "verify", "--input", golden_file,
                                   "--n", "6", "--k", "3")
        assert code == 0
        validate(record, "verify")
        assert record["complete"] is True
        assert record["covered_count"] == record["total"] == 20
        assert record["N"] == 12

    def test_witnesses_included(self, capsys, golden_file):
        code, record, _ = run_json(capsys, "verify", "--input", golden_file,
                                   "--n", "6", "--k", "3", "--witnesses")
        assert code == 0
        validate(record, "verify")
        assert len(record["witnesses"]) == 20
        assert record["witnesses"]["2,5,6"] == {"start": 7, "diff": 1, "length": 3}

    @pytest.mark.parametrize("fmt, recorded", [("--text", False), ("--json", True)])
    def test_witnesses_recorded_only_for_json(self, capsys, monkeypatch, golden_file,
                                              fmt, recorded):
        # text prints no witnesses, so it must not pay for recording them
        calls = []
        verify = cli.verify_cover
        monkeypatch.setattr(cli, "verify_cover", lambda *args, **kwargs: calls.append(
            kwargs["record_witnesses"]) or verify(*args, **kwargs))
        code, _, _ = run_cli(capsys, "verify", "--input", golden_file, "--n", "6", "--k", "3",
                             "--witnesses", fmt)
        assert code == 0 and calls == [recorded]

    def test_witnesses_across_blocks_match_oracle(self, capsys, tmp_path):
        # the 22350 progressions of [300] fill two blocks
        colors = [(7 * i * i + 5 * i) % 40 + 1 for i in range(300)]
        path = tmp_path / "wide.txt"
        path.write_text(" ".join(map(str, colors)) + "\n")
        code, out, _ = run_cli(capsys, "verify", "--input", str(path), "--n", "40", "--k", "3",
                               "--witnesses", "--json")
        first = sorted((oracles.subset_rank(s), sorted(s), w)
                       for s, w in oracles.first_witnesses(tuple(colors), 3).items())
        covered = {rank for rank, _, _ in first}
        record = {
            "command": "verify",
            "params": {"input": str(path), "n": 40, "k": 3, "witnesses": True},
            "n": 40, "k": 3, "N": 300, "complete": False,
            "covered_count": len(first), "total": comb(40, 3),
            "uncovered": [list(oracles.subset_unrank(r, 3)) for r in range(comb(40, 3))
                          if r not in covered],
            "witnesses": {",".join(map(str, c)): {"start": s, "diff": d, "length": 3}
                          for _, c, (s, d) in first},
        }
        assert 0 < len(first) < comb(40, 3)
        assert code == 1 and out == json.dumps(record, indent=2) + "\n"

    def test_incomplete_exit_one(self, capsys, tmp_path):
        path = tmp_path / "partial.txt"
        path.write_text("1 2 3 4\n")
        code, record, _ = run_json(capsys, "verify", "--input", str(path),
                                   "--n", "4", "--k", "3")
        assert code == 1
        validate(record, "verify")
        assert record["uncovered"] == [[1, 2, 4], [1, 3, 4]]

    def test_colour_out_of_range_exit_two(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 7 2\n")
        code, out, err = run_cli(capsys, "verify", "--input", str(path),
                                 "--n", "6", "--k", "3")
        assert code == 2
        assert "colour 7" in err

    def test_empty_file_exit_two(self, capsys, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        code, _, err = run_cli(capsys, "verify", "--input", str(path),
                               "--n", "6", "--k", "3")
        assert code == 2

    def test_malformed_token_diagnostics(self, capsys, tmp_path):
        path = tmp_path / "mal.txt"
        path.write_text("1 2\n3 oops\n")
        code, _, err = run_cli(capsys, "verify", "--input", str(path),
                               "--n", "6", "--k", "3")
        assert code == 2
        assert "line 2" in err and "column 3" in err

    @pytest.mark.parametrize("text, code", [(GOLDEN_TEXT, 0), ("1 2 3 4\n", 1), ("1 x\n", 2)])
    def test_byte_order_mark_ignored(self, capsys, tmp_path, text, code):
        path = tmp_path / "colouring.txt"
        argv = ("verify", "--input", str(path), "--n", "6", "--k", "3", "--witnesses")
        path.write_text(text, encoding="utf-8")
        plain = run_cli(capsys, *argv)
        path.write_text(text, encoding="utf-8-sig")
        assert path.read_bytes().startswith(b"\xef\xbb\xbf")
        assert run_cli(capsys, *argv) == plain and plain[0] == code

    def test_missing_file_exit_two(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--input", "/nonexistent/f.txt",
                               "--n", "6", "--k", "3")
        assert code == 2

    def test_uncovered_view_under_a_memory_cap(self):
        # C(30,12) = 86.5M subsets, almost all uncovered: the view reads the
        # one-byte family, where an int64 rank per subset needs 660 MiB
        code = "\n".join([
            "import numpy as np",
            "from rainbowcover.coverage import Coloring, verify_cover",
            "colors = np.random.default_rng(0).integers(1, 31, size=600).tolist()",
            "from rainbowcover.combinatorics import ColorSet",
            "result = verify_cover(Coloring(tuple(colors), 30), 30, 12)",
            "uncovered, f = result.uncovered, result.report.covered",
            "last = ColorSet.from_rank(len(f) - 1 - int(np.argmin(f[::-1])), 30, 12)",
            "print(len(uncovered), next(iter(uncovered)).colors, last.colors)"])
        proc = run_capped(["-c", code], 640 << 20)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == f"86491912 {tuple(range(1, 13))} {tuple(range(19, 31))}\n"

    @pytest.mark.parametrize("fmt", ["--text", "--json"])
    def test_text_under_a_memory_cap(self, tmp_path, fmt):
        # 646,646 uncovered subsets of size 10: the lines or the JSON array are
        # unranked a chunk at a time, where a list of all their colours needs
        # over 150 MB
        path = tmp_path / "uniform.txt"
        colors = np.random.default_rng(0).integers(1, 23, size=300).tolist()
        path.write_text(" ".join(map(str, colors)) + "\n")
        proc = run_capped(["-m", "rainbowcover.cli", "verify", "--input", str(path),
                           "--n", "22", "--k", "10", fmt], 192 << 20,
                          stdout=subprocess.DEVNULL)
        assert (proc.returncode, proc.stderr) == (1, "")

    def test_json_streams_uncovered_across_blocks(self, capsys, wide_file):
        # the uncovered subsets span four view chunks and several batches of
        # encoder chunks; the stream must equal json.dumps of plain lists
        code, out, _ = run_cli(capsys, "verify", "--input", wide_file, "--n", "70", "--k", "3",
                               "--json")
        covered = {oracles.subset_rank(s)
                   for s in oracles.first_witnesses(tuple(WIDE_COLORS), 3)}
        uncovered = [list(oracles.subset_unrank(r, 3)) for r in range(comb(70, 3))
                     if r not in covered]
        record = {
            "command": "verify",
            "params": {"input": wide_file, "n": 70, "k": 3, "witnesses": False},
            "n": 70, "k": 3, "N": 60, "complete": False,
            "covered_count": len(covered), "total": comb(70, 3), "uncovered": uncovered,
        }
        assert len(uncovered) == 54461
        assert code == 1 and out == json.dumps(record, indent=2) + "\n"

    @pytest.mark.parametrize("fmt", ["--text", "--json"])
    def test_closed_stdout_exit_two(self, wide_file, fmt):
        # the reader stops after a few bytes of the output
        proc = subprocess.Popen(
            [sys.executable, "-m", "rainbowcover.cli", "verify", "--input", wide_file,
             "--n", "70", "--k", "3", fmt], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, env=cli_env())
        assert proc.stdout.read(100)
        proc.stdout.close()
        code, err = proc.wait(timeout=60), proc.stderr.read()
        proc.stderr.close()
        assert code == 2 and err.startswith("error: ")
        assert "Traceback" not in err and "Exception ignored" not in err


class TestConstruct:
    def test_round_trip_with_verify(self, capsys, tmp_path):
        out_path = tmp_path / "cover.txt"
        trace_path = tmp_path / "trace.jsonl"
        code, record, _ = run_json(capsys, "construct", "--n", "8", "--k", "3",
                                   "--seed", "42", "--output", str(out_path),
                                   "--trace", str(trace_path))
        assert code == 0
        validate(record, "construct")
        assert record["certified"] is True
        assert record["final_length"] == record["rounds_used"] * record["block_length"]

        # header comment records the reproducibility inputs
        text = out_path.read_text()
        assert text.startswith("#") and "seed=42" in text and "rng=philox" in text

        # trace is one JSON record per round
        lines = [json.loads(line) for line in trace_path.read_text().splitlines()]
        assert len(lines) == record["rounds_used"]
        assert lines == record["trace"]

        code2, record2, _ = run_json(capsys, "verify", "--input", str(out_path),
                                     "--n", "8", "--k", "3")
        assert code2 == 0 and record2["complete"] is True

    def test_identical_invocations_identical_json(self, capsys):
        args = ("construct", "--n", "6", "--k", "3", "--seed", "9")
        _, out_a, _ = run_cli(capsys, *args)
        _, out_b, _ = run_cli(capsys, *args)
        assert out_a == out_b

    def test_alpha_below_threshold_exit_two(self, capsys):
        code, _, err = run_cli(capsys, "construct", "--n", "6", "--k", "3",
                               "--seed", "1", "--alpha", "1.0")
        assert code == 2
        assert "alpha" in err

    @pytest.mark.parametrize("force", [(), ("--force",)])
    @pytest.mark.parametrize("alpha", ["nan", "inf"])
    def test_non_finite_alpha_exit_two(self, capsys, alpha, force):
        code, out, err = run_cli(capsys, "construct", "--n", "6", "--k", "3",
                                 "--seed", "1", "--alpha", alpha, *force)
        assert code == 2 and out == ""
        assert "alpha must be a finite number" in err

    @pytest.mark.filterwarnings("ignore:alpha = 1.0")
    def test_alpha_forced(self, capsys):
        code, record, _ = run_json(capsys, "construct", "--n", "3", "--k", "3",
                                   "--seed", "1", "--alpha", "1.0", "--force")
        assert code == 0 and record["certified"] is True

    def test_seed_generated_when_missing(self, capsys):
        code, record, err = run_json(capsys, "construct", "--n", "3", "--k", "3")
        assert code == 0
        assert "generated seed" in err
        assert isinstance(record["params"]["seed"], int)

    def test_rounds_exhausted_exit_three(self, capsys):
        code, out, err = run_cli(capsys, "construct", "--n", "8", "--k", "3",
                                 "--seed", "1", "--samples", "1", "--max-rounds", "1")
        assert code == 3
        assert "uncovered" in err
        record = json.loads(out)
        assert record["error"] == "rounds-exhausted"
        assert record["residual"]

    def test_zero_max_rounds_exit_two(self, capsys):
        code, out, err = run_cli(capsys, "construct", "--n", "6", "--k", "3",
                                 "--seed", "1", "--max-rounds", "0")
        assert (code, out) == (2, "")
        assert "max_rounds must be >= 1, got 0" in err

    def test_rounds_exhausted_text_renders_no_residual(self, capsys, monkeypatch):
        calls = []
        render = ColorSetView.iter_colors
        monkeypatch.setattr(ColorSetView, "iter_colors",
                            lambda view: calls.append(len(view)) or render(view))
        code, out, _ = run_cli(capsys, "construct", "--n", "200", "--k", "3", "--seed", "5",
                               "--samples", "1", "--max-rounds", "1", "--text")
        assert code == 3 and out == "" and calls == []

    def test_residual_under_a_memory_cap(self):
        # 539,620 residual subsets: the JSON array is unranked as it is written
        proc = run_capped(["-m", "rainbowcover.cli", "construct", "--n", "200", "--k", "3",
                           "--seed", "5", "--samples", "1", "--max-rounds", "1", "--json"],
                          192 << 20, stdout=subprocess.DEVNULL)
        assert (proc.returncode, proc.stderr) == (3, "error: 539620 of 1313400 subsets still "
                                                     "uncovered after 1 rounds (limit 1)\n")


class TestCount:
    def test_count_and_pairs(self, capsys):
        code, record, _ = run_json(capsys, "count", "--N", "12", "--k", "3", "--pairs")
        assert code == 0
        validate(record, "count")
        assert record["count"] == 30
        assert record["pair_counts"] == [167, 226, 42]

    def test_invalid_k_exit_two(self, capsys):
        code, _, err = run_cli(capsys, "count", "--N", "12", "--k", "1")
        assert code == 2

    def test_pair_budget_exit_three(self, capsys):
        # h = 2.5e11 progressions: the fixed pair-tally guard refuses at once
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "count", "--N", "1000000", "--k", "3", "--pairs")
        assert time.perf_counter() - start < 1.0
        assert code == 3 and out == ""
        assert "gathered entries" in err


class TestBounds:
    def test_report_with_estimate(self, capsys):
        code, record, _ = run_json(capsys, "bounds", "--n", "10", "--k", "3",
                                   "--trials", "2000", "--seed", "5")
        assert code == 0
        validate(record, "bounds")
        assert record["N"] == 26
        assert record["N_lower"] == 23
        assert record["construction_length"] == 364
        assert record["estimate"]["trials"] == 2000

    def test_default_N_is_block_length(self, capsys):
        code, record, _ = run_json(capsys, "bounds", "--n", "20", "--k", "2")
        assert code == 0
        validate(record, "bounds")
        assert record["N"] == 20 and record["N_lower"] == 20

    def test_bounded_pairs_mode(self, capsys):
        code, record, _ = run_json(capsys, "bounds", "--n", "8", "--k", "3",
                                   "--pairs", "bounded")
        assert code == 0
        validate(record, "bounds")
        assert record["pairs_mode"] == "bounded-pairs"

    def test_k_above_n_exit_two(self, capsys):
        code, _, err = run_cli(capsys, "bounds", "--n", "5", "--k", "6")
        assert code == 2

    @pytest.mark.parametrize("n, k", [(60, 3), (40, 4)])
    def test_exact_pairs_at_block_length(self, capsys, n, k):
        # h^2 passed the old pair-scan budget of 10^8 here, so both exited 3
        code, record, _ = run_json(capsys, "bounds", "--n", str(n), "--k", str(k))
        assert code == 0
        validate(record, "bounds")
        assert sum(record["h_i"]) == comb(record["h"], 2)


    @pytest.mark.parametrize("flag", [("--seed", "5"), ("--rng", "pcg64")])
    def test_estimate_flag_without_trials_exit_two(self, capsys, flag):
        # neither flag reaches the record unless --trials asks for an estimate
        code, out, err = run_cli(capsys, "bounds", "--n", "6", "--k", "3", *flag)
        assert (code, out) == (2, "")
        assert "--trials" in err

    def test_default_rng_without_trials(self, capsys):
        # --rng philox is the default, so it cannot be told from no flag
        code, record, _ = run_json(capsys, "bounds", "--n", "6", "--k", "3", "--rng", "philox")
        assert code == 0 and "estimate" not in record

    @pytest.mark.parametrize("force", [(), ("--force",)])
    @pytest.mark.parametrize("alpha", ["nan", "inf"])
    def test_non_finite_alpha_exit_two(self, capsys, alpha, force):
        code, out, err = run_cli(capsys, "bounds", "--n", "6", "--k", "3",
                                 "--alpha", alpha, *force)
        assert code == 2 and out == ""
        assert "alpha must be a finite number" in err


class TestEstimate:
    def test_estimate_schema_and_determinism(self, capsys):
        args = ("estimate", "--n", "6", "--k", "2", "--N", "6",
                "--trials", "5000", "--seed", "3")
        code, record, _ = run_json(capsys, *args)
        assert code == 0
        validate(record, "estimate")
        code2, record2, _ = run_json(capsys, *args)
        assert record == record2

    def test_large_palette(self, capsys):
        # C(30000, 10) overflows int64: the estimator must not build colex_table(n, k)
        code, record, err = run_json(capsys, "estimate", "--n", "30000", "--k", "10",
                                     "--N", "30", "--trials", "5", "--seed", "1")
        assert code == 0 and err == ""
        validate(record, "estimate")

    def test_chunk_over_draw_limit_exit_three(self):
        # a (4096, 10^6) int16 chunk is 7.6 GiB: refused before the draw, so
        # the run stays inside a 3 GiB address space
        proc = run_capped(["-m", "rainbowcover.cli", "estimate", "--n", "3", "--k", "3",
                           "--N", "1000000", "--trials", "5000", "--seed", "1"], 3 << 30)
        assert (proc.returncode, proc.stdout) == (3, "")
        assert "limit" in proc.stderr and "Traceback" not in proc.stderr

    def test_seed_generated_when_missing(self, capsys):
        code, record, err = run_json(capsys, "estimate", "--n", "6", "--k", "2",
                                     "--N", "6", "--trials", "100")
        assert code == 0 and "generated seed" in err


class TestExact:
    def test_known_value(self, capsys, tmp_path):
        out_path = tmp_path / "witness.txt"
        code, record, _ = run_json(capsys, "exact", "--n", "4", "--k", "3",
                                   "--output", str(out_path))
        assert code == 0
        validate(record, "exact")
        assert record["ac"] == 6
        assert record["method"] == "pruned-dfs"
        code2, record2, _ = run_json(capsys, "verify", "--input", str(out_path),
                                     "--n", "4", "--k", "3")
        assert code2 == 0 and record2["complete"] is True

    def test_budget_exit_three(self, capsys):
        code, out, err = run_cli(capsys, "exact", "--n", "5", "--k", "3",
                                 "--budget", "100")
        assert code == 3
        record = json.loads(out)
        assert record["error"] == "budget-exceeded"


    def test_budget_used_up_exactly_exit_three(self, capsys):
        # deciding N = 5 takes exactly 3 nodes, so none are left for N = 6
        code, out, err = run_cli(capsys, "exact", "--n", "4", "--k", "3",
                                 "--budget", "3")
        assert code == 3
        record = json.loads(out)
        assert record["error"] == "budget-exceeded"
        assert record["refuted_up_to"] == 5
        assert "must be >= 1" not in err

    def test_trace_one_line_per_length(self, capsys, tmp_path):
        # N = 11 is refuted at the root, in no nodes; stdout is the same
        # with or without the trace
        path = tmp_path / "trace.jsonl"
        argv = ("exact", "--n", "6", "--k", "4")
        code, out, _ = run_cli(capsys, *argv, "--trace", str(path))
        assert (code, out) == run_cli(capsys, *argv)[:2]
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert [(r["N"], r["outcome"], r["nodes"]) for r in lines] == [
            (11, "refuted", 0), (12, "refuted", 294), (13, "refuted", 11334),
            (14, "found", 6912)]
        assert sum(r["nodes"] for r in lines) == json.loads(out)["nodes_explored"]
        assert all(r["seconds"] >= 0 for r in lines)

    def test_trace_after_budget_failure(self, capsys, tmp_path):
        # the last line is the length the budget ran out on
        path = tmp_path / "trace.jsonl"
        code, out, _ = run_cli(capsys, "exact", "--n", "5", "--k", "3", "--budget", "100",
                               "--trace", str(path))
        record = json.loads(out)
        assert code == 3 and record["refuted_up_to"] == 8
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert [(r["N"], r["outcome"], r["nodes"]) for r in lines] == [
            (8, "refuted", 56), (9, "undecided", 45)]
        assert sum(r["nodes"] for r in lines) == record["nodes_explored"]

    def test_zero_max_N_exit_two(self, capsys):
        code, out, err = run_cli(capsys, "exact", "--n", "4", "--k", "3", "--max-N", "0")
        assert (code, out) == (2, "")
        assert "max_N must be >= 1, got 0" in err

    def test_depth_limit_exit_three(self, capsys):
        # the search recurses once per position, so N = 1100 is past the default
        # recursion limit of 1000: refused before searching, as a budget error
        code, out, err = run_cli(capsys, "exact", "--n", "1100", "--k", "1100")
        assert code == 3
        record = json.loads(out)
        assert record["error"] == "budget-exceeded"
        assert record["refuted_up_to"] == 1099 and record["nodes_explored"] == 0
        assert "recursion limit" in err and "node budget" not in err
        assert "Traceback" not in err

    def test_large_palette_keeps_no_mask_table(self, capsys):
        # the prefix classes number only the masks reached: nothing is 2^n long
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, "exact", "--n", "40", "--k", "3",
                                     "--budget", "1000")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3 and json.loads(out)["error"] == "budget-exceeded"
        assert "Traceback" not in err
        assert peak < 8 * 2**20

    def test_long_progression_keeps_no_subset_table(self, capsys):
        # one 26-progression in [26]: its cover must not make 2^26 subset classes
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, "exact", "--n", "26", "--k", "26",
                                     "--budget", "1000")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and json.loads(out)["ac"] == 26
        assert peak < 8 * 2**20


class TestCommonFlags:
    @pytest.mark.parametrize("argv, option, field", [
        (("construct", "--seed", "1", "--max-rounds", "0"), "--max-rounds", "max_rounds"),
        (("construct", "--seed", "1", "--samples", "0"), "--samples", "samples_per_round"),
        (("exact", "--max-N", "0"), "--max-N", "max_N"),
        (("exact", "--budget", "0"), "--budget", "node_budget"),
        (("estimate", "--seed", "1", "--trials", "0"), "--trials", "trials"),
    ])
    def test_count_error_names_the_option(self, capsys, argv, option, field):
        code, out, err = run_cli(capsys, *argv, "--n", "4", "--k", "3")
        assert (code, out) == (2, "")
        assert err == f"error: {option}: {field} must be >= 1, got 0\n"

    def test_threads_rejected(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["count", "--N", "5", "--k", "2", "--threads", "2"])
        assert info.value.code == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("argv", [
        ("construct", "--n", "3", "--k", "3"),
        ("estimate", "--n", "3", "--k", "3"),
        ("bounds", "--n", "3", "--k", "3", "--trials", "5"),
        ("estimate", "--n", "2", "--k", "2", "--N", "1"),  # no progression fits
    ])
    def test_negative_seed_exit_two(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, "--seed", "-1")
        assert code == 2 and out == ""
        assert "seed" in err

    @pytest.mark.parametrize("argv", [
        ("construct", "--n", "3", "--k", "3", "--seed", "1"),
        ("bounds", "--n", "5", "--k", "3"),
    ])
    def test_overflowing_alpha_exit_two(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, "--alpha", "1e308")
        assert code == 2 and out == ""
        assert "overflows" in err

    @pytest.mark.parametrize("argv,flag", [
        # the pair tallies have a fixed size guard, not a --budget flag
        (("count", "--N", "12", "--k", "3", "--pairs"), ["--budget", "10"]),
        (("bounds", "--n", "3", "--k", "2"), ["--budget", "10"]),
        # the exhaustive reference search lives in the tests, not behind a flag
        (("exact", "--n", "4", "--k", "3"), ["--oracle"]),
    ], ids=["count-budget", "bounds-budget", "exact-oracle"])
    def test_removed_flag_rejected(self, capsys, argv, flag):
        with pytest.raises(SystemExit) as info:
            cli.main([*argv, *flag])
        assert info.value.code == 2
        assert capsys.readouterr().out == ""

    def test_text_mode(self, capsys, golden_file):
        code, out, _ = run_cli(capsys, "verify", "--input", golden_file,
                               "--n", "6", "--k", "3", "--text")
        assert code == 0
        assert "complete" in out and "{" not in out

    @pytest.mark.parametrize("argv", [
        ("construct", "--n", "3", "--k", "3", "--seed", "1", "--output", "missing/cover.txt"),
        ("construct", "--n", "3", "--k", "3", "--seed", "1", "--trace", "missing/trace.jsonl"),
        ("exact", "--n", "3", "--k", "2", "--output", "missing/witness.txt"),
        ("exact", "--n", "3", "--k", "2", "--trace", "missing/trace.jsonl"),
        ("exact", "--n", "5", "--k", "3", "--budget", "10", "--trace", "missing/trace.jsonl"),
    ])
    def test_unwritable_output_exit_two(self, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert "missing" in err

    @pytest.mark.parametrize("existing", [None, "old colouring\n"])
    def test_failed_output_writes_nothing(self, capsys, tmp_path, monkeypatch, existing):
        # the trace cannot be opened, so the colouring file is neither left
        # behind nor overwritten
        monkeypatch.chdir(tmp_path)
        if existing is not None:
            (tmp_path / "cover.txt").write_text(existing)
        code, out, err = run_cli(capsys, "construct", "--n", "4", "--k", "3", "--seed", "1",
                                 "--output", "cover.txt", "--trace", "missing/t.jsonl")
        assert code == 2 and out == ""
        assert "missing" in err
        if existing is None:
            assert not (tmp_path / "cover.txt").exists()
        else:
            assert (tmp_path / "cover.txt").read_text() == existing

    @pytest.mark.parametrize("existing", [None, "old colouring\n"])
    def test_output_and_trace_one_file_exit_two(self, capsys, tmp_path, monkeypatch, existing):
        # two spellings of one path: writing both would leave only the trace
        monkeypatch.chdir(tmp_path)
        if existing is not None:
            (tmp_path / "cover.txt").write_text(existing)
        code, out, err = run_cli(capsys, "construct", "--n", "4", "--k", "3", "--seed", "1",
                                 "--output", "cover.txt", "--trace", "./cover.txt")
        assert code == 2 and out == ""
        assert "one file" in err
        assert [p.name for p in tmp_path.iterdir()] == ([] if existing is None else ["cover.txt"])
        if existing is not None:
            assert (tmp_path / "cover.txt").read_text() == existing

    def test_output_and_trace_hard_linked_exit_two(self, capsys, tmp_path, monkeypatch):
        # a hard link has its own path, so only the files themselves tell
        monkeypatch.chdir(tmp_path)
        (tmp_path / "a").write_text("old colouring\n")
        os.link(tmp_path / "a", tmp_path / "b")
        code, out, err = run_cli(capsys, "construct", "--n", "4", "--k", "3", "--seed", "1",
                                 "--output", "a", "--trace", "b")
        assert code == 2 and out == ""
        assert "one file" in err
        assert (tmp_path / "a").read_text() == "old colouring\n"

    def test_undecodable_input_exit_two(self, capsys, tmp_path):
        path = tmp_path / "undecodable.txt"
        path.write_bytes(b"\xff\xfe")
        code, out, err = run_cli(capsys, "verify", "--input", str(path),
                                 "--n", "6", "--k", "3")
        assert code == 2 and out == ""
        assert "decode" in err

    @pytest.mark.parametrize("command", ["estimate", "bounds"])
    def test_palette_beyond_int16_exit_two(self, capsys, command):
        code, out, err = run_cli(capsys, command, "--n", "40000", "--k", "2", "--N", "5",
                                 "--trials", "1", "--seed", "1")
        assert code == 2 and out == ""
        assert "32767" in err


# argv -> (exit code, sha256 of stdout with --json, with --text, sha256 of
# each file written), pinned from the CLI before it was rewritten around one
# print path; exact's JSON has since dropped its "symmetry_breaking" and
# "oracle" params, and count's and bounds' JSON their pair-scan "budget" param.
# The prefix-class prune changed only "nodes_explored" in two exact records
# (41 -> 26, 16 -> 14). The colour-occurrence cut changed "nodes_explored"
# in the same two (26 -> 15, 14 -> 3), and "refuted_up_to" of the budget-100
# record (7 -> 8), since that budget now refutes N = 8.
GOLDEN = {
    "verify --input golden.txt --n 6 --k 3":
        (0, "fbd57d66869554a2956d69acf7537d829115dee9329895276009eaf027525ed2",
         "3300a0997f878437734f8f3b3ada8cbf86471b318cf747ad7370512ebfc6a6b4", {}),
    "verify --input golden.txt --n 6 --k 3 --witnesses":
        (0, "d3573b318a21daeddf3b118d35dee517f6f19b24287383921e51b7ebc6e3ba4f",
         "3300a0997f878437734f8f3b3ada8cbf86471b318cf747ad7370512ebfc6a6b4", {}),
    "verify --input partial.txt --n 4 --k 3":
        (1, "c6dec3007453c536545341fe617b165d9dd2f7653d0cbcf515373651e8cc6e64",
         "8149fde37714b5fdac37244181d2a16aa6328f5342dba78d094ed6e150c628d0", {}),
    "construct --n 8 --k 3 --seed 42 --output cover.txt --trace trace.jsonl":
        (0, "787d1adcfd3cf4435bea4b87f5de1565543629c14a198cc89f271ccdf52dee1e",
         "2d75f809b2b4a284d0133f45e09a431e16486892e7de57672f4fbdea0ff50a87",
         {"cover.txt": "62205edd7ab8b11d907c50753deb37d07ea73dcf566feb7ee5cf2cc815ca8933",
          "trace.jsonl": "4d706d57263c9d180789edb6570439269e1073cf930930c7fe54f3b44a477f11"}),
    "construct --n 6 --k 3 --seed 9":
        (0, "926047ed305a217626b7b4f15842cb8899345f9be86e76bd455cc3d8f1bef816",
         "a868398db67db87aa10e6d81a02fdc075a4b3dc5db6e97673eb29da0b09f495a", {}),
    "construct --n 5 --k 4 --seed 3 --rng pcg64 --log-base 2 --alpha 3.0 --samples 4":
        (0, "abf8533e1ddaac3598e08fd9577c23fe02f641fb1899a6f8bf86dc6a26dc388f",
         "91ce523a303b37a08de3c527467bcdecfc62fc13b6021f31b6ded5298b14a6e7", {}),
    "construct --n 3 --k 3 --seed 1 --alpha 1.0 --force":
        (0, "a1f13ad1e51e7639435264c062451816f18e00e41917c2f5b2f5e4b193ae2f9f",
         "69e48448f5ea319ee90e9821841e07e79cd7720de77a5ea36f679874ea34b2fe", {}),
    "construct --n 8 --k 3 --seed 1 --samples 1 --max-rounds 1":
        (3, "d53baf07e9ba97d7b7a018cdce51ebbd2811d7cf4282fcbe628ea32693b3c537",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", {}),
    "count --N 12 --k 3 --pairs":
        (0, "ccd617f0a830af6b0f1f40d61636795b75442a08f7cea892fd262c47629ad56d",
         "a93928e569a4de25c443f1f8f2e82cf6457a52f8e8b76e3497141b9bbec78ae3", {}),
    "count --N 20 --k 4":
        (0, "21a81ecdb6d39a6ddc673a692b2d84e64cb4c9355ff750be872a623ac9caae7e",
         "caaf641433061e73f0eb2eaccf2bb39b85b590ef8e16bc0100eb249a2295003c", {}),
    "count --N 1000000 --k 3 --pairs":
        (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", {}),
    "verify --input partial.txt --n 3 --k 3":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", {}),
    "bounds --n 10 --k 3 --trials 2000 --seed 5":
        (0, "e3eb89841d8d5b88cf66c399902bd6c986fb6940805d943d3db847eb6d1faba2",
         "bf0b12a959855e535aaf24e5210fd043d70146d5d384456a9b3d3889b88be191", {}),
    "bounds --n 20 --k 2":
        (0, "9f1ed48fb750a1ca3a4bf8cb1936d07fd9779f8ed3b049422fc61b175f0e67c7",
         "98a84cf5eefe93a6d2df4c961e57191fe1035604e7c0d61a95bc2e161fca1cfe", {}),
    "bounds --n 8 --k 3 --pairs bounded --log-base 10 --alpha 4.0":
        (0, "e168119ac0d2d58aebfc216d4d97761f9f065ab252cac0d07dd562883ef3a0a1",
         "3206876ca2956b7f8292a0d1a7ae47e39df76ac9fb533b7e673a2ed8380aa06c", {}),
    "bounds --n 6 --k 3 --N 15 --trials 100 --seed 2 --rng pcg64 --force":
        (0, "4fa4a419e8e167a5b9e3ff95213e7fd0775d38a3f7018326987905c555dc8649",
         "3140f83b7654077f423229e0dd69bc93c1228216545a821cdc8ebe1347044edf", {}),
    "estimate --n 6 --k 2 --N 6 --trials 5000 --seed 3":
        (0, "27f828dba2f9046760425f789132a2a270794dee14652c8c20cfa88219243b97",
         "1887aa2e18c5bbccc783be52c837753d1941ac3f267ea9f714b34e30029cd1f0", {}),
    "estimate --n 5 --k 3 --trials 300 --seed 1 --rng pcg64":
        (0, "0c40ff35b97fdeef9ccb3c933c553bad4291bb1b16ee3984a168e92bf5d585c6",
         "b5c8b07306bf290f0bba6f38a4d7e02f7213178bd90c6b1566fc016168ed7952", {}),
    "estimate --n 2 --k 2 --N 1 --trials 10 --seed 0":
        (0, "5482eca4aee82d485b25e9ef3d494f9ee3e95424ca5d18457a79a8ccbe914596",
         "0133f400245d2eab066e757862a5b0d7a37cfe50b7b652322104307d8a8e72ca", {}),
    "exact --n 4 --k 3 --output witness.txt":
        (0, "189c3aaac9e72217b72d4a19011fcdf04fa0c3e0f659af46d0ffbf18f6adb297",
         "7bca5e8ff7ee66fb4f66813c37375005faab9994ad8f469642aaceb9f29b177a",
         {"witness.txt": "4c4ecd6a7c03f01bac007ca7643070bf9b7df35c6626391488d534e031ffd1bf"}),
    "exact --n 5 --k 3 --budget 100":
        (3, "75491070869ce60538a461b87be559fe6ec9e67277a71d110f6d3223ced86a84",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", {}),
    "exact --n 4 --k 3 --max-N 5":
        (3, "20d6bf32a12e91dc50bdbc3343f20a68a48647e8480c8132f1957edb3594fe6b",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", {}),
}


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.filterwarnings("ignore:alpha = 1.0")
@pytest.mark.parametrize("fmt", ["--json", "--text"])
@pytest.mark.parametrize("argv", list(GOLDEN))
def test_golden_output(capsys, tmp_path, monkeypatch, argv, fmt):
    monkeypatch.chdir(tmp_path)
    inputs = {"golden.txt": GOLDEN_TEXT, "partial.txt": "1 2 3 4\n"}
    for name, text in inputs.items():
        (tmp_path / name).write_text(text)
    code, out, _ = run_cli(capsys, *argv.split(), fmt)
    expected_code, json_sha, text_sha, files = GOLDEN[argv]
    assert code == expected_code
    assert sha256(out) == (json_sha if fmt == "--json" else text_sha)
    written = {path.name: sha256(path.read_text())
               for path in tmp_path.iterdir() if path.name not in inputs}
    assert written == files


BUDGETS = [-1, 0, 1, 16, 10**6]
ALPHAS = ["nan", "inf", "1e308", "0.5", "1.0", "2.0"]
OUTPUT_FILES = ["out.txt", "missing/out.txt"]


@st.composite
def cli_argvs(draw):
    """A subcommand with small, possibly invalid, arguments (ROADMAP 2d)."""
    def maybe(flags, one_in=2):
        return flags if draw(st.integers(1, one_in)) == one_in else []

    command = draw(st.sampled_from(
        ["verify", "construct", "count", "bounds", "estimate", "exact"]))
    budget = draw(st.sampled_from(BUDGETS))
    # exact with the 10^6-node budget takes seconds per instance above n = 5
    n = draw(st.integers(2, 5 if command == "exact" and budget == 10**6 else 7))
    k = draw(st.integers(2, min(5, n)))
    if draw(st.integers(1, 6)) == 6:
        n, k = draw(st.sampled_from([(1, k), (n, 1), (k - 1, k)]))
    N = draw(st.integers(0, 40))
    argv = [command, "--k", str(k)]
    argv += ["--N", str(N)] if command == "count" else ["--n", str(n)]
    if command == "verify":
        input_file = "undecodable.txt" if draw(st.integers(1, 4)) == 4 else "colouring.txt"
        argv += ["--input", input_file] + maybe(["--witnesses"])
    if command in ("construct", "bounds"):
        argv += maybe(["--alpha", draw(st.sampled_from(ALPHAS))]) + maybe(["--force"])
    if command == "exact":
        argv += ["--budget", str(budget)]
    if command == "count":
        argv += maybe(["--pairs"])
    if command == "bounds":
        argv += maybe(["--pairs", "bounded"])
    if command in ("bounds", "estimate"):
        # estimate always gets --trials: its default of 10^4 is slow at N = 40
        trials = ["--trials", str(draw(st.integers(0, 200)))]
        argv += maybe(["--N", str(N)]) + (trials if command == "estimate" else maybe(trials))
    if command in ("construct", "bounds", "estimate"):
        argv += maybe(["--seed", str(draw(st.sampled_from([-1, 0, 7])))])
    # output files, now and then into a directory that does not exist
    outputs = st.sampled_from(OUTPUT_FILES)
    if command in ("construct", "exact"):
        argv += maybe(["--output", draw(outputs)])
    if command in ("construct", "exact"):
        argv += maybe(["--trace", draw(outputs)])
    argv += maybe(["--text"], one_in=3) + maybe(["--threads", "2"], one_in=8)
    if command in ("count", "bounds"):
        # a pair-scan budget flag left over from before the fixed guard
        argv += maybe(["--budget", "10"], one_in=8)
    if command == "exact":
        # a search-mode flag left over from before the oracle moved to the tests
        argv += maybe(["--oracle"], one_in=8)
    # the colouring file for verify, now and then with a colour outside 1..n
    colors = draw(st.lists(st.integers(1, n), max_size=N))
    colors += maybe([draw(st.sampled_from([0, n + 1]))], one_in=4)
    return argv, colors


@settings(deadline=None, max_examples=200)
@given(cli_argvs())
def test_fuzzed_argv_exit_codes(tmp_path_factory, case):
    argv, colors = case
    workdir = tmp_path_factory.getbasetemp()
    (workdir / "colouring.txt").write_text(" ".join(map(str, colors)) + "\n")
    (workdir / "undecodable.txt").write_bytes(b"\xff\xfe")
    files = {"colouring.txt", "undecodable.txt", *OUTPUT_FILES}
    argv = [str(workdir / a) if a in files else a for a in argv]
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code
    assert code in (0, 1, 2, 3), (argv, code)
    if code == 2:
        assert out.getvalue() == "", argv
    if code == 0 and "--text" not in argv:
        validate(json.loads(out.getvalue()), argv[0])


# argvs at the edges of each subcommand; each ran in under a second at 512 MiB,
# the marked one ends in a MemoryError traceback
CAPPED_ARGVS = [
    "estimate --n 32767 --k 2 --N 100 --trials 10000 --seed 1",
    "estimate --n 200 --k 100 --N 300 --trials 4096 --seed 1",
    "exact --n 60 --k 4 --budget 1000",
    "exact --n 18 --k 17 --budget 1000",
    "count --N 1000000 --k 3 --pairs",
    "count --N 5790 --k 2 --pairs",
    "construct --n 60 --k 3 --seed 0",
    pytest.param("construct --n 18 --k 17 --seed 0", marks=pytest.mark.xfail(
        strict=True, reason="construct holds the (h, k) int64 positions of its block")),
]


@pytest.mark.parametrize("argv", CAPPED_ARGVS)
def test_argv_under_a_memory_cap(argv):
    # every argv maps to an exit code, not a traceback, inside 512 MiB
    proc = run_capped(["-m", "rainbowcover.cli", *argv.split()], 512 << 20,
                      stdout=subprocess.DEVNULL)
    assert proc.returncode in range(4)
    assert "Traceback" not in proc.stderr and "MemoryError" not in proc.stderr
