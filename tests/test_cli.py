import io
import json
import warnings
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rainbowcover import cli

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


@pytest.fixture
def golden_file(tmp_path):
    path = tmp_path / "golden.txt"
    path.write_text(GOLDEN_TEXT)
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

    def test_missing_file_exit_two(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--input", "/nonexistent/f.txt",
                               "--n", "6", "--k", "3")
        assert code == 2


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
        code, _, err = run_cli(capsys, "count", "--N", "100", "--k", "3",
                               "--pairs", "--budget", "10")
        assert code == 3


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

    def test_oracle_mode_agrees(self, capsys):
        code, record, _ = run_json(capsys, "exact", "--n", "4", "--k", "3", "--oracle")
        assert code == 0
        validate(record, "exact")
        assert record["ac"] == 6 and record["method"] == "exhaustive-dfs"

    def test_budget_exit_three(self, capsys):
        code, out, err = run_cli(capsys, "exact", "--n", "5", "--k", "3",
                                 "--budget", "100")
        assert code == 3
        record = json.loads(out)
        assert record["error"] == "budget-exceeded"


    def test_budget_used_up_exactly_exit_three(self, capsys):
        # deciding N = 5 takes exactly 16 nodes, so none are left for N = 6
        code, out, err = run_cli(capsys, "exact", "--n", "4", "--k", "3",
                                 "--budget", "16")
        assert code == 3
        record = json.loads(out)
        assert record["error"] == "budget-exceeded"
        assert record["refuted_up_to"] == 5
        assert "must be >= 1" not in err


class TestCommonFlags:
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

    @pytest.mark.parametrize("argv", [
        ("count", "--N", "1", "--k", "2"),
        ("bounds", "--n", "3", "--k", "2", "--pairs", "bounded"),
    ])
    def test_negative_pair_budget_exit_two(self, capsys, argv):
        # the budget is recorded even when no pair scan runs, and the
        # schemas require it to be >= 0
        with pytest.raises(SystemExit) as info:
            cli.main([*argv, "--budget", "-1"])
        assert info.value.code == 2
        assert capsys.readouterr().out == ""

    def test_text_mode(self, capsys, golden_file):
        code, out, _ = run_cli(capsys, "verify", "--input", golden_file,
                               "--n", "6", "--k", "3", "--text")
        assert code == 0
        assert "complete" in out and "{" not in out


BUDGETS = [-1, 0, 1, 16, 10**6]
ALPHAS = ["nan", "inf", "1e308", "0.5", "1.0", "2.0"]


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
        argv += ["--input", "colouring.txt"] + maybe(["--witnesses"])
    if command in ("construct", "bounds"):
        argv += maybe(["--alpha", draw(st.sampled_from(ALPHAS))]) + maybe(["--force"])
    if command in ("count", "bounds", "exact"):
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
    if command == "exact":
        argv += maybe([draw(st.sampled_from(["--oracle", "--no-symmetry"]))])
    argv += maybe(["--threads", "2"], one_in=8)
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
    argv = [str(workdir / a) if a == "colouring.txt" else a for a in argv]
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
    if code == 0:
        validate(json.loads(out.getvalue()), argv[0])
