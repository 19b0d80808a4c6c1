"""End-to-end command-line behavior: payloads, formats, exit codes."""

import json

import pytest

from pdnegate.cli import run

from test_dynamics import TestOrbitCsv


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestNegateCommand:
    def test_worked_example(self, capsys):
        code, out, err = invoke(
            capsys, "negate", "--negator", "involutive",
            "--dist", "0.1,0.2,0.15,0.3,0.25",
        )
        assert code == 0
        assert err == ""
        got = json.loads(out)
        want = [0.3, 0.2, 0.25, 0.1, 0.15]
        assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-12

    def test_output_pipes_back_as_input(self, capsys):
        """negate's JSON output is valid --dist input; two hops equal a
        two-step orbit."""
        code, once, _ = invoke(
            capsys, "negate", "--negator", "yager", "--dist", "0.5,0.3,0.2"
        )
        assert code == 0
        code, twice, _ = invoke(
            capsys, "negate", "--negator", "yager", "--dist", once.strip()
        )
        assert code == 0
        code, orbit, _ = invoke(
            capsys, "iterate", "--negator", "yager", "--dist", "0.5,0.3,0.2",
            "-k", "2",
        )
        assert code == 0
        final = json.loads(orbit)["steps"][2]["dist"]
        assert max(abs(a - b) for a, b in zip(json.loads(twice), final)) <= 1e-12

    def test_json_array_dist(self, capsys):
        code, out, _ = invoke(
            capsys, "negate", "--negator", "uniform", "--dist", "[0.5, 0.5]"
        )
        assert code == 0
        assert json.loads(out) == [0.5, 0.5]

    def test_dist_from_file(self, capsys, tmp_path):
        f = tmp_path / "dist.json"
        f.write_text("[0.1, 0.2, 0.15, 0.3, 0.25]")
        code, out, _ = invoke(
            capsys, "negate", "--negator", "involutive", "--dist", f"@{f}"
        )
        assert code == 0
        assert len(json.loads(out)) == 5

    def test_missing_file(self, capsys, tmp_path):
        code, out, err = invoke(
            capsys, "negate", "--negator", "yager",
            "--dist", f"@{tmp_path}/nope.json",
        )
        assert code == 1
        assert out == ""
        assert err != ""


class TestIterateCommand:
    def test_json_orbit(self, capsys):
        code, out, _ = invoke(
            capsys, "iterate", "--negator", "uniform", "--dist", "1,0,0",
            "--steps", "2",
        )
        assert code == 0
        steps = json.loads(out)["steps"]
        assert [s["k"] for s in steps] == [0, 1, 2]
        assert steps[1]["dist"] == pytest.approx([1 / 3] * 3)
        assert steps[0]["entropy"] == 0.0
        assert steps[0]["linf"] == pytest.approx(2 / 3)

    def test_csv_orbit(self, capsys):
        code, out, _ = invoke(
            capsys, "iterate", "--negator", "yager", "--dist", "1,0,0,0,0",
            "-k", "3", "--format", "csv",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "k,p_1,p_2,p_3,p_4,p_5,entropy,linf"
        assert len(lines) == 5
        assert lines[2].startswith("1,0,0.25,0.25,0.25,0.25,")

    def test_csv_golden(self, capsys):
        code, out, _ = invoke(
            capsys, "iterate", "--negator", "involutive",
            "--dist", "0.1,0.2,0.15,0.3,0.25", "-k", "2", "--format", "csv",
        )
        assert code == 0
        assert out == TestOrbitCsv.GOLDEN


class TestConvergeCommand:
    def test_converged(self, capsys):
        code, out, _ = invoke(
            capsys, "converge", "--negator", "yager", "--dist", "1,0,0,0,0"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["outcome"] == "converged"
        assert payload["limit"] == pytest.approx([0.2] * 5, abs=1e-9)

    def test_oscillating(self, capsys):
        code, out, _ = invoke(
            capsys, "converge", "--negator", "yager", "--dist", "0.3,0.7"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["outcome"] == "oscillating"
        assert payload["period"] == 2
        assert payload["witness"] == pytest.approx([0.3, 0.7])

    def test_max_iter(self, capsys):
        code, out, _ = invoke(
            capsys, "converge", "--negator", "yager", "--dist", "1,0,0,0,0",
            "--eps", "1e-15", "--max-iter", "3",
        )
        assert code == 0
        assert json.loads(out)["outcome"] == "max_iter_reached"

    def test_bad_eps_is_domain_error(self, capsys):
        code, out, err = invoke(
            capsys, "converge", "--negator", "yager", "--dist", "0.5,0.5",
            "--eps", "0",
        )
        assert code == 2
        assert out == ""


class TestClassifyCommand:
    def test_verdict_payload(self, capsys):
        code, out, _ = invoke(
            capsys, "classify", "--negator", "linear:alpha=0.5", "--n", "5",
            "--samples", "40", "--seed", "42",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "strictly_contracting"
        assert payload["n"] == 5
        assert payload["witnesses"]

    def test_seed_required(self, capsys):
        code, out, err = invoke(
            capsys, "classify", "--negator", "yager", "--n", "5"
        )
        assert code == 1
        assert out == ""
        assert "--seed" in err


class TestScalarCommands:
    def test_entropy(self, capsys):
        code, out, _ = invoke(capsys, "entropy", "--dist", "0.1,0.2,0.15,0.3,0.25")
        assert code == 0
        assert json.loads(out) == pytest.approx(0.775, abs=1e-12)

    def test_fixed_point(self, capsys):
        code, out, _ = invoke(
            capsys, "fixed-point", "--negator", "involutive", "--n", "4"
        )
        assert code == 0
        assert json.loads(out) == 0.25


class TestExitCodes:
    def test_tsallis_k0_is_parameter_domain_error(self, capsys):
        code, out, err = invoke(
            capsys, "negate", "--negator", "tsallis:k=0", "--dist", "0.5,0.5"
        )
        assert code == 2
        assert out == ""
        assert err != ""

    def test_bad_sum_is_input_error(self, capsys):
        code, out, err = invoke(
            capsys, "negate", "--negator", "yager", "--dist", "0.5,0.6"
        )
        assert code == 1
        assert out == ""

    def test_unknown_negator_is_input_error(self, capsys):
        code, _, _ = invoke(
            capsys, "negate", "--negator", "bogus", "--dist", "0.5,0.5"
        )
        assert code == 1

    def test_malformed_flags(self, capsys):
        code, out, err = invoke(capsys, "negate", "--negator", "yager")
        assert code == 1
        assert out == ""
        assert "usage" in err.lower()

    def test_format_flag_only_on_iterate(self, capsys):
        code, _, err = invoke(
            capsys, "negate", "--negator", "yager", "--dist", "0.5,0.5",
            "--format", "csv",
        )
        assert code == 1
        assert "usage" in err.lower()

    def test_unknown_command(self, capsys):
        code, _, _ = invoke(capsys, "frobnicate")
        assert code == 1

    def test_help_exits_zero(self, capsys):
        code, _, _ = invoke(capsys, "--help")
        assert code == 0

    def test_tsallis_negative_k_on_zero_entry(self, capsys):
        code, _, _ = invoke(
            capsys, "negate", "--negator", "tsallis:k=-1", "--dist", "1,0,0"
        )
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["negate", "--negator", "tsallis:k=inf", "--dist", "0.5,0.5"],
            ["negate", "--negator", "tsallis:k=1e-320", "--dist", "0.2,0.3,0.5"],
            ["converge", "--negator", "yager", "--dist", "0.3,0.7", "--eps", "nan"],
        ],
    )
    def test_tsallis_and_eps_edges_are_domain_errors(self, capsys, argv):
        code, out, err = invoke(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    def test_stdout_stays_machine_parseable(self, capsys):
        """Success paths print exactly one JSON payload, no banners."""
        for argv in (
            ["negate", "--negator", "yager", "--dist", "0.5,0.5"],
            ["entropy", "--dist", "0.5,0.5"],
            ["converge", "--negator", "uniform", "--dist", "0.9,0.1"],
        ):
            code, out, err = invoke(capsys, *argv)
            assert code == 0
            assert err == ""
            json.loads(out)
