"""End-to-end command-line behavior: payloads, formats, exit codes."""

import contextlib
import io
import json
import math
import shlex
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdnegate import SumError, Tsallis, make_dist, negators
from pdnegate.cli import run
from pdnegate.negators import _SPEC_SYNTAX

from oracles import EXACT_BOUND, exact_negate


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestNegateCommand:
    @pytest.mark.parametrize("k", ["1e-15", "-1e-15", "1e-8"])
    def test_tiny_tsallis_k(self, capsys, k):
        code, out, err = invoke(
            capsys, "negate", "--negator", f"tsallis:k={k}", "--dist", "0.2,0.3,0.5"
        )
        assert (code, err) == (0, "")
        exact = exact_negate(Tsallis(float(k)), make_dist([0.2, 0.3, 0.5]))
        got = json.loads(out)
        assert len(got) == 3
        assert max(abs(Fraction(a) - b) for a, b in zip(got, exact)) <= EXACT_BOUND

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

    @pytest.mark.parametrize(
        "content",
        [
            "[0.1, 0.2, 0.15, 0.3, 0.25]",
            "0.1,0.2,0.15,0.3,0.25\n",
            "\ufeff[0.1, 0.2, 0.15, 0.3, 0.25]",
        ],
        ids=["json", "csv", "json-with-bom"],
    )
    def test_dist_from_file(self, capsys, tmp_path, content):
        f = tmp_path / "dist.json"
        f.write_text(content, encoding="utf-8")
        argv = ["negate", "--negator", "involutive", "--dist"]
        code, out, _ = invoke(capsys, *argv, f"@{f}")
        assert code == 0
        assert out == invoke(capsys, *argv, "[0.1, 0.2, 0.15, 0.3, 0.25]")[1]


class TestIterateCommand:
    def test_json_orbit(self, capsys):
        code, out, _ = invoke(
            capsys, "iterate", "--negator", "uniform", "--dist", "1,0,0",
            "--steps", "2",
        )
        assert code == 0
        payload = json.loads(out)
        assert list(payload) == ["steps"]
        steps = payload["steps"]
        assert list(steps[0]) == ["k", "dist", "entropy", "linf"]
        assert [s["k"] for s in steps] == [0, 1, 2]
        assert steps[1]["dist"] == pytest.approx([1 / 3] * 3)
        assert steps[0]["entropy"] == 0.0
        assert steps[0]["linf"] == pytest.approx(2 / 3)


class TestConvergeCommand:
    def test_max_iter(self, capsys):
        code, out, _ = invoke(
            capsys, "converge", "--negator", "yager", "--dist", "1,0,0,0,0",
            "--eps", "1e-15", "--max-iter", "3",
        )
        assert code == 0
        payload = json.loads(out)
        assert list(payload) == ["outcome", "last"]
        assert payload["outcome"] == "max_iter_reached"

    def test_negative_zero_start_prints_plus_zero(self, capsys):
        code, out, _ = invoke(capsys, "converge", "--negator", "yager", "--dist=-0.0,1")
        assert code == 0
        assert out.strip() == '{"outcome":"oscillating","period":2,"witness":[0.0,1.0]}'


class TestClassifyCommand:
    GOLDEN = (
        '{"spec":"linear:alpha=0.5","n":4,"samples":20,'
        '"verdict":"strictly_contracting","witnesses":['
        '{"p":0.0,"np":0.29166666666666663,"nnp":0.24305555555555558,'
        '"flags":{"contracting":true,"strictly_contracting":true,'
        '"expanding":false,"involutive":false}},'
        '{"p":0.01,"np":0.29000000000000004,"nnp":0.24333333333333335,'
        '"flags":{"contracting":true,"strictly_contracting":true,'
        '"expanding":false,"involutive":false}},'
        '{"p":0.02,"np":0.28833333333333333,"nnp":0.2436111111111111,'
        '"flags":{"contracting":true,"strictly_contracting":true,'
        '"expanding":false,"involutive":false}}]}\n'
    )

    def test_golden_payload(self, capsys):
        """The exact bytes of one classify payload: key names, key order,
        nesting and float formatting."""
        code, out, err = invoke(
            capsys, "classify", "--negator", "linear:alpha=0.5", "--n", "4",
            "--samples", "20", "--seed", "5",
        )
        assert (code, err) == (0, "")
        assert out == self.GOLDEN

    # A whole-distribution family: each witness holds the max-norm distances
    # to uniform of P, NOT(P) and NOT(NOT(P)), and the spec has no fields.
    DIST_GOLDEN = (
        '{"spec":"involutive","n":4,"samples":3,"verdict":"involutive","witnesses":['
        '{"p":0.23034541042758544,"np":0.17639259559549392,"nnp":0.23034541042758544,'
        '"flags":{"contracting":true,"strictly_contracting":false,'
        '"expanding":true,"involutive":true}},'
        '{"p":0.22515331461127858,"np":0.2970831728139445,"nnp":0.22515331461127855,'
        '"flags":{"contracting":true,"strictly_contracting":false,'
        '"expanding":true,"involutive":true}},'
        '{"p":0.3709934445583499,"np":0.21446478260363727,"nnp":0.3709934445583498,'
        '"flags":{"contracting":true,"strictly_contracting":false,'
        '"expanding":true,"involutive":true}}]}\n'
    )

    def test_golden_distribution_level_payload(self, capsys):
        code, out, err = invoke(
            capsys, "classify", "--negator", "involutive", "--n", "4",
            "--samples", "3", "--seed", "5",
        )
        assert (code, err) == (0, "")
        assert out == self.DIST_GOLDEN


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


README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_examples():
    """Each ``$ pdnegate ...`` line in README.md with the output lines
    shown under it, up to a blank line or the end of the code block."""
    lines = README.read_text(encoding="utf-8").splitlines()
    examples = []
    for i, line in enumerate(lines):
        if line.startswith("$ pdnegate "):
            shown = []
            for out in lines[i + 1:]:
                if not out.strip() or out.startswith(("```", "$ ")):
                    break
                shown.append(out)
            examples.append((shlex.split(line)[2:], shown))
    return examples


class TestReadmeExamples:
    def test_examples_print_what_readme_shows(self, capsys):
        """``...`` in a shown line stands for the elided rest of a JSON
        array, so the text on each side of it must match."""
        examples = _readme_examples()
        assert len(examples) == 4
        for argv, shown in examples:
            code, out, err = invoke(capsys, *argv)
            assert (code, err) == (0, ""), argv
            got = out.splitlines()
            assert len(got) == len(shown), argv
            for line, want in zip(got, shown):
                head, elided, tail = want.partition("...")
                if elided:
                    assert line.startswith(head) and line.endswith(tail), argv
                else:
                    assert line == want, argv


def _negate(negator, dist, *rest):
    return ["negate", "--negator", negator, "--dist", dist, *rest]


# Each row is an argv and a fragment of its stderr message.
DOMAIN_ERRORS = [
    pytest.param(_negate("tsallis:k=0", "0.5,0.5"), "k must be a finite nonzero", id="k0"),
    pytest.param(_negate("tsallis:k=inf", "0.5,0.5"), "k must be a finite nonzero", id="k_inf"),
    pytest.param(
        _negate("tsallis:k=-1", "1,0,0"), "requires strictly positive", id="negative_k_zero_entry"
    ),
    pytest.param(_negate("tsallis:k=-2", "[1e-200, 1.0]"), "overflows p**k", id="overflow"),
    # A subnormal k leaves subnormal numerators, too few bits for an output.
    pytest.param(
        _negate("tsallis:k=1e-320", "0.2,0.3,0.5"), "numerators that sum to 3.5", id="subnormal_k"
    ),
    pytest.param(
        ["converge", "--negator", "yager", "--dist", "0.3,0.7", "--eps", "nan"],
        "eps must be > 0", id="eps_nan",
    ),
    pytest.param(
        ["converge", "--negator", "yager", "--dist", "0.5,0.5", "--eps", "0"],
        "eps must be > 0", id="eps_zero",
    ),
    pytest.param(
        ["classify", "--negator", "yager", "--n", "1", "--seed", "0"],
        "n must be >= 2", id="classify_n",
    ),
    pytest.param(
        ["fixed-point", "--negator", "yager", "--n", "1"], "n must be >= 2", id="fixed_point_n"
    ),
    # A length too large for a float: 1/n would overflow.
    pytest.param(
        ["fixed-point", "--negator", "yager", "--n", "1" + "0" * 400],
        "at most the largest float", id="fixed_point_huge_n",
    ),
    pytest.param(
        ["classify", "--negator", "yager", "--n", "1" + "0" * 400, "--seed", "0"],
        "at most the largest float", id="classify_huge_n",
    ),
    pytest.param(
        ["classify", "--negator", "yager", "--n", "3", "--samples", "0", "--seed", "0"],
        "samples must be >= 1", id="samples",
    ),
    pytest.param(
        ["iterate", "--negator", "yager", "--dist", "0.5,0.5", "-k", "-1"],
        "steps must be >= 0", id="steps",
    ),
    pytest.param(
        ["converge", "--negator", "yager", "--dist", "0.3,0.7", "--max-iter", "0"],
        "max_iter must be >= 1", id="max_iter",
    ),
]

INPUT_ERRORS = [
    pytest.param(_negate("yager", "1"), "need at least 2 values", id="one_value"),
    pytest.param(_negate("bogus", "0.5,0.5"), "unknown negator 'bogus'", id="unknown_negator"),
    pytest.param(
        ["negate", "--negator", "yager"], "arguments are required: --dist", id="missing_flag"
    ),
    pytest.param(
        _negate("yager", "0.5,0.5", "--format", "csv"), "unrecognized arguments: --format",
        id="format_off_iterate",
    ),
    pytest.param(["frobnicate"], "invalid choice", id="unknown_command"),
    pytest.param(_negate("yager", "[" * 200_000), "nested too deeply", id="deep_json"),
    # An integer too large for a float is read as inf.
    pytest.param(
        _negate("yager", "[1" + "0" * 400 + ", 0]"), "value inf at position 1", id="huge_int"
    ),
    pytest.param(_negate("yager", "[[1]]"), "must be an array of numbers", id="nested"),
    pytest.param(_negate("yager", '["0.5","0.5"]'), "must be an array of numbers", id="strings"),
    pytest.param(
        _negate("yager", "@no-such-file.json"), "No such file or directory", id="missing_file"
    ),
    pytest.param(["classify", "--negator", "yager", "--n", "5"], "--seed", id="missing_seed"),
]


class TestExitCodes:
    @pytest.mark.parametrize("argv, fragment", DOMAIN_ERRORS)
    def test_domain_error_exits_2(self, capsys, argv, fragment):
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (2, "")
        assert fragment in err

    @pytest.mark.parametrize("argv, fragment", INPUT_ERRORS)
    def test_input_error_exits_1(self, capsys, argv, fragment):
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (1, "")
        assert fragment in err

    def test_rejected_output_is_domain_error(self, capsys, monkeypatch):
        # A SumError from the input is exit 1; from negate's output, exit 2.
        def reject(values, lo, hi):
            raise SumError("off the simplex")

        monkeypatch.setattr(negators, "_accepted", reject)
        code, out, err = invoke(capsys, "negate", "--negator", "yager", "--dist", "0.2,0.8")
        assert (code, out) == (2, "")
        assert err == "error: negated output fails validation: off the simplex\n"

    def test_bad_sum_is_input_error(self, capsys):
        """The one sum tolerance is 1e-9: a sum 5e-10 off one is accepted,
        and sums 1e-6 or more off are not."""
        code, _, _ = invoke(
            capsys, "negate", "--negator", "yager", "--dist", "0.5,0.5000000005"
        )
        assert code == 0
        for dist in ("0.5,0.6", "0.333333,0.333333,0.333333"):
            code, out, _ = invoke(capsys, "negate", "--negator", "yager", "--dist", dist)
            assert code == 1, dist
            assert out == ""

    def test_help_exits_zero(self, capsys):
        code, _, _ = invoke(capsys, "--help")
        assert code == 0

    @pytest.mark.parametrize(
        "command", ["negate", "iterate", "converge", "classify", "fixed-point"]
    )
    def test_help_lists_negator_syntax(self, capsys, command):
        code, out, _ = invoke(capsys, command, "--help")
        assert code == 0
        assert _SPEC_SYNTAX in " ".join(out.split())


def _mostly(valid, invalid):
    """Draw from ``valid`` three times in four, else from ``invalid``."""
    return st.integers(0, 3).flatmap(lambda i: valid if i else invalid)


def _ints(lo, hi):
    # No value above ``hi``: a huge length or step count would run for
    # as long as it asks, which is not a fault.
    return _mostly(
        st.integers(lo, hi).map(str),
        st.one_of(
            st.integers(max_value=lo - 1).map(str),
            st.sampled_from(["", "x", "2.5", "1e3"]),
        ),
    )


def _floats_text():
    return st.floats(allow_nan=True, allow_infinity=True).map(repr)


def _weights(min_size):
    return st.lists(st.floats(1e-3, 1.0), min_size=min_size, max_size=6).map(
        lambda w: [x / math.fsum(w) for x in w]
    )


_NEGATOR_TEXTS = _mostly(
    st.one_of(
        st.sampled_from(["yager", "uniform", "involutive"]),
        st.floats(0.0, 1.0).map(lambda a: f"linear:alpha={a!r}"),
        st.floats(-5.0, 5.0).filter(bool).map(lambda k: f"tsallis:k={k!r}"),
    ),
    st.one_of(
        st.sampled_from(
            [
                # malformed
                "", "bogus", "linear", "linear:alpha=", "tsallis:alpha=1", "yager:k=1",
                # out of domain
                "linear:alpha=2", "linear:alpha=nan", "tsallis:k=0", "tsallis:k=inf",
                # huge or tiny k
                "tsallis:k=1e308", "tsallis:k=-1e308", "tsallis:k=1e-320",
                "tsallis:k=-1e-300", "tsallis:k=1e-17", "tsallis:k=-2",
            ]
        ),
        _floats_text().map(lambda k: f"tsallis:k={k}"),
        _floats_text().map(lambda a: f"linear:alpha={a}"),
        st.text(max_size=12),
    ),
)

_DIST_TEXTS = _mostly(
    st.one_of(
        st.sampled_from(["[1, 0]", "0.2,0.3,0.5", "1e-200,1"]),
        _weights(2).map(lambda v: ",".join(map(repr, v))),
        _weights(2).map(json.dumps),
    ),
    st.one_of(
        st.sampled_from(
            [
                # malformed or NaN
                "", "1", "0.5,0.6", "nan,0.5", "[NaN, 1]", "[]", "{}", "[true, false]",
                # deep or huge JSON, missing file
                "[" * 100_000, "[1" + "0" * 400 + ", 0]", "1e400,0", "@no-such-file.json",
            ]
        ),
        # a distribution without its last entry: the sum falls short of 1
        _weights(0).map(lambda v: ",".join(map(repr, v[:-1]))),
        # Other @paths could name any file, such as an endless device.
        st.text(max_size=12).filter(lambda t: not t.startswith("@")),
    ),
)

# Sizes stay small so every accepted command finishes quickly.
_FLAG_VALUES = {
    "--negator": _NEGATOR_TEXTS,
    "--dist": _DIST_TEXTS,
    "-k": _ints(0, 12),
    "--format": _mostly(st.sampled_from(["json", "csv"]), st.just("xml")),
    "--eps": _mostly(
        st.floats(1e-15, 1e-3).map(repr),
        st.one_of(st.sampled_from(["0", "-1", "nan", "x"]), _floats_text()),
    ),
    "--max-iter": _ints(1, 60),
    "--n": _ints(2, 12),
    "--samples": _ints(1, 30),
    "--seed": _ints(-5, 5),
}

_COMMAND_FLAGS = {
    "negate": ["--negator", "--dist"],
    "iterate": ["--negator", "--dist", "-k", "--format"],
    "converge": ["--negator", "--dist", "--eps", "--max-iter"],
    "classify": ["--negator", "--n", "--samples", "--seed"],
    "entropy": ["--dist"],
    "fixed-point": ["--negator", "--n"],
}


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(sorted(_COMMAND_FLAGS)))
    argv = [command]
    for flag in _COMMAND_FLAGS[command]:
        if draw(st.integers(0, 19)):  # now and then a flag is left out
            argv += [flag, draw(_FLAG_VALUES[flag])]
    return argv


class TestFuzz:
    @settings(max_examples=300, deadline=None)
    @given(_argvs())
    def test_run_never_raises(self, argv):
        """Any argv ends in exit 0, 1 or 2; a success prints exactly one
        payload on stdout and a failure prints nothing there."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
        out = out.getvalue()
        assert code in (0, 1, 2)
        if code != 0:
            assert out == ""
            return
        assert err.getvalue() == ""
        flags = dict(zip(argv[1::2], argv[2::2]))
        if flags.get("--format") == "csv":
            header, *rows = out.splitlines()
            assert header.startswith("k,") and rows
            assert all(row.count(",") == header.count(",") for row in rows)
        else:
            assert out.endswith("\n") and out.count("\n") == 1
            json.loads(out)
