"""Named mutants of the library and its oracles, and the tests that must
kill each one.

Every entry of ``MUTANTS`` names a file, an exact piece of its text (the
anchor, which must occur in the file exactly once), the text that
replaces it, and the tests that must fail once it is replaced. The script
first runs every named test once on an unmutated copy of ``src/``,
``tests/``, ``pyproject.toml`` and ``README.md`` (whose examples pin the
CLI), where all must pass. Then it applies each mutant to a fresh
temporary copy and runs all of that mutant's tests, with
``-rf -p no:cacheprovider``. A mutant is killed only when pytest exits 1
and its ``-rf`` summary lists every named test as failed, so each named
test must kill the mutant on its own; a test named without its
parameters fails when any of its cases does. Any other exit code means
the copy did not run (a syntax error, a bad test id, an internal error)
and counts as a failure. It starts one pytest process at a time, and
exits non-zero if the unmutated copy fails, an anchor is stale or a
mutant survives any of its tests.

A change that deletes a test names here the mutants that still die
without it. The file is not collected by pytest. It needs pytest and
hypothesis; from the repository root:

    python3 tests/mutants.py
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "pyproject.toml", "README.md")
TIMEOUT_S = 600  # a mutant that hangs its tests counts as a failure


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    tests: tuple[str, ...]


ANALYSIS = "src/pdnegate/analysis.py"
CLI = "src/pdnegate/cli.py"
DYNAMICS = "src/pdnegate/dynamics.py"
NEGATORS = "src/pdnegate/negators.py"
SIMPLEX = "src/pdnegate/simplex.py"
ORACLES = "tests/oracles.py"
CRITERION = "tests/test_acceptance.py::test_criterion_{}"
CLASSIFY = "tests/test_analysis.py::TestClassify::{}"
BIT_IDENTICAL = "tests/test_negators.py::TestKernelMatchesPointwise::test_bit_identical"
LEAD = CLASSIFY.format("test_dist_level_lead_is_away_from_uniform")
KIND = CLASSIFY.format("test_dist_level_witnesses_are_of_their_kind")
NOT_ALWAYS_EXPANDING = CLASSIFY.format("test_tsallis_negative_k_not_always_expanding")
CONVERGE = "tests/test_dynamics.py::TestConverge::{}"
FACTOR_N5 = "tests/test_dynamics.py::TestContractionFactor::test_yager_n5"
EXIT_CODES = "tests/test_cli.py::TestExitCodes::{}"
CLI_CONVERGE = "tests/test_cli.py::TestConvergeCommand::{}"
README_EXAMPLES = "tests/test_cli.py::TestReadmeExamples::test_examples_print_what_readme_shows"
FIXED_POINT = "tests/test_analysis.py::TestFixedPoint::{}"
PICKLE_BYTES = "tests/test_construction.py::test_pickle_bytes_match_constructed_copy"
BITDUMP = "tests/test_bitdump.py::test_digest_matches_checked_in"
MEASURES = "tests/test_simplex.py::TestMeasuresExact::test_random_point_and_uniform"
EXACT = "tests/test_negators.py::TestExactOracle::test_every_family"

MUTANTS = [
    # classify's linear verdict and witnesses, read from the theorem.
    Mutant(
        "strict-never", ANALYSIS,
        "strict = 0.0 < a < 1.0", "strict = False",
        (CRITERION.format("7_strict_contraction"),),
    ),
    Mutant(
        "never-involutive", ANALYSIS,
        "Verdict.INVOLUTIVE if a == 1.0", "Verdict.INVOLUTIVE if a > 1.0",
        (CRITERION.format("5_degenerate_case_honesty"),),
    ),
    Mutant(
        "witness-strict-dropped", ANALYSIS,
        "PointVerdict(p, np_, nnp, True, strict, back, back)",
        "PointVerdict(p, np_, nnp, True, False, back, back)",
        (CLASSIFY.format("test_theorem_decides_inside_the_slack_band"),),
    ),
    Mutant(
        "no-linear-witnesses", ANALYSIS,
        "> _TOL_EQ][:_WITNESSES]:", "> _TOL_EQ][:0]:",
        (CLASSIFY.format("test_pointwise_witnesses_are_linear_point"),),
    ),
    # The distribution-level flags of one start.
    Mutant(
        "dist-expanding-min", ANALYSIS,
        "d0 <= max(d1, d2) + t", "d0 <= min(d1, d2) + t",
        (CLASSIFY.format("test_dist_level_start_contracts_or_expands"),),
    ),
    # _judge: the verdict over the per-start flags, and its witness picks.
    Mutant(
        "judge-involutive-any", ANALYSIS,
        "if all(v.involutive for v in verdicts):",
        "if any(v.involutive for v in verdicts):",
        (LEAD,),
    ),
    Mutant(
        "judge-contracting-any", ANALYSIS,
        "elif all(v.contracting for v in verdicts):",
        "elif any(v.contracting for v in verdicts):",
        (NOT_ALWAYS_EXPANDING,),
    ),
    Mutant(
        "judge-lead-anywhere", ANALYSIS,
        "first(lambda v: v.p > _TOL_EQ, 1)", "first(lambda v: True, 1)",
        (LEAD,),
    ),
    Mutant(
        "judge-rest-repeats-lead", ANALYSIS,
        "first(lambda v: v not in picks,", "first(lambda v: True,",
        (LEAD,),
    ),
    Mutant(
        "judge-expanding-any", ANALYSIS,
        "elif all(v.expanding for v in verdicts):",
        "elif any(v.expanding for v in verdicts):",
        (NOT_ALWAYS_EXPANDING,),
    ),
    Mutant(
        "judge-expanding-keeps-involutive", ANALYSIS,
        "first(lambda v: not v.involutive)", "first(lambda v: True)",
        (KIND,),
    ),
    # The mixed picks: tsallis at n = 3 samples a start that is both
    # contracting and expanding before the first contracting-only one
    # (k = -0.5) and before the first expanding-only one (k = -0.25).
    Mutant(
        "judge-mixed-contracting-any", ANALYSIS,
        "first(lambda v: v.contracting and not v.expanding, 1)",
        "first(lambda v: v.contracting, 1)",
        (NOT_ALWAYS_EXPANDING,),
    ),
    Mutant(
        "judge-mixed-expanding-any", ANALYSIS,
        "first(lambda v: v.expanding and not v.contracting, 1)",
        "first(lambda v: v.expanding, 1)",
        (NOT_ALWAYS_EXPANDING,),
    ),
    # fixed_point reads the paper's theorem: n, then the spec, then 1/n.
    Mutant(
        "fixed-point-value", ANALYSIS,
        "    return 1.0 / n\n", "    return 1.0 / (n + 1)\n",
        (FIXED_POINT.format("test_any_spec_is_one_over_n"),),
    ),
    Mutant(
        "fixed-point-no-spec-check", ANALYSIS,
        "    _linear_alpha(spec)  # a non-spec raises TypeError, as in iterate\n", "",
        (FIXED_POINT.format("test_rejects_non_spec"),),
    ),
    Mutant(
        "fixed-point-spec-before-n", ANALYSIS,
        "    _check_length(n)\n    _linear_alpha(spec)  #",
        "    _linear_alpha(spec)\n    _check_length(n)  #",
        (FIXED_POINT.format("test_length_domain"),),
    ),
    # random_dist, pinned to the stdlib's exponential variates.
    Mutant(
        "random-dist-seed+1", ANALYSIS,
        "random.Random(seed).random", "random.Random(seed + 1).random",
        ("tests/test_analysis.py::TestRandomDist::test_bits_match_expovariate_draws", BITDUMP),
    ),
    # A family that moves the uniform distribution: fixed_point does not
    # check it at run time, so the tests must.
    Mutant(
        "involutive-moves-uniform", NEGATORS,
        "nums = [mp - p for p in vals]",
        "nums = [mp - p + i * 2**-20 for i, p in enumerate(vals)]",
        (CRITERION.format("6_ranges_and_fixed_points"),
         "tests/test_negators.py::TestNegationAxioms::test_uniform_distribution_is_fixed"),
    ),
    # The linear theorem and converge's outcomes.
    Mutant(
        "factor-sign", NEGATORS,
        "return -(1.0 - alpha) / (n - 1)", "return (1.0 - alpha) / (n - 1)",
        (FACTOR_N5, CRITERION.format("3_closed_form_oracle")),
    ),
    Mutant(
        "factor-divisor-n", NEGATORS,
        "return -(1.0 - alpha) / (n - 1)", "return -(1.0 - alpha) / n",
        (FACTOR_N5, "tests/test_dynamics.py::TestExactRate::test_linf_scales_by_factor_power"),
    ),
    Mutant(
        "factor-alpha-scaled", NEGATORS,
        "return -(1.0 - alpha) / (n - 1)", "return -(1.0 - alpha * 0.999) / (n - 1)",
        (CRITERION.format("3_closed_form_oracle"),
         "tests/test_dynamics.py::TestExactRate::test_linf_scales_by_factor_power",
         "tests/test_dynamics.py::TestConvergeTheorem::test_linear_orbit_outcome"),
    ),
    Mutant(
        "power-point-k0-uniform", DYNAMICS,
        "return 1.0 / n + a**k * (p - 1.0 / n)",
        "return 1.0 / n if k == 0 else 1.0 / n + a**k * (p - 1.0 / n)",
        (CRITERION.format("3_closed_form_oracle"),
         "tests/test_dynamics.py::TestClosedForms::test_yager_form_matches_linear_form"),
    ),
    Mutant(
        "cycle-test-skips-unit-factor", DYNAMICS,
        "abs(contraction_factor(n, alpha)) >= 1.0", "abs(contraction_factor(n, alpha)) > 1.0",
        (CONVERGE.format("test_yager_n2_oscillates_with_period_two"),
         CRITERION.format("5_degenerate_case_honesty"),
         "tests/test_dynamics.py::TestConvergeTheorem::test_true_cycle_found_at_first_return"),
    ),
    Mutant(
        "converged-steps+1", DYNAMICS,
        "Converged(k, current)", "Converged(k + 1, current)",
        (CONVERGE.format("test_uniform_spec_converges_in_one"),
         CRITERION.format("4_convergence_rate")),
    ),
    Mutant(
        "left-domain-steps+1", DYNAMICS,
        "LeftDomain(k - 1, current)", "LeftDomain(k, current)",
        (CONVERGE.format("test_leaving_the_domain_is_an_outcome"), README_EXAMPLES),
    ),
    Mutant(
        "converged-limit-is-start", DYNAMICS,
        "Converged(k, current)", "Converged(k, dist)",
        (README_EXAMPLES,),
    ),
    # iterate's steps, each the negation of the one before.
    Mutant(
        "iterate-negates-once", DYNAMICS,
        "        if k:\n            dist = negate",
        "        if k == 1:\n            dist = negate",
        ("tests/test_dynamics.py::TestIterate::test_trace_structure",),
    ),
    # iterate's inlined measures, held to entropy() and linf_to_uniform().
    Mutant(
        "iterate-entropy-squares", DYNAMICS,
        "fsum([(1.0 - v) * v for v in dist.values])", "fsum([v * v for v in dist.values])",
        ("tests/test_dynamics.py::TestIterate::test_trace_structure",),
    ),
    Mutant(
        "iterate-linf-upper-side-only", DYNAMICS,
        "below if below > above else above", "above",
        ("tests/test_dynamics.py::TestIterate::test_trace_structure",),
    ),
    Mutant(
        "orbit-csv-no-final-newline", DYNAMICS,
        'return "\\n".join(lines) + "\\n"', 'return "\\n".join(lines)',
        ("tests/test_dynamics.py::TestOrbitCsv::test_golden_involutive_orbit",),
    ),
    # The involutive total as n*mp - 1, not the numerators' sum: rounding
    # can put an output past 1.
    Mutant(
        "involutive-total-n-mp-1", NEGATORS,
        "nums = [mp - p for p in vals]\n    total = math.fsum(nums)",
        "nums = [mp - p for p in vals]\n    total = len(vals) * mp - 1.0",
        ("tests/test_negators.py::TestKernelMatchesPointwise::test_vertex_after_two_steps",),
    ),
    # The kernel's values against their exact ones, and its domain.
    Mutant(
        "tsallis-k2-cubed", NEGATORS,
        "[1.0 - p**k for p in vals]", "[1.0 - p ** (3.0 if k == 2.0 else k) for p in vals]",
        (EXACT,),
    ),
    Mutant(
        "tsallis-negative-k-accepts-zero", NEGATORS,
        "if k < 0.0 and lo <= 0.0:", "if k < 0.0 and lo < 0.0:",
        (EXACT,),
    ),
    # Numerators p in place of mp - p keep the sum but not the order.
    Mutant(
        "involutive-numerators-p", NEGATORS,
        "nums = [mp - p for p in vals]", "nums = [p for p in vals]",
        ("tests/test_negators.py::TestNegationAxioms::test_output_reverses_order", EXACT),
    ),
    Mutant(
        "tol-eq-5e-10", SIMPLEX,
        "_TOL_EQ = 1e-9", "_TOL_EQ = 5e-10",
        (CONVERGE.format("test_max_iter_reached"),),
    ),
    # Validation: the length rules, the recorded extremes, the simplex
    # tolerance and whose fault a rejection is.
    Mutant(
        "length-rule-one-value", SIMPLEX,
        "    if len(vals) < 2:", "    if len(vals) < 1:",
        ("tests/test_negators.py::TestInvalidHandBuiltDist::test_raises_simplex_error",
         "tests/test_simplex.py::TestMakeDist::test_too_short",
         EXIT_CODES.format("test_input_error_exits_1[one_value]")),
    ),
    # Each lower-bound check written with <, which NaN never satisfies.
    Mutant(
        "length-rule-passes-nan", SIMPLEX,
        "if not n >= 2:", "if n < 2:",
        (FIXED_POINT.format("test_length_domain"),
         "tests/test_simplex.py::TestFactories::test_uniform",
         "tests/test_analysis.py::TestRandomDist::test_length_domain",
         "tests/test_dynamics.py::TestContractionFactor::test_domain"),
    ),
    Mutant(
        "iterate-steps-passes-nan", DYNAMICS,
        "if not steps >= 0:", "if steps < 0:",
        ("tests/test_dynamics.py::TestIterate::test_negative_steps_rejected",),
    ),
    Mutant(
        "power-point-k-passes-nan", DYNAMICS,
        "if not k >= 0:", "if k < 0:",
        ("tests/test_dynamics.py::TestClosedForms::test_domain_errors",),
    ),
    Mutant(
        "converge-max-iter-passes-nan", DYNAMICS,
        "if not max_iter >= 1:", "if max_iter < 1:",
        (CONVERGE.format("test_parameter_domains"),),
    ),
    Mutant(
        "classify-samples-passes-nan", ANALYSIS,
        "if not samples >= 1:", "if samples < 1:",
        (CLASSIFY.format("test_parameter_domains"),),
    ),
    Mutant(
        "length-unbounded", SIMPLEX,
        "    if n > sys.float_info.max:", "    if False:",
        (FIXED_POINT.format("test_length_domain"),
         EXIT_CODES.format("test_domain_error_exits_2[fixed_point_huge_n]")),
    ),
    Mutant(
        "make-dist-huge-int-overflows", SIMPLEX,
        "[_float_or_huge(v) for v in values]",
        "[float(v) for v in values]",
        ("tests/test_simplex.py::TestMakeDist::test_range_error_names_first_bad_position",
         "tests/test_negators.py::TestInvalidHandBuiltDist::test_raises_simplex_error"),
    ),
    # Without it the fallback re-reads an iterator that float() has used up.
    Mutant(
        "make-dist-reads-iterator-twice", SIMPLEX,
        "    values = tuple(values)  # read twice if float() overflows\n", "",
        ("tests/test_simplex.py::TestMakeDist::test_range_error_names_first_bad_position",),
    ),
    Mutant(
        "recorded-extremes-swapped", SIMPLEX,
        'state["_lo"], state["_hi"] = lo, hi', 'state["_lo"], state["_hi"] = hi, lo',
        ("tests/test_simplex.py::TestRecordedExtremes::test_factories",),
    ),
    # The measures, pinned bit for bit to their generator-expression
    # definitions.
    Mutant(
        "entropy-one-plus-v", SIMPLEX,
        "fsum([(1.0 - v) * v for v", "fsum([(1.0 + v) * v for v",
        (MEASURES, "tests/test_simplex.py::test_example_entropy_exact_fraction"),
    ),
    Mutant(
        "entropy-plain-sum", SIMPLEX,
        "math.fsum([(1.0 - v) * v for v", "sum([(1.0 - v) * v for v",
        (MEASURES,),
    ),
    Mutant(
        "linf-upper-side-only", SIMPLEX,
        "return max(hi - u, u - lo)", "return hi - u",
        (MEASURES,),
    ),
    Mutant(
        "max-abs-diff-signed", SIMPLEX,
        "return max(map(abs, map(operator.sub,", "return max((map(operator.sub,",
        (MEASURES,),
    ),
    # The builders that skip __init__: the dict's key order and the sign of
    # a recorded zero, which == and vars() == do not see.
    Mutant(
        "accepted-hi-first", SIMPLEX,
        'state["_lo"], state["_hi"] = lo, hi', 'state["_hi"], state["_lo"] = hi, lo',
        (PICKLE_BYTES,),
    ),
    Mutant(
        "zero-rebuild-min-minus-zero", SIMPLEX,
        "for v in dist.values]), 0.0, dist._hi)", "for v in dist.values]), -0.0, dist._hi)",
        (PICKLE_BYTES, BITDUMP),
    ),
    Mutant(
        "iterate-step-dist-first", DYNAMICS,
        'state["k"], state["dist"] = k, dist', 'state["dist"], state["k"] = dist, k',
        (PICKLE_BYTES,),
    ),
    Mutant(
        "tol-simplex-1e-10", SIMPLEX,
        "_TOL_SIMPLEX = 1e-9", "_TOL_SIMPLEX = 1e-10",
        (EXIT_CODES.format("test_bad_sum_is_input_error"),
         "tests/test_simplex.py::TestMakeDist::test_sum_tolerance",
         "tests/test_simplex.py::TestSameDecisions::test_short_rejected_and_coerced_inputs"),
    ),
    Mutant(
        "entropy-unchecked", SIMPLEX,
        "    dist._lo  # validates a hand-built Dist, as every reader does\n", "",
        ("tests/test_negators.py::TestInvalidHandBuiltDist::test_raises_simplex_error",),
    ),
    Mutant(
        "negate-catches-sum-only", NEGATORS,
        "except (RangeError, SumError) as exc:", "except SumError as exc:",
        ("tests/test_negators.py::TestFailedNegation::test_rejected_output_is_domain_error",),
    ),
    Mutant(
        "format-negator-unchecked", NEGATORS,
        "    if type(spec) not in _FAMILIES:\n"
        "        raise TypeError(f\"not a negator spec: {spec!r}\")\n    return type(spec)",
        "    return type(spec)",
        ("tests/test_negators.py::TestNegateExamples::test_non_spec_rejected",),
    ),
    # The CLI's exit codes: 2 for a domain error, 1 for malformed input.
    Mutant(
        "cli-domain-error-exits-1", CLI,
        "        return 2\n    except (ValueError, OSError)",
        "        return 1\n    except (ValueError, OSError)",
        (EXIT_CODES.format("test_domain_error_exits_2"),),
    ),
    Mutant(
        "cli-input-error-exits-2", CLI,
        "file=sys.stderr)\n        return 1\n", "file=sys.stderr)\n        return 2\n",
        (EXIT_CODES.format("test_input_error_exits_1"),),
    ),
    # The CLI's payload bytes, pinned by README's examples, the classify
    # goldens and the converge tests, and classify's required --seed.
    Mutant(
        "cli-outcome-tag-underscore", CLI,
        '{"outcome": tag[1:],', '{"outcome": tag,',
        (CLI_CONVERGE.format("test_max_iter"),),
    ),
    Mutant(
        "cli-outcome-key-last", CLI,
        '{"outcome": tag[1:], **_jsonable(outcome)}', '{**_jsonable(outcome), "outcome": tag[1:]}',
        (CLI_CONVERGE.format("test_max_iter"),),
    ),
    Mutant(
        "cli-separators-spaced", CLI,
        'separators=(",", ":")', 'separators=(", ", ": ")',
        (CLI_CONVERGE.format("test_negative_zero_start_prints_plus_zero"), README_EXAMPLES),
    ),
    Mutant(
        "cli-json-ints-not-floats", CLI,
        "json.loads(text, parse_int=float)", "json.loads(text)",
        (README_EXAMPLES,),
    ),
    Mutant(
        "cli-csv-switch-ignored", CLI,
        'orbit_csv(trace) if args.format == "csv" else trace', "trace",
        (README_EXAMPLES,),
    ),
    Mutant(
        "cli-payload-newline", CLI,
        "    sys.stdout.write(result)\n", '    sys.stdout.write(result + "\\n")\n',
        ("tests/test_cli.py::TestClassifyCommand::test_golden_payload",),
    ),
    Mutant(
        "cli-seed-optional", CLI,
        '"--seed", type=int, required=True,', '"--seed", type=int, default=0,',
        (EXIT_CODES.format("test_input_error_exits_1[missing_seed]"),),
    ),
    # The oracles' pointwise brackets.
    Mutant(
        "ref-strict-inclusive", ORACLES,
        "and lo_c + t < nnp < hi_c - t", "and lo_c - t <= nnp <= hi_c + t",
        (CRITERION.format("7_strict_contraction"),),
    ),
    Mutant(
        "ref-strict-excludes-p1", ORACLES,
        "and lo_c + t < nnp < hi_c - t", "and lo_c + t < nnp < hi_c - t and p < 1.0",
        (CRITERION.format("7_strict_contraction"),),
    ),
    Mutant(
        "ref-involutive-never", ORACLES,
        "involutive = abs(nnp - p) <= t", "involutive = False",
        (CLASSIFY.format("test_theorem_decides_inside_the_slack_band"),),
    ),
    # The oracles' values.
    Mutant(
        "involutive_point-numerator+1e-6", ORACLES,
        "return (mp - p) / total", "return (mp - p + 1e-6) / total",
        (BIT_IDENTICAL, CRITERION.format("6_ranges_and_fixed_points")),
    ),
    Mutant(
        "involutive_point-mp-2max", ORACLES,
        "mp = max(values) + min(values)", "mp = 2 * max(values)",
        (BIT_IDENTICAL,),
    ),
    Mutant(
        "linear_point-alpha/(n+1)", ORACLES,
        "return alpha / n + (1.0 - alpha)", "return alpha / (n + 1) + (1.0 - alpha)",
        (BIT_IDENTICAL, CRITERION.format("3_closed_form_oracle"),
         CRITERION.format("6_ranges_and_fixed_points")),
    ),
    Mutant(
        "linear_point-divisor-n", ORACLES,
        "(1.0 - alpha) * (1.0 - p) / (n - 1)", "(1.0 - alpha) * (1.0 - p) / n",
        (BIT_IDENTICAL, CRITERION.format("3_closed_form_oracle"),
         CRITERION.format("6_ranges_and_fixed_points")),
    ),
    Mutant(
        "yager_point-divisor-n", ORACLES,
        "return (1.0 - p) / (n - 1)", "return (1.0 - p) / n",
        (BIT_IDENTICAL, CRITERION.format("3_closed_form_oracle"),
         CRITERION.format("6_ranges_and_fixed_points")),
    ),
    Mutant(
        "yager_power_point-sign", ORACLES,
        "(-1) ** k * (p - 1.0 / n)", "(-1) ** (k + 1) * (p - 1.0 / n)",
        (CRITERION.format("3_closed_form_oracle"),
         "tests/test_dynamics.py::TestClosedForms::test_yager_form_matches_linear_form"),
    ),
]


def copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    dest.mkdir()
    for name in COPIED:
        if (ROOT / name).is_dir():
            shutil.copytree(ROOT / name, dest / name, ignore=ignore)
        else:
            shutil.copy2(ROOT / name, dest / name)


def pytest(copy: Path, tests) -> tuple[int | None, str]:
    """pytest's exit code on ``tests`` in ``copy`` (None if it timed out),
    and its output, which ends with the ``-rf`` summary of failures."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=f"{copy / 'src'}{os.pathsep + path if path else ''}")
    cmd = [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider", *tests]
    try:
        run = subprocess.run(
            cmd, cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return None, f"timed out after {TIMEOUT_S} s"
    return run.returncode, run.stdout + run.stderr


def unfailed(tests, out: str) -> list[str]:
    """The tests that the ``-rf`` summary in ``out`` does not list as
    failed; a test named without its parameters is failed by any case."""
    ids = [line[7:].split(" - ")[0] for line in out.splitlines() if line.startswith("FAILED ")]
    return [t for t in tests if not any(i == t or i.startswith(t + "[") for i in ids)]


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="pdnegate-mutants-") as tmp:
        base = Path(tmp) / "unmutated"
        copy_tree(base)
        tests = list(dict.fromkeys(t for m in MUTANTS for t in m.tests))
        code, out = pytest(base, tests)
        if code != 0:
            print(f"unmutated copy: pytest exited {code}\n{out}")
            return 1
        print(f"unmutated copy: the {len(tests)} named tests pass")
        shutil.rmtree(base)

        failures = 0
        for m in MUTANTS:
            copy = Path(tmp) / "mutant"
            copy_tree(copy)
            path = copy / m.file
            text = path.read_text(encoding="utf-8")
            found = text.count(m.old)
            if found != 1:
                status = f"STALE: anchor found {found} times in {m.file}"
            else:
                path.write_text(text.replace(m.old, m.new), encoding="utf-8")
                code, out = pytest(copy, m.tests)
                if code in (0, 1):
                    survived = unfailed(m.tests, out)
                    status = f"SURVIVED: {', '.join(survived)} did not fail" if survived else "killed"
                else:
                    status = f"BROKEN: pytest exited {code}\n{out}"
            shutil.rmtree(copy)
            failures += status != "killed"
            print(f"{m.name}: {status}", flush=True)
    print(f"{len(MUTANTS) - failures} of {len(MUTANTS)} mutants killed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
