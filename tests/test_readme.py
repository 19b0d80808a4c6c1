"""README.md as a contract: its Quick start runs and says what it prints,
and its API section lists exactly the names the package exports."""

import re
from pathlib import Path

import pdnegate
from pdnegate import Converged, max_abs_diff

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")

# A new export has to be added here and to README's API section on purpose.
PUBLIC = {
    # errors
    "SimplexError", "LengthError", "RangeError", "SumError",
    "LengthMismatchError", "DomainError",
    "NegatorSyntaxError",
    # simplex
    "Dist", "make_dist", "uniform_dist", "point_dist", "entropy",
    "linf_to_uniform", "max_abs_diff", "parse_dist",
    # negators
    "Yager", "Uniform", "Linear", "Tsallis", "Involutive", "NegatorSpec",
    "negate", "parse_negator",
    "format_negator",
    # dynamics
    "OrbitStep", "OrbitTrace", "Converged",
    "Oscillating", "MaxIterReached", "LeftDomain", "ConvergenceOutcome",
    "iterate", "linear_power_point", "contraction_factor", "converge",
    "orbit_csv",
    # analysis
    "PointVerdict", "Verdict", "ClassificationReport", "InvolutionCheck",
    "classify", "check_involution", "fixed_point",
    "random_dist",
}


def _section(heading):
    """The text under a ``## heading`` line, up to the next one."""
    _, _, rest = README.partition(f"\n## {heading}\n")
    assert rest, heading
    return rest.split("\n## ", 1)[0]


class TestQuickStart:
    def test_runs_and_prints_what_its_comments_claim(self):
        block = re.search(r"```python\n(.*?)```", _section("Quick start"), re.S)
        ns = {}
        exec(block.group(1), ns)
        assert abs(ns["entropy"](ns["p"]) - 0.775) <= 1e-12
        assert ns["report"].verdict.value == "strictly_contracting"
        assert len(ns["orbit"]) == 5
        assert isinstance(ns["res"], Converged)
        assert max_abs_diff(ns["back"], ns["p"]) <= 1e-12


class TestPublicSurface:
    def test_all_is_pinned(self):
        assert len(pdnegate.__all__) == len(PUBLIC)
        assert set(pdnegate.__all__) == PUBLIC

    def test_api_section_lists_every_export_once(self):
        listed = re.findall(r"^- `(\w+)", _section("API"), re.M)
        assert sorted(listed) == sorted(PUBLIC)
