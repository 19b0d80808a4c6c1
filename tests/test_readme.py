"""README.md as a contract: its Quick start runs and says what it prints,
and its API section lists, under each module, exactly the names that
module exports."""

import importlib
import re
from pathlib import Path

import pdnegate
from pdnegate import Converged, max_abs_diff

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


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


def _api_groups():
    """README's API section as {module: the names listed under its
    `pdnegate.<module>`: group}; no module has two groups."""
    groups = re.findall(r"^`pdnegate\.(\w+)`:\n\n((?:- .*\n)+)", _section("API"), re.M)
    listed = {module: re.findall(r"^- `(\w+)", names, re.M) for module, names in groups}
    assert len(listed) == len(groups)
    return listed


class TestPublicSurface:
    """A new export has to be added to README's API section on purpose,
    under the module that exports it, once."""

    def test_all_is_pinned(self):
        assert sorted(sum(_api_groups().values(), [])) == sorted(pdnegate.__all__)

    def test_api_section_lists_every_export_once(self):
        for module, names in _api_groups().items():
            assert sorted(names) == sorted(importlib.import_module(f"pdnegate.{module}").__all__)
