"""What a fresh interpreter loads. ``import pdnegate`` loads no submodule
until a name is looked up, and each CLI subcommand loads only the modules
it uses. Every check runs in a child process, because this one has long
since imported the whole package."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pdnegate

SRC = str(Path(pdnegate.__file__).resolve().parent.parent)

# What every subcommand loads, and what each loads on top of that.
BASE = {"pdnegate", "pdnegate.errors", "pdnegate.simplex", "pdnegate.negators"}
EXTRA = {
    "negate --negator yager --dist 0.2,0.8": set(),
    "entropy --dist 0.2,0.8": set(),
    "iterate --negator yager --dist 0.2,0.8 -k 2 --format csv": {"pdnegate.dynamics"},
    "converge --negator yager --dist 0.2,0.8": {"pdnegate.dynamics"},
    "classify --negator yager --n 3 --samples 5 --seed 1": {"pdnegate.analysis"},
    "fixed-point --negator yager --n 3": {"pdnegate.analysis"},
}


def _python(*args):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, *args], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def _fresh(code):
    """The JSON that ``code`` prints, run in a fresh interpreter."""
    return json.loads(_python("-c", code).stdout)


def _loaded_by_cli(*argv):
    """The pdnegate modules ``python -m pdnegate.cli argv`` imports, read
    from its ``-X importtime`` report on stderr."""
    proc = _python("-X", "importtime", "-m", "pdnegate.cli", *argv)
    names = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
             if line.startswith("import time:")}
    return {name for name in names if name.split(".")[0] == "pdnegate"}


class TestLazyLoading:
    def test_import_loads_no_submodule(self):
        loaded = _fresh(
            "import json, sys, pdnegate\n"
            "print(json.dumps(sorted(m for m in sys.modules if m.startswith('pdnegate'))))"
        )
        assert loaded == ["pdnegate"]

    @pytest.mark.parametrize("command", EXTRA, ids=lambda c: c.split()[0])
    def test_cli_loads_only_its_subcommands_modules(self, command):
        assert _loaded_by_cli(*command.split()) == BASE | EXTRA[command]


class TestLazyNamespace:
    def test_submodule_resolves_first(self):
        assert _fresh(
            "import json, pdnegate\nprint(json.dumps(pdnegate.simplex.__name__))"
        ) == "pdnegate.simplex"

    def test_dir_lists_all_first(self):
        assert _fresh(
            "import json, pdnegate\n"
            "d = set(dir(pdnegate))\n"
            "print(json.dumps(d >= set(pdnegate.__all__)))"
        )

    def test_unknown_name_raises_attribute_error(self):
        # Once before the submodules load and once after.
        assert _fresh(
            "import json, pdnegate\n"
            "out = []\n"
            "for _ in range(2):\n"
            "    try:\n"
            "        pdnegate.no_such_name\n"
            "    except AttributeError as exc:\n"
            "        out.append(str(exc))\n"
            "print(json.dumps(out))"
        ) == ["module 'pdnegate' has no attribute 'no_such_name'"] * 2

    def test_names_are_the_submodules_objects(self):
        assert _fresh(
            "import json, pdnegate\n"
            "print(json.dumps(pdnegate.negate is pdnegate.negators.negate))"
        )

    def test_all_and_star_import(self):
        # __all__ lists the submodules' own __all__ in order, and a star
        # import as the first access binds exactly those names.
        result = _fresh(
            "import json\n"
            "ns = {}\n"
            "exec('from pdnegate import *', ns)\n"
            "del ns['__builtins__']\n"
            "import pdnegate\n"
            "from pdnegate import analysis, dynamics, errors, negators, simplex\n"
            "mods = (errors, simplex, negators, dynamics, analysis)\n"
            "print(json.dumps([pdnegate.__all__, [n for m in mods for n in m.__all__],"
            " sorted(ns)]))"
        )
        names, expected, star = result
        assert names == expected
        assert star == sorted(names)
