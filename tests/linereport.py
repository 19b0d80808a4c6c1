"""The statements of ``src/pdnegate`` that the test suite never runs.

Runs the whole suite once, in this process, through ``pytest.main`` under
a ``sys.settrace`` line tracer that follows only frames of
``src/pdnegate``, then lists every statement none of whose own lines ran:
a simple statement's lines, or a compound statement's header (decorators
included). A compound statement also counts as run when a statement in
its body ran. Docstrings, and statements that compile to no bytecode
line, are not listed. Code run only in subprocesses, such as the
fresh-interpreter tests, is not seen, so its statements are listed.

It needs pytest and hypothesis, and is not collected by pytest. From the
repository root:

    python3 tests/linereport.py

It prints pytest's summary, then one ``path:line: text`` line per unrun
statement and their count. It exits 1 if the suite did not pass, since
its list is then incomplete, or if the unrun statements are not exactly
``EXPECTED``: the ones that run only in subprocesses.
"""

import ast
import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "pdnegate"

# ``path: text`` of each statement that only subprocesses run: the lazy
# ``__dir__`` body, the ``TYPE_CHECKING`` imports, and ``main()`` with its
# ``__main__`` guard. Line numbers are left out, so that an edit above a
# statement does not move it.
EXPECTED = sorted([
    'src/pdnegate/__init__.py: if "__all__" not in globals():',
    "src/pdnegate/__init__.py: _load()",
    "src/pdnegate/__init__.py: return list(globals())",
    "src/pdnegate/cli.py: from .analysis import ClassificationReport",
    "src/pdnegate/cli.py: from .dynamics import OrbitTrace",
    "src/pdnegate/cli.py: raise SystemExit(run())",
    "src/pdnegate/cli.py: main()",
])


def code_lines(code) -> set[int]:
    """The lines that ``code`` and the code objects nested in it hold
    bytecode for."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= code_lines(const)
    return lines


def is_docstring(node, parent) -> bool:
    return (
        isinstance(parent, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and parent.body[0] is node
        and isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


def child_statements(node) -> list[ast.stmt]:
    """The statements directly nested in ``node``: its body, else and
    handler blocks, and the bodies of a ``match``'s cases."""
    found = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.stmt):
            found.append(child)
        elif isinstance(child, (ast.excepthandler, ast.match_case)):
            found.extend(child_statements(child))
    return found


def unrun(path: Path, ran: set[int]) -> list[tuple[int, str]]:
    """``(line, text)`` of each statement in ``path`` with bytecode that
    did not run, given the lines that ran."""
    source = path.read_text(encoding="utf-8")
    executable = code_lines(compile(source, str(path), "exec"))
    text = source.splitlines()
    found = []

    def visit(node, parent) -> bool:
        """Whether ``node`` ran, listing it if it did not."""
        children = child_statements(node)
        runs = [visit(child, node) for child in children]
        if not isinstance(node, ast.stmt):
            return any(runs)
        start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        if children:
            own = range(start, max(children[0].lineno, node.lineno + 1))
        else:
            own = range(start, node.end_lineno + 1)
        done = any(runs) or not ran.isdisjoint(own)
        if not done and not executable.isdisjoint(own) and not is_docstring(node, parent):
            found.append((node.lineno, text[node.lineno - 1].strip()))
        return done

    visit(ast.parse(source), None)
    return sorted(found)


def main() -> int:
    files = {str(p): p for p in sorted(PACKAGE.glob("*.py"))}
    ran = {name: set() for name in files}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename in ran else None

    # The package must load from src/, here and in the subprocesses the
    # suite starts, and only after the tracer is on.
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    path = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    sys.settrace(tracer)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"])
    finally:
        sys.settrace(None)

    found = []
    for name, path in files.items():
        for line, text in unrun(path, ran[name]):
            print(f"{path.relative_to(ROOT)}:{line}: {text}")
            found.append(f"{path.relative_to(ROOT)}: {text}")
    print(f"{len(found)} statements in src/pdnegate never run")
    if sorted(found) != EXPECTED:
        print("expected exactly:", *EXPECTED, sep="\n  ")
        return 1
    return 0 if code == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
