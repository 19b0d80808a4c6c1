"""Spans around the calls into pdnegate's public functions, for the
per-layer metrics of the traced run.

``Tracer.install`` replaces each traced function, in every pdnegate
module that binds it, with a wrapper that records a span: its duration,
and the time covered by the traced calls made inside it. A span's self
time is its duration minus that child time. The program's files are not
touched; ``uninstall`` puts the original functions back.

The layers nest cli -> analysis -> dynamics -> negators -> simplex.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

# (module, function, whether to count the values of the returned Dist)
TARGETS = [
    ("simplex", "make_dist", True),
    ("negators", "negate", True),
    ("dynamics", "converge", False),
    ("dynamics", "iterate", False),
    ("analysis", "classify", False),
    ("analysis", "random_dist", False),
    ("cli", "run", False),
]


@dataclass
class Span:
    calls: int = 0
    total: float = 0.0
    own: float = 0.0
    values: int = 0


@dataclass
class Edge:
    calls: int = 0
    total: float = 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    def __init__(self) -> None:
        self.spans: dict[str, Span] = defaultdict(Span)
        self.edges: dict[tuple[str, str], Edge] = defaultdict(Edge)
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for layer, name, count_values in TARGETS:
            home = importlib.import_module(f"pdnegate.{layer}")
            original = getattr(home, name)
            wrapper = self._wrap(f"{layer}.{name}", original, count_values)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] != "pdnegate":
                    continue
                if getattr(mod, name, None) is original:
                    setattr(mod, name, wrapper)
                    self._patches.append((mod, name, original))

    def uninstall(self) -> None:
        for mod, name, original in reversed(self._patches):
            setattr(mod, name, original)
        self._patches.clear()

    def _wrap(self, key: str, fn, count_values: bool):
        stack, span, edges = self._stack, self.spans[key], self.edges

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [key, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                stack.pop()
                span.calls += 1
                span.total += elapsed
                span.own += elapsed - frame[1]
                if parent is not None:
                    parent[1] += elapsed
                    edge = edges[(parent[0], key)]
                    edge.calls += 1
                    edge.total += elapsed
            if count_values:
                span.values += result.n
            return result

        return traced

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics by name, as (value, unit). A layer that made
        no call in the run reads 0."""
        s, e = self.spans, self.edges
        make_dist, negate = s["simplex.make_dist"], s["negators.negate"]
        converge, iterate = s["dynamics.converge"], s["dynamics.iterate"]
        classify, random_dist = s["analysis.classify"], s["analysis.random_dist"]
        run = s["cli.run"]
        orbit_calls = converge.calls + iterate.calls
        return {
            "simplex.make_dist.calls": (make_dist.calls, "count"),
            "simplex.make_dist.values_per_s": (
                _ratio(make_dist.values, make_dist.total), "values/s"),
            "negators.negate.calls": (negate.calls, "count"),
            "negators.negate.values_per_s": (_ratio(negate.values, negate.own), "values/s"),
            "negators.negate.self_us_per_call": (_ratio(negate.own, negate.calls) * 1e6, "us"),
            "negators.negate.validate_share": (
                _ratio(e[("negators.negate", "simplex.make_dist")].total, negate.total),
                "ratio"),
            "dynamics.converge.calls": (converge.calls, "count"),
            "dynamics.iterate.calls": (iterate.calls, "count"),
            "dynamics.negate_per_converge": (
                _ratio(e[("dynamics.converge", "negators.negate")].calls, converge.calls),
                "ratio"),
            "dynamics.self_us_per_call": (
                _ratio(converge.own + iterate.own, orbit_calls) * 1e6, "us"),
            "analysis.classify.calls": (classify.calls, "count"),
            "analysis.classify.self_ms_per_call": (
                _ratio(classify.own, classify.calls) * 1e3, "ms"),
            "analysis.random_dist.us_per_call": (
                _ratio(random_dist.total, random_dist.calls) * 1e6, "us"),
            "analysis.negate_per_classify": (
                _ratio(e[("analysis.classify", "negators.negate")].calls, classify.calls),
                "ratio"),
            "cli.run_ms": (_ratio(run.total, run.calls) * 1e3, "ms"),
        }
