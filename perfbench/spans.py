"""Span and call-count tracing for the decision benchmark's traced run.

The tracer wraps public library functions from outside the library: it
replaces the function object in every ``fanforge`` module namespace that
holds it (``generators`` imports ``extend_basis`` from ``levels``, the CLI
imports ``build_isomorphism``, and so on), and methods on their class.
Each span records a name, start, end, parent span and the decision that
caused it; spans stay in memory until the run writes them out.  A span's
self time is its duration minus the durations of its child spans.
Functions hot enough that a span would distort the run are counted only.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter

# (module, attribute path, mode) per traced function.  Mode "span" records
# a span and a call count, "count" only a call count.
TARGETS = [
    ("cli", "main", "span"),
    ("isomorphism", "build_isomorphism", "span"),
    ("isomorphism", "is_ars_morphism", "span"),
    ("isomorphism", "forest_canonical", "span"),
    ("isomorphism", "check_forest", "span"),
    ("spectral", "FanSpace.__init__", "span"),
    ("spectral", "Forest.pred_nodes", "span"),
    ("spectral", "Forest.descendants", "span"),
    ("spectral", "Forest.stratum", "span"),
    ("ternary", "validate_table", "span"),
    ("ternary", "enumerate_characters", "span"),
    ("ternary", "fan_report", "span"),
    ("ternary", "pointwise_product", "count"),
    ("ternary", "zero_set_order", "count"),
    ("chains", "chain_to_table", "span"),
    ("chains", "table_to_chain_with_map", "span"),
    ("chains", "roundtrip_isomorphism", "span"),
    ("chains", "chain_char_to_table_char", "span"),
    ("chains", "evaluate_element", "count"),
    ("levels", "verify_involution", "span"),
    ("levels", "extend_basis", "span"),
    ("levels", "closure", "span"),
    ("levels", "is_dependent", "count"),
    ("generators", "standard_generating_system", "span"),
    ("generators", "verify_sgs", "span"),
    ("generators", "fiber_tower_basis", "count"),
    ("gf2", "rank", "count"),
    ("gf2", "affine_span", "count"),
    ("gf2", "Solver.solve", "count"),
    ("gf2", "pullback", "count"),
    ("formats", "parse_chain", "span"),
    ("formats", "parse_forest", "span"),
    ("formats", "serialize_forest", "span"),
] + [("suite", f"check_{name}", "span") for name in (
    "cardinality", "specialization_equivalence", "zero_set_transport",
    "fan_closure", "product_identities", "chain_table_agreement",
    "forest_regularity", "involutions", "sgs", "roundtrip", "self_isomorphism")]


def span_name(module: str, path: str) -> str:
    return f"{module}.{path.replace('__init__', 'init')}"


def metric_names() -> list[tuple[str, str]]:
    """(metric, unit) for every per-layer metric the traced run reports."""
    out = []
    for module, path, mode in TARGETS:
        name = span_name(module, path)
        if module == "suite":
            out.append((f"{name}.total_s", "s"))
            continue
        out.append((f"{name}.calls", "count"))
        if mode == "span":
            out.append((f"{name}.self_s", "s"))
    out.append(("spectral.FanSpace.chars_built", "count"))
    return out


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[list] = []      # [name index, start, end, parent, decision]
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.decision = -1
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers -------------------------------------------------------------

    def _span(self, fn, name: str, after=None):
        idx = len(self.names)
        self.names.append(name)
        spans, stack, counts = self.spans, self.stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            me = len(spans)
            record = [idx, 0.0, 0.0, stack[-1] if stack else -1, self.decision]
            spans.append(record)
            stack.append(me)
            record[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
                if after is not None:
                    after(args)
        return wrapper

    def _count(self, fn, name: str):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _chars_built(self, args) -> None:
        space = args[0]
        self.counts["spectral.FanSpace.chars_built"] += len(getattr(space, "chars", ()))

    # -- patching -------------------------------------------------------------

    def install(self) -> None:
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "fanforge" or name.startswith("fanforge.")}
        for module, path, mode in TARGETS:
            owner = modules[f"fanforge.{module}"]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            name = span_name(module, path)
            if mode == "count":
                wrapped = self._count(original, name)
            else:
                after = self._chars_built if path == "FanSpace.__init__" else None
                wrapped = self._span(original, name, after)
            if cls_path:
                self._set(owner, attr, wrapped)
                continue
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapped)

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # -- results --------------------------------------------------------------

    def self_times(self) -> list[float]:
        out = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                out[s[3]] -= s[2] - s[1]
        return out

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric: call counts, summed self times, suite totals."""
        self_s: dict[str, float] = defaultdict(float)
        total_s: dict[str, float] = defaultdict(float)
        for s, own in zip(self.spans, self.self_times()):
            name = self.names[s[0]]
            self_s[name] += own
            total_s[name] += s[2] - s[1]
        out: dict[str, float] = {}
        for metric, _ in metric_names():
            name, _, kind = metric.rpartition(".")
            if kind == "calls":
                out[metric] = self.counts.get(name, 0)
            elif kind == "self_s":
                out[metric] = self_s.get(name, 0.0)
            elif kind == "total_s":
                out[metric] = total_s.get(name, 0.0)
            else:
                out[metric] = self.counts.get(metric, 0)
        return out

    def by_group(self, groups: list[str | None],
                 rows: tuple[str, ...]) -> dict[str, dict[str, tuple[int, float]]]:
        """Per group of decisions, (calls, inclusive seconds per call) of each
        row; groups[i] names the group of decision i, None leaves it out."""
        acc: dict[str, dict[str, list]] = defaultdict(lambda: defaultdict(lambda: [0, 0.0]))
        for s in self.spans:
            name = self.names[s[0]]
            group = groups[s[4]] if s[4] >= 0 else None
            if name in rows and group is not None:
                cell = acc[group][name]
                cell[0] += 1
                cell[1] += s[2] - s[1]
        return {group: {name: (c, t / c) for name, (c, t) in cells.items()}
                for group, cells in acc.items()}

    def dump(self, path, decisions: list[str]) -> None:
        """Write every span (name, start, end, parent, decision) as JSON."""
        with open(path, "w") as fh:
            json.dump({"names": self.names, "decisions": decisions,
                       "fields": ["name", "start", "end", "parent", "decision"],
                       "spans": self.spans, "counts": dict(self.counts)}, fh)
