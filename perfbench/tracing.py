"""Benchmark-side tracing: wrappers around the public functions of each
layer of ``shifted_crystals``, recording one span per call plus the counts
the per-layer metrics need.

A wrapper replaces every module attribute of the package that binds the
original function (``graph.apply``, ``expansion.build_graph``,
``cli.build_graph`` ...), so calls between modules are seen.  Spans stay in
memory until the verb process writes them out at its end.
"""

from __future__ import annotations

import sys
from time import perf_counter

PACKAGE = "shifted_crystals"
_OP_SPAN = {"F": "ops.F", "F'": "ops.Fp", "E": "ops.E", "E'": "ops.Ep"}


def _fixed(name):
    return lambda args: name


# (home module, function, span name from the call's arguments)
TRACED = (
    ("tableaux", "enumerate_tableaux", _fixed("tableaux.enumerate")),
    ("ops", "apply", lambda args: _OP_SPAN[args[0].family]),
    ("graph", "build_graph", _fixed("graph.build")),
    ("graph", "export_json", _fixed("graph.export_json")),
    ("graph", "import_json", _fixed("graph.import_json")),
    ("graph", "components", _fixed("graph.components")),
    ("graph", "highest_weight", _fixed("graph.highest_weight")),
    ("axioms", "check", lambda args: f"axioms.{args[1]}"),
    ("axioms", "check_all", _fixed("axioms.check_all")),
    ("expansion", "verify_expansion", _fixed("expansion.verify")),
    ("expansion", "genfun", _fixed("expansion.genfun")),
    ("expansion", "genfun_weighted", _fixed("expansion.genfun")),
    ("expansion", "schur_P", _fixed("expansion.schur")),
    ("expansion", "schur_Q", _fixed("expansion.schur")),
    ("cli", "run", lambda args: f"cli.{args[0][0]}"),
)

COUNTS = (
    "tableaux.count",
    "ops.calls",
    "ops.defined",
    "ops.distinct_keys",
    "graph.json_bytes",
    "graph.components",
    "axioms.violations",
    "expansion.terms",
)


class TracingError(RuntimeError):
    """A function the trace must wrap does not exist in the program."""


class Tracer:
    """Records spans as ``(name, start, end, parent, trace_id)`` tuples;
    ``parent`` is the index of the enclosing span or -1."""

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.trace_id = 0
        self._stack: list[int] = []
        self._counts = dict.fromkeys(COUNTS, 0)
        self._keys: set = set()

    def install(self) -> None:
        """Wrap every function of TRACED in the imported package; raises
        TracingError, before wrapping anything, if one is missing."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        originals = []
        for module_name, func_name, span_name in TRACED:
            home = sys.modules.get(f"{PACKAGE}.{module_name}")
            original = getattr(home, func_name, None)
            if original is None:
                raise TracingError(f"{PACKAGE}.{module_name}.{func_name} is missing")
            originals.append((original, func_name, span_name))
        for original, func_name, span_name in originals:
            wrapper = self._wrap(original, span_name, getattr(self, f"_count_{func_name}", None))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    def _wrap(self, fn, span_name, count):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[sid] = (span_name(args), start, end, parent, self.trace_id)
            if count is not None:
                count(args, result)
            return result

        return traced

    def _count_enumerate_tableaux(self, args, result) -> None:
        self._counts["tableaux.count"] += len(result)

    def _count_apply(self, args, result) -> None:
        kind, word = args
        self._counts["ops.calls"] += 1
        self._counts["ops.defined"] += result is not None
        self._keys.add((word.codes, kind.index, kind.lowering))

    def _count_export_json(self, args, result) -> None:
        self._counts["graph.json_bytes"] += len(result.encode("utf-8"))

    def _count_components(self, args, result) -> None:
        self._counts["graph.components"] += len(result)

    def _count_check_all(self, args, result) -> None:
        self._counts["axioms.violations"] += result.total_violations

    def _count_verify_expansion(self, args, result) -> None:
        self._counts["expansion.terms"] += len(result.expansion.terms)

    def counts(self) -> dict[str, int]:
        out = dict(self._counts)
        out["ops.distinct_keys"] = len(self._keys)
        return out

    def dump(self) -> dict:
        """Spans in a compact form: names once, then index rows."""
        names: dict[str, int] = {}
        rows = []
        for name, start, end, parent, trace_id in self.spans:
            rows.append([names.setdefault(name, len(names)), start, end, parent, trace_id])
        return {"names": list(names), "spans": rows, "counts": self.counts()}


def self_times(dump: dict) -> dict[str, float]:
    """Per span name, the summed self time: duration minus the durations of
    the span's direct children (children nest inside their parent)."""
    names, rows = dump["names"], dump["spans"]
    child_time = [0.0] * len(rows)
    for _, start, end, parent, _ in rows:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, float] = {}
    for k, (name, start, end, _, _) in enumerate(rows):
        key = names[name]
        out[key] = out.get(key, 0.0) + (end - start) - child_time[k]
    return out
