"""Spans recorded from outside the program, around calls into its layers.

A wrapper replaces a public function under the name its caller uses
(``cnl4.cli.is_consequence`` and ``cnl4.nd.is_consequence`` are two
names for one function).  Recursive functions are never wrapped: their
inner calls would go through the wrapper and open one span per node.

Spans stay in memory as ``[name, layer, start, end, parent, query, result,
argument]`` lists and are summarised, or written out, at the end.  A
layer's time is the self time of its spans: duration minus the part
covered by child spans.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time

# (module, attribute, layer).  Each entry is a cross-layer call site in
# cnl4, named as the calling module sees it.  fc's own calls to formula
# helpers (size, substitute, format_formula in the closure's inner loop)
# are not wrapped: there are several hundred thousand of them per
# closure, so their cost stays in fc's self time.
PROGRAM_ENTRY_POINTS = [
    ("cnl4.cli", "parse", "formula"),
    ("cnl4.cli", "parse_sequent", "formula"),
    ("cnl4.cli", "format_formula", "formula"),
    ("cnl4.cli", "format_sequent", "formula"),
    ("cnl4.cli", "is_consequence", "matrix"),
    ("cnl4.cli", "countermodel", "matrix"),
    ("cnl4.cli", "truth_table", "matrix"),
    ("cnl4.cli", "check_option_equivalence", "relational"),
    ("cnl4.cli", "option_table_lines", "relational"),
    ("cnl4.cli", "check", "nd"),
    ("cnl4.cli", "search", "nd"),
    ("cnl4.cli", "from_json_dict", "nd"),
    ("cnl4.cli", "corpus", "nd"),
    ("cnl4.cli", "derivation_sequent", "nd"),
    ("cnl4.cli", "render_derivation", "nd"),
    ("cnl4.cli", "to_json_dict", "nd"),
    ("cnl4.cli", "verify_delta_c", "fc"),
    ("cnl4.cli", "unary_clone_closure", "fc"),
    ("cnl4.cli", "find_term_for_unary", "fc"),
    ("cnl4.matrix", "is_consequence", "matrix"),   # called by countermodel
    ("cnl4.fc", "unary_clone_closure", "fc"),      # called by find_term_for_unary
    ("cnl4.nd", "parse", "formula"),               # one call per JSON node
    ("cnl4.nd", "format_formula", "formula"),
    ("cnl4.nd", "is_consequence", "matrix"),
]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.query = -1
        self._saved: list[tuple] = []

    def wrap(self, name: str, layer: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, layer, 0.0, 0.0, stack[-1] if stack else -1,
                    self.query, None, args[0] if args else None]
            spans.append(span)
            stack.append(index)
            span[2] = clock()
            try:
                span[6] = fn(*args, **kwargs)
                return span[6]
            finally:
                span[3] = clock()
                stack.pop()

        return traced

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        """Record one span of the benchmark's own work."""
        index = len(self.spans)
        self.spans.append([name, layer, time.perf_counter(), 0.0,
                           self._stack[-1] if self._stack else -1,
                           self.query, None, None])
        self._stack.append(index)
        try:
            yield
        finally:
            self.spans[index][3] = time.perf_counter()
            self._stack.pop()

    def install(self, entry_points=PROGRAM_ENTRY_POINTS) -> None:
        """Replace each program entry point by a wrapper."""
        for module_name, attr, layer in entry_points:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self.wrap(f"{module_name}.{attr}", layer, fn))

    def uninstall(self) -> None:
        """Put back the functions :meth:`install` replaced."""
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def add(self, name: str, layer: str, start: float, end: float) -> None:
        """Record a root span timed by the caller."""
        self.spans.append([name, layer, start, end, -1, self.query, None, None])

    def dump(self, path: str) -> None:
        """Write spans as JSON lines, each result replaced by its count."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span[:6] + [span_count(span)]) + "\n")

    def load(self, path: str, parent: int, query: int) -> None:
        """Append spans a child process dumped, under span ``parent``."""
        base = len(self.spans)
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                name, layer, start, end, p, _q, count = json.loads(line)
                self.spans.append([name, layer, start, end,
                                   parent if p < 0 else base + p, query, count, None])


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s[3] - s[2] for s in spans]
    for s in spans:
        if s[4] >= 0:
            own[s[4]] -= s[3] - s[2]
    return own


def _formula_nodes(f) -> int:
    n = 0
    stack = [f]
    while stack:
        g = stack.pop()
        n += 1
        kind = type(g).__name__
        if kind == "Neg":
            stack.append(g.body)
        elif kind in ("And", "Or"):
            stack.extend((g.left, g.right))
    return n


def _derivation_nodes(d) -> int:
    n = 0
    stack = [d]
    while stack:
        node = stack.pop()
        n += 1
        stack.extend(node.premises)
    return n


def span_count(span: list) -> int:
    """The work count of one span: AST nodes parsed, interpretations
    checked, truth-table rows, derivations found, derivation nodes
    checked, closure rounds; 0 for other spans or a call that raised.
    A span loaded from a child already holds its count as an int."""
    name, result, arg = span[0], span[6], span[7]
    if isinstance(result, int) and not isinstance(result, bool):
        return result
    key = name.rsplit(".", 1)[-1]
    if key == "search":
        return int(result is not None)
    if result is None:
        return 0
    if key == "parse":
        return _formula_nodes(result)
    if key == "parse_sequent":
        return sum(_formula_nodes(f) for f in (*result.premises, result.conclusion))
    if key in ("is_consequence", "rel_consequence", "check_option_equivalence"):
        return result.checked
    if key == "truth_table":
        return len(result)
    if key == "check":
        return _derivation_nodes(arg)
    if key == "unary_clone_closure":
        return result.rounds
    return 0


# The benchmark's own loop: whatever of their time no child span covers
# is attributed to no layer.
LOOP_SPANS = ("bench.deck", "bench.query")

# span name (full, or the part after the last dot) -> metric group
_GROUPS = {
    "bench.judge": "bench.judge",
    "cli.process": "cli.process", "cli.import": "cli.import", "cnl4.cli.run": "cli.run_self",
    "parse": "formula.parse", "parse_sequent": "formula.parse",
    "format_formula": "formula.format", "format_sequent": "formula.format",
    "is_consequence": "matrix.consequence", "countermodel": "matrix.consequence",
    "truth_table": "matrix.truth_table",
    "rel_consequence": "relational.consequence",
    "check_option_equivalence": "relational.equivalence",
    "option_table_lines": "relational.tables",
    "search": "nd.search", "from_json_dict": "nd.from_json", "check": "nd.check",
    "corpus": "nd.other", "derivation_sequent": "nd.other",
    "render_derivation": "nd.other", "to_json_dict": "nd.other",
    "verify_delta_c": "fc.verify", "unary_clone_closure": "fc.closure",
    "find_term_for_unary": "fc.find",
}

#: Per-layer time metrics (ms of self time per query), in report order.
TIME_GROUPS = ["formula.parse", "formula.format", "matrix.consequence",
               "matrix.truth_table", "relational.consequence",
               "relational.equivalence", "relational.tables", "nd.search",
               "nd.from_json", "nd.check", "nd.other", "fc.closure", "fc.find",
               "fc.verify", "cli.import", "cli.run_self", "cli.process", "bench.judge"]


def layer_metrics(spans: list[list], queries: int, wall: float) -> dict:
    """Per-layer metrics from one traced run: self time per query for
    each layer group and for judging answers, work counts per query, and
    derived rates.  ``wall`` is the run's wall time, measured inside the
    ``bench.deck`` spans.

    ``trace.accounted_frac`` is the share of ``wall`` that lies in a
    layer span or in judging.  The rest is the self time of the loop
    spans: the loop's own bookkeeping, wrapper overhead, and any program
    code the workload reaches without passing a wrapped entry point.
    """
    own = self_times(spans)
    time_s = dict.fromkeys(TIME_GROUPS, 0.0)
    calls: dict = {}
    counts: dict = {}
    for span, t in zip(spans, own):
        if span[0] in LOOP_SPANS:
            continue
        key = span[0].rsplit(".", 1)[-1]
        time_s[_GROUPS.get(span[0]) or _GROUPS[key]] += t
        calls[key] = calls.get(key, 0) + 1
        c = span_count(span)
        if c:
            counts[key] = counts.get(key, 0) + c

    def per_query(x: float) -> float:
        return x / queries

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    parse_nodes = counts.get("parse", 0) + counts.get("parse_sequent", 0)
    interps = counts.get("is_consequence", 0)
    metrics = {g + "_ms": (per_query(time_s[g]) * 1000, "ms/query") for g in TIME_GROUPS}
    metrics.update({
        "formula.parse_calls": (per_query(calls.get("parse", 0) + calls.get("parse_sequent", 0)),
                                "calls/query"),
        "formula.parse_nodes_per_s": (ratio(parse_nodes, time_s["formula.parse"]), "nodes/s"),
        "matrix.consequence_calls": (per_query(calls.get("is_consequence", 0)), "calls/query"),
        "matrix.interps_checked": (per_query(interps), "interps/query"),
        "matrix.us_per_interp": (ratio(time_s["matrix.consequence"] * 1e6, interps), "us"),
        "matrix.rows": (per_query(counts.get("truth_table", 0)), "rows/query"),
        "relational.interps_checked": (per_query(counts.get("rel_consequence", 0)
                                                 + counts.get("check_option_equivalence", 0)),
                                       "interps/query"),
        "nd.search_calls": (per_query(calls.get("search", 0)), "calls/query"),
        "nd.search_found_ratio": (ratio(counts.get("search", 0), calls.get("search", 0)), "ratio"),
        "nd.check_nodes": (per_query(counts.get("check", 0)), "nodes/query"),
        "fc.closure_rounds": (per_query(counts.get("unary_clone_closure", 0)), "rounds/query"),
        "bench.wall_ms": (per_query(wall) * 1000, "ms/query"),
        "trace.accounted_frac": (ratio(sum(time_s.values()), wall), "ratio"),
    })
    return metrics
