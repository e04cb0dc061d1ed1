"""Spans and counts at gapchart's layer boundaries, recorded from outside.

The tracer replaces each layer's entry points with a wrapper that records
a span (name, start, end, parent) in memory and counts outcomes. A
function is patched where the calling module imported it, never inside
its own module, so only calls that cross a layer boundary are spans:
recursion inside `terms` or `lf` is part of that call's span.

A layer's self time is the time of its spans minus the time of their
direct child spans. Layers are named after gapchart's modules.
"""

from __future__ import annotations

import array
import statistics
import time
from collections import Counter

import gapchart
import gapchart.chart as chart_mod
import gapchart.engine as engine_mod
import gapchart.scoring as scoring_mod
import gapchart.semantics as semantics_mod

# the terms functions other modules import; each call is a span
_TERMS_FUNCS = ("unify_values", "refresh", "resolve", "subsumes", "variants",
                "seq_subsumes", "canonical", "canonical_seq")
_SUBSUMPTION = ("terms.subsumes", "terms.variants", "terms.seq_subsumes")

# (owner, attribute, span name)
_SITES = [
    (gapchart, "load_grammar", "grammar.load"),
    (gapchart, "parse_grammar", "grammar.load"),
    (gapchart, "compile_tables", "tables.compile"),
    (engine_mod, "compile_tables", "tables.compile"),
    (gapchart, "parse", "engine.parse"),
    (scoring_mod, "parse", "engine.parse"),
    (engine_mod.ParseResult, "trees", "engine.unpack"),
    (engine_mod.ParseResult, "complete_readings", "engine.complete_readings"),
    (chart_mod.Chart, "add_edge", "chart.add_edge"),
    (chart_mod.Chart, "add_prediction", "chart.add_prediction"),
    (engine_mod, "combine_readings", "semantics.combine"),
    (engine_mod, "lexical_instance", "semantics.lexical_instance"),
    (semantics_mod, "unify_sorts", "lf.unify_sorts"),
    (gapchart, "rescore", "scoring.rescore"),
    (gapchart, "min_fragment_cover", "scoring.cover"),
    (scoring_mod, "min_fragment_cover", "scoring.cover"),
    (scoring_mod, "edge_dispreference", "scoring.dispreference"),
] + [
    (module, func, f"terms.{func}")
    for module in (engine_mod, chart_mod, semantics_mod)
    for func in _TERMS_FUNCS
    if hasattr(module, func)
]

class Tracer:
    """Patches the sites on entry and restores them on exit; one instance
    records one traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array.array("i")
        self.span_parent = array.array("i")
        self.span_start = array.array("q")
        self.span_end = array.array("q")
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.parses: list = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        handlers = {
            "chart.add_edge": self._on_edge,
            "chart.add_prediction": self._on_prediction,
            "terms.unify_values": self._on_unify,
            "semantics.combine": self._on_combine,
            "engine.parse": self.parses.append,
        }
        for owner, attr, name in _SITES:
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, handlers.get(name)))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, name: str, fn, on_result):
        nid = self._name_ids.setdefault(name, len(self._name_ids))
        if nid == len(self.names):
            self.names.append(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _on_edge(self, result) -> None:
        self.counts[f"chart.edges_{result[1]}"] += 1

    def _on_prediction(self, outcome) -> None:
        self.counts[f"chart.preds_{outcome}"] += 1

    def _on_unify(self, binds) -> None:
        if binds is None:
            self.counts["terms.unify_fail"] += 1

    def _on_combine(self, readings) -> None:
        self.counts["semantics.readings"] += len(readings)
        if not readings:
            self.counts["semantics.vetoes"] += 1

    # -- reading the record ------------------------------------------------

    def span_totals(self) -> dict[str, tuple[int, int, int]]:
        """Per span name: (calls, inclusive ns, self ns)."""
        n = len(self.span_name)
        child_ns = [0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child_ns[p] += self.span_end[i] - self.span_start[i]
        calls: Counter = Counter()
        total: Counter = Counter()
        own: Counter = Counter()
        for i in range(n):
            name = self.names[self.span_name[i]]
            dur = self.span_end[i] - self.span_start[i]
            calls[name] += 1
            total[name] += dur
            own[name] += dur - child_ns[i]
        return {name: (calls[name], total[name], own[name]) for name in calls}

    def write_spans(self, path) -> None:
        t0 = self.span_start[0] if len(self.span_start) else 0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart_ns\tend_ns\n")
            for i in range(len(self.span_name)):
                fh.write(f"{i}\t{self.span_parent[i]}\t{self.names[self.span_name[i]]}"
                         f"\t{self.span_start[i] - t0}\t{self.span_end[i] - t0}\n")


def _ratio(part: float, base: float) -> float:
    return part / base if base else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer counts, times and ratios of one traced pass. Call it
    after the tracer has exited: reading parse statistics calls terms
    functions that must not be recorded."""
    spans = tracer.span_totals()
    counts = tracer.counts

    def calls(name: str) -> int:
        return spans.get(name, (0, 0, 0))[0]

    def seconds(name: str) -> float:
        return spans.get(name, (0, 0, 0))[1] / 1e9

    self_s = Counter()
    for name, (_, _, own) in spans.items():
        self_s[name.split(".", 1)[0]] += own / 1e9

    work = Counter()
    for result in tracer.parses:
        strategy = result.tables.strategy
        edges = result.chart.edges_created
        gap_edges = sum(e.backbone in result.grammar.cd for e in result.chart.edges)
        work["engine.edges"] += edges
        work["engine.predictions"] += result.chart.preds_created
        work["engine.complete"] += result.stats.complete
        work[f"engine.edges.{strategy}"] += edges
        work[f"engine.gap_edges.{strategy}"] += gap_edges
        work[f"engine.predictions.{strategy}"] += result.chart.preds_created

    add_edge = calls("chart.add_edge")
    unify = calls("terms.unify_values")
    combine = calls("semantics.combine")
    return {
        "grammar.load_s": seconds("grammar.load"),
        "tables.compile_calls": calls("tables.compile"),
        "tables.compile_s": seconds("tables.compile"),
        "engine.parse_calls": calls("engine.parse"),
        "engine.self_s": self_s["engine"],
        "engine.edges": work["engine.edges"],
        "engine.predictions": work["engine.predictions"],
        "engine.complete": work["engine.complete"],
        **{f"engine.edges.{s}": work[f"engine.edges.{s}"] for s in ("bu", "llc", "lc")},
        **{f"engine.gap_edges.{s}": work[f"engine.gap_edges.{s}"]
           for s in ("bu", "llc", "lc")},
        **{f"engine.predictions.{s}": work[f"engine.predictions.{s}"]
           for s in ("llc", "lc")},
        "engine.unpack_calls": calls("engine.unpack"),
        "engine.unpack_s": seconds("engine.unpack"),
        "chart.add_edge_calls": add_edge,
        "chart.edges_new": counts["chart.edges_new"],
        "chart.edges_packed": counts["chart.edges_packed"],
        "chart.edges_duplicate": counts["chart.edges_duplicate"],
        "chart.edges_replaced": counts["chart.edges_replaced"],
        "chart.add_edge_useful_ratio": _ratio(add_edge - counts["chart.edges_duplicate"],
                                              add_edge),
        "chart.self_s": self_s["chart"],
        "chart.add_prediction_calls": calls("chart.add_prediction"),
        "chart.preds_ok": counts["chart.preds_ok"],
        "chart.preds_lookahead": counts["chart.preds_lookahead"],
        "chart.preds_duplicate": counts["chart.preds_duplicate"],
        "terms.unify_calls": unify,
        "terms.unify_fail_ratio": _ratio(counts["terms.unify_fail"], unify),
        "terms.refresh_calls": calls("terms.refresh"),
        "terms.resolve_calls": calls("terms.resolve"),
        "terms.subsumes_calls": sum(calls(n) for n in _SUBSUMPTION),
        "terms.self_s": self_s["terms"],
        "semantics.combine_calls": combine,
        "semantics.readings": counts["semantics.readings"],
        "semantics.veto_ratio": _ratio(counts["semantics.vetoes"], combine),
        "semantics.self_s": self_s["semantics"],
        "lf.unify_sorts_calls": calls("lf.unify_sorts"),
        "lf.self_s": self_s["lf"],
        "scoring.cover_calls": calls("scoring.cover"),
        "scoring.cover_s": seconds("scoring.cover"),
        "scoring.dispreference_s": seconds("scoring.dispreference"),
        "scoring.self_s": self_s["scoring"],
        "trace.spans": len(tracer.span_name),
    }


def median_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    """Counts and ratios from the first pass; times as medians."""
    out = dict(passes[0])
    for name in out:
        if name.endswith("_s"):
            out[name] = statistics.median(p[name] for p in passes)
    return out


def count_drift(passes: list[dict[str, float]]) -> list[str]:
    """Count metrics that differ between passes over the same inputs."""
    drift = []
    for name, first in passes[0].items():
        if name.endswith("_s"):
            continue
        others = {p[name] for p in passes[1:]}
        if others - {first}:
            drift.append(f"{name}: {first} vs {sorted(others)}")
    return drift
