"""The parse engine.

Bottom-up chart parsing over a context-independent backbone, with
predictions licensing the context-dependent categories. Each word's
lexical edges go in unconditionally; every new edge immediately makes
its predictions and then searches for reductions it completes, with new
edges processed depth-first as they are found. Empty categories are
added to a fixpoint at every string position.

A reduced phrase is licensed when its category is context-independent,
or when it can begin a phrase anticipated at its start position (every
category can begin itself, so directly predicted phrases are covered).

Grammar rules and prediction entries are unified as stored, against
chart categories that never contain a rule's variables. Only a match
that succeeds is copied: the new category or predicted sequence is
resolved and then renamed once, so the chart holds renamed copies only.

Each use of an edge in one derivation gets its own variables: an edge
that fills a second daughter position (only an empty edge can) is
matched and combined as a renamed copy.

Above `syn` an edge carries one reading: a derivation with several
readings goes into the chart once per reading, and each reading edge
is reduced on its own, so every reading reaches every parent.

Semantic work is memoised on the compiled tables, so every parse made
with one set of tables shares it, and a grammar keeps one set per
strategy for the parses that pass none: a lexical entry's readings are
keyed by word, entry and depth, and a reading combination by rule,
depth and the render of each daughter's reading. A full memo evicts
its least recently used entry. Every use, the first included, puts
renamed copies into the chart (a reading without variables is its own
copy), so no two readings of a chart share a variable, and no two
daughters of one combination do; that is what makes the key exact.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, Iterator

from .chart import Chart, Derivation, Edge, ForestFold
from .grammar import Grammar, Rule
from .semantics import (
    DEPTHS,
    SORTS_DEFERRED,
    SORTS_IMMEDIATE,
    SYN,
    Reading,
    combine_readings,
    lexical_instance,
    resolve_reading,
)
from .tables import CompiledTables, compile_tables
from .terms import FeatureTerm, canonical, canonical_seq, refresh, resolve, unify_values

TraceFn = Callable[[str], None]

# the memo evicts its least recently used entry beyond this many; one
# 10-best list of the rescoring benchmark uses a few dozen
MEMO_LIMIT = 256


class ConfigError(Exception):
    """The grammar cannot be parsed with the requested configuration."""


class UnknownWordError(Exception):
    """A word has no lexical entry (and robust mode is off)."""

    def __init__(self, word: str, position: int):
        self.word = word
        self.position = position
        super().__init__(f"unknown word {word!r} at position {position}")


@dataclass(frozen=True)
class ParseStats:
    words: int
    edges: int
    predictions: int
    complete: int


class ParseResult:
    """A finished chart plus the configuration that produced it."""

    def __init__(self, words: list[str], grammar: Grammar,
                 tables: CompiledTables, chart: Chart, depth: str):
        self.words = words
        self.grammar = grammar
        self.tables = tables
        self.chart = chart
        self.depth = depth

    @property
    def stats(self) -> ParseStats:
        return ParseStats(
            words=len(self.words),
            edges=self.chart.edges_created,
            predictions=self.chart.preds_created,
            complete=len(self.complete_edges()),
        )

    def complete_edges(self) -> list[Edge]:
        """Edges spanning the whole input whose category fits the start
        category."""
        start = self.grammar.start
        n = len(self.words)
        out: list[Edge] = []
        for edge in self.chart.edges:
            if edge.start != 0 or edge.end != n:
                continue
            if edge.backbone != start.backbone:
                continue
            fresh = refresh(start, {})
            if unify_values(fresh, edge.cat, {}) is not None:
                out.append(edge)
        return out

    def complete_readings(self) -> list[Reading]:
        """Fully resolved readings over all complete edges."""
        out: list[Reading] = []
        seen: set[str] = set()
        for edge in self.complete_edges():
            if edge.reading is None:
                continue
            expanded = (
                resolve_reading(edge.reading)
                if self.depth == SORTS_DEFERRED
                else [edge.reading]
            )
            for r in expanded:
                if r.render not in seen:
                    seen.add(r.render)
                    out.append(r)
        return out

    def trees(self, limit: int | None = None) -> list[str]:
        """Complete derivation trees, one s-expression each.

        The list holds every tree of every complete edge, in edge order,
        derivation order, and then `itertools.product` order over the
        daughters; `trees(n)` is exactly `trees()[:n]`. Above `syn` a
        tree is listed once per reading edge that holds it. Each tree is
        unranked from per-edge tree counts rather than expanded, so the
        first n trees cost time linear in the forest and in their own
        size, not in the number of trees. Cyclic derivations (possible only through unproductive
        chains) are cut rather than expanded.
        """
        unranker = _Unranker()
        roots = [(edge, unranker.counts.value(edge))
                 for edge in self.complete_edges()]
        # the length of `trees()[:limit]`, negative limits included
        wanted = len(range(sum(n for _, n in roots))[:limit])
        out: list[str] = []
        for edge, n in roots:
            for index in range(min(n, wanted - len(out))):
                out.append(unranker.tree(edge, index, set()))
        return out


class _Unranker:
    """Reads tree number i of an edge off per-edge tree counts: the
    derivations in order, and within one derivation the daughters'
    trees in mixed radix with the last daughter varying fastest.

    An edge whose count is settled has the same trees on every root
    path, so its derivation counts and its trees are kept and shared
    between the trees above it."""

    def __init__(self):
        self.counts = ForestFold(0, operator.add, lambda _d, ns: math.prod(ns))
        self._choices: dict[int, list[tuple[Derivation, list[int], int]]] = {}
        self._trees: dict[tuple[int, int], str] = {}

    def tree(self, edge: Edge, index: int, path: set[int]) -> str:
        """Tree number `index` of the edge below the root path `path`."""
        key = (edge.id, index)
        tree = self._trees.get(key)
        if tree is not None:
            return tree
        path.add(edge.id)
        for d, sizes, total in self._derivations(edge, path):
            if index < total:
                break
            index -= total
        parts = []
        for child, size in zip(reversed(d.daughters), reversed(sizes)):
            index, k = divmod(index, size)
            parts.append(self.tree(child, k, path))
        path.remove(edge.id)
        if d.kind == "lex":
            tree = d.word
        else:
            tree = f"({' '.join([d.rule.name, *reversed(parts)])})"
        if self.counts.settled(edge):
            self._trees[key] = tree
        return tree

    def _derivations(self, edge: Edge, path: set[int]):
        """Each derivation with its daughters' tree counts and its own."""
        choices = self._choices.get(edge.id)
        if choices is None:
            choices = []
            for d in edge.derivations:
                sizes = [self.counts.value(child, path) for child in d.daughters]
                choices.append((d, sizes, math.prod(sizes)))
            if self.counts.settled(edge):
                self._choices[edge.id] = choices
        return choices


class _Parser:
    def __init__(self, grammar: Grammar, tables: CompiledTables, depth: str,
                 lookahead: bool, robust: bool, trace: TraceFn | None):
        self.grammar = grammar
        self.tables = tables
        self.depth = depth
        self.lookahead = lookahead
        self.robust = robust
        self.trace = trace
        self.chart: Chart | None = None

    def _say(self, *fields: object) -> None:
        """Trace one tab-separated line; untraced, nothing is formatted."""
        if self.trace is not None:
            self.trace("\t".join(map(str, fields)))

    def run(self, words: list[str]) -> ParseResult:
        chart = Chart(words, self.tables, self.grammar.restrictor, self.lookahead)
        self.chart = chart
        start = self.grammar.start
        if start.backbone in self.tables.cd:
            self._predict(0, (refresh(start, {}),))
        self._empty_fixpoint(0)
        for i, word in enumerate(words):
            entries = self.grammar.lexicon.get(word, ())
            if not entries:
                if not self.robust:
                    raise UnknownWordError(word, i + 1)
                self._say("SKIP", i, word)
            for index, entry in enumerate(entries):
                cat = refresh(entry.cat, {})
                readings = self._recall((word, index, self.depth),
                                        lexical_instance, entry)
                if readings == []:
                    self._say("REJECT", "veto", f"lex:{word}", i, i + 1)
                    continue
                for edge in self._add(i, i + 1, cat, Derivation("lex", word=word),
                                      readings):
                    self._process(edge)
            self._empty_fixpoint(i + 1)
        return ParseResult(words, self.grammar, self.tables, chart, self.depth)

    # -- memoised semantics ----------------------------------------------

    def _recall(self, key: tuple, compute: Callable, *args: object):
        """The memoised `compute(grammar, *args, depth)`, as renamed
        copies of the stored readings (None stays None). The memo is
        kept in order of use, so a full one drops its least recently
        used entry."""
        memo = self.tables.memo
        got = memo.pop(key, memo)  # None is a value: syn has no readings
        if got is memo:
            if len(memo) >= MEMO_LIMIT:
                del memo[next(iter(memo))]
            got = compute(self.grammar, *args, self.depth)
        memo[key] = got
        return None if got is None else [r.renamed() for r in got]

    def _combine(self, rule: Rule, daughters: tuple[Edge, ...]) -> list[Reading] | None:
        """The readings of a phrase; None at `syn`, and [] for a veto."""
        if self.depth == SYN:
            return None
        # an edge that fills two daughter positions (an empty edge can)
        # gets fresh variables for each use after the first
        dreadings = [d.reading.renamed() if d in daughters[:i] else d.reading
                     for i, d in enumerate(daughters)]
        key = (rule.name, self.depth, tuple([r.render for r in dreadings]))
        return self._recall(key, combine_readings, rule, dreadings)

    def _add(self, start: int, end: int, cat: FeatureTerm, derivation: Derivation,
             readings: list[Reading] | None) -> Iterator[Edge]:
        """Insert a derivation once per reading (once at `syn`), and
        yield each new edge as soon as it is in the chart."""
        for reading in [None] if readings is None else readings:
            edge, outcome = self.chart.add_edge(start, end, cat, derivation, reading)
            if outcome == "new":
                if self.trace is not None:
                    self._say("ADD-EDGE", edge.id, start, end, canonical(cat))
                yield edge

    # -- control -------------------------------------------------------

    def _process(self, edge: Edge) -> None:
        # explicit stack, exact depth-first recursion order
        stack = [self._work(edge)]
        while stack:
            nxt = next(stack[-1], None)
            if nxt is None:
                stack.pop()
            else:
                stack.append(self._work(nxt))

    def _work(self, edge: Edge) -> Iterator[Edge]:
        self._make_new_predictions(edge)
        yield from self._find_new_reductions(edge)

    def _empty_fixpoint(self, pos: int) -> None:
        changed = True
        while changed:
            changed = False
            for rule in self.tables.empty_rules:
                if not self._licensed(rule.head.backbone, pos):
                    continue
                head = refresh(rule.head, {})
                readings = self._combine(rule, ())
                if readings == []:
                    continue
                for edge in self._add(pos, pos, head, Derivation("empty", rule=rule),
                                      readings):
                    changed = True
                    self._process(edge)

    # -- predictions ---------------------------------------------------

    def _predict(self, pos: int, seq: tuple[FeatureTerm, ...]) -> None:
        outcome = self.chart.add_prediction(pos, seq)
        if self.trace is not None and outcome != "duplicate":
            event = "ADD-PRED" if outcome == "ok" else "REJECT\tlookahead"
            self._say(event, pos, canonical_seq(seq))
        if outcome == "ok" and len(seq) > 1:
            # the empty edges already here were processed before this
            # sequence existed, so advance it over them now
            first, *rest = self.chart.predictions[pos][-1]
            for e in self.chart.empty_edges_at(pos):
                binds = unify_values(first, e.cat, {})
                if binds is not None:
                    self._predict(pos, tuple(resolve(t, binds) for t in rest))

    def _make_new_predictions(self, e: Edge) -> None:
        # advance sequences this edge begins
        for seq in list(self.chart.predictions[e.start]):
            if not seq:
                continue
            binds = unify_values(seq[0], e.cat, {})
            if binds is None:
                continue
            rest = tuple(resolve(t, binds) for t in seq[1:])
            if rest:
                self._predict(e.end, rest)
        # fire compiled first-daughter entries
        for entry in self.tables.entries.get(e.backbone, ()):
            if not entry.head_ci and not self._licensed(
                entry.head.backbone, e.start
            ):
                continue
            binds = unify_values(entry.trigger, e.cat, {})
            if binds is None:
                continue
            mapping: dict = {}
            self._predict(e.end, tuple(refresh(resolve(t, binds), mapping)
                                       for t in entry.seq))

    def _licensed(self, backbone: str, pos: int) -> bool:
        if backbone not in self.tables.cd:
            return True
        corners = self.tables.left_corner.get(backbone, frozenset())
        return not corners.isdisjoint(self.chart.first_backbones(pos))

    # -- reductions ----------------------------------------------------

    def _find_new_reductions(self, e: Edge) -> Iterator[Edge]:
        for rule, pos in self.tables.reduction_triggers.get(e.backbone, ()):
            trailing = rule.rhs[pos + 1 :]
            if trailing and not self.chart.empty_edges_at(e.end):
                continue
            binds = unify_values(rule.rhs[pos], e.cat, {})
            if binds is None:
                continue
            for binds2, right in self._match_trailing(trailing, e.end, binds, (e,)):
                for binds3, daughters in self._match_tail(rule.rhs[:pos], e.start, binds2,
                                                          right):
                    span_start = daughters[0].start
                    if not self._licensed(rule.head.backbone, span_start):
                        continue
                    # the rename keeps the rule's own variables out of the chart
                    head_cat = refresh(resolve(rule.head, binds3), {})
                    readings = self._combine(rule, daughters)
                    if readings == []:
                        self._say("REJECT", "veto", rule.name, span_start, e.end)
                        continue
                    yield from self._add(span_start, e.end, head_cat,
                                         Derivation("rule", rule=rule, daughters=daughters),
                                         readings)

    def _match_tail(self, elems: tuple[FeatureTerm, ...], end: int, binds,
                    matched: tuple[Edge, ...]) -> Iterator[tuple[object, tuple[Edge, ...]]]:
        """Match `elems` right to left against edges ending at `end`, in
        front of the daughters `matched` so far; yields the bindings and
        all the daughters. A daughter matched again (only an empty edge
        can be) is matched under fresh variables, so that each use binds
        its own."""
        if not elems:
            yield binds, matched
            return
        last = elems[-1]
        edges = self.chart.edges_ending_at(end)
        i = 0
        while i < len(edges):  # the list may grow while we are suspended
            edge = edges[i]
            i += 1
            if edge.backbone != last.backbone:
                continue
            cat = refresh(edge.cat, {}) if edge in matched else edge.cat
            b2 = unify_values(last, cat, binds)
            if b2 is None:
                continue
            yield from self._match_tail(elems[:-1], edge.start, b2, (edge, *matched))

    def _match_trailing(self, elems: tuple[FeatureTerm, ...], at: int, binds,
                        matched: tuple[Edge, ...]) -> Iterator[tuple[object, tuple[Edge, ...]]]:
        """Match `elems` left to right against empty edges at `at`, after
        the daughters `matched` so far; as `_match_tail` otherwise."""
        if not elems:
            yield binds, matched
            return
        first = elems[0]
        edges = self.chart.edges_ending_at(at)
        i = 0
        while i < len(edges):
            edge = edges[i]
            i += 1
            if edge.start != at or edge.backbone != first.backbone:
                continue
            cat = refresh(edge.cat, {}) if edge in matched else edge.cat
            b2 = unify_values(first, cat, binds)
            if b2 is None:
                continue
            yield from self._match_trailing(elems[1:], at, b2, (*matched, edge))


def tokenize(utterance: str) -> list[str]:
    """Whitespace tokenization; grammars are written over word tokens."""
    return utterance.split()


def parse(grammar: Grammar, words: list[str], *, strategy: str = "llc",
          depth: str = SYN, lookahead: bool = True, robust: bool = False,
          trace: TraceFn | None = None,
          tables: CompiledTables | None = None) -> ParseResult:
    """Parse one utterance and return the finished chart.

    Without `tables`, the grammar's own tables for the strategy are
    used, compiled on its first such parse and kept in
    `grammar.compiled`. Every parse made with the same tables shares
    their semantic work: lexical readings and reading combinations are
    memoised on the tables, for every depth. So the grammar must not be
    changed after its first parse, and a grammar or a set of tables
    serves one thread at a time.
    """
    if depth not in DEPTHS:
        raise ConfigError(f"unknown depth {depth!r}; expected one of {DEPTHS}")
    if tables is None:
        tables = grammar.compiled.get(strategy)
        if tables is None:
            tables = grammar.compiled[strategy] = compile_tables(grammar, strategy)
    if tables.closure_violations:
        pairs = ", ".join(f"{x} begins {y}" for x, y in tables.closure_violations)
        raise ConfigError(
            "context-dependent set is not closed under possible-left-corner-of: "
            + pairs
        )
    if depth in (SORTS_IMMEDIATE, SORTS_DEFERRED) and not grammar.has_sorts:
        raise ConfigError(
            "the grammar declares no sorts; sortal parsing depths need a sort table"
        )
    parser = _Parser(grammar, tables, depth, lookahead, robust, trace)
    return parser.run(list(words))
