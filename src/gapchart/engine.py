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
    SEM,
    SORTS_DEFERRED,
    SORTS_IMMEDIATE,
    SYN,
    Reading,
    combine_readings,
    group_readings,
    lexical_instance,
    resolve_reading,
)
from .tables import CompiledTables, compile_tables
from .terms import FeatureTerm, canonical, canonical_seq, refresh, resolve, unify_values

TraceFn = Callable[[str], None]


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
            complete=sum(1 for e in self.complete_edges() if e.alive),
        )

    def complete_edges(self) -> list[Edge]:
        """Edges spanning the whole input whose category fits the start
        category (dead edges included: their derivations remain real)."""
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
            if edge.readings is None:
                continue
            for reading in edge.readings:
                expanded = (
                    resolve_reading(reading)
                    if self.depth == SORTS_DEFERRED
                    else [reading]
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
        daughters; `trees(n)` is exactly `trees()[:n]`. Each tree is
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

    def _say_edge(self, edge: Edge) -> None:
        if self.trace is not None:
            self._say("ADD-EDGE", edge.id, edge.start, edge.end, canonical(edge.cat))

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
            for entry in entries:
                cat, readings = lexical_instance(self.grammar, entry, self.depth)
                if readings is None:
                    groups: list[tuple[str | None, list | None]] = [(None, None)]
                elif not readings:
                    self._say("REJECT", "veto", f"lex:{word}", i, i + 1)
                    continue
                else:
                    groups = group_readings(readings, self.depth)
                for key, group in groups:
                    edge, outcome = chart.add_edge(
                        i, i + 1, cat, Derivation("lex", word=word), group, key
                    )
                    if outcome in ("new", "replaced"):
                        self._say_edge(edge)
                        self._process(edge)
            self._empty_fixpoint(i + 1)
        return ParseResult(words, self.grammar, self.tables, chart, self.depth)

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
                head = refresh(rule.head, {})
                if not self._licensed(head.backbone, pos):
                    continue
                if self.depth == SYN:
                    groups: list[tuple[str | None, list | None]] = [(None, None)]
                else:
                    readings = combine_readings(self.grammar, rule, [], self.depth)
                    if not readings:
                        continue
                    groups = group_readings(readings, self.depth)
                for key, group in groups:
                    edge, outcome = self.chart.add_edge(
                        pos, pos, head, Derivation("empty", rule=rule), group, key
                    )
                    if outcome in ("new", "replaced"):
                        self._say_edge(edge)
                        changed = True
                        self._process(edge)

    # -- predictions ---------------------------------------------------

    def _predict(self, pos: int, seq: tuple[FeatureTerm, ...]) -> None:
        outcome = self.chart.add_prediction(pos, seq)
        if self.trace is not None and outcome != "duplicate":
            event = "ADD-PRED" if outcome == "ok" else "REJECT\tlookahead"
            self._say(event, pos, canonical_seq(seq))

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
            mapping: dict = {}
            trigger = refresh(entry.trigger, mapping)
            fresh_seq = tuple(refresh(t, mapping) for t in entry.seq)
            binds = unify_values(trigger, e.cat, {})
            if binds is None:
                continue
            self._predict(e.end, tuple(resolve(t, binds) for t in fresh_seq))

    def _licensed(self, backbone: str, pos: int) -> bool:
        if backbone not in self.tables.cd:
            return True
        corners = self.tables.left_corner.get(backbone, frozenset())
        return any(fb in corners for fb in self.chart.first_backbones(pos))

    # -- reductions ----------------------------------------------------

    def _find_new_reductions(self, e: Edge) -> Iterator[Edge]:
        for rule, pos in self.tables.reduction_triggers.get(e.backbone, ()):
            trailing = rule.rhs[pos + 1 :]
            if trailing and not self.chart.empty_edges_at(e.end):
                continue
            mapping: dict = {}
            head = refresh(rule.head, mapping)
            rhs = tuple(refresh(t, mapping) for t in rule.rhs)
            binds = unify_values(rhs[pos], e.cat, {})
            if binds is None:
                continue
            for binds2, after in self._match_trailing(rhs[pos + 1 :], e.end, binds):
                for binds3, before in self._match_tail(rhs[:pos], e.start, binds2):
                    daughters = (*before, e, *after)
                    span_start = daughters[0].start
                    if not self._licensed(rule.head.backbone, span_start):
                        continue
                    head_cat = resolve(head, binds3)
                    yield from self._attach(rule, head_cat, daughters, span_start, e.end)

    def _match_tail(self, elems: tuple[FeatureTerm, ...], end: int,
                    binds) -> Iterator[tuple[object, tuple[Edge, ...]]]:
        if not elems:
            yield binds, ()
            return
        last = elems[-1]
        edges = self.chart.edges_ending_at(end)
        i = 0
        while i < len(edges):  # the list may grow while we are suspended
            edge = edges[i]
            i += 1
            if not edge.alive or edge.backbone != last.backbone:
                continue
            b2 = unify_values(last, edge.cat, binds)
            if b2 is None:
                continue
            for b3, rest in self._match_tail(elems[:-1], edge.start, b2):
                yield b3, (*rest, edge)

    def _match_trailing(self, elems: tuple[FeatureTerm, ...], at: int,
                        binds) -> Iterator[tuple[object, tuple[Edge, ...]]]:
        if not elems:
            yield binds, ()
            return
        first = elems[0]
        edges = self.chart.edges_ending_at(at)
        i = 0
        while i < len(edges):
            edge = edges[i]
            i += 1
            if (not edge.alive or edge.start != at
                    or edge.backbone != first.backbone):
                continue
            b2 = unify_values(first, edge.cat, binds)
            if b2 is None:
                continue
            for b3, rest in self._match_trailing(elems[1:], at, b2):
                yield b3, (edge, *rest)

    def _attach(self, rule: Rule, head_cat: FeatureTerm,
                daughters: tuple[Edge, ...], start: int, end: int) -> Iterator[Edge]:
        if self.depth == SYN:
            groups: list[tuple[str | None, list | None]] = [(None, None)]
        else:
            dreadings = [d.readings if d.readings else [] for d in daughters]
            readings = combine_readings(self.grammar, rule, dreadings, self.depth)
            if not readings:
                self._say("REJECT", "veto", rule.name, start, end)
                return
            groups = group_readings(readings, self.depth)
        for key, group in groups:
            edge, outcome = self.chart.add_edge(
                start, end, head_cat,
                Derivation("rule", rule=rule, daughters=daughters), group, key,
            )
            if outcome in ("new", "replaced"):
                self._say_edge(edge)
                yield edge


def tokenize(utterance: str) -> list[str]:
    """Whitespace tokenization; grammars are written over word tokens."""
    return utterance.split()


def parse(grammar: Grammar, words: list[str], *, strategy: str = "llc",
          depth: str = SYN, lookahead: bool = True, robust: bool = False,
          trace: TraceFn | None = None,
          tables: CompiledTables | None = None) -> ParseResult:
    """Parse one utterance and return the finished chart."""
    if depth not in DEPTHS:
        raise ConfigError(f"unknown depth {depth!r}; expected one of {DEPTHS}")
    if tables is None:
        tables = compile_tables(grammar, strategy)
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
