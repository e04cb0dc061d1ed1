"""The parse engine.

Bottom-up chart parsing over a context-independent backbone, with
predictions licensing the context-dependent categories. Each word's
lexical edges go in unconditionally; every new edge immediately makes
its predictions and then searches for reductions it completes, with new
edges processed depth-first as they are found.

Each string position is closed under the empty rules in passes: a pass
offers every empty rule, and a pass after the first first processes
every empty edge at the position again. A position is examined again
exactly when a pass made a prediction there. That is exact: while p is
closed, only empty edges start at p, and every other edge ending at p
starts at a finished position, so its licence and the sequences it
advances are final; only a prediction made at p can change what an edge
at p may build, and the next pass meets it.

One loop processes edges. An edge makes its predictions, and its
search for reductions is one generator, pushed on an explicit stack
(tables with no context-dependent backbone predict nothing, and an
edge whose backbone triggers no reduction has no search to push).
The search runs through the reduction triggers of the edge's backbone
(each carries the rule's daughters already sliced around the edge's
position). A binary trigger, with one tail daughter and no trailing
ones, is matched in the search's own loop over the edges ending where
the edge starts. One matcher serves every other shape: it extends the
daughters matched so far, first by the trailing daughters, left to
right, against the empty edges at the edge's end, then by the tail
daughters, right to left, against the edges ending where the match
begins. The edge of each reading of a match goes into the chart in
place. Each new edge is yielded at once: it makes its predictions and
its own search goes on top of the stack, so it is reduced before the
search that found it resumes. The edge lists a search runs over are
live, so a resumed search sees the edges added meanwhile. The order is
that of the depth-first recursion, and the depth of Python's stack does
not grow with the input.

The chart grows strictly left to right. Scanning word p-1 and closing
position p under the empty rules builds every edge that ends at p,
every derivation of such an edge and every prediction made at p;
nothing later changes them, and edges are numbered in order of end
position. What position p holds follows from the words before it and,
when the tables predict and the lookahead filter is on, from word p
itself, which that filter checks the predictions made at p against. So
a parse can resume from an earlier result: its chart takes over the
earlier chart's leading positions that the two inputs determine alike,
sharing their edges and predictions without copying or changing them,
and builds the rest as a fresh parse would. A fresh parse is one that
takes over no position.

A reduced phrase is licensed when its category is context-independent,
or when it can begin a phrase anticipated at its start position (every
category can begin itself, so directly predicted phrases are covered).
A position keeps the set of backbones that can begin the first
backbone of a sequence predicted there (`Chart.licensed`), grown
through the grammar's inverse left-corner table as sequences are
stored, so a licence is one set lookup.

The open daughters of grammar rules and prediction entries are unified
as stored, against chart categories that never contain a rule's
variables. A closed daughter, compiled to its bare backbone
(`Rule.compiled_rhs`), matches every edge of its backbone and binds
nothing, so it is not unified at all. Only a match that succeeds is
copied: the new category or predicted sequence is resolved and then
renamed once, so the chart holds renamed copies. A ground category
(one without variables: a feature-less rule head, a lexical category,
the start category) or a ground predicted sequence is its own copy and
goes into the chart shared, as it is; holding no variable, it shares
none.

Each use of an edge in one derivation gets its own variables: an edge
that fills a second daughter position (only an empty edge can) is
matched and combined as a renamed copy.

Unification is worked out once per variant class. A binary or unary
trigger with an open daughter carries a number, given when the tables
are compiled, and so does a prediction entry with an open trigger or a
sequence that is not ground. The tables' class memo
(`CompiledTables.class_memo`, next to the semantic memo) maps the
number and the variant classes of the edges matched (each edge keeps
the class it is packed under) to the outcome: False when the daughters
do not unify, else the head category or the predicted sequence,
resolved and renamed. A hit costs one lookup and a renaming of what it
holds (none when that is ground). That is exact: chart categories never
share a variable, so what a rule's terms unify to against them depends
on their classes alone, up to the names of its variables, and equal
classes are exactly the alphabetic variants. The first use puts the
outcome it works out into the chart and keeps it in the memo, and every
later use puts a renamed copy, so no two chart categories share a
variable, and edges, ids, predictions, traces and trees are those that
plain unification gives. The memo stores outcomes until it holds
`MEMO_LIMIT` entries and then keeps what it holds: a key met after that
is worked out again at each meeting, as if there were no memo. Every
other shape of trigger (trailing daughters, or more than one tail
daughter) unifies its daughters as it matches them.

Above `syn` an edge carries one reading: a derivation with several
readings goes into the chart once per reading, and each reading edge
is reduced on its own, so every reading reaches every parent.

Semantic work above `syn` (where every reading is None) is memoised on
the compiled tables, so every parse made with one set of tables shares
it, and a grammar keeps one set per strategy for the parses that pass
none: a lexical entry's readings are keyed by word, entry and depth,
and a reading combination by rule, depth and the render of each
daughter's reading. A full memo evicts its least recently used entry.
Every use, the first included, puts renamed copies into the chart (a
reading without variables is its own copy, as a ground category is),
so no two readings of a chart share a variable, and no two daughters
of one combination do; that is what makes the key exact.
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

# the semantic memo evicts its least recently used entry beyond this
# many, and the class memo stores no more; one 10-best list of the
# rescoring benchmark uses a few dozen semantic entries
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

    def shared_positions(self, words: list[str]) -> int:
        """How many leading string positions a parse of `words` with
        this result's tables, depth and lookahead holds exactly as this
        chart does: one more than the shared word prefix, or that
        prefix alone when the tables predict and the lookahead filter
        checks the predictions made at a position against its word."""
        common = 0
        for ours, theirs in zip(self.words, words):
            if ours != theirs:
                break
            common += 1
        if self.tables.cd and self.chart.lookahead:
            return common
        return common + 1

    def fits_start(self, edge: Edge) -> bool:
        """Whether the edge's category fits the start category: it has
        the start's backbone and unifies with the start as stored (a
        chart category never holds a grammar variable, so no copy is
        needed)."""
        start = self.grammar.start
        return (edge.backbone == start.backbone
                and unify_values(start, edge.cat, {}) is not None)

    def complete_edges(self) -> list[Edge]:
        """Edges spanning the whole input that fit the start category."""
        return [edge for edge in self.chart.edges_ending_at(len(self.words))
                if edge.start == 0 and self.fits_start(edge)]

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
        tree is listed once per reading edge that holds it. Cyclic
        derivations (possible only through unproductive chains) are cut
        rather than expanded.

        A complete edge's first tree counts nothing; its trees are counted
        only when a second one is wanted, and every complete edge is
        counted for the length of the list when `limit` is None or
        negative. The other trees are read off the counts, so the first n
        cost time linear in the counted forest and in their own size; all
        run on explicit stacks, so no recursion limit bounds the depth.
        """
        roots = self.complete_edges()
        writer = _TreeWriter()
        if limit is None or limit < 0:
            # the length of `trees()[:limit]`
            limit = len(range(sum(writer.counts.value(e) for e in roots))[:limit])
        out: list[str] = []
        for edge in roots:
            wanted = limit - len(out)
            if wanted < 1:
                break
            n = writer.counts.value(edge) if wanted > 1 else 1
            out += [writer.tree(edge, i) for i in range(min(n, wanted))]
        return out


class _TreeWriter:
    """Writes tree number i of a root edge in preorder.

    An edge's trees below a path go by derivation, then by the
    daughters' trees in mixed radix, the last daughter fastest; a
    daughter on the path is cut. As in `ForestFold`, only the same-span
    part of the path matters, so a daughter with a smaller span than its
    parent is path-free: it has its trees as a root. Tree 0 of a
    path-free edge follows first derivations, whose daughters are older
    edges, so it meets no cut and counts nothing. Any other tree takes a
    derivation and daughter indices from the tree counts, and a
    path-free edge keeps these choices. Within a root's other trees, the
    text of a path-free (edge, index) is joined from where it was first
    written, and kept, when it is asked for again."""

    def __init__(self):
        self.counts = ForestFold(0, operator.add, lambda _d, ns: math.prod(ns))
        self._choices: dict[int, list[tuple[Derivation, list[int], int]]] = {}
        self._text: dict[tuple[int, int], str | tuple[int, int]] = {}
        self._out: list[str] = []

    def tree(self, edge: Edge, index: int) -> str:
        """Tree number `index` of the edge as a root, written on an explicit
        stack, which holds subtrees to write, as an edge (its tree 0,
        path-free) or (edge, index, same-span path or None), and subtrees
        written, as (edge id, index, where their text begins, path). Each
        subtree is written after a space, left out of the root's text."""
        out, text, counts = self._out, self._text, self.counts
        begin = len(out) + 1
        keep = index > 0  # a root's tree 0 is asked for once: note none of it
        todo: list = [(edge, index, None)]
        while todo:
            item = todo.pop()
            if type(item) is Edge:
                edge, index, path = item, 0, None
            elif len(item) == 3:
                edge, index, path = item
            else:
                eid, index, at, path = item
                out.append(")")
                if path is not None:
                    path.remove(eid)
                elif keep:
                    text[eid, index] = (at, len(out))
                continue
            out.append(" ")
            if path is None and keep:
                got = text.get((edge.id, index))
                if type(got) is tuple:
                    got = text[edge.id, index] = "".join(out[got[0]:got[1]])
                if got is not None:
                    out.append(got)
                    continue
            if path is None and index == 0:
                d, sizes = edge.derivations[0], None
            else:
                if path is not None:
                    path.add(edge.id)
                choices = self._choices.get(edge.id) if path is None else None
                if choices is None:
                    # each derivation, its daughters' tree counts and its own
                    here = path or {edge.id}
                    choices = []
                    for d in edge.derivations:
                        sizes = [counts.value(c, here if c.start == edge.start
                                              and c.end == edge.end else None)
                                 for c in d.daughters]
                        choices.append((d, sizes, math.prod(sizes)))
                    if path is None:
                        self._choices[edge.id] = choices
                i = index
                for d, sizes, total in choices:
                    if i < total:
                        break
                    i -= total
            if d.kind == "lex":
                out.append(d.word)
                if path is not None:
                    path.remove(edge.id)
                continue
            todo.append((edge.id, index, len(out), path))
            out.append("(" + d.rule.name)
            if sizes is None:
                todo += reversed(d.daughters)
                continue
            for j in range(len(sizes) - 1, -1, -1):
                i, k = divmod(i, sizes[j])
                child = d.daughters[j]
                if child.start == edge.start and child.end == edge.end:
                    todo.append((child, k, path or {edge.id}))
                else:
                    todo.append((child, k, None) if k else child)
        return "".join(out[begin:])


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

    def run(self, words: list[str], base: Chart | None = None,
            resume_at: int = 0) -> ParseResult:
        """Parse `words`, taking the positions before `resume_at` from
        the finished chart `base`."""
        if not self.robust:
            # `base` may be a robust parse that skipped a word
            for i in range(resume_at - 1):
                if not self.grammar.lexicon.get(words[i]):
                    raise UnknownWordError(words[i], i + 1)
        chart = Chart(words, self.tables, self.grammar.restrictor, self.lookahead,
                      base, resume_at)
        self.chart = chart
        start = self.grammar.start
        for pos in range(resume_at, len(words) + 1):
            if pos:
                self._scan(pos - 1, words[pos - 1])
            elif start.backbone in self.tables.cd:
                self._predict(0, (refresh(start, {}),))
            self._empty_fixpoint(pos)
        return ParseResult(words, self.grammar, self.tables, chart, self.depth)

    def _scan(self, i: int, word: str) -> None:
        """Add the lexical edges of word i and process each."""
        entries = self.grammar.lexicon.get(word, ())
        if not entries:
            if not self.robust:
                raise UnknownWordError(word, i + 1)
            self._say("SKIP", i, word)
        for index, entry in enumerate(entries):
            cat = refresh(entry.cat, {})
            readings = ((None,) if self.depth == SYN else
                        self._recall((word, index, self.depth), lexical_instance, entry))
            if readings == []:
                self._say("REJECT", "veto", f"lex:{word}", i, i + 1)
                continue
            derivation = Derivation("lex", word=word)
            for reading in readings:
                edge = self._add(i, i + 1, cat, derivation, reading)
                if edge is not None:
                    self._process(edge)

    # -- memoised semantics ----------------------------------------------

    def _recall(self, key: tuple, compute: Callable, *args: object) -> list[Reading]:
        """The memoised `compute(grammar, *args, depth)` above `syn`, as
        renamed copies of the stored readings (at `syn` the callers take
        one reading, None, and never ask). The memo is kept in order of
        use, so a full one drops its least recently used entry."""
        memo = self.tables.memo
        got = memo.pop(key, None)
        if got is None:
            if len(memo) >= MEMO_LIMIT:
                del memo[next(iter(memo))]
            got = compute(self.grammar, *args, self.depth)
        memo[key] = got
        return [r.renamed() for r in got]

    def _combine(self, rule: Rule, daughters: tuple[Edge, ...]) -> list[Reading]:
        """The readings of a phrase above `syn` (the caller knows that
        `syn` has one, None); none for a veto."""
        # an edge that fills two daughter positions (an empty edge can)
        # gets fresh variables for each use after the first
        dreadings = [d.reading.renamed() if d in daughters[:i] else d.reading
                     for i, d in enumerate(daughters)]
        key = (rule.name, self.depth, tuple([r.render for r in dreadings]))
        return self._recall(key, combine_readings, rule, dreadings)

    def _add(self, start: int, end: int, cat: FeatureTerm, derivation: Derivation,
             reading: Reading | None) -> Edge | None:
        """Insert a derivation with one reading; the edge if it is new,
        None if the derivation packed into an edge already there."""
        edge, outcome = self.chart.add_edge(start, end, cat, derivation, reading)
        if outcome != "new":
            return None
        if self.trace is not None:
            self._say("ADD-EDGE", edge.id, start, end, canonical(cat))
        return edge

    # -- control -------------------------------------------------------

    def _process(self, edge: Edge) -> None:
        """Make the edge's predictions and reduce it; every new edge a
        reduction yields is processed the same way, at once, before the
        search that found it goes on. The searches in progress are kept
        on an explicit stack (one reduction generator per edge), so the
        order is that of the depth-first recursion and its depth does
        not grow with the input. Tables with no context-dependent
        backbone predict nothing, and an edge whose backbone triggers no
        reduction gets no search."""
        predicts = bool(self.tables.cd)
        triggers = self.tables.reduction_triggers
        stack = []
        while True:
            if predicts:
                self._make_new_predictions(edge)
            if edge.backbone in triggers:
                stack.append(self._find_new_reductions(edge))
            while stack:
                edge = next(stack[-1], None)
                if edge is not None:
                    break
                stack.pop()
            else:
                return

    def _empty_fixpoint(self, pos: int) -> None:
        """Close `pos` under the empty rules, in passes: a pass offers
        every empty rule, a pass after the first first processes the empty
        edges at `pos` again, and the first pass that predicts nothing at
        `pos` ends the closure (the module docstring says why that is
        exact)."""
        seqs = self.chart.predictions[pos]
        again: list[Edge] = []
        while True:
            made = len(seqs)
            for edge in again:
                self._process(edge)
            for rule in self.tables.empty_rules:
                if not self._licensed(rule.head.backbone, pos):
                    continue
                head = refresh(rule.head, {})
                derivation = Derivation("empty", rule=rule)
                readings = (None,) if self.depth == SYN else self._combine(rule, ())
                for reading in readings:
                    edge = self._add(pos, pos, head, derivation, reading)
                    if edge is not None:
                        self._process(edge)
            if len(seqs) == made:
                return
            again = self.chart.empty_edges_at(pos)

    # -- predictions ---------------------------------------------------

    def _predict(self, pos: int, seq: tuple[FeatureTerm, ...]) -> None:
        outcome = self.chart.add_prediction(pos, seq)
        if self.trace is not None and outcome != "duplicate":
            event = "ADD-PRED" if outcome == "ok" else "REJECT\tlookahead"
            self._say(event, pos, canonical_seq(seq))

    def _make_new_predictions(self, e: Edge) -> None:
        # predict the rest of each sequence this edge can begin, comparing
        # backbones before unifying; the list is live, and an empty edge
        # meets the sequences predicted after it in the next closure pass
        for seq in self.chart.predictions[e.start]:
            if len(seq) > 1 and seq[0].backbone == e.backbone:
                binds = unify_values(seq[0], e.cat, {})
                if binds is not None:
                    self._predict(e.end, tuple([resolve(t, binds) for t in seq[1:]]))
        # fire compiled first-daughter entries; a bare trigger with a
        # ground sequence predicts it as stored, and a numbered entry a
        # renamed copy of its outcome for the edge's class
        memo = self.tables.class_memo
        for rule, trigger, head_ci, seq, ground, number in \
                self.tables.entries.get(e.backbone, ()):
            if not head_ci and not self._licensed(rule.head.backbone, e.start):
                continue
            if number is None:
                got = seq if ground and not trigger.feats else self._entry_seq(
                    trigger, seq, ground, e)
            else:
                key = (number, e.cls)
                got = memo.get(key)
                if got is None:
                    got = self._entry_seq(trigger, seq, ground, e)
                    if len(memo) < MEMO_LIMIT:
                        memo[key] = got
                elif got and not ground:
                    mapping: dict = {}
                    got = tuple([t if t.ground else refresh(t, mapping) for t in got])
            if got:
                self._predict(e.end, got)

    def _entry_seq(self, trigger: FeatureTerm, seq: tuple[FeatureTerm, ...], ground: bool,
                   e: Edge) -> tuple[FeatureTerm, ...] | bool:
        """What an entry predicts after the edge `e`: its sequence, as
        stored when ground, else resolved and renamed; False if its
        trigger does not unify with the edge."""
        binds = unify_values(trigger, e.cat, {}) if trigger.feats else {}
        if binds is None:
            return False
        if ground:
            return seq
        mapping: dict = {}
        return tuple([refresh(resolve(t, binds), mapping) for t in seq])

    def _licensed(self, backbone: str, pos: int) -> bool:
        return backbone not in self.tables.cd or backbone in self.chart.licensed(pos)

    # -- reductions ----------------------------------------------------

    def _find_new_reductions(self, e: Edge) -> Iterator[Edge]:
        """Yield each new edge that `e` completes as soon as it is in the
        chart, with `e` as the daughter a reduction trigger names. A
        binary trigger's other daughter is matched in this loop, over the
        edges ending where `e` starts; `_match` matches the other
        daughters of every other shape. A bare daughter (a closed one)
        matches every edge of its backbone and is not unified; a ground
        head is its own copy, and a context-independent one needs no
        licence. A numbered trigger takes the head its daughters' classes
        give from the class memo, as a renamed copy (see the module
        docstring)."""
        start, end = e.start, e.end
        syn = self.depth == SYN
        chart = self.chart
        memo = self.tables.class_memo
        for rule, daughter, tail, trailing, head_ci, binary, number in \
                self.tables.reduction_triggers[e.backbone]:
            if trailing and not chart.has_empty_edges(end):
                continue
            binds: dict = {}
            if number is None and daughter.feats:
                binds = unify_values(daughter, e.cat, binds)
                if binds is None:
                    continue
            if binary:
                backbone = tail[0].backbone
                matches = chart.edges_ending_at(start)  # live, as in `_match`
            elif trailing or tail:
                matches = self._match(trailing, tail, binds, (e,))
            else:
                matches = ((binds, (e,)),)
            head = rule.head
            for match in matches:
                if not binary:
                    b, daughters = match
                elif match.backbone != backbone:
                    continue
                else:
                    b, daughters = binds, (match, e)
                span_start = daughters[0].start
                if not head_ci and not self._licensed(head.backbone, span_start):
                    continue
                if number is None:
                    # the rename keeps the rule's own variables out of the chart
                    head_cat = head if head.ground else refresh(resolve(head, b), {})
                else:
                    key = (number, daughters[0].cls, e.cls)
                    head_cat = memo.get(key)
                    if head_cat is None:
                        head_cat = self._reduced_head(rule, daughter, tail, daughters)
                        if len(memo) < MEMO_LIMIT:
                            memo[key] = head_cat
                    elif head_cat and not head_cat.ground:
                        head_cat = refresh(head_cat, {})
                    if not head_cat:
                        continue
                if syn:
                    readings = (None,)
                else:
                    readings = self._combine(rule, daughters)
                    if not readings:
                        self._say("REJECT", "veto", rule.name, span_start, end)
                        continue
                derivation = Derivation("rule", rule=rule, daughters=daughters)
                for reading in readings:
                    edge = self._add(span_start, end, head_cat, derivation, reading)
                    if edge is not None:
                        yield edge

    def _reduced_head(self, rule: Rule, daughter: FeatureTerm, tail: tuple[FeatureTerm, ...],
                      daughters: tuple[Edge, ...]) -> FeatureTerm | bool:
        """The head category a numbered trigger makes of the match
        `daughters` (one or two, the last the trigger's own), resolved
        and renamed; False if they do not unify. An edge matched twice
        (an empty edge can be) is unified the second time as a renamed
        copy, as in `_match`."""
        e = daughters[-1]
        binds = unify_values(daughter, e.cat, {}) if daughter.feats else {}
        if binds is not None and tail and tail[0].feats:
            left = daughters[0]
            binds = unify_values(tail[0], refresh(left.cat, {}) if left is e else left.cat,
                                 binds)
        if binds is None:
            return False
        head = rule.head
        return head if head.ground else refresh(resolve(head, binds), {})

    def _match(self, trailing: tuple[FeatureTerm, ...], tail: tuple[FeatureTerm, ...],
               binds, matched: tuple[Edge, ...]) -> Iterator[tuple[object, tuple[Edge, ...]]]:
        """Extend the daughters `matched` so far by one edge for each of
        `trailing` and `tail`, not both empty: first the trailing
        daughters left to right, each by an empty edge at the right end,
        then the tail right to left, each by an edge ending at the left
        end. Yields the bindings and all the daughters of each match, the
        last daughter's in place. The edge lists are live, so a search
        paused at a yield sees the edges added meanwhile. A bare daughter
        (a closed one) matches every edge of its backbone without
        unifying. An open daughter that matches an edge again (only an
        empty edge can be matched twice) is unified with a renamed copy,
        so that each use binds its own variables."""
        right = bool(trailing)
        if right:
            term, trailing = trailing[0], trailing[1:]
            at = matched[-1].end
        else:
            term, tail = tail[-1], tail[:-1]
            at = matched[0].start
        more = trailing or tail
        backbone, bare = term.backbone, not term.feats
        for edge in self.chart.edges_ending_at(at):
            if edge.backbone != backbone or right and edge.start != at:
                continue
            if bare:
                b = binds
            else:
                cat = refresh(edge.cat, {}) if edge in matched else edge.cat
                b = unify_values(term, cat, binds)
                if b is None:
                    continue
            daughters = (*matched, edge) if right else (edge, *matched)
            if more:
                yield from self._match(trailing, tail, b, daughters)
            else:
                yield b, daughters


def tokenize(utterance: str) -> list[str]:
    """Whitespace tokenization; grammars are written over word tokens."""
    return utterance.split()


def parse(grammar: Grammar, words: list[str], *, strategy: str = "llc",
          depth: str = SYN, lookahead: bool = True, robust: bool = False,
          trace: TraceFn | None = None,
          tables: CompiledTables | None = None,
          resume_from: ParseResult | None = None) -> ParseResult:
    """Parse one utterance and return the finished chart.

    With `resume_from`, an earlier result made with the same grammar,
    tables, depth and lookahead, the parse resumes from that result's
    chart: the new chart shares its leading positions that the two
    inputs determine alike (`ParseResult.shared_positions`) and builds
    only the rest. The result is the fresh parse's, edge for edge, and
    the earlier result is not changed. A traced parse does not resume,
    since its trace shows every event of the parse.

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
    words = list(words)
    base, resume_at = None, 0
    if resume_from is not None:
        if trace is not None:
            raise ConfigError("a traced parse does not resume: its trace shows every event")
        if resume_from.grammar is not grammar or resume_from.tables is not tables:
            raise ConfigError("resume_from was parsed with another grammar or other tables")
        if resume_from.depth != depth:
            raise ConfigError(f"resume_from was parsed at depth {resume_from.depth!r}, "
                              f"not {depth!r}")
        if resume_from.chart.lookahead != lookahead:
            raise ConfigError(f"resume_from was parsed with lookahead "
                              f"{resume_from.chart.lookahead}, not {lookahead}")
        base, resume_at = resume_from.chart, resume_from.shared_positions(words)
    parser = _Parser(grammar, tables, depth, lookahead, robust, trace)
    return parser.run(words, base, resume_at)
