"""The chart: packed edges and prediction sequences.

Edges pack derivations: a new derivation whose category is an
alphabetic variant of an edge's over the same span joins that edge
instead of growing the chart, unless the edge holds a derivation with
the same `Derivation.key`. A more general or more specific category is
a new edge, so every derivation of an edge has exactly the edge's
category and its trees can be read off without re-unifying. Above
`syn` an edge carries one reading, and a derivation packs only into an
edge whose reading has the same render, so every reading is its own
edge and reaches every parent built over it. So an edge has one
packing key, its span, its category's variant class and its reading's
render, and the chart maps each key to its one edge. The variant class
of a category is its canonical render (two terms are variants exactly
when their renders are equal); a ground category (one without
variables) is its own class, since its only variant is an equal term,
so it is keyed by the category itself and never rendered. An edge keeps
its class (`Edge.cls`), which keys the engine's class memo.

`ForestFold` folds the packed forest below an edge bottom-up, cutting
cycles (which close within one span); tree counts and dispreference are folds.

Predictions are sequences of restricted categories anticipated at a
string position. Adding one applies the restrictor, the one-word
lookahead filter, and a subsumption check against existing sequences.
A stored sequence licenses, at its position, every backbone that can
begin its first backbone (the grammar's inverse left-corner table,
`Grammar.analysis.corners`); a position's set of licensed backbones is
made with its first stored sequence.

Edges and predictions are kept per string position (an edge at its
end position), so a new chart can take over the leading positions of a
finished one by sharing them.
"""

from __future__ import annotations

from typing import Callable, Generic, TypeVar

from .grammar import Grammar, Rule
from .semantics import Reading
from .terms import (
    FeatureTerm,
    canonical,
    canonical_seq,
    seq_subsumes,
)

T = TypeVar("T")

_NO_BACKBONES: frozenset[str] = frozenset()


class Derivation:
    """One way an edge was built: a word, an empty rule, or a reduction.

    Two derivations are the same when their `key`s are equal: the kind,
    the rule name, the word and the daughters' ids. An edge's first
    derivation is the one it was made with, so its daughters were in the
    chart before the edge and have smaller ids."""

    __slots__ = ("kind", "rule", "word", "daughters")

    def __init__(self, kind: str, rule: Rule | None = None, word: str | None = None,
                 daughters: tuple[Edge, ...] = ()):
        self.kind = kind  # "lex" | "empty" | "rule"
        self.rule = rule
        self.word = word
        self.daughters = daughters

    @property
    def key(self) -> tuple:
        """What tells two derivations of one edge apart, made on each
        call. It holds ids, not edges, so it is a tuple of atoms, which
        the cyclic GC stops tracking."""
        return (self.kind, None if self.rule is None else self.rule.name, self.word,
                tuple([d.id for d in self.daughters]))

    def __repr__(self) -> str:
        return f"Derivation{self.key!r}"


class Edge:
    """A span with a category, packed derivations, and the one reading
    they share (None at `syn`). `backbone` is the category's, and `cls`
    its variant class (see `Chart.add_edge`), both kept on the edge when
    it is made.

    Most edges are only ever offered one derivation, so an edge makes
    the set of its derivations' keys only when a second one is offered,
    and looks every later offer up in it."""

    __slots__ = ("id", "start", "end", "cat", "backbone", "cls", "derivations", "reading",
                 "_deriv_keys")

    def __init__(self, eid: int, start: int, end: int, cat: FeatureTerm,
                 cls: FeatureTerm | str, reading: Reading | None):
        self.id = eid
        self.start = start
        self.end = end
        self.cat = cat
        self.backbone = cat.backbone
        self.cls = cls
        self.derivations: list[Derivation] = []
        self.reading = reading
        self._deriv_keys: set[tuple] | None = None

    def add_derivation(self, d: Derivation) -> bool:
        """Add `d` unless the edge holds a derivation with its key."""
        keys = self._deriv_keys
        if keys is None:
            keys = self._deriv_keys = {x.key for x in self.derivations}
        key = d.key
        if key in keys:
            return False
        keys.add(key)
        self.derivations.append(d)
        return True

    def __repr__(self) -> str:
        return f"<edge {self.id} {self.start}-{self.end} {canonical(self.cat)}>"


class ForestFold(Generic[T]):
    """A bottom-up fold over the packed forest below an edge.

    An edge's value is `plus` over its derivations of
    `derive(derivation, daughter values)`, starting from `zero`. A
    daughter that revisits an edge on the current root path (possible
    only through unproductive cycles) is cut: its value is `zero`.
    Counting trees is (0, +, product); the cheapest derivation is
    (inf, min, sum). The fold runs on an explicit stack, so a forest
    deeper than Python's recursion limit folds too.

    A derivation's daughters tile its edge's span, so a daughter with a
    smaller span, and all below it, never meets an edge above: a cut hits
    only an ancestor with the same span. So a daughter with a smaller
    span has its root value (below an empty path), which is memoised; a
    value that hit no cut within its span is the same below every path.
    """

    def __init__(self, zero: T, plus: Callable[[T, T], T],
                 derive: Callable[[Derivation, list[T]], T]):
        self.zero = zero
        self.plus = plus
        self.derive = derive
        self._memo: dict[int, T] = {}  # values that hit no cut
        self._roots: dict[int, T] = {}  # root values

    def value(self, edge: Edge, path: set[int] | None = None) -> T:
        """The edge's value below `path`, the ids of the edges with the
        edge's span above it on the current root path (default: none,
        the edge's root value)."""
        got = self._memo.get(edge.id)
        if got is not None:
            return got
        if path:
            return self.zero if edge.id in path else self._fold(edge, path)
        got = self._roots.get(edge.id)
        if got is None:
            got = self._roots[edge.id] = self._fold(edge, set())
        return got

    def _fold(self, edge: Edge, path: set[int]) -> T:
        # The depth-first fold of an edge whose value below `path` is not
        # memoised, on an explicit stack, since a forest's depth grows
        # with the input. The edge being folded keeps in locals its
        # derivations still to fold, the derivation `d` and its daughters
        # still to visit, their `values` so far, `best` over the
        # derivations folded, and whether a cut was hit within its span;
        # a daughter to fold saves them on the stack. `path` holds the
        # whole root path, of which only the same-span part recurs.
        memo, roots, zero, plus, derive = (self._memo, self._roots, self.zero,
                                           self.plus, self.derive)
        stack = []
        path.add(edge.id)
        derivations = iter(edge.derivations)
        d = next(derivations)
        daughters, values, best, clean = iter(d.daughters), [], zero, True
        while True:
            for child in daughters:
                value = memo.get(child.id)
                if value is None:
                    if child.id in path:
                        value, clean = zero, False
                    elif roots and (child.start != edge.start or child.end != edge.end):
                        value = roots.get(child.id)
                    if value is None:
                        break
                values.append(value)
            else:
                best = plus(best, derive(d, values))
                d = next(derivations, None)
                if d is not None:
                    daughters, values = iter(d.daughters), []
                    continue
                # the edge is folded: hand its value to its parent
                path.remove(edge.id)
                if clean:
                    memo[edge.id] = best
                if not stack:
                    return best
                child, value, ok = edge, best, clean
                edge, derivations, d, daughters, values, best, clean = stack.pop()
                values.append(value)
                if not ok:  # a cut below a span change leaves a root value
                    if child.start != edge.start or child.end != edge.end:
                        roots[child.id] = value
                    else:
                        clean = False
                continue
            stack.append((edge, derivations, d, daughters, values, best, clean))
            edge = child
            path.add(edge.id)
            derivations = iter(edge.derivations)
            d = next(derivations)
            daughters, values, best, clean = iter(d.daughters), [], zero, True


class Chart:
    """Edges, predictions, and the bookkeeping the engine drives.

    A chart is built from the grammar and reads only what the grammar
    alone decides: its restrictor, and from `Grammar.analysis` the
    corners a licence is made of and the first words and nullable set
    the lookahead filter checks. What a strategy decides (the compiled
    tables) stays with the engine."""

    def __init__(self, words: list[str], grammar: Grammar, lookahead: bool = True,
                 base: Chart | None = None, resume_at: int = 0):
        """An empty chart for `words`, or one that takes the positions
        before `resume_at` from the finished chart `base`: their edges
        and predictions are shared, not copied. The engine grows a chart
        strictly left to right, so the positions a chart takes over are
        never changed again, in it or in `base`."""
        n_words = len(words)
        self.words = words
        self.grammar = grammar
        self.lookahead = lookahead
        self.predictions: dict[int, list[tuple[FeatureTerm, ...]]] = {
            i: [] for i in range(n_words + 1)
        }
        # the backbones licensed at each position that has a prediction
        # (see `licensed`), made when its first prediction is stored
        self._licensed: dict[int, set[str]] = {}
        self._by_end: dict[int, list[Edge]] = {i: [] for i in range(n_words + 1)}
        # each edge under its packing key (see `add_edge`); edges only
        # ever go in at the growing end of a chart, so a chart's keys
        # need not hold the edges it takes over
        self._by_key: dict[tuple, Edge] = {}
        for i in range(resume_at):
            self.predictions[i] = base.predictions[i]
            self._by_end[i] = base._by_end[i]
            if i in base._licensed:
                self._licensed[i] = base._licensed[i]
        # ids are consecutive in order of end position
        taken = sum(len(self._by_end[i]) for i in range(resume_at))
        self.edges: list[Edge] = [] if base is None else base.edges[:taken]

    @property
    def edges_created(self) -> int:
        """The chart's edges, taken-over ones included."""
        return len(self.edges)

    @property
    def preds_created(self) -> int:
        """The chart's predicted sequences, taken-over ones included."""
        return sum(len(seqs) for seqs in self.predictions.values())

    # -- edges ---------------------------------------------------------

    def add_edge(self, start: int, end: int, cat: FeatureTerm,
                 derivation: Derivation,
                 reading: Reading | None = None) -> tuple[Edge, str]:
        """Insert a derivation with its reading (None at `syn`); returns
        (edge, outcome) where outcome is "new", "packed", or
        "duplicate". A derivation packs into the edge with its packing
        key: the span, the variant class of `cat` (its canonical render,
        or a ground category itself, its only variant) and the reading's
        render."""
        cls = cat if cat.ground else canonical(cat)
        key = (start, end, cls, None if reading is None else reading.render)
        other = self._by_key.get(key)
        if other is not None:
            added = other.add_derivation(derivation)
            return other, ("packed" if added else "duplicate")
        edge = self._by_key[key] = Edge(len(self.edges) + 1, start, end, cat, cls, reading)
        edge.derivations.append(derivation)  # the first derivation needs no key
        self.edges.append(edge)
        self._by_end[end].append(edge)
        return edge, "new"

    def edges_ending_at(self, end: int) -> list[Edge]:
        # the live list: callers iterating during growth see new edges
        return self._by_end[end]

    def empty_edges_at(self, pos: int) -> list[Edge]:
        return [e for e in self._by_end[pos] if e.start == pos]

    def has_empty_edges(self, pos: int) -> bool:
        for e in self._by_end[pos]:
            if e.start == pos:
                return True
        return False

    # -- predictions ---------------------------------------------------

    def add_prediction(self, pos: int, seq: tuple[FeatureTerm, ...]) -> str:
        """Gate, restrict, and store a sequence; returns "ok",
        "lookahead", or "duplicate"."""
        seq = tuple(map(self.grammar.restrictor.restrict, seq))
        if self.lookahead and not self._lookahead_ok(pos, seq):
            return "lookahead"
        for existing in self.predictions[pos]:
            if seq_subsumes(existing, seq):
                return "duplicate"
        self.predictions[pos].append(seq)
        if seq:
            licensed = self._licensed.get(pos)
            if licensed is None:
                licensed = self._licensed[pos] = set()
            licensed |= self.grammar.analysis.corners[seq[0].backbone]
        return "ok"

    def _lookahead_ok(self, pos: int, seq: tuple[FeatureTerm, ...]) -> bool:
        word = self.words[pos] if pos < len(self.words) else None
        analysis = self.grammar.analysis
        for term in seq:
            if word is not None and word in analysis.first_word.get(term.backbone, ()):
                return True
            if term.backbone not in analysis.nullable:
                return False
        # every element can be empty, so the sequence needs no input
        return True

    def licensed(self, pos: int) -> set[str] | frozenset[str]:
        """The backbones that can begin a sequence predicted at `pos`,
        which a context-dependent phrase starting at `pos` needs (the
        chart's own set: read it, do not change it). A stored sequence
        adds the corners of its first backbone (`Grammar.analysis`), so
        a licence is one set lookup."""
        return self._licensed.get(pos, _NO_BACKBONES)

    # -- reporting -----------------------------------------------------

    def dump(self) -> str:
        lines: list[str] = []
        for edge in self.edges:
            lines.append(
                f"{edge.id}\t{edge.start}\t{edge.end}\t"
                f"{canonical(edge.cat)}\t{len(edge.derivations)}"
            )
        for pos in sorted(self.predictions):
            for seq in self.predictions[pos]:
                lines.append(f"P\t{pos}\t{canonical_seq(seq)}")
        return "\n".join(lines)
