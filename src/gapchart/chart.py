"""The chart: packed edges and prediction sequences.

Edges pack derivations: a new derivation whose category is an
alphabetic variant of an edge's over the same span joins that edge
instead of growing the chart. A more general or more specific category
is a new edge, so every derivation of an edge has exactly the edge's
category and its trees can be read off without re-unifying. Above
`syn` an edge carries one reading, and a derivation packs only into an
edge whose reading has the same render, so every reading is its own
edge and reaches every parent built over it.

`ForestFold` folds the packed forest below an edge bottom-up, cutting
unproductive cycles; tree counting and dispreference are both folds.

Predictions are sequences of restricted categories anticipated at a
string position. Adding one applies the restrictor, the one-word
lookahead filter, and a subsumption check against existing sequences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generic, TypeVar

from .grammar import Rule
from .semantics import Reading
from .tables import CompiledTables
from .terms import (
    FeatureTerm,
    Restrictor,
    canonical,
    canonical_seq,
    seq_subsumes,
    variants,
)

T = TypeVar("T")


@dataclass(frozen=True)
class Derivation:
    """One way an edge was built: a word, an empty rule, or a reduction."""

    kind: str  # "lex" | "empty" | "rule"
    rule: Rule | None = None
    word: str | None = None
    daughters: tuple["Edge", ...] = ()

    @property
    def key(self) -> tuple:
        return (
            self.kind,
            self.rule.name if self.rule else None,
            self.word,
            tuple(d.id for d in self.daughters),
        )


class Edge:
    """A span with a category, packed derivations, and the one reading
    they share (None at `syn`)."""

    __slots__ = ("id", "start", "end", "cat", "derivations", "reading",
                 "_deriv_keys")

    def __init__(self, eid: int, start: int, end: int, cat: FeatureTerm,
                 reading: Reading | None):
        self.id = eid
        self.start = start
        self.end = end
        self.cat = cat
        self.derivations: list[Derivation] = []
        self.reading = reading
        self._deriv_keys: set[tuple] = set()

    @property
    def backbone(self) -> str:
        return self.cat.backbone

    def add_derivation(self, d: Derivation) -> bool:
        key = d.key
        if key in self._deriv_keys:
            return False
        self._deriv_keys.add(key)
        self.derivations.append(d)
        return True

    def __repr__(self) -> str:
        return f"<edge {self.id} {self.start}-{self.end} {canonical(self.cat)}>"


class ForestFold(Generic[T]):
    """A bottom-up fold over the packed forest below an edge.

    An edge's value is `plus` over its derivations of
    `derive(derivation, daughter values)`, starting from `zero`. A
    daughter that revisits an edge on the current root path (possible
    only through unproductive cycles) is cut: its value is `zero`. The
    cut is path-dependent, so a value is memoised only when its whole
    computation hit no cut; such a value is the same on every path.
    Counting trees is (0, +, product); the cheapest derivation is
    (inf, min, sum).
    """

    def __init__(self, zero: T, plus: Callable[[T, T], T],
                 derive: Callable[[Derivation, list[T]], T]):
        self.zero = zero
        self.plus = plus
        self.derive = derive
        self._memo: dict[int, T] = {}

    def value(self, edge: Edge, path: set[int] | None = None) -> T:
        """The edge's value below `path`, the ids of the edges above it
        on the current root path (default: the edge is a root)."""
        return self._fold(edge, set() if path is None else path)[0]

    def settled(self, edge: Edge) -> bool:
        """Whether the edge's value is memoised, and so path-independent."""
        return edge.id in self._memo

    def _fold(self, edge: Edge, path: set[int]) -> tuple[T, bool]:
        got = self._memo.get(edge.id)
        if got is not None:
            return got, True
        if edge.id in path:
            return self.zero, False
        path.add(edge.id)
        best = self.zero
        clean = True
        for d in edge.derivations:
            values = []
            for child in d.daughters:
                value, ok = self._fold(child, path)
                clean = clean and ok
                values.append(value)
            best = self.plus(best, self.derive(d, values))
        path.remove(edge.id)
        if clean:
            self._memo[edge.id] = best
        return best, clean


class Chart:
    """Edges, predictions, and the bookkeeping the engine drives."""

    def __init__(self, words: list[str], tables: CompiledTables,
                 restrictor: Restrictor, lookahead: bool = True):
        n_words = len(words)
        self.n_words = n_words
        self.words = words
        self.tables = tables
        self.lookahead = lookahead
        self.restrictor = restrictor
        self.edges: list[Edge] = []
        self.predictions: dict[int, list[tuple[FeatureTerm, ...]]] = {
            i: [] for i in range(n_words + 1)
        }
        self._first_backbones: dict[int, set[str]] = {i: set() for i in range(n_words + 1)}
        self._by_end: dict[int, list[Edge]] = {i: [] for i in range(n_words + 1)}
        self._by_group: dict[tuple, list[Edge]] = {}
        self.edges_created = 0
        self.preds_created = 0
        self._next_id = 1

    # -- edges ---------------------------------------------------------

    def add_edge(self, start: int, end: int, cat: FeatureTerm,
                 derivation: Derivation,
                 reading: Reading | None = None) -> tuple[Edge, str]:
        """Insert a derivation with its reading (None at `syn`); returns
        (edge, outcome) where outcome is "new", "packed", or
        "duplicate". A derivation packs into an edge whose category is a
        variant of `cat` and whose reading has the same render."""
        group = (start, end, cat.backbone, None if reading is None else reading.render)
        peers = self._by_group.setdefault(group, [])
        for other in peers:
            if variants(other.cat, cat):
                added = other.add_derivation(derivation)
                return other, ("packed" if added else "duplicate")
        edge = Edge(self._next_id, start, end, cat, reading)
        self._next_id += 1
        edge.add_derivation(derivation)
        self.edges.append(edge)
        self._by_end[end].append(edge)
        peers.append(edge)
        self.edges_created += 1
        return edge, "new"

    def edges_ending_at(self, end: int) -> list[Edge]:
        # the live list: callers iterating during growth see new edges
        return self._by_end[end]

    def empty_edges_at(self, pos: int) -> list[Edge]:
        return [e for e in self._by_end[pos] if e.start == pos]

    # -- predictions ---------------------------------------------------

    def add_prediction(self, pos: int, seq: tuple[FeatureTerm, ...]) -> str:
        """Gate, restrict, and store a sequence; returns "ok",
        "lookahead", or "duplicate"."""
        seq = tuple(self.restrictor.restrict(t) for t in seq)
        if self.lookahead and not self._lookahead_ok(pos, seq):
            return "lookahead"
        for existing in self.predictions[pos]:
            if seq_subsumes(existing, seq):
                return "duplicate"
        self.predictions[pos].append(seq)
        if seq:
            self._first_backbones[pos].add(seq[0].backbone)
        self.preds_created += 1
        return "ok"

    def _lookahead_ok(self, pos: int, seq: tuple[FeatureTerm, ...]) -> bool:
        word = self.words[pos] if pos < len(self.words) else None
        for term in seq:
            if word is not None and word in self.tables.first_word.get(
                term.backbone, frozenset()
            ):
                return True
            if term.backbone not in self.tables.nullable:
                return False
        # every element can be empty, so the sequence needs no input
        return True

    def first_backbones(self, pos: int) -> set[str]:
        """The backbones that begin a sequence predicted at `pos` (the
        chart's own set: read it, do not change it)."""
        return self._first_backbones[pos]

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
