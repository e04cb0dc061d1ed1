"""Fragment covers and n-best rescoring.

When an utterance has no single complete parse, it is scored by the
cheapest way to tile it with parsed phrases. Every non-empty edge
is an arc costing `fragment_cost`; every word is also coverable by a
fallback arc costing `fallback_cost` (dearer by default, so real
phrases are preferred). The cover is found by dynamic programming over
suffix costs; reconstruction prefers longer arcs, then arcs that fit
the start category (`ParseResult.fits_start`), then phrase arcs over
fallbacks, then earlier edges.

The parse score is

    -(fragment_cost * fragments) + sentence_bonus?  - dispreference

where the bonus applies only to a cover that is one complete parse (a
single arc whose edge fits the start category, as the complete edges
do), and dispreference sums, over the cover's phrases,
the cheapest total weight of dispreferred rules any derivation needs.
Rescoring combines this with a recognizer score: rec + scale * score.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .chart import Edge, ForestFold
from .engine import ParseResult, parse
from .grammar import Grammar

_EPS = 1e-9


@dataclass(frozen=True)
class ScoreWeights:
    scale: float = 1.0
    fragment_cost: float = 1.0
    sentence_bonus: float = 0.5
    fallback_cost: float = 2.0

    @staticmethod
    def from_dict(data: dict) -> "ScoreWeights":
        known = {"scale", "fragment_cost", "sentence_bonus", "fallback_cost"}
        bad = set(data) - known
        if bad:
            raise ValueError(f"unknown weight keys: {sorted(bad)}")
        for k, v in data.items():
            # a NaN weight would leave the rescored order undefined
            try:
                finite = not isinstance(v, bool) and math.isfinite(v)
            except (TypeError, OverflowError):
                finite = False
            if not finite:
                raise ValueError(f"weight {k!r}: expected a finite number, got {v!r}")
        return ScoreWeights(**{k: float(v) for k, v in data.items()})

    @staticmethod
    def from_json(path: str) -> "ScoreWeights":
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError("weights file must hold a JSON object")
        return ScoreWeights.from_dict(data)


@dataclass(frozen=True)
class Arc:
    start: int
    end: int
    edge: object  # Edge, or None for a fallback word
    cost: float


@dataclass(frozen=True)
class FragmentCover:
    arcs: tuple[Arc, ...]
    words: tuple[str, ...]
    is_single_sentence: bool
    dispreference: float

    @property
    def count(self) -> int:
        return len(self.arcs)

    def bracketing(self) -> str:
        parts = []
        for arc in self.arcs:
            span = " ".join(self.words[arc.start : arc.end])
            if arc.edge is None:
                parts.append(f"?{span}")
            else:
                parts.append(f"[{span}]")
        return " ".join(parts)


def edge_dispreference(grammar: Grammar, edge) -> float:
    """Cheapest total dispreferred-rule weight any derivation of the
    edge incurs, cycles cut. It is never inf: following first derivations
    from any edge gives an acyclic derivation, since their daughters are
    older edges."""
    weights = grammar.dispreferred

    def derive(d, costs: list[float]) -> float:
        cost = 0.0 if d.kind == "lex" else weights.get(d.rule.name, 0.0)
        for sub in costs:
            cost += sub
        return cost

    return ForestFold(math.inf, min, derive).value(edge)


def min_fragment_cover(result: ParseResult,
                       weights: ScoreWeights | None = None) -> FragmentCover:
    """The cheapest tiling of the utterance by parsed phrases."""
    if weights is None:
        weights = ScoreWeights()
    n = len(result.words)
    starting: list[list[Edge]] = [[] for _ in range(n)]
    for edge in result.chart.edges:
        if edge.start < edge.end:
            starting[edge.start].append(edge)

    suffix = [math.inf] * (n + 1)
    suffix[n] = 0.0
    for i in range(n - 1, -1, -1):
        best = weights.fallback_cost + suffix[i + 1]
        for edge in starting[i]:
            total = weights.fragment_cost + suffix[edge.end]
            if total < best:
                best = total
        suffix[i] = best

    chosen: list[Arc] = []
    i = 0
    while i < n:
        # a phrase spans a word at least, so it wins a tie with the fallback
        edge = min(
            (e for e in starting[i]
             if abs(weights.fragment_cost + suffix[e.end] - suffix[i]) < _EPS),
            key=lambda e: (e.start - e.end, not result.fits_start(e), e.id),
            default=None,
        )
        if edge is None:
            chosen.append(Arc(i, i + 1, None, weights.fallback_cost))
        else:
            chosen.append(Arc(i, edge.end, edge, weights.fragment_cost))
        i = chosen[-1].end

    single = (
        len(chosen) == 1
        and chosen[0].edge is not None
        and result.fits_start(chosen[0].edge)
    )
    dispref = sum(
        edge_dispreference(result.grammar, arc.edge)
        for arc in chosen
        if arc.edge is not None
    )
    return FragmentCover(tuple(chosen), tuple(result.words), single, dispref)


def nl_score(cover: FragmentCover, weights: ScoreWeights | None = None) -> float:
    """The robust parse score of a cover."""
    if weights is None:
        weights = ScoreWeights()
    # 0.0 - x, unlike -x, is +0.0 when x is 0, so an empty cover scores 0.0000
    score = 0.0 - weights.fragment_cost * cover.count
    if cover.is_single_sentence:
        score += weights.sentence_bonus
    score -= cover.dispreference
    return score


# -- n-best rescoring ----------------------------------------------------


@dataclass(frozen=True)
class Hypothesis:
    utt: str
    rank: int
    rec: float
    words: tuple[str, ...]


@dataclass(frozen=True)
class RescoredHypothesis:
    utt: str
    new_rank: int
    combined: float
    rec: float
    nl: float
    fragments: int
    is_sentence: bool
    words: tuple[str, ...]

    def row(self) -> str:
        return "\t".join(
            [
                self.utt,
                str(self.new_rank),
                f"{self.combined:.4f}",
                f"{self.rec:.4f}",
                f"{self.nl:.4f}",
                str(self.fragments),
                "1" if self.is_sentence else "0",
                " ".join(self.words),
            ]
        )


def read_nbest(path: str) -> dict[str, list[Hypothesis]]:
    """Read `utt TAB rank TAB rec TAB words` rows, grouped by utterance."""
    groups: dict[str, list[Hypothesis]] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.rstrip("\n")
            if not line.strip():
                continue
            fields = line.split("\t")
            if len(fields) != 4:
                raise ValueError(
                    f"line {lineno}: expected 4 tab-separated fields, got {len(fields)}"
                )
            utt, rank_s, rec_s, words_s = fields
            try:
                rank = int(rank_s)
                rec = float(rec_s)
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
            if not math.isfinite(rec):
                raise ValueError(f"line {lineno}: recognizer score {rec_s!r} is not finite")
            groups.setdefault(utt, []).append(
                Hypothesis(utt, rank, rec, tuple(words_s.split()))
            )
    for hyps in groups.values():
        hyps.sort(key=lambda h: h.rank)
    return groups


def rescore(grammar: Grammar, groups: dict[str, list[Hypothesis]],
            weights: ScoreWeights | None = None, *, strategy: str = "llc",
            depth: str = "deferred",
            lookahead: bool = True) -> list[RescoredHypothesis]:
    """Parse every hypothesis robustly, score it, and reorder each
    utterance's list by rec + scale * score (stable on ties).

    The parses use the grammar's own tables, so every call on one
    grammar shares their semantic memo. Each hypothesis resumes from the
    parse of the earlier hypothesis of its list that shares the longest
    word prefix with it (the first such one), so a prefix the list has
    already parsed is not parsed again; see `engine.parse`."""
    if weights is None:
        weights = ScoreWeights()
    out: list[RescoredHypothesis] = []
    for utt in groups:
        scored: list[tuple[float, Hypothesis, FragmentCover, float]] = []
        results: list[ParseResult] = []
        for hyp in groups[utt]:
            words = list(hyp.words)
            base = max(results, key=lambda r: r.shared_positions(words), default=None)
            result = parse(
                grammar, words, strategy=strategy, depth=depth,
                lookahead=lookahead, robust=True, resume_from=base,
            )
            results.append(result)
            cover = min_fragment_cover(result, weights)
            nl = nl_score(cover, weights)
            combined = hyp.rec + weights.scale * nl
            scored.append((combined, hyp, cover, nl))
        scored.sort(key=lambda item: (-item[0], item[1].rank))
        for new_rank, (combined, hyp, cover, nl) in enumerate(scored, 1):
            out.append(
                RescoredHypothesis(
                    utt=utt,
                    new_rank=new_rank,
                    combined=combined,
                    rec=hyp.rec,
                    nl=nl,
                    fragments=cover.count,
                    is_sentence=cover.is_single_sentence,
                    words=hyp.words,
                )
            )
    return out
