"""Fragment covers, robust scores, and n-best rescoring."""

from __future__ import annotations

import json

import pytest

from gapchart.engine import parse, tokenize
from gapchart.grammar import parse_grammar
from gapchart.scoring import (
    Hypothesis,
    ScoreWeights,
    edge_dispreference,
    min_fragment_cover,
    nl_score,
    read_nbest,
    rescore,
)
from gapchart.terms import canonical

from oracles import all_min_cost_tilings, exhaustive_min_cover_cost


def cover_cost(cover, weights):
    return sum(arc.cost for arc in cover.arcs)


def test_dp_cover_matches_exhaustive_minimum(fragments_grammar, toy_grammar,
                                             toy_corpus):
    weights = ScoreWeights()
    cases = [
        (fragments_grammar, "list flights of fare code of q"),
        (fragments_grammar, "list flights of fare code a q"),
        (fragments_grammar, "list flights"),
        (fragments_grammar, "of q"),
        (fragments_grammar, "q of fare"),
    ] + [(toy_grammar, utt) for utt in toy_corpus]
    for grammar, utt in cases:
        result = parse(grammar, tokenize(utt), depth="syn", robust=True)
        cover = min_fragment_cover(result, weights)
        oracle_min = exhaustive_min_cover_cost(result, weights)
        assert abs(cover_cost(cover, weights) - oracle_min) < 1e-9, utt
        cuts = tuple(arc.end for arc in cover.arcs)
        oracle_tilings = {c for c, _n in all_min_cost_tilings(result, weights)}
        assert cuts in oracle_tilings, utt


def test_designed_bracketings(fragments_grammar):
    weights = ScoreWeights()
    r1 = parse(fragments_grammar, tokenize("list flights of fare code of q"),
               depth="deferred", robust=True)
    c1 = min_fragment_cover(r1, weights)
    assert c1.count == 2
    assert c1.bracketing() == "[list flights] [of fare code of q]"
    r2 = parse(fragments_grammar, tokenize("list flights of fare code a q"),
               depth="deferred", robust=True)
    c2 = min_fragment_cover(r2, weights)
    assert c2.count == 4
    assert c2.bracketing() == "[list flights] [of fare code] [a] [q]"


def test_nl_score_arithmetic(fragments_grammar):
    weights = ScoreWeights()
    expect = {
        "list flights of fare code of q": (2, False, -2.25),
        "list flights of fare code a q": (4, False, -4.25),
        "list flights": (1, True, -0.5),
        "of q": (1, False, -1.0),
    }
    for utt, (count, single, score) in expect.items():
        r = parse(fragments_grammar, tokenize(utt), depth="deferred",
                  robust=True)
        cover = min_fragment_cover(r, weights)
        assert cover.count == count, utt
        assert cover.is_single_sentence == single, utt
        assert nl_score(cover, weights) == pytest.approx(score), utt


def test_sentence_bonus_requires_start_backbone(fragments_grammar):
    weights = ScoreWeights()
    # "of q" is one fragment but a pp, not a sentence: no bonus
    r = parse(fragments_grammar, tokenize("of q"), depth="deferred",
              robust=True)
    cover = min_fragment_cover(r, weights)
    assert cover.count == 1 and not cover.is_single_sentence


def test_dispreference_charged_per_cover(fragments_grammar):
    weights = ScoreWeights()
    r = parse(fragments_grammar, tokenize("list flights of fare code of q"),
              depth="deferred", robust=True)
    cover = min_fragment_cover(r, weights)
    assert cover.dispreference == pytest.approx(0.25)  # one np_nn use


def test_dispreference_takes_cheapest_derivation():
    g = parse_grammar(
        "start x()\n"
        "rule good : x() -> w()\n"
        "rule bad : x() -> w()\n"
        "lex w : w()\n"
        "disprefer bad 0.5\n"
    )
    r = parse(g, ["w"], strategy="bu")
    (x_edge,) = [e for e in r.chart.edges if e.backbone == "x"]
    assert len(x_edge.derivations) == 2
    assert edge_dispreference(g, x_edge) == pytest.approx(0.0)
    g2 = parse_grammar(
        "start x()\n"
        "rule good : x() -> w()\n"
        "rule bad : x() -> w()\n"
        "lex w : w()\n"
        "disprefer bad 0.5\n"
        "disprefer good 0.3\n"
    )
    r2 = parse(g2, ["w"], strategy="bu")
    (x2,) = [e for e in r2.chart.edges if e.backbone == "x"]
    assert edge_dispreference(g2, x2) == pytest.approx(0.3)


def test_dispreference_cuts_unary_cycles():
    # b -> a -> b and b -> c -> b are cycles; a cyclic derivation is never
    # the cheapest, and every edge keeps its cheapest acyclic one
    g = parse_grammar(
        "start a()\n"
        "rule ab : a() -> b()\n"
        "rule ba : b() -> a()\n"
        "rule bc : b() -> c()\n"
        "rule cb : c() -> b()\n"
        "rule aaw : a() -> a() w()\n"
        "lex x : a()\n"
        "lex x : c()\n"
        "lex w : w()\n"
        "disprefer ab 0.25\n"
        "disprefer ba 1.0\n"
        "disprefer bc 0.75\n"
        "disprefer cb 0.5\n"
        "disprefer aaw 0.125\n"
    )
    for strategy in ("bu", "llc", "lc"):
        r = parse(g, ["x", "w"], strategy=strategy)
        costs = {(e.start, e.end, e.backbone): edge_dispreference(g, e)
                 for e in r.chart.edges}
        assert costs == {
            (0, 1, "a"): 0.0,     # lex
            (0, 1, "b"): 0.75,    # bc over lex c, cheaper than ba
            (0, 1, "c"): 0.0,     # lex
            (1, 2, "w"): 0.0,
            (0, 2, "a"): 0.125,   # aaw; ab would need b over a again
            (0, 2, "b"): 1.125,   # ba over aaw; bc needs c over b again
            (0, 2, "c"): 1.625,   # cb, ba, aaw
        }, strategy


def test_fallback_cost_steers_cover_choice(fragments_grammar):
    r = parse(fragments_grammar, tokenize("list flights"), depth="deferred",
              robust=True)
    cheap_fallback = ScoreWeights(fallback_cost=0.4)
    cover = min_fragment_cover(r, cheap_fallback)
    assert cover.count == 2
    assert cover.bracketing() == "?list ?flights"
    # on a cost tie the longer phrase arc wins
    tie = ScoreWeights(fallback_cost=0.5)
    cover_tie = min_fragment_cover(r, tie)
    assert cover_tie.count == 1 and cover_tie.is_single_sentence


# one-word phrases of several backbones and categories, and one
# two-word phrase, that all cost what a fallback word costs
TIES = """
start s()
feature b f
rule b1 : b(f=u) -> n()
rule b2 : b(f=v) -> n()
rule bb : b() -> n() n()
lex w : n()
lex x : n()
lex x : s()
"""


def test_cover_ties_go_to_longer_arcs_the_start_category_phrases_and_earlier_edges():
    g = parse_grammar(TIES)
    even = ScoreWeights(fallback_cost=1.0)

    def chosen(utterance):
        result = parse(g, tokenize(utterance), strategy="bu")
        return result.chart.edges, [a.edge for a in min_fragment_cover(result, even).arcs]

    _, (edge,) = chosen("w w")
    assert (edge.start, edge.end, edge.backbone) == (0, 2, "b")
    edges, (edge,) = chosen("x")
    assert edge.backbone == "s" and edge is not edges[0]
    edges, (edge,) = chosen("w")
    assert len(edges) == 3 and edge is edges[0]


# a start category with a feature: "many" and "one" parse only as
# s(agr=pl), and "x" is both s(agr=pl) and, one edge later, s(agr=sg)
AGREEING_START = """
feature s agr
feature n agr
start s(agr=sg)
rule r : s(agr=A) -> n(agr=A)
lex many : n(agr=pl)
lex x : s(agr=pl)
lex x : s(agr=sg)
"""


def test_no_sentence_bonus_for_a_spanning_edge_that_does_not_fit_the_start():
    g = parse_grammar(AGREEING_START)
    result = parse(g, ["many"], robust=True)
    assert result.stats.complete == 0 and result.trees() == []
    assert any(e.backbone == "s" and e.end == 1 for e in result.chart.edges)
    cover = min_fragment_cover(result)
    assert cover.count == 1 and not cover.is_single_sentence
    assert nl_score(cover) == pytest.approx(-1.0)


def test_cover_ties_go_to_arcs_that_fit_the_start_over_arcs_of_its_backbone():
    g = parse_grammar(AGREEING_START)
    for utterance, single in (("x", True), ("x x", False)):
        result = parse(g, tokenize(utterance), robust=True)
        cover = min_fragment_cover(result)
        for arc in cover.arcs:
            peers = [canonical(e.cat) for e in result.chart.edges
                     if (e.start, e.end) == (arc.start, arc.end)]
            # the arc that only shares the start's backbone came first
            assert peers == ["s(agr=pl)", "s(agr=sg)"], utterance
            assert canonical(arc.edge.cat) == "s(agr=sg)", utterance
        assert cover.is_single_sentence == single, utterance
    assert result.stats.complete == 0


def test_weights_reject_unknown_keys(tmp_path):
    with pytest.raises(ValueError):
        ScoreWeights.from_dict({"scael": 1.0})
    path = tmp_path / "w.json"
    path.write_text(json.dumps([1, 2]))
    with pytest.raises(ValueError):
        ScoreWeights.from_json(str(path))
    path.write_text(json.dumps({"scale": 2.0, "fragment_cost": 3.0}))
    w = ScoreWeights.from_json(str(path))
    assert w.scale == 2.0 and w.fragment_cost == 3.0
    assert w.sentence_bonus == 0.5  # untouched defaults remain


def test_read_nbest_groups_and_sorts(tmp_path):
    path = tmp_path / "n.tsv"
    path.write_text(
        "u1\t2\t-4.5\tb words\n"
        "u1\t1\t-3.5\ta words\n"
        "u2\t1\t-1\tc words\n"
    )
    groups = read_nbest(str(path))
    assert list(groups) == ["u1", "u2"]
    assert [h.rank for h in groups["u1"]] == [1, 2]
    assert groups["u1"][0].words == ("a", "words")


def test_read_nbest_rejects_malformed_rows(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("u1\t1\t-1\n")
    with pytest.raises(ValueError) as info:
        read_nbest(str(path))
    assert "line 1" in str(info.value)
    path.write_text("u1\tone\t-1\twords\n")
    with pytest.raises(ValueError):
        read_nbest(str(path))


def _nbest_groups():
    return {
        "utt1": [
            Hypothesis("utt1", 1, -100.0,
                       tuple(tokenize("list flights of fare code a q"))),
            Hypothesis("utt1", 2, -101.0,
                       tuple(tokenize("list flights of fare code of q"))),
        ],
        "utt2": [
            Hypothesis("utt2", 1, -10.0, tuple(tokenize("list flights"))),
            Hypothesis("utt2", 2, -12.0, tuple(tokenize("of q"))),
        ],
    }


def test_rescore_scale_zero_keeps_recognizer_order(fragments_grammar):
    rows = rescore(fragments_grammar, _nbest_groups(), ScoreWeights(scale=0.0))
    for row in rows:
        assert row.combined == pytest.approx(row.rec)
    utt1 = [r for r in rows if r.utt == "utt1"]
    assert [r.rec for r in utt1] == [-100.0, -101.0]


def test_rescore_flips_exactly_above_the_analytic_threshold(fragments_grammar):
    groups = _nbest_groups()
    # nl scores are -4.25 (rank 1) and -2.25 (rank 2); the combined
    # scores cross where rec1 + s*nl1 = rec2 + s*nl2, at s = 0.5
    threshold = (-100.0 - -101.0) / (-2.25 - -4.25)
    assert threshold == pytest.approx(0.5)
    below = rescore(fragments_grammar, groups, ScoreWeights(scale=0.49))
    at = rescore(fragments_grammar, groups, ScoreWeights(scale=0.5))
    above = rescore(fragments_grammar, groups, ScoreWeights(scale=0.51))

    def top1(rows):
        return next(" ".join(r.words) for r in rows
                    if r.utt == "utt1" and r.new_rank == 1)

    assert top1(below) == "list flights of fare code a q"
    assert top1(at) == "list flights of fare code a q"  # tie: stable order
    assert top1(above) == "list flights of fare code of q"


def test_rescore_default_weights_golden_rows(fragments_grammar):
    rows = rescore(fragments_grammar, _nbest_groups(), ScoreWeights())
    table = {(r.utt, r.new_rank): r for r in rows}
    first = table[("utt1", 1)]
    assert " ".join(first.words) == "list flights of fare code of q"
    assert first.combined == pytest.approx(-103.25)
    assert first.fragments == 2 and not first.is_sentence
    second = table[("utt1", 2)]
    assert second.combined == pytest.approx(-104.25)
    assert second.fragments == 4
    u2_first = table[("utt2", 1)]
    assert " ".join(u2_first.words) == "list flights"
    assert u2_first.is_sentence and u2_first.fragments == 1
    assert u2_first.combined == pytest.approx(-10.5)
    assert table[("utt2", 2)].combined == pytest.approx(-13.0)


def test_rescored_row_format(fragments_grammar):
    rows = rescore(fragments_grammar, _nbest_groups(), ScoreWeights())
    row = next(r for r in rows if r.utt == "utt2" and r.new_rank == 1)
    assert row.row() == (
        "utt2\t1\t-10.5000\t-10.0000\t-0.5000\t1\t1\tlist flights"
    )


def test_bundled_nbest_file_round_trips(fragments_grammar):
    from gapchart.data import path as data_path

    groups = read_nbest(data_path("nbest.tsv"))
    assert set(groups) == {"utt1", "utt2"}
    rows = rescore(fragments_grammar, groups, ScoreWeights())
    assert [r.new_rank for r in rows] == [1, 2, 1, 2]
