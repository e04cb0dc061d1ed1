"""Parse engine behavior: goldens from hand-worked charts, licensing,
empty-category completeness, robustness, and error handling."""

from __future__ import annotations

import pytest

from gapchart.engine import ConfigError, UnknownWordError, parse, tokenize
from gapchart.grammar import parse_grammar
from gapchart.terms import canonical, canonical_seq


def cd_spans(result):
    return sorted(
        (e.start, e.end, e.backbone)
        for e in result.chart.live_edges()
        if e.backbone in result.tables.cd
    )


def predictions(result):
    return sorted(
        (pos, canonical_seq(seq))
        for pos, seqs in result.chart.predictions.items()
        for seq in seqs
    )


def test_llc_plain_sentence_builds_no_gap_edges(toy_grammar):
    r = parse(toy_grammar, tokenize("the pilot booked the flight"))
    assert r.stats.words == 5
    assert r.stats.edges == 9
    assert r.stats.predictions == 0
    assert r.stats.complete == 1
    assert cd_spans(r) == []
    assert r.trees() == [
        "(r1 (r2 the pilot) (r8 booked (r2 the flight)))"
    ]


def test_llc_relative_clause_golden_chart(toy_grammar):
    r = parse(toy_grammar, tokenize("the flight that the pilot booked lands"))
    assert r.stats.edges == 15
    assert r.stats.predictions == 3
    assert r.stats.complete == 1
    assert cd_spans(r) == [(3, 6, "s_gap"), (5, 6, "vp_gap"), (6, 6, "np_gap")]
    assert predictions(r) == [
        (3, "s_gap()"), (5, "vp_gap()"), (6, "np_gap()"),
    ]
    assert r.trees() == [
        "(r1 (r3 (r2 the flight) (r4 that (r5 (r2 the pilot) (r6 booked (r7))))) lands)"
    ]


def test_bu_builds_gap_edges_everywhere(toy_grammar):
    r = parse(toy_grammar, tokenize("the pilot booked the flight"),
              strategy="bu")
    gaps = sorted(
        (e.start, e.end) for e in r.chart.live_edges()
        if e.backbone == "np_gap"
    )
    assert gaps == [(i, i) for i in range(6)]
    assert r.stats.predictions == 0
    assert r.stats.complete == 1


def test_lc_parses_relative_clause_with_more_predictions(toy_grammar):
    llc = parse(toy_grammar, tokenize("the flight that the pilot booked lands"))
    lc = parse(toy_grammar, tokenize("the flight that the pilot booked lands"),
               strategy="lc")
    assert lc.stats.complete == 1
    assert lc.trees() == llc.trees()
    assert lc.stats.predictions > llc.stats.predictions


def test_lc_suppresses_fragment_edges(toy_grammar):
    # without a sentence start, lc licenses nothing beyond the words
    r = parse(toy_grammar, tokenize("booked the flight"), strategy="lc")
    assert r.stats.edges == 3
    assert r.stats.complete == 0
    r_llc = parse(toy_grammar, tokenize("booked the flight"))
    assert r_llc.stats.edges == 5  # np and vp still built


def test_agreement_enforced_through_unification(toy_grammar):
    assert parse(toy_grammar, tokenize("the pilots land")).stats.complete == 1
    assert parse(toy_grammar, tokenize("the pilots lands")).stats.complete == 0
    assert parse(toy_grammar, tokenize("a pilots land")).stats.complete == 0


def test_stacked_relative_clauses(toy_grammar):
    words = tokenize(
        "the flight that the pilot booked that the crew booked lands"
    )
    for strategy in ("bu", "lc", "llc"):
        r = parse(toy_grammar, words, strategy=strategy)
        assert r.stats.complete == 1, strategy
        assert len(r.trees()) == 1


EPSILON_CHAIN = """
start t()
rule top : t() -> s() wcat()
rule s_r : s() -> x() c()
rule x_r : x() -> d()
rule c_e : c() ->
rule d_e : d() ->
lex w : wcat()
"""


def test_empty_edge_existing_before_daughter_still_completes():
    # c() is built and fully processed during the position-0 empty
    # fixpoint before x() exists; the s reduction is only found because
    # x() checks trailing nullable daughters against existing empty edges
    g = parse_grammar(EPSILON_CHAIN)
    r = parse(g, ["w"], strategy="bu")
    assert r.stats.complete == 1
    assert r.trees() == ["(top (s_r (x_r (d_e)) (c_e)) w)"]


def test_unknown_word_strict_mode_raises(toy_grammar):
    with pytest.raises(UnknownWordError) as info:
        parse(toy_grammar, tokenize("the pilot booked the zeppelin"))
    assert info.value.word == "zeppelin"
    assert info.value.position == 5


def test_unknown_word_robust_mode_skips(toy_grammar):
    events = []
    r = parse(toy_grammar, tokenize("the zeppelin booked the flight"),
              robust=True, trace=events.append)
    assert r.stats.complete == 0
    assert any(line.startswith("SKIP\t1\tzeppelin") for line in events)
    spans = {(e.start, e.end) for e in r.chart.live_edges()}
    assert (3, 5) in spans  # "the flight" still parsed as an np


def test_bad_depth_rejected(toy_grammar):
    with pytest.raises(ConfigError):
        parse(toy_grammar, ["the"], depth="semantic")


def test_sort_depths_require_a_sort_table(toy_grammar):
    with pytest.raises(ConfigError):
        parse(toy_grammar, ["the"], depth="sorts")
    with pytest.raises(ConfigError):
        parse(toy_grammar, ["the"], depth="deferred")


def test_unclosed_cd_set_rejected_at_parse_time():
    g = parse_grammar(
        "start y()\ncd x\nrule r_top : y() -> x() z()\n"
        "rule r_x : x() ->\nlex w : z()\n"
    )
    with pytest.raises(ConfigError) as info:
        parse(g, ["w"])
    assert "x begins y" in str(info.value)
    # the bu strategy has an empty cd set, which is trivially closed
    assert parse(g, ["w"], strategy="bu").stats.complete == 1


def test_lookahead_prunes_without_losing_parses(toy_grammar, toy_corpus):
    for utt in toy_corpus:
        words = tokenize(utt)
        with_la = parse(toy_grammar, words, strategy="lc")
        without = parse(toy_grammar, words, strategy="lc", lookahead=False)
        assert sorted(with_la.trees()) == sorted(without.trees()), utt
        assert with_la.stats.predictions <= without.stats.predictions
        assert with_la.stats.edges <= without.stats.edges


# a and b, and b and c, derive each other: the packed forest has cycles
UNARY_CYCLE = """
start a()
rule ab : a() -> b()
rule ba : b() -> a()
rule bc : b() -> c()
rule cb : c() -> b()
rule aaw : a() -> a() w()
lex x : a()
lex x : c()
lex w : w()
"""


def tree_yield(tree):
    """The words of a tree: every token not right after "(" and not a
    rule name."""
    tokens = tree.replace("(", " ( ").replace(")", " ) ").split()
    return [
        tok for i, tok in enumerate(tokens)
        if tok not in ("(", ")") and (i == 0 or tokens[i - 1] != "(")
    ]


def assert_limits_are_prefixes(result):
    every = result.trees()
    for n in range(len(every) + 2):
        assert result.trees(n) == every[:n], n
    return every


def test_trees_limit(ambig_grammar, ambig_corpus):
    words = tokenize("the man saw the dog with the telescope in the park")
    r = parse(ambig_grammar, words)
    assert len(r.trees()) == 5
    assert len(r.trees(3)) == 3
    assert set(r.trees(3)) <= set(r.trees())
    for utt in ambig_corpus:
        assert_limits_are_prefixes(parse(ambig_grammar, tokenize(utt)))
    assert_limits_are_prefixes(parse(parse_grammar(EPSILON_CHAIN), ["w"],
                                     strategy="bu"))


@pytest.mark.parametrize("strategy", ["bu", "llc", "lc"])
def test_trees_cut_unary_cycles(strategy):
    g = parse_grammar(UNARY_CYCLE)
    r = parse(g, ["x"], strategy=strategy)
    assert assert_limits_are_prefixes(r) == ["x", "(ab (bc x))"]
    r = parse(g, ["x", "w", "w"], strategy=strategy)
    assert assert_limits_are_prefixes(r) == [
        "(aaw (aaw x w) w)", "(aaw (aaw (ab (bc x)) w) w)"
    ]


def test_first_trees_of_a_huge_forest_come_fast(ambig_grammar):
    # 20 PPs: Catalan(21), about 2.4e10 trees; only three are built
    words = tokenize("the man saw the dog" + " with the telescope" * 20)
    r = parse(ambig_grammar, words)
    first = r.trees(3)
    assert len(set(first)) == 3
    assert all(tree_yield(tree) == words for tree in first)
    assert r.trees(2) == first[:2]


def test_no_readings_at_syntax_depth(toy_grammar):
    r = parse(toy_grammar, tokenize("the pilots land"))
    assert r.complete_readings() == []


def test_trace_event_lines(toy_grammar):
    events = []
    parse(toy_grammar, tokenize("the flight that the pilot booked lands"),
          trace=events.append)
    kinds = {line.split("\t", 1)[0] for line in events}
    assert kinds >= {"ADD-EDGE", "ADD-PRED"}
    assert "ADD-PRED\t3\ts_gap()" in events


def test_trace_lookahead_rejections(toy_grammar):
    events = []
    parse(toy_grammar, tokenize("the pilot booked the flight"),
          strategy="lc", trace=events.append)
    rejects = [e for e in events if e.startswith("REJECT\tlookahead")]
    assert rejects  # relc predictions are filtered by the next word


def test_complete_edges_span_whole_input_and_match_start(toy_grammar):
    r = parse(toy_grammar, tokenize("the pilot booked the flight"))
    (edge,) = r.complete_edges()
    assert (edge.start, edge.end) == (0, 5)
    assert canonical(edge.cat) == "s(agr=sg)"


def test_parse_accepts_precompiled_tables(toy_grammar):
    from gapchart.tables import compile_tables

    tables = compile_tables(toy_grammar, "llc")
    r1 = parse(toy_grammar, tokenize("the pilots land"), tables=tables)
    r2 = parse(toy_grammar, tokenize("the pilots land"))
    assert r1.trees() == r2.trees()


def test_empty_input_parses_iff_start_is_nullable():
    g = parse_grammar(
        "start s()\nrule s_e : s() ->\nlex w : s()\n"
    )
    r = parse(g, [], strategy="bu")
    assert r.stats.complete == 1
    assert r.trees() == ["(s_e)"]
    g2 = parse_grammar("start s()\nrule r : s() -> n()\nlex w : n()\n")
    assert parse(g2, [], strategy="bu").stats.complete == 0
