"""Parse engine behavior: goldens from hand-worked charts, licensing,
empty-category completeness, robustness, and error handling."""

from __future__ import annotations

import gc
import sys
import tracemalloc

import pytest

from gapchart import chart, engine
from gapchart.data import read_text
from gapchart.engine import ConfigError, UnknownWordError, parse, tokenize
from gapchart.grammar import parse_grammar
from gapchart.scoring import min_fragment_cover
from gapchart.tables import compile_tables
from gapchart.terms import Var, canonical, canonical_seq, leaves


def cd_spans(result):
    return sorted(
        (e.start, e.end, e.backbone)
        for e in result.chart.edges
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
        (e.start, e.end) for e in r.chart.edges
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


UNBOUND_HEAD_FEATURE = """
feature t f
start s()
rule tx : t() -> w()
rule s2 : s() -> t(f=a) t(f=b)
lex x : w()
"""


@pytest.mark.parametrize("strategy", ["bu", "llc", "lc"])
def test_chart_holds_no_variable_of_a_grammar_rule(strategy):
    # rules are unified as stored, so every category and prediction the
    # chart keeps must be renamed; were the two t edges to share the
    # rule's unbound head variable f, binding it to a would block b
    g = parse_grammar(UNBOUND_HEAD_FEATURE)
    r = parse(g, ["x", "x"], strategy=strategy)
    assert r.trees() == ["(s2 (tx x) (tx x))"]
    rule_vars = {v for rule in g.rules for t in (rule.head, *rule.rhs)
                 for v in leaves(t) if isinstance(v, Var)}
    stored = [e.cat for e in r.chart.edges]
    stored += [t for seqs in r.chart.predictions.values() for seq in seqs for t in seq]
    assert not rule_vars & {v for t in stored for v in leaves(t)}


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
    spans = {(e.start, e.end) for e in r.chart.edges}
    assert (3, 5) in spans  # "the flight" still parsed as an np


def test_a_resumed_parse_builds_the_chart_of_a_fresh_parse(toy_grammar, toy_corpus):
    shared = 0
    for strategy, lookahead in (("llc", True), ("lc", True), ("lc", False)):
        config = dict(strategy=strategy, lookahead=lookahead, robust=True)
        earlier = []
        for utt in toy_corpus:
            words = tokenize(utt)
            fresh = parse(toy_grammar, words, **config)
            for base in earlier:
                resumed = parse(toy_grammar, words, resume_from=base, **config)
                assert resumed.chart.dump() == fresh.chart.dump(), (strategy, utt)
                assert resumed.trees() == fresh.trees()
                # the complete edges are those a scan of every edge,
                # taken-over ones included, finds, in the same order
                assert [e.id for e in resumed.complete_edges()] == [
                    e.id for e in resumed.chart.edges
                    if (e.start, e.end) == (0, len(words)) and resumed.fits_start(e)]
                shared = max(shared, base.shared_positions(words))
            earlier.append(fresh)
    assert shared >= 3


def test_chart_counts_are_the_sizes_of_its_edge_and_prediction_lists(toy_grammar,
                                                                    toy_corpus):
    words = tokenize(toy_corpus[0])
    fresh = parse(toy_grammar, words, strategy="lc", robust=True)
    longer = words + ["lands"]
    resumed = parse(toy_grammar, longer, strategy="lc", resume_from=fresh, robust=True)
    assert fresh.shared_positions(longer) > 0
    for result in (fresh, resumed):
        chart = result.chart
        assert chart.edges_created == len(chart.edges) > 0
        assert chart.preds_created == sum(map(len, chart.predictions.values())) > 0
        assert (result.stats.edges, result.stats.predictions) == \
            (chart.edges_created, chart.preds_created)


def test_a_resumed_parse_refuses_a_result_of_another_configuration(toy_grammar):
    words = tokenize("the pilot booked the flight")
    base = parse(toy_grammar, words, depth="sem")
    for change in (dict(strategy="bu"), dict(tables=compile_tables(toy_grammar, "llc")),
                   dict(depth="syn"), dict(lookahead=False)):
        with pytest.raises(ConfigError):
            parse(toy_grammar, words, resume_from=base, **{"depth": "sem", **change})
    other = parse_grammar(read_text("toy.gram"))
    with pytest.raises(ConfigError):
        parse(other, words, depth="sem", resume_from=base)


def test_a_traced_parse_does_not_resume(toy_grammar):
    base = parse(toy_grammar, tokenize("the pilot booked the flight"))
    with pytest.raises(ConfigError):
        parse(toy_grammar, tokenize("the pilot booked a flight"), trace=[].append,
              resume_from=base)


def test_a_strict_resumed_parse_stops_at_an_unknown_word_of_the_shared_prefix(toy_grammar):
    base = parse(toy_grammar, tokenize("the zeppelin booked the flight"), robust=True)
    words = tokenize("the zeppelin booked a flight")
    assert base.shared_positions(words) == 3  # positions 0 to 2: "the zeppelin"
    with pytest.raises(UnknownWordError) as fresh:
        parse(toy_grammar, words)
    with pytest.raises(UnknownWordError) as resumed:
        parse(toy_grammar, words, resume_from=base)
    assert ((resumed.value.word, resumed.value.position)
            == (fresh.value.word, fresh.value.position) == ("zeppelin", 2))


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
    for n in range(-len(every) - 1, len(every) + 2):
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


@pytest.mark.parametrize("strategy", ["bu", "llc", "lc"])
@pytest.mark.parametrize("text, utterances", [
    (UNARY_CYCLE, ["x", "x w w"]),
    (EPSILON_CHAIN, ["w"]),
], ids=["unary-cycle", "epsilon-chain"])
def test_first_derivations_have_earlier_daughters(text, utterances, strategy):
    # a first tree is read off first derivations without counting, which
    # needs no cycle cut only because their daughters come earlier
    g = parse_grammar(text)
    later = 0
    for utt in utterances:
        r = parse(g, tokenize(utt), strategy=strategy)
        for e in r.chart.edges:
            first, *rest = e.derivations
            assert all(d.id < e.id for d in first.daughters), e
            later += sum(d.id > e.id for derivation in rest for d in derivation.daughters)
    # the cycles do close through later derivations
    assert later > 0 if text is UNARY_CYCLE else later == 0


def test_first_trees_of_a_huge_forest_come_fast(ambig_grammar):
    # 20 PPs: Catalan(21), about 2.4e10 trees; only three are built
    words = tokenize("the man saw the dog" + " with the telescope" * 20)
    r = parse(ambig_grammar, words)
    first = r.trees(3)
    assert len(set(first)) == 3
    assert all(tree_yield(tree) == words for tree in first)
    assert r.trees(2) == first[:2]


RIGHT_BRANCHING = """
start s()
rule r0 : s() -> t()
rule r1 : t() -> a() t()
rule r2 : t() -> c()
lex x : a()
lex y : c()
"""
# a unary cycle at every level: each `t` also derives through `u`
CYCLE_AT_EVERY_LEVEL = RIGHT_BRANCHING + "rule r3 : t() -> u()\nrule r4 : u() -> t()\n"


@pytest.mark.parametrize("text", [RIGHT_BRANCHING, CYCLE_AT_EVERY_LEVEL],
                         ids=["plain", "unary-cycles"])
def test_trees_and_covers_of_a_deep_forest_need_no_deep_recursion(text):
    # 2,001 words nest 2,001 phrases, twice Python's default recursion limit
    assert sys.getrecursionlimit() <= 1000
    words = ["x"] * 2000 + ["y"]
    r = parse(parse_grammar(text), words)
    first = "(r0 " + "(r1 x " * 2000 + "(r2 y)" + ")" * 2001
    assert r.trees(1) == [first]
    # a cyclic derivation is cut, so the cycles add no tree
    assert r.trees() == [first]
    assert r.trees(2) == [first]
    cover = min_fragment_cover(r)
    assert cover.is_single_sentence and cover.count == 1


@pytest.fixture
def fold_calls(monkeypatch):
    """A one-element list counting the `derive` calls of every
    `ForestFold` the engine makes."""
    calls = [0]

    class CountingFold(chart.ForestFold):
        def __init__(self, zero, plus, derive):
            def counted(d, values):
                calls[0] += 1
                return derive(d, values)
            super().__init__(zero, plus, counted)

    monkeypatch.setattr(engine, "ForestFold", CountingFold)
    return calls


def test_a_first_tree_is_never_unranked(fold_calls):
    # a root's tree 0 is read off first derivations, whatever the limit:
    # counting it would fold the forest below the root
    r = parse(parse_grammar(CYCLE_AT_EVERY_LEVEL), tokenize("x x y"))
    assert r.trees(1) == ["(r0 (r1 x (r1 x (r2 y))))"]
    assert fold_calls[0] == 0
    assert r.trees(2) == ["(r0 (r1 x (r1 x (r2 y))))"]
    assert fold_calls[0] > 0


# a second tree at the bottom of the spine: `t -> c` twice
TWO_TREE_SPINE = RIGHT_BRANCHING + "rule r5 : t() -> c()\n"
TWO_TREE_CYCLES = CYCLE_AT_EVERY_LEVEL + "rule r5 : t() -> c()\n"


def spine_trees(depth):
    return ["(r0 " + "(r1 x " * depth + f"({rule} y)" + ")" * (depth + 1)
            for rule in ("r2", "r5")]


@pytest.mark.parametrize("text", [TWO_TREE_SPINE, TWO_TREE_CYCLES],
                         ids=["plain", "unary-cycles"])
def test_a_second_tree_is_linear_in_the_depth(text, fold_calls):
    # no tree text is kept inside another, and below a span change a
    # count is folded once, so doubling the depth at most doubles the
    # work and the memory, give or take a constant
    g = parse_grammar(text)
    measured = []
    for depth in (500, 1000):
        r = parse(g, ["x"] * depth + ["y"])
        fold_calls[0] = 0
        gc.collect()  # empties the free lists, so every allocation is traced
        tracemalloc.start()
        try:
            assert r.trees(2) == spine_trees(depth)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        measured.append((fold_calls[0], peak))
    (calls, peak), (calls2, peak2) = measured
    assert calls2 <= 2.5 * calls
    assert peak2 <= 2.5 * peak
    assert parse(g, ["x"] * 2000 + ["y"]).trees() == spine_trees(2000)


def test_a_pp_chain_keeps_fewer_than_15_gc_tracked_objects_per_edge(ambig_grammar):
    # each object the cyclic GC tracks is walked by every full collection,
    # so a chart's collections cost what its tracked objects per edge do
    words = tokenize("the man saw the dog" + " in the park" * 30)
    parse(ambig_grammar, words)  # compiles and warms the tables
    gc.collect()
    before = len(gc.get_objects())
    r = parse(ambig_grammar, words)
    gc.collect()
    per_edge = (len(gc.get_objects()) - before) / r.chart.edges_created
    assert r.chart.edges_created == 1119
    assert per_edge < 15


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
