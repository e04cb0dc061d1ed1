"""Chart behavior: packing, predictions, and the dump format."""

from __future__ import annotations

import pytest

from gapchart.chart import Chart, Derivation
from gapchart.grammar import parse_grammar
from gapchart.tables import compile_tables
from gapchart.terms import FeatureTerm, Var


MINI = """
feature np agr
start np()
restrict np agr
rule u : np(agr=A) -> np(agr=A)
lex w : np()
"""


class FakeReading:
    def __init__(self, render: str):
        self.render = render


@pytest.fixture
def chart():
    g = parse_grammar(MINI)
    tables = compile_tables(g, "bu")
    return Chart(["w", "w"], tables, g.restrictor, lookahead=False)


def lex(word: str) -> Derivation:
    return Derivation("lex", word=word)


def test_equivalent_cat_packs_new_derivation(chart):
    cat1 = FeatureTerm("np", (("agr", Var("A")),))
    cat2 = FeatureTerm("np", (("agr", Var("B")),))  # a variant of cat1
    e1, out1 = chart.add_edge(0, 1, cat1, lex("w"))
    e2, out2 = chart.add_edge(0, 1, cat2, lex("v"))
    assert out1 == "new" and out2 == "packed"
    assert e1 is e2
    assert len(e1.derivations) == 2
    assert chart.edges_created == 1


def test_same_derivation_key_is_duplicate(chart):
    cat = FeatureTerm("np")
    e1, _ = chart.add_edge(0, 1, cat, lex("w"))
    e2, out = chart.add_edge(0, 1, FeatureTerm("np"), lex("w"))
    assert out == "duplicate" and e1 is e2
    assert len(e1.derivations) == 1


@pytest.mark.parametrize("specific_first", [True, False],
                         ids=["specific-first", "general-first"])
def test_more_specific_and_more_general_cats_are_separate_edges(chart, specific_first):
    specific = FeatureTerm("np", (("agr", "sg"),))
    general = FeatureTerm("np", (("agr", Var("A")),))
    cats = [specific, general] if specific_first else [general, specific]
    (e1, out1), (e2, out2) = [chart.add_edge(0, 1, cat, lex(w))
                              for cat, w in zip(cats, "wv")]
    assert out1 == out2 == "new"
    assert e1 is not e2 and chart.edges == [e1, e2]
    assert len(e1.derivations) == len(e2.derivations) == 1


@pytest.mark.parametrize("word", ["w", "v"], ids=["same-derivation", "other-derivation"])
def test_distinct_reading_renders_stay_separate(chart, word):
    e1, out1 = chart.add_edge(0, 1, FeatureTerm("np"), lex("w"), FakeReading("r1"))
    e2, out2 = chart.add_edge(0, 1, FeatureTerm("np"), lex(word), FakeReading("r2"))
    assert out1 == out2 == "new"
    assert e1 is not e2 and chart.edges == [e1, e2]
    assert (e1.reading.render, e2.reading.render) == ("r1", "r2")


def test_reading_renders_deduplicate(chart):
    first = FakeReading("same")
    e1, _ = chart.add_edge(0, 1, FeatureTerm("np"), lex("w"), first)
    e2, out = chart.add_edge(0, 1, FeatureTerm("np"), lex("v"), FakeReading("same"))
    # equal renders pack, and the pack keeps the edge's own reading
    assert out == "packed" and e1 is e2 and e1.reading is first
    assert len(e1.derivations) == 2 and chart.edges_created == 1


def test_empty_edges_at_lists_every_empty_edge_at_the_position(chart):
    specific = chart.add_edge(1, 1, FeatureTerm("np", (("agr", "sg"),)),
                              Derivation("empty"))[0]
    chart.add_edge(0, 1, FeatureTerm("np"), lex("w"))
    general = chart.add_edge(1, 1, FeatureTerm("np", (("agr", Var("A")),)),
                             Derivation("empty", word="other"))[0]
    assert chart.empty_edges_at(1) == [specific, general]
    assert chart.empty_edges_at(0) == []


def test_prediction_dedup_is_one_directional(chart):
    specific = (FeatureTerm("np", (("agr", "sg"),)),)
    general = (FeatureTerm("np", (("agr", Var("A")),)),)
    assert chart.add_prediction(0, specific) == "ok"
    assert chart.add_prediction(0, general) == "ok"       # not subsumed
    assert chart.add_prediction(0, specific) == "duplicate"  # now covered
    assert chart.preds_created == 2
    assert chart.first_backbones(0) == {"np"}
    assert chart.first_backbones(1) == set()


def test_lookahead_rejects_impossible_first_word(toy_grammar):
    tables = compile_tables(toy_grammar, "llc")
    chart = Chart(["booked", "lands"], tables, toy_grammar.restrictor,
                  lookahead=True)
    # next word "booked" can never start an np
    assert chart.add_prediction(0, (FeatureTerm("np"),)) == "lookahead"
    assert chart.add_prediction(0, (FeatureTerm("vp_gap"),)) == "ok"


def test_lookahead_walks_through_nullable_elements(toy_grammar):
    tables = compile_tables(toy_grammar, "llc")
    chart = Chart(["lands"], tables, toy_grammar.restrictor, lookahead=True)
    # np_gap is nullable, so the walk reaches vp whose first words
    # include "lands"
    seq = (FeatureTerm("np_gap"), FeatureTerm("vp"))
    assert chart.add_prediction(0, seq) == "ok"


def test_lookahead_accepts_all_nullable_at_end_of_input(toy_grammar):
    tables = compile_tables(toy_grammar, "llc")
    chart = Chart(["lands"], tables, toy_grammar.restrictor, lookahead=True)
    assert chart.add_prediction(1, (FeatureTerm("np_gap"),)) == "ok"


def test_predictions_are_restricted_on_entry(toy_grammar):
    tables = compile_tables(toy_grammar, "llc")
    chart = Chart(["the"], tables, toy_grammar.restrictor, lookahead=False)
    cat = FeatureTerm("np", (("agr", "sg"), ("case", "nom")))
    chart.add_prediction(0, (cat,))
    (seq,) = chart.predictions[0]
    assert seq[0].feature_names() == ("agr",)


def test_dump_lists_edges_then_predictions(chart):
    chart.add_edge(0, 1, FeatureTerm("np"), lex("w"))
    chart.add_prediction(1, (FeatureTerm("np", (("agr", Var("A")),)),))
    lines = chart.dump().splitlines()
    assert lines[0].startswith("1\t0\t1\tnp()\t1")
    assert lines[-1] == "P\t1\tnp(agr=_1)"
