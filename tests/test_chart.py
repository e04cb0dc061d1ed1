"""Chart behavior: packing, predictions, and the dump format."""

from __future__ import annotations

import random

import pytest

from gapchart.chart import Chart, Derivation
from gapchart.grammar import parse_grammar
from gapchart.terms import FeatureTerm, Var, variants


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
    return Chart(["w", "w"], parse_grammar(MINI), lookahead=False)


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
    # a ground category never takes in a more general one, nor the reverse
    specific = FeatureTerm("np", (("agr", "sg"),))
    general = FeatureTerm("np", (("agr", Var("A")),))
    assert specific.ground and not general.ground
    cats = [specific, general] if specific_first else [general, specific]
    (e1, out1), (e2, out2) = [chart.add_edge(0, 1, cat, lex(w))
                              for cat, w in zip(cats, "wv")]
    assert out1 == out2 == "new"
    assert e1 is not e2 and chart.edges == [e1, e2]
    assert len(e1.derivations) == len(e2.derivations) == 1


def test_equal_ground_cats_pack_into_one_edge(chart):
    cat1 = FeatureTerm("np", (("agr", "sg"),))
    cat2 = FeatureTerm("np", (("agr", "sg"),))
    assert cat1.ground and cat1 == cat2 and cat1 is not cat2
    e1, out1 = chart.add_edge(0, 1, cat1, lex("w"))
    e2, out2 = chart.add_edge(0, 1, cat2, lex("v"))
    e3, out3 = chart.add_edge(0, 1, cat2, lex("v"))
    assert (out1, out2, out3) == ("new", "packed", "duplicate")
    assert e1 is e2 is e3 and e1.cat is cat1
    assert len(e1.derivations) == 2 and chart.edges_created == 1


def test_distinct_ground_cats_are_separate_edges(chart):
    (e1, out1), (e2, out2) = [chart.add_edge(0, 1, FeatureTerm("np", (("agr", agr),)),
                                             lex("w"))
                              for agr in ("sg", "pl")]
    assert out1 == out2 == "new"
    assert e1 is not e2 and chart.edges == [e1, e2]


def test_outcomes_match_a_variant_scan_of_every_edge(chart):
    # the reference packs into the first edge over the same span, with a
    # variant category and the same render, whatever the key, and an
    # edge's derivations are told apart by their keys: lexical and
    # empty ones with the same word, empty ones by rule, and reductions
    # over edges already in the chart, one edge used twice among them;
    # the two values of a `pp` share one variable, hold two, or mix a
    # variable and an atom, so a key must tell variables apart
    rng = random.Random(5)
    values = ["sg", "pl", FeatureTerm("c"), FeatureTerm("c", (("k", "v"),))]
    rules = parse_grammar(MINI + "rule v : np() -> np() np()\n").rules
    kinds = set()
    derived = set()
    shared = set()
    for _ in range(1000):
        pattern = rng.choice(["XX", "XY", "Xs", "sX"]) if rng.random() < 0.25 else None
        if pattern:
            x = Var("X")
            a, b = [{"X": x, "Y": Var("Y"), "s": "sg"}[p] for p in pattern]
            cat = FeatureTerm("pp", (("a", a), ("b", b)))
        else:
            agr = rng.choice(values + [Var("A"), FeatureTerm("c", (("k", Var("K")),))])
            cat = FeatureTerm(rng.choice(["np", "vp"]),
                              [("agr", agr)] if rng.random() < 0.8 else [])
        start = rng.randint(0, 1)
        reading = FakeReading(rng.choice(["r1", "r2"])) if rng.random() < 0.3 else None
        kind = rng.choice(["lex", "empty", "empty", "rule"] if chart.edges else ["lex"])
        if kind == "lex":
            derivation = lex(rng.choice("wv"))
        elif kind == "rule":
            daughters = tuple(rng.choice(chart.edges[:3]) for _ in range(rng.randint(1, 2)))
            derivation = Derivation("rule", rule=rng.choice(rules), daughters=daughters)
        elif rng.random() < 0.5:
            derivation = Derivation("empty", word=rng.choice("wv"))
        else:
            derivation = Derivation("empty", rule=rng.choice(rules))
        assert derivation.key == (derivation.kind, derivation.rule and derivation.rule.name,
                                  derivation.word, tuple(d.id for d in derivation.daughters))
        peer = next((e for e in chart.edges
                     if (e.start, e.end) == (start, 2) and variants(e.cat, cat)
                     and (e.reading and e.reading.render) == (reading and reading.render)),
                    None)
        if peer is None:
            expected = "new"
        elif any(d.key == derivation.key for d in peer.derivations):
            expected = "duplicate"
        else:
            expected = "packed"
        edge, outcome = chart.add_edge(start, 2, cat, derivation, reading)
        assert outcome == expected, (cat, reading and reading.render, derivation)
        assert edge is (chart.edges[-1] if peer is None else peer)
        kinds.add((cat.ground, outcome))
        if pattern:
            shared.add((pattern, outcome))
        shape = ("twice" if len(set(derivation.daughters)) < len(derivation.daughters)
                 else "rule" if derivation.rule else "word")
        derived.add((derivation.kind, shape, outcome))
    assert kinds == {(g, o) for g in (True, False) for o in ("new", "packed", "duplicate")}
    assert shared == {(p, o) for p in ("XX", "XY", "Xs", "sX")
                      for o in ("new", "packed", "duplicate")}
    assert derived >= {(k, s, o) for k, s in [("lex", "word"), ("empty", "word"),
                                             ("empty", "rule"), ("rule", "rule"),
                                             ("rule", "twice")]
                       for o in ("new", "packed", "duplicate")}
    # the kind is part of the key: one word packs as lexical and as empty
    assert any({d.kind for d in e.derivations if d.word == w} == {"lex", "empty"}
               for e in chart.edges for w in "wv")


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
    assert chart.licensed(0) == {"np"}
    assert chart.licensed(1) == set()


def test_a_position_licenses_what_can_begin_its_first_backbones(toy_grammar):
    analysis = toy_grammar.analysis
    chart = Chart(["the", "pilot"], toy_grammar, lookahead=False)
    firsts = set()
    for backbone in sorted(analysis.backbones):
        chart.add_prediction(0, (FeatureTerm(backbone),))
        firsts.add(backbone)
        # a backbone is licensed where it can begin a predicted first backbone
        assert chart.licensed(0) == {x for x in analysis.backbones
                                     if analysis.left_corner[x] & firsts}, backbone
    assert chart.licensed(1) == set()


def test_lookahead_rejects_impossible_first_word(toy_grammar):
    chart = Chart(["booked", "lands"], toy_grammar, lookahead=True)
    # next word "booked" can never start an np
    assert chart.add_prediction(0, (FeatureTerm("np"),)) == "lookahead"
    assert chart.add_prediction(0, (FeatureTerm("vp_gap"),)) == "ok"


def test_lookahead_walks_through_nullable_elements(toy_grammar):
    chart = Chart(["lands"], toy_grammar, lookahead=True)
    # np_gap is nullable, so the walk reaches vp whose first words
    # include "lands"
    seq = (FeatureTerm("np_gap"), FeatureTerm("vp"))
    assert chart.add_prediction(0, seq) == "ok"


def test_lookahead_accepts_all_nullable_at_end_of_input(toy_grammar):
    chart = Chart(["lands"], toy_grammar, lookahead=True)
    assert chart.add_prediction(1, (FeatureTerm("np_gap"),)) == "ok"


def test_predictions_are_restricted_on_entry(toy_grammar):
    chart = Chart(["the"], toy_grammar, lookahead=False)
    cat = FeatureTerm("np", (("agr", "sg"), ("case", "nom")))
    chart.add_prediction(0, (cat,))
    (seq,) = chart.predictions[0]
    assert tuple(n for n, _ in seq[0].feats) == ("agr",)


def test_dump_lists_edges_then_predictions(chart):
    chart.add_edge(0, 1, FeatureTerm("np"), lex("w"))
    chart.add_prediction(1, (FeatureTerm("np", (("agr", Var("A")),)),))
    lines = chart.dump().splitlines()
    assert lines[0].startswith("1\t0\t1\tnp()\t1")
    assert lines[-1] == "P\t1\tnp(agr=_1)"
